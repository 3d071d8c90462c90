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
precision.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.utils.linalg import pairwise_squared_distances, squared_norms
from repro.utils.validation import check_matrix, check_weights

# Centres are processed against points in blocks of this many rows to keep the
# intermediate distance matrix small for large datasets.
_BLOCK_ROWS = 8192


def _nearest_center_pass(
    points: np.ndarray,
    centers: np.ndarray,
    labels: Optional[np.ndarray] = None,
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """One fused blockwise sweep: nearest-center distances, and labels when
    a ``labels`` array is given.

    Writes the labels into ``labels`` and reuses a single preallocated
    ``(block, k)`` distance buffer across blocks.  Returns
    ``(labels, dists)``.
    """
    n = points.shape[0]
    k = centers.shape[0]
    dists = np.empty(n, dtype=np.result_type(points, centers))
    center_norms = squared_norms(centers)
    block = min(_BLOCK_ROWS, n)
    buf = np.empty((block, k), dtype=np.result_type(points, centers))
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        d2 = pairwise_squared_distances(
            points[start:stop], centers,
            b_squared_norms=center_norms, out=buf[: stop - start],
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
    _, dists = _nearest_center_pass(points, centers)
    return dists


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
    labels = np.empty(points.shape[0], dtype=np.int64)
    labels, dists = _nearest_center_pass(points, centers, labels=labels)
    return labels, dists


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
    labels = np.empty(points.shape[0], dtype=np.int64)
    labels, dists = _nearest_center_pass(points, centers, labels=labels)
    return labels, dists, float(np.dot(weights, dists) + shift)


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
    μ(P) — see Section 3.1 of the paper.  Segment sums run through
    per-dimension :func:`numpy.bincount` (accumulating in the same element
    order as a scatter-add, hence numerically identical) rather than
    ``np.add.at``, whose unbuffered fancy-index dispatch is an order of
    magnitude slower on large inputs.

    With ``return_totals=True`` also returns the per-cluster weight totals,
    which callers like the Lloyd solver need anyway for empty-cluster
    detection — saving a redundant ``bincount`` pass.
    """
    points = check_matrix(points, "points")
    weights = check_weights(weights, points.shape[0])
    labels = np.asarray(labels, dtype=np.int64)
    d = points.shape[1]
    totals = np.bincount(labels, weights=weights, minlength=k)
    weighted = points * weights[:, None]
    means = np.empty((k, d), dtype=float)
    for j in range(d):
        means[:, j] = np.bincount(labels, weights=weighted[:, j], minlength=k)
    nonempty = totals > 0
    means[~nonempty] = 0.0
    means[nonempty] /= totals[nonempty, None]
    if return_totals:
        return means, totals
    return means


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
