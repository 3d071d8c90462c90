"""k-means cost functions.

Implements the cost definitions used throughout the paper:

* Eq. (1): ``cost(P, X) = sum_{p in P} min_{x in X} ||p - x||^2``
* Eq. (4): coreset cost — weighted cost plus the constant shift Δ
  (evaluated here through :func:`weighted_kmeans_cost`; the Δ bookkeeping
  lives in :class:`repro.cr.coreset.Coreset`).

All nearest-center passes funnel through one fused blockwise kernel
(:func:`_nearest_center_pass`): a single sweep over the data computes labels
and min-distances together inside a preallocated distance buffer, and
:func:`assign_and_cost` additionally folds in the weighted cost — so callers
that need all three (Lloyd iterations, samplers) pay one pass instead of
three.  A pass that needs the minima alone (:func:`kmeans_cost`,
:func:`weighted_kmeans_cost`, the solver's empty-cluster refill) takes them
from the trusted min core
:func:`~repro.utils.linalg._min_squared_distances_into`, which reduces a
narrow block of centers along contiguous rows and returns, bit for bit, the
row minima of the same distance buffer.  Every public entry validates its
inputs to ``float64``: the kernel's expanded distance formula is
numerically unsafe in single precision.  Each public entry is its checks
plus one call into a trusted core (``_nearest_center_pass``,
``_cluster_means``); the Lloyd solver and the bicriteria loop call the
cores directly with the arrays and row norms they validated and computed
once.  The labelled pass also takes a stack of center sets, one per Lloyd
restart: the solver's lockstep restarts share one pass per iteration, each
block one stacked product over the same ``_BLOCK_ROWS`` rows, with every
restart's labels and distances bit for bit its own pass's.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.utils.linalg import (
    _min_squared_distances_into,
    _squared_distances_into,
    squared_norms,
)
from repro.utils.validation import check_matrix, check_positive_int, check_weights

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
    Reuses a single preallocated distance buffer across blocks, and without
    labels a second one that the min core fills transposed.  Returns
    ``(labels, dists)``; ``labels`` is ``None`` when not ``labelled``.

    The labelled pass also takes an ``(r, k, d)`` stack of center sets, one
    per Lloyd restart, and returns ``(r, n)`` labels and distances: each
    block is one stacked product (see
    :func:`~repro.utils.linalg._squared_distances_into`) and one ``argmin``
    over the last axis, so row ``i`` of the result is bit for bit the pass
    over ``centers[i]`` alone.  The blocks keep their ``_BLOCK_ROWS`` rows
    whatever the stack: a product over another block of rows rounds
    differently.
    """
    n = points.shape[0]
    stack, k = centers.shape[:-2], centers.shape[-2]
    width = math.prod(stack) * k
    dtype = np.result_type(points, centers)
    dists = np.empty(stack + (n,), dtype=dtype)
    labels = np.empty(stack + (n,), dtype=np.int64) if labelled else None
    center_norms = squared_norms(centers)
    block = min(_BLOCK_ROWS, n)
    buf = np.empty(block * width, dtype=dtype)
    buffers = None if labelled else (buf, np.empty(block * k, dtype=dtype))
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        if labels is None:
            dists[start:stop] = _min_squared_distances_into(
                points[start:stop], centers, point_norms[start:stop],
                center_norms, buffers,
            )
            continue
        # A contiguous block, the shorter last one too: argmin copies any other.
        d2 = _squared_distances_into(
            points[start:stop], centers, point_norms[start:stop], center_norms,
            out=buf[: (stop - start) * width].reshape(stack + (stop - start, k)),
        )
        # One row per (restart, point): argmin, then gather each row's minimum.
        rows = d2.reshape(-1, k)
        block_labels = rows.argmin(axis=1)
        block_dists = rows[np.arange(rows.shape[0]), block_labels]
        labels[..., start:stop] = block_labels.reshape(d2.shape[:-1])
        dists[..., start:stop] = block_dists.reshape(d2.shape[:-1])
    return labels, dists


def _check_centers(centers: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Check ``centers`` as a matrix with the checked ``points``' columns."""
    centers = check_matrix(centers, "centers")
    if centers.shape[1] != points.shape[1]:
        raise ValueError(
            f"centers must have the {points.shape[1]} columns of points, "
            f"got {centers.shape[1]}"
        )
    return centers


def _min_squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Distance from every point to its nearest center (squared)."""
    _, dists = _nearest_center_pass(
        points, squared_norms(points), centers, labelled=False
    )
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
    centers = _check_centers(centers, points)
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
    centers = _check_centers(centers, points)
    weights = check_weights(weights, points.shape[0])
    labels, dists = _nearest_center_pass(points, squared_norms(points), centers)
    return labels, dists, float(np.dot(weights, dists) + shift)


def kmeans_cost(points: np.ndarray, centers: np.ndarray) -> float:
    """Unweighted k-means cost of ``centers`` on ``points`` (Eq. 1)."""
    points = check_matrix(points, "points")
    centers = _check_centers(centers, points)
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
    centers = _check_centers(centers, points)
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

    ``labels`` must hold one integer per point, each in ``[0, k)``; anything
    else raises ``ValueError`` naming ``labels`` (a float label would
    otherwise be truncated silently).  The trusted core
    :func:`_cluster_means`, which the Lloyd solver calls with its own
    labels, checks nothing.

    With ``return_totals=True`` also returns the per-cluster weight totals,
    which callers like the Lloyd solver need anyway for empty-cluster
    detection — saving a redundant ``bincount`` pass.
    """
    points = check_matrix(points, "points")
    n = points.shape[0]
    weights = check_weights(weights, n)
    k = check_positive_int(k, "k")
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(
            f"labels must be a 1-D array of one label per point ({n}), "
            f"got shape {labels.shape}"
        )
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(
            f"labels must lie in [0, {k}), got [{labels.min()}, {labels.max()}]"
        )
    labels = labels.astype(np.int64, copy=False)
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
