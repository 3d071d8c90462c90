"""Seeding strategies for k-means: k-means++ and D²-sampling.

k-means++ provides an ``O(log k)``-approximate initialisation in expectation
and is used by the weighted Lloyd solver.  Plain D²-sampling (sampling
proportional to the current squared distance without updating the running
minimum per chosen point) is exposed separately because the bicriteria
approximation of Aggarwal–Deshpande–Kannan (paper reference [36]/[42])
repeatedly draws batches with it.

All weighted draws go through the cumulative-sum + ``searchsorted`` sampler
(:func:`repro.utils.random.weighted_indices`), which is bit-compatible with
``Generator.choice(p=...)`` but skips its per-call probability re-validation
— the dominant overhead when k-means++ redraws from a fresh score vector for
every selected center.  ``d2_sampling`` additionally accepts a precomputed
min-distance vector so adaptive-sampling callers can maintain it
incrementally instead of re-scanning all previously selected centers.

:func:`kmeans_plus_plus` is its checks plus one call into a trusted core
with one generator.  The Lloyd solver calls the core once per fit with one
generator per restart, on the arrays and row norms it validated and
computed once: the restarts seed in lockstep, each later step one ``(r, n)``
array of D² scores and one stacked distance update for all of them, while
every restart still draws from its own generator and gets, bit for bit,
the centers it would get alone.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.utils.linalg import (
    _min_squared_distances_into,
    _squared_distances_into,
    squared_norms,
)
from repro.utils.random import (
    SeedLike,
    _draw_from_cdf,
    _scores_cdf,
    as_generator,
    weighted_index_from_scores,
)
from repro.utils.validation import check_matrix, check_positive_int, check_weights


def kmeans_plus_plus(
    points: np.ndarray,
    k: int,
    weights: Optional[np.ndarray] = None,
    seed: SeedLike = None,
) -> np.ndarray:
    """k-means++ seeding on a weighted point set.

    Parameters
    ----------
    points:
        ``(n, d)`` data matrix.
    k:
        Number of centers to select (capped at ``n``).
    weights:
        Optional non-negative point weights; the selection probability of a
        point is proportional to ``weight * D(point)^2``.
    seed:
        RNG seed or generator.

    Returns
    -------
    numpy.ndarray
        ``(k, d)`` array of selected centers (actual data points).
    """
    points = check_matrix(points, "points")
    k = check_positive_int(k, "k")
    n = points.shape[0]
    weights = check_weights(weights, n)
    rng = as_generator(seed)

    total_weight = weights.sum()
    if total_weight <= 0:
        raise ValueError("weights must contain at least one positive entry")
    return _kmeans_plus_plus(
        points, squared_norms(points), weights, min(k, n), [rng]
    )[0]


def _kmeans_plus_plus(
    points: np.ndarray,
    point_norms: np.ndarray,
    weights: np.ndarray,
    k: int,
    rngs: List[np.random.Generator],
) -> np.ndarray:
    """Trusted core of :func:`kmeans_plus_plus`: one seeding per generator,
    in lockstep.

    Takes checked ``float64`` points with their row norms
    (``squared_norms(points)``), weights with positive mass and
    ``k <= len(points)``, and checks nothing: the Lloyd solver calls it once
    per fit, with one generator per restart, on arrays it validated and
    computed once.  Returns the ``(len(rngs), k, d)`` stack of centers; each
    matrix is bit for bit the seeding its generator makes alone.

    The first draw's CDF comes from the weights alone and is built once.
    Each later step forms every restart's D² scores as one ``(r, n)``
    array, builds their CDFs row by row in one call, draws one uniform from
    each restart's own generator, and updates all ``r`` distance vectors in
    one stacked product (:func:`_pick_distances`).
    """
    n, restarts = points.shape[0], len(rngs)
    chosen = np.empty((restarts, k), dtype=np.intp)
    cdf = _scores_cdf(weights)
    chosen[:, 0] = [_draw_from_cdf(rng, cdf) for rng in rngs]
    closest = _pick_distances(points, point_norms, chosen[:, 0])
    update = np.empty_like(closest)

    for step in range(1, k):
        # (restarts, n): every restart's D² scores against its centers so far.
        scores = weights * closest[..., 0]
        # All remaining mass is on already-covered points: such a restart
        # picks uniformly among its not-yet-chosen indices, to keep its
        # centers distinct if possible.  A NaN total is drawn, and raises.
        covered = scores.sum(axis=1) <= 0
        drawn = np.flatnonzero(~covered)
        cdfs = _scores_cdf(scores if drawn.size == restarts else scores[drawn])
        for restart, cdf in zip(drawn.tolist(), cdfs):
            chosen[restart, step] = _draw_from_cdf(rngs[restart], cdf)
        for restart in np.flatnonzero(covered).tolist():
            rng = rngs[restart]
            remaining = np.setdiff1d(np.arange(n), chosen[restart, :step])
            chosen[restart, step] = (
                rng.choice(remaining) if remaining.size else rng.integers(n)
            )
        _pick_distances(points, point_norms, chosen[:, step], update)
        np.minimum(closest, update, out=closest)

    return points[chosen]


def _pick_distances(
    points: np.ndarray,
    point_norms: np.ndarray,
    picks: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Squared distances from every point to each restart's pick.

    ``picks`` holds one row index per restart.  Returns (or fills) the
    ``(r, n, 1)`` array of one product of the points against the
    ``(r, d, 1)`` stack of picked rows; slice ``i`` is bit for bit the
    one-column product against ``points[[picks[i]]]`` alone.  Putting the
    picks side by side into one ``(n, r)`` product would not be: numpy
    sends a one-column product to ``gemv`` and a wider one to ``gemm``.
    """
    picked = picks[:, None]
    return _squared_distances_into(
        points, points[picked], point_norms, point_norms[picked], out
    )


def d2_sampling(
    points: np.ndarray,
    current_centers: Optional[np.ndarray],
    batch_size: int,
    weights: Optional[np.ndarray] = None,
    seed: SeedLike = None,
    min_squared_distances: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw a batch of points with probability proportional to weighted D².

    Used by the adaptive-sampling bicriteria algorithm: given the centers
    selected so far, each point is sampled with probability proportional to
    its weighted squared distance to the nearest current center (uniformly by
    weight if no centers have been selected yet).

    ``min_squared_distances`` lets iterative callers pass the current
    min-distance vector (maintained incrementally as centers accumulate)
    instead of having it recomputed from scratch against every center.

    Returns
    -------
    (indices, sampled_points):
        Indices into ``points`` (with replacement) and the corresponding rows.
    """
    points = check_matrix(points, "points")
    batch_size = check_positive_int(batch_size, "batch_size")
    n = points.shape[0]
    weights = check_weights(weights, n)
    rng = as_generator(seed)

    if min_squared_distances is not None:
        scores = weights * min_squared_distances
    elif current_centers is None or len(current_centers) == 0:
        scores = weights.copy()
    else:
        centers = check_matrix(current_centers, "current_centers")
        if centers.shape[1] != points.shape[1]:
            raise ValueError(
                f"current_centers must have the {points.shape[1]} columns of "
                f"points, got {centers.shape[1]}"
            )
        closest = _min_squared_distances_into(
            points, centers, squared_norms(points), squared_norms(centers)
        )
        scores = weights * closest

    total = scores.sum()
    if total <= 0:
        weight_total = weights.sum()
        if weight_total <= 0:
            raise ValueError("weights must contain at least one positive entry")
        scores = weights
    indices = weighted_index_from_scores(rng, scores, size=batch_size)
    return indices, points[indices].copy()
