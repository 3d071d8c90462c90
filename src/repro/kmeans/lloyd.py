"""Weighted Lloyd's algorithm with k-means++ initialisation.

This is the ``kmeans(S', w, k)`` primitive invoked by the edge server in
Algorithms 1–4 of the paper, and (with multiple restarts on the full dataset)
the reference solver that produces the optimal-cost denominator
``cost(P, X*)`` used by the normalized-cost metric of Section 7.

The iteration loop runs on the fused nearest-center pass
(:func:`repro.kmeans.cost._nearest_center_pass`): one blockwise sweep per
iteration yields the labels and the min-distances of the current centers
together, and the cost is their weighted sum, where the naive loop paid
three separate full-data passes (assign, cost, and a post-loop
re-assignment).

:meth:`WeightedKMeans.fit` validates its input once and computes the row
norms and the weighted points once, then runs all ``n_init`` restarts in
lockstep on the trusted cores, with the same arithmetic as the public,
validating functions.  One k-means++ call seeds every restart, each from its
own generator, and each Lloyd iteration is one nearest-center pass over the
``(n_init, k, d)`` stack of the active restarts' centers.  A stacked product
runs every restart's matrix through the BLAS call of its 2-D product, so
each restart's centers, labels and cost are bit for bit those of a restart
run alone.  The mean update, the empty-cluster refill and the cost stay per
restart: a mean update stacked into one ``bincount`` would need an index of
``n_init * n * d`` entries.  A restart that converges leaves the active
set, and the first restart with a strictly lower cost wins.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.kmeans.cost import _cluster_means, _nearest_center_pass
from repro.kmeans.seeding import _kmeans_plus_plus
from repro.utils.linalg import squared_norms
from repro.utils.random import SeedLike, as_generator, spawn_generators
from repro.utils.validation import (
    check_matrix,
    check_positive_int,
    check_weights,
)


@dataclass
class KMeansResult:
    """Outcome of a (weighted) k-means run.

    Attributes
    ----------
    centers:
        ``(k, d)`` array of cluster centers.
    labels:
        Assignment of each input point to a center.
    cost:
        Weighted k-means cost of ``centers`` on the input (without any
        coreset Δ shift).
    iterations:
        Number of Lloyd iterations executed by the best restart.
    converged:
        Whether the best restart reached the convergence tolerance before
        hitting ``max_iterations``.
    restarts:
        Number of independent initialisations tried.
    """

    centers: np.ndarray
    labels: np.ndarray
    cost: float
    iterations: int
    converged: bool
    restarts: int = 1

    @property
    def k(self) -> int:
        return int(self.centers.shape[0])


def _farthest_indices(d2: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` largest entries of ``d2``, descending.

    ``argpartition`` + a sort of the selected slice: ``O(n + count log
    count)`` instead of the full ``O(n log n)`` sort the naive
    ``argsort(...)[::-1]`` pays for a handful of reseeded clusters.
    """
    n = d2.shape[0]
    count = min(count, n)
    if count >= n:
        return np.argsort(d2)[::-1]
    cut = n - count
    top = np.argpartition(d2, cut)[cut:]
    return top[np.argsort(d2[top])[::-1]]


@dataclass
class WeightedKMeans:
    """Weighted Lloyd's algorithm with k-means++ seeding and restarts.

    Parameters
    ----------
    k:
        Number of clusters.
    n_init:
        Number of independent k-means++ initialisations; the best (lowest
        cost) run is returned.
    max_iterations:
        Maximum Lloyd iterations per restart.
    tolerance:
        Relative decrease in cost below which a restart is declared
        converged.
    seed:
        RNG seed or generator shared across restarts.
    """

    k: int
    n_init: int = 5
    max_iterations: int = 100
    tolerance: float = 1e-6
    seed: SeedLike = None
    _rng: np.random.Generator = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        self.k = check_positive_int(self.k, "k")
        self.n_init = check_positive_int(self.n_init, "n_init")
        self.max_iterations = check_positive_int(self.max_iterations, "max_iterations")
        tolerance = self.tolerance
        if isinstance(tolerance, bool) or not isinstance(tolerance, numbers.Real):
            raise TypeError(f"tolerance must be a real number, got {type(tolerance)!r}")
        if tolerance < 0:
            raise ValueError(f"tolerance must be non-negative, got {tolerance}")
        if not math.isfinite(tolerance):
            # NaN would never pass the convergence test: every restart would
            # run silently to max_iterations.
            raise ValueError(f"tolerance must be finite, got {tolerance}")
        self._rng = as_generator(self.seed)

    # ------------------------------------------------------------------ API
    def fit(
        self,
        points: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> KMeansResult:
        """Run weighted k-means and return the best result over restarts."""
        points = check_matrix(points, "points")
        weights = check_weights(weights, points.shape[0])
        if np.all(weights == 0):
            raise ValueError("all weights are zero; cannot cluster")

        # Per-fit arrays, shared by every restart.
        point_norms = squared_norms(points)
        weighted = points * weights[:, None]
        k = min(self.k, points.shape[0])
        rngs = spawn_generators(self._rng, self.n_init)
        centers = _kmeans_plus_plus(points, point_norms, weights, k, rngs)

        # One fused pass per iteration serves all active restarts: the labels
        # produced against the *previous* centers drive this iteration's
        # mean update, and the cost produced against the *updated* centers
        # drives the convergence test.  A converged restart leaves the
        # active set, its last labels and cost kept as its result.
        labels = _nearest_center_pass(points, point_norms, centers)[0]
        costs = [np.inf] * self.n_init
        iterations = [self.max_iterations] * self.n_init
        converged = [False] * self.n_init
        active = list(range(self.n_init))
        for iteration in range(1, self.max_iterations + 1):
            for restart in active:
                new_centers, totals = _cluster_means(
                    weighted, weights, labels[restart], k
                )
                occupied = totals > 0
                if not occupied.all():
                    self._refill_empty(points, point_norms, new_centers, occupied)
                centers[restart] = new_centers
            active_labels, dists = _nearest_center_pass(
                points, point_norms, centers[active]
            )
            labels[active] = active_labels
            still_active = []
            for restart, restart_dists in zip(active, dists):
                previous_cost = costs[restart]
                cost = costs[restart] = float(np.dot(weights, restart_dists))
                # NOTE: with previous_cost = inf, any tolerance > 0 makes
                # this comparison inf <= inf on the first iteration, i.e. the
                # default-tolerance solver performs exactly one mean update
                # per restart (quality comes from the k-means++ seeding and
                # the restarts).  This is the seed implementation's
                # behaviour, preserved bit for bit because every seeded
                # golden value in the repo pins it; run with tolerance=0 to
                # iterate to the fixed point.
                if previous_cost - cost <= self.tolerance * max(previous_cost, 1e-300):
                    converged[restart] = True
                    iterations[restart] = iteration
                else:
                    still_active.append(restart)
            # Free this pass's output before the next pass allocates its own.
            del active_labels, dists, restart_dists
            active = still_active
            if not active:
                break

        # The first strictly lower cost wins.
        best = 0
        for restart in range(1, self.n_init):
            if costs[restart] < costs[best]:
                best = restart
        best_centers = centers[best]
        if k < self.k:
            # Pad with copies of existing centers so downstream code always
            # sees exactly self.k rows.
            pad = np.repeat(best_centers[[0]], self.k - k, axis=0)
            best_centers = np.vstack([best_centers, pad])
        return KMeansResult(
            centers=best_centers.copy(),
            labels=labels[best].copy(),
            cost=costs[best],
            iterations=iterations[best],
            converged=converged[best],
            restarts=self.n_init,
        )

    def fit_predict(self, points: np.ndarray, weights: Optional[np.ndarray] = None) -> np.ndarray:
        """Convenience wrapper returning only the labels."""
        return self.fit(points, weights).labels

    # ------------------------------------------------------------ internals
    def _refill_empty(
        self,
        points: np.ndarray,
        point_norms: np.ndarray,
        new_centers: np.ndarray,
        occupied: np.ndarray,
    ) -> None:
        """Re-seed empty clusters at the points farthest from their centers,
        keeping exactly k distinct centers whenever possible (in place)."""
        _, d2 = _nearest_center_pass(
            points, point_norms, new_centers[occupied], labelled=False
        )
        refill = np.flatnonzero(~occupied)
        farthest = _farthest_indices(d2, refill.size)
        for slot, idx in zip(refill, farthest):
            new_centers[slot] = points[idx]


def solve_reference_kmeans(
    points: np.ndarray,
    k: int,
    n_init: int = 10,
    max_iterations: int = 200,
    seed: SeedLike = None,
) -> KMeansResult:
    """Compute the reference (near-optimal) centers ``X*`` on the full data.

    The paper normalizes every reported k-means cost by ``cost(P, X*)`` where
    ``X*`` is computed from ``P`` directly.  Exact k-means is NP-hard, so as
    in the paper's experiments we use a strong conventional solver: many
    k-means++ restarts of Lloyd's algorithm.
    """
    solver = WeightedKMeans(
        k=k, n_init=n_init, max_iterations=max_iterations, seed=seed
    )
    return solver.fit(points)
