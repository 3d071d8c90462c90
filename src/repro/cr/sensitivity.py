"""Sensitivity sampling for k-means coresets.

The Langberg–Schulman / Feldman–Langberg framework (paper references [23],
[24]): upper-bound each point's *sensitivity* — the maximum fraction of the
total cost it can be responsible for under any candidate center set — using a
bicriteria solution, then sample points with probability proportional to the
sensitivity bound and weight each sample by the inverse of its expected
selection count.

Following footnote 8 of the paper (and reference [4]), weights are assigned
so that the total coreset weight equals the cardinality of the input
(deterministically), which the quantization-error analysis of Theorem 6.1
relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cr.coreset import Coreset
from repro.kmeans.bicriteria import BicriteriaResult, bicriteria_approximation
from repro.utils.random import SeedLike, as_generator, weighted_indices
from repro.utils.validation import check_matrix, check_positive_int, check_weights


@dataclass
class SensitivityScores:
    """Per-point sensitivity upper bounds and the bicriteria solution used."""

    scores: np.ndarray
    total: float
    bicriteria: BicriteriaResult


class SensitivitySampler:
    """Coreset construction by sensitivity (importance) sampling.

    Parameters
    ----------
    k:
        Number of clusters the coreset must support.
    size:
        Number of samples to draw (coreset cardinality, capped at the
        number of input points).  The theory's ``O(k³ log²k log(1/δ)/ε⁴)``
        exceeds laptop-scale datasets, so callers tune it as the paper's
        experiments do (:mod:`repro.stages.sizing`).
    seed:
        RNG seed or generator.
    """

    def __init__(self, k: int, size: int, seed: SeedLike = None) -> None:
        self.k = check_positive_int(k, "k")
        self.size = check_positive_int(size, "size")
        self._rng = as_generator(seed)

    # ------------------------------------------------------------------ API
    def compute_sensitivities(
        self,
        points: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> SensitivityScores:
        """Upper-bound the sensitivity of every point.

        Uses the standard bound ``s(p) ≲ cost(p, B)/cost(P, B) + 1/|P_b|``
        where ``B`` is a bicriteria solution and ``P_b`` is the cluster of
        ``p`` under ``B``.
        """
        points = check_matrix(points, "points")
        return self._sensitivities(points, check_weights(weights, points.shape[0]))

    def _sensitivities(
        self, points: np.ndarray, weights: np.ndarray
    ) -> SensitivityScores:
        """:meth:`compute_sensitivities` on inputs the caller validated."""
        bicriteria = bicriteria_approximation(
            points, self.k, weights=weights, seed=self._rng
        )
        # The bicriteria run caches exactly the assignment this bound needs.
        labels, d2 = bicriteria.labels, bicriteria.squared_distances
        weighted_d2 = weights * d2
        total_cost = float(weighted_d2.sum())

        cluster_weight = np.bincount(labels, weights=weights, minlength=bicriteria.size)
        cluster_weight_per_point = cluster_weight[labels]
        # Guard against empty / zero-weight clusters.
        cluster_weight_per_point[cluster_weight_per_point <= 0] = 1.0

        if total_cost <= 0:
            # Degenerate dataset: every point sits on a bicriteria center, so
            # only the cluster-mass term matters.
            scores = weights / cluster_weight_per_point
        else:
            scores = weighted_d2 / total_cost + weights / cluster_weight_per_point
        scores = np.maximum(scores, 1e-18)
        return SensitivityScores(
            scores=scores, total=float(scores.sum()), bicriteria=bicriteria
        )

    def build(
        self,
        points: np.ndarray,
        weights: Optional[np.ndarray] = None,
        shift: float = 0.0,
    ) -> Coreset:
        """Draw the coreset.

        Parameters
        ----------
        points, weights:
            Input (possibly already weighted) dataset.
        shift:
            A Δ value to carry into the resulting coreset (FSS passes the
            discarded PCA tail energy here).
        """
        points = check_matrix(points, "points")
        n = points.shape[0]
        weights = check_weights(weights, n)
        size = min(self.size, n)

        scores = self._sensitivities(points, weights)
        probabilities = scores.scores / scores.total
        indices = weighted_indices(self._rng, probabilities, size=size)

        # Inverse-probability weights, rescaled so the total coreset weight
        # equals the total input weight exactly (footnote 8 / reference [4]).
        sample_weights = weights[indices] / (size * probabilities[indices])
        total_input_weight = float(weights.sum())
        current = float(sample_weights.sum())
        if current > 0:
            sample_weights = sample_weights * (total_input_weight / current)

        return Coreset(points[indices].copy(), sample_weights, shift=shift)
