"""Uniform-sampling coreset — an ablation baseline.

Uniform sampling has no worst-case ε-coreset guarantee for k-means (a single
far-away point can carry most of the cost yet be missed), but it is the
natural naive alternative to sensitivity sampling and is used by the ablation
benchmark to demonstrate why importance sampling matters.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cr.coreset import Coreset
from repro.utils.random import SeedLike, as_generator
from repro.utils.validation import check_matrix, check_positive_int, check_weights


class UniformCoreset:
    """Coreset by uniform sampling with replacement and inverse-probability
    weights.

    Parameters
    ----------
    size:
        Number of points to sample.
    seed:
        RNG seed or generator.
    """

    def __init__(self, size: int, seed: SeedLike = None) -> None:
        self.size = check_positive_int(size, "size")
        self._rng = as_generator(seed)

    def build(
        self,
        points: np.ndarray,
        weights: Optional[np.ndarray] = None,
        shift: float = 0.0,
    ) -> Coreset:
        """Draw the uniform coreset; weights scale so total weight equals the
        total input weight."""
        points = check_matrix(points, "points")
        n = points.shape[0]
        weights = check_weights(weights, n)

        indices = self._rng.choice(n, size=self.size, replace=True)
        total_weight = float(weights.sum())
        sample_weights = np.full(self.size, total_weight / self.size, dtype=float)
        return Coreset(points[indices].copy(), sample_weights, shift=shift)

    def __call__(self, points: np.ndarray, weights: Optional[np.ndarray] = None) -> Coreset:
        return self.build(points, weights)
