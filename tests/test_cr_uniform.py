"""Tests for repro.cr.uniform — the uniform-sampling baseline."""

import numpy as np
import pytest

from repro.cr.uniform import UniformCoreset
from repro.cr.sensitivity import SensitivitySampler
from repro.kmeans.cost import kmeans_cost


class TestUniformCoreset:
    def test_size_and_weights(self, blob_points):
        coreset = UniformCoreset(size=50, seed=0).build(blob_points)
        assert coreset.size == 50
        assert coreset.total_weight == pytest.approx(blob_points.shape[0])
        assert np.allclose(coreset.weights, coreset.weights[0])

    def test_size_above_n_samples_with_replacement(self):
        points = np.random.default_rng(0).standard_normal((30, 4))
        coreset = UniformCoreset(size=100, seed=1).build(points)
        assert coreset.size == 100
        # Every sample is an input row, so at most 30 distinct rows appear.
        rows = {tuple(row) for row in coreset.points}
        assert rows <= {tuple(row) for row in points}
        assert len(rows) <= 30
        assert coreset.total_weight == pytest.approx(30.0)

    def test_shift_carried(self, blob_points):
        coreset = UniformCoreset(size=10, seed=2).build(blob_points, shift=4.0)
        assert coreset.shift == pytest.approx(4.0)

    def test_reproducible(self, blob_points):
        a = UniformCoreset(size=25, seed=3)(blob_points)
        b = UniformCoreset(size=25, seed=3)(blob_points)
        assert np.allclose(a.points, b.points)

    def test_weighted_total_preserved(self, blob_points):
        weights = np.linspace(1.0, 3.0, blob_points.shape[0])
        coreset = UniformCoreset(size=40, seed=4).build(blob_points, weights=weights)
        assert coreset.total_weight == pytest.approx(weights.sum())

    def test_sensitivity_beats_uniform_with_outlier_cluster(self):
        """Why sensitivity sampling matters: when a tiny far-away cluster
        carries almost all of the cost of a candidate solution, uniform
        sampling regularly misses those points and grossly underestimates the
        cost, while sensitivity sampling includes them."""
        rng = np.random.default_rng(5)
        bulk = rng.standard_normal((1000, 2))
        rare = rng.standard_normal((5, 2)) * 0.1 + 200.0
        points = np.vstack([bulk, rare])
        # A candidate solution that ignores the rare cluster: its cost is
        # dominated by the 5 far-away points.
        centers = bulk.mean(axis=0, keepdims=True)
        true_cost = kmeans_cost(points, centers)

        def relative_error(coreset):
            return abs(coreset.cost(centers) - true_cost) / true_cost

        uniform_errors = [
            relative_error(UniformCoreset(size=50, seed=s)(points)) for s in range(8)
        ]
        sensitivity_errors = [
            relative_error(SensitivitySampler(k=2, size=50, seed=s).build(points))
            for s in range(8)
        ]
        assert np.median(sensitivity_errors) < np.median(uniform_errors)
