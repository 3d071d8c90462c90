"""Tests for repro.dr.jl — JL random projections."""

import numpy as np
import pytest

from repro.dr.jl import JLProjection
from repro.kmeans.cost import kmeans_cost
from repro.stages.sizing import default_jl_dimension


class TestDefaultDimension:
    """Lemma 4.1's ``ε⁻² log(4nk/δ)`` at constant 1, capped at ``d``."""

    def test_decreases_with_epsilon(self):
        small = default_jl_dimension(1000, 5, 10**6, epsilon=0.5, delta=0.1)
        large = default_jl_dimension(1000, 5, 10**6, epsilon=0.1, delta=0.1)
        assert large > small

    def test_grows_logarithmically_with_n(self):
        d1 = default_jl_dimension(1000, 2, 10**6, epsilon=0.2, delta=0.1)
        d2 = default_jl_dimension(1000000, 2, 10**6, epsilon=0.2, delta=0.1)
        # Multiplying n by 1000 should add only an additive log term.
        assert d2 < d1 * 3

    def test_input_dimension_cap(self):
        assert default_jl_dimension(10**6, 10, 50, epsilon=0.05, delta=0.1) == 50

    def test_formula(self):
        # ⌈log(4·1000·2/0.1) / 0.2²⌉ = ⌈11.29 / 0.04⌉
        assert default_jl_dimension(1000, 2, 10**6, epsilon=0.2, delta=0.1) == 283


class TestJLProjection:
    def test_output_shape(self, high_dim_points):
        proj = JLProjection(high_dim_points.shape[1], 20, seed=0)
        out = proj.transform(high_dim_points)
        assert out.shape == (high_dim_points.shape[0], 20)

    def test_same_seed_same_matrix(self):
        a = JLProjection(50, 8, seed=123)
        b = JLProjection(50, 8, seed=123)
        assert np.array_equal(a.transform(np.eye(50)), b.transform(np.eye(50)))

    def test_different_seed_different_matrix(self):
        a = JLProjection(50, 8, seed=1)
        b = JLProjection(50, 8, seed=2)
        assert not np.array_equal(a.transform(np.eye(50)), b.transform(np.eye(50)))

    def test_linearity(self, high_dim_points):
        proj = JLProjection(high_dim_points.shape[1], 15, seed=3)
        x, y = high_dim_points[0], high_dim_points[1]
        lhs = proj.transform((2.0 * x + 3.0 * y)[None, :])
        rhs = 2.0 * proj.transform(x[None, :]) + 3.0 * proj.transform(y[None, :])
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_norm_preservation_on_average(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((200, 400))
        proj = JLProjection(400, 120, seed=1)
        original = np.linalg.norm(points, axis=1)
        projected = np.linalg.norm(proj.transform(points), axis=1)
        ratios = projected / original
        assert abs(ratios.mean() - 1.0) < 0.05
        assert ratios.std() < 0.15

    def test_distortion_diagnostic_moderate(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((100, 300))
        proj = JLProjection(300, 150, seed=2)
        assert proj.distortion(points) < 0.5

    def test_kmeans_cost_approximately_preserved(self, high_dim_blobs):
        points, _, centers = high_dim_blobs
        proj = JLProjection(points.shape[1], 60, seed=5)
        original = kmeans_cost(points, centers)
        projected = kmeans_cost(proj.transform(points), proj.transform(centers))
        assert 0.5 * original <= projected <= 1.5 * original

    def test_rademacher_ensemble(self, high_dim_points):
        proj = JLProjection(high_dim_points.shape[1], 30, seed=0, ensemble="rademacher")
        matrix = proj.transform(np.eye(high_dim_points.shape[1]))
        unique_entries = np.unique(np.round(np.abs(matrix * np.sqrt(30)), 6))
        assert np.allclose(unique_entries, [1.0])
        out = proj.transform(high_dim_points)
        assert out.shape == (high_dim_points.shape[0], 30)

    def test_unknown_ensemble_rejected(self):
        with pytest.raises(ValueError):
            JLProjection(10, 5, ensemble="fourier")

    def test_inverse_transform_shape_and_consistency(self):
        proj = JLProjection(40, 10, seed=4)
        rng = np.random.default_rng(0)
        low = rng.standard_normal((6, 10))
        lifted = proj.inverse_transform(low)
        assert lifted.shape == (6, 40)
        # Projecting the lifted points back down must reproduce the inputs
        # (property of the Moore–Penrose inverse for full row-rank maps).
        assert np.allclose(proj.transform(lifted), low, atol=1e-8)

    def test_dimension_mismatch_raises(self):
        proj = JLProjection(20, 5, seed=0)
        with pytest.raises(ValueError):
            proj.transform(np.zeros((3, 21)))
        with pytest.raises(ValueError):
            proj.inverse_transform(np.zeros((3, 6)))
