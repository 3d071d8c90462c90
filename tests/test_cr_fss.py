"""Tests for repro.cr.fss — the FSS coreset construction."""

import numpy as np
import pytest

from repro.cr.fss import FSSCoreset, fss_coreset_size
from repro.kmeans.cost import kmeans_cost
from repro.kmeans.lloyd import solve_reference_kmeans


class TestCoresetSizeFormula:
    def test_monotonicity(self):
        assert fss_coreset_size(4, 0.2) > fss_coreset_size(2, 0.2)
        assert fss_coreset_size(2, 0.1) > fss_coreset_size(2, 0.3)


class TestFSSCoreset:
    def test_build_returns_all_parts(self, high_dim_points):
        fss = FSSCoreset(k=3, size=80, pca_rank=10, seed=0)
        result = fss.build(high_dim_points)
        assert result.coreset.size == 80
        assert result.coreset.dimension == high_dim_points.shape[1]
        assert result.pca.is_fitted
        assert result.basis_scalars == high_dim_points.shape[1] * result.pca.effective_rank

    def test_shift_equals_pca_tail_energy(self, high_dim_points):
        fss = FSSCoreset(k=3, size=50, pca_rank=5, seed=1)
        result = fss.build(high_dim_points)
        assert result.coreset.shift == pytest.approx(
            result.pca.residual_energy(high_dim_points), rel=1e-6
        )

    def test_shift_reuses_projection_bit_for_bit(self, high_dim_points):
        # build() takes Δ from the projection it already computed; that must
        # be the very value residual_energy gets by projecting again.
        result = FSSCoreset(k=3, size=50, pca_rank=5, seed=1).build(high_dim_points)
        assert result.coreset.shift == result.pca.residual_energy(high_dim_points)
        np.testing.assert_array_equal(
            result.pca.project_in_place(high_dim_points),
            result.pca.inverse_transform(result.pca.transform(high_dim_points)),
        )

    def test_coreset_points_lie_in_principal_subspace(self, high_dim_points):
        fss = FSSCoreset(k=3, size=60, pca_rank=6, seed=2)
        result = fss.build(high_dim_points)
        basis = result.pca.basis
        reprojected = result.coreset.points @ basis @ basis.T
        assert np.allclose(result.coreset.points, reprojected, atol=1e-8)

    def test_coreset_cost_plus_shift_approximates_true_cost(self, high_dim_blobs):
        points, _, _ = high_dim_blobs
        reference = solve_reference_kmeans(points, 3, n_init=5, seed=0)
        fss = FSSCoreset(k=3, size=150, pca_rank=15, seed=3)
        coreset = fss(points)
        approx = coreset.cost(reference.centers)
        true = kmeans_cost(points, reference.centers)
        assert approx == pytest.approx(true, rel=0.4)

    def test_total_weight_matches_cardinality(self, high_dim_points):
        fss = FSSCoreset(k=3, size=70, pca_rank=8, seed=4)
        coreset = fss(high_dim_points)
        assert coreset.total_weight == pytest.approx(high_dim_points.shape[0])

    def test_resolved_size_and_rank_caps(self):
        fss = FSSCoreset(k=2, epsilon=0.5, size=None, pca_rank=None, seed=0)
        assert fss.resolved_size(50) <= 50
        assert fss.resolved_rank(10, 5) <= 5

    def test_default_rank_from_epsilon(self):
        fss = FSSCoreset(k=2, epsilon=0.5, seed=0)
        # t = k + ceil(4k/eps^2) - 1 = 2 + 32 - 1 = 33, capped by data shape
        assert fss.resolved_rank(1000, 1000) == 33

    def test_reproducible_given_seed(self, high_dim_points):
        a = FSSCoreset(k=2, size=30, pca_rank=5, seed=11)(high_dim_points)
        b = FSSCoreset(k=2, size=30, pca_rank=5, seed=11)(high_dim_points)
        assert np.allclose(a.points, b.points)
        assert a.shift == pytest.approx(b.shift)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FSSCoreset(k=0)
        with pytest.raises(ValueError):
            FSSCoreset(k=2, epsilon=1.5)
        with pytest.raises(ValueError):
            FSSCoreset(k=2, size=0)
