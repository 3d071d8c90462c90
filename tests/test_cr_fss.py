"""Tests for repro.cr.fss — the FSS coreset construction."""

import numpy as np
import pytest

from repro.cr.fss import FSSCoreset
from repro.kmeans.cost import kmeans_cost
from repro.kmeans.lloyd import solve_reference_kmeans


class TestFSSCoreset:
    def test_build_returns_all_parts(self, high_dim_points):
        fss = FSSCoreset(k=3, size=80, pca_rank=10, seed=0)
        result = fss.build(high_dim_points)
        assert result.coreset.size == 80
        assert result.coreset.dimension == high_dim_points.shape[1]
        assert result.pca.basis.shape == (high_dim_points.shape[1], 10)

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
        coreset = fss.build(points).coreset
        approx = coreset.cost(reference.centers)
        true = kmeans_cost(points, reference.centers)
        assert approx == pytest.approx(true, rel=0.4)

    def test_total_weight_matches_cardinality(self, high_dim_points):
        fss = FSSCoreset(k=3, size=70, pca_rank=8, seed=4)
        coreset = fss.build(high_dim_points).coreset
        assert coreset.total_weight == pytest.approx(high_dim_points.shape[0])

    @pytest.mark.parametrize("n, d, rank", [(50, 5, 5), (4, 30, 4)])
    def test_size_and_rank_capped_by_data(self, n, d, rank):
        points = np.random.default_rng(0).standard_normal((n, d))
        result = FSSCoreset(k=2, size=100, pca_rank=10, seed=0).build(points)
        assert result.coreset.size == n
        assert result.pca.effective_rank == rank

    def test_reproducible_given_seed(self, high_dim_points):
        a = FSSCoreset(k=2, size=30, pca_rank=5, seed=11).build(high_dim_points).coreset
        b = FSSCoreset(k=2, size=30, pca_rank=5, seed=11).build(high_dim_points).coreset
        assert np.allclose(a.points, b.points)
        assert a.shift == pytest.approx(b.shift)

    @pytest.mark.parametrize("k, size, rank, name", [
        (0, 10, 2, "k"), (2, 0, 2, "size"), (2, 10, 0, "pca_rank"),
    ])
    def test_invalid_parameters(self, k, size, rank, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
            FSSCoreset(k=k, size=size, pca_rank=rank)
