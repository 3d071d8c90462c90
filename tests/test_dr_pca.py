"""Tests for repro.dr.pca — PCA/SVD projections."""

import numpy as np
import pytest

from repro.dr.pca import PCAProjection, pca_target_dimension


class TestTargetDimension:
    def test_formula(self):
        # t = k + ceil(4k/eps^2) - 1
        assert pca_target_dimension(2, 1.0 / 3.0) == 2 + int(np.ceil(8 / (1.0 / 9.0))) - 1

    def test_grows_with_k(self):
        assert pca_target_dimension(10, 0.5) > pca_target_dimension(2, 0.5)


class TestPCAProjection:
    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            PCAProjection(rank=2).transform(np.zeros((3, 4)))

    def test_basis_orthonormal(self, high_dim_points):
        pca = PCAProjection(rank=5).fit(high_dim_points)
        basis = pca.basis
        assert np.allclose(basis.T @ basis, np.eye(5), atol=1e-10)

    def test_transform_shape(self, high_dim_points):
        pca = PCAProjection(rank=7).fit(high_dim_points)
        out = pca.transform(high_dim_points)
        assert out.shape == (high_dim_points.shape[0], 7)

    def test_project_in_place_keeps_dimension(self, high_dim_points):
        pca = PCAProjection(rank=4).fit(high_dim_points)
        projected = pca.project_in_place(high_dim_points)
        assert projected.shape == high_dim_points.shape

    def test_projection_idempotent(self, high_dim_points):
        pca = PCAProjection(rank=4).fit(high_dim_points)
        once = pca.project_in_place(high_dim_points)
        twice = pca.project_in_place(once)
        assert np.allclose(once, twice, atol=1e-8)

    def test_full_rank_projection_is_identity(self, blob_points):
        d = blob_points.shape[1]
        pca = PCAProjection(rank=d).fit(blob_points)
        assert np.allclose(pca.project_in_place(blob_points), blob_points, atol=1e-8)

    def test_residual_energy_decreases_with_rank(self, high_dim_points):
        low = PCAProjection(rank=2).fit(high_dim_points).residual_energy(high_dim_points)
        high = PCAProjection(rank=20).fit(high_dim_points).residual_energy(high_dim_points)
        assert high <= low

    def test_residual_energy_zero_at_full_rank(self, blob_points):
        pca = PCAProjection(rank=blob_points.shape[1]).fit(blob_points)
        assert pca.residual_energy(blob_points) == pytest.approx(0.0, abs=1e-6)

    def test_rank_capped_by_data(self):
        points = np.random.default_rng(0).standard_normal((5, 3))
        pca = PCAProjection(rank=10).fit(points)
        assert pca.effective_rank <= 3

    def test_transmitted_scalars_is_basis_size(self, high_dim_points):
        pca = PCAProjection(rank=6).fit(high_dim_points)
        assert pca.transmitted_scalars == high_dim_points.shape[1] * 6

    def test_residual_energy_is_singular_value_tail(self):
        # Eckart–Young: the energy the rank-t projection discards is the sum
        # of the squared singular values beyond t.
        m = np.random.default_rng(9).standard_normal((25, 12))
        tail = np.sum(np.linalg.svd(m, compute_uv=False)[5:] ** 2)
        residual = PCAProjection(rank=5).fit(m).residual_energy(m)
        assert np.isclose(residual, tail, rtol=1e-8)

    def test_residual_energy_zero_beyond_rank(self):
        # A rank at or past the data's own rank discards nothing.
        m = np.eye(4)
        assert PCAProjection(rank=4).fit(m).residual_energy(m) == pytest.approx(0.0, abs=1e-12)
        assert PCAProjection(rank=10).fit(m).residual_energy(m) == pytest.approx(0.0, abs=1e-12)

    def test_inverse_transform_roundtrip_on_subspace(self, high_dim_points):
        pca = PCAProjection(rank=6).fit(high_dim_points)
        coords = pca.transform(high_dim_points)
        reconstructed = pca.inverse_transform(coords)
        assert np.allclose(reconstructed, pca.project_in_place(high_dim_points), atol=1e-8)

    def test_dimension_mismatch_raises(self, high_dim_points):
        pca = PCAProjection(rank=3).fit(high_dim_points)
        with pytest.raises(ValueError):
            pca.transform(np.zeros((2, high_dim_points.shape[1] + 1)))
        with pytest.raises(ValueError):
            pca.inverse_transform(np.zeros((2, 4)))

    def test_fit_transform_equivalence(self, blob_points):
        a = PCAProjection(rank=3).fit_transform(blob_points)
        b = PCAProjection(rank=3).fit(blob_points).transform(blob_points)
        # Sign ambiguity of singular vectors allows per-column sign flips.
        assert np.allclose(np.abs(a), np.abs(b), atol=1e-8)
