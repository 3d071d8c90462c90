"""Tests for repro.utils.linalg."""

import numpy as np
import pytest

from repro.utils.linalg import (
    moore_penrose_inverse,
    pairwise_squared_distances,
    safe_svd,
    squared_norms,
)


class TestSquaredNorms:
    def test_matches_manual(self):
        x = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 1.0]])
        assert np.allclose(squared_norms(x), [25.0, 0.0, 2.0])

    def test_single_vector_promoted(self):
        assert np.allclose(squared_norms(np.array([3.0, 4.0])), [25.0])


class TestPairwiseSquaredDistances:
    def test_exact_small_case(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 0.0], [0.0, 2.0]])
        expected = np.array([[0.0, 4.0], [1.0, 5.0]])
        assert np.allclose(pairwise_squared_distances(a, b), expected)

    def test_symmetry_with_self(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((10, 4))
        d2 = pairwise_squared_distances(a, a)
        assert np.allclose(d2, d2.T)
        assert np.allclose(np.diag(d2), 0.0)

    def test_non_negative(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((20, 6)) * 1e-8
        assert np.all(pairwise_squared_distances(a, a) >= 0.0)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            pairwise_squared_distances(np.zeros((2, 3)), np.zeros((2, 4)))


class TestSafeSvd:
    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((8, 5))
        u, s, vt = safe_svd(m)
        assert np.allclose(u @ np.diag(s) @ vt, m, atol=1e-10)

    def test_singular_values_sorted(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((10, 10))
        _, s, _ = safe_svd(m)
        assert np.all(np.diff(s) <= 1e-12)


class TestMoorePenroseInverse:
    def test_pseudoinverse_property(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((6, 3))
        pinv = moore_penrose_inverse(m)
        assert np.allclose(m @ pinv @ m, m, atol=1e-8)

    def test_square_invertible_matches_inverse(self):
        m = np.array([[2.0, 0.0], [0.0, 4.0]])
        assert np.allclose(moore_penrose_inverse(m), np.linalg.inv(m))
