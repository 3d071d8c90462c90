"""Tests for repro.kmeans.seeding."""

import numpy as np
import pytest

from repro.kmeans.cost import kmeans_cost
from repro.kmeans.seeding import d2_sampling, kmeans_plus_plus


class TestKMeansPlusPlus:
    def test_returns_k_centers(self, blob_points):
        centers = kmeans_plus_plus(blob_points, 4, seed=0)
        assert centers.shape == (4, blob_points.shape[1])

    def test_centers_are_data_points(self, blob_points):
        centers = kmeans_plus_plus(blob_points, 3, seed=1)
        for c in centers:
            assert np.any(np.all(np.isclose(blob_points, c), axis=1))

    def test_k_capped_at_n(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0]])
        centers = kmeans_plus_plus(points, 5, seed=0)
        assert centers.shape[0] == 2

    def test_deterministic_given_seed(self, blob_points):
        a = kmeans_plus_plus(blob_points, 4, seed=3)
        b = kmeans_plus_plus(blob_points, 4, seed=3)
        assert np.array_equal(a, b)

    def test_covers_separated_clusters(self, blobs):
        points, labels, _ = blobs
        centers = kmeans_plus_plus(points, 4, seed=5)
        # Seeding well-separated blobs should hit most clusters: the cost of
        # the seeds must be far below the 1-center cost.
        assert kmeans_cost(points, centers) < 0.2 * kmeans_cost(points, points.mean(0, keepdims=True))

    def test_weighted_selection_prefers_heavy_points(self):
        rng = np.random.default_rng(0)
        points = np.vstack([np.zeros((50, 2)), np.full((1, 2), 100.0)])
        weights = np.concatenate([np.full(50, 1e-6), [1.0]])
        centers = kmeans_plus_plus(points, 1, weights=weights, seed=rng)
        assert np.allclose(centers[0], [100.0, 100.0])

    def test_zero_total_weight_raises(self, blob_points):
        with pytest.raises(ValueError):
            kmeans_plus_plus(blob_points, 2, weights=np.zeros(blob_points.shape[0]), seed=0)

    def test_invalid_k_raises(self, blob_points):
        with pytest.raises(ValueError):
            kmeans_plus_plus(blob_points, 0, seed=0)


class TestD2Sampling:
    def test_shapes(self, blob_points):
        idx, sampled = d2_sampling(blob_points, None, 10, seed=0)
        assert idx.shape == (10,)
        assert sampled.shape == (10, blob_points.shape[1])

    def test_without_centers_uses_weights(self):
        points = np.array([[0.0], [1.0], [2.0]])
        weights = np.array([0.0, 0.0, 1.0])
        idx, _ = d2_sampling(points, None, 20, weights=weights, seed=0)
        assert np.all(idx == 2)

    def test_far_points_sampled_preferentially(self):
        points = np.vstack([np.zeros((99, 2)), np.full((1, 2), 1000.0)])
        centers = np.zeros((1, 2))
        idx, _ = d2_sampling(points, centers, 50, seed=1)
        assert np.all(idx == 99)

    def test_zero_residual_falls_back_to_weights(self):
        points = np.zeros((5, 3))
        centers = np.zeros((1, 3))
        idx, _ = d2_sampling(points, centers, 10, seed=2)
        assert idx.shape == (10,)

    def test_invalid_batch_raises(self, blob_points):
        with pytest.raises(ValueError):
            d2_sampling(blob_points, None, 0, seed=0)

    def test_centers_of_another_dimension_raise(self, blob_points):
        centers = np.zeros((2, blob_points.shape[1] + 1))
        with pytest.raises(ValueError, match="current_centers"):
            d2_sampling(blob_points, centers, 5, seed=0)
