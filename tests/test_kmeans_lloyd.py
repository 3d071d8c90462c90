"""Tests for repro.kmeans.lloyd."""

import numpy as np
import pytest

from repro.datasets import make_gaussian_mixture
from repro.kmeans.cost import (
    assign_to_centers,
    cluster_means,
    kmeans_cost,
    weighted_kmeans_cost,
)
from repro.kmeans.lloyd import KMeansResult, WeightedKMeans, solve_reference_kmeans


class TestWeightedKMeans:
    def test_recovers_separated_clusters(self, blobs):
        points, labels, true_centers = blobs
        result = WeightedKMeans(k=4, n_init=3, seed=0).fit(points)
        # Each true center should have a found center nearby.
        for c in true_centers:
            distances = np.linalg.norm(result.centers - c, axis=1)
            assert distances.min() < 1.0

    def test_result_fields(self, blob_points):
        result = WeightedKMeans(k=3, n_init=2, seed=1).fit(blob_points)
        assert isinstance(result, KMeansResult)
        assert result.centers.shape == (3, blob_points.shape[1])
        assert result.labels.shape == (blob_points.shape[0],)
        assert result.cost >= 0.0
        assert result.k == 3
        assert result.restarts == 2

    def test_cost_matches_centers(self, blob_points):
        result = WeightedKMeans(k=4, n_init=2, seed=2).fit(blob_points)
        assert result.cost == pytest.approx(kmeans_cost(blob_points, result.centers), rel=1e-9)

    def test_deterministic_given_seed(self, blob_points):
        a = WeightedKMeans(k=3, n_init=2, seed=5).fit(blob_points)
        b = WeightedKMeans(k=3, n_init=2, seed=5).fit(blob_points)
        assert np.allclose(a.centers, b.centers)

    def test_more_restarts_never_worse(self, high_dim_points):
        few = WeightedKMeans(k=3, n_init=1, seed=7).fit(high_dim_points)
        many = WeightedKMeans(k=3, n_init=6, seed=7).fit(high_dim_points)
        assert many.cost <= few.cost * 1.0001

    def test_weights_shift_centers(self):
        points = np.array([[0.0], [1.0], [10.0], [11.0]])
        weights = np.array([100.0, 100.0, 1e-6, 1e-6])
        result = WeightedKMeans(k=1, n_init=2, seed=0).fit(points, weights)
        assert abs(result.centers[0, 0] - 0.5) < 0.01

    def test_k_larger_than_n_pads_centers(self):
        points = np.array([[0.0, 0.0], [5.0, 5.0]])
        result = WeightedKMeans(k=4, n_init=1, seed=0).fit(points)
        assert result.centers.shape == (4, 2)
        assert result.cost == pytest.approx(0.0, abs=1e-12)

    def test_all_zero_weights_raise(self, blob_points):
        with pytest.raises(ValueError):
            WeightedKMeans(k=2, seed=0).fit(blob_points, np.zeros(blob_points.shape[0]))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WeightedKMeans(k=0)
        with pytest.raises(ValueError):
            WeightedKMeans(k=2, tolerance=-1.0)

    @pytest.mark.parametrize("tolerance, error, message", [
        (float("nan"), ValueError, "tolerance must be finite, got nan"),
        (float("inf"), ValueError, "tolerance must be finite, got inf"),
        (None, TypeError, "tolerance must be a real number"),
        ("0.1", TypeError, "tolerance must be a real number"),
        (True, TypeError, "tolerance must be a real number"),
    ], ids=["nan", "inf", "none", "str", "bool"])
    def test_tolerance_must_be_a_finite_non_negative_real(
        self, tolerance, error, message
    ):
        # NaN and inf used to pass the `tolerance < 0` test: NaN ran every
        # restart silently to max_iterations, unconverged.
        with pytest.raises(error, match=message):
            WeightedKMeans(k=2, tolerance=tolerance)

    @pytest.mark.parametrize(
        "tolerance", [0, 0.0, 1e-6, np.float64(1e-3), np.float32(1e-3)],
        ids=["int", "float", "default", "float64", "float32"],
    )
    def test_valid_tolerance_is_kept_as_given(self, tolerance):
        assert WeightedKMeans(k=2, tolerance=tolerance).tolerance is tolerance

    def test_fit_predict_labels_valid(self, blob_points):
        labels = WeightedKMeans(k=4, n_init=2, seed=3).fit_predict(blob_points)
        assert labels.min() >= 0
        assert labels.max() < 4

    def test_duplicate_points_handled(self):
        points = np.tile(np.array([[1.0, 2.0]]), (20, 1))
        result = WeightedKMeans(k=3, n_init=1, seed=0).fit(points)
        assert result.cost == pytest.approx(0.0, abs=1e-12)


# Overlapping mixtures of differing shape: at tolerance=0 each takes
# several mean updates to settle.
FIXED_POINT_DATASETS = [
    dict(n=600, d=8, k=4, separation=2.0, cluster_std=1.0, seed=1),
    dict(n=900, d=15, k=3, separation=2.0, cluster_std=1.5, seed=2),
    dict(n=500, d=25, k=5, separation=2.0, cluster_std=0.8, seed=3),
]


def assert_lloyd_fixed_point(result, points, k, weights=None):
    """Another Lloyd update would leave ``result`` where it is."""
    assert result.converged
    labels, _ = assign_to_centers(points, result.centers)
    np.testing.assert_array_equal(result.labels, labels)
    np.testing.assert_array_equal(
        result.centers, cluster_means(points, result.labels, k, weights)
    )
    assert result.cost == pytest.approx(
        weighted_kmeans_cost(points, result.centers, weights), rel=1e-12
    )


class TestLloydFixedPoint:
    def test_default_tolerance_stops_after_one_update(self):
        # The first convergence test reads inf <= inf at any tolerance > 0,
        # so each restart performs one mean update; tolerance=0 runs the
        # loop on and ends at a lower cost.
        points, _, _ = make_gaussian_mixture(n=600, d=4, k=4, separation=2.0, seed=3)
        one = WeightedKMeans(k=4, n_init=2, seed=1).fit(points)
        full = WeightedKMeans(k=4, n_init=2, tolerance=0.0, seed=1).fit(points)
        assert one.iterations == 1
        assert full.converged and full.iterations > 1
        assert full.cost < one.cost
        assert_lloyd_fixed_point(full, points, 4)

    @pytest.mark.parametrize("spec", FIXED_POINT_DATASETS, ids=["ds1", "ds2", "ds3"])
    def test_zero_tolerance_reaches_a_fixed_point(self, spec):
        points, _, _ = make_gaussian_mixture(**spec)
        k = spec["k"]
        result = WeightedKMeans(
            k=k, n_init=2, max_iterations=200, tolerance=0.0, seed=99
        ).fit(points)
        assert 2 < result.iterations < 200
        assert_lloyd_fixed_point(result, points, k)

    def test_weighted_zero_tolerance_reaches_a_fixed_point(self):
        rng = np.random.default_rng(7)
        points = rng.standard_normal((3000, 17)) * 2.0
        points[1000:2000] += 8.0
        points[2000:] -= 8.0
        weights = rng.random(3000) + 0.05
        result = WeightedKMeans(
            k=3, n_init=1, max_iterations=100, tolerance=0.0, seed=4
        ).fit(points, weights)
        assert result.iterations < 100
        assert_lloyd_fixed_point(result, points, 3, weights)


class TestReferenceSolver:
    def test_reference_close_to_planted_solution(self, blobs):
        points, labels, true_centers = blobs
        result = solve_reference_kmeans(points, 4, n_init=5, seed=0)
        planted_cost = kmeans_cost(points, true_centers)
        assert result.cost <= planted_cost * 1.05

    def test_reference_is_deterministic(self, blob_points):
        a = solve_reference_kmeans(blob_points, 3, n_init=3, seed=11)
        b = solve_reference_kmeans(blob_points, 3, n_init=3, seed=11)
        assert np.allclose(a.centers, b.centers)
