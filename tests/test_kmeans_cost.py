"""Tests for repro.kmeans.cost."""

import numpy as np
import pytest

from repro.kmeans.cost import (
    assign_and_cost,
    assign_to_centers,
    cluster_means,
    kmeans_cost,
    weighted_kmeans_cost,
)


class TestAssignToCenters:
    def test_nearest_center_chosen(self, tiny_points):
        centers = np.array([[0.0, 0.0], [10.0, 10.0]])
        labels, d2 = assign_to_centers(tiny_points, centers)
        assert np.array_equal(labels, [0, 0, 0, 1, 1, 1])
        assert np.allclose(d2, [0.0, 1.0, 1.0, 0.0, 1.0, 1.0])

    def test_tie_breaks_to_lowest_index(self):
        points = np.array([[0.5, 0.0]])
        centers = np.array([[0.0, 0.0], [1.0, 0.0]])
        labels, _ = assign_to_centers(points, centers)
        assert labels[0] == 0

    def test_single_center(self, tiny_points):
        labels, d2 = assign_to_centers(tiny_points, np.zeros((1, 2)))
        assert np.all(labels == 0)
        assert d2[3] == pytest.approx(200.0)


class TestKmeansCost:
    def test_exact_value(self, tiny_points):
        centers = np.array([[0.0, 0.0], [10.0, 10.0]])
        assert kmeans_cost(tiny_points, centers) == pytest.approx(4.0)

    def test_zero_cost_when_centers_equal_points(self, tiny_points):
        assert kmeans_cost(tiny_points, tiny_points) == pytest.approx(0.0)

    def test_cost_decreases_with_more_centers(self, blob_points):
        one = kmeans_cost(blob_points, blob_points[:1])
        two = kmeans_cost(blob_points, blob_points[:2])
        assert two <= one


class TestWeightedCost:
    def test_unit_weights_match_unweighted(self, tiny_points):
        centers = np.array([[0.0, 0.0], [10.0, 10.0]])
        assert weighted_kmeans_cost(tiny_points, centers) == pytest.approx(
            kmeans_cost(tiny_points, centers)
        )

    def test_weights_scale_cost(self, tiny_points):
        centers = np.array([[0.0, 0.0], [10.0, 10.0]])
        w = np.full(6, 3.0)
        assert weighted_kmeans_cost(tiny_points, centers, w) == pytest.approx(12.0)

    def test_shift_added(self, tiny_points):
        centers = np.array([[0.0, 0.0], [10.0, 10.0]])
        assert weighted_kmeans_cost(tiny_points, centers, shift=5.0) == pytest.approx(9.0)

    def test_duplicated_points_equal_weighting(self, blob_points):
        centers = blob_points[:3]
        doubled = np.vstack([blob_points, blob_points])
        w = np.full(blob_points.shape[0], 2.0)
        assert weighted_kmeans_cost(blob_points, centers, w) == pytest.approx(
            kmeans_cost(doubled, centers), rel=1e-10
        )


class TestClusterMeans:
    def test_simple_means(self, tiny_points):
        labels = np.array([0, 0, 0, 1, 1, 1])
        means = cluster_means(tiny_points, labels, 2)
        assert np.allclose(means[0], [1.0 / 3.0, 1.0 / 3.0])
        assert np.allclose(means[1], [31.0 / 3.0, 31.0 / 3.0])

    def test_weighted_mean(self):
        points = np.array([[0.0], [2.0]])
        labels = np.array([0, 0])
        means = cluster_means(points, labels, 1, weights=np.array([3.0, 1.0]))
        assert means[0, 0] == pytest.approx(0.5)

    def test_empty_cluster_is_zero(self, tiny_points):
        labels = np.zeros(6, dtype=int)
        means = cluster_means(tiny_points, labels, 3)
        assert np.allclose(means[1], 0.0)
        assert np.allclose(means[2], 0.0)

    @pytest.mark.parametrize(
        "labels",
        [
            [0, 1, 2, 0],  # a label of k
            [0, 1, -1, 0],  # a negative label
            [0, 1, 0],  # three labels for four points
            [[0, 1], [1, 0]],  # one label per point, but 2-D
            [0.5, 1.7, 0, 1],  # floats would be truncated to [0, 1, 0, 1]
            [0.0, 1.0, 0.0, 1.0],  # integral floats are not integer labels
        ],
        ids=["k", "negative", "short", "2-d", "fractional", "float"],
    )
    def test_labels_must_be_one_integer_per_point_in_range(self, labels):
        with pytest.raises(ValueError, match="labels"):
            cluster_means(np.ones((4, 3)), labels, 2)

    def test_list_of_integer_labels_accepted(self):
        means = cluster_means(np.arange(12.0).reshape(4, 3), [0, 1, 1, 0], 2)
        np.testing.assert_array_equal(means, [[4.5, 5.5, 6.5], [4.5, 5.5, 6.5]])


@pytest.mark.parametrize(
    "cost_function",
    [kmeans_cost, weighted_kmeans_cost, assign_to_centers, assign_and_cost],
    ids=["kmeans_cost", "weighted_kmeans_cost", "assign_to_centers",
         "assign_and_cost"],
)
def test_centers_must_have_the_points_columns(cost_function):
    with pytest.raises(
        ValueError, match=r"^centers must have the 3 columns of points, got 5$"
    ):
        cost_function(np.ones((4, 3)), np.ones((2, 5)))
