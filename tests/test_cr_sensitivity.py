"""Tests for repro.cr.sensitivity — sensitivity-sampling coresets."""

import numpy as np
import pytest

from repro.cr.sensitivity import SensitivitySampler, sensitivity_sample_size
from repro.kmeans.cost import kmeans_cost, weighted_kmeans_cost
from repro.kmeans.lloyd import solve_reference_kmeans


class TestSampleSize:
    def test_grows_with_k_and_shrinks_with_epsilon(self):
        assert sensitivity_sample_size(4, 0.2) > sensitivity_sample_size(2, 0.2)
        assert sensitivity_sample_size(2, 0.1) > sensitivity_sample_size(2, 0.4)

    def test_at_least_k_plus_one(self):
        assert sensitivity_sample_size(5, 0.9, constant=1e-9) >= 6

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sensitivity_sample_size(0, 0.2)
        with pytest.raises(ValueError):
            sensitivity_sample_size(2, 0.0)


class TestSensitivityScores:
    def test_scores_positive_and_bounded(self, blob_points):
        sampler = SensitivitySampler(k=4, size=50, seed=0)
        scores = sampler.compute_sensitivities(blob_points)
        assert np.all(scores.scores > 0)
        assert scores.total == pytest.approx(scores.scores.sum())
        # Sum of the sensitivity upper bounds is O(k): cost term sums to one,
        # cluster term sums to the number of bicriteria clusters.
        assert scores.total <= scores.bicriteria.size + 2.0

    def test_outlier_gets_high_sensitivity(self):
        rng = np.random.default_rng(0)
        points = np.vstack([rng.standard_normal((200, 2)), [[500.0, 500.0]]])
        sampler = SensitivitySampler(k=2, size=20, seed=1)
        scores = sampler.compute_sensitivities(points)
        # The outlier's score should be far above the median score, unless it
        # was captured as a bicriteria center (in which case its cluster-mass
        # term alone still dominates the median).
        assert scores.scores[-1] > 5 * np.median(scores.scores)

    def test_degenerate_identical_points(self):
        points = np.tile(np.array([[1.0, 1.0]]), (50, 1))
        sampler = SensitivitySampler(k=3, size=10, seed=2)
        scores = sampler.compute_sensitivities(points)
        assert np.all(np.isfinite(scores.scores))


class TestSensitivityCoreset:
    def test_size_and_dimension(self, blob_points):
        sampler = SensitivitySampler(k=4, size=60, seed=3)
        coreset = sampler.build(blob_points)
        assert coreset.size == 60
        assert coreset.dimension == blob_points.shape[1]

    def test_total_weight_matches_cardinality(self, blob_points):
        sampler = SensitivitySampler(k=4, size=80, seed=4)
        coreset = sampler.build(blob_points)
        # Footnote 8: deterministic weights sum exactly to n.
        assert coreset.total_weight == pytest.approx(blob_points.shape[0])

    def test_coreset_cost_approximates_true_cost(self, blobs):
        points, _, _ = blobs
        reference = solve_reference_kmeans(points, 4, n_init=5, seed=0)
        sampler = SensitivitySampler(k=4, size=120, seed=5)
        coreset = sampler.build(points)
        approx = weighted_kmeans_cost(coreset.points, reference.centers, coreset.weights)
        true = kmeans_cost(points, reference.centers)
        assert approx == pytest.approx(true, rel=0.5)

    def test_shift_is_carried(self, blob_points):
        sampler = SensitivitySampler(k=2, size=30, seed=6)
        coreset = sampler.build(blob_points, shift=7.5)
        assert coreset.shift == pytest.approx(7.5)

    def test_size_capped_at_n(self):
        points = np.random.default_rng(0).standard_normal((20, 3))
        sampler = SensitivitySampler(k=2, size=100, seed=7)
        assert sampler.build(points).size == 20

    def test_weighted_input_respected(self, blob_points):
        # Placing all weight on one cluster should concentrate samples there.
        weights = np.ones(blob_points.shape[0])
        weights[:100] = 1000.0
        sampler = SensitivitySampler(k=4, size=80, seed=8)
        coreset = sampler.build(blob_points, weights=weights)
        assert coreset.total_weight == pytest.approx(weights.sum())

    def test_reproducible_given_seed(self, blob_points):
        a = SensitivitySampler(k=3, size=40, seed=9).build(blob_points)
        b = SensitivitySampler(k=3, size=40, seed=9).build(blob_points)
        assert np.allclose(a.points, b.points)
        assert np.allclose(a.weights, b.weights)
