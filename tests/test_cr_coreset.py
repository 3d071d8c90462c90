"""Tests for repro.cr.coreset — the (S, Δ, w) data structure."""

import time

import numpy as np
import pytest

from repro.cr.coreset import Coreset, merge_coresets
from repro.kmeans.cost import weighted_kmeans_cost


def _simple_coreset():
    points = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    weights = np.array([1.0, 2.0, 3.0])
    return Coreset(points, weights, shift=1.5)


class TestCoresetBasics:
    def test_properties(self):
        c = _simple_coreset()
        assert c.size == 3
        assert c.dimension == 2
        assert c.total_weight == pytest.approx(6.0)
        assert c.shift == pytest.approx(1.5)

    def test_cost_includes_shift_and_weights(self):
        c = _simple_coreset()
        centers = np.array([[0.0, 0.0]])
        expected = 1.0 * 0 + 2.0 * 4.0 + 3.0 * 4.0 + 1.5
        assert c.cost(centers) == pytest.approx(expected)

    def test_cost_matches_weighted_cost_helper(self, blob_points):
        weights = np.linspace(1.0, 2.0, blob_points.shape[0])
        c = Coreset(blob_points, weights, shift=3.0)
        centers = blob_points[:4]
        assert c.cost(centers) == pytest.approx(
            weighted_kmeans_cost(blob_points, centers, weights, shift=3.0)
        )

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            Coreset(np.zeros((2, 2)), np.ones(2), shift=-1.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Coreset(np.zeros((2, 2)), np.array([1.0, -1.0]))

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Coreset(np.zeros((3, 2)), np.ones(2))


class TestCoresetTransformations:
    def test_merge(self):
        a = _simple_coreset()
        b = Coreset(np.array([[5.0, 5.0]]), np.array([4.0]), shift=0.5)
        merged = a.merged_with(b)
        assert merged.size == 4
        assert merged.total_weight == pytest.approx(10.0)
        assert merged.shift == pytest.approx(2.0)

    def test_merge_dimension_mismatch(self):
        a = _simple_coreset()
        b = Coreset(np.zeros((1, 3)), np.ones(1))
        with pytest.raises(ValueError):
            a.merged_with(b)

    def test_merge_coresets_helper(self):
        parts = [_simple_coreset() for _ in range(3)]
        merged = merge_coresets(parts)
        assert merged.size == 9

    def test_merge_empty_collection_raises(self):
        with pytest.raises(ValueError):
            merge_coresets([])

    def test_merge_coresets_equals_the_pairwise_fold(self):
        rng = np.random.default_rng(5)
        parts = [
            Coreset(rng.normal(size=(size, 3)), rng.random(size), float(rng.random()))
            for size in (4, 0, 7, 1, 5)
        ]
        folded = parts[0]
        for part in parts[1:]:
            folded = folded.merged_with(part)
        merged = merge_coresets(iter(parts))
        assert merged.points.tobytes() == folded.points.tobytes()
        assert merged.weights.tobytes() == folded.weights.tobytes()
        assert merged.shift == folded.shift  # summed left to right

    def test_merge_coresets_single_is_the_same_object(self):
        c = _simple_coreset()
        assert merge_coresets([c]) is c

    def test_merge_coresets_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension 2 and 3"):
            merge_coresets([_simple_coreset(), Coreset(np.zeros((1, 3)), np.ones(1))])


class TestMergeComplexity:
    def test_merge_stays_within_a_constant_of_one_concatenate(self):
        # A pairwise merge copies O(B^2) rows: at 2000 buckets it runs a few
        # hundred times slower than one concatenate of the same arrays.  The
        # linear merge concatenates points and weights once and validates
        # once, about 4x.  Best-of-N timings keep machine noise out of the
        # ratio.
        rng = np.random.default_rng(0)
        parts = [Coreset(rng.normal(size=(16, 8)), rng.random(16)) for _ in range(2000)]

        def best_seconds(fn, repeats):
            timings = []
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                timings.append(time.perf_counter() - start)
            return min(timings)

        merge = best_seconds(lambda: merge_coresets(parts), 3)
        concatenate = best_seconds(
            lambda: np.concatenate([c.points for c in parts]), 5
        )
        assert merge < 25 * concatenate, (merge, concatenate)


class TestCoresetAccounting:
    def test_empirical_distortion_zero_for_exact_copy(self, blob_points):
        c = Coreset(blob_points, np.ones(blob_points.shape[0]))
        centers = blob_points[:3]
        assert c.empirical_distortion(blob_points, centers) == pytest.approx(0.0)

    def test_empirical_distortion_detects_mismatch(self, blob_points):
        # A coreset that drops half the mass misestimates the cost.
        half = Coreset(blob_points[:200], np.ones(200))
        centers = np.zeros((1, blob_points.shape[1]))
        assert half.empirical_distortion(blob_points, centers) > 0.1
