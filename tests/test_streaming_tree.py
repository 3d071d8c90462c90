"""Tests for repro.streaming.tree — the merge-and-reduce coreset tree."""

import math

import numpy as np
import pytest

from repro.cr.coreset import Coreset
from repro.streaming.tree import CoresetTree


def make_leaf(batch_index, size=8, d=3):
    rng = np.random.default_rng(batch_index)
    return Coreset(rng.standard_normal((size, d)), np.ones(size), 0.0)


def halving_reduce(coreset):
    """Deterministic reduce: keep every other point, double its weight —
    preserves the total weight exactly, which the tests exploit."""
    return Coreset(
        coreset.points[::2], coreset.weights[::2] * 2.0, coreset.shift
    )


class TestUnwindowedTree:
    def test_logarithmic_bucket_count(self):
        tree = CoresetTree(reduce=halving_reduce)
        for t in range(64):
            tree.insert(make_leaf(t), t)
            # The classic merge-and-reduce bound: at most ⌈log2(b)⌉ + 1 live
            # buckets after b batches.
            bound = math.ceil(math.log2(t + 1)) + 1 if t else 1
            assert tree.live_bucket_count <= bound, (t, tree.live_bucket_count)
        assert tree.live_bucket_count == 1  # 64 = 2^6 collapses fully
        assert tree.merges == 63

    def test_spans_partition_the_prefix(self):
        tree = CoresetTree(reduce=halving_reduce)
        for t in range(21):
            tree.insert(make_leaf(t), t)
        buckets = tree.live_buckets
        covered = []
        for bucket in buckets:
            covered.extend(range(bucket.first_batch, bucket.last_batch + 1))
        assert covered == list(range(21))

    def test_total_weight_preserved(self):
        tree = CoresetTree(reduce=halving_reduce)
        for t in range(13):
            tree.insert(make_leaf(t, size=8), t)
        merged = tree.merged_coreset()
        assert merged.total_weight == pytest.approx(13 * 8)

    def test_delta_is_net_change(self):
        # A source ships the net change between two inserts by comparing
        # live_bucket_ids with the ids it already sent.
        tree = CoresetTree(reduce=halving_reduce)
        tree.insert(make_leaf(0), 0)
        assert [b.level for b in tree.live_buckets] == [0]
        shipped = set(tree.live_bucket_ids)
        tree.insert(make_leaf(1), 1)
        # The two leaves merged: one level-1 bucket appears, the first leaf's
        # id is retired, and the second leaf never surfaces as live.
        added = [b for b in tree.live_buckets if b.bucket_id not in shipped]
        assert [b.level for b in added] == [1]
        assert tree.live_bucket_ids == [added[0].bucket_id]

    def test_expire_is_noop_without_window(self):
        tree = CoresetTree(reduce=halving_reduce)
        tree.insert(make_leaf(0), 0)
        before = tree.live_bucket_ids
        tree.expire(1000)
        assert tree.live_bucket_ids == before == [0]

    def test_empty_tree_has_no_summary(self):
        tree = CoresetTree(reduce=halving_reduce)
        with pytest.raises(RuntimeError):
            tree.merged_coreset()


class TestWindowedTree:
    def test_buckets_fully_expire(self):
        window = 4
        tree = CoresetTree(reduce=halving_reduce, window=window)
        for t in range(32):
            tree.insert(make_leaf(t), t)
            tree.expire(t)
            for bucket in tree.live_buckets:
                # Every live bucket still touches the window (last W batches).
                assert bucket.last_batch > t - window
                # Span-capped merging: no bucket can outlive the window.
                assert bucket.span <= window

    def test_window_bounds_memory(self):
        window = 8
        tree = CoresetTree(reduce=halving_reduce, window=window)
        for t in range(200):
            tree.insert(make_leaf(t), t)
            tree.expire(t)
        # Live buckets: at most the log-depth of the window plus the frozen
        # top-level buckets awaiting expiry.
        assert tree.max_live_buckets <= 2 * (math.ceil(math.log2(window)) + 1)

    def test_expired_data_leaves_the_summary(self):
        window = 2
        tree = CoresetTree(reduce=halving_reduce, window=window)
        for t in range(10):
            tree.insert(make_leaf(t), t)
            tree.expire(t)
        merged = tree.merged_coreset()
        # Only the last `window` batches may contribute weight.
        assert merged.total_weight <= window * 8

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            CoresetTree(reduce=halving_reduce, window=0)


class TestPeakTracking:
    def test_resident_points_bounded_by_buckets(self):
        tree = CoresetTree(reduce=halving_reduce)
        leaf_size = 16
        for t in range(40):
            tree.insert(make_leaf(t, size=leaf_size), t)
        # halving_reduce caps every merged bucket at its input leaf size, so
        # residency is bounded by live buckets × leaf size.
        assert tree.resident_points <= tree.live_bucket_count * leaf_size
        assert tree.max_resident_points <= tree.max_live_buckets * leaf_size
