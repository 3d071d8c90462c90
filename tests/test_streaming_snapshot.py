"""Snapshot/restore of streaming state: rng handshake, coreset trees,
sources, and the server — mid-stream restoration must be bit-identical."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cr.coreset import Coreset
from repro.distributed.network import SimulatedNetwork
from repro.quantization.rounding import RoundingQuantizer
from repro.stages.base import StageContext
from repro.stages.cr import UniformStage
from repro.streaming.server import StreamingServer
from repro.streaming.source import SourceUpdate, StreamingSource
from repro.streaming.tree import CoresetTree
from repro.utils import faultpoints
from repro.utils.random import as_generator, generator_state, restore_generator


def roundtrip(snapshot: dict) -> dict:
    """Force the snapshot through its on-disk representation."""
    return json.loads(json.dumps(snapshot, sort_keys=True))


def make_coreset(rng, n=12, d=4) -> Coreset:
    return Coreset(rng.random((n, d)), rng.random(n) + 0.5, float(rng.random()))


class TestGeneratorState:
    @pytest.mark.parametrize("bitgen", ["PCG64", "MT19937", "Philox", "SFC64"])
    def test_json_roundtrip_is_bit_identical(self, bitgen):
        rng = np.random.Generator(getattr(np.random, bitgen)(1234))
        rng.random(17)  # advance off the seed point
        state = roundtrip(generator_state(rng))
        restored = restore_generator(state)
        np.testing.assert_array_equal(rng.random(100), restored.random(100))
        np.testing.assert_array_equal(
            rng.integers(0, 1 << 30, 50), restored.integers(0, 1 << 30, 50)
        )

    def test_unknown_bit_generator_rejected(self):
        state = generator_state(as_generator(0))
        state["bit_generator"] = "Generator"  # a class, but not a BitGenerator
        with pytest.raises(ValueError, match="unknown bit generator"):
            restore_generator(state)
        state["bit_generator"] = "NoSuchThing"
        with pytest.raises(ValueError, match="unknown bit generator"):
            restore_generator(state)


class TestCoresetState:
    def test_roundtrip_is_bit_identical(self):
        coreset = make_coreset(as_generator(3))
        back = Coreset.from_state(roundtrip(coreset.to_state()))
        np.testing.assert_array_equal(back.points, coreset.points)
        np.testing.assert_array_equal(back.weights, coreset.weights)
        assert back.shift == coreset.shift

    def test_empty_coreset_keeps_its_dimension(self):
        empty = Coreset(np.empty((0, 5)), np.empty(0), 0.0)
        back = Coreset.from_state(roundtrip(empty.to_state()))
        assert back.points.shape == (0, 5)

    def test_restored_arrays_are_fresh_and_writable(self):
        coreset = make_coreset(as_generator(3))
        state = roundtrip(coreset.to_state())
        back = Coreset.from_state(state)
        back.points[0] = -1.0
        back.weights[0] = -1.0
        again = Coreset.from_state(state)
        np.testing.assert_array_equal(again.points, coreset.points)
        np.testing.assert_array_equal(again.weights, coreset.weights)

    @pytest.mark.parametrize("significant_bits", [1, 4, 8, 12, 20, 36, 52])
    def test_quantized_points_ship_their_metered_bytes(self, significant_bits):
        """A RoundingQuantizer(s) output has 52 - s zero low bits, so the
        codec drops (52 - s) // 8 bytes per coordinate, losslessly."""
        points = RoundingQuantizer(significant_bits).quantize(
            as_generator(4).normal(size=(2000, 8)))
        state = roundtrip(Coreset(points, np.ones(2000), 0.0).to_state())
        assert state["points"]["drop"] == (52 - significant_bits) // 8
        back = Coreset.from_state(state)
        assert back.points.tobytes() == points.tobytes()

    def test_all_zero_array_keeps_one_byte_per_element(self):
        state = Coreset(np.zeros((3, 2)), np.zeros(3), 0.0).to_state()
        assert state["points"]["drop"] == state["weights"]["drop"] == 7
        back = Coreset.from_state(roundtrip(state))
        np.testing.assert_array_equal(back.points, np.zeros((3, 2)))

    def test_list_form_state_is_refused(self):
        """Format 1 (JSON lists) is refused by name, directly and on the
        CoresetTree.restore path."""
        coreset = make_coreset(as_generator(3))
        old = {"points": coreset.points.tolist(),
               "weights": coreset.weights.tolist(),
               "shift": coreset.shift, "dimension": coreset.dimension}
        with pytest.raises(ValueError, match="format-1 list form"):
            Coreset.from_state(old)
        tree = CoresetTree(reduce=lambda c: c)
        tree.insert(coreset, 0)
        snapshot = roundtrip(tree.snapshot())
        snapshot["buckets"][0]["coreset"] = old
        with pytest.raises(ValueError, match="format-1 list form"):
            CoresetTree(reduce=lambda c: c).restore(snapshot)


class TestTreeSnapshot:
    @staticmethod
    def make_tree(window=None):
        return CoresetTree(reduce=lambda c: c, window=window)

    def test_restored_tree_continues_identically(self):
        rng = as_generator(7)
        batches = [make_coreset(rng) for _ in range(9)]
        tree = self.make_tree()
        for index, leaf in enumerate(batches[:6]):
            tree.insert(leaf, index)
        snap = roundtrip(tree.snapshot())

        other = self.make_tree().restore(snap)
        assert other.live_bucket_ids == tree.live_bucket_ids
        np.testing.assert_array_equal(
            other.merged_coreset().points, tree.merged_coreset().points
        )
        # The id allocator and merge cascade continue exactly in step.
        for index, leaf in enumerate(batches[6:], start=6):
            tree.insert(leaf, index)
            other.insert(leaf, index)
        assert other.live_bucket_ids == tree.live_bucket_ids
        assert other.merges == tree.merges
        np.testing.assert_array_equal(
            other.merged_coreset().points, tree.merged_coreset().points
        )

    def test_windowed_tree_roundtrips_frozen_buckets(self):
        rng = as_generator(8)
        tree = self.make_tree(window=3)
        for index in range(8):
            tree.insert(make_coreset(rng), index)
            tree.expire(index)
        snap = roundtrip(tree.snapshot())
        other = self.make_tree(window=3).restore(snap)
        assert {b.bucket_id: b.frozen for b in other.live_buckets} == \
            {b.bucket_id: b.frozen for b in tree.live_buckets}

    def test_window_mismatch_raises_before_touching_state(self):
        tree = self.make_tree(window=4)
        tree.insert(make_coreset(as_generator(1)), 0)
        snap = tree.snapshot()
        other = self.make_tree(window=2)
        other.insert(make_coreset(as_generator(2)), 0)
        before = other.live_bucket_ids
        with pytest.raises(ValueError, match="window=4"):
            other.restore(snap)
        assert other.live_bucket_ids == before


def make_source(seed: int, source_rng) -> StreamingSource:
    stage = UniformStage(10)
    return StreamingSource(
        "source-0",
        [stage],
        stage,
        StageContext(k=2, epsilon=0.1, delta=0.1, rng=source_rng),
        SimulatedNetwork(),
    )


class TestSourceSnapshot:
    def test_restored_source_continues_identically(self):
        data = as_generator(40)
        batches = [data.random((30, 6)) for _ in range(6)]
        source = make_source(1, as_generator(21))
        for index in range(4):
            source.ingest(batches[index], index)
        # The source's stream state plus its context generator position
        # together make the full checkpoint (the ctx is configuration the
        # constructor re-supplies; its rng position rides beside it).
        rng_state = roundtrip(generator_state(source.ctx.rng))
        snap = roundtrip(source.snapshot())

        twin = make_source(1, restore_generator(rng_state)).restore(snap)
        assert twin.batches_ingested == source.batches_ingested
        assert twin._shipped == source._shipped
        for index in range(4, 6):
            mine = source.ingest(batches[index], index)
            theirs = twin.ingest(batches[index], index)
            assert [b.bucket_id for b in theirs.added] == \
                [b.bucket_id for b in mine.added]
            assert theirs.retired_ids == mine.retired_ids
            for a, b in zip(mine.added, theirs.added):
                np.testing.assert_array_equal(b.coreset.points, a.coreset.points)
                np.testing.assert_array_equal(b.coreset.weights, a.coreset.weights)
        np.testing.assert_array_equal(
            twin.tree.merged_coreset().points,
            source.tree.merged_coreset().points,
        )

    def test_source_id_mismatch_raises(self):
        source = make_source(1, as_generator(3))
        snap = source.snapshot()
        snap["source_id"] = "source-9"
        with pytest.raises(ValueError, match="source-9"):
            source.restore(snap)


class TestServerSnapshot:
    @staticmethod
    def make_server(with_state=True) -> StreamingServer:
        server = StreamingServer(k=2, n_init=3, seed=17)
        if with_state:
            data = as_generator(50)
            batches = [data.random((40, 5)) for _ in range(4)]
            source = StreamingSource(
                "source-0", [UniformStage(12)], UniformStage(12),
                StageContext(k=2, epsilon=0.1, delta=0.1, rng=as_generator(9)),
                SimulatedNetwork(),
            )
            server.register(source.source_id)
            for index, batch in enumerate(batches):
                server.fold(source.ingest(batch, index))
        return server

    def test_mid_stream_queries_are_bit_identical(self):
        server = self.make_server()
        twin = StreamingServer.restore(roundtrip(server.snapshot()))
        assert twin.updates_folded == server.updates_folded
        assert twin.live_bucket_count == server.live_bucket_count
        # Two consecutive queries: the rng handshake means the restored
        # server derives the same solver seed stream, so both queries are
        # bit-identical, not just the first.
        for _ in range(2):
            mine, my_coreset, _ = server.query()
            theirs, their_coreset, _ = twin.query()
            np.testing.assert_array_equal(theirs.centers, mine.centers)
            assert theirs.cost == mine.cost
            np.testing.assert_array_equal(their_coreset.points, my_coreset.points)

    def test_snapshot_survives_further_folding(self):
        server = self.make_server()
        snap = roundtrip(server.snapshot())
        data = as_generator(60)
        source = StreamingSource(
            "source-1", [UniformStage(12)], UniformStage(12),
            StageContext(k=2, epsilon=0.1, delta=0.1, rng=as_generator(10)),
            SimulatedNetwork(),
        )
        update = source.ingest(data.random((40, 5)), 0)
        server.register(source.source_id)
        server.fold(update)
        twin = StreamingServer.restore(snap)
        twin.register(source.source_id)
        twin.fold(update)
        mine, _, _ = server.query()
        theirs, _, _ = twin.query()
        np.testing.assert_array_equal(theirs.centers, mine.centers)

    def test_fold_faultpoint_fires_before_state_changes(self):
        server = self.make_server()
        folded = server.updates_folded
        buckets = server.live_bucket_count
        with faultpoints.armed("streaming.fold"):
            with pytest.raises(faultpoints.FaultInjected):
                server.fold(SourceUpdate(source_id="source-0", batch_index=99))
        assert server.updates_folded == folded
        assert server.live_bucket_count == buckets

    def test_empty_server_roundtrip(self):
        server = self.make_server(with_state=False)
        twin = StreamingServer.restore(roundtrip(server.snapshot()))
        assert not twin.has_summary
        with pytest.raises(RuntimeError, match="no summary"):
            twin.global_coreset()
