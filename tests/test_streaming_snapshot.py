"""Snapshot/restore of streaming state: the rng handshake, the coreset
state codec, and the server — mid-stream restoration must be
bit-identical."""

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
        """Format 1 (JSON lists) is refused by name."""
        coreset = make_coreset(as_generator(3))
        old = {"points": coreset.points.tolist(),
               "weights": coreset.weights.tolist(),
               "shift": coreset.shift, "dimension": coreset.dimension}
        with pytest.raises(ValueError, match="format-1 list form"):
            Coreset.from_state(old)


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

    def test_run_timing_stays_out_of_the_snapshot(self):
        # Two servers folded identically but timed differently persist the
        # same bytes: wall-clock seconds are not state.
        fast, slow = self.make_server(), self.make_server()
        fast.compute_seconds, slow.compute_seconds = 0.001, 12.345
        assert json.dumps(fast.snapshot(), sort_keys=True) == json.dumps(
            slow.snapshot(), sort_keys=True
        )

    def test_snapshot_with_run_timing_still_restores(self):
        # Snapshots written before run timing left them still carry it.
        server = self.make_server()
        snap = roundtrip(server.snapshot())
        snap["compute_seconds"] = 1.5
        twin = StreamingServer.restore(snap)
        assert twin.compute_seconds == 0.0
        assert twin.updates_folded == server.updates_folded
        np.testing.assert_array_equal(twin.query()[0].centers, server.query()[0].centers)

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
