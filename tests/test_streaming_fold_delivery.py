"""Delivery-safety matrix for the streaming fold layer.

The engine simulates exactly-once delivery, but the real wire
(:mod:`repro.serve`) is at-least-once: acks get lost, clients resend, and
retries can arrive after newer updates.  These tests pin the fold layer's
contract — duplicates and stale reorders are no-ops, gaps are typed
rejections, and watermarks survive snapshot/restore — so no delivery
schedule can change a query answer.  The contract tests run against both
fold targets: the root :class:`StreamingServer` and a mid-tree
:class:`AggregatorNode`.
"""

from __future__ import annotations

import json

import pytest

from repro.distributed.network import SimulatedNetwork
from repro.serve import protocol
from repro.stages.base import StageContext
from repro.stages.cr import UniformStage
from repro.streaming.server import (
    EmptySummaryError,
    FoldRejectedError,
    FoldResult,
    StreamingServer,
    UnknownSourceError,
    UpdateGapError,
)
from repro.streaming.source import StreamingSource
from repro.topology.aggregator import AggregatorNode
from repro.utils.random import as_generator


def canonical(snapshot: dict) -> str:
    """A snapshot as its byte-comparable on-disk form."""
    return json.dumps(snapshot, sort_keys=True)


def make_source(source_id: str = "source-0", seed: int = 9) -> StreamingSource:
    return StreamingSource(
        source_id, [UniformStage(12)], UniformStage(12),
        StageContext(k=2, epsilon=0.1, delta=0.1, rng=as_generator(seed)),
        SimulatedNetwork(),
    )


def make_updates(count: int = 5, source_id: str = "source-0", window=None):
    data = as_generator(50)
    source = make_source(source_id)
    if window is not None:
        source.window = window
    updates = []
    for index in range(count):
        updates.append(source.ingest(data.random((40, 5)), index))
    return updates


def make_server(seed: int = 17) -> StreamingServer:
    server = StreamingServer(k=2, n_init=3, seed=seed)
    server.register("source-0")
    return server


def make_aggregator(seed: int = 17) -> AggregatorNode:
    aggregator = AggregatorNode(
        "agg-1-0", "server", 1, UniformStage(12),
        StageContext(k=2, epsilon=0.1, delta=0.1, rng=as_generator(seed)),
        SimulatedNetwork(),
    )
    aggregator.register("source-0")
    return aggregator


#: The fold targets every contract test runs against.
FOLD_TARGETS = (make_server, make_aggregator)


def fold_state(target) -> str:
    """A fold target's state in byte-comparable form: the server's snapshot,
    or the aggregator's watermarks, held buckets and fold count."""
    if isinstance(target, StreamingServer):
        return canonical(target.snapshot())
    fold = target._fold
    return canonical({
        "watermarks": fold.watermarks,
        "buckets": [
            [*key, fold.buckets[key].coreset.to_state()]
            for key in sorted(fold.buckets)
        ],
        "updates_folded": target.updates_folded,
    })


def answer(target):
    """What a fold target hands on: the server's query answer, or the
    bucket the aggregator ships to its parent."""
    if isinstance(target, StreamingServer):
        result, _, _ = target.query()
        return result.centers.tobytes(), result.cost
    (bucket,) = target.emit(99).added
    return canonical(bucket.coreset.to_state())


def assert_ships_nothing(target) -> None:
    """An aggregator left clean by its last folds: its next emit carries no
    bucket and sends no message."""
    if isinstance(target, AggregatorNode):
        sent = len(target.network.log.messages)
        update = target.emit(99)
        assert not update.added and not update.retired_ids
        assert len(target.network.log.messages) == sent


class TestIdempotence:
    def test_duplicate_fold_is_a_noop(self, monkeypatch):
        monkeypatch.setenv("REPRO_FROZEN_CLOCK", "1")
        updates = make_updates(4)
        for make_target in FOLD_TARGETS:
            once, twice = make_target(), make_target()
            for update in updates:
                assert once.fold(update) is FoldResult.APPLIED
            for update in updates:
                assert twice.fold(update) is FoldResult.APPLIED
                # At-least-once delivery: every update immediately resent.
                assert twice.fold(update) is FoldResult.DUPLICATE
            # Byte-identical state, not merely equivalent.
            assert fold_state(twice) == fold_state(once)
            assert twice.updates_folded == once.updates_folded == 4
            assert answer(twice) == answer(once)
            for update in updates:
                assert twice.fold(update) is FoldResult.DUPLICATE
            assert_ships_nothing(twice)

    def test_stale_reorder_cannot_resurrect_retired_buckets(self):
        # A sliding window retires buckets; a delayed retransmission of the
        # update that *added* them must not bring them back.
        updates = make_updates(6, window=2)
        for make_target in FOLD_TARGETS:
            target = make_target()
            for update in updates:
                target.fold(update)
            answer(target)
            live_before = target.live_bucket_count
            snap_before = fold_state(target)
            for stale in updates[:4]:  # every already-superseded update replayed
                assert target.fold(stale) is FoldResult.DUPLICATE
            assert target.live_bucket_count == live_before
            assert fold_state(target) == snap_before
            assert_ships_nothing(target)

    def test_updates_folded_counts_only_applied(self):
        updates = make_updates(3)
        server = make_server()
        for update in updates:
            server.fold(update)
            server.fold(update)
        assert server.updates_folded == 3


class TestRejections:
    def test_gap_is_rejected_and_state_untouched(self):
        updates = make_updates(5)
        for make_target in FOLD_TARGETS:
            target = make_target()
            target.fold(updates[0])
            answer(target)
            snap = fold_state(target)
            with pytest.raises(UpdateGapError) as excinfo:
                target.fold(updates[3])
            assert excinfo.value.expected == 1
            assert excinfo.value.got == 3
            assert excinfo.value.source_id == "source-0"
            assert isinstance(excinfo.value, FoldRejectedError)
            assert fold_state(target) == snap
            assert_ships_nothing(target)
            # The client replays from `expected` and the stream heals.
            for update in updates[1:]:
                assert target.fold(update) is FoldResult.APPLIED

    def test_unregistered_source_is_rejected(self):
        (update,) = make_updates(1, source_id="source-7")
        for make_target in FOLD_TARGETS:
            target = make_target()
            with pytest.raises(UnknownSourceError) as excinfo:
                target.fold(update)
            assert excinfo.value.source_id == "source-7"
            assert excinfo.value.registered == ("source-0",)
            assert target.updates_folded == 0
            assert_ships_nothing(target)

    def test_register_is_idempotent_and_preserves_watermark(self):
        updates = make_updates(2)
        for make_target in FOLD_TARGETS:
            target = make_target()
            assert target.register("source-0") == -1
            for update in updates:
                target.fold(update)
            # A reconnecting client re-registers; the watermark survives.
            assert target.register("source-0") == 1
            # Registering again is not a change a parent must hear about.
            answer(target)
            assert target.register("source-0") == 1
            assert_ships_nothing(target)
        server = make_server()
        for update in updates:
            server.fold(update)
        server.register("source-0")
        assert server.watermark("source-0") == 1
        with pytest.raises(UnknownSourceError):
            server.watermark("source-9")

    def test_empty_query_raises_typed_error(self):
        server = make_server()
        with pytest.raises(EmptySummaryError, match="no summary"):
            server.global_coreset()
        # Legacy callers caught RuntimeError; that contract holds.
        assert issubclass(EmptySummaryError, RuntimeError)


class TestWatermarkPersistence:
    def test_watermarks_survive_snapshot_restore(self):
        updates = make_updates(4)
        server = make_server()
        for update in updates[:3]:
            server.fold(update)
        twin = StreamingServer.restore(json.loads(canonical(server.snapshot())))
        assert twin.registered_sources == ("source-0",)
        assert twin.watermark("source-0") == 2
        # Replayed history is recognized after restart...
        for update in updates[:3]:
            assert twin.fold(update) is FoldResult.DUPLICATE
        # ...and the stream continues.
        assert twin.fold(updates[3]) is FoldResult.APPLIED

    def test_wire_roundtrip_then_fold_is_bit_identical(self):
        # Fold deltas that crossed the NDJSON wire; state must match the
        # in-process fold byte for byte.
        updates = make_updates(3)
        local, remote = make_server(), make_server()
        for update in updates:
            local.fold(update)
            frame = protocol.parse_frame(
                protocol.dump_frame(protocol.encode_update(update))
            )
            remote.fold(protocol.decode_update(frame))
        assert canonical(remote.snapshot()) == canonical(local.snapshot())
