"""The ``repro serve`` wire format: frames, update coding, error mapping."""

from __future__ import annotations

import base64

import numpy as np
import pytest

from repro.core import registry
from repro.cr.coreset import Coreset, encode_array
from repro.datasets.synthetic import make_gaussian_mixture
from repro.distributed.network import SimulatedNetwork
from repro.quantization.rounding import RoundingQuantizer
from repro.serve import protocol
from repro.stages.base import StageContext
from repro.stages.cr import UniformStage
from repro.streaming.server import (
    EmptySummaryError,
    UnknownSourceError,
    UpdateGapError,
)
from repro.streaming.source import StreamingSource
from repro.utils.random import as_generator


def make_update(batches: int = 3):
    source = StreamingSource(
        "source-0", [UniformStage(12)], UniformStage(12),
        StageContext(k=2, epsilon=0.1, delta=0.1, rng=as_generator(9)),
        SimulatedNetwork(),
    )
    data = as_generator(50)
    update = None
    for index in range(batches):
        update = source.ingest(data.random((40, 5)), index)
    return update


def update_with(**coreset_fields):
    """A one-bucket update payload over a valid 2x3 coreset state, with
    ``coreset_fields`` replacing fields of that state."""
    state = Coreset(np.arange(1.0, 7.0).reshape(2, 3), np.ones(2), 0.5).to_state()
    state.update(coreset_fields)
    return {
        "source_id": "s", "batch_index": 0, "retired_ids": [],
        "added": [{"bucket_id": 0, "level": 0, "first_batch": 0,
                   "last_batch": 0, "coreset": state}],
    }


def points_with(**fields):
    """The encoded points of a 2x3 full-precision array, with ``fields``
    replacing fields of the encoding."""
    return {**encode_array(np.linspace(0.1, 0.7, 6).reshape(2, 3)), **fields}


def one_byte_short():
    """The encoded points of :func:`points_with`, one payload byte short."""
    encoded = encode_array(np.linspace(0.1, 0.7, 6).reshape(2, 3))
    kept = base64.b64decode(encoded["b64"])[:-1]
    return {**encoded, "b64": base64.b64encode(kept).decode("ascii")}


class TestFrames:
    def test_frame_roundtrip(self):
        payload = {"op": "fold", "tenant": "t", "nested": {"a": [1, 2.5]}}
        assert protocol.parse_frame(protocol.dump_frame(payload)) == payload

    def test_frame_is_one_line(self):
        frame = protocol.dump_frame({"op": "query", "text": "a\nb"})
        assert frame.endswith(b"\n") and frame.count(b"\n") == 1

    @pytest.mark.parametrize("line", [b"not json\n", b"[1,2]\n", b'"str"\n', b"\xff\xfe\n"])
    def test_malformed_frames_rejected(self, line):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_frame(line)


class TestUpdateCoding:
    def test_update_roundtrip_is_bit_identical(self):
        update = make_update()
        back = protocol.decode_update(
            protocol.parse_frame(protocol.dump_frame(protocol.encode_update(update)))
        )
        assert back.source_id == update.source_id
        assert back.batch_index == update.batch_index
        assert back.retired_ids == list(update.retired_ids)
        assert [b.bucket_id for b in back.added] == [b.bucket_id for b in update.added]
        for mine, theirs in zip(update.added, back.added):
            assert (theirs.level, theirs.first_batch, theirs.last_batch) == \
                (mine.level, mine.first_batch, mine.last_batch)
            np.testing.assert_array_equal(theirs.coreset.points, mine.coreset.points)
            np.testing.assert_array_equal(theirs.coreset.weights, mine.coreset.weights)
            assert theirs.coreset.shift == mine.coreset.shift

    def test_valid_update_payload_decodes(self):
        """The base the malformed cases below corrupt is itself valid."""
        update = protocol.decode_update(update_with(points=points_with()))
        assert update.added[0].coreset.points.shape == (2, 3)

    @pytest.mark.parametrize("payload", [
        "not a dict",
        {},
        {"source_id": "s"},  # no batch_index
        {"source_id": "s", "batch_index": 0, "added": [{"bucket_id": 1}]},
        update_with(points=points_with(b64="*" * 64)),  # not base64
        update_with(points=one_byte_short()),
        update_with(points=points_with(shape=[-2, 3])),
        update_with(points=points_with(shape=[2.0, 3])),
        update_with(points=points_with(shape=["2", 3])),
        update_with(points=points_with(shape=[6])),  # wrong rank
        update_with(points=points_with(shape=[2, 3, 1])),
        update_with(points=points_with(shape=3)),
        # A huge shape must fail the length check before it allocates.
        update_with(points=points_with(shape=[10 ** 12, 3])),
        update_with(points=points_with(drop=8)),
        update_with(points=points_with(drop=-1)),
        update_with(points=points_with(b64=None)),
        update_with(points=encode_array(np.full((2, 3), np.nan))),
        update_with(weights=encode_array(-np.ones(2))),
        update_with(weights=encode_array(np.ones(3))),  # one weight per point
        update_with(points="AAAA"),
        update_with(points={"shape": [2, 3], "drop": 0}),  # no payload
        # Protocol version 1's list-form coreset.
        update_with(points=[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], weights=[1.0, 1.0]),
    ])
    def test_malformed_updates_rejected(self, payload):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_update(payload)


def fold_frames(quantizer=None, steps=4):
    """``(frame, metered_bits, update)`` for every fold of one serve-workload
    sized stream-fss source (k=4, d=8, batches of 32, coresets of 64 rows),
    the metered bits read off the source's own network around each ingest."""
    points, _, _ = make_gaussian_mixture(n=steps * 32, d=8, k=4, seed=11)
    engine = registry.create_pipeline(
        "stream-fss", k=4, coreset_size=64, batch_size=32, seed=5, jobs=1,
        quantizer=quantizer,
    )
    network = SimulatedNetwork()
    source = engine.standalone_source("source-0", (32, 8), network=network)
    for step in range(steps):
        before = network.uplink_bits()
        update = source.ingest(points[step * 32:(step + 1) * 32], step)
        frame = protocol.dump_frame({
            "op": "fold", "tenant": "default",
            "update": protocol.encode_update(update),
        })
        yield frame, network.uplink_bits() - before, update


#: Bytes a fold frame carries beyond its base64 payload, per frame: the
#: request and update keys and punctuation (102 B), the source id, the batch
#: index and a few retired bucket ids — none of them metered.
E_FRAME = 128
#: ... and per bucket: its keys and punctuation (154 B), both arrays'
#: shapes and dropped-byte counts, and up to 3 B of base64 padding per
#: array.  The bucket's ids, batch span, level and Δ are metered (the
#: 5-scalar header), so their decimal text is inside the 4/3 share.
E_BUCKET = 192


class TestWireSize:
    """A fold frame carries the metered bits: base64's 4/3 over the bytes the
    bit meter charges, plus a fixed JSON envelope."""

    @pytest.mark.parametrize("quantizer", [None, RoundingQuantizer(12)],
                             ids=["float64", "qt12"])
    def test_fold_frames_carry_the_metered_bytes(self, quantizer):
        frames = list(fold_frames(quantizer))
        assert len(frames) == 4
        for frame, metered_bits, update in frames:
            assert update.added, "every step ships a bucket"
            bound = 4 / 3 * metered_bits / 8 + E_FRAME + E_BUCKET * len(update.added)
            assert len(frame) <= bound, (len(frame), metered_bits / 8, bound)


class TestErrorMapping:
    def test_unknown_source(self):
        frame = protocol.encode_exception(UnknownSourceError("s-9", {"s-0": 1}))
        assert frame["ok"] is False
        assert frame["error"] == protocol.ERROR_UNKNOWN_SOURCE
        assert frame["source_id"] == "s-9"
        assert frame["registered"] == ["s-0"]

    def test_update_gap_carries_replay_point(self):
        frame = protocol.encode_exception(UpdateGapError("s-0", 2, 5))
        assert frame["error"] == protocol.ERROR_UPDATE_GAP
        assert (frame["expected"], frame["got"]) == (2, 5)

    def test_empty_summary(self):
        frame = protocol.encode_exception(EmptySummaryError("no summary"))
        assert frame["error"] == protocol.ERROR_EMPTY_SUMMARY

    def test_protocol_error_is_bad_request(self):
        frame = protocol.encode_exception(protocol.ProtocolError("nope"))
        assert frame["error"] == protocol.ERROR_BAD_REQUEST

    def test_unmapped_exception_refused(self):
        with pytest.raises(TypeError):
            protocol.encode_exception(KeyError("x"))

    def test_every_code_is_registered(self):
        assert set(protocol.ERROR_CODES) == {
            "bad-request", "unknown-source", "update-gap", "empty-summary",
        }
