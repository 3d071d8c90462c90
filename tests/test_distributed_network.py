"""Tests for repro.distributed.network — messages and accounting."""

import numpy as np
import pytest

from repro.distributed.network import Message, SimulatedNetwork, TransmissionLog, _count_scalars


class TestCountScalars:
    def test_array(self):
        assert _count_scalars(np.zeros((3, 4))) == 12

    def test_scalar(self):
        assert _count_scalars(3.14) == 1
        assert _count_scalars(7) == 1
        assert _count_scalars(np.float64(1.0)) == 1

    def test_none(self):
        assert _count_scalars(None) == 0

    def test_booleans_count_as_one_scalar(self):
        # Python bool (an int subclass) and numpy bool must agree: both are
        # one scalar on the wire.
        assert _count_scalars(True) == 1
        assert _count_scalars(np.bool_(True)) == 1
        assert _count_scalars(np.bool_(False)) == 1
        assert _count_scalars([np.bool_(True), False]) == 2

    def test_nested_containers(self):
        payload = {"a": np.zeros((2, 2)), "b": [1.0, 2.0, (3.0, np.zeros(3))]}
        assert _count_scalars(payload) == 4 + 2 + 1 + 3

    def test_none_inside_containers_counts_zero(self):
        # None models an absent optional field at any nesting depth.
        assert _count_scalars({"coreset": np.zeros(5), "basis": None}) == 5
        assert _count_scalars([None, 1.0, {"x": None}]) == 1

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            _count_scalars("a string")

    def test_unsupported_type_inside_container_raises(self):
        # The raise must not be swallowed by container recursion: an
        # unmeterable payload never crosses the wire silently.
        with pytest.raises(TypeError):
            _count_scalars({"ok": 1.0, "bad": object()})
        with pytest.raises(TypeError):
            _count_scalars([np.zeros(2), b"bytes"])


class TestMessage:
    def test_bits_full_precision(self):
        m = Message("source-0", "server", "data", scalars=10)
        assert m.bits == 640
        assert m.uplink

    def test_downlink(self):
        m = Message("server", "source-0", "basis", scalars=5)
        assert not m.uplink


class TestTransmissionLog:
    def test_totals_uplink_only(self):
        log = TransmissionLog()
        log.record(Message("source-0", "server", "a", scalars=10))
        log.record(Message("server", "source-0", "b", scalars=100))
        assert log.total_scalars(uplink_only=True) == 10
        assert log.total_scalars(uplink_only=False) == 110
        assert len(log) == 2

    def test_breakdowns(self):
        log = TransmissionLog()
        log.record(Message("source-0", "server", "coreset", scalars=10))
        log.record(Message("source-1", "server", "coreset", scalars=20))
        log.record(Message("source-0", "server", "weights", scalars=5))
        assert log.scalars_by_tag() == {"coreset": 30, "weights": 5}
        assert log.scalars_by_sender() == {"source-0": 15, "source-1": 20}


class TestSimulatedNetwork:
    def test_send_returns_payload(self):
        net = SimulatedNetwork()
        payload = np.arange(6.0).reshape(2, 3)
        out = net.send("source-0", "server", payload, tag="x")
        assert out is payload
        assert net.uplink_scalars() == 6
        assert net.uplink_bits() == 6 * 64

    def test_quantized_bits(self):
        net = SimulatedNetwork()
        net.send("source-0", "server", np.zeros(10), tag="q", significant_bits=8)
        assert net.uplink_bits() == 10 * (1 + 11 + 8)

    def test_send_many_matches_sequential_sends(self):
        # Same messages, loss draws and simulated seconds as one send per part.
        parts = [
            ("coreset", np.zeros((6, 3)), None),
            ("weights", np.zeros(6), 8),
            ("shift", 1.0, None),
        ]
        batched = SimulatedNetwork("lossy")
        batched.send_many("source-0", "server", parts)
        sequential = SimulatedNetwork("lossy")
        for tag, payload, significant_bits in parts:
            sequential.send(
                "source-0", "server", payload, tag=tag,
                significant_bits=significant_bits,
            )
        assert batched.log.messages == sequential.log.messages

    def test_send_and_send_many_do_not_call_each_other(self, monkeypatch):
        # Hooks that count calls of either method must see each call once.
        net = SimulatedNetwork()

        def forbidden(*args, **kwargs):
            raise AssertionError("public send methods must not nest")

        monkeypatch.setattr(net, "send_many", forbidden)
        net.send("source-0", "server", np.zeros(3), tag="a")
        monkeypatch.undo()
        monkeypatch.setattr(net, "send", forbidden)
        net.send_many("source-0", "server", [("b", np.zeros(2), None)])
        assert net.uplink_scalars() == 5

    def test_downlink_not_counted_in_uplink(self):
        net = SimulatedNetwork()
        net.send("server", "source-3", np.zeros(50), tag="broadcast")
        assert net.uplink_scalars() == 0
        assert net.log.total_scalars(uplink_only=False) == 50

    def test_reset(self):
        net = SimulatedNetwork()
        net.send("source-0", "server", 1.0, tag="x")
        net.reset()
        assert net.uplink_scalars() == 0
        assert len(net.log) == 0
