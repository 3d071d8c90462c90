"""The live daemon end to end, in process: an asyncio ``ServeDaemon`` on an
ephemeral port driven by the blocking ``ServeClient`` from the test thread.
Covers the protocol surface (register/fold/query/healthz/metrics/snapshot/
shutdown), the at-least-once ack semantics over a real socket, snapshot/
restore through the daemon wire format, the fold log (torn tails, corrupt
records, the durability probe, bytes written linear in bytes received), and
both CLI entry points."""

from __future__ import annotations

import json
import shutil
import threading
import time

import numpy as np
import pytest

from repro import cli
from repro.distributed.network import SimulatedNetwork
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError, ServeSource
from repro.serve.daemon import ServeDaemon, load_snapshot, log_path_for
from repro.stages.base import StageContext
from repro.stages.cr import UniformStage
from repro.streaming.source import StreamingSource
from repro.utils.random import as_generator


class DaemonHarness:
    """Run one ServeDaemon in a thread; tear it down on exit."""

    def __init__(self, **kwargs):
        kwargs.setdefault("k", 2)
        kwargs.setdefault("port", 0)
        self.daemon = ServeDaemon(**kwargs)
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self):
        import asyncio

        asyncio.run(self.daemon.run(ready=lambda host, port: self._ready.set()))

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10), "daemon never became ready"
        return self

    def __exit__(self, *exc_info):
        self.daemon.request_stop()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()

    @property
    def port(self) -> int:
        return self.daemon.bound_port

    def client(self, **kwargs) -> ServeClient:
        kwargs.setdefault("retry_deadline", 5.0)
        return ServeClient("127.0.0.1", self.port, **kwargs)


def make_source(source_id="source-0", seed=9) -> StreamingSource:
    return StreamingSource(
        source_id, [UniformStage(12)], UniformStage(12),
        StageContext(k=2, epsilon=0.1, delta=0.1, rng=as_generator(seed)),
        SimulatedNetwork(),
    )


def stream_batches(serve_source, count=4, data_seed=50):
    data = as_generator(data_seed)
    acks = []
    for index in range(count):
        acks.append(serve_source.ingest(data.random((40, 5)), index))
    return acks


class TestProtocolSurface:
    def test_register_fold_query_roundtrip(self):
        with DaemonHarness(seed=17) as harness, harness.client() as client:
            serve_source = ServeSource(make_source(), client)
            assert serve_source.register() == -1
            acks = stream_batches(serve_source)
            assert [a["result"] for a in acks] == ["applied"] * 4
            assert [a["watermark"] for a in acks] == [0, 1, 2, 3]
            answer = serve_source.query()
            assert answer["updates_folded"] == 4
            assert np.asarray(answer["centers"]).shape[0] == 2
            assert answer["lifted_centers"].shape == np.asarray(answer["centers"]).shape
            assert answer["cost"] >= 0.0

    def test_duplicate_delivery_acks_without_refolding(self):
        with DaemonHarness(seed=17) as harness, harness.client() as client:
            serve_source = ServeSource(make_source(), client)
            serve_source.register()
            data = as_generator(50)
            update = serve_source.source.ingest(data.random((40, 5)), 0)
            first = serve_source.deliver(update)
            again = serve_source.deliver(update)  # the lost-ack retry
            assert first["result"] == "applied"
            assert again["result"] == "duplicate"
            assert again["watermark"] == 0
            metrics = client.metrics()
            assert metrics["totals"]["folds"] == 1
            assert metrics["totals"]["duplicates"] == 1

    def test_gap_rejection_carries_replay_point(self):
        with DaemonHarness(seed=17) as harness, harness.client() as client:
            serve_source = ServeSource(make_source(), client)
            serve_source.register()
            data = as_generator(50)
            serve_source.ingest(data.random((40, 5)), 0)
            skipped = serve_source.source.ingest(data.random((40, 5)), 1)
            del skipped  # lost in flight, never delivered
            jumped = serve_source.source.ingest(data.random((40, 5)), 2)
            with pytest.raises(ServeError) as excinfo:
                serve_source.deliver(jumped)
            assert excinfo.value.code == "update-gap"
            assert excinfo.value.payload["expected"] == 1
            assert excinfo.value.payload["got"] == 2

    def test_unregistered_source_rejected(self):
        with DaemonHarness(seed=17) as harness, harness.client() as client:
            serve_source = ServeSource(make_source("rogue"), client)
            data = as_generator(50)
            update = serve_source.source.ingest(data.random((40, 5)), 0)
            with pytest.raises(ServeError) as excinfo:
                serve_source.deliver(update)
            assert excinfo.value.code == "unknown-source"

    def test_query_of_empty_tenant(self):
        with DaemonHarness(seed=17) as harness, harness.client() as client:
            serve_source = ServeSource(make_source(), client)
            serve_source.register()
            with pytest.raises(ServeError) as excinfo:
                serve_source.query()
            assert excinfo.value.code == "empty-summary"

    def test_healthz_metrics_and_bad_frames(self):
        with DaemonHarness(seed=17) as harness, harness.client() as client:
            health = client.healthz()
            assert health["status"] == "ok" and health["tenants"] == 0
            assert client.call({"op": "no-such-op"})["error"] == "bad-request"
            assert client.call({"op": "fold", "update": 5})["error"] == "bad-request"
            assert client.call({"op": "register"})["error"] == "bad-request"
            assert client.call({"op": "query", "tenant": ""})["error"] == "bad-request"
            # Raw garbage on the wire gets an error frame, not a hangup.
            client.connect()
            client._file.write(b"this is not json\n")
            client._file.flush()
            response = json.loads(client._file.readline())
            assert response["error"] == "bad-request"
            metrics = client.metrics()
            assert metrics["connections"] >= 1

    def test_tenants_are_isolated(self):
        with DaemonHarness(seed=17) as harness, harness.client() as client:
            alpha = ServeSource(make_source(), client, tenant="alpha")
            beta = ServeSource(make_source(), client, tenant="beta")
            alpha.register()
            beta.register()
            stream_batches(alpha)
            with pytest.raises(ServeError) as excinfo:
                beta.query()  # alpha's folds must not leak into beta
            assert excinfo.value.code == "empty-summary"
            metrics = client.metrics()
            assert metrics["tenants"]["alpha"]["updates_folded"] == 4
            assert metrics["tenants"]["beta"]["updates_folded"] == 0


class TestDurability:
    def test_snapshot_restore_roundtrip_through_wire_format(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FROZEN_CLOCK", "1")
        snap = tmp_path / "serve.json"
        with DaemonHarness(seed=17, snapshot_path=snap) as harness:
            with harness.client() as client:
                serve_source = ServeSource(make_source(), client)
                serve_source.register()
                stream_batches(serve_source)
                serve_source.query()  # advances the rng; snapshot rewritten
                state = load_snapshot(snap)  # the crash point
                uncrashed = serve_source.query()  # the answer to reproduce
        assert snap.exists()

        # "Crash" after the first query and restart from that snapshot; a
        # duplicate replay of the whole stream must change nothing, and the
        # twin's next query must match the daemon that never died.
        from repro.streaming.server import FoldResult

        restarted = ServeDaemon(k=2, seed=17).restore_state(state)
        twin = restarted.tenant("default").server
        source = make_source()
        data = as_generator(50)
        for index in range(4):
            update = source.ingest(data.random((40, 5)), index)
            assert twin.fold(update) is FoldResult.DUPLICATE
        result, coreset, _ = twin.query()
        np.testing.assert_array_equal(
            np.asarray(uncrashed["centers"]), result.centers
        )
        assert uncrashed["cost"] == result.cost
        assert uncrashed["summary_cardinality"] == coreset.size

    def test_snapshot_op_and_stale_tmp_cleanup(self, tmp_path):
        snap = tmp_path / "nested" / "serve.json"
        with DaemonHarness(seed=3, snapshot_path=snap) as harness:
            with harness.client() as client:
                response = ServeClient._unwrap(client.call({"op": "snapshot"}))
                assert response["path"] == str(snap)
        state = load_snapshot(snap)
        assert state["version"] == 1

    def test_snapshot_op_without_path_is_rejected(self):
        with DaemonHarness(seed=3) as harness, harness.client() as client:
            assert client.call({"op": "snapshot"})["error"] == "bad-request"

    def test_restore_refuses_unknown_version(self):
        with pytest.raises(ValueError, match="version 99"):
            ServeDaemon(k=2).restore_state({"version": 99, "tenants": {}})

    def test_shutdown_op_stops_the_daemon_with_final_snapshot(self, tmp_path):
        snap = tmp_path / "serve.json"
        harness = DaemonHarness(seed=3, snapshot_path=snap)
        with harness:
            with harness.client() as client:
                assert client.shutdown()["stopping"] is True
            harness._thread.join(timeout=10)
            assert not harness._thread.is_alive()
        assert snap.exists()


def fold_frame(update) -> bytes:
    """The request frame ``ServeSource.deliver`` sends for ``update``."""
    return protocol.dump_frame({
        "op": "fold", "tenant": "default",
        "update": protocol.encode_update(update),
    })


def copy_crash_image(snapshot, dest):
    """Copy a live daemon's snapshot and fold log: what a kill leaves."""
    dest.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy(snapshot, dest)
    shutil.copy(log_path_for(snapshot), log_path_for(dest))


def fold_until_logged(serve_source, client, data) -> int:
    """Fold batches until the log holds records past the snapshot; returns
    the next batch index."""
    for index in range(8):
        serve_source.ingest(data.random((40, 5)), index)
        if client.metrics()["durability"]["log_records"]:
            return index + 1
    raise AssertionError("every fold was compacted into the snapshot")


class TestFoldLog:
    def test_torn_log_tail_restores_the_acked_prefix(self, tmp_path):
        snap = tmp_path / "live" / "serve.json"
        image = tmp_path / "image" / "serve.json"
        with DaemonHarness(seed=17, snapshot_path=snap) as harness:
            with harness.client() as client:
                serve_source = ServeSource(make_source(), client)
                serve_source.register()
                data = as_generator(50)
                index = fold_until_logged(serve_source, client, data)
                lsn = client.metrics()["durability"]["lsn"]
                copy_crash_image(snap, image)
                # The next fold dies mid-append: half its record reaches
                # the log, no newline, no ack.
                update = serve_source.source.ingest(data.random((40, 5)), index)
                record = b'{"lsn":%d,"request":%s}\n' % (
                    lsn + 1, fold_frame(update).strip())
                with log_path_for(image).open("ab") as handle:
                    handle.write(record[:len(record) // 2])
                serve_source.deliver(update)
                uncrashed = serve_source.query()

        restarted = DaemonHarness(seed=17, snapshot_path=image)
        restarted.daemon.restore_state(load_snapshot(image))
        with restarted as harness, harness.client() as client:
            replayed = ServeSource(make_source(), client)
            assert replayed.register() == index - 1  # the acked prefix
            assert replayed.deliver(update)["result"] == "applied"  # retry
            answer = replayed.query()
            assert client.metrics()["totals"]["folds"] == 1
        np.testing.assert_array_equal(
            np.asarray(answer["centers"]), np.asarray(uncrashed["centers"])
        )
        assert answer["cost"] == uncrashed["cost"]

    def test_corrupt_log_record_fails_restore(self, tmp_path, monkeypatch):
        snap = tmp_path / "live" / "serve.json"
        image = tmp_path / "image" / "serve.json"
        with DaemonHarness(seed=17, snapshot_path=snap) as harness:
            with harness.client() as client:
                serve_source = ServeSource(make_source(), client)
                serve_source.register()
                fold_until_logged(serve_source, client, as_generator(50))
                copy_crash_image(snap, image)
        log = log_path_for(image)
        body = log.read_bytes()
        record = body.split(b"\n")[-2]
        # A complete line (newline and all) whose bytes are not a record.
        log.write_bytes(body[:-len(record) - 1] + record[:len(record) // 2] + b"\n")

        async def serve_nothing(self, **kwargs):
            """A wrongly accepted restore returns instead of serving."""

        monkeypatch.setattr(ServeDaemon, "run", serve_nothing)
        with pytest.raises(SystemExit, match="invalid snapshot") as excinfo:
            cli.main(["serve", "--port", "0", "--restore", str(image)])
        message = str(excinfo.value)
        assert "corrupt fold log record" in message and "\n" not in message

    def test_metrics_report_durability(self, tmp_path):
        snap = tmp_path / "serve.json"
        fields = {"snapshot_path", "snapshot_bytes", "snapshot_age_seconds",
                  "snapshot_lsn", "lsn", "log_records", "log_bytes",
                  "bytes_written"}
        with DaemonHarness(seed=17) as harness, harness.client() as client:
            assert client.metrics()["durability"] == {
                "snapshot_path": None, "snapshot_bytes": 0,
                "snapshot_age_seconds": None, "snapshot_lsn": 0, "lsn": 0,
                "log_records": 0, "log_bytes": 0, "bytes_written": 0,
            }
        with DaemonHarness(seed=17, snapshot_path=snap) as harness:
            with harness.client() as client:
                started = client.metrics()
                serve_source = ServeSource(make_source(), client)
                serve_source.register()
                fold_until_logged(serve_source, client, as_generator(50))
                metrics = client.metrics()
                log_size = log_path_for(snap).stat().st_size
                snapshot_size = snap.stat().st_size
        assert started["snapshot_writes"] == 1  # compacted once on start
        assert started["durability"]["lsn"] == 0
        durability = metrics["durability"]
        assert set(durability) == fields
        assert durability["snapshot_path"] == str(snap)
        assert durability["lsn"] == 1 + metrics["totals"]["folds"]
        assert durability["log_records"] == (
            durability["lsn"] - durability["snapshot_lsn"]) > 0
        assert durability["log_bytes"] == log_size > 0
        assert durability["snapshot_bytes"] == snapshot_size
        assert durability["snapshot_age_seconds"] >= 0.0
        assert durability["bytes_written"] >= (
            durability["snapshot_bytes"] + durability["log_bytes"])


class TestComplexity:
    def test_bytes_written_stay_linear_in_fold_bytes(self, tmp_path):
        """No path may be quadratic: a daemon that rewrote its whole state
        on every fold would write O(B^2) bytes to hold B live buckets."""
        snap = tmp_path / "serve.json"
        data = as_generator(50)
        fold_bytes = 0
        with DaemonHarness(seed=17, snapshot_path=snap) as harness:
            with harness.client() as client:
                for index in range(256):
                    serve_source = ServeSource(
                        make_source(f"source-{index}", seed=index), client)
                    serve_source.register()
                    update = serve_source.source.ingest(data.random((40, 5)), 0)
                    fold_bytes += len(fold_frame(update))
                    serve_source.deliver(update)
                    if index + 1 < 32:
                        continue
                    metrics = client.metrics()
                    assert metrics["totals"]["live_buckets"] == index + 1
                    written = metrics["durability"]["bytes_written"]
                    assert written <= 4 * fold_bytes, (index + 1, written, fold_bytes)


class TestCLI:
    def test_serve_and_client_commands(self, tmp_path, capsys):
        snap = tmp_path / "serve.json"
        port_file = tmp_path / "port"
        argv = ["serve", "--port", "0", "--port-file", str(port_file),
                "--k", "2", "--seed", "17", "--snapshot", str(snap)]
        thread = threading.Thread(target=cli.main, args=(argv,), daemon=True)
        thread.start()
        for _ in range(200):
            if port_file.exists() and port_file.read_text().strip():
                break
            time.sleep(0.05)
        port = int(port_file.read_text())

        code = cli.main([
            "client", "--port", str(port), "--algorithm", "stream-fss",
            "--n", "512", "--d", "8", "--batch-size", "128", "--batches", "3",
            "--coreset-size", "60", "--query-every", "2", "--seed", "17",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "registered source-0" in out
        assert "final query: cost=" in out
        assert "3 applied" in out

        with ServeClient("127.0.0.1", port) as client:
            client.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert snap.exists()

    def test_client_refuses_unreachable_daemon(self):
        with pytest.raises(SystemExit, match="cannot reach"):
            cli.main(["client", "--port", "1", "--n", "64", "--d", "8",
                      "--batches", "1", "--retry-deadline", "0.2",
                      "--timeout", "0.2"])

    def test_serve_refuses_bad_snapshot(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"version\": 99, \"tenants\": {}}")
        with pytest.raises(SystemExit, match="invalid snapshot"):
            cli.main(["serve", "--port", "0", "--restore", str(bad)])
        with pytest.raises(SystemExit, match="cannot read snapshot"):
            cli.main(["serve", "--port", "0",
                      "--restore", str(tmp_path / "missing.json")])
