"""Chaos integration: a real ``repro serve`` subprocess under concurrent
clients, SIGKILL'd mid-stream, restarted with ``--restore`` — and the
post-recovery query must be byte-identical to a run that never crashed.

The kill lands at the worst possible instants: ``serve.fold.ack`` fires
after an update is applied *and* logged but before the ack leaves the
daemon, so the client must retransmit an update the fold log already holds.
The fold layer's watermarks turn that retransmission into a ``duplicate``
ack; without them the replay would double-count the batch and the
byte-compare below would fail.  ``serve.compact`` fires between a
compaction's snapshot rename and its log truncation, so the restart finds
log records the new snapshot already covers and must skip them by LSN.

Runs in the CI chaos job (``pytest -m chaos``) and in tier-1; both runs use
``REPRO_FROZEN_CLOCK=1`` so timing fields are zero and the full query
response can be compared as canonical JSON bytes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.distributed.network import SimulatedNetwork
from repro.serve.client import ServeClient, ServeSource
from repro.serve.daemon import load_snapshot, log_path_for
from repro.stages.base import StageContext
from repro.stages.cr import UniformStage
from repro.streaming.source import StreamingSource
from repro.utils import faultpoints
from repro.utils.random import as_generator

pytestmark = pytest.mark.chaos

REPO_ROOT = Path(__file__).resolve().parents[1]

CLIENTS = 3
BATCHES = 6  # per client -> 18 applied folds per scenario


def start_daemon(tmp_path: Path, *extra: str, port: int = 0,
                 faultpoint: str = "") -> tuple:
    """Launch `repro serve` as a subprocess; returns (proc, bound port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["REPRO_FROZEN_CLOCK"] = "1"
    env.pop("REPRO_FAULTPOINT", None)
    if faultpoint:
        env["REPRO_FAULTPOINT"] = faultpoint
    port_file = tmp_path / "port"
    port_file.unlink(missing_ok=True)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(port), "--port-file", str(port_file),
         "--k", "2", "--seed", "17",
         "--snapshot", str(tmp_path / "serve.json"), *extra],
        env=env, cwd=REPO_ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if port_file.exists() and port_file.read_text().strip():
            return proc, int(port_file.read_text())
        if proc.poll() is not None:
            raise AssertionError(
                f"daemon died before listening:\n{proc.communicate()[1]}"
            )
        time.sleep(0.05)
    proc.kill()
    raise AssertionError("daemon never wrote its port file")


def make_source(index: int) -> StreamingSource:
    return StreamingSource(
        f"source-{index}", [UniformStage(12)], UniformStage(12),
        StageContext(k=2, epsilon=0.1, delta=0.1, rng=as_generator(100 + index)),
        SimulatedNetwork(),
    )


def stream_one_client(index: int, port: int, errors: list) -> None:
    """One client's whole stream, retrying across daemon restarts."""
    try:
        with ServeClient("127.0.0.1", port, timeout=5.0,
                         retry_interval=0.1, retry_deadline=60.0) as client:
            serve_source = ServeSource(make_source(index), client)
            serve_source.register()
            data = as_generator(1000 + index)
            for batch_index in range(BATCHES):
                serve_source.ingest(data.random((40, 5)), batch_index)
    except Exception as exc:  # surfaced by the main thread
        errors.append((index, exc))


def run_clients(port: int) -> None:
    errors: list = []
    threads = [
        threading.Thread(target=stream_one_client, args=(i, port, errors))
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "a client thread hung"
    assert not errors, f"client failures: {errors}"


def final_query(port: int) -> dict:
    """The post-stream query, canonicalized for byte comparison."""
    with ServeClient("127.0.0.1", port, retry_deadline=30.0) as client:
        response = client.call({"op": "query", "tenant": "default"},
                               idempotent=False)
        metrics = client.metrics()
        client.shutdown()
    assert response.get("ok"), response
    assert response["updates_folded"] == CLIENTS * BATCHES
    response["_metrics_totals"] = metrics["totals"]["folds"]
    return response


def kill_restore_scenario(tmp_path: Path, faultpoint: str) -> tuple:
    """Run the clients against an uncrashed daemon and against one killed
    at ``faultpoint`` and restarted with ``--restore``, and demand equal
    final query responses.  Returns what the kill left behind (the state
    ``load_snapshot`` reads, and the LSNs in the log) and the folds the
    restarted daemon applied itself."""
    # Scenario A: the uncrashed reference run.
    clean_dir = tmp_path / "clean"
    clean_dir.mkdir()
    proc, port = start_daemon(clean_dir)
    try:
        run_clients(port)
        reference = final_query(port)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()

    # Scenario B: same streams, but the daemon dies a hard os._exit at the
    # faultpoint.
    crash_dir = tmp_path / "crash"
    crash_dir.mkdir()
    proc, port = start_daemon(crash_dir, faultpoint=faultpoint)
    recovered = None
    try:
        clients = threading.Thread(target=run_clients, args=(port,))
        clients.start()
        assert proc.wait(timeout=120) == faultpoints.EXIT_CODE, (
            "the daemon should have died at the injected faultpoint"
        )
        snapshot = crash_dir / "serve.json"
        crashed = load_snapshot(snapshot)
        logged = [json.loads(line)["lsn"] for line in
                  log_path_for(snapshot).read_bytes().splitlines()]
        # Restart on the same port from the files the victim left behind.
        recovered, _ = start_daemon(
            crash_dir, "--restore", str(snapshot), port=port
        )
        clients.join(timeout=120)
        assert not clients.is_alive(), "clients never finished after restart"
        replayed = final_query(port)
        assert recovered.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
        if recovered is not None and recovered.poll() is None:
            recovered.kill()

    # The acid test: canonical JSON bytes equal, crash or no crash.
    reference.pop("_metrics_totals")
    folds_after_recovery = replayed.pop("_metrics_totals")
    assert json.dumps(replayed, sort_keys=True) == \
        json.dumps(reference, sort_keys=True)
    return crashed, logged, folds_after_recovery


def test_kill_restore_query_is_byte_identical(tmp_path):
    # The daemon dies at the 10th applied fold — after logging it, before
    # acking it.
    _, _, folds_after_recovery = kill_restore_scenario(
        tmp_path, "serve.fold.ack:exit:10")
    # The restarted daemon saw at most the unacked tail as new folds — the
    # persisted prefix re-arrived as duplicates, never re-applied.
    assert folds_after_recovery <= CLIENTS * BATCHES - 9


def test_kill_mid_compaction_restore_query_is_byte_identical(tmp_path):
    # The 5th compaction (the first is at start-up) dies after renaming the
    # new snapshot, before truncating the log.
    crashed, logged, folds_after_recovery = kill_restore_scenario(
        tmp_path, "serve.compact:exit:5")
    # Every record left in the log is one the new snapshot already covers,
    assert logged and logged[-1] == crashed["lsn"] and not crashed["log"]
    # and the restarted daemon applied only the folds the snapshot lacked.
    persisted = crashed["tenants"]["default"]["updates_folded"]
    assert persisted > 0
    assert folds_after_recovery <= CLIENTS * BATCHES - persisted
