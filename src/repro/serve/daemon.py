"""The live clustering daemon behind ``repro serve``.

An asyncio TCP server speaking the NDJSON protocol of
:mod:`repro.serve.protocol`.  Each *tenant* owns one
:class:`~repro.streaming.server.StreamingServer` guarded by an
:class:`asyncio.Lock`, so folds from many concurrent client connections
serialize per tenant while tenants proceed independently.  The daemon's
delivery contract is exactly the fold layer's: at-least-once uplinks are
safe because duplicate/stale updates ack as ``duplicate`` without touching
state, gaps are typed rejections the client replays from, and unregistered
sources are refused.

Durability: when a snapshot path is configured, every request that changes
state is appended to the fold log ``<snapshot>.log`` before it is acked:
an applied fold as its request frame verbatim, a registration or a query as
a small record (a query's carries the solver rng position it left behind).
Each record carries a log sequence number (LSN).  Registrations and queries
are fsynced before their ack, and so is every ``snapshot_every``-th applied
fold (1, the default: every acked fold is durable).  The full snapshot —
every tenant's buckets, watermarks and rng position, plus the LSN it
covers — is written when the daemon starts, whenever the log has grown as
large as the last snapshot, on the ``snapshot`` op and at graceful
shutdown, and the log is then truncated (compaction).  Restore is the
snapshot plus a replay of the log records past its LSN through the live
decode-and-fold path, so a daemon restarted with ``--restore`` answers its
next query bit-identically to one that never died: acked folds are in the
snapshot or the log, unacked folds are replayed by the clients and either
apply once or ack as duplicates.

Scale note: this is a single-event-loop daemon with durability inline in
the fold path.  A fold writes its own frame (one append + fsync), not the
daemon's state: compaction waits until the log is as large as the last
snapshot, so bytes written stay within about 3x the bytes received however
large the state grows.  Sharding tenants across processes is the ROADMAP's
next step.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.serve import protocol
from repro.streaming.server import (
    EmptySummaryError,
    FoldRejectedError,
    FoldResult,
    StreamingServer,
)
from repro.utils import durable, faultpoints
from repro.utils.clock import perf_counter
from repro.utils.random import SeedLike, generator_for_name
from repro.utils.validation import check_positive_int

#: Snapshot file layout version, bumped on incompatible changes.
SNAPSHOT_VERSION = 1


@dataclass
class _Tenant:
    """One tenant's server, its fold serialization lock, and counters."""

    server: StreamingServer
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    folds: int = 0
    duplicates: int = 0
    rejections: int = 0
    queries: int = 0
    fold_seconds: float = 0.0
    query_seconds: float = 0.0
    last_fold_seconds: float = 0.0
    last_query_seconds: float = 0.0

    def metrics(self) -> Dict[str, Any]:
        return {
            "registered_sources": list(self.server.registered_sources),
            "watermarks": {
                source: self.server.watermark(source)
                for source in self.server.registered_sources
            },
            "live_buckets": self.server.live_bucket_count,
            "updates_folded": self.server.updates_folded,
            "folds": self.folds,
            "duplicates": self.duplicates,
            "rejections": self.rejections,
            "queries": self.queries,
            "fold_seconds": self.fold_seconds,
            "query_seconds": self.query_seconds,
            "last_fold_seconds": self.last_fold_seconds,
            "last_query_seconds": self.last_query_seconds,
        }


class ServeDaemon:
    """The ``repro serve`` process, minus the process.

    Parameters
    ----------
    k, n_init, max_iterations, seed:
        Per-tenant :class:`StreamingServer` configuration.  Each tenant's
        solver generator derives from ``(seed, tenant name)`` via
        :func:`~repro.utils.random.generator_for_name`, so tenant state is
        independent of tenant creation order.
    host, port:
        Bind address; port 0 picks an ephemeral port (read it from
        :attr:`bound_port` after :meth:`run` signals readiness).
    snapshot_path:
        Where to persist daemon state (the fold log lives beside it at
        ``<snapshot_path>.log``); ``None`` disables durability.
    snapshot_every:
        Fsync the fold log at every Nth applied fold (1 = every applied
        fold is durable before it is acked — the strongest guarantee and
        the default).  Every fold is written to the log before its ack;
        registrations and queries are always fsynced.
    """

    def __init__(
        self,
        *,
        k: int,
        n_init: int = 5,
        max_iterations: int = 100,
        seed: SeedLike = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        snapshot_path: Optional[str] = None,
        snapshot_every: int = 1,
    ) -> None:
        self.k = check_positive_int(k, "k")
        self.n_init = check_positive_int(n_init, "n_init")
        self.max_iterations = check_positive_int(max_iterations, "max_iterations")
        self.seed = seed
        self.host = str(host)
        self.port = int(port)
        self.snapshot_path = None if snapshot_path is None else Path(snapshot_path)
        self.snapshot_every = check_positive_int(snapshot_every, "snapshot_every")
        self.bound_port: Optional[int] = None
        self.snapshot_writes = 0
        self.bytes_written = 0
        self.connections = 0
        self._tenants: Dict[str, _Tenant] = {}
        self._lsn = 0  # last LSN logged (or replayed)
        self._snapshot_lsn = 0
        self._snapshot_bytes = 0
        self._snapshot_at: Optional[float] = None
        self._log_bytes = 0
        self._unsynced_folds = 0
        self._restored = False
        self._started = perf_counter()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None

    # --------------------------------------------------------------- state
    def tenant(self, name: str) -> _Tenant:
        """The named tenant, created on first touch."""
        name = str(name)
        state = self._tenants.get(name)
        if state is None:
            state = _Tenant(
                server=StreamingServer(
                    k=self.k,
                    n_init=self.n_init,
                    max_iterations=self.max_iterations,
                    seed=generator_for_name(self.seed, f"tenant::{name}"),
                )
            )
            self._tenants[name] = state
        return state

    @property
    def tenant_names(self) -> Tuple[str, ...]:
        """Every tenant's name, sorted."""
        return tuple(sorted(self._tenants))

    @property
    def log_path(self) -> Optional[Path]:
        """The fold log beside the snapshot, or ``None`` without one."""
        return None if self.snapshot_path is None else log_path_for(self.snapshot_path)

    def state(self) -> Dict[str, Any]:
        """JSON-able snapshot of every tenant's complete server state and
        the LSN of the last fold-log record it covers."""
        return {
            "version": SNAPSHOT_VERSION,
            "lsn": self._lsn,
            "tenants": {
                name: self._tenants[name].server.snapshot()
                for name in sorted(self._tenants)
            },
        }

    def restore_state(self, state: Dict[str, Any]) -> "ServeDaemon":
        """Rebuild every tenant from a :meth:`state` snapshot, then replay
        the fold-log records :func:`load_snapshot` read past its LSN;
        returns self.  Replayed folds are not counted as new folds."""
        version = int(state.get("version", 0))
        if version != SNAPSHOT_VERSION:
            raise ValueError(
                f"snapshot version {version} is not supported "
                f"(this daemon writes version {SNAPSHOT_VERSION})"
            )
        for name, snapshot in state.get("tenants", {}).items():
            self._tenants[str(name)] = _Tenant(
                server=StreamingServer.restore(snapshot)
            )
        self._lsn = int(state.get("lsn", 0))
        for record in state.get("log", ()):
            try:
                self._replay(record)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"fold log record {record['lsn']}: {exc}"
                ) from None
        self._restored = True
        return self

    def _replay(self, record: Dict[str, Any]) -> None:
        """Re-apply one fold-log record through the live fold path."""
        request = record["request"]
        server = self.tenant(self._tenant_name(request)).server
        op = request.get("op")
        if op == "register":
            server.register(request["source_id"])
        elif op == "fold":
            server.fold(protocol.decode_update(request.get("update")))
        elif op == "query":
            server.rng_state = record["rng"]
        else:
            raise ValueError(f"unknown op {op!r}")
        self._lsn = record["lsn"]

    def write_snapshot(self) -> Optional[Path]:
        """Compact: atomically persist :meth:`state`, then truncate the fold
        log it now covers; no-op without a snapshot path.

        Write-to-temp, flush+fsync, rename: a crash mid-write leaves the
        previous snapshot and the whole log intact (plus at worst a stale
        temp file).  A crash between the rename and the truncation leaves
        log records the snapshot already covers; restore skips them by LSN.
        """
        if self.snapshot_path is None:
            return None
        path = self.snapshot_path
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            self.state(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        faultpoints.reach("serve.snapshot")
        os.replace(tmp, path)
        durable.fsync_directory(path.parent)
        faultpoints.reach("serve.compact")
        self.log_path.open("wb").close()  # truncate
        self.snapshot_writes += 1
        self.bytes_written += len(payload)
        self._snapshot_lsn = self._lsn
        self._snapshot_bytes = len(payload)
        self._snapshot_at = perf_counter()
        self._log_bytes = 0
        self._unsynced_folds = 0
        return path

    def _log(
        self, frame: bytes, *, fold: bool = False, rng: Optional[Dict[str, Any]] = None
    ) -> None:
        """Append one record holding ``frame`` (a JSON request) and, for a
        query, the solver ``rng`` position to the fold log, fsynced unless it
        is a fold short of the ``snapshot_every`` cadence; compact once the
        log has grown as large as the last snapshot.  No-op without a
        snapshot path."""
        if self.snapshot_path is None:
            return
        # The LSN is consumed even if the append fails, so a lost record
        # shows up as a gap at restore instead of being silently reused.
        self._lsn += 1
        extra = b"" if rng is None else b',"rng":' + json.dumps(
            rng, sort_keys=True, separators=(",", ":")).encode("utf-8")
        line = b'{"lsn":%d,"request":%s%s}\n' % (self._lsn, frame.strip(), extra)
        if fold:
            self._unsynced_folds += 1
        sync = not fold or self._unsynced_folds >= self.snapshot_every
        durable.append_line(self.log_path, line, fsync=sync)
        if sync:
            self._unsynced_folds = 0
        self._log_bytes += len(line)
        self.bytes_written += len(line)
        if self._log_bytes >= self._snapshot_bytes:
            self.write_snapshot()

    def durability(self) -> Dict[str, Any]:
        """Where the durable state stands: the snapshot, the fold log past
        it, and the bytes written so far (reported by the ``metrics`` op)."""
        return {
            "snapshot_path": None if self.snapshot_path is None
            else str(self.snapshot_path),
            "snapshot_bytes": self._snapshot_bytes,
            "snapshot_age_seconds": None if self._snapshot_at is None
            else perf_counter() - self._snapshot_at,
            "snapshot_lsn": self._snapshot_lsn,
            "lsn": self._lsn,
            "log_records": self._lsn - self._snapshot_lsn,
            "log_bytes": self._log_bytes,
            "bytes_written": self.bytes_written,
        }

    # ------------------------------------------------------------ requests
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(protocol.dump_frame(protocol.error_response(
                        protocol.ERROR_BAD_REQUEST,
                        f"frame exceeds {protocol.MAX_FRAME_BYTES} bytes",
                    )))
                    await writer.drain()
                    break
                if not line:
                    break  # client closed
                if not line.strip():
                    continue
                try:
                    request = protocol.parse_frame(line)
                except protocol.ProtocolError as exc:
                    response, stop = protocol.encode_exception(exc), False
                else:
                    response, stop = await self._dispatch(request, line)
                writer.write(protocol.dump_frame(response))
                await writer.drain()
                if stop:
                    self.request_stop()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-frame; per-fold acks make this safe
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(
        self, request: Dict[str, Any], frame: bytes
    ) -> Tuple[Dict[str, Any], bool]:
        """Route one request (``frame`` is its line as received); returns
        ``(response, stop_after_reply)``."""
        op = request.get("op")
        try:
            if op == "register":
                return await self._op_register(request), False
            if op == "fold":
                return await self._op_fold(request, frame), False
            if op == "query":
                return await self._op_query(request), False
            if op == "healthz":
                return self._op_healthz(), False
            if op == "metrics":
                return self._op_metrics(), False
            if op == "snapshot":
                return self._op_snapshot(), False
            if op == "shutdown":
                return protocol.ok_response(stopping=True), True
            raise protocol.ProtocolError(
                f"unknown op {op!r}; expected register/fold/query/healthz/"
                "metrics/snapshot/shutdown"
            )
        except (protocol.ProtocolError, FoldRejectedError, EmptySummaryError) as exc:
            return protocol.encode_exception(exc), False

    @staticmethod
    def _tenant_name(request: Dict[str, Any]) -> str:
        name = request.get("tenant", "default")
        if not isinstance(name, str) or not name:
            raise protocol.ProtocolError("tenant must be a non-empty string")
        return name

    async def _op_register(self, request: Dict[str, Any]) -> Dict[str, Any]:
        source_id = request.get("source_id")
        if not isinstance(source_id, str) or not source_id:
            raise protocol.ProtocolError("register needs a source_id string")
        name = self._tenant_name(request)
        tenant = self.tenant(name)
        async with tenant.lock:
            watermark = tenant.server.register(source_id)
            # Registration is durable state: a restored daemon must keep
            # refusing unregistered sources and admitting registered ones.
            self._log(protocol.dump_frame(
                {"op": "register", "tenant": name, "source_id": source_id}))
        return protocol.ok_response(
            tenant=name, source_id=source_id, watermark=watermark
        )

    async def _op_fold(self, request: Dict[str, Any], frame: bytes) -> Dict[str, Any]:
        update = protocol.decode_update(request.get("update"))
        name = self._tenant_name(request)
        tenant = self.tenant(name)
        async with tenant.lock:
            start = perf_counter()
            try:
                result = tenant.server.fold(update)
            except FoldRejectedError:
                tenant.rejections += 1
                raise
            if result is FoldResult.APPLIED:
                tenant.folds += 1
                # The validated frame goes to the log verbatim: replay
                # decodes the same bytes, so the refold is bit-identical.
                self._log(frame, fold=True)
                # The at-least-once trap: die here and the client retries an
                # update the log already holds — the restored daemon must
                # ack it as a duplicate, not fold it twice.
                faultpoints.reach("serve.fold.ack")
            else:
                tenant.duplicates += 1
            tenant.last_fold_seconds = perf_counter() - start
            tenant.fold_seconds += tenant.last_fold_seconds
            watermark = tenant.server.watermark(update.source_id)
        return protocol.ok_response(result=result.value, watermark=watermark)

    async def _op_query(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = self._tenant_name(request)
        tenant = self.tenant(name)
        async with tenant.lock:
            start = perf_counter()
            result, coreset, seconds = tenant.server.query()
            tenant.queries += 1
            tenant.last_query_seconds = perf_counter() - start
            tenant.query_seconds += tenant.last_query_seconds
            response = protocol.ok_response(
                tenant=name,
                centers=result.centers.tolist(),
                cost=float(result.cost),
                iterations=int(result.iterations),
                converged=bool(result.converged),
                summary_cardinality=coreset.size,
                summary_dimension=coreset.dimension,
                live_buckets=tenant.server.live_bucket_count,
                updates_folded=tenant.server.updates_folded,
                server_seconds=seconds,
            )
            # Queries advance the per-tenant solver rng: log its new
            # position so a restored daemon continues the same seed stream.
            self._log(protocol.dump_frame({"op": "query", "tenant": name}),
                      rng=tenant.server.rng_state)
        return response

    def _op_healthz(self) -> Dict[str, Any]:
        return protocol.ok_response(
            status="ok",
            protocol_version=protocol.PROTOCOL_VERSION,
            uptime_seconds=perf_counter() - self._started,
            tenants=len(self._tenants),
            pid=os.getpid(),
        )

    def _op_metrics(self) -> Dict[str, Any]:
        tenants = {name: self._tenants[name].metrics() for name in self.tenant_names}
        return protocol.ok_response(
            uptime_seconds=perf_counter() - self._started,
            connections=self.connections,
            snapshot_writes=self.snapshot_writes,
            durability=self.durability(),
            totals={
                "folds": sum(t["folds"] for t in tenants.values()),
                "duplicates": sum(t["duplicates"] for t in tenants.values()),
                "rejections": sum(t["rejections"] for t in tenants.values()),
                "queries": sum(t["queries"] for t in tenants.values()),
                "live_buckets": sum(t["live_buckets"] for t in tenants.values()),
            },
            tenants=tenants,
        )

    def _op_snapshot(self) -> Dict[str, Any]:
        path = self.write_snapshot()
        if path is None:
            raise protocol.ProtocolError(
                "no snapshot path configured (start the daemon with --snapshot)"
            )
        return protocol.ok_response(path=str(path), tenants=len(self._tenants))

    # ------------------------------------------------------------ lifecycle
    async def run(
        self,
        *,
        ready: Optional[Callable[[str, int], None]] = None,
        install_signal_handlers: bool = False,
    ) -> None:
        """Compact once, serve until :meth:`request_stop` (or SIGTERM/SIGINT
        when signal handlers are installed), then persist a final snapshot."""
        if self.snapshot_path is not None:
            if not self._restored:
                # A fresh daemon starts from an empty snapshot and log; an
                # earlier run's log must never be replayed onto it.
                self.log_path.unlink(missing_ok=True)
            self.write_snapshot()
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        installed = []
        if install_signal_handlers:
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    self._loop.add_signal_handler(sig, self._stop.set)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    continue  # platforms without loop signal support
                installed.append(sig)
        server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=protocol.MAX_FRAME_BYTES,
        )
        self.bound_port = int(server.sockets[0].getsockname()[1])
        try:
            if ready is not None:
                ready(self.host, self.bound_port)
            async with server:
                await self._stop.wait()
        finally:
            for sig in installed:
                self._loop.remove_signal_handler(sig)
            # Graceful shutdown always leaves a restorable snapshot behind.
            self.write_snapshot()

    def request_stop(self) -> None:
        """Stop :meth:`run` from any thread (idempotent, safe after exit)."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # the loop already shut down: nothing left to stop


def log_path_for(snapshot_path: Path) -> Path:
    """Where the fold log of the snapshot at ``snapshot_path`` lives."""
    return snapshot_path.with_name(snapshot_path.name + ".log")


def load_snapshot(path: str) -> Dict[str, Any]:
    """Read a daemon's durable state: the snapshot written by
    :meth:`ServeDaemon.write_snapshot`, with the fold-log records past its
    LSN under ``"log"`` for :meth:`ServeDaemon.restore_state` to replay.

    A torn last log line (a crash mid-append, so never acked) is ignored;
    a corrupt complete line or a gap in the LSNs raises ``ValueError``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        state = json.load(handle)
    if not isinstance(state, dict):
        raise ValueError("a snapshot must be a JSON object")
    state["log"] = _read_log(log_path_for(Path(path)), after=int(state.get("lsn", 0)))
    return state


def _read_log(path: Path, after: int) -> List[Dict[str, Any]]:
    """The complete records of the fold log at ``path`` whose LSN is above
    ``after``, checked to be consecutive (empty for a missing log)."""
    try:
        body = path.read_bytes()
    except FileNotFoundError:
        return []
    lines = body.split(b"\n")[:-1]  # the last piece is torn (or empty)
    records: List[Dict[str, Any]] = []
    for number, line in enumerate(lines, start=1):
        try:
            record = json.loads(line.decode("utf-8"))
            lsn = record["lsn"]
            valid = isinstance(lsn, int) and isinstance(record["request"], dict)
        except (UnicodeDecodeError, ValueError, KeyError, TypeError):
            valid = False
        if not valid:
            raise ValueError(f"{path}:{number}: corrupt fold log record")
        if lsn <= after:
            continue  # already in the snapshot (a crash before truncation)
        expected = after + 1 + len(records)
        if lsn != expected:
            raise ValueError(
                f"{path}:{number}: fold log record has LSN {lsn}, expected "
                f"{expected}"
            )
        records.append(record)
    return records


__all__ = ["SNAPSHOT_VERSION", "ServeDaemon", "load_snapshot", "log_path_for"]
