"""The workloads, driven through the program's public entry points only.

Each workload turns ``--seed`` into its inputs with ``repro.datasets``,
builds fresh program objects for every job (no stage cache, nothing carried
over), and checks what the program returned.  ``setup`` is the one-off
program work a user pays before the first job; ``job`` is one timed unit of
work (a protocol run, a stream, or one client session against a daemon).

Each workload class states its loop type and its rows of the layer ->
end-to-end map: the layers it runs heavily, with the end-to-end metrics a
change to them should move there, and the layers it runs lightly or not at
all, where a change to them must move nothing.  A later change names a
metric and a workload from these, and the workloads that must not move.

A flat-star stream (the root merging every live bucket at each query) is
left out: on the shared two-vCPU host this benchmark was tuned on, its run
medians spread 23-35% between runs, more than a 0.25 bound tolerates.  The
root merge is still traced on stream-tree and serve
(``streaming.server.merge.*``).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core import registry
from repro.datasets import make_gaussian_mixture, make_mnist_like
from repro.distributed.conditions import LinkModel, NetworkCondition
from repro.distributed.network import SimulatedNetwork
from repro.distributed.partition import partition_dataset
from repro.quantization.rounding import RoundingQuantizer

import tracing

HERE = Path(__file__).resolve().parent

#: Lossless but metered wire (the ``flat@1000`` row of the source-scaling
#: benchmark): every message costs 5 ms latency plus its bits at 50 Mbit/s
#: of simulated time, and nothing is ever lost, so results stay
#: bit-identical to the ideal wire.
METERED = NetworkCondition(
    name="metered",
    default_link=LinkModel(loss=0.0, latency_seconds=0.005,
                           bandwidth_bits_per_second=50e6),
)


@dataclass
class JobResult:
    """What one job returned, as the benchmark saw it.

    ``attempted`` and ``completed`` count the job's operations: one per
    in-process job, completed only when it returned finite ``(k, d)``
    centers; every fold and query of a serve session, completed when acked
    or answered.
    """

    centers: Optional[np.ndarray]
    uplink_bits: int
    attempted: int = 1
    completed: int = 0
    seconds: float = 0.0
    #: Reference-host seconds per second measured around this job (see
    #: ``probe.py``).
    scale: float = 1.0
    fold_ms: List[float] = field(default_factory=list)
    query_ms: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @classmethod
    def failed(cls, exc: BaseException) -> "JobResult":
        """A job that raised: attempted, not completed."""
        return cls(centers=None, uplink_bits=0,
                   failures=[f"{type(exc).__name__}: {exc}"])


class Workload:
    """Base class: inputs from a seed, fresh program objects per job."""

    name = ""
    k = 0
    dimension = 0
    #: Largest acceptable cost of the returned centers over the reference's.
    cost_ceiling = 0.0
    #: Uplink bits of one job at :attr:`pin_seed`, per ``--size``; any
    #: change means the wire format changed.
    pinned_bits: Dict[str, int] = {}
    pin_seed = 1
    #: True when the wire geometry depends on the data, so the pin is checked
    #: by an extra job at :attr:`pin_seed` instead of on the run's own jobs.
    bits_depend_on_seed = False
    #: True when every job needs its own set-up (a fresh daemon).
    setup_per_job = False
    #: ``(module, class, method)`` entry points whose call latency makes up
    #: ``fold_ms`` and ``query_ms`` (timed by the benchmark, tracing off).
    fold_entry: tuple = ()
    query_entry: tuple = ()
    #: Parts of the host-speed probe (``probe.PARTS``) whose time scales
    #: this workload's times: the kinds of work its time goes to.
    probe_parts = ("blas", "interpreter")

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        self.seed = int(seed)
        self.size = size
        self.work_dir = work_dir
        self.points: Optional[np.ndarray] = None

    def setup(self) -> None:
        raise NotImplementedError

    def job(self) -> JobResult:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what one job's set-up started (nothing by default)."""

    def timed_job(self) -> JobResult:
        """One job, timed; a job that raises counts as failed, not fatal."""
        start = time.perf_counter()
        try:
            result = self.job()
        except Exception as exc:  # noqa: BLE001 - it fails this job only
            result = JobResult.failed(exc)
        result.seconds = time.perf_counter() - start
        return result

    def valid(self, centers) -> bool:
        """Finite centers of shape ``(k, d)``."""
        return (centers is not None
                and centers.shape == (self.k, self.dimension)
                and bool(np.isfinite(centers).all()))

    def pinned_job_bits(self, first: JobResult) -> int:
        """Uplink bits of one job at the pin seed."""
        if not self.bits_depend_on_seed or self.seed == self.pin_seed:
            return first.uplink_bits
        other = type(self)(self.pin_seed, self.size, self.work_dir)
        other.setup()
        return int(other.job().uplink_bits)

    def check(self, jobs: List[JobResult]):
        """Check every job's output; returns ``(problems, cost_ratio)``.

        ``jobs`` starts with the warm-up job.  Centers must be finite
        ``(k, d)`` and identical across jobs (same seed, fresh objects), the
        cost ratio against a reference computed here must stay under
        :attr:`cost_ceiling`, and the uplink bits must equal the pin.  A job
        that raised is counted as failed, not checked.
        """
        problems = []
        answered = [(index, job) for index, job in enumerate(jobs)
                    if job.centers is not None]
        for index, job in enumerate(jobs):
            problems.extend(f"job {index}: {failure}" for failure in job.failures)
        if not answered:
            return problems + ["no job returned centers"], float("nan")
        first = answered[0][1]
        for index, job in answered:
            if not self.valid(job.centers):
                problems.append(f"job {index}: centers {job.centers.shape} are "
                                f"not finite {(self.k, self.dimension)}")
                continue
            if not np.array_equal(job.centers, first.centers):
                problems.append(f"job {index}: centers differ from the first job's")
            if job.uplink_bits != first.uplink_bits:
                problems.append(f"job {index}: {job.uplink_bits} uplink bits, the "
                                f"first job sent {first.uplink_bits}")
        ratio = (kmeans_cost(self.points, first.centers)
                 / reference_cost(self.points, self.k, self.seed))
        if not ratio <= self.cost_ceiling:
            problems.append(f"cost ratio {ratio:.4f} above {self.cost_ceiling}")
        bits, pinned = self.pinned_job_bits(first), self.pinned_bits[self.size]
        if bits != pinned:
            problems.append(f"uplink bits {bits}, pinned {pinned}: the wire "
                            "format changed")
        return problems, ratio


# --------------------------------------------------------------------------
class OneShot(Workload):
    """Algorithm 4 (jl-bklw) with the Section 6 rounding quantizer.

    Why: the paper's multi-source headline; its time goes to large-array
    kernels (JL matmul, local SVDs, bicriteria/D^2 sampling, Lloyd).
    Loop: closed loop, one caller, jobs back to back.
    Heavy here: ``dr``, ``cr``, ``kmeans.bicriteria``, ``utils.validation``
    (full-array scans), ``distributed`` (nodes, edge server) and
    ``core.engine`` (the 784-dim lift) move ``job_s``; ``quantization``
    moves ``uplink_bits`` and ``job_s``; ``kmeans.solve`` (one small solve
    per job) moves ``query_ms.p50`` and ``distributed.network`` (the
    sources' sends) moves ``fold_ms.*``.
    Light, predict no change: ``kmeans.solve`` and ``distributed.network``
    on ``job_s``; ``streaming.*``, ``topology``, ``serve``.
    """

    name = "oneshot"
    k = 2
    dimension = 784
    sources = 10
    quantize_bits = 12
    cost_ceiling = 1.5
    bits_depend_on_seed = True
    pinned_bits = {"full": 2855040, "toy": 2295680}
    points_per_size = {"full": 20000, "toy": 1200}
    fold_entry = (("repro.distributed.node", "DataSourceNode", "send_to_server"),)
    query_entry = (("repro.distributed.server", "EdgeServer", "solve_kmeans"),)

    def setup(self) -> None:
        self.points = self.shards = None
        points, _ = make_mnist_like(n=self.points_per_size[self.size],
                                    d=self.dimension, seed=self.seed)
        parts = partition_dataset(points, self.sources, strategy="random",
                                  seed=self.seed)
        self.points = points
        self.shards = [points[index] for index in parts]
        self.pipeline()

    def pipeline(self):
        return registry.create_pipeline(
            "jl-bklw", k=self.k, quantizer=RoundingQuantizer(self.quantize_bits),
            seed=self.seed, jobs=1, network=METERED,
        )

    def job(self) -> JobResult:
        report = self.pipeline().run(self.shards)
        return JobResult(centers=report.centers,
                         uplink_bits=int(report.communication_bits),
                         completed=int(self.valid(report.centers)))


# --------------------------------------------------------------------------
class StreamTree(Workload):
    """stream-fss over many small sources through an aggregation tree.

    Why: tiny-batch compress at every source, and the aggregators'
    merge-and-re-reduce emits; the root merges only five aggregator
    buckets per query.
    Loop: closed loop, one caller, jobs back to back; a query after every
    batch step.
    Heavy here: ``cr`` and ``kmeans.bicriteria`` (32-row batches),
    ``utils.validation`` (cost per call), ``streaming.source``,
    ``streaming.tree`` and ``topology`` move ``job_s`` (``topology`` also
    ``fold_ms.*``); ``distributed.network`` (thousands of sends) moves
    ``uplink_bits`` and ``job_s``; ``kmeans.solve`` and
    ``streaming.server`` query move ``query_ms.p50``.
    Light, predict no change: ``dr``, ``quantization``, ``distributed``
    (nodes, edge server), ``core.engine`` (lift), ``serve``, and the
    root merge (``streaming.server.merge.*``).
    """

    name = "stream-tree"
    k = 4
    dimension = 8
    batch_size = 32
    batches = 3
    coreset_size = 64
    fan_in = 32
    cost_ceiling = 1.5
    #: Weighted k-means restarts per query: with 3, one seed in about forty
    #: ended on a local optimum five times the reference cost.
    solver_restarts = 10
    sources_per_size = {"full": 150, "toy": 40}
    pinned_bits = {"full": 11771200, "toy": 3213440}
    #: An in-process fold is microseconds of bookkeeping; the hop latency an
    #: update waits for is the aggregator's merge-and-re-reduce of its
    #: children's buckets before it ships one bucket up.
    fold_entry = (("repro.topology.aggregator", "AggregatorNode", "emit"),)
    query_entry = (("repro.streaming.server", "StreamingServer", "query"),)
    #: Interpreted Python over 32-row batches: scaled by the matrix part
    #: too, its runs on a fast host read measurably lower than on a slow one.
    probe_parts = ("interpreter",)

    def setup(self) -> None:
        self.points = self.shards = None
        sources = self.sources_per_size[self.size]
        points, _, _ = make_gaussian_mixture(
            n=sources * self.batches * self.batch_size, d=self.dimension,
            k=self.k, seed=self.seed)
        parts = partition_dataset(points, sources, strategy="random",
                                  seed=self.seed)
        self.points = points
        self.shards = [points[index] for index in parts]
        self.engine()

    def engine(self):
        return registry.create_pipeline(
            "stream-fss", k=self.k, coreset_size=self.coreset_size,
            batch_size=self.batch_size, query_every=1,
            server_n_init=self.solver_restarts, server_max_iterations=25,
            seed=self.seed, jobs=1, network=METERED, topology="tree",
            fan_in=self.fan_in,
        )

    def job(self) -> JobResult:
        report = self.engine().run(self.shards)
        return JobResult(centers=report.centers,
                         uplink_bits=int(report.communication_bits),
                         completed=int(self.valid(report.centers)))


# --------------------------------------------------------------------------
def child_env(root: Path) -> Dict[str, str]:
    """Environment of every process the benchmark starts: BLAS on one
    thread, the checkout's sources first, no inherited ``REPRO_*``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(root / "src"))
    return env


class Serve(Workload):
    """``repro serve`` in its own process, 16 stream-fss client sources.

    Why: the only workload with real sockets, NDJSON framing and a durable
    snapshot (``--snapshot-every 1``) in the fold path.
    Loop: closed loop, one connection: the next request leaves only after
    the previous ack; a query after every step.  A job is one session
    against a fresh daemon.
    Heavy here: ``serve`` (snapshot, protocol, transport) moves
    ``fold_ms.p50``, ``fold_ms.p90`` and ``query_ms.p50``;
    ``streaming.server`` and ``kmeans.solve`` move ``query_ms.p50``;
    ``streaming.source`` and ``cr`` move ``job_s`` (client-side work).
    Light, predict no change: ``dr``, ``quantization``, ``distributed``,
    ``topology``, ``core.engine`` (lift); ``streaming.source`` and ``cr``
    on ``fold_ms.*``.
    """

    name = "serve"
    k = 4
    dimension = 8
    batch_size = 32
    coreset_size = 64
    sources = 16
    cost_ceiling = 1.5
    setup_per_job = True
    steps_per_size = {"full": 4, "toy": 2}
    pinned_bits = {"full": 1793024, "toy": 896000}
    fold_entry = (("repro.serve.client", "ServeSource", "deliver"),)
    query_entry = (("repro.serve.client", "ServeSource", "query"),)
    n_init = StreamTree.solver_restarts
    max_iterations = 25
    probe_parts = StreamTree.probe_parts

    def __init__(self, seed, size, work_dir) -> None:
        super().__init__(seed, size, work_dir)
        self.trace_daemon = False
        self._proc: Optional[subprocess.Popen] = None
        self._client = None
        self._session = 0
        self.daemon_spans = []
        self.daemon_counters: Dict[str, float] = {}
        self.last_session = ([], [])

    # ------------------------------------------------------------ set-up
    def setup(self) -> None:
        from repro.serve.client import ServeClient, ServeSource

        steps = self.steps_per_size[self.size]
        points, _, _ = make_gaussian_mixture(
            n=self.sources * steps * self.batch_size, d=self.dimension,
            k=self.k, seed=self.seed)
        parts = partition_dataset(points, self.sources, strategy="random",
                                  seed=self.seed)
        self.points = points
        self.shards = [points[index] for index in parts]
        self._start_daemon()
        # A daemon that stops answering fails the run within seconds rather
        # than after the client's default 30 s of reconnect attempts.
        self._client = ServeClient("127.0.0.1", self._port, retry_deadline=5.0)
        self.serve_sources = []
        for i in range(self.sources):
            engine = registry.create_pipeline(
                "stream-fss", k=self.k, coreset_size=self.coreset_size,
                batch_size=self.batch_size, seed=self.seed * 1000 + i, jobs=1)
            source = engine.standalone_source(
                f"source-{i}", (self.batch_size, self.dimension),
                network=SimulatedNetwork(condition=METERED))
            serve_source = ServeSource(source, self._client)
            if serve_source.register() != -1:
                raise RuntimeError("a fresh daemon reported an old watermark")
            self.serve_sources.append(serve_source)

    def _start_daemon(self) -> None:
        root = HERE.parent
        self._session += 1
        self._dir = self.work_dir / f"serve-{os.getpid()}-{self._session}"
        shutil.rmtree(self._dir, ignore_errors=True)
        self._dir.mkdir(parents=True)
        port_file = self._dir / "port"
        command = [sys.executable, str(HERE / "serve_launcher.py")]
        if self.trace_daemon:
            command += ["--trace", str(self._dir / "spans.jsonl"),
                        "--out", str(self._dir / "counters.json")]
        command += [
            "--", "serve", "--port", "0", "--port-file", str(port_file),
            "--k", str(self.k), "--n-init", str(self.n_init),
            "--max-iterations", str(self.max_iterations),
            "--seed", str(self.seed), "--snapshot",
            str(self._dir / "snapshot.json"), "--snapshot-every", "1",
        ]
        errors = self._dir / "daemon.err"
        with errors.open("wb") as stderr:
            self._proc = subprocess.Popen(command, env=child_env(root),
                                          stdout=subprocess.DEVNULL,
                                          stderr=stderr, cwd=str(root))
        deadline = time.monotonic() + 60
        while not port_file.exists() or not port_file.read_text().strip():
            if self._proc.poll() is not None:
                raise RuntimeError("repro serve exited before listening: "
                                   + errors.read_text()[-2000:])
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve did not start within 60 s")
            time.sleep(0.002)
        self._port = int(port_file.read_text())

    # --------------------------------------------------------------- job
    def job(self) -> JobResult:
        from repro.serve.client import ServeError

        steps = self.steps_per_size[self.size]
        updates = []
        answers = []
        result = JobResult(centers=None, uplink_bits=0, attempted=0)
        for step in range(steps):
            for i, serve_source in enumerate(self.serve_sources):
                batch = self.shards[i][step * self.batch_size:
                                       (step + 1) * self.batch_size]
                update = serve_source.source.ingest(batch, step)
                result.attempted += 1
                try:
                    ack = serve_source.deliver(update)
                except ServeError as exc:
                    result.failures.append(f"fold: {exc}")
                    continue
                result.completed += 1
                updates.append(update)
                if ack.get("result") != "applied":
                    result.failures.append(f"fold acked as {ack.get('result')}")
            result.attempted += 1
            try:
                answer = self.serve_sources[0].query()
            except ServeError as exc:
                result.failures.append(f"query: {exc}")
                continue
            result.completed += 1
            answers.append(answer)
        if answers:
            result.centers = np.asarray(answers[-1]["lifted_centers"])
        result.uplink_bits = sum(s.source.network.uplink_bits()
                                 for s in self.serve_sources)
        self.last_session = (updates, answers)
        return result

    def teardown(self) -> None:
        if self._client is not None:
            try:
                self._client.shutdown()
            except (OSError, ConnectionError, RuntimeError):
                pass
            self._client.close()
            self._client = None
        if self._proc is not None:
            try:
                self._proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
            self._proc = None
            if self.trace_daemon:
                self.daemon_spans = tracing.read_spans(self._dir / "spans.jsonl")
                self.daemon_counters = json.loads(
                    (self._dir / "counters.json").read_text())["counters"]
            shutil.rmtree(self._dir, ignore_errors=True)

    def check(self, jobs: List[JobResult]):
        problems, ratio = super().check(jobs)
        updates, answers = self.last_session
        if not answers:
            return problems + ["the last session answered no query"], ratio
        replica = self.replica_answer(updates, len(answers))
        if not np.array_equal(replica, np.asarray(answers[-1]["centers"])):
            problems.append("final answer differs from an in-process "
                            "StreamingServer fed the same updates")
        return problems, ratio

    def replica_answer(self, updates, queries: int) -> np.ndarray:
        """The answer an in-process StreamingServer gives after folding the
        same updates with the daemon's tenant seed."""
        from repro.streaming.server import StreamingServer
        from repro.utils.random import generator_for_name

        server = StreamingServer(
            k=self.k, n_init=self.n_init, max_iterations=self.max_iterations,
            seed=generator_for_name(self.seed, "tenant::default"))
        for serve_source in self.serve_sources:
            server.register(serve_source.source.source_id)
        per_step = len(updates) // queries
        centers = None
        for q in range(queries):
            for update in updates[q * per_step:(q + 1) * per_step]:
                server.fold(update)
            centers = server.query()[0].centers
        return centers


WORKLOADS = {cls.name: cls for cls in (OneShot, StreamTree, Serve)}


# --------------------------------------------------------------------------
def kmeans_cost(points: np.ndarray, centers: np.ndarray) -> float:
    """k-means cost of ``centers`` on ``points``, in chunks."""
    total = 0.0
    center_norms = (centers ** 2).sum(axis=1)
    for start in range(0, points.shape[0], 8192):
        chunk = points[start:start + 8192]
        d2 = ((chunk ** 2).sum(axis=1)[:, None] - 2.0 * chunk @ centers.T
              + center_norms[None, :])
        total += float(np.maximum(d2.min(axis=1), 0.0).sum())
    return total


def reference_cost(points: np.ndarray, k: int, seed: int, restarts: int = 5,
                   iterations: int = 100) -> float:
    """Best cost of a few k-means++ + Lloyd restarts, written here so that
    the reference does not depend on the code it judges."""
    rng = np.random.default_rng([seed, 7919])
    best = np.inf
    norms = (points ** 2).sum(axis=1)
    for _ in range(restarts):
        centers = [points[rng.integers(points.shape[0])]]
        d2 = ((points - centers[0]) ** 2).sum(axis=1)
        for _ in range(1, k):
            pick = rng.choice(points.shape[0], p=d2 / d2.sum())
            centers.append(points[pick])
            d2 = np.minimum(d2, ((points - points[pick]) ** 2).sum(axis=1))
        centers = np.array(centers)
        previous = np.inf
        for _ in range(iterations):
            dist = norms[:, None] - 2.0 * points @ centers.T + (centers ** 2).sum(axis=1)
            labels = dist.argmin(axis=1)
            cost = float(np.maximum(dist[np.arange(len(points)), labels], 0).sum())
            for j in range(k):
                members = points[labels == j]
                if len(members):
                    centers[j] = members.mean(axis=0)
            if previous - cost <= 1e-9 * previous:
                break
            previous = cost
        best = min(best, kmeans_cost(points, centers))
    return best
