"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: it imports the program from ``src/`` and
reads the metric names and units from ``BENCHMARK.json``.  The workloads are
defined in ``workloads.py``.  A run

1. sets up the workload several times (the median is ``setup_s``; the
   ``import repro`` part is timed in fresh interpreters),
2. runs one untimed warm-up job, then jobs back to back for ``--seconds``
   (at least three, and enough that p90 has ten fold samples beyond it),
3. checks every output, and
4. prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
   metrics -- the end-to-end ones with ``--trace 0``, the per-layer ones
   with ``--trace 1`` (a run that alternates plain and traced jobs).

With ``--trace 0`` every time is in reference-host seconds: a fixed probe
(``probe.py``) is timed before and after each set-up and job, and the time,
with the job's fold and query latencies, is scaled by how much slower than
on the reference host the probe ran.  The raw times and every probe time
are kept in the run record.  The traced run reports raw times.

Provenance, every sample and (traced) the spans go to ``.perfbench/`` in
the checkout.  ``--size toy`` shrinks every input for the self-test.
"""

import os
import sys

# Noise controls, before numpy is loaded: BLAS on one thread, nothing
# inherited from a ``REPRO_*`` variable.  Child processes get the same.
for _key in [key for key in os.environ if key.startswith("REPRO_")]:
    del os.environ[_key]
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")
# Every process of a run on one CPU (children inherit it): the probes then
# gauge the CPU the timed work ran on, and a serve session, whose client
# and daemon take turns, is not spread over two CPUs in different states.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups timed per run (their median is ``setup_s``).
SETUP_REPEATS = 3
#: Fresh-interpreter ``import repro`` timings per run (after one warm-up).
IMPORT_REPEATS = 7
#: Timed jobs per run, at least, however long they take.
MIN_JOBS = 3
#: Fold latencies per run, at least: p90 then has ten samples beyond it.
MIN_FOLDS = 100

perf_counter = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    return parser.parse_args(argv)


# ------------------------------------------------------------- provenance
def _steal_seconds() -> float:
    """CPU time stolen from this VM by its host, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def provenance(root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = None
    return {
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(root / "src"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg": os.getloadavg(),
        "steal_s": _steal_seconds(),
    }


def peak_rss_kib() -> int:
    """Largest peak resident set of this process (VmHWM) and of every child
    it waited for (the serve daemons among them)."""
    with open("/proc/self/status", encoding="ascii") as handle:
        own = next(int(line.split()[1]) for line in handle
                   if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def import_seconds(root: Path, env: dict, speed) -> list:
    """``import repro`` in fresh interpreters, each scaled to the reference
    host; the first (it may compile byte code into a fresh checkout) is
    discarded."""
    code = ("import time; t = time.perf_counter(); import repro; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        samples.append(float(out.stdout.strip()) * speed.scale())
    return samples[1:]


# ------------------------------------------------------------------ timers
class LatencyTimer:
    """Times calls of the workload's fold and query entry points (the
    ``fold_ms`` / ``query_ms`` samples of a run without tracing)."""

    def __init__(self, tracing, entries: dict) -> None:
        self.samples = {kind: [] for kind in entries}
        self._patcher = tracing.Patcher()
        for kind, points in entries.items():
            for module, class_name, method in points:
                owner = getattr(importlib.import_module(module), class_name)
                self._patcher.replace(owner, method, self._timed(
                    owner.__dict__[method], self.samples[kind]))

    @staticmethod
    def _timed(fn, sink):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append((perf_counter() - start) * 1e3)
        return timed

    def take(self) -> dict:
        taken = {kind: list(values) for kind, values in self.samples.items()}
        for values in self.samples.values():
            values.clear()
        return taken

    def remove(self) -> None:
        self._patcher.restore()


def timed_setup(workload) -> float:
    start = perf_counter()
    workload.setup()
    return perf_counter() - start


# ------------------------------------------------------------ measurement
def measure(workload, tracing, speed, seconds: float) -> dict:
    """Plain run: set-ups, warm-up, then timed jobs for ``seconds``.

    Every set-up and job is followed by a probe (``speed.scale()``), and its
    time, with the job's fold and query latencies, is scaled by it.
    """
    timer = LatencyTimer(tracing, {"fold": workload.fold_entry,
                                   "query": workload.query_entry})
    setups, jobs = [], []
    try:
        if workload.setup_per_job:
            workload.setup()
        else:
            for _ in range(SETUP_REPEATS):
                setups.append(timed_setup(workload) * speed.scale())
        warm_up = workload.timed_job()
        workload.teardown()
        timer.take()
        speed.scale()  # the probe right before the first timed job
        deadline = perf_counter() + seconds
        while (len(jobs) < MIN_JOBS or perf_counter() < deadline
               or sum(len(job.fold_ms) for job in jobs) < MIN_FOLDS):
            if workload.setup_per_job:
                setups.append(timed_setup(workload) * speed.scale())
            result = workload.timed_job()
            workload.teardown()
            result.scale = speed.scale()
            samples = timer.take()
            result.fold_ms, result.query_ms = samples["fold"], samples["query"]
            jobs.append(result)
        rss = peak_rss_kib()
    finally:
        timer.remove()
    return {"setups": setups, "jobs": jobs, "warm_up": warm_up, "rss_kib": rss}


def measure_traced(workload, tracing, seconds: float, spans_path: Path) -> dict:
    """Traced run: plain and traced jobs alternate on the same inputs."""
    tracer = tracing.Tracer(role="client")
    plain, traced, per_job = [], [], []
    workload.setup()
    warm_up = workload.timed_job()
    workload.teardown()
    daemon_spans = []
    deadline = perf_counter() + seconds
    while len(traced) < 1 or perf_counter() < deadline:
        for with_trace in (False, True):
            if workload.setup_per_job:
                workload.trace_daemon = with_trace
                workload.setup()
            if not with_trace:
                plain.append(workload.timed_job())
                workload.teardown()
                continue
            tracer.job = len(traced)
            tracing.install(tracer)
            try:
                start = perf_counter()
                result = workload.timed_job()
                end = perf_counter()
            finally:
                tracer.uninstall()
            workload.teardown()
            counters = tracer.counters[tracer.job]
            session = []
            if workload.setup_per_job:
                # The daemon's spans of this session (its own clock is the
                # same monotonic clock) and its counters.
                session = [s for s in workload.daemon_spans
                           if start <= s.start and s.end <= end]
                for span in session:
                    span.job = tracer.job
                daemon_spans.extend(session)
                counters.update(workload.daemon_counters)
            job_spans = [s for s in tracer.spans if s.job == tracer.job]
            networks = tracer.networks[tracer.job].values()
            metrics = tracing.job_metrics(
                job_spans, counters, result.seconds,
                sim_s=max((n.simulated_seconds() for n in networks), default=0.0),
                retransmissions=sum(n.retransmissions() for n in networks),
                daemon_spans=session)
            per_job.append({
                "metrics": metrics,
                "wall_s": result.seconds,
                "self_s": tracing.self_time_total(job_spans),
                "daemon_self_s": tracing.self_time_total(session),
                "spans": len(job_spans) + len(session),
            })
            traced.append(result)
    tracing.write_spans(spans_path, tracer.spans + daemon_spans)
    return {"plain": plain, "traced": traced, "per_job": per_job,
            "warm_up": warm_up}


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


# -------------------------------------------------------------------- main
def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program sources are missing ({src}); run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    import probe
    import tracing
    import workloads as wk

    if args.workload not in wk.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wk.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"args": vars(args), "provenance_start": provenance(ROOT)}
    env = wk.child_env(ROOT)
    workload = wk.WORKLOADS[args.workload](args.seed, args.size, out_dir)

    try:
        if args.trace:
            run = measure_traced(workload, tracing, args.seconds,
                                 out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
            jobs = run["plain"] + run["traced"]
        else:
            speed = probe.HostSpeed(workload.probe_parts)
            imports = import_seconds(ROOT, env, speed)
            run = measure(workload, tracing, speed, args.seconds)
            jobs = run["jobs"]
        problems, cost_ratio = workload.check([run["warm_up"]] + jobs)
    finally:
        workload.teardown()

    attempted = sum(job.attempted for job in jobs)
    completed = sum(job.completed for job in jobs)
    if args.trace:
        values = tracing.median_metrics([job["metrics"] for job in run["per_job"]])
        values["trace.overhead"] = (
            statistics.median(job["wall_s"] for job in run["per_job"])
            / statistics.median(job.seconds for job in run["plain"]) - 1.0)
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        record["per_job"] = run["per_job"]
        record["plain_job_s"] = [job.seconds for job in run["plain"]]
    else:
        folds = [ms * job.scale for job in jobs for ms in job.fold_ms]
        queries = [ms * job.scale for job in jobs for ms in job.query_ms]
        values = {
            "setup_s": statistics.median(imports) + statistics.median(run["setups"]),
            "job_s": statistics.median(job.seconds * job.scale for job in jobs),
            "cost_ratio": cost_ratio,
            "uplink_bits": float(next(
                (job.uplink_bits for job in jobs if job.completed), 0)),
            "peak_rss_mb": run["rss_kib"] / 1024.0,
            "success_rate": completed / attempted,
            "fold_ms.p50": percentile(folds, 50),
            "fold_ms.p90": percentile(folds, 90),
            "query_ms.p50": percentile(queries, 50),
        }
        units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
        record.update(import_s=imports, setup_s=run["setups"],
                      job_s=[job.seconds for job in jobs],
                      scale=[job.scale for job in jobs],
                      probe_s=speed.samples,
                      fold_ms=[job.fold_ms for job in jobs],
                      query_ms=[job.query_ms for job in jobs])
    correct = not problems
    record.update(provenance_end=provenance(ROOT), problems=problems,
                  metrics=values)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1,
                                                     default=str))
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - completed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
