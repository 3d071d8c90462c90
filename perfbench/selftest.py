"""Self-test of the benchmark at toy sizes (about a minute).

    python3 perfbench/selftest.py

For every workload it runs the benchmark twice plainly and twice traced,
with the same seed and ``--size toy``, and checks that

1. every metric named in BENCHMARK.json is printed with its unit, and the
   outputs pass the benchmark's own checks;
2. the two runs agree exactly on ``uplink_bits`` and on every per-layer
   count;
3. every traced span has a self time (its duration minus its children's)
   of at least zero, so no span was given a parent it does not nest in;
   the self times of a job's in-process spans sum to no more than the
   job's wall time, and so do those of the serve daemon's spans of that
   session, which come from another process.

The file is not named ``test_*.py`` so that the repository's test collection
never picks up a benchmark run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
#: Float rounding allowed in a self time computed from perf_counter stamps.
EPSILON = 1e-9
#: Counts that legitimately differ between runs: a daemon snapshot records
#: the server's measured compute seconds, so its size moves by a few bytes.
UNREPEATABLE = {"serve.snapshot.bytes"}


def spans_of(workload: str) -> list:
    """The span rows a traced run wrote, as dicts."""
    with open(ROOT / ".perfbench" / f"spans-{workload}-seed{SEED}.jsonl",
              encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        return [dict(zip(header, json.loads(line))) for line in handle]


def run(workload: str, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace),
               "--size", "toy"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench" /
                         f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    spans = spans_of(workload) if trace else []
    return {"result": result, "record": record, "spans": spans}


def check_workload(workload: str, wanted: dict) -> list:
    problems = []
    runs = {trace: [run(workload, trace), run(workload, trace)]
            for trace in (0, 1)}
    for trace, pair in runs.items():
        for attempt in pair:
            result = attempt["result"]
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != wanted[trace]:
                problems.append(f"{workload} trace={trace}: printed metrics "
                                "differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: outputs failed "
                                f"their checks: {attempt['record']['problems']}")
    first, second = (r["result"]["metrics"] for r in runs[0])
    if first["uplink_bits"] != second["uplink_bits"]:
        problems.append(f"{workload}: uplink_bits differ between two runs")
    first, second = (r["result"]["metrics"] for r in runs[1])
    for name, unit in wanted[1].items():
        if (unit in ("count", "bits", "bytes") and name not in UNREPEATABLE
                and first[name] != second[name]):
            problems.append(f"{workload}: {name} {first[name]['value']} != "
                            f"{second[name]['value']} between two runs")
    for attempt in runs[1]:
        for job in attempt["record"]["per_job"]:
            for key in ("self_s", "daemon_self_s"):
                if job[key] > job["wall_s"]:
                    problems.append(f"{workload}: traced {key} {job[key]} "
                                    f"exceeds the job's wall {job['wall_s']}")
        for span in attempt["spans"]:
            self_time = span["end"] - span["start"] - span["child"]
            if self_time < -EPSILON:
                problems.append(f"{workload}: span {span['name']} has self "
                                f"time {self_time}")
                break
    print(f"{workload}: checked", flush=True)
    return problems


def main() -> int:
    problems = []
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
              1: {m["name"]: m["unit"] for m in benchmark["per_layer"]}}
    names = [w["name"] for w in benchmark["workloads"]]
    # Workloads in parallel (toy inputs are small); each one's runs in order,
    # since a run's record file is named by workload, seed and trace flag.
    with ThreadPoolExecutor(max_workers=len(names)) as pool:
        for found in pool.map(lambda name: check_workload(name, wanted), names):
            problems.extend(found)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
