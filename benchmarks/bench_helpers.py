"""Helpers shared by the benchmark files: pipeline factories tuned to the
paper's experimental regime, and table/series printers.

The parameter choices mirror Section 7.1: the paper tunes the summary sizes
of all algorithms so that they land in a comparable empirical error regime,
then compares communication and running time.  The same tuning philosophy is
applied here at laptop scale.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, Iterable, Optional, Sequence

import numpy as np

from repro.core.registry import (
    BKLWPipeline,
    FSSJLPipeline,
    FSSPipeline,
    JLBKLWPipeline,
    JLFSSJLPipeline,
    JLFSSPipeline,
    NoReductionPipeline,
)
from repro.quantization.rounding import RoundingQuantizer

#: Scale factor for dataset sizes (1.0 = default laptop scale).
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
#: Monte-Carlo repetitions per benchmark (the paper uses 10).
MONTE_CARLO_RUNS = int(os.environ.get("REPRO_BENCH_RUNS", "3"))
#: Number of data sources in the multi-source experiments (paper: 10).
NUM_SOURCES = int(os.environ.get("REPRO_BENCH_SOURCES", "10"))
#: Number of clusters (the paper uses k = 2 throughout Section 7).
K = 2

#: Coreset cardinality shared by all single-source coreset algorithms.
CORESET_SIZE = 300
#: PCA rank (the intrinsic-dimension parameter t of FSS) in the single-source
#: benchmarks.  Chosen large enough that FSS's d x t basis transfer — the term
#: the JL-based pipelines eliminate — is visible at laptop scale, as it is at
#: the paper's scale.
PCA_RANK = 64
#: disPCA rank used by the multi-source benchmarks (each of the m sources
#: ships a d x rank sketch, so a smaller rank keeps BKLW's absolute cost in a
#: realistic range at laptop scale).
DISTRIBUTED_PCA_RANK = 20
#: disSS global sample budget for the multi-source algorithms.
DISTRIBUTED_SAMPLES = 300
#: Dimension of the final (coreset-space) JL projection used by Algorithms 2
#: and 3; this is the d'' of Lemma 4.2 after the paper-style tuning.
CORESET_JL_DIMENSION = 64
#: Grid of significant-bit settings for the quantization sweeps (the paper
#: sweeps s = 1..53; a coarse grid keeps the harness fast while covering the
#: same range and shape).
QT_BITS_GRID = (5, 10, 15, 20, 30, 40, 53)


def jl_dimension_for(d: int) -> int:
    """JL target dimension used by the benchmarks: roughly half the ambient
    dimension, matching the d'/d ratio implied by the paper's settings."""
    return max(32, d // 2)


# ---------------------------------------------------------------------------
# Factories for the single-source algorithms (Fig. 1 / Table 3 / Figs. 3-4).
# ---------------------------------------------------------------------------

def single_source_factories(
    d: int,
    quantizer_bits: Optional[int] = None,
    include_nr: bool = False,
) -> Dict[str, Callable[[int], object]]:
    """Build the labelled pipeline factories for the single-source setting."""
    quantizer = None
    if quantizer_bits is not None and quantizer_bits < 53:
        quantizer = RoundingQuantizer(quantizer_bits)
    common = dict(k=2, coreset_size=CORESET_SIZE, pca_rank=PCA_RANK, quantizer=quantizer)
    jl_dim = jl_dimension_for(d)

    factories: Dict[str, Callable[[int], object]] = {}
    if include_nr:
        factories["NR"] = lambda seed: NoReductionPipeline(k=2, seed=seed, quantizer=quantizer)
    factories["FSS"] = lambda seed: FSSPipeline(seed=seed, **common)
    factories["JL+FSS (Alg1)"] = lambda seed: JLFSSPipeline(
        seed=seed, jl_dimension=jl_dim, **common
    )
    factories["FSS+JL (Alg2)"] = lambda seed: FSSJLPipeline(
        seed=seed, jl_dimension=CORESET_JL_DIMENSION, **common
    )
    factories["JL+FSS+JL (Alg3)"] = lambda seed: JLFSSJLPipeline(
        seed=seed,
        jl_dimension=jl_dim,
        second_jl_dimension=CORESET_JL_DIMENSION,
        **common,
    )
    return factories


# ---------------------------------------------------------------------------
# Factories for the multi-source algorithms (Fig. 2 / Table 4 / Figs. 5-6).
# ---------------------------------------------------------------------------

def multi_source_factories(
    d: int,
    quantizer_bits: Optional[int] = None,
) -> Dict[str, Callable[[int], object]]:
    """Build the labelled pipeline factories for the multi-source setting."""
    quantizer = None
    if quantizer_bits is not None and quantizer_bits < 53:
        quantizer = RoundingQuantizer(quantizer_bits)
    common = dict(
        k=2,
        total_samples=DISTRIBUTED_SAMPLES,
        pca_rank=DISTRIBUTED_PCA_RANK,
        quantizer=quantizer,
    )
    jl_dim = jl_dimension_for(d)
    return {
        "BKLW": lambda seed: BKLWPipeline(seed=seed, **common),
        "JL+BKLW (Alg4)": lambda seed: JLBKLWPipeline(seed=seed, jl_dimension=jl_dim, **common),
    }


# ---------------------------------------------------------------------------
# Printing helpers.
# ---------------------------------------------------------------------------

def print_table(title: str, rows: Dict[str, Dict[str, float]], column_order: Sequence[str]) -> None:
    """Print a dictionary-of-rows table in a fixed column order."""
    print(f"\n=== {title} ===")
    header = f"{'algorithm':<22}" + "".join(f"{c:>24}" for c in column_order)
    print(header)
    for name, metrics in rows.items():
        line = f"{name:<22}"
        for column in column_order:
            value = metrics.get(column, float("nan"))
            line += f"{value:>24.6g}"
        print(line)


def print_series(title: str, x_label: str, xs: Iterable, series: Dict[str, Sequence[float]]) -> None:
    """Print aligned per-algorithm series against a common x axis."""
    print(f"\n=== {title} ===")
    names = list(series)
    print(f"{x_label:<12}" + "".join(f"{n:>24}" for n in names))
    for i, x in enumerate(xs):
        row = f"{x:<12}" + "".join(f"{series[n][i]:>24.6g}" for n in names)
        print(row)


def print_cdf(title: str, samples_by_algorithm: Dict[str, np.ndarray]) -> None:
    """Print the sorted per-run samples that the paper plots as CDFs."""
    print(f"\n=== {title} (per-run samples, sorted — the paper's CDF) ===")
    for name, samples in samples_by_algorithm.items():
        values = ", ".join(f"{v:.4g}" for v in np.sort(np.asarray(samples)))
        print(f"{name:<22} [{values}]")


def summarize_result(result, metrics=("normalized_cost", "normalized_communication", "source_seconds")):
    """Collapse an ExperimentResult into mean-per-metric rows for printing."""
    rows: Dict[str, Dict[str, float]] = {}
    for label in result.evaluations:
        rows[label] = {m: float(np.mean(result.metric_samples(label, m))) for m in metrics}
    return rows


def run_once(benchmark, fn: Callable[[], object]):
    """Run ``fn`` exactly once under pytest-benchmark timing (the experiment
    repeats measurements internally via Monte-Carlo runs)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


# ---------------------------------------------------------------------------
# Machine-readable benchmark persistence (perf trajectory across PRs).
# ---------------------------------------------------------------------------

#: Directory the BENCH_<category>.json files are written to; CI uploads it as
#: an artifact so the perf trajectory is comparable across PRs.  Under
#: pytest, conftest.py points it at a temp dir unless the variable is set.
RESULTS_DIR = os.environ.get(
    "REPRO_BENCH_RESULTS_DIR", os.path.join(os.path.dirname(__file__), "results")
)


def bench_rows(result, wall_seconds: Optional[float] = None) -> Dict[str, Dict[str, float]]:
    """Collapse an ExperimentResult into persistable per-algorithm rows:
    normalized cost, communication in scalars and bits, source compute time,
    and (optionally) the wall-clock time of the whole experiment."""
    rows = summarize_result(
        result,
        metrics=(
            "normalized_cost",
            "normalized_communication",
            "communication_scalars",
            "communication_bits",
            "source_seconds",
        ),
    )
    for label, metrics in rows.items():
        metrics["runs"] = float(len(result.evaluations[label]))
        if wall_seconds is not None:
            metrics["wall_seconds"] = float(wall_seconds)
    return rows


def record_bench(
    category: str,
    rows: Dict[str, Dict[str, float]],
    num_sources: Optional[int] = None,
) -> str:
    """Merge ``rows`` into ``BENCH_<category>.json`` and return its path.

    Several tests contribute to one category file (each merges its own
    algorithm rows); re-running a test overwrites its rows in place.  The
    run configuration (scale, Monte-Carlo runs, sources, timestamp) is
    recorded *per row*, so rows written under different configurations keep
    their own provenance when merged into the same file.

    The ``num_sources`` provenance defaults to the module-level
    :data:`NUM_SOURCES`; pass ``num_sources=`` to override it for the whole
    call, or put a ``num_sources`` key in a row's metrics to pin that row's
    actual source count (scaling curves sweep the count per row).
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"BENCH_{category}.json")
    payload = {"meta": {"category": category}, "algorithms": {}}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                existing = json.load(handle)
            if isinstance(existing.get("algorithms"), dict):
                payload["algorithms"].update(existing["algorithms"])
        except (OSError, ValueError):
            pass  # a corrupt previous file is replaced wholesale
    provenance = {
        "scale": SCALE,
        "monte_carlo_runs": float(MONTE_CARLO_RUNS),
        "num_sources": float(NUM_SOURCES if num_sources is None else num_sources),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    for name, metrics in rows.items():
        # Provenance first, metrics second: a row that reports its own
        # num_sources (a scaling-curve row) keeps it.
        row = dict(provenance)
        row.update({k: float(v) for k, v in metrics.items()})
        payload["algorithms"][name] = row
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp_path, path)
    return path


def record_result(category: str, result, wall_seconds: Optional[float] = None,
                  prefix: str = "") -> str:
    """Persist an ExperimentResult under ``category`` (labels optionally
    prefixed, e.g. with the dataset name)."""
    rows = bench_rows(result, wall_seconds=wall_seconds)
    if prefix:
        rows = {f"{prefix}:{label}": metrics for label, metrics in rows.items()}
    return record_bench(category, rows)


# ---------------------------------------------------------------------------
# Primitive/pipeline perf timing (the BENCH_perf.json trajectory).
# ---------------------------------------------------------------------------

def time_best_of(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock seconds of ``fn()`` (warm caches win)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def record_perf(rows: Dict[str, Dict[str, float]]) -> str:
    """Merge timing rows into ``BENCH_perf.json``.

    Rows are keyed ``<tag>:<subject>`` — ``baseline:fss`` vs ``post:fss`` for
    a before/after pair inside one PR, or plain subjects for the recurring CI
    perf smoke.  Each row carries the usual provenance (scale, timestamp), so
    the file accumulates a comparable perf trajectory across PRs.
    """
    return record_bench("perf", rows)
