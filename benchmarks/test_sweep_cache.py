"""Benchmark: content-addressed stage caching across sweep re-runs.

Two cold/warm pairs, both recorded as rows in ``BENCH_sweep.json``
(uploaded as a CI artifact so the trajectory is comparable across PRs):

* the paper-style quantization sweep (examples/specs/
  quantization_sweep.toml — 8 cells over quantize_bits × network) run
  cold and then warm against one stage cache, three times over: every
  warm pass must replay all the cold pass's stage work from cache, and
  the best warm pass must be strictly faster than the best cold one;
* a larger multi-axis sweep whose source-side stage work (full-dimension
  FSS on 4000×256) dominates the uncached floor (server solves +
  evaluations): the warm pass must show a ≥2× wall-time reduction.
"""

from __future__ import annotations

import time
from pathlib import Path

from bench_helpers import record_bench
from repro import api

SWEEP_SPEC = (
    Path(__file__).resolve().parent.parent
    / "examples" / "specs" / "quantization_sweep.toml"
)


def _timed_sweep(sweep, cache_dir):
    """One sweep pass against a fresh StageCache handle (no memory-layer
    carry-over between passes; only the on-disk entries persist)."""
    cache = api.StageCache(cache_dir)
    start = time.perf_counter()
    outcomes = api.run_sweep(sweep, cache=cache)
    return outcomes, time.perf_counter() - start, cache.counters


def _row(outcomes, wall_seconds, counters):
    mean_cost = sum(o.summary.mean_normalized_cost for o in outcomes) / len(outcomes)
    return {
        "cells": float(len(outcomes)),
        "wall_seconds": float(wall_seconds),
        "cache_hits": float(counters.hits),
        "cache_misses": float(counters.misses),
        "cache_hit_rate": float(counters.hit_rate),
        "mean_normalized_cost": float(mean_cost),
    }


def _assert_bit_parity(cold, warm):
    assert [o.cell_id for o in warm] == [o.cell_id for o in cold]
    for a, b in zip(cold, warm):
        assert a.summary.mean_normalized_cost == b.summary.mean_normalized_cost
        assert a.summary.mean_normalized_communication == \
            b.summary.mean_normalized_communication
        assert a.run_seeds == b.run_seeds


def test_example_quantization_sweep_warm_rerun(tmp_path):
    """The CI contract: re-running the example sweep replays every stage
    from cache, and is faster.

    The cache counters are the signal noise cannot flip: a warm pass
    misses nothing and hits every lookup the cold pass made.  The timing
    compares the best of three cold passes, each on a fresh cache
    directory, with the best of three warm passes, each right after its
    cold pass, so one descheduled pass cannot decide it.
    """
    sweep = api.load_spec(SWEEP_SPEC)
    assert isinstance(sweep, api.SweepSpec)

    colds, warms = [], []
    for attempt in range(3):
        cache_dir = tmp_path / f"stage_cache_{attempt}"
        colds.append(_timed_sweep(sweep, cache_dir))
        warms.append(_timed_sweep(sweep, cache_dir))
    cold, _, cold_counters = colds[0]
    warm, _, warm_counters = warms[0]
    cold_seconds = min(seconds for _, seconds, _ in colds)
    warm_seconds = min(seconds for _, seconds, _ in warms)

    print(f"\n{SWEEP_SPEC.name}: {len(cold)} cells, best of {len(colds)} passes")
    print(f"cold: {cold_seconds:.3f}s, {cold_counters.hits} hit(s), "
          f"{cold_counters.misses} miss(es)")
    print(f"warm: {warm_seconds:.3f}s, {warm_counters.hits} hit(s), "
          f"{warm_counters.misses} miss(es) "
          f"({cold_seconds / warm_seconds:.1f}x speedup)")
    record_bench("sweep", {
        "quantization_sweep_cold": _row(cold, cold_seconds, cold_counters),
        "quantization_sweep_warm": _row(warm, warm_seconds, warm_counters),
    })

    lookups = cold_counters.hits + cold_counters.misses
    for outcomes, _, counters in colds:
        _assert_bit_parity(cold, outcomes)
        assert (counters.hits, counters.misses) == (
            cold_counters.hits, cold_counters.misses)
    for outcomes, _, counters in warms:
        _assert_bit_parity(cold, outcomes)
        assert counters.misses == 0
        assert counters.hits == lookups
    assert warm_counters.hit_rate > 0.5
    assert warm_seconds < cold_seconds


def test_multi_axis_sweep_speedup(tmp_path):
    """The acceptance bar: a multi-axis sweep re-runs at least 2x faster
    warm, because the expensive distinct work — full-dimension FSS per
    Monte-Carlo run plus the shared reference solve — replays from cache
    and only the uncached floor (server solves, evaluations) remains."""
    base = api.ExperimentSpec(
        pipeline=api.PipelineConfig(algorithm="fss", k=2,
                                    coreset_size=150, pca_rank=20),
        data=api.DataSpec(name="mnist", n=4000, d=256),
        runs=3,
        seed=11,
    )
    sweep = api.SweepSpec(base=base, axes={
        "quantize_bits": [6, 10, 14],
        "net": ["ideal", "lossy"],
    })
    cache_dir = tmp_path / "stage_cache"

    cold, cold_seconds, cold_counters = _timed_sweep(sweep, cache_dir)
    warm, warm_seconds, warm_counters = _timed_sweep(sweep, cache_dir)

    print(f"\nmulti-axis fss sweep: {len(cold)} cells")
    print(f"cold: {cold_seconds:.3f}s, {cold_counters.misses} distinct "
          f"computation(s)")
    print(f"warm: {warm_seconds:.3f}s "
          f"({cold_seconds / warm_seconds:.1f}x speedup)")
    record_bench("sweep", {
        "multi_axis_cold": _row(cold, cold_seconds, cold_counters),
        "multi_axis_warm": _row(warm, warm_seconds, warm_counters),
    })

    _assert_bit_parity(cold, warm)
    assert warm_counters.misses == 0
    assert cold_seconds / warm_seconds >= 2.0


def _crash_then_resume(sweep, cache_dir, path):
    """Crash a durable sweep at its 5th record commit (a simulated kill),
    then time the resume pass against a fresh StageCache handle.

    Returns the resume outcomes, its wall time, its cache counters, and the
    store's record counts before and after it.
    """
    from repro.utils import faultpoints

    crashed = api.ResultStore(path)
    try:
        faultpoints.arm("store.append", at=5)
        try:
            api.run_sweep(sweep, cache=api.StageCache(cache_dir), store=crashed)
        except faultpoints.FaultInjected:
            pass
    finally:
        faultpoints.disarm()
    committed = len(crashed.load())
    cache = api.StageCache(cache_dir)
    start = time.perf_counter()
    resumed = api.run_sweep(sweep, cache=cache, store=crashed, resume=True)
    seconds = time.perf_counter() - start
    return resumed, seconds, cache.counters, committed, len(crashed.load())


def test_resume_overhead(tmp_path):
    """Crash-tolerance must be close to free: a durable sweep (fsynced
    store + journal) is compared against a plain one, and a post-crash
    ``resume`` pass — which restores the committed prefix from disk and
    executes only the missing cells — against a full re-run.  All three
    land as rows in BENCH_sweep.json.

    The counts are the signal noise cannot flip: a resume appends exactly
    the records the crash left uncommitted, and its stage cache hits every
    lookup it makes, fewer than a full pass makes, because the restored
    cells are read from disk, not executed.  The timing compares the best
    of three durable passes, each on a fresh store, with the best of three
    resume passes, each on a freshly crashed store.
    """
    sweep = api.load_spec(SWEEP_SPEC)
    cache_dir = tmp_path / "stage_cache"

    plain, plain_seconds, _ = _timed_sweep(sweep, cache_dir)

    durables, resumes = [], []
    for attempt in range(3):
        store = api.ResultStore(tmp_path / f"durable_{attempt}.jsonl")
        cache = api.StageCache(cache_dir)
        start = time.perf_counter()
        durable = api.run_sweep(sweep, cache=cache, store=store)
        durables.append((durable, time.perf_counter() - start, cache.counters))
        resumes.append(_crash_then_resume(
            sweep, cache_dir, tmp_path / f"crashed_{attempt}.jsonl"))
    durable_seconds = min(seconds for _, seconds, _ in durables)
    resume_seconds = min(seconds for _, seconds, _, _, _ in resumes)

    full_lookups = durables[0][2].hits + durables[0][2].misses
    for durable, _, counters in durables:
        _assert_bit_parity(plain, durable)
        assert (counters.hits, counters.misses) == (full_lookups, 0)
    for resumed, _, counters, committed, records in resumes:
        restored = sum(1 for o in resumed if isinstance(o, api.RestoredOutcome))
        assert restored == committed == 4
        assert records - committed == len(plain) - committed  # appended 4
        assert counters.misses == 0
        assert 0 < counters.hits < full_lookups
    resumed, _, resume_counters, committed, _ = resumes[0]

    print(f"\nresume overhead over {SWEEP_SPEC.name}, best of {len(resumes)}:")
    print(f"plain:   {plain_seconds:.3f}s (no store)")
    print(f"durable: {durable_seconds:.3f}s (fsynced store + journal, "
          f"{durable_seconds / plain_seconds:.2f}x plain, "
          f"{full_lookups} cache lookups)")
    print(f"resume:  {resume_seconds:.3f}s ({committed}/{len(resumed)} cells "
          f"restored, {resume_counters.hits} cache lookups, "
          f"{resume_seconds / durable_seconds:.2f}x a full durable run)")
    record_bench("sweep", {
        "resume_plain": {"cells": float(len(plain)),
                         "wall_seconds": float(plain_seconds)},
        "resume_durable": {"cells": float(len(plain)),
                           "wall_seconds": float(durable_seconds)},
        "resume_after_crash": {"cells": float(len(resumed)),
                               "cells_restored": float(committed),
                               "wall_seconds": float(resume_seconds)},
    })

    # A resume that re-runs half the grid must beat a full durable re-run
    # (the restored half costs a disk read, not an execution).
    assert resume_seconds < durable_seconds * 1.5
