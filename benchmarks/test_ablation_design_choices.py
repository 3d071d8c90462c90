"""A1 — Ablations of the design choices the paper fixes.

Not a paper table/figure; these benches probe the knobs the paper fixes:

* JL ensemble: Gaussian vs Rademacher (Achlioptas) projections — both are
  valid sub-Gaussian ensembles (Theorem 3.1); quality should match.
* Coreset sampling: sensitivity sampling vs uniform sampling — the paper's
  pipelines assume sensitivity sampling; uniform is cheaper to compute but
  gives worse worst-case cost estimates.
* Coreset size sweep — communication grows linearly, cost improves then
  saturates.
* Data placement: random vs skewed vs by-cluster partitions for BKLW —
  disSS's cost-proportional sample allocation keeps quality stable.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest

from bench_helpers import NUM_SOURCES, print_series, print_table, run_once
from repro.core.registry import BKLWPipeline, JLFSSPipeline
from repro.cr.sensitivity import SensitivitySampler
from repro.cr.uniform import UniformCoreset
from repro.dr.jl import JLProjection
from repro.kmeans.cost import kmeans_cost
from repro.metrics import EvaluationContext


@pytest.mark.benchmark(group="ablation")
def test_ablation_jl_ensemble(benchmark, mnist_dataset):
    points, _ = mnist_dataset
    context = EvaluationContext.build(points, k=2, n_init=5, seed=0)
    d = points.shape[1]

    def _run():
        rows = {}
        for ensemble in ("gaussian", "rademacher"):
            projection = JLProjection(d, d // 2, seed=3, ensemble=ensemble)
            distortion = projection.distortion(points[:500])
            pipeline = JLFSSPipeline(k=2, seed=4, coreset_size=300, pca_rank=20, jl_dimension=d // 2)
            report = pipeline.run(points)
            rows[ensemble] = {
                "norm_distortion": float(distortion),
                "normalized_cost": kmeans_cost(points, report.centers) / context.reference_cost,
            }
        return rows

    rows = run_once(benchmark, _run)
    print_table("Ablation: JL ensemble (Gaussian vs Rademacher)", rows,
                ["norm_distortion", "normalized_cost"])
    costs = [r["normalized_cost"] for r in rows.values()]
    assert max(costs) <= min(costs) * 1.3 + 0.1


@pytest.mark.benchmark(group="ablation")
def test_ablation_sampling_scheme(benchmark, mnist_dataset):
    points, _ = mnist_dataset
    context = EvaluationContext.build(points, k=2, n_init=5, seed=0)

    def _run():
        sizes = (50, 100, 200, 400)
        sens_err: List[float] = []
        unif_err: List[float] = []
        for size in sizes:
            sens = SensitivitySampler(k=2, size=size, seed=5).build(points)
            unif = UniformCoreset(size=size, seed=5)(points)
            sens_err.append(sens.empirical_distortion(points, context.reference_centers))
            unif_err.append(unif.empirical_distortion(points, context.reference_centers))
        return sizes, sens_err, unif_err

    sizes, sens_err, unif_err = run_once(benchmark, _run)
    print_series("Ablation: coreset cost estimation error vs size",
                 "size", sizes,
                 {"sensitivity sampling": sens_err, "uniform sampling": unif_err})
    # Larger coresets estimate the cost better (compare smallest vs largest).
    assert sens_err[-1] <= sens_err[0] + 0.05


@pytest.mark.benchmark(group="ablation")
def test_ablation_coreset_size_tradeoff(benchmark, mnist_dataset):
    points, _ = mnist_dataset
    context = EvaluationContext.build(points, k=2, n_init=5, seed=0)
    n, d = points.shape

    def _run():
        sizes = (50, 150, 400)
        comm: List[float] = []
        cost: List[float] = []
        for size in sizes:
            pipeline = JLFSSPipeline(k=2, seed=6, coreset_size=size, pca_rank=20,
                                     jl_dimension=d // 2)
            report = pipeline.run(points)
            comm.append(report.normalized_communication(n, d))
            cost.append(kmeans_cost(points, report.centers) / context.reference_cost)
        return sizes, comm, cost

    sizes, comm, cost = run_once(benchmark, _run)
    print_series("Ablation: coreset size vs communication and cost",
                 "coreset size", sizes,
                 {"normalized communication": comm, "normalized cost": cost})
    # Communication grows with the coreset size; quality does not degrade.
    assert comm[0] < comm[-1]
    assert cost[-1] <= cost[0] * 1.3 + 0.1


@pytest.mark.benchmark(group="ablation")
def test_ablation_partition_strategy(benchmark, mnist_dataset):
    points, _ = mnist_dataset
    context = EvaluationContext.build(points, k=2, n_init=5, seed=0)

    def _run():
        rows: Dict[str, Dict[str, float]] = {}
        for strategy in ("random", "skewed-size", "by-cluster"):
            pipeline = BKLWPipeline(k=2, seed=7, total_samples=300, pca_rank=20)
            report = pipeline.run_on_dataset(
                points, num_sources=NUM_SOURCES, strategy=strategy, partition_seed=8
            )
            rows[strategy] = {
                "normalized_cost": kmeans_cost(points, report.centers) / context.reference_cost,
                "comm_scalars": float(report.communication_scalars),
            }
        return rows

    rows = run_once(benchmark, _run)
    print_table("Ablation: BKLW under different data placements", rows,
                ["normalized_cost", "comm_scalars"])
    assert all(r["normalized_cost"] < 2.0 for r in rows.values())
