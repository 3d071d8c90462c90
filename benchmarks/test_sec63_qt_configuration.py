"""E10 — Section 6.3: configuring joint DR, CR, and QT.

The paper's configuration problem (21): given a bound Y0 on the acceptable
approximation error, choose the DR/CR error parameters and the quantizer
precision that minimize the predicted communication cost.  This benchmark
sweeps Y0, prints the chosen configuration for each bound, and verifies the
qualitative behaviour the paper describes: tighter error budgets force more
significant bits (and hence more communication), and the empirical error of
the configured pipeline respects the budget's ordering.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest

from bench_helpers import print_series, run_once
from repro.core.configuration import configure_joint_reduction, estimate_optimal_cost_lower_bound
from repro.core.registry import JLFSSJLPipeline
from repro.kmeans.cost import kmeans_cost
from repro.metrics import EvaluationContext
from repro.quantization.rounding import RoundingQuantizer

ERROR_BOUNDS = (1.2, 1.5, 2.0, 3.0)


def _configure_and_run(points):
    n, d = points.shape
    context = EvaluationContext.build(points, k=2, n_init=5, seed=0)
    lower_bound = estimate_optimal_cost_lower_bound(points, 2, seed=1)
    max_norm = float(np.max(np.linalg.norm(points, axis=1)))
    diameter = 2.0 * max_norm

    chosen_bits: List[float] = []
    predicted_comm: List[float] = []
    empirical_cost: List[float] = []
    for bound in ERROR_BOUNDS:
        config = configure_joint_reduction(
            n=n, d=d, k=2, error_bound=bound,
            optimal_cost_lower_bound=lower_bound,
            max_norm=max_norm, diameter=diameter,
            use_paper_constants=False,
            coreset_cardinality=300, coreset_dimension=48,
        )
        pipeline = JLFSSJLPipeline(
            k=2, seed=7, coreset_size=300, jl_dimension=48,
            quantizer=RoundingQuantizer(config.significant_bits),
        )
        report = pipeline.run(points)
        chosen_bits.append(float(config.significant_bits))
        predicted_comm.append(config.predicted_communication)
        empirical_cost.append(kmeans_cost(points, report.centers) / context.reference_cost)
    return chosen_bits, predicted_comm, empirical_cost


@pytest.mark.benchmark(group="sec63")
def test_sec63_configuration_sweep(benchmark, mnist_dataset):
    points, _ = mnist_dataset
    chosen_bits, predicted_comm, empirical_cost = run_once(
        benchmark, lambda: _configure_and_run(points)
    )
    print_series(
        "Section 6.3: configuration chosen per error budget Y0",
        "Y0",
        ERROR_BOUNDS,
        {
            "significant bits s": chosen_bits,
            "predicted comm (bits)": predicted_comm,
            "empirical normalized cost": empirical_cost,
        },
    )
    # Tighter budgets never use fewer significant bits.
    assert all(b1 >= b2 for b1, b2 in zip(chosen_bits, chosen_bits[1:]))
    # Tighter budgets never predict less communication.
    assert all(c1 >= c2 for c1, c2 in zip(predicted_comm, predicted_comm[1:]))
    # The empirical error of every configured pipeline stays within a modest
    # factor of its (loose, worst-case) budget.
    for bound, cost in zip(ERROR_BOUNDS, empirical_cost):
        assert cost <= bound * 1.5, (bound, cost)
