"""E3 — Figure 2: multi-source normalized k-means cost and running time.

The paper plots, for MNIST and NeurIPS partitioned over 10 data sources, the
CDF over Monte-Carlo runs of the normalized k-means cost and the running
time for BKLW and JL+BKLW (Algorithm 4).

Expected shape (paper): both algorithms reach a similar cost (within a few
percent of optimal); JL+BKLW runs faster at the sources because the local
SVD and sampling operate on dimension-reduced shards.
"""

from __future__ import annotations

import numpy as np
import pytest

from bench_helpers import NUM_SOURCES
from bench_helpers import multi_source_factories, print_cdf, print_table, run_once, summarize_result


def _run(runner, d):
    return runner.run_multi_source(multi_source_factories(d), num_sources=NUM_SOURCES)


def _median_source_seconds(result, label):
    """Median over the Monte-Carlo runs: one scheduler stall in one run of
    three moves the mean past the speed bound, not the median."""
    return float(np.median(result.metric_samples(label, "source_seconds")))


@pytest.mark.benchmark(group="fig2")
def test_fig2_mnist(benchmark, mnist_runner, mnist_dataset):
    points, _ = mnist_dataset
    result = run_once(benchmark, lambda: _run(mnist_runner, points.shape[1]))
    print_cdf(
        "Fig. 2(a) MNIST-like: normalized k-means cost",
        {label: result.metric_samples(label, "normalized_cost") for label in result.evaluations},
    )
    print_cdf(
        "Fig. 2(a) MNIST-like: per-source running time (s)",
        {label: result.metric_samples(label, "source_seconds") for label in result.evaluations},
    )
    print_table("Fig. 2(a) MNIST-like: means", summarize_result(result),
                ["normalized_cost", "normalized_communication", "source_seconds"])
    summary = result.summary()
    assert all(s.mean_normalized_cost < 2.0 for s in summary.values())
    # Algorithm 4 must not be slower than BKLW (it runs the same protocol on
    # smaller matrices).
    assert _median_source_seconds(result, "JL+BKLW (Alg4)") <= (
        _median_source_seconds(result, "BKLW") * 1.25
    )


@pytest.mark.benchmark(group="fig2")
def test_fig2_neurips(benchmark, neurips_runner, neurips_dataset):
    points, _ = neurips_dataset
    result = run_once(benchmark, lambda: _run(neurips_runner, points.shape[1]))
    print_cdf(
        "Fig. 2(b) NeurIPS-like: normalized k-means cost",
        {label: result.metric_samples(label, "normalized_cost") for label in result.evaluations},
    )
    print_cdf(
        "Fig. 2(b) NeurIPS-like: per-source running time (s)",
        {label: result.metric_samples(label, "source_seconds") for label in result.evaluations},
    )
    print_table("Fig. 2(b) NeurIPS-like: means", summarize_result(result),
                ["normalized_cost", "normalized_communication", "source_seconds"])
    summary = result.summary()
    assert all(s.mean_normalized_cost < 2.5 for s in summary.values())
    assert _median_source_seconds(result, "JL+BKLW (Alg4)") <= (
        _median_source_seconds(result, "BKLW") * 1.25
    )
