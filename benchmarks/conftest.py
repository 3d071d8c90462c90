"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure from the paper's evaluation
section (Section 7) on the synthetic substitutes of MNIST and NeurIPS (the
:mod:`repro.datasets` docstring gives the substitution rationale).  Dataset
sizes default to laptop-scale values so the full harness finishes in
minutes; set the environment variables ``REPRO_BENCH_SCALE`` /
``REPRO_BENCH_RUNS`` / ``REPRO_BENCH_SOURCES`` to run larger instances (see
bench_helpers.py).

Run with ``pytest benchmarks/ --benchmark-only -s`` to see the printed
tables.

A test run writes its ``BENCH_*.json`` rows to a temporary directory, so
running the suite never rewrites the committed files under
``benchmarks/results/``; set ``REPRO_BENCH_RESULTS_DIR`` to keep the rows
(CI sets it to ``benchmarks/results`` and uploads them).
"""

from __future__ import annotations

import os

import pytest

import bench_helpers
from bench_helpers import K, MONTE_CARLO_RUNS, SCALE
from repro.datasets import make_mnist_like, make_neurips_like
from repro.metrics import ExperimentRunner


@pytest.fixture(scope="session", autouse=True)
def bench_results_dir(tmp_path_factory):
    """Where ``record_bench`` writes: a session temp dir unless
    ``REPRO_BENCH_RESULTS_DIR`` is set."""
    if "REPRO_BENCH_RESULTS_DIR" not in os.environ:
        bench_helpers.RESULTS_DIR = str(tmp_path_factory.mktemp("bench-results"))
    return bench_helpers.RESULTS_DIR


def _scaled(value: int) -> int:
    return max(64, int(value * SCALE))


@pytest.fixture(scope="session")
def mnist_dataset():
    """Laptop-scale stand-in for the MNIST training set (paper: 60000x784)."""
    return make_mnist_like(n=_scaled(2000), d=784, seed=1)


@pytest.fixture(scope="session")
def neurips_dataset():
    """Laptop-scale stand-in for the NeurIPS word counts (paper: 11463x5812)."""
    return make_neurips_like(n=_scaled(1500), d=_scaled(1200), seed=2)


@pytest.fixture(scope="session")
def mnist_runner(mnist_dataset):
    points, _ = mnist_dataset
    return ExperimentRunner(points, k=K, monte_carlo_runs=MONTE_CARLO_RUNS, seed=10)


@pytest.fixture(scope="session")
def neurips_runner(neurips_dataset):
    points, _ = neurips_dataset
    return ExperimentRunner(points, k=K, monte_carlo_runs=MONTE_CARLO_RUNS, seed=11)
