"""Tests for repro.metrics — evaluation context and experiment harness."""

import numpy as np
import pytest

from repro.core.registry import BKLWPipeline, JLFSSPipeline, NoReductionPipeline
from repro.metrics.evaluation import EvaluationContext, evaluate_report
from repro.metrics.experiment import (
    AlgorithmSummary,
    ExperimentResult,
    ExperimentRunner,
    empirical_cdf,
)


@pytest.fixture(scope="module")
def context(high_dim_blobs):
    points, _, _ = high_dim_blobs
    return EvaluationContext.build(points, k=3, n_init=3, seed=0)


class TestEvaluationContext:
    def test_fields(self, context, high_dim_blobs):
        points, _, _ = high_dim_blobs
        assert context.n == points.shape[0]
        assert context.d == points.shape[1]
        assert context.reference_centers.shape == (3, points.shape[1])
        assert context.reference_cost > 0.0

    def test_evaluate_report_normalized_cost_at_least_one_for_reference(self, context):
        report = JLFSSPipeline(k=3, seed=1, coreset_size=150).run(context.points)
        evaluation = evaluate_report(report, context)
        assert evaluation.normalized_cost >= 0.95  # small slack for solver noise
        assert evaluation.normalized_communication < 1.0
        assert evaluation.algorithm == report.algorithm

    def test_nr_evaluation_is_baseline(self, context):
        report = NoReductionPipeline(k=3, seed=2).run(context.points)
        evaluation = evaluate_report(report, context)
        assert evaluation.normalized_communication == pytest.approx(1.0)


class TestEmpiricalCdf:
    def test_monotone_and_bounded(self):
        values, fractions = empirical_cdf(np.array([3.0, 1.0, 2.0]))
        assert np.array_equal(values, [1.0, 2.0, 3.0])
        assert np.array_equal(fractions, [1 / 3, 2 / 3, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf(np.array([]))


class TestExperimentResultAggregation:
    def test_summary_and_table(self, context):
        result = ExperimentResult()
        for seed in range(3):
            report = JLFSSPipeline(k=3, seed=seed, coreset_size=100).run(context.points)
            result.add("JL+FSS", evaluate_report(report, context))
        summary = result.summary()["JL+FSS"]
        assert isinstance(summary, AlgorithmSummary)
        assert summary.runs == 3
        assert summary.mean_normalized_cost >= 0.9
        table = result.table("normalized_communication")
        assert "JL+FSS" in table

    def test_metric_samples_missing_label(self):
        result = ExperimentResult()
        with pytest.raises(KeyError):
            result.metric_samples("nope", "normalized_cost")

    def test_missing_label_error_lists_available(self, context):
        result = ExperimentResult()
        report = JLFSSPipeline(k=3, seed=0, coreset_size=100).run(context.points)
        result.add("JL+FSS", evaluate_report(report, context))
        with pytest.raises(KeyError, match="JL\\+FSS"):
            result.metric_samples("nope", "normalized_cost")

    def test_unknown_metric_error_lists_available(self, context):
        # A typo used to surface as a bare AttributeError from getattr;
        # now it's a KeyError naming the valid metric fields.
        result = ExperimentResult()
        report = JLFSSPipeline(k=3, seed=0, coreset_size=100).run(context.points)
        result.add("JL+FSS", evaluate_report(report, context))
        with pytest.raises(KeyError, match="normalized_cost"):
            result.metric_samples("JL+FSS", "normalised_cost")
        with pytest.raises(KeyError, match="normalized_communication"):
            result.table("bits")


class TestExperimentRunner:
    def test_single_source_runs(self, high_dim_blobs):
        points, _, _ = high_dim_blobs
        runner = ExperimentRunner(points, k=3, monte_carlo_runs=2, seed=0, reference_n_init=3)
        result = runner.run_single_source({
            "JL+FSS": lambda seed: JLFSSPipeline(k=3, seed=seed, coreset_size=100),
        })
        samples = result.metric_samples("JL+FSS", "normalized_cost")
        assert samples.shape == (2,)
        assert np.all(samples > 0)

    def test_multi_source_runs(self, high_dim_blobs):
        points, _, _ = high_dim_blobs
        runner = ExperimentRunner(points, k=3, monte_carlo_runs=2, seed=1, reference_n_init=3)
        result = runner.run_multi_source(
            {"BKLW": lambda seed: BKLWPipeline(k=3, seed=seed, total_samples=60, pca_rank=6)},
            num_sources=3,
        )
        assert result.metric_samples("BKLW", "normalized_cost").shape == (2,)

    def test_type_mismatch_detected(self, high_dim_blobs):
        points, _, _ = high_dim_blobs
        runner = ExperimentRunner(points, k=3, monte_carlo_runs=1, seed=2, reference_n_init=2)
        with pytest.raises(TypeError):
            runner.run_single_source({
                "BKLW": lambda seed: BKLWPipeline(k=3, seed=seed, total_samples=50),
            })
        with pytest.raises(TypeError):
            runner.run_multi_source({
                "JL+FSS": lambda seed: JLFSSPipeline(k=3, seed=seed),
            }, num_sources=2)
