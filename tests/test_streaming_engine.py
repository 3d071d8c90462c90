"""Tests for repro.core.streaming — the streaming execution engine."""

import sys

import numpy as np
import pytest

from repro.core import registry
from repro.core.streaming import StreamingEngine, StreamingReport
from repro.datasets import make_drifting_stream, make_gaussian_mixture
from repro.stages.cr import FSSStage, SensitivityStage, UniformStage
from repro.stages.dr import JLStage, PCAStage
from repro.stages.qt import QuantizeStage
from repro.topology.router import TopologyRouter


@pytest.fixture(scope="module")
def mixture():
    points, _, centers = make_gaussian_mixture(n=4000, d=20, k=3, seed=5)
    return points, centers


def make_engine(stages, **kwargs):
    defaults = dict(k=3, batch_size=400, seed=11)
    defaults.update(kwargs)
    return StreamingEngine(stages, **defaults)


class TestEngineBasics:
    def test_report_contract(self, mixture):
        points, _ = mixture
        engine = make_engine([FSSStage(size=80)], query_every=3)
        report = engine.run([points[:2000], points[2000:]])
        assert isinstance(report, StreamingReport)
        assert report.centers.shape == (3, 20)
        assert report.communication_scalars > 0
        assert report.communication_bits == report.communication_scalars * 64
        assert report.summary_cardinality > 0
        assert report.summary_dimension == 20
        assert report.source_seconds > 0
        assert report.details["num_sources"] == 2
        assert report.details["num_batches"] == 10  # 2 sources x 5 batches

    def test_queries_scheduled_and_final(self, mixture):
        points, _ = mixture
        engine = make_engine([UniformStage(60)], query_every=2)
        report = engine.run([points])  # 10 batches of 400
        times = [q.time for q in report.queries]
        assert times == [1, 3, 5, 7, 9]
        # Cumulative accounting is monotone along the stream.
        bits = [q.bits for q in report.queries]
        assert bits == sorted(bits)

    def test_streaming_is_deterministic(self, mixture):
        points, _ = mixture
        reports = [
            make_engine([FSSStage(size=60)], seed=123).run([points[:2000]])
            for _ in range(2)
        ]
        np.testing.assert_array_equal(reports[0].centers, reports[1].centers)
        assert reports[0].communication_bits == reports[1].communication_bits

    def test_requires_cr_stage(self, mixture):
        points, _ = mixture
        engine = make_engine([JLStage(8)])
        with pytest.raises(ValueError, match="CR stage"):
            engine.run([points[:800]])

    def test_empty_shards_rejected(self):
        engine = make_engine([UniformStage(10)])
        with pytest.raises(ValueError):
            engine.run([])


class TestDimensionHandling:
    def test_jl_lift_returns_to_ambient_space(self, mixture):
        points, _ = mixture
        engine = make_engine([JLStage(8), SensitivityStage(60)])
        report = engine.run([points[:2000], points[2000:]])
        assert report.centers.shape == (3, 20)
        assert report.summary_dimension == 8

    def test_derived_jl_dimension_pinned_across_short_batches(self, mixture):
        points, _ = mixture
        # 2100 rows / 400 = 6 batches, the last only 100 rows: a per-batch
        # derived JL dimension would differ for it and break merging.
        engine = make_engine([JLStage(), SensitivityStage(50)])
        report = engine.run([points[:2100]])
        assert report.centers.shape == (3, 20)

    def test_pca_stage_composes(self, mixture):
        points, _ = mixture
        engine = make_engine([PCAStage(6), SensitivityStage(50)])
        report = engine.run([points[:1600]])
        assert report.centers.shape == (3, 20)
        assert report.details["coreset_size"] if "coreset_size" in report.details else True


class TestQuantization:
    def test_stage_level_quantizer_reported_and_cheaper(self, mixture):
        points, _ = mixture
        plain = make_engine([UniformStage(60)]).run([points[:2000]])
        quantized = make_engine([UniformStage(60), QuantizeStage(8)]).run([points[:2000]])
        assert quantized.quantizer_bits == 8
        assert quantized.communication_scalars == plain.communication_scalars
        assert quantized.communication_bits < plain.communication_bits

    def test_engine_level_quantizer_sugar(self, mixture):
        from repro.quantization.rounding import RoundingQuantizer

        points, _ = mixture
        report = make_engine(
            [UniformStage(60)], quantizer=RoundingQuantizer(10)
        ).run([points[:1200]])
        assert report.quantizer_bits == 10


class TestSlidingWindow:
    def test_windowed_communication_drops_expired_batches(self, mixture):
        points, _ = mixture
        engine = make_engine([UniformStage(50)], window=3)
        report = engine.run([points])  # 10 batches, window of 3
        assert report.communication_bits < report.details["cumulative_bits"]
        assert report.communication_scalars < report.details["cumulative_scalars"]

    def test_window_follows_drift(self):
        # Clusters drift far over the stream; the windowed query must track
        # the recent batches, the unwindowed one averages the whole prefix.
        batches, final_centers = make_drifting_stream(
            num_batches=16, batch_size=250, d=8, k=1, drift=4.0, seed=9
        )
        windowed = StreamingEngine(
            [UniformStage(80)], k=1, batch_size=250, window=2, seed=3
        ).run_streams([batches])
        unwindowed = StreamingEngine(
            [UniformStage(80)], k=1, batch_size=250, seed=3
        ).run_streams([batches])
        drift_error_windowed = np.linalg.norm(windowed.centers - final_centers)
        drift_error_full = np.linalg.norm(unwindowed.centers - final_centers)
        assert drift_error_windowed < drift_error_full

    def test_exhausted_source_still_expires(self):
        # A source whose stream ended early must keep aging: once its data
        # leaves the window it must leave the server view and the query cost
        # even though the source ingests nothing anymore.
        rng = np.random.default_rng(0)
        long_batches = [rng.standard_normal((200, 4)) + 50.0 for _ in range(12)]
        short_batches = [rng.standard_normal((200, 4)) - 50.0 for _ in range(2)]
        engine = StreamingEngine(
            [UniformStage(50)], k=1, batch_size=200, window=3, seed=1
        )
        report = engine.run_streams([long_batches, short_batches])
        assert np.allclose(report.centers, 50.0, atol=2.0)

    def test_window_of_one_streams_without_crash(self, mixture):
        # Regression: the end-of-stream pass must not advance window expiry
        # past the last real batch step — with window=1 that used to empty
        # the server before the mandatory final query.
        points, _ = mixture
        engine = make_engine([UniformStage(40)], window=1)
        report = engine.run([points[:1600]])
        assert report.centers.shape == (3, 20)
        assert report.queries[-1].summary_cardinality > 0

    def test_final_query_matches_in_loop_query_at_same_step(self, mixture):
        # Regression: a query_every query landing on the last step and the
        # forced end-of-stream query must see the same windowed summary.
        points, _ = mixture
        engine = make_engine([UniformStage(50)], window=2, query_every=3)
        report = engine.run([points[:1200]])  # 3 batches; query at t=2 = last
        assert [q.time for q in report.queries] == [2]
        assert report.queries[-1].live_buckets == 2
        assert report.queries[-1].summary_cardinality == 100

    def test_expired_buckets_leave_server_and_trees(self, mixture):
        points, _ = mixture
        engine = make_engine([UniformStage(40)], window=2, query_every=1)
        report = engine.run([points[:2400]])  # 6 batches
        final = report.queries[-1]
        # At most the window's worth of buckets stays live per source.
        assert final.live_buckets <= 2
        assert report.details["live_buckets"] <= 2


def ledger_lines_per_query(monkeypatch, steps, window):
    """Python lines the uplink ledger runs per query, over a stream of
    ``steps`` batches queried after every step.  A deterministic count (no
    clock): a walk over the per-step ledger runs at least one line per entry
    it touches."""
    original = TopologyRouter.windowed_uplink
    lines = calls = 0

    def count_lines(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count_lines

    def counted(self, t):
        nonlocal calls
        calls += 1
        previous = sys.gettrace()
        sys.settrace(count_lines)
        try:
            return original(self, t)
        finally:
            sys.settrace(previous)

    monkeypatch.setattr(TopologyRouter, "windowed_uplink", counted)
    rng = np.random.default_rng(0)
    engine = StreamingEngine(
        [UniformStage(2)], k=1, batch_size=2, window=window, query_every=1,
        server_n_init=1, server_max_iterations=2, seed=1,
    )
    report = engine.run_streams([[rng.random((2, 2)) for _ in range(steps)]])
    monkeypatch.undo()
    assert calls == len(report.queries) == steps
    return lines / calls


class TestLedgerComplexity:
    """A stream that queries every step must not be quadratic in its length:
    each query reads the windowed uplink totals in O(1) amortized."""

    @pytest.mark.parametrize("window", [None, 4])
    def test_ledger_work_per_query_does_not_grow_with_the_stream(
        self, monkeypatch, window
    ):
        short = ledger_lines_per_query(monkeypatch, 24, window)
        long = ledger_lines_per_query(monkeypatch, 8 * 24, window)
        # A walk over every step would read ~8x the entries per query.
        assert long <= 1.5 * short, (short, long)


class TestRegistryIntegration:
    def test_streaming_specs_registered(self):
        names = registry.registered_names(streaming=True)
        assert {"stream-fss", "stream-jl-ss", "stream-uniform-qt"} <= set(names)
        for name in names:
            assert registry.is_streaming(name)
            assert registry.is_multi_source(name)

    def test_create_pipeline_filters_streaming_kwargs(self, mixture):
        points, _ = mixture
        merged = dict(k=3, coreset_size=50, jl_dimension=8, batch_size=500,
                      total_samples=999, seed=2)
        # total_samples is multi-source-only: passed as is, it is refused;
        # the caller filters a merged config through accepted_kwargs.
        with pytest.raises(TypeError, match="total_samples"):
            registry.create_pipeline("stream-jl-ss", **merged)
        accepted = registry.accepted_kwargs("stream-jl-ss")
        engine = registry.create_pipeline(
            "stream-jl-ss",
            **{key: value for key, value in merged.items() if key in accepted},
        )
        assert isinstance(engine, StreamingEngine)
        report = engine.run([points[:1500]])
        assert report.summary_dimension == 8

    def test_window_default_of_windowed_spec(self):
        engine = registry.create_pipeline("stream-fss-window", k=2, seed=0)
        assert engine.window == 8
        # A row default yields to the caller, and stays on its own row.
        assert registry.create_pipeline("stream-fss-window", k=2, window=3).window == 3
        assert registry.create_pipeline("stream-fss", k=2).window is None

    def test_run_registered_accepts_streaming(self, mixture):
        from repro.metrics import ExperimentRunner

        points, _ = mixture
        runner = ExperimentRunner(points[:1500], k=3, monte_carlo_runs=1, seed=4)
        result = runner.run_registered(
            ["stream-uniform-qt"], num_sources=2, coreset_size=40, batch_size=300
        )
        (evaluation,) = result.evaluations["stream-uniform-qt"]
        assert evaluation.normalized_cost > 0
        assert evaluation.communication_bits > 0
