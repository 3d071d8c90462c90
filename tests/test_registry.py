"""Tests for the pipeline registry and the registered novel compositions."""

import numpy as np
import pytest

from repro.core import registry
from repro.core.engine import DistributedStagePipeline, StagePipeline
from repro.core.pipelines import NoReductionPipeline
from repro.cli import build_run_parser, run_spec
from repro.metrics import ExperimentRunner

SEED_ALGORITHMS = {
    "nr", "fss", "jl-fss", "fss-jl", "jl-fss-jl",
    "nr-distributed", "bklw", "jl-bklw",
}


class TestRegistry:
    def test_all_seed_algorithms_registered(self):
        assert SEED_ALGORITHMS <= set(registry.registered_names())

    def test_at_least_three_novel_compositions(self):
        novel = [spec for spec in registry.registered_specs() if spec.novel]
        assert len(novel) >= 3

    def test_multi_source_flags(self):
        assert registry.is_multi_source("bklw")
        assert not registry.is_multi_source("jl-fss")

    def test_create_builds_fresh_instances(self):
        first = registry.create_pipeline("nr", k=2, seed=0)
        second = registry.create_pipeline("nr", k=2, seed=0)
        assert isinstance(first, NoReductionPipeline)
        assert first is not second

    def test_create_filters_foreign_kwargs(self):
        # A merged experiment config passes both kinds' arguments; each
        # factory receives only what it accepts (strict=False opts into
        # lenient filtering without the deprecation warning).
        pipeline = registry.create_pipeline(
            "bklw", strict=False, k=2, seed=0, coreset_size=50,
            total_samples=40, second_jl_dimension=5,
        )
        assert pipeline.total_samples == 40

    def test_create_strict_rejects_unknown_kwargs(self):
        # The silent-kwarg-drop footgun: a typo like jl_dim=20 used to run
        # the wrong experiment without a warning.  strict=True names the
        # unknown keys and the accepted set for the kind.
        with pytest.raises(TypeError) as excinfo:
            registry.create_pipeline("jl-fss", k=2, jl_dim=20, strict=True)
        message = str(excinfo.value)
        assert "jl_dim" in message
        assert "jl_dimension" in message  # the accepted set is listed
        assert "single-source" in message

    def test_create_strict_by_default(self):
        # The PR-5 deprecation completed: unknown kwargs raise without an
        # explicit strict=True, and the error points at the opt-out.
        with pytest.raises(TypeError, match="jl_dim") as excinfo:
            registry.create_pipeline("jl-fss", k=2, jl_dim=20)
        assert "strict=False" in str(excinfo.value)

    def test_accepted_kwargs_and_kind(self):
        assert registry.factory_kind("fss") == "single-source"
        assert registry.factory_kind("bklw") == "multi-source"
        assert registry.factory_kind("stream-fss") == "streaming"
        assert "total_samples" in registry.accepted_kwargs("bklw")
        assert "total_samples" not in registry.accepted_kwargs("fss")
        assert "batch_size" in registry.accepted_kwargs("stream-fss")

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="jl-fss"):
            registry.get_spec("quantum-kmeans")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            registry.register_pipeline("nr", NoReductionPipeline)

    def test_registered_names_filter(self):
        multi = registry.registered_names(multi_source=True)
        single = registry.registered_names(multi_source=False)
        assert "bklw" in multi and "bklw" not in single
        assert "jl-fss" in single and "jl-fss" not in multi

    def test_make_stage_pipeline_dispatch(self):
        assert isinstance(registry.make_stage_pipeline([], k=2), StagePipeline)
        assert isinstance(
            registry.make_stage_pipeline([], k=2, multi_source=True),
            DistributedStagePipeline,
        )


class TestNovelCompositionsSmoke:
    """Every novel composition must be runnable through the CLI."""

    @pytest.mark.parametrize(
        "name", [spec.name for spec in registry.registered_specs() if spec.novel]
    )
    def test_novel_composition_runs_from_cli(self, name):
        args = build_run_parser(flat=True).parse_args([
            "--dataset", "mnist", "--n", "200", "--d", "40",
            "--algorithm", name, "--coreset-size", "50", "--runs", "1",
            "--seed", "3",
        ])
        row = run_spec(args)
        assert row["normalized_cost"] > 0
        if registry.is_streaming(name):
            # On a 200-point toy set the per-batch coresets are as large as
            # the shards, so streaming legitimately ships more than the raw
            # data; compression economics are asserted at realistic scale in
            # tests/test_streaming_quality.py and the benchmarks.
            assert row["normalized_communication"] > 0
        else:
            assert 0 < row["normalized_communication"] < 1

    def test_cli_accepts_every_registered_algorithm(self):
        parser = build_run_parser(flat=True)
        for name in registry.registered_names():
            assert parser.parse_args(["--algorithm", name]).algorithm == name


class TestRunRegistered:
    def test_mixed_single_and_multi(self, high_dim_blobs):
        points, _, _ = high_dim_blobs
        runner = ExperimentRunner(points, k=3, monte_carlo_runs=1, seed=0,
                                  reference_n_init=2)
        result = runner.run_registered(
            ["jl-fss", "jl-uniform", "bklw"],
            num_sources=3,
            coreset_size=60,
            total_samples=60,
            pca_rank=6,
        )
        summary = result.summary()
        assert set(summary) == {"jl-fss", "jl-uniform", "bklw"}
        for row in summary.values():
            assert row.runs == 1
            assert np.isfinite(row.mean_normalized_cost)

    def test_multi_requires_num_sources(self, high_dim_blobs):
        points, _, _ = high_dim_blobs
        runner = ExperimentRunner(points, k=3, monte_carlo_runs=1, seed=0,
                                  reference_n_init=2)
        with pytest.raises(ValueError, match="num_sources"):
            runner.run_registered(["bklw"])

    def test_rejects_overrides_no_kind_accepts(self, high_dim_blobs):
        points, _, _ = high_dim_blobs
        runner = ExperimentRunner(points, k=3, monte_carlo_runs=1, seed=0,
                                  reference_n_init=2)
        with pytest.raises(TypeError, match="jl_dim"):
            runner.run_registered(["jl-fss"], jl_dim=20)

    def test_mixed_config_still_accepted_per_kind(self, high_dim_blobs):
        # coreset_size (single-only) + total_samples (multi-only) in one
        # merged config must not raise: each kind gets its own subset.
        points, _, _ = high_dim_blobs
        runner = ExperimentRunner(points, k=3, monte_carlo_runs=1, seed=0,
                                  reference_n_init=2)
        result = runner.run_registered(
            ["fss", "bklw"], num_sources=3, coreset_size=60,
            total_samples=60, pca_rank=6,
        )
        assert set(result.summary()) == {"fss", "bklw"}
