"""Tests for the pipeline registry and the registered novel compositions."""

import pickle

import numpy as np
import pytest

import repro
from repro.core import registry
from repro.core.engine import DistributedStagePipeline, StagePipeline
from repro.core.registry import NoReductionPipeline
from repro.core.streaming import StreamingEngine
from repro.distributed.conditions import FaultPlan
from repro.quantization.rounding import RoundingQuantizer
from repro.stages.cr import FSSStage
from repro.stages.distributed import BKLWStage, SharedJLStage
from repro.stages.dr import JLStage
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
        # A merged experiment config passes both kinds' arguments; a foreign
        # key is refused, so the caller hands each kind its own subset.
        merged = dict(k=2, seed=0, coreset_size=50, total_samples=40,
                      second_jl_dimension=5)
        with pytest.raises(TypeError, match="coreset_size"):
            registry.create_pipeline("bklw", **merged)
        accepted = registry.accepted_kwargs("bklw")
        pipeline = registry.create_pipeline(
            "bklw", **{key: value for key, value in merged.items() if key in accepted}
        )
        (stage,) = pipeline.stages
        assert stage.total_samples == 40

    def test_create_strict_rejects_unknown_kwargs(self):
        # The silent-kwarg-drop footgun: a typo like jl_dim=20 used to run
        # the wrong experiment without a warning.  The error names the
        # unknown keys and the accepted set for the kind.
        with pytest.raises(TypeError) as excinfo:
            registry.create_pipeline("jl-fss", k=2, jl_dim=20)
        message = str(excinfo.value)
        assert "jl_dim" in message
        assert "jl_dimension" in message  # the accepted set is listed
        assert "single-source" in message

    def test_create_strict_by_default(self):
        # There is no lenient mode: ``strict`` is itself an unknown keyword.
        with pytest.raises(TypeError, match="strict"):
            registry.create_pipeline("jl-fss", k=2, strict=False)

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


CLASSIC_CLASSES = {
    "nr": "NoReductionPipeline",
    "fss": "FSSPipeline",
    "jl-fss": "JLFSSPipeline",
    "fss-jl": "FSSJLPipeline",
    "jl-fss-jl": "JLFSSJLPipeline",
    "nr-distributed": "DistributedNoReductionPipeline",
    "bklw": "BKLWPipeline",
    "jl-bklw": "JLBKLWPipeline",
}
ENGINES = {
    "single-source": StagePipeline,
    "multi-source": DistributedStagePipeline,
    "streaming": StreamingEngine,
}


def every_keyword(name: str) -> dict:
    """A value for every keyword a one-shot composition takes besides k."""
    values = dict(
        epsilon=0.25, delta=0.05, coreset_size=30, pca_rank=4, jl_dimension=9,
        second_jl_dimension=7, total_samples=50, quantizer=RoundingQuantizer(8),
        server_n_init=2, server_max_iterations=20, seed=4, stage_cache=None,
        jobs=1, network="lossy", fault_plan=FaultPlan(), retries=2,
        network_seed=5,
    )
    return {key: values[key] for key in registry.accepted_kwargs(name) if key != "k"}


class TestCompositionTable:
    """Every registered name is a row built through one constructor path."""

    @pytest.mark.parametrize("name", sorted(CLASSIC_CLASSES))
    def test_classic_rows_are_the_exported_classes(self, name):
        cls = getattr(repro, CLASSIC_CLASSES[name])
        assert registry.get_spec(name).factory is cls
        assert cls.__name__ == CLASSIC_CLASSES[name]
        assert len(cls.__doc__.strip()) > 20

    @pytest.mark.parametrize("name", registry.registered_names())
    def test_every_composition_builds_its_kinds_engine(self, name):
        pipeline = registry.create_pipeline(name, k=2)
        assert isinstance(pipeline, ENGINES[registry.factory_kind(name)])
        assert pipeline.stages or name == "nr"

    @pytest.mark.parametrize("name", registry.registered_names())
    def test_every_composition_pickles(self, name, blob_points):
        kind = registry.factory_kind(name)
        data = blob_points if kind == "single-source" else [blob_points]
        pipeline = registry.create_pipeline(name, k=2, seed=1)
        twin = pickle.loads(pickle.dumps(pipeline))
        assert type(twin) is type(pipeline)
        np.testing.assert_array_equal(
            twin.run(data).centers, pipeline.run(data).centers
        )

    @pytest.mark.parametrize("name", sorted(CLASSIC_CLASSES))
    def test_classic_classes_take_every_keyword_of_their_kind(self, name):
        kwargs = every_keyword(name)
        pipeline = getattr(repro, CLASSIC_CLASSES[name])(k=3, **kwargs)
        assert (pipeline.k, pipeline.epsilon, pipeline.delta) == (3, 0.25, 0.05)
        assert pipeline.quantizer is kwargs["quantizer"]
        assert pipeline.network_condition.retries == 2
        assert pipeline.network_condition.seed == 5

    def test_geometry_reaches_the_stage_chain(self):
        kwargs = every_keyword("jl-fss-jl")
        first, fss, second = repro.JLFSSJLPipeline(k=3, **kwargs).stages
        assert isinstance(first, JLStage) and first.dimension == 9
        assert isinstance(fss, FSSStage) and (fss.size, fss.pca_rank) == (30, 4)
        assert isinstance(second, JLStage) and second.dimension == 7
        kwargs = every_keyword("jl-bklw")
        jl, bklw = repro.JLBKLWPipeline(k=3, **kwargs).stages
        assert isinstance(jl, SharedJLStage) and jl.dimension == 9
        assert isinstance(bklw, BKLWStage)
        assert (bklw.pca_rank, bklw.total_samples) == (4, 50)

    def test_arguments_after_k_are_keyword_only(self):
        assert repro.FSSPipeline(3).k == 3
        with pytest.raises(TypeError):
            repro.FSSPipeline(3, 0.2)

    def test_kind_foreign_geometry_is_refused(self):
        # total_samples is a geometry keyword, but not a single-source one:
        # the chain must not swallow it.
        with pytest.raises(TypeError, match="total_samples") as excinfo:
            repro.FSSPipeline(k=2, total_samples=40)
        assert "single-source" in str(excinfo.value)
        with pytest.raises(TypeError, match="coreset_size"):
            repro.BKLWPipeline(k=2, coreset_size=40)


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
