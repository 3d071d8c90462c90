"""Tests of the top-level public API surface and the example scripts.

These guard the contract a downstream user relies on: everything advertised
in ``repro.__all__`` is importable and of the expected kind, and the shipped
examples at least compile.
"""

import importlib
import pathlib
import py_compile

import pytest

import repro


class TestPublicAPI:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} is advertised but missing"

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_subpackages_importable(self):
        for module in (
            "repro.core", "repro.kmeans", "repro.dr", "repro.cr",
            "repro.quantization", "repro.distributed", "repro.datasets",
            "repro.metrics", "repro.utils",
        ):
            importlib.import_module(module)

    def test_pipeline_classes_are_pipelines(self):
        for cls in (repro.FSSPipeline, repro.JLFSSPipeline, repro.FSSJLPipeline,
                    repro.JLFSSJLPipeline, repro.NoReductionPipeline):
            assert issubclass(cls, repro.StagePipeline)
        for cls in (repro.BKLWPipeline, repro.JLBKLWPipeline,
                    repro.DistributedNoReductionPipeline):
            assert issubclass(cls, repro.DistributedStagePipeline)

    def test_docstrings_present_on_public_classes(self):
        for name in ("JLFSSPipeline", "FSSCoreset", "JLProjection",
                     "RoundingQuantizer", "WeightedKMeans", "EdgeCluster"):
            obj = getattr(repro, name)
            assert obj.__doc__ and len(obj.__doc__.strip()) > 20, name


class TestExamplesCompile:
    @pytest.mark.parametrize("script", [
        "quickstart.py",
        "edge_single_source.py",
        "edge_multi_source.py",
        "quantization_tradeoff.py",
        "declarative_experiments.py",
    ])
    def test_example_compiles(self, script):
        path = pathlib.Path(__file__).resolve().parents[1] / "examples" / script
        assert path.exists(), f"missing example {script}"
        py_compile.compile(str(path), doraise=True)
