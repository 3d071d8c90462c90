"""Tests for the multi-source pipelines (distributed NR, BKLW, Algorithm 4)."""

import numpy as np
import pytest

import repro.core.engine
import repro.distributed.server
from repro.core.registry import (
    BKLWPipeline,
    DistributedNoReductionPipeline,
    JLBKLWPipeline,
)
from repro.distributed.partition import partition_dataset
from repro.kmeans.cost import kmeans_cost
from repro.kmeans.lloyd import WeightedKMeans, solve_reference_kmeans
from repro.quantization.rounding import RoundingQuantizer
from repro.stages.sizing import default_distributed_samples

MULTI_PIPELINES = [DistributedNoReductionPipeline, BKLWPipeline, JLBKLWPipeline]
REDUCTION_PIPELINES = [BKLWPipeline, JLBKLWPipeline]


@pytest.fixture(scope="module")
def shards(high_dim_points):
    indices = partition_dataset(high_dim_points, 4, seed=0)
    return [high_dim_points[idx] for idx in indices]


class TestDefaults:
    def test_default_sample_budget(self):
        assert default_distributed_samples(10, 2) == 400
        assert default_distributed_samples(1, 2) == 200


class TestServerSeconds:
    @pytest.mark.parametrize("pipeline_cls", MULTI_PIPELINES)
    def test_the_solve_is_counted_once(self, shards, pipeline_cls, monkeypatch):
        # A clock that only the server's k-means fit moves, by one second: the
        # report must read that one solve, whichever clock timed it.
        clock = [0.0]
        real_fit = WeightedKMeans.fit

        def fit(self, *args, **kwargs):
            clock[0] += 1.0
            return real_fit(self, *args, **kwargs)

        monkeypatch.setattr(WeightedKMeans, "fit", fit)
        for module in (repro.core.engine, repro.distributed.server):
            monkeypatch.setattr(module, "perf_counter", lambda: clock[0])
        report = pipeline_cls(k=3, seed=0, total_samples=80, pca_rank=8).run(shards)
        assert report.server_seconds == 1.0


class TestMultiSourcePipelines:
    @pytest.mark.parametrize("pipeline_cls", MULTI_PIPELINES)
    def test_centers_shape_and_finite(self, shards, pipeline_cls, high_dim_points):
        pipeline = pipeline_cls(k=3, seed=0, total_samples=80, pca_rank=8)
        report = pipeline.run(shards)
        assert report.centers.shape == (3, high_dim_points.shape[1])
        assert np.all(np.isfinite(report.centers))

    @pytest.mark.parametrize("pipeline_cls", MULTI_PIPELINES)
    def test_accounting(self, shards, pipeline_cls):
        report = pipeline_cls(k=3, seed=1, total_samples=80, pca_rank=8).run(shards)
        assert report.communication_scalars > 0
        assert report.source_seconds >= 0.0
        assert report.details["num_sources"] == len(shards)
        assert report.details["total_source_seconds"] >= report.source_seconds

    @pytest.mark.parametrize("pipeline_cls", REDUCTION_PIPELINES)
    def test_solution_quality(self, high_dim_blobs, pipeline_cls):
        points, _, _ = high_dim_blobs
        reference = solve_reference_kmeans(points, 3, n_init=5, seed=0)
        # jl_dimension is set to the ambient dimension: these blobs have a
        # very large between/within variance ratio, a regime in which the
        # paper's pinv lift-back of centers loses accuracy for aggressive JL
        # reduction (see test_lift_back_tradeoff below for that behaviour).
        pipeline = pipeline_cls(
            k=3, seed=2, total_samples=150, pca_rank=15,
            jl_dimension=points.shape[1],
        )
        report = pipeline.run_on_dataset(points, num_sources=4, partition_seed=0)
        assert kmeans_cost(points, report.centers) <= reference.cost * 1.5

    def test_lift_back_tradeoff_documented(self, high_dim_blobs):
        """With strongly separated clusters and an aggressive JL dimension,
        lifting centers through the pseudo-inverse loses part of the
        between-cluster component, so the cost degrades — the reason the
        paper's guarantees tie the JL dimension to ``O(ε^{-2} log(nk/δ))``
        rather than allowing arbitrary compression."""
        points, _, _ = high_dim_blobs
        reference = solve_reference_kmeans(points, 3, n_init=5, seed=0)
        aggressive = JLBKLWPipeline(
            k=3, seed=2, total_samples=150, pca_rank=15, jl_dimension=20
        ).run_on_dataset(points, num_sources=4, partition_seed=0)
        conservative = JLBKLWPipeline(
            k=3, seed=2, total_samples=150, pca_rank=15,
            jl_dimension=points.shape[1],
        ).run_on_dataset(points, num_sources=4, partition_seed=0)
        assert kmeans_cost(points, conservative.centers) <= kmeans_cost(
            points, aggressive.centers
        )
        assert kmeans_cost(points, conservative.centers) <= reference.cost * 1.5

    @pytest.mark.parametrize("pipeline_cls", REDUCTION_PIPELINES)
    def test_communication_below_raw(self, shards, high_dim_points, pipeline_cls):
        n, d = high_dim_points.shape
        report = pipeline_cls(k=3, seed=3, total_samples=60, pca_rank=6).run(shards)
        assert report.communication_scalars < n * d

    def test_nr_transmits_everything(self, shards, high_dim_points):
        n, d = high_dim_points.shape
        report = DistributedNoReductionPipeline(k=2, seed=0).run(shards)
        assert report.communication_scalars == n * d

    def test_jlbklw_cheaper_than_bklw_high_dimension(self):
        """Theorem 5.4 vs 5.3: the JL projection shrinks both the disPCA
        sketches and the disSS samples, so for d >> log n Algorithm 4
        transmits less than BKLW."""
        from repro.datasets import make_gaussian_mixture

        points, _, _ = make_gaussian_mixture(n=600, d=400, k=3, seed=1)
        kwargs = dict(k=3, seed=4, total_samples=80, pca_rank=8)
        bklw = BKLWPipeline(**kwargs).run_on_dataset(points, 4, partition_seed=1)
        jlbklw = JLBKLWPipeline(jl_dimension=60, **kwargs).run_on_dataset(
            points, 4, partition_seed=1
        )
        assert jlbklw.communication_scalars < bklw.communication_scalars

    def test_quantizer_reduces_bits(self, shards):
        plain = BKLWPipeline(k=3, seed=5, total_samples=60, pca_rank=6).run(shards)
        quantized = BKLWPipeline(
            k=3, seed=5, total_samples=60, pca_rank=6, quantizer=RoundingQuantizer(8)
        ).run(shards)
        assert quantized.communication_bits < plain.communication_bits
        assert quantized.quantizer_bits == 8

    def test_run_on_dataset_matches_manual_partition(self, high_dim_points):
        pipeline = BKLWPipeline(k=2, seed=6, total_samples=50, pca_rank=5)
        report = pipeline.run_on_dataset(high_dim_points, num_sources=3, partition_seed=7)
        assert report.details["num_sources"] == 3

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(ValueError):
            BKLWPipeline(k=2, epsilon=0.5)
