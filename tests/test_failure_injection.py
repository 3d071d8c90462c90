"""Failure-injection and degenerate-input tests.

Edge deployments see messy inputs: tiny shards, duplicated points, constant
features, more clusters than points, zero-weight summaries.  These tests pin
down that the library degrades gracefully (sensible results or a clear
exception) instead of crashing with numerical errors deep inside numpy.
"""

import numpy as np
import pytest

import repro
from repro.cr.fss import FSSCoreset
from repro.cr.sensitivity import SensitivitySampler
from repro.distributed.cluster import EdgeCluster
from repro.distributed.dispca import run_dispca
from repro.distributed.disss import run_disss
from repro.kmeans.lloyd import WeightedKMeans


class TestDegenerateDatasets:
    def test_constant_feature_columns(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((200, 10))
        points[:, 3] = 5.0
        points[:, 7] = 0.0
        report = repro.JLFSSPipeline(k=3, seed=1, coreset_size=50).run(points)
        assert np.all(np.isfinite(report.centers))

    def test_all_identical_points(self):
        points = np.tile([[1.0, 2.0, 3.0]], (100, 1))
        report = repro.FSSPipeline(k=2, seed=0, coreset_size=20).run(points)
        assert np.allclose(report.centers, [1.0, 2.0, 3.0], atol=1e-6)

    def test_single_cluster_k_greater_than_structure(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((100, 5)) * 0.01
        report = repro.JLFSSJLPipeline(k=5, seed=0, coreset_size=40).run(points)
        assert report.centers.shape == (5, 5)

    def test_tiny_dataset_smaller_than_coreset(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((15, 8))
        coreset = FSSCoreset(k=2, size=100, pca_rank=4, seed=0).build(points).coreset
        assert coreset.size <= 15

    def test_one_dimensional_data(self):
        rng = np.random.default_rng(3)
        points = np.concatenate([rng.normal(0, 1, 50), rng.normal(20, 1, 50)])[:, None]
        result = WeightedKMeans(k=2, n_init=3, seed=0).fit(points)
        centers = np.sort(result.centers.ravel())
        assert abs(centers[0] - 0.0) < 1.5
        assert abs(centers[1] - 20.0) < 1.5

    def test_two_points(self):
        points = np.array([[0.0, 0.0], [10.0, 10.0]])
        sampler = SensitivitySampler(k=2, size=5, seed=0)
        coreset = sampler.build(points)
        assert coreset.size == 2
        assert coreset.total_weight == pytest.approx(2.0)


class TestDegenerateDistributedSetups:
    def test_single_source_cluster(self, blob_points):
        cluster = EdgeCluster.from_shards([blob_points], k=2, seed=0)
        run_dispca(cluster.sources, cluster.server, rank=4, jobs=1)
        result = run_disss(cluster.sources, cluster.server, k=2, total_samples=30,
                           quantizer=None, jobs=1)
        assert result.coreset.size >= 30

    def test_many_tiny_shards(self, blob_points):
        # 40 sources each holding ~10 points: local SVD ranks and sample
        # allocations must all stay within bounds.
        pipeline = repro.BKLWPipeline(k=2, seed=0, total_samples=80, pca_rank=5)
        report = pipeline.run_on_dataset(blob_points, num_sources=40, partition_seed=1)
        assert np.all(np.isfinite(report.centers))

    def test_shard_smaller_than_k(self):
        rng = np.random.default_rng(4)
        shards = [rng.standard_normal((2, 6)), rng.standard_normal((50, 6))]
        pipeline = repro.BKLWPipeline(k=3, seed=0, total_samples=20, pca_rank=2)
        report = pipeline.run(shards)
        assert report.centers.shape == (3, 6)

    def test_imbalanced_shards(self, blob_points):
        shards = [blob_points[:5], blob_points[5:]]
        pipeline = repro.JLBKLWPipeline(k=2, seed=0, total_samples=40, pca_rank=4,
                                        jl_dimension=blob_points.shape[1])
        report = pipeline.run(shards)
        assert np.all(np.isfinite(report.centers))


class TestQuantizerExtremes:
    def test_one_bit_quantizer_still_produces_finite_centers(self, high_dim_points):
        pipeline = repro.JLFSSPipeline(
            k=3, seed=0, coreset_size=80, quantizer=repro.RoundingQuantizer(1)
        )
        report = pipeline.run(high_dim_points)
        assert np.all(np.isfinite(report.centers))
        assert report.communication_bits < report.communication_scalars * 64

    def test_quantizing_huge_values(self):
        points = np.array([[1e300, -1e300], [1e-300, -1e-300]])
        quantized = repro.RoundingQuantizer(8).quantize(points)
        assert np.all(np.isfinite(quantized))
        assert np.all(np.sign(quantized) == np.sign(points))


class TestSecondJLDimension:
    def test_explicit_second_dimension_respected(self, high_dim_points):
        report = repro.JLFSSJLPipeline(
            k=2, seed=0, coreset_size=60, jl_dimension=40, second_jl_dimension=10
        ).run(high_dim_points)
        assert report.summary_dimension == 10

    def test_second_dimension_capped_by_first(self, high_dim_points):
        report = repro.JLFSSJLPipeline(
            k=2, seed=0, coreset_size=60, jl_dimension=20, second_jl_dimension=400
        ).run(high_dim_points)
        assert report.summary_dimension == 20
