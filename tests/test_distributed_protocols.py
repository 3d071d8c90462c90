"""Tests for the distributed protocols: disPCA, disSS, BKLW, EdgeCluster."""

import numpy as np
import pytest

from repro.datasets import make_gaussian_mixture
from repro.distributed.bklw import BKLWCoreset
from repro.distributed.cluster import EdgeCluster
from repro.distributed.dispca import DistributedPCA
from repro.distributed.disss import DistributedSensitivitySampler, disss_sample_size
from repro.kmeans.cost import kmeans_cost
from repro.kmeans.lloyd import solve_reference_kmeans
from repro.quantization.rounding import RoundingQuantizer


@pytest.fixture()
def cluster(high_dim_points):
    return EdgeCluster.from_dataset(high_dim_points, num_sources=4, k=3, seed=0)


class TestEdgeCluster:
    def test_from_dataset_partitions_everything(self, high_dim_points, cluster):
        assert cluster.num_sources == 4
        assert cluster.total_cardinality == high_dim_points.shape[0]
        assert cluster.dimension == high_dim_points.shape[1]

    def test_union_points_shape(self, high_dim_points, cluster):
        union = cluster.union_points()
        assert union.shape == high_dim_points.shape

    def test_from_shards(self, blob_points):
        shards = [blob_points[:100], blob_points[100:250], blob_points[250:]]
        cluster = EdgeCluster.from_shards(shards, k=2, seed=1)
        assert cluster.num_sources == 3
        assert cluster.total_cardinality == blob_points.shape[0]

    def test_empty_shards_rejected(self):
        with pytest.raises(ValueError):
            EdgeCluster.from_shards([], k=2)

    def test_compute_time_aggregation(self, cluster):
        for source in cluster.sources:
            source.compute_seconds = 1.0
        cluster.sources[0].compute_seconds = 3.0
        assert cluster.total_source_compute_seconds() == pytest.approx(6.0)
        assert cluster.max_source_compute_seconds() == pytest.approx(3.0)


class TestDistributedPCA:
    def test_basis_is_orthonormal(self, cluster):
        dispca = DistributedPCA(k=3, rank=6)
        result = dispca.run(cluster.sources, cluster.server)
        basis = result.basis
        assert basis.shape == (120, result.rank)
        assert np.allclose(basis.T @ basis, np.eye(result.rank), atol=1e-8)

    def test_sources_projected_in_place(self, cluster):
        dispca = DistributedPCA(k=3, rank=5)
        result = dispca.run(cluster.sources, cluster.server)
        for source in cluster.sources:
            assert source.points.shape[1] == 120
            assert np.linalg.matrix_rank(source.points, tol=1e-6) <= result.rank

    def test_communication_accounted(self, cluster):
        dispca = DistributedPCA(k=3, rank=5)
        result = dispca.run(cluster.sources, cluster.server)
        # Each source sends rank singular values + a (d x rank) basis.
        expected = cluster.num_sources * (5 + 120 * 5)
        assert result.transmitted_scalars == expected
        assert cluster.network.uplink_scalars() == expected

    def test_projection_plus_delta_approximates_cost(self, high_dim_blobs):
        """Theorem 5.1: cost(P̃, X) + Δ sandwiches cost(P, X), where Δ is the
        total energy discarded by the projection."""
        points, _, _ = high_dim_blobs
        reference = solve_reference_kmeans(points, 3, n_init=3, seed=0)
        cluster = EdgeCluster.from_dataset(points, num_sources=4, k=3, seed=1)
        originals = [source.points.copy() for source in cluster.sources]
        DistributedPCA(k=3, rank=20).run(cluster.sources, cluster.server)
        delta = sum(
            float(np.sum((orig - source.points) ** 2))
            for orig, source in zip(originals, cluster.sources)
        )
        projected_union = cluster.union_points()
        projected_cost = kmeans_cost(projected_union, reference.centers)
        original_cost = kmeans_cost(points, reference.centers)
        assert projected_cost <= original_cost * 1.1
        assert abs(projected_cost + delta - original_cost) <= 0.35 * original_cost

    def test_requires_sources(self, cluster):
        with pytest.raises(ValueError):
            DistributedPCA(k=2).run([], cluster.server)


class TestDistributedSensitivitySampler:
    def test_sample_size_formula_monotone(self):
        assert disss_sample_size(4, 50, 5, 0.2) > disss_sample_size(2, 50, 5, 0.2)
        assert disss_sample_size(2, 50, 5, 0.1) > disss_sample_size(2, 50, 5, 0.3)

    def test_coreset_merged_at_server(self, cluster):
        disss = DistributedSensitivitySampler(k=3, total_samples=80)
        result = disss.run(cluster.sources, cluster.server)
        assert result.coreset.size >= 80
        assert result.per_source_sizes.shape == (cluster.num_sources,)
        assert result.transmitted_scalars > 0

    def test_coreset_total_weight_close_to_n(self, cluster):
        disss = DistributedSensitivitySampler(k=3, total_samples=100)
        result = disss.run(cluster.sources, cluster.server)
        assert result.coreset.total_weight == pytest.approx(
            cluster.total_cardinality, rel=0.35
        )

    def test_coreset_cost_approximates_union_cost(self, high_dim_blobs):
        points, _, _ = high_dim_blobs
        reference = solve_reference_kmeans(points, 3, n_init=3, seed=0)
        cluster = EdgeCluster.from_dataset(points, num_sources=3, k=3, seed=2)
        disss = DistributedSensitivitySampler(k=3, total_samples=150)
        result = disss.run(cluster.sources, cluster.server)
        approx = result.coreset.cost(reference.centers)
        assert approx == pytest.approx(reference.cost, rel=0.5)

    def test_quantizer_reduces_bits(self, high_dim_points):
        def run_with(quantizer):
            cluster = EdgeCluster.from_dataset(high_dim_points, num_sources=3, k=2, seed=3)
            disss = DistributedSensitivitySampler(k=2, total_samples=60, quantizer=quantizer)
            disss.run(cluster.sources, cluster.server)
            return cluster.network.uplink_bits(), cluster.network.uplink_scalars()

        bits_full, scalars_full = run_with(None)
        bits_q, scalars_q = run_with(RoundingQuantizer(8))
        assert scalars_q == pytest.approx(scalars_full, rel=0.2)
        assert bits_q < bits_full

    def test_requires_sources(self, cluster):
        with pytest.raises(ValueError):
            DistributedSensitivitySampler(k=2, total_samples=10).run([], cluster.server)


class TestBKLW:
    def test_builds_coreset_and_accounts_both_stages(self, cluster):
        builder = BKLWCoreset(k=3, pca_rank=6, total_samples=80)
        result = builder.build(cluster.sources, cluster.server)
        assert result.coreset.size > 0
        assert result.dispca.transmitted_scalars > 0
        assert result.disss.transmitted_scalars > 0
        assert result.transmitted_scalars == (
            result.dispca.transmitted_scalars + result.disss.transmitted_scalars
        )

    def test_coreset_supports_accurate_kmeans(self, high_dim_blobs):
        points, _, _ = high_dim_blobs
        reference = solve_reference_kmeans(points, 3, n_init=3, seed=0)
        cluster = EdgeCluster.from_dataset(points, num_sources=4, k=3, seed=4)
        builder = BKLWCoreset(k=3, pca_rank=15, total_samples=150)
        result = builder.build(cluster.sources, cluster.server)
        server_result = cluster.server.solve_kmeans(result.coreset)
        cost = kmeans_cost(points, server_result.centers)
        assert cost <= reference.cost * 1.5

    def test_reused_server_merges_only_its_own_round(self):
        # A one-shot round merges exactly the sample sets that arrived in
        # it: a second build on the same server must not fold the first
        # round's coreset back in.
        points, _, _ = make_gaussian_mixture(n=400, d=20, k=3, seed=0)
        cluster = EdgeCluster.from_dataset(points, num_sources=4, k=3, seed=1)
        builder = BKLWCoreset(k=3, pca_rank=5, total_samples=60)
        log = cluster.network.log
        builder.build(cluster.sources, cluster.server)
        mark = len(log.messages)
        second = builder.build(cluster.sources, cluster.server)
        arrived = sum(m.scalars for m in log.messages[mark:]
                      if m.tag == "disss-weights" and m.delivered)
        assert second.coreset.size == arrived

    def test_resolved_samples_default(self, cluster):
        builder = BKLWCoreset(k=3)
        assert builder.resolved_samples(cluster.sources) > 0

    def test_requires_sources(self, cluster):
        with pytest.raises(ValueError):
            BKLWCoreset(k=2).build([], cluster.server)
