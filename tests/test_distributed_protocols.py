"""Tests for the distributed protocols: disPCA, disSS, the BKLW stage,
EdgeCluster."""

import numpy as np
import pytest

from repro.datasets import make_gaussian_mixture
from repro.distributed.cluster import EdgeCluster
from repro.distributed.dispca import run_dispca
from repro.distributed.disss import run_disss
from repro.distributed.partition import partition_dataset
from repro.kmeans.cost import kmeans_cost
from repro.kmeans.lloyd import solve_reference_kmeans
from repro.quantization.rounding import RoundingQuantizer
from repro.stages.distributed import BKLWStage, DistributedStageContext
from repro.utils.random import as_generator


def partitioned_cluster(points, num_sources, k, seed):
    """Split ``points`` at random across ``num_sources`` sources and build
    the cluster over the shards, both from one generator."""
    rng = as_generator(seed)
    indices = partition_dataset(points, num_sources, seed=rng)
    return EdgeCluster.from_shards([points[idx] for idx in indices], k=k, seed=rng)


def union_points(cluster):
    """The union of the sources' current local shards."""
    return np.vstack([source.points for source in cluster.sources])


def apply_bklw(cluster, k, pca_rank, total_samples):
    """Apply :class:`BKLWStage` to ``cluster`` in a context built from the
    cluster's geometry, as the engine builds it."""
    ctx = DistributedStageContext(
        k=k, epsilon=1.0 / 3.0, delta=0.1, rng=np.random.default_rng(0),
        original_dimension=cluster.dimension,
        total_cardinality=cluster.total_cardinality,
        min_cardinality=min(source.cardinality for source in cluster.sources),
        num_sources=cluster.num_sources,
    )
    return BKLWStage(pca_rank, total_samples).apply_to_cluster(cluster, ctx)


@pytest.fixture()
def cluster(high_dim_points):
    return partitioned_cluster(high_dim_points, num_sources=4, k=3, seed=0)


class TestEdgeCluster:
    def test_partitioned_shards_cover_the_dataset(self, high_dim_points, cluster):
        assert cluster.num_sources == 4
        assert cluster.total_cardinality == high_dim_points.shape[0]
        assert cluster.dimension == high_dim_points.shape[1]
        assert union_points(cluster).shape == high_dim_points.shape

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
        # The server's global SVD of the stacked sketches Σ_t V_t^T, as
        # disPCA's second step forms them.
        sketches = [source.local_svd(6) for source in cluster.sources]
        stacked = np.vstack([values[:, None] * basis.T for values, basis in sketches])
        basis = cluster.server.global_svd(stacked, 6)
        assert basis.shape == (120, 6)
        assert np.allclose(basis.T @ basis, np.eye(6), atol=1e-8)

    def test_sources_projected_in_place(self, cluster):
        run_dispca(cluster.sources, cluster.server, rank=5, jobs=1)
        for source in cluster.sources:
            assert source.points.shape[1] == 120
            assert np.linalg.matrix_rank(source.points, tol=1e-6) <= 5

    def test_communication_accounted(self, cluster):
        transmitted = run_dispca(cluster.sources, cluster.server, rank=5, jobs=1)
        # Each source sends rank singular values + a (d x rank) basis.
        expected = cluster.num_sources * (5 + 120 * 5)
        assert transmitted == expected
        assert cluster.network.uplink_scalars() == expected

    def test_projection_plus_delta_approximates_cost(self, high_dim_blobs):
        """Theorem 5.1: cost(P̃, X) + Δ sandwiches cost(P, X), where Δ is the
        total energy discarded by the projection."""
        points, _, _ = high_dim_blobs
        reference = solve_reference_kmeans(points, 3, n_init=3, seed=0)
        cluster = partitioned_cluster(points, num_sources=4, k=3, seed=1)
        originals = [source.points.copy() for source in cluster.sources]
        run_dispca(cluster.sources, cluster.server, rank=20, jobs=1)
        delta = sum(
            float(np.sum((orig - source.points) ** 2))
            for orig, source in zip(originals, cluster.sources)
        )
        projected_union = union_points(cluster)
        projected_cost = kmeans_cost(projected_union, reference.centers)
        original_cost = kmeans_cost(points, reference.centers)
        assert projected_cost <= original_cost * 1.1
        assert abs(projected_cost + delta - original_cost) <= 0.35 * original_cost

    def test_rank_clamped_to_shard_dimension_and_size(self, blob_points):
        # After a JL step the shards' dimension is the projected one, so the
        # clamp reads the participating shards, not the original geometry.
        # Each source sends rank + d·rank scalars at the clamped rank.
        narrow = EdgeCluster.from_shards(
            [blob_points[:200, :8], blob_points[200:, :8]], k=2, seed=0
        )
        assert run_dispca(narrow.sources, narrow.server, rank=50, jobs=1) == (
            2 * (8 + 8 * 8)
        )
        # Unclamped, the 397-row shard would send all 20 of its components.
        small = EdgeCluster.from_shards([blob_points[:3], blob_points[3:]], k=2, seed=0)
        assert run_dispca(small.sources, small.server, rank=50, jobs=1) == (
            2 * (3 + 20 * 3)
        )


class TestDistributedSensitivitySampler:
    def test_coreset_merged_at_server(self, cluster):
        result = run_disss(cluster.sources, cluster.server, k=3, total_samples=80,
                           quantizer=None, jobs=1)
        assert result.coreset.size >= 80
        assert result.transmitted_scalars > 0

    def test_coreset_total_weight_close_to_n(self, cluster):
        result = run_disss(cluster.sources, cluster.server, k=3, total_samples=100,
                           quantizer=None, jobs=1)
        assert result.coreset.total_weight == pytest.approx(
            cluster.total_cardinality, rel=0.35
        )

    def test_coreset_cost_approximates_union_cost(self, high_dim_blobs):
        points, _, _ = high_dim_blobs
        reference = solve_reference_kmeans(points, 3, n_init=3, seed=0)
        cluster = partitioned_cluster(points, num_sources=3, k=3, seed=2)
        result = run_disss(cluster.sources, cluster.server, k=3, total_samples=150,
                           quantizer=None, jobs=1)
        approx = result.coreset.cost(reference.centers)
        assert approx == pytest.approx(reference.cost, rel=0.5)

    def test_quantizer_reduces_bits(self, high_dim_points):
        def run_with(quantizer):
            cluster = partitioned_cluster(high_dim_points, num_sources=3, k=2, seed=3)
            run_disss(cluster.sources, cluster.server, k=2, total_samples=60,
                      quantizer=quantizer, jobs=1)
            return cluster.network.uplink_bits(), cluster.network.uplink_scalars()

        bits_full, scalars_full = run_with(None)
        bits_q, scalars_q = run_with(RoundingQuantizer(8))
        assert scalars_q == pytest.approx(scalars_full, rel=0.2)
        assert bits_q < bits_full


class TestBKLW:
    def test_builds_coreset_and_accounts_both_stages(self, cluster):
        effect = apply_bklw(cluster, k=3, pca_rank=6, total_samples=80)
        assert effect.coreset.size > 0
        assert effect.details["dispca_scalars"] > 0
        assert effect.details["disss_scalars"] > 0
        assert cluster.network.uplink_scalars() == (
            effect.details["dispca_scalars"] + effect.details["disss_scalars"]
        )

    def test_coreset_supports_accurate_kmeans(self, high_dim_blobs):
        points, _, _ = high_dim_blobs
        reference = solve_reference_kmeans(points, 3, n_init=3, seed=0)
        cluster = partitioned_cluster(points, num_sources=4, k=3, seed=4)
        effect = apply_bklw(cluster, k=3, pca_rank=15, total_samples=150)
        server_result = cluster.server.solve_kmeans(effect.coreset)
        cost = kmeans_cost(points, server_result.centers)
        assert cost <= reference.cost * 1.5

    def test_reused_server_merges_only_its_own_round(self):
        # A one-shot round merges exactly the sample sets that arrived in
        # it: a second application on the same server must not fold the
        # first round's coreset back in.
        points, _, _ = make_gaussian_mixture(n=400, d=20, k=3, seed=0)
        cluster = partitioned_cluster(points, num_sources=4, k=3, seed=1)
        log = cluster.network.log
        apply_bklw(cluster, k=3, pca_rank=5, total_samples=60)
        mark = len(log.messages)
        second = apply_bklw(cluster, k=3, pca_rank=5, total_samples=60)
        arrived = sum(m.scalars for m in log.messages[mark:]
                      if m.tag == "disss-weights" and m.delivered)
        assert second.coreset.size == arrived
