"""Tests for DataSourceNode and EdgeServer."""

import numpy as np
import pytest

from repro.cr.coreset import Coreset
from repro.distributed.network import SimulatedNetwork
from repro.distributed.node import LOCAL_BICRITERIA_ROUNDS, DataSourceNode
from repro.distributed.server import EdgeServer
from repro.dr.jl import JLProjection
from repro.kmeans.bicriteria import bicriteria_approximation
from repro.quantization.rounding import RoundingQuantizer


@pytest.fixture()
def node_and_network(high_dim_points):
    network = SimulatedNetwork()
    node = DataSourceNode("source-0", high_dim_points, network, seed=0)
    return node, network


class TestDataSourceNode:
    def test_basic_properties(self, node_and_network, high_dim_points):
        node, _ = node_and_network
        assert node.cardinality == high_dim_points.shape[0]
        assert node.dimension == high_dim_points.shape[1]
        assert node.compute_seconds == 0.0

    def test_send_to_server_metered(self, node_and_network):
        node, network = node_and_network
        node.send_to_server(np.zeros((4, 5)), tag="test")
        assert network.uplink_scalars() == 20
        assert network.log.messages[0].sender == "source-0"

    def test_apply_jl_replaces_points_and_costs_time(self, node_and_network):
        node, network = node_and_network
        projection = JLProjection(node.dimension, 12, seed=1)
        node.apply_jl(projection)
        assert node.dimension == 12
        assert node.compute_seconds > 0.0
        assert network.uplink_scalars() == 0  # JL costs no communication

    def test_local_svd_shapes(self, node_and_network):
        node, _ = node_and_network
        singular_values, basis = node.local_svd(6)
        assert singular_values.shape == (6,)
        assert basis.shape == (node.dimension, 6)
        assert np.all(np.diff(singular_values) <= 1e-9)

    def test_project_onto_reduces_rank(self, node_and_network):
        node, _ = node_and_network
        _, basis = node.local_svd(5)
        projected = node.project_onto(basis)
        assert projected.shape[1] == basis.shape[0]
        assert np.linalg.matrix_rank(projected) <= 5

    def test_local_bicriteria(self, node_and_network):
        node, _ = node_and_network
        result = node.local_bicriteria(3)
        assert result.centers.shape[1] == node.dimension
        assert result.cost >= 0.0

    def test_local_bicriteria_runs_four_rounds(self, node_and_network, high_dim_points):
        # disSS's local step is bicriteria_approximation with 4 rounds drawn
        # from the node's own generator.
        node, _ = node_and_network
        result = node.local_bicriteria(3)
        assert result.rounds == LOCAL_BICRITERIA_ROUNDS == 4
        reference = bicriteria_approximation(high_dim_points, 3, rounds=4, seed=0)
        assert np.array_equal(result.centers, reference.centers)
        assert result.cost == reference.cost

    def test_local_sensitivity_sample_weights_sum_to_cardinality(self, node_and_network):
        node, _ = node_and_network
        bicriteria = node.local_bicriteria(3)
        points, weights = node.local_sensitivity_sample(bicriteria, 40)
        assert points.shape[0] == weights.shape[0]
        assert points.shape[0] >= 40  # samples plus bicriteria centers
        assert np.all(weights >= 0.0)
        # Total weight is close to the local cardinality (exact up to the
        # clipping of negative residuals).
        assert weights.sum() == pytest.approx(node.cardinality, rel=0.35)

    def test_quantize_through_node(self, node_and_network):
        node, _ = node_and_network
        quantizer = RoundingQuantizer(6)
        out = node.quantize(node.points, quantizer)
        assert out.shape == node.points.shape
        assert node.compute_seconds > 0.0


class TestEdgeServer:
    def test_solve_kmeans_on_coreset(self, blob_points):
        network = SimulatedNetwork()
        server = EdgeServer(network, k=4, seed=0)
        coreset = Coreset(blob_points, np.ones(blob_points.shape[0]))
        result = server.solve_kmeans(coreset)
        assert result.centers.shape == (4, blob_points.shape[1])
        assert server.compute_seconds > 0.0

    def test_global_svd(self, high_dim_points):
        network = SimulatedNetwork()
        server = EdgeServer(network, k=2, seed=0)
        basis = server.global_svd(high_dim_points, 4)
        assert basis.shape == (high_dim_points.shape[1], 4)
        assert np.allclose(basis.T @ basis, np.eye(4), atol=1e-8)

    def test_allocate_sample_sizes_proportional(self):
        network = SimulatedNetwork()
        server = EdgeServer(network, k=2, seed=0)
        sizes = server.allocate_sample_sizes([10.0, 30.0, 60.0], 100)
        assert sizes.sum() >= 98  # rounding keeps the budget roughly intact
        assert sizes[2] > sizes[1] > sizes[0]

    def test_allocate_sample_sizes_zero_costs(self):
        network = SimulatedNetwork()
        server = EdgeServer(network, k=2, seed=0)
        sizes = server.allocate_sample_sizes([0.0, 0.0], 10)
        assert np.array_equal(sizes, [5, 5])

    def test_allocate_negative_cost_rejected(self):
        network = SimulatedNetwork()
        server = EdgeServer(network, k=2, seed=0)
        with pytest.raises(ValueError):
            server.allocate_sample_sizes([-1.0, 2.0], 10)

    def test_downlink_messages_logged(self):
        network = SimulatedNetwork()
        server = EdgeServer(network, k=2, seed=0)
        server.send_to_source("source-1", np.zeros(7), tag="allocation")
        assert network.uplink_scalars() == 0
        assert network.log.total_scalars(uplink_only=False) == 7
