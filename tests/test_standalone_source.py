"""Direct tests for ``StreamingEngine.standalone_source`` — the client half
of a ``repro serve`` deployment, constructed outside the in-process loop."""

import numpy as np
import pytest

from repro.core.streaming import StreamingEngine
from repro.datasets import make_gaussian_mixture
from repro.datasets.streams import iter_batches
from repro.distributed.network import SimulatedNetwork
from repro.stages.cr import FSSStage
from repro.stages.dr import JLStage
from repro.streaming.server import FoldResult, StreamingServer
from repro.topology import Topology

D = 12
BATCH = 32


@pytest.fixture(scope="module")
def batches():
    points, _, _ = make_gaussian_mixture(n=8 * BATCH, d=D, k=3, seed=17)
    return list(iter_batches(points, BATCH))


def make_engine(**kwargs):
    defaults = dict(k=3, batch_size=BATCH, seed=29)
    defaults.update(kwargs)
    return StreamingEngine([JLStage(6), FSSStage(size=40)], **defaults)


def ingest_all(source, batches):
    return [source.ingest(batch, index) for index, batch in enumerate(batches)]


class TestHandshake:
    def test_two_instances_agree_on_dr_maps(self, batches):
        """Two processes building the same composition from the same seed
        run the same stream-start handshake, so their summaries land in the
        same reduced space — the property that keeps them mergeable."""
        updates_a = ingest_all(
            make_engine().standalone_source("source-0", batches[0].shape), batches
        )
        updates_b = ingest_all(
            make_engine().standalone_source("source-0", batches[0].shape), batches
        )
        for ua, ub in zip(updates_a, updates_b):
            assert ua.batch_index == ub.batch_index
            assert ua.retired_ids == ub.retired_ids
            assert [b.bucket_id for b in ua.added] == [b.bucket_id for b in ub.added]
            for ba, bb in zip(ua.added, ub.added):
                np.testing.assert_array_equal(ba.coreset.points, bb.coreset.points)
                np.testing.assert_array_equal(ba.coreset.weights, bb.coreset.weights)
                assert ba.coreset.shift == bb.coreset.shift

    def test_derived_dimensions_pinned_by_first_batch_shape(self, batches):
        source = make_engine().standalone_source("source-0", batches[0].shape)
        update = source.ingest(batches[0], 0)
        assert update.added, "first batch must ship a bucket"
        # The JL stage was pinned against the handshake shape: the wire
        # coreset lives in the 6-dimensional reduced space.
        assert update.added[0].coreset.points.shape[1] == 6

    def test_source_id_and_default_network(self, batches):
        source = make_engine().standalone_source("edge-7", batches[0].shape)
        assert source.source_id == "edge-7"
        source.ingest(batches[0], 0)
        # Transmissions went through the private default network, metered
        # under the flat streaming tags.
        tags = {m.tag for m in source.network.log.messages}
        assert {"stream-points", "stream-weights", "stream-header"} <= tags


class TestWireFold:
    def test_wire_fold_bit_parity_between_instances(self, batches):
        """Folding one standalone source's wire updates into a daemon-side
        server reproduces, bit for bit, the fold of an identically seeded
        second instance — delivery order and payloads are deterministic."""
        centers = []
        for _ in range(2):
            network = SimulatedNetwork()
            source = make_engine().standalone_source(
                "source-0", batches[0].shape, network=network
            )
            server = StreamingServer(k=3, n_init=2, max_iterations=50, seed=41)
            server.register(source.source_id)
            for index, batch in enumerate(batches):
                result = server.fold(source.ingest(batch, index))
                assert result is FoldResult.APPLIED
            assert server.watermark("source-0") == len(batches) - 1
            answer, coreset, _ = server.query()
            centers.append(answer.centers)
            assert coreset.size > 0
            assert network.log.total_scalars() > 0
        np.testing.assert_array_equal(centers[0], centers[1])

    def test_refolding_an_update_is_a_duplicate(self, batches):
        source = make_engine().standalone_source("source-0", batches[0].shape)
        server = StreamingServer(k=3, n_init=1, max_iterations=20, seed=3)
        server.register(source.source_id)
        update = source.ingest(batches[0], 0)
        assert server.fold(update) is FoldResult.APPLIED
        # At-least-once delivery: the replayed update acks without refolding.
        assert server.fold(update) is FoldResult.DUPLICATE
        assert server.watermark("source-0") == 0


class TestGuards:
    def test_tree_topology_refused(self, batches):
        engine = make_engine(topology="tree", fan_in=2)
        with pytest.raises(ValueError, match="star"):
            engine.standalone_source("source-0", batches[0].shape)

    def test_bare_fan_in_refused(self, batches):
        engine = make_engine(fan_in=2)
        with pytest.raises(ValueError, match="star"):
            engine.standalone_source("source-0", batches[0].shape)

    def test_explicit_star_topology_accepted(self, batches):
        # `run` treats an engine built with Topology.star(m) as a star, so
        # the client half does too, and builds the default engine's source.
        explicit = make_engine(topology=Topology.star(4)).standalone_source(
            "source-0", batches[0].shape
        )
        default = make_engine().standalone_source("source-0", batches[0].shape)
        mine, theirs = explicit.ingest(batches[0], 0), default.ingest(batches[0], 0)
        np.testing.assert_array_equal(
            mine.added[0].coreset.points, theirs.added[0].coreset.points
        )

    def test_explicit_tree_topology_refused(self, batches):
        engine = make_engine(topology=Topology.balanced(4, 2))
        with pytest.raises(ValueError, match="star"):
            engine.standalone_source("source-0", batches[0].shape)
