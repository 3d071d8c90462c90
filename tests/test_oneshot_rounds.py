"""Every one-shot protocol round runs one fault policy.

disPCA (two rounds), disSS (three) and the distributed NR gather (one) send
through :func:`repro.distributed.network.deliver_round`: a source whose
delivery fails is marked failed and dropped from the rest of the run, the
round advances, and a round that delivers nothing raises.  The tests below
drive each round's failure branches through full pipeline runs.
"""

from types import SimpleNamespace

import pytest

from repro.core import registry
from repro.distributed.conditions import SERVER_ID, DeliveryError, FaultPlan
from repro.distributed.network import SimulatedNetwork, deliver_round

NUM_SOURCES = 3
ALL_SOURCES = frozenset(f"source-{i}" for i in range(NUM_SOURCES))

#: One row per one-shot transmission, in protocol order: the algorithm, the
#: message tag, and the error the round raises when none of them arrives.
#: disSS's third round sends two messages per source; losing either one
#: loses the source's sample set.
ROUNDS = [
    ("bklw", "dispca-local-svd", "disPCA: no local SVD sketch reached the server"),
    ("bklw", "dispca-basis", "disPCA: no source received the global basis"),
    ("bklw", "disss-local-cost", "disSS: no local cost report reached the server"),
    ("bklw", "disss-sample-size", "disSS: no source received a sample allocation"),
    ("bklw", "disss-samples", "disSS: no sample set reached the server"),
    ("bklw", "disss-weights", "disSS: no sample set reached the server"),
    ("nr-distributed", "raw-data", "NR gather: no shard reached the server"),
]
ROUND_IDS = [tag for _, tag, _ in ROUNDS]


def run(name, points, fault_plan=None):
    kwargs = {"total_samples": 40, "pca_rank": 3} if name == "bklw" else {}
    pipeline = registry.create_pipeline(
        name, k=2, seed=0, fault_plan=fault_plan, **kwargs
    )
    return pipeline.run_on_dataset(points, num_sources=NUM_SOURCES, partition_seed=1)


@pytest.fixture()
def lose(monkeypatch):
    """``lose(tag, node_ids)`` makes every ``tag`` send to or from one of
    ``node_ids`` raise :class:`DeliveryError`, as a link that lost its whole
    retry budget does.  Returns the ``(tag, source)`` pairs of the sends that
    went through after the first loss."""

    def install(lost_tag, node_ids):
        real_send = SimulatedNetwork.send
        after_loss = []
        lost = []

        def send(network, sender, receiver, payload, tag="data", significant_bits=None):
            endpoint = receiver if sender == SERVER_ID else sender
            if tag == lost_tag and endpoint in node_ids:
                lost.append(endpoint)
                raise DeliveryError(sender, receiver, tag, "every attempt lost")
            if lost:
                after_loss.append((tag, endpoint))
            return real_send(network, sender, receiver, payload, tag, significant_bits)

        monkeypatch.setattr(SimulatedNetwork, "send", send)
        return after_loss

    return install


class TestDeliverRound:
    def _nodes(self):
        return [SimpleNamespace(node_id=f"source-{i}") for i in range(3)]

    def test_failed_delivery_drops_that_source_and_the_round_advances(self):
        network = SimulatedNetwork()
        nodes = self._nodes()
        sent = []

        def send(node, payload):
            if node.node_id == "source-1":
                raise DeliveryError(node.node_id, SERVER_ID, "t", "lost")
            sent.append(payload)

        entries = [(node, i) for i, node in enumerate(nodes)]
        assert deliver_round(network, entries, send, "none") == [entries[0], entries[2]]
        assert sent == [0, 2]
        assert network.failed_nodes == {"source-1"}
        assert network.round == 1

    def test_round_that_delivers_nothing_raises_after_advancing(self):
        network = SimulatedNetwork()

        def send(node):
            raise DeliveryError(node.node_id, SERVER_ID, "t", "lost")

        with pytest.raises(RuntimeError) as excinfo:
            deliver_round(network, [(node,) for node in self._nodes()], send, "none")
        assert type(excinfo.value) is RuntimeError
        assert excinfo.value.args == ("none",)
        assert network.round == 1
        assert network.failed_nodes == {"source-0", "source-1", "source-2"}

    def test_other_errors_propagate_without_failing_the_source(self):
        network = SimulatedNetwork()

        def send(node):
            raise ValueError("not a delivery failure")

        with pytest.raises(ValueError):
            deliver_round(network, [(node,) for node in self._nodes()], send, "none")
        assert network.failed_nodes == set()
        assert network.round == 0


class TestEveryRoundUnderFaults:
    @pytest.mark.parametrize("name, tag, message", ROUNDS, ids=ROUND_IDS)
    def test_a_lost_delivery_drops_only_that_source(
        self, lose, blob_points, name, tag, message
    ):
        after_loss = lose(tag, {"source-1"})
        report = run(name, blob_points)
        assert report.failed_sources == 1
        assert report.participating_sources == NUM_SOURCES - 1
        assert report.centers.shape == (2, blob_points.shape[1])
        assert all(source != "source-1" for _, source in after_loss)

    @pytest.mark.parametrize("name, tag, message", ROUNDS, ids=ROUND_IDS)
    def test_a_round_that_delivers_nothing_raises(
        self, lose, blob_points, name, tag, message
    ):
        lose(tag, ALL_SOURCES)
        with pytest.raises(RuntimeError) as excinfo:
            run(name, blob_points)
        assert type(excinfo.value) is RuntimeError
        assert excinfo.value.args == (message,)

    @pytest.mark.parametrize(
        "name, down_at, message",
        [
            ("bklw", 0, "disPCA: every data source is down"),
            ("bklw", 2, "disSS: every data source is down"),
            ("nr-distributed", 0, "NR gather: every data source is down"),
        ],
        ids=["disPCA", "disSS", "NR"],
    )
    def test_every_source_down_at_the_start_raises(
        self, blob_points, name, down_at, message
    ):
        plan = FaultPlan(dropout={source: down_at for source in ALL_SOURCES})
        with pytest.raises(RuntimeError) as excinfo:
            run(name, blob_points, fault_plan=plan)
        assert excinfo.value.args == (message,)

    def test_source_down_for_the_allocation_round_gets_no_share(self, blob_points):
        # disSS's allocation is round 3 of bklw; a send to a down endpoint
        # raises before anything is recorded, so the source is dropped and
        # only the two live sources are sent a (one-scalar) share.
        report = run("bklw", blob_points, fault_plan=FaultPlan(flaky={"source-1": (3, 4)}))
        assert report.failed_sources == 1
        assert report.tag_scalars["disss-sample-size"] == NUM_SOURCES - 1
