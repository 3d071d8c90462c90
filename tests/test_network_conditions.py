"""Unit tests for the unreliable-network simulation layer.

Covers the condition/fault-plan data model, the loss/retry/simulated-time
semantics of ``SimulatedNetwork.send``, the guardrails on where loss
randomness may come from, and the jobs-parity regression: a lossy
distributed run must produce the identical report whether the per-source
compute sections run sequentially or on a thread pool.
"""

import math

import numpy as np
import pytest

from repro.core import registry
from repro.distributed.conditions import (
    NETWORK_PRESETS,
    DeliveryError,
    FaultPlan,
    LinkModel,
    NetworkCondition,
    resolve_condition,
)
from repro.distributed.network import SimulatedNetwork
from repro.utils.random import generator_for_name


class TestLinkModel:
    def test_ideal_default(self):
        link = LinkModel()
        assert link.is_ideal
        assert link.transmission_seconds(10**9) == 0.0

    def test_transmission_time(self):
        link = LinkModel(latency_seconds=0.5, bandwidth_bits_per_second=1000.0)
        assert link.transmission_seconds(2000) == pytest.approx(0.5 + 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkModel(loss=1.0)
        with pytest.raises(ValueError):
            LinkModel(loss=-0.1)
        with pytest.raises(ValueError):
            LinkModel(latency_seconds=-1.0)
        with pytest.raises(ValueError):
            LinkModel(bandwidth_bits_per_second=0.0)


class TestFaultPlan:
    def test_dropout_is_permanent(self):
        plan = FaultPlan(dropout={"source-1": 2})
        assert not plan.is_down("source-1", 1)
        assert plan.is_down("source-1", 2)
        assert plan.is_down("source-1", 99)
        assert plan.is_permanently_down("source-1", 2)

    def test_flaky_recovers(self):
        plan = FaultPlan(flaky={"source-0": (1, 3)})
        assert not plan.is_down("source-0", 0)
        assert plan.is_down("source-0", 1)
        assert plan.is_down("source-0", 2)
        assert not plan.is_down("source-0", 3)
        assert not plan.is_permanently_down("source-0", 2)

    def test_straggler_factor(self):
        plan = FaultPlan(stragglers={"source-2": 3.0})
        assert plan.delay_factor("source-2") == 3.0
        assert plan.delay_factor("source-0") == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(dropout={"source-0": -1})
        with pytest.raises(ValueError):
            FaultPlan(flaky={"source-0": (3, 3)})
        with pytest.raises(ValueError):
            FaultPlan(stragglers={"source-0": 0.5})


class TestNetworkCondition:
    def test_presets_resolve(self):
        for name in NETWORK_PRESETS:
            condition = resolve_condition(name)
            assert condition.name == name
        assert resolve_condition(None).is_ideal
        with pytest.raises(KeyError):
            resolve_condition("no-such-preset")

    def test_with_overrides(self):
        condition = resolve_condition("ideal").with_overrides(loss=0.3, retries=4)
        assert condition.default_link.loss == 0.3
        assert condition.retries == 4
        assert not condition.is_ideal

    def test_with_overrides_accepts_numpy_integers(self):
        condition = resolve_condition("lossy").with_overrides(
            retries=np.int64(3), seed=np.int64(7)
        )
        assert (condition.retries, condition.seed) == (3, 7)
        assert type(condition.retries) is int and type(condition.seed) is int

    @pytest.mark.parametrize("overrides, name", [
        ({"retries": 2.5}, "retries"),
        ({"retries": True}, "retries"),
        ({"retries": "2"}, "retries"),
        ({"seed": 1.5}, "seed"),
        ({"seed": False}, "seed"),
    ])
    def test_with_overrides_refuses_non_integers(self, overrides, name):
        # int() would truncate 2.5 to 2 and read True as 1.
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            resolve_condition("lossy").with_overrides(**overrides)

    def test_with_overrides_refuses_negative_retries(self):
        with pytest.raises(ValueError, match="^retries must be non-negative"):
            resolve_condition("lossy").with_overrides(retries=-1)

    def test_with_overrides_refuses_boolean_loss(self):
        with pytest.raises(TypeError, match="^loss must be a real number"):
            resolve_condition("lossy").with_overrides(loss=False)

    @pytest.mark.parametrize("overrides, name", [
        ({"retries": 2.5}, "retries"), ({"network_seed": 1.5}, "seed"),
    ])
    def test_pipeline_refuses_fractional_overrides(self, overrides, name):
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            registry.create_pipeline("bklw", k=2, network="lossy", **overrides)

    def test_heterogeneity_is_deterministic_per_node(self):
        condition = resolve_condition("edge-wan")
        a1, a2 = condition.link_for("source-3"), condition.link_for("source-3")
        b = condition.link_for("source-4")
        assert a1 == a2
        assert a1 != b
        assert not math.isinf(a1.bandwidth_bits_per_second)

    def test_server_side_is_not_jittered(self):
        condition = resolve_condition("edge-wan")
        assert condition.link_for("server") == condition.default_link


class TestSendSemantics:
    def test_ideal_send_records_no_retries_and_no_time(self):
        net = SimulatedNetwork()
        net.send("source-0", "server", np.zeros(7), tag="x")
        assert net.uplink_scalars() == 7
        assert net.retransmissions() == 0
        assert net.lost_messages() == 0
        assert net.simulated_seconds() == 0.0

    def test_lost_attempts_are_metered(self):
        condition = NetworkCondition(
            name="t", default_link=LinkModel(loss=0.6), retries=50, seed=5
        )
        net = SimulatedNetwork(condition)
        net.send("source-0", "server", np.zeros(10), tag="x")
        # Every attempt (delivered or lost) spent 10 scalars on the wire.
        assert net.uplink_scalars() == 10 * len(net.log)
        assert net.log.delivered_scalars() == 10
        assert net.lost_messages() == len(net.log) - 1
        assert net.retransmissions() == len(net.log) - 1

    def test_budget_exhaustion_raises(self):
        condition = NetworkCondition(
            name="t", default_link=LinkModel(loss=0.999999), retries=2, seed=0
        )
        net = SimulatedNetwork(condition)
        with pytest.raises(DeliveryError):
            net.send("source-0", "server", np.zeros(4), tag="x")
        assert len(net.log) == 3  # all three attempts metered
        assert net.log.delivered_scalars() == 0

    def test_down_endpoint_transmits_nothing(self):
        net = SimulatedNetwork(fault_plan=FaultPlan(dropout={"source-1": 0}))
        with pytest.raises(DeliveryError):
            net.send("source-1", "server", np.zeros(4), tag="x")
        with pytest.raises(DeliveryError):
            net.send("server", "source-1", np.zeros(4), tag="x")
        assert len(net.log) == 0

    def test_flaky_window_follows_rounds(self):
        net = SimulatedNetwork(fault_plan=FaultPlan(flaky={"source-0": (1, 2)}))
        net.send("source-0", "server", 1.0, tag="x")
        net.advance_round()
        with pytest.raises(DeliveryError):
            net.send("source-0", "server", 1.0, tag="x")
        net.advance_round()
        net.send("source-0", "server", 1.0, tag="x")  # recovered

    def test_simulated_clock_and_stragglers(self):
        condition = NetworkCondition(
            name="t",
            default_link=LinkModel(latency_seconds=0.1,
                                   bandwidth_bits_per_second=6400.0),
        )
        net = SimulatedNetwork(
            condition, fault_plan=FaultPlan(stragglers={"source-1": 2.0})
        )
        net.send("source-0", "server", np.zeros(10), tag="x")  # 640 bits
        per_sender = net.log.simulated_seconds_by_sender()
        assert per_sender["source-0"] == pytest.approx(0.1 + 0.1)
        net.send("source-1", "server", np.zeros(10), tag="x")
        per_sender = net.log.simulated_seconds_by_sender()
        assert per_sender["source-1"] == pytest.approx(2.0 * 0.2)
        # Wall time: per-link serial, links in parallel -> the max.
        assert net.simulated_seconds() == pytest.approx(0.4)

    def test_quantized_bits_shrink_transmission_time(self):
        condition = NetworkCondition(
            name="t", default_link=LinkModel(bandwidth_bits_per_second=1000.0)
        )
        net = SimulatedNetwork(condition)
        net.send("source-0", "server", np.zeros(10), tag="full")
        full = net.simulated_seconds()
        net.reset()
        net.send("source-0", "server", np.zeros(10), tag="q", significant_bits=8)
        assert net.simulated_seconds() < full

    def test_reset_restores_loss_stream(self):
        condition = NetworkCondition(
            name="t", default_link=LinkModel(loss=0.5), retries=20, seed=11
        )
        net = SimulatedNetwork(condition)
        net.send("source-0", "server", np.zeros(3), tag="x")
        first = len(net.log)
        net.reset()
        net.send("source-0", "server", np.zeros(3), tag="x")
        assert len(net.log) == first


class TestSeededLossGuardrails:
    """d2_sampling-style guardrails: loss draws never touch global state."""

    def test_generator_for_name_rejects_generators(self):
        with pytest.raises(TypeError):
            generator_for_name(np.random.default_rng(0), "loss:source-0")

    def test_generator_for_name_is_stable(self):
        a = generator_for_name(7, "loss:source-0")
        b = generator_for_name(7, "loss:source-0")
        assert a.random() == b.random()
        assert generator_for_name(7, "loss:source-1").random() != \
            generator_for_name(7, "loss:source-0").random()

    def test_loss_draws_do_not_touch_global_numpy_state(self):
        condition = NetworkCondition(
            name="t", default_link=LinkModel(loss=0.4), retries=30, seed=3
        )
        np.random.seed(1234)
        before = np.random.get_state()[1].copy()
        net = SimulatedNetwork(condition)
        for i in range(10):
            net.send(f"source-{i % 3}", "server", np.zeros(5), tag="x")
        after = np.random.get_state()[1]
        assert np.array_equal(before, after)

    def test_loss_draws_do_not_consume_pipeline_master_rng(self, blob_points):
        # Identical algorithm randomness with and without loss: the centers
        # may differ only through *which* sources participated, so with a
        # retry budget deep enough that nobody drops, the ideal and lossy
        # runs of the same seed must produce identical centers.
        make = lambda network: registry.create_pipeline(
            "bklw", k=3, seed=123, total_samples=60, pca_rank=4,
            network=network, retries=64, network_seed=1,
        )
        ideal = make(None).run_on_dataset(blob_points, num_sources=3,
                                          partition_seed=7)
        lossy = make(
            NetworkCondition(name="t", default_link=LinkModel(loss=0.2), seed=1)
        ).run_on_dataset(blob_points, num_sources=3, partition_seed=7)
        assert lossy.retransmissions > 0
        assert np.array_equal(ideal.centers, lossy.centers)
        assert lossy.communication_scalars > ideal.communication_scalars


class TestJobsParityUnderLoss:
    """jobs=1 and jobs=4 must be indistinguishable, even on a lossy network."""

    CONDITION = NetworkCondition(
        name="t",
        default_link=LinkModel(loss=0.2, latency_seconds=0.01,
                               bandwidth_bits_per_second=10e6),
        retries=6,
    )

    def _signature(self, report):
        return (
            report.centers.tobytes(),
            report.communication_scalars,
            report.communication_bits,
            report.participating_sources,
            report.retransmissions,
            report.messages_lost,
            round(report.simulated_network_seconds, 12),
            tuple(sorted((report.tag_scalars or {}).items())),
        )

    @pytest.mark.parametrize("name", ["bklw", "jl-bklw", "nr-distributed"])
    def test_distributed_reports_identical(self, name, blob_points):
        signatures = []
        for jobs in (1, 4):
            pipeline = registry.create_pipeline(
                name, k=3, seed=123, total_samples=60, pca_rank=4,
                jl_dimension=8, jobs=jobs,
                network=self.CONDITION,
                fault_plan=FaultPlan(dropout={"source-1": 1}),
                network_seed=99,
            )
            report = pipeline.run_on_dataset(blob_points, num_sources=4,
                                             partition_seed=7)
            signatures.append(self._signature(report))
        assert signatures[0] == signatures[1]

    def test_streaming_reports_identical(self, blob_points):
        signatures = []
        for jobs in (1, 4):
            pipeline = registry.create_pipeline(
                "stream-fss", k=3, seed=123, coreset_size=40, pca_rank=4,
                batch_size=32, jobs=jobs,
                network=self.CONDITION,
                fault_plan=FaultPlan(dropout={"source-1": 1}),
                network_seed=99,
            )
            report = pipeline.run_on_dataset(blob_points, num_sources=4,
                                             partition_seed=7)
            signatures.append(self._signature(report))
        assert signatures[0] == signatures[1]
