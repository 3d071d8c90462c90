"""Chaos suite: every registered pipeline survives an unreliable edge.

Marked ``chaos`` (CI runs it as a dedicated job: ``pytest -m chaos``); the
tests also run in the default collection because they are fast.

The scenario is the ISSUE's acceptance bar: 20% per-message Bernoulli loss
on every link plus one source dropped mid-protocol.  Every registered
distributed and streaming composition must terminate with a valid report
that flags the degraded participation, and identical seeds must yield
identical degraded reports (loss draws come from per-link generators derived
from the network seed, never from global state).
"""

import numpy as np
import pytest

from repro.core import registry
from repro.distributed.conditions import FaultPlan, LinkModel, NetworkCondition

pytestmark = pytest.mark.chaos

NUM_SOURCES = 3
#: 20% loss with a retry budget deep enough that a *permanent* per-message
#: failure is a ~1e-5 event — rare, deterministic per seed, and survivable
#: (the protocol excludes the source rather than crashing).
CHAOS_CONDITION = NetworkCondition(
    name="chaos",
    default_link=LinkModel(loss=0.2, latency_seconds=0.01,
                           bandwidth_bits_per_second=10e6),
    retries=6,
)

MULTI_NAMES = registry.registered_names(multi_source=True, streaming=False)
STREAMING_NAMES = registry.registered_names(streaming=True)
SINGLE_NAMES = registry.registered_names(multi_source=False)

PIPELINE_KWARGS = dict(
    coreset_size=40, total_samples=60, pca_rank=4, jl_dimension=8, batch_size=32,
)


def _kwargs_for(name: str) -> dict:
    """The subset of the merged PIPELINE_KWARGS the composition's kind takes."""
    accepted = registry.accepted_kwargs(name)
    return {key: value for key, value in PIPELINE_KWARGS.items() if key in accepted}


def _dropout_round(name: str) -> int:
    # nr-distributed completes in a single communication round, so the drop
    # must hit round 0; the multi-round protocols lose the source mid-way.
    return 0 if name == "nr-distributed" else 1


def _run(name: str, points, network_seed: int = 99, drop: bool = True):
    fault_plan = (
        FaultPlan(dropout={"source-1": _dropout_round(name)}) if drop else None
    )
    pipeline = registry.create_pipeline(
        name,
        k=3,
        seed=123,
        network=CHAOS_CONDITION,
        fault_plan=fault_plan,
        network_seed=network_seed,
        **_kwargs_for(name),
    )
    if registry.is_multi_source(name):
        return pipeline.run_on_dataset(points, num_sources=NUM_SOURCES,
                                       partition_seed=7)
    return pipeline.run(points)


def _report_signature(report):
    """Everything that must be identical between same-seed degraded runs."""
    return (
        report.centers.tobytes(),
        report.communication_scalars,
        report.communication_bits,
        report.participating_sources,
        report.failed_sources,
        report.retransmissions,
        report.messages_lost,
        round(report.simulated_network_seconds, 12),
        tuple(sorted((report.tag_scalars or {}).items())),
    )


@pytest.mark.parametrize("name", MULTI_NAMES + STREAMING_NAMES)
class TestChaosMultiSource:
    def test_completes_and_flags_degraded_participation(self, name, blob_points):
        report = _run(name, blob_points)
        assert np.all(np.isfinite(report.centers))
        assert report.centers.shape[0] == 3
        # The dropped source must be visible in the report.
        assert report.failed_sources >= 1
        assert report.participating_sources < NUM_SOURCES
        assert report.participating_sources >= 1
        assert report.degraded
        # 20% loss on every link forces visible retransmissions.
        assert report.retransmissions > 0
        assert report.messages_lost > 0
        assert report.messages_lost >= report.retransmissions
        assert report.simulated_network_seconds > 0.0

    def test_identical_seed_identical_degraded_report(self, name, blob_points):
        first = _report_signature(_run(name, blob_points))
        second = _report_signature(_run(name, blob_points))
        assert first == second

    def test_different_network_seed_changes_loss_pattern_only(self, name, blob_points):
        # Different loss draws may change retry counts, yet the run still
        # terminates with a valid degraded report.
        report = _run(name, blob_points, network_seed=12345)
        assert np.all(np.isfinite(report.centers))
        assert report.failed_sources >= 1


@pytest.mark.parametrize("name", SINGLE_NAMES)
class TestChaosSingleSource:
    def test_completes_under_loss(self, name, blob_points):
        # One source cannot drop out (there would be no protocol left), but
        # its link is just as lossy: the run completes through retries.
        report = _run(name, blob_points, drop=False)
        assert np.all(np.isfinite(report.centers))
        assert report.participating_sources == 1
        assert report.failed_sources == 0
        assert report.messages_lost >= 0
        assert report.simulated_network_seconds > 0.0

    def test_deterministic_under_loss(self, name, blob_points):
        first = _report_signature(_run(name, blob_points, drop=False))
        second = _report_signature(_run(name, blob_points, drop=False))
        assert first == second


class TestChaosStreamingSemantics:
    def test_dropped_source_stops_contributing_batches(self, blob_points):
        ideal = registry.create_pipeline(
            "stream-fss", k=3, seed=123, **_kwargs_for("stream-fss")
        )
        healthy = ideal.run_on_dataset(blob_points, num_sources=NUM_SOURCES,
                                       partition_seed=7)
        degraded = _run("stream-fss", blob_points)
        assert degraded.details["num_batches"] < healthy.details["num_batches"]

    def test_flaky_source_recovers_and_catches_up(self, blob_points):
        # A flaky window loses steps 1-2; pending deltas ship on recovery,
        # so the source is never excluded and participation stays full.
        pipeline = registry.create_pipeline(
            "stream-fss",
            k=3,
            seed=123,
            network=CHAOS_CONDITION,
            fault_plan=FaultPlan(flaky={"source-2": (1, 3)}),
            network_seed=99,
            **_kwargs_for("stream-fss"),
        )
        report = pipeline.run_on_dataset(blob_points, num_sources=NUM_SOURCES,
                                         partition_seed=7)
        assert report.failed_sources == 0
        assert report.participating_sources == NUM_SOURCES
        assert report.details["delivery_failures"] > 0
        assert np.all(np.isfinite(report.centers))
