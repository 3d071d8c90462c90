"""Network conditions: link models, fault plans, and named presets.

The paper meters communication over an ideal in-process network, but its
edge-deployment setting is exactly where links are lossy, sources straggle,
and nodes drop mid-protocol.  This module describes *how* a simulated
deployment misbehaves; :class:`~repro.distributed.network.SimulatedNetwork`
consumes these descriptions to decide, deterministically per seed, which
transmissions are lost, how long each one takes on the simulated clock, and
which nodes are unreachable at a given protocol round.

Three orthogonal pieces:

* :class:`LinkModel` — per-link Bernoulli message loss plus bandwidth and
  latency parameters feeding the simulated-time metric;
* :class:`FaultPlan` — scripted node failures: permanent dropout at a given
  round, flaky-then-recover windows, and straggler delay factors;
* :class:`NetworkCondition` — a named bundle of link defaults, per-node
  overrides, deterministic heterogeneity, and a retry budget.  The presets
  in :data:`NETWORK_PRESETS` (``ideal``, ``lossy``, ``edge-wan``) are the
  registry/CLI-facing entry points.

Determinism contract: nothing here owns random state.  Loss draws and
heterogeneity jitter are produced by generators derived via
:func:`repro.utils.random.generator_for_name` from ``(condition seed, link
name)``, so per-link streams are independent of the transmission schedule —
``jobs=1`` and ``jobs=N`` runs see identical losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple, Union

from repro.utils.random import generator_for_name
from repro.utils.validation import check_fraction, check_integer

#: Node identifier of the edge server (the uplink receiver).
SERVER_ID = "server"

#: Node-id prefix of mid-tree aggregators (``"agg-<level>-<index>"``).
#: Traffic *into* an aggregator is upward-bound and counts as uplink.
AGGREGATOR_PREFIX = "agg-"


class DeliveryError(RuntimeError):
    """A transmission could not be delivered within its retry budget.

    Raised by :meth:`SimulatedNetwork.send` after the last attempt was lost,
    or immediately when an endpoint is down per the fault plan.  Protocol
    drivers catch it to exclude the affected source from the current round.
    """

    def __init__(self, sender: str, receiver: str, tag: str, reason: str) -> None:
        self.sender = sender
        self.receiver = receiver
        self.tag = tag
        self.reason = reason
        super().__init__(
            f"delivery failed {sender} -> {receiver} ({tag}): {reason}"
        )


@dataclass(frozen=True)
class LinkModel:
    """Quality parameters of one (node ↔ server) link.

    Attributes
    ----------
    loss:
        Per-message Bernoulli loss probability (each retry attempt draws
        independently).
    latency_seconds:
        Fixed per-message propagation delay on the simulated clock.
    bandwidth_bits_per_second:
        Link throughput; ``inf`` models an infinitely fast wire (the seed
        behaviour).  Transmission time is ``latency + bits / bandwidth``.
    """

    loss: float = 0.0
    latency_seconds: float = 0.0
    bandwidth_bits_per_second: float = math.inf

    def __post_init__(self) -> None:
        if not 0.0 <= float(self.loss) < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {self.loss}")
        if self.latency_seconds < 0:
            raise ValueError("latency_seconds must be non-negative")
        if self.bandwidth_bits_per_second <= 0:
            raise ValueError("bandwidth_bits_per_second must be positive")

    def transmission_seconds(self, bits: int) -> float:
        """Simulated wall-time one message of ``bits`` occupies this link."""
        if math.isinf(self.bandwidth_bits_per_second):
            return float(self.latency_seconds)
        return float(self.latency_seconds) + float(bits) / float(
            self.bandwidth_bits_per_second
        )

    @property
    def is_ideal(self) -> bool:
        return (
            self.loss == 0.0
            and self.latency_seconds == 0.0
            and math.isinf(self.bandwidth_bits_per_second)
        )


@dataclass(frozen=True)
class FaultPlan:
    """Scripted node failures, keyed by node id and protocol round.

    Attributes
    ----------
    dropout:
        ``node id -> round``: the node fails permanently at the *start* of
        that round (0-based); every send from or to it afterwards raises
        :class:`DeliveryError`.
    flaky:
        ``node id -> (down_from, up_at)``: the node is unreachable during
        rounds ``[down_from, up_at)`` and then recovers.  One-shot protocols
        treat an unreachable source like a dropout for the current run;
        streaming protocols skip the affected steps and resume.
    stragglers:
        ``node id -> factor``: multiplies the node's simulated link time
        (a factor of 3 models a device on a 3× slower/busier link).
    """

    dropout: Dict[str, int] = field(default_factory=dict)
    flaky: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    stragglers: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for node, at_round in self.dropout.items():
            if int(at_round) < 0:
                raise ValueError(f"dropout round for {node!r} must be >= 0")
        for node, (down, up) in self.flaky.items():
            if not 0 <= int(down) < int(up):
                raise ValueError(
                    f"flaky window for {node!r} must satisfy 0 <= down < up"
                )
        for node, factor in self.stragglers.items():
            if float(factor) < 1.0:
                raise ValueError(f"straggler factor for {node!r} must be >= 1")

    # -------------------------------------------------------------- queries
    def is_permanently_down(self, node_id: str, round_index: int) -> bool:
        at = self.dropout.get(node_id)
        return at is not None and round_index >= int(at)

    def is_down(self, node_id: str, round_index: int) -> bool:
        """True when the node is unreachable at this round (either kind)."""
        if self.is_permanently_down(node_id, round_index):
            return True
        window = self.flaky.get(node_id)
        return window is not None and int(window[0]) <= round_index < int(window[1])

    def delay_factor(self, node_id: str) -> float:
        return float(self.stragglers.get(node_id, 1.0))


@dataclass(frozen=True)
class NetworkCondition:
    """A named bundle of link quality, heterogeneity, and retry budget.

    Attributes
    ----------
    name:
        Preset / display name (``"ideal"``, ``"lossy"``, ``"edge-wan"`` or a
        custom label).
    default_link:
        Link model used for every node without an explicit override.
    link_overrides:
        Per-node :class:`LinkModel` replacements.
    retries:
        Retransmission budget per message: a send makes up to ``retries + 1``
        attempts before raising :class:`DeliveryError`.  Every attempt is
        metered — retries are real communication cost.
    heterogeneity:
        ``>= 0``; when positive, each node's bandwidth and latency are
        jittered deterministically (per node, from the condition seed) by a
        log-uniform factor in ``[1/(1+h), 1+h]``, modelling a fleet of
        devices on unequal links.
    seed:
        Base seed for loss draws and heterogeneity jitter.  Per-link
        generators are derived from ``(seed, link name)`` via
        :func:`repro.utils.random.generator_for_name` — never from global
        numpy state and never from the pipeline's master generator, so the
        algorithmic sampling sequence is untouched by network randomness.
    """

    name: str = "ideal"
    default_link: LinkModel = field(default_factory=LinkModel)
    link_overrides: Dict[str, LinkModel] = field(default_factory=dict)
    retries: int = 0
    heterogeneity: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if int(self.retries) < 0:
            raise ValueError("retries must be non-negative")
        if float(self.heterogeneity) < 0:
            raise ValueError("heterogeneity must be non-negative")

    # -------------------------------------------------------------- queries
    def link_for(self, node_id: str) -> LinkModel:
        """Resolve the effective link model of one node."""
        link = self.link_overrides.get(node_id, self.default_link)
        if self.heterogeneity <= 0 or node_id == SERVER_ID:
            return link
        rng = generator_for_name(int(self.seed), f"link-jitter:{node_id}")
        span = math.log1p(float(self.heterogeneity))
        bandwidth_factor = math.exp(rng.uniform(-span, span))
        latency_factor = math.exp(rng.uniform(-span, span))
        bandwidth = link.bandwidth_bits_per_second
        if not math.isinf(bandwidth):
            bandwidth = bandwidth * bandwidth_factor
        return replace(
            link,
            bandwidth_bits_per_second=bandwidth,
            latency_seconds=link.latency_seconds * latency_factor,
        )

    @property
    def is_ideal(self) -> bool:
        """True when no loss is possible on any link (delivery guaranteed)."""
        return self.default_link.loss == 0.0 and all(
            link.loss == 0.0 for link in self.link_overrides.values()
        )

    # ------------------------------------------------------------- builders
    def with_overrides(
        self,
        loss: Optional[float] = None,
        retries: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> "NetworkCondition":
        """Return a copy with CLI-style scalar overrides applied.

        ``retries`` and ``seed`` must be integers: a float would be
        truncated, a bool read as 0 or 1.
        """
        condition = self
        if loss is not None:
            check_fraction(loss, "loss", low=0.0, inclusive_low=True)
            condition = replace(
                condition,
                default_link=replace(condition.default_link, loss=float(loss)),
                link_overrides={
                    node: replace(link, loss=float(loss))
                    for node, link in condition.link_overrides.items()
                },
            )
        if retries is not None:
            condition = replace(condition, retries=check_integer(retries, "retries"))
        if seed is not None:
            condition = replace(condition, seed=check_integer(seed, "seed"))
        return condition


def _ideal() -> NetworkCondition:
    return NetworkCondition(name="ideal")


def _lossy() -> NetworkCondition:
    return NetworkCondition(
        name="lossy",
        default_link=LinkModel(
            loss=0.2, latency_seconds=0.02, bandwidth_bits_per_second=10e6
        ),
        retries=5,
    )


def _edge_wan() -> NetworkCondition:
    return NetworkCondition(
        name="edge-wan",
        default_link=LinkModel(
            loss=0.05, latency_seconds=0.08, bandwidth_bits_per_second=2e6
        ),
        retries=3,
        heterogeneity=3.0,
    )


#: Named condition factories surfaced by the registry and the CLI.
NETWORK_PRESETS = {
    "ideal": _ideal,
    "lossy": _lossy,
    "edge-wan": _edge_wan,
}

ConditionLike = Union[None, str, NetworkCondition]


def resolve_condition(condition: ConditionLike) -> NetworkCondition:
    """Normalise a condition argument: ``None`` → ideal, str → preset."""
    if condition is None:
        return _ideal()
    if isinstance(condition, NetworkCondition):
        return condition
    key = str(condition).lower()
    try:
        return NETWORK_PRESETS[key]()
    except KeyError:
        raise KeyError(
            f"unknown network preset {condition!r}; available: "
            f"{', '.join(sorted(NETWORK_PRESETS))}"
        ) from None


__all__ = [
    "SERVER_ID",
    "AGGREGATOR_PREFIX",
    "DeliveryError",
    "LinkModel",
    "FaultPlan",
    "NetworkCondition",
    "NETWORK_PRESETS",
    "ConditionLike",
    "resolve_condition",
]
