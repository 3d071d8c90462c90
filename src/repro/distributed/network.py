"""The simulated network: explicit messages with scalar/bit accounting.

The paper measures communication cost as "the number of scalars a data source
sends to the server" (Section 3.4), refined to bits once quantization enters
(Section 6/7).  The :class:`SimulatedNetwork` gives every algorithm a single
chokepoint through which all uplink (source → server) and downlink
(server → source) traffic must pass, so the metering cannot be bypassed and
per-algorithm communication numbers are directly comparable.

Beyond the ideal wire, the network can simulate unreliable edge links: a
:class:`~repro.distributed.conditions.NetworkCondition` gives every link a
Bernoulli loss probability, latency, and bandwidth (feeding the simulated
clock), and a :class:`~repro.distributed.conditions.FaultPlan` scripts node
dropout, flaky windows, and stragglers.  Every transmission *attempt* —
including lost ones and retries — is metered: bits spent on a dead link are
still bits spent.  Loss draws come from per-link generators derived via
:func:`repro.utils.random.generator_for_name`, never from global numpy state
and never from the pipeline's master generator, so under the ``ideal``
condition every pipeline is bit-identical to the loss-free implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.distributed.conditions import (
    AGGREGATOR_PREFIX,
    SERVER_ID,
    ConditionLike,
    DeliveryError,
    FaultPlan,
    LinkModel,
    NetworkCondition,
    resolve_condition,
)
from repro.quantization.bits import DOUBLE_PRECISION_BITS, bits_per_scalar
from repro.utils.random import generator_for_name


def _count_scalars(payload) -> int:
    """Number of scalar values in a message payload.

    Payloads may be numpy arrays, python/numpy scalars (including booleans —
    ``bool`` is an ``int`` subclass and ``np.bool_`` is accepted explicitly,
    so both flavours count as one scalar), or (possibly nested)
    lists/tuples/dicts of those.  ``None`` counts zero scalars wherever it
    appears — at top level or inside a container — modelling an absent
    optional field.  Any other type (strings, arbitrary objects) raises
    ``TypeError``: an unmeterable payload must never cross the wire silently.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.size)
    if isinstance(payload, (int, float, np.integer, np.floating, np.bool_)):
        return 1
    if isinstance(payload, dict):
        return sum(_count_scalars(v) for v in payload.values())
    if isinstance(payload, (list, tuple)):
        return sum(_count_scalars(v) for v in payload)
    raise TypeError(f"unsupported payload type {type(payload)!r}")


@dataclass(frozen=True)
class Message:
    """One transmission between a data source and the server.

    Attributes
    ----------
    sender, receiver:
        Node identifiers; the server is ``"server"`` and sources are
        ``"source-<i>"``.
    tag:
        Human-readable label describing what was sent (e.g. ``"coreset"``,
        ``"local-svd"``, ``"sample-size"``).
    scalars:
        Number of scalar values in the payload.
    bits_per_value:
        Precision of each transmitted scalar (64 unless quantized).
    delivered:
        False when the simulated link dropped this attempt (the bits were
        still spent on the wire and count toward the totals).
    attempt:
        0 for the first transmission of a payload, ``i`` for its ``i``-th
        retransmission.
    simulated_seconds:
        Time this attempt occupied its link on the simulated clock
        (``latency + bits / bandwidth``, times any straggler factor).
    """

    sender: str
    receiver: str
    tag: str
    scalars: int
    bits_per_value: int = DOUBLE_PRECISION_BITS
    delivered: bool = True
    attempt: int = 0
    simulated_seconds: float = 0.0

    @property
    def bits(self) -> int:
        return self.scalars * self.bits_per_value

    @property
    def uplink(self) -> bool:
        """True if the message flows upward toward the server.

        In a star topology that means ``receiver == "server"``; in a tree
        topology every hop into an aggregator is upward-bound too — bits
        spent on an intermediate hop are still bits spent, so per-hop
        traffic counts toward the headline communication totals.
        """
        return self.receiver == SERVER_ID or self.receiver.startswith(
            AGGREGATOR_PREFIX
        )


@dataclass
class TransmissionLog:
    """Aggregated view over a sequence of messages.

    The headline totals (``total_scalars`` / ``total_bits``) are maintained
    incrementally as messages are recorded, so they are O(1) to read.  The
    streaming engine polls them around every per-source fold to build its
    per-step ledger; with the totals recomputed from scratch each poll the
    whole run would be quadratic in the message count — fatal at thousands
    of sources.  The per-tag / per-sender breakdowns stay lazy (computed
    once per report).
    """

    messages: List[Message] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._all_scalars = 0
        self._all_bits = 0
        self._uplink_scalars = 0
        self._uplink_bits = 0
        for message in self.messages:
            self._tally(message)

    def _tally(self, message: Message) -> None:
        self._all_scalars += message.scalars
        self._all_bits += message.bits
        if message.uplink:
            self._uplink_scalars += message.scalars
            self._uplink_bits += message.bits

    def record(self, message: Message) -> None:
        self.messages.append(message)
        self._tally(message)

    # ------------------------------------------------------------- queries
    def total_scalars(self, uplink_only: bool = True) -> int:
        return self._uplink_scalars if uplink_only else self._all_scalars

    def total_bits(self, uplink_only: bool = True) -> int:
        return self._uplink_bits if uplink_only else self._all_bits

    def scalars_by_tag(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for m in self.messages:
            out[m.tag] = out.get(m.tag, 0) + m.scalars
        return out

    def scalars_by_sender(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for m in self.messages:
            out[m.sender] = out.get(m.sender, 0) + m.scalars
        return out

    # ------------------------------------------------- reliability queries
    def delivered_scalars(self, uplink_only: bool = True) -> int:
        """Scalars that actually arrived (excludes lost attempts)."""
        return sum(
            m.scalars
            for m in self.messages
            if m.delivered and (m.uplink or not uplink_only)
        )

    def lost_messages(self) -> int:
        """Number of transmission attempts the simulated links dropped."""
        return sum(1 for m in self.messages if not m.delivered)

    def retransmissions(self) -> int:
        """Number of retry attempts (messages beyond each payload's first)."""
        return sum(1 for m in self.messages if m.attempt > 0)

    # --------------------------------------------------- simulated clock
    def simulated_seconds_by_sender(self) -> Dict[str, float]:
        """Simulated link time spent per sending node (all attempts)."""
        out: Dict[str, float] = {}
        for m in self.messages:
            out[m.sender] = out.get(m.sender, 0.0) + m.simulated_seconds
        return out

    def simulated_wall_seconds(self) -> float:
        """Simulated wall-clock time of the whole transmission schedule.

        Each node serialises its own messages on its own link, and links run
        in parallel, so the wall time is the per-sender maximum — the
        network-time analogue of the paper's max-per-source compute metric.
        """
        per_sender = self.simulated_seconds_by_sender()
        return max(per_sender.values(), default=0.0)

    def __len__(self) -> int:
        return len(self.messages)


class SimulatedNetwork:
    """In-process network connecting data sources to the edge server.

    All algorithm code transmits through :meth:`send`, which records the
    message and returns the payload unchanged (the "wire" is the python call
    stack).  Quantized payloads declare their reduced ``significant_bits`` so
    the bit accounting matches what a real deployment would send.

    Parameters
    ----------
    condition:
        A :class:`~repro.distributed.conditions.NetworkCondition`, a preset
        name (``"ideal"``, ``"lossy"``, ``"edge-wan"``), or ``None`` for the
        ideal wire.  Under a non-ideal condition :meth:`send` may need
        several metered attempts per payload and raises
        :class:`~repro.distributed.conditions.DeliveryError` when the retry
        budget runs out.
    fault_plan:
        Optional scripted node failures (dropout / flaky / stragglers),
        evaluated against :attr:`round` — protocol drivers advance the round
        counter as their phases progress.
    """

    def __init__(
        self,
        condition: ConditionLike = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.condition = resolve_condition(condition)
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self.log = TransmissionLog()
        #: Current protocol round, consulted by the fault plan.
        self.round = 0
        #: Nodes permanently excluded from the rest of the run (dropped out,
        #: or protocol-level give-up after a delivery failure).
        self.failed_nodes: Set[str] = set()
        self._links: Dict[str, LinkModel] = {}
        self._loss_rngs: Dict[str, np.random.Generator] = {}

    # ----------------------------------------------------------- fault state
    def advance_round(self, to_round: Optional[int] = None) -> int:
        """Advance the protocol round the fault plan is evaluated against."""
        self.round = self.round + 1 if to_round is None else int(to_round)
        return self.round

    def mark_failed(self, node_id: str) -> None:
        """Permanently exclude a node from the rest of the run."""
        self.failed_nodes.add(str(node_id))

    def is_failed(self, node_id: str) -> bool:
        return node_id in self.failed_nodes

    def node_is_down(self, node_id: str) -> bool:
        """True when the node cannot transmit or receive right now."""
        return node_id in self.failed_nodes or self.fault_plan.is_down(
            node_id, self.round
        )

    def participating(self, nodes):
        """Filter nodes (objects with ``.node_id``) to those still up.

        One-shot protocol drivers call this at the start of every phase: a
        node that is down when a phase needs it cannot contribute to this
        run any more, so it is marked failed (permanently for the run) and
        dropped from the returned list.
        """
        active = []
        for node in nodes:
            if self.node_is_down(node.node_id):
                self.mark_failed(node.node_id)
            else:
                active.append(node)
        return active

    def _link_for(self, node_id: str) -> LinkModel:
        link = self._links.get(node_id)
        if link is None:
            link = self.condition.link_for(node_id)
            self._links[node_id] = link
        return link

    def _loss_rng(self, node_id: str) -> np.random.Generator:
        rng = self._loss_rngs.get(node_id)
        if rng is None:
            # Derived from (condition seed, link name) — independent of both
            # global numpy state and the pipeline's master generator, and of
            # every other link's draw sequence (jobs=1 ≡ jobs=N).
            rng = generator_for_name(int(self.condition.seed), f"loss:{node_id}")
            self._loss_rngs[node_id] = rng
        return rng

    def send(
        self,
        sender: str,
        receiver: str,
        payload,
        tag: str = "data",
        significant_bits: Optional[int] = None,
    ):
        """Transmit ``payload`` and record the cost.

        Parameters
        ----------
        sender, receiver:
            Node identifiers.
        payload:
            The transmitted object (returned unchanged on delivery).
        tag:
            Label for the accounting breakdown.
        significant_bits:
            If the payload was quantized, the retained significand bits;
            determines ``bits_per_value``.

        Raises
        ------
        DeliveryError
            When the source-side endpoint is down per the fault plan (or was
            marked failed), or when every attempt within the condition's
            retry budget was lost.  Lost attempts are metered; a down
            endpoint transmits nothing.
        """
        self._transmit(sender, receiver, [(tag, payload, significant_bits)])
        return payload

    def send_many(
        self,
        sender: str,
        receiver: str,
        parts: Iterable[Tuple[str, object, Optional[int]]],
    ) -> None:
        """Transmit several payloads over one link in one batched call.

        ``parts`` is a sequence of ``(tag, payload, significant_bits)``
        tuples.  The recorded message sequence — counts, precisions, loss
        draws, simulated seconds — is bit-identical to calling :meth:`send`
        once per part in order; the batching only resolves the endpoint,
        link and fault plan once for all parts, which is what keeps
        per-step transmission affordable at thousands of sources.

        Raises :class:`DeliveryError` on the first part that cannot be
        delivered (earlier parts' attempts are already metered); all-or-
        nothing semantics stay with the caller, exactly as with
        sequential sends.
        """
        self._transmit(sender, receiver, list(parts))

    def _transmit(
        self,
        sender: str,
        receiver: str,
        parts: List[Tuple[str, object, Optional[int]]],
    ) -> None:
        """The one transmit loop behind :meth:`send` and :meth:`send_many`:
        every attempt of every part is metered, each part retries up to the
        condition's budget."""
        # The source-side endpoint owns the link (the server sits behind
        # every link's other end).
        endpoint = receiver if sender == SERVER_ID else sender
        if self.node_is_down(endpoint):
            first_tag = parts[0][0] if parts else "data"
            raise DeliveryError(sender, receiver, first_tag, f"{endpoint} is down")

        link = self._link_for(endpoint)
        delay = self.fault_plan.delay_factor(endpoint)
        loss_rng = self._loss_rng(endpoint) if link.loss > 0.0 else None
        budget = self.condition.retries
        record = self.log.record

        for tag, payload, significant_bits in parts:
            count = _count_scalars(payload)
            bits_per_value = bits_per_scalar(significant_bits)
            seconds = link.transmission_seconds(count * bits_per_value) * delay
            for attempt in range(budget + 1):
                lost = loss_rng is not None and bool(
                    loss_rng.random() < link.loss
                )
                record(
                    Message(
                        sender=sender,
                        receiver=receiver,
                        tag=tag,
                        scalars=count,
                        bits_per_value=bits_per_value,
                        delivered=not lost,
                        attempt=attempt,
                        simulated_seconds=seconds,
                    )
                )
                if not lost:
                    break
            else:
                raise DeliveryError(
                    sender, receiver, tag,
                    f"lost after {budget + 1} attempts (loss={link.loss:g})",
                )

    # Convenience wrappers ---------------------------------------------------
    def uplink_scalars(self) -> int:
        """Total scalars sent from data sources to the server (all attempts —
        bits spent on lost messages and retries are still bits spent)."""
        return self.log.total_scalars(uplink_only=True)

    def uplink_bits(self) -> int:
        """Total bits sent from data sources to the server."""
        return self.log.total_bits(uplink_only=True)

    def retransmissions(self) -> int:
        """Retry attempts recorded so far (0 on an ideal network)."""
        return self.log.retransmissions()

    def lost_messages(self) -> int:
        """Transmission attempts dropped by the simulated links."""
        return self.log.lost_messages()

    def simulated_seconds(self) -> float:
        """Simulated transmission wall-time (max over per-link serial time)."""
        return self.log.simulated_wall_seconds()

    def reset(self) -> None:
        self.log = TransmissionLog()
        self.round = 0
        self.failed_nodes = set()
        self._links = {}
        self._loss_rngs = {}


def deliver_round(
    network: SimulatedNetwork,
    entries: Iterable[tuple],
    send: Callable[..., object],
    nothing_arrived: str,
) -> List[tuple]:
    """Run one round of a one-shot protocol under its fault policy.

    ``entries`` are tuples whose first item is the source at the far end of
    the transmission, and ``send(*entry)`` transmits one of them; entries go
    out in order, so the metering is deterministic.  A source whose
    transmission raises :class:`DeliveryError` (it is down, or every attempt
    of its retry budget was lost) is marked failed for the rest of the run
    and dropped.  The round then advances and the delivered entries are
    returned in order; when none was delivered the round raises
    ``RuntimeError(nothing_arrived)``.
    """
    delivered = []
    for entry in entries:
        try:
            send(*entry)
        except DeliveryError:
            network.mark_failed(entry[0].node_id)
            continue
        delivered.append(entry)
    network.advance_round()
    if not delivered:
        raise RuntimeError(nothing_arrived)
    return delivered
