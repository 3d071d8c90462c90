"""The :class:`TopologyRouter`: wire sources → aggregators → server.

The router owns every streaming run's delivery schedule; the star is the
topology with no aggregators, where every source's parent is the server.
Each batch step it

1. folds ended sources' window advances into their parents (outside the
   ledger — retirements ship no payload scalars);
2. folds every live source's flushed delta into its parent;
3. walks the aggregators in ascending level order — every child has
   already emitted — folding each aggregator's upward update into *its*
   parent, so a summary reaches the server through ``hops`` metered,
   re-compressed hops within the same step;
4. charges the step's uplink delta (sources *and* aggregator hops) to the
   per-step uplink ledger, whose windowed totals a query reads in O(1).

Fault awareness: a dead aggregator takes exactly its subtree with it.  Its
descendants are marked failed (their links lead nowhere), its own last
shipped bucket stays at its parent as stale-but-valid data, and the rest
of the tree keeps streaming — a dead source's semantics one level up.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.distributed.conditions import SERVER_ID, FaultPlan
from repro.distributed.network import SimulatedNetwork
from repro.streaming.server import StreamingServer
from repro.streaming.source import SourceUpdate, StreamingSource
from repro.topology.aggregator import AggregatorNode
from repro.topology.spec import Topology, is_aggregator_id


class TopologyRouter:
    """Delivery router for one streaming run, star or tree.

    Parameters
    ----------
    topology:
        The star or tree; its source ids must match the run's sources.
    sources:
        The run's :class:`StreamingSource`\\ s in index order, already
        constructed to transmit to their topology parent.
    aggregators:
        One :class:`AggregatorNode` per ``topology.aggregator_ids``, in
        that order.
    server:
        The root fold target.
    network:
        The shared metered network.
    fault_plan:
        The run's scripted faults, consulted per step for aggregator
        dropout.
    window:
        The run's sliding window in batch steps (``None``: unwindowed).
    """

    def __init__(
        self,
        topology: Topology,
        sources: Sequence[StreamingSource],
        aggregators: Sequence[AggregatorNode],
        server: StreamingServer,
        network: SimulatedNetwork,
        fault_plan: FaultPlan,
        window: Optional[int] = None,
    ) -> None:
        self.topology = topology
        self.sources = list(sources)
        self.aggregators = list(aggregators)
        self.server = server
        self.network = network
        self.fault_plan = fault_plan
        self.window = window
        # The uplink ledger: running totals over the steps still inside the
        # window, and (windowed runs only) each step's charge queued so that
        # expiry subtracts it exactly once — O(1) amortized per query.
        self._window_scalars = self._window_bits = 0
        self._charges: Deque[Tuple[int, int, int]] = deque()
        self._aggregators_by_id: Dict[str, AggregatorNode] = {
            agg.agg_id: agg for agg in self.aggregators
        }
        self._source_index = {s.source_id: i for i, s in enumerate(self.sources)}
        self._dead_aggregators: set = set()
        # Registration handshake, one hop at a time: the server admits its
        # direct children, every aggregator admits its own.
        for child in topology.children(SERVER_ID):
            server.register(child)
        for agg in self.aggregators:
            for child in topology.children(agg.agg_id):
                agg.register(child)

    # ------------------------------------------------------------- delivery
    def _fold_into_parent(self, node_id: str, update: SourceUpdate) -> None:
        parent = self.topology.parent(node_id)
        if parent == SERVER_ID:
            self.server.fold(update)
        else:
            self._aggregators_by_id[parent].fold(update)

    def apply_faults(self, t: int) -> List[int]:
        """Kill aggregators the fault plan drops at step ``t``.

        Marks the dead aggregator and its whole subtree failed on the
        network and returns the *source indexes* newly cut off, so the
        engine stops their ingestion.  The parent keeps the dead
        aggregator's last shipped bucket — stale but valid data, exactly
        like a dead source's last summary.
        """
        severed: List[int] = []
        for agg in self.aggregators:
            if agg.agg_id in self._dead_aggregators:
                continue
            if self.fault_plan.is_permanently_down(agg.agg_id, t):
                for node in self.topology.subtree_nodes(agg.agg_id):
                    self.network.mark_failed(node)
                    if is_aggregator_id(node):
                        self._dead_aggregators.add(node)
                    else:
                        severed.append(self._source_index[node])
        return severed

    def deliver_step(self, t: int, arrivals: Sequence[Optional[object]]) -> None:
        """Run one step's transmission phase through the topology."""
        network = self.network
        # Window advances first, outside the ledger capture: an ended
        # stream still ages while others ingest — its out-of-window buckets
        # must leave the parent's view (and the query cost) in lockstep —
        # and its retirements ship no payload scalars.  A failed source
        # cannot retire anything: its last summary stays as-is.
        if self.window is not None:
            for source, batch in zip(self.sources, arrivals):
                if batch is None and not network.is_failed(source.source_id):
                    self._fold_into_parent(source.source_id, source.advance(t))
        scalars_before = network.uplink_scalars()
        bits_before = network.uplink_bits()
        for source, batch in zip(self.sources, arrivals):
            if batch is not None:
                self._fold_into_parent(source.source_id, source.flush(t))
        # Ascending level order: every child — source or lower aggregator —
        # has already emitted this step, so each hop forwards fresh data.
        for agg in self.aggregators:
            if network.is_failed(agg.agg_id):
                continue
            self._fold_into_parent(agg.agg_id, agg.emit(t))
        scalars = network.uplink_scalars() - scalars_before
        bits = network.uplink_bits() - bits_before
        self._window_scalars += scalars
        self._window_bits += bits
        if self.window is not None:
            self._charges.append((t, scalars, bits))

    def windowed_uplink(self, t: int) -> Tuple[int, int]:
        """Uplink ``(scalars, bits)`` charged to the steps inside the window
        that ends at step ``t`` — every step when unwindowed.  Steps are
        asked in non-decreasing order: an expired step leaves for good."""
        charges = self._charges
        while charges and charges[0][0] <= t - self.window:
            _, scalars, bits = charges.popleft()
            self._window_scalars -= scalars
            self._window_bits -= bits
        return self._window_scalars, self._window_bits

    # ------------------------------------------------------------ reporting
    @property
    def failed_aggregators(self) -> int:
        return len(self._dead_aggregators)

    @property
    def aggregator_seconds(self) -> float:
        """Max per-aggregator compute — the tree analogue of the paper's
        max-per-source metric (hops run serially, peers in parallel)."""
        return max((a.compute_seconds for a in self.aggregators), default=0.0)

    @property
    def total_aggregator_seconds(self) -> float:
        return sum(a.compute_seconds for a in self.aggregators)

    @property
    def aggregator_merges(self) -> int:
        return sum(a.merges for a in self.aggregators)

    @property
    def aggregator_delivery_failures(self) -> int:
        return sum(a.delivery_failures for a in self.aggregators)
