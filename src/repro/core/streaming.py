"""The streaming execution engine: batched arrivals, continuous queries.

:class:`StreamingEngine` is the online counterpart of
:class:`~repro.core.engine.DistributedStagePipeline`: the same declarative
stage composition, the same metered :class:`SimulatedNetwork`, the same
report contract — but each source ingests its shard as a sequence of
timestamped batches, keeps a bounded-memory merge-and-reduce
:class:`~repro.streaming.tree.CoresetTree`, and ships only incremental
summaries; the server folds them and answers weighted k-means queries at any
point in the stream.

Protocol sequence
-----------------
1. **Dimension pinning** — JL stages with derived target dimensions are
   pinned against the first batch, so every batch of every source is
   projected into the *same* space and summaries stay mergeable.
2. **Seed handshake** — once for the whole stream, as in the one-shot
   engine: data-oblivious DR maps are deployment configuration.
3. **Batch steps** — at step ``t`` every source ingests its ``t``-th batch
   (timed), updates its tree, and uplinks its bucket delta (metered, with a
   per-step ledger so windowed accounting can drop expired batches).
4. **Queries** — every ``query_every`` steps (and always at end-of-stream)
   the server merges live buckets, solves weighted k-means, and the engine
   lifts centers back; each query is recorded as a :class:`QuerySnapshot`.

In sliding-window mode (``window=W`` batches) expired buckets leave the
trees, the server view, *and* the accounting: the report's headline
communication counts only bits shipped for batches still inside the window,
and the query cost reflects only unexpired data.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import DistributedStagePipeline
from repro.core.report import PipelineReport
from repro.datasets.streams import _batches
from repro.distributed.conditions import (
    ConditionLike,
    FaultPlan,
    resolve_condition,
)
from repro.distributed.network import SimulatedNetwork
from repro.quantization.rounding import RoundingQuantizer
from repro.stages.base import Stage, StageContext
from repro.stages.dr import JLStage
from repro.stages.qt import QuantizeStage
from repro.stages.sizing import resolve_coreset_size
from repro.streaming.server import StreamingServer
from repro.streaming.source import StreamingSource
from repro.topology.aggregator import AggregatorNode
from repro.topology.router import TopologyRouter
from repro.topology.spec import Topology, TopologyLike, resolve_topology
from repro.utils.parallel import parallel_map, resolve_jobs
from repro.utils.random import SeedLike, as_generator, derive_seed, spawn_generators
from repro.utils.validation import (
    check_fraction,
    check_matrix,
    check_positive_int,
)


@dataclass
class QuerySnapshot:
    """One continuous-query answer taken mid-stream.

    ``scalars``/``bits`` are cumulative uplink totals at query time;
    ``windowed_scalars``/``windowed_bits`` count only the uplink attributable
    to batches still inside the sliding window (equal to the cumulative
    totals when the stream is unwindowed).
    """

    time: int
    centers: np.ndarray
    summary_cardinality: int
    summary_dimension: int
    scalars: int
    bits: int
    windowed_scalars: int
    windowed_bits: int
    live_buckets: int
    server_seconds: float


@dataclass
class StreamingReport(PipelineReport):
    """A :class:`PipelineReport` plus the stream's per-query history."""

    queries: List[QuerySnapshot] = field(default_factory=list)


@dataclass
class _ShapeState:
    """Shape-only stand-in for a SourceState during dimension pinning."""

    cardinality: int
    dimension: int
    is_raw: bool


class StreamingEngine(DistributedStagePipeline):
    """Execute a stage composition as an online streaming protocol.

    Parameters
    ----------
    stages:
        The composition applied to every batch; must contain exactly one CR
        stage (the first one found is also the tree's merge-and-reduce
        compressor).
    k, epsilon, delta:
        Clustering problem parameters (same contract as StagePipeline).
    batch_size:
        Rows per batch when :meth:`run` slices shards into streams.
    window:
        Optional sliding window, in batches.  ``None`` streams the full
        prefix.
    query_every:
        Answer a k-means query every this many batch steps (the final step
        always answers one).  ``None`` queries only at end-of-stream.
    quantizer:
        Optional wire quantizer; sugar for appending a
        :class:`~repro.stages.qt.QuantizeStage`.
    server_n_init, server_max_iterations:
        Per-query weighted k-means solver parameters.
    seed:
        Master seed for the whole stream (handshake, samplers, solver).
        Each source gets its own generator pre-derived from it, so results
        are independent of the execution schedule (``jobs``).
    jobs:
        Worker threads for the per-source batch-compression steps (1 =
        sequential, 0 = all cores, ``None`` = ``REPRO_JOBS``).  Reports are
        identical for every value — only wall-clock changes.
    network, fault_plan, retries, network_seed:
        Simulated-network condition, scripted faults, retry-budget override,
        and loss-seed override.  In streaming mode the fault plan's rounds
        are *batch steps*: a dropout at round ``t`` removes the source from
        step ``t`` onwards (its last shipped summary stays at the server), a
        flaky window ``[a, b)`` makes steps ``a..b-1`` undeliverable — the
        source keeps compressing locally and ships the pending bucket delta
        once the link recovers.  Fault plans may also name aggregators
        (``"agg-<level>-<index>"``): a dead aggregator severs exactly its
        subtree, the rest of the tree keeps streaming.
    topology, fan_in:
        Aggregation topology.  ``None`` / ``"star"`` is the paper's flat
        source → server fold; ``"tree"`` folds sources through a balanced
        aggregator tree with ``fan_in`` children per node (each hop a
        metered coreset merge + re-reduce); a
        :class:`~repro.topology.spec.Topology` instance pins an explicit
        shape.  Every shape, the star included, runs through one
        :class:`~repro.topology.router.TopologyRouter`; only a tree's
        report carries topology details.  Random draws keep a fixed
        order: the stream-wide handshake, the server seed, the source
        generators, then aggregator generators only when there are
        aggregators.
    """

    name: str = "streaming"

    def __init__(
        self,
        stages: Sequence[Stage],
        *,
        k: int,
        epsilon: float = 0.2,
        delta: float = 0.1,
        batch_size: int = 512,
        window: Optional[int] = None,
        query_every: Optional[int] = None,
        quantizer: Optional[RoundingQuantizer] = None,
        server_n_init: int = 5,
        server_max_iterations: int = 100,
        seed: SeedLike = None,
        name: Optional[str] = None,
        jobs: Optional[int] = None,
        network: ConditionLike = None,
        fault_plan: Optional[FaultPlan] = None,
        retries: Optional[int] = None,
        network_seed: Optional[int] = None,
        topology: TopologyLike = None,
        fan_in: Optional[int] = None,
    ) -> None:
        # Deliberately does not call the distributed pipeline's __init__:
        # streaming merges summaries single-source-style, so epsilon is not
        # subject to the 1/3 cap of the BKLW analysis.
        self.k = check_positive_int(k, "k")
        self.epsilon = check_fraction(epsilon, "epsilon")
        self.delta = check_fraction(delta, "delta")
        self.batch_size = check_positive_int(batch_size, "batch_size")
        self.window = None if window is None else check_positive_int(window, "window")
        self.query_every = (
            None if query_every is None else check_positive_int(query_every, "query_every")
        )
        self.quantizer = quantizer
        self.server_n_init = check_positive_int(server_n_init, "server_n_init")
        self.server_max_iterations = check_positive_int(
            server_max_iterations, "server_max_iterations"
        )
        self.jobs = resolve_jobs(jobs)
        self.network_condition = resolve_condition(network).with_overrides(
            retries=retries, seed=network_seed
        )
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self.topology = topology
        self.fan_in = None if fan_in is None else check_positive_int(fan_in, "fan_in")
        self._rng = as_generator(seed)
        self.stages = tuple(stages)
        if name is not None:
            self.name = str(name)

    # ------------------------------------------------------------------ API
    def run(self, shards: Sequence[np.ndarray]) -> StreamingReport:
        """Stream per-source shards in ``batch_size`` batches (arrival order
        = storage order) and return the end-of-stream report."""
        shards = [check_matrix(s, "shard") for s in shards]
        if not shards:
            raise ValueError("at least one shard is required")
        # The shards are validated: their batches are sliced, not re-checked.
        return self._run_batches([
            _batches(s, self.batch_size, np.arange(s.shape[0])) for s in shards
        ])

    def run_streams(
        self, streams: Sequence[Iterable[np.ndarray]]
    ) -> StreamingReport:
        """Execute the streaming protocol over one batch iterator per source.

        Each batch is validated once, as its stream yields it.
        """
        if not streams:
            raise ValueError("at least one batch stream is required")
        return self._run_batches([
            (check_matrix(batch, "batch") for batch in stream) for stream in streams
        ])

    def _run_batches(self, iterators: List[Iterator[np.ndarray]]) -> StreamingReport:
        """The protocol over one iterator of validated batches per source."""
        # Resolve the aggregation topology against the actual source count
        # before any random draws, so configuration errors surface eagerly.
        topology = resolve_topology(
            self.topology, self.fan_in, len(iterators)
        ) or Topology.star(len(iterators))

        first_batch = next(iterators[0], None)
        if first_batch is None:
            raise ValueError("the first stream yielded no batches")
        iterators[0] = itertools.chain([first_batch], iterators[0])
        stages, reduce_stage = self._start_stream(first_batch.shape)

        network = SimulatedNetwork(
            condition=self.network_condition, fault_plan=self.fault_plan
        )
        server = StreamingServer(
            k=self.k,
            n_init=self.server_n_init,
            max_iterations=self.server_max_iterations,
            seed=derive_seed(self._rng),
        )
        # Every source draws from its own generator, pre-derived from the
        # master seed in source order: the per-batch sampler seeds are then
        # independent of the execution schedule, which is what lets the
        # compression steps run on a thread pool without losing determinism
        # (jobs=1 and jobs=N produce identical reports).
        source_rngs = spawn_generators(self._rng, len(iterators))
        sources = [
            StreamingSource(
                source_id,
                stages,
                reduce_stage,
                self._context(rng),
                network,
                window=self.window,
                receiver=topology.parent(source_id),
            )
            for source_id, rng in zip(topology.source_ids, source_rngs)
        ]
        # Aggregator generators are drawn last, and only when there are
        # aggregators, so a star's draws do not depend on tree support.
        num_aggregators = topology.num_aggregators
        agg_rngs = (
            spawn_generators(self._rng, num_aggregators) if num_aggregators else []
        )
        wire_quantizer = next(
            (s.quantizer for s in stages if isinstance(s, QuantizeStage)), None
        )
        aggregators = [
            AggregatorNode(
                agg_id,
                topology.parent(agg_id),
                topology.level(agg_id),
                reduce_stage,
                self._context(rng),
                network,
                quantizer=wire_quantizer,
            )
            for agg_id, rng in zip(topology.aggregator_ids, agg_rngs)
        ]
        router = TopologyRouter(
            topology, sources, aggregators, server, network, self.fault_plan,
            self.window,
        )

        queries: List[QuerySnapshot] = []
        exhausted = [False] * len(iterators)
        # One long-lived pool for the whole stream: the compress phase runs
        # once per batch step, and per-step pool setup/teardown would eat
        # the speed-up on long streams of small batches.
        executor = (
            ThreadPoolExecutor(max_workers=min(self.jobs, len(iterators)))
            if self.jobs > 1 and len(iterators) > 1
            else None
        )
        try:
            t = self._stream_steps(
                iterators, router, queries, exhausted, executor
            )
        finally:
            if executor is not None:
                executor.shutdown(wait=True)

        if t == 0:
            raise ValueError("the streams yielded no batches")
        last_step = t - 1
        if not queries or queries[-1].time != last_step:
            queries.append(self._query(router, last_step))

        return self._report(router, queries, t)

    def _stream_steps(
        self, iterators, router, queries, exhausted, executor
    ) -> int:
        """Drive the batch-step loop; returns the number of steps taken."""
        network, sources = router.network, router.sources
        t = 0
        while not all(exhausted):
            # Stream time is the fault plan's round clock: dropouts and
            # flaky windows are evaluated against the batch step.
            network.advance_round(to_round=t)
            for i, source in enumerate(sources):
                if not exhausted[i] and self.fault_plan.is_permanently_down(
                    source.source_id, t
                ):
                    # The node died: it stops ingesting; its last shipped
                    # summary stays at its parent (stale but valid data).
                    network.mark_failed(source.source_id)
                    exhausted[i] = True
            # A dead aggregator severs exactly its subtree: descendant
            # sources stop ingesting, its parent keeps its last bucket.
            for i in router.apply_faults(t):
                exhausted[i] = True
            # Gather this step's arrivals first: the loop must end *before*
            # stream time advances past the last real batch step, otherwise
            # sliding-window expiry would run one tick beyond the stream and
            # drop buckets the mandatory end-of-stream query still covers.
            arrivals = []
            for i, iterator in enumerate(iterators):
                batch = None if exhausted[i] else next(iterator, None)
                if batch is None:
                    exhausted[i] = True
                arrivals.append(batch)
            if all(batch is None for batch in arrivals):
                break
            # Compute phase: compress this step's batches in parallel (tree
            # updates and sampler draws touch only source-local state).
            active = [
                (source, batch)
                for source, batch in zip(sources, arrivals)
                if batch is not None
            ]
            parallel_map(
                lambda sb: sb[0].compress(sb[1], t), active, self.jobs,
                executor=executor,
            )
            # Transmission phase: serial, in source order — the metered
            # uplink and the per-step ledger are schedule-independent.  The
            # router folds every source into its parent and, in a tree,
            # cascades the aggregators upward level by level.
            router.deliver_step(t, arrivals)
            if (
                self.query_every is not None
                and (t + 1) % self.query_every == 0
                and router.server.has_summary
            ):
                queries.append(self._query(router, t))
            t += 1
        return t

    def standalone_source(
        self,
        source_id: str,
        first_batch_shape: Tuple[int, int],
        network: Optional[SimulatedNetwork] = None,
    ) -> StreamingSource:
        """Build one fully handshaken :class:`StreamingSource` outside the
        in-process batch loop — the client half of ``repro serve``.

        Runs exactly the stream-start protocol of :meth:`run_streams`
        (dimension pinning against the first batch's shape, the stream-wide
        seed handshake, the per-source generator derivation), so two
        processes constructing the same composition from the same seed agree
        on the DR maps and their summaries stay mergeable at the daemon.
        """
        star = self.topology in (None, "star") or (
            isinstance(self.topology, Topology) and self.topology.is_star
        )
        if not star or self.fan_in is not None:
            raise ValueError(
                "standalone_source is the client half of a star deployment "
                "(sources fold straight into the daemon); tree topologies "
                "apply only to in-process runs"
            )
        stages, reduce_stage = self._start_stream(first_batch_shape)
        return StreamingSource(
            str(source_id),
            stages,
            reduce_stage,
            self._context(spawn_generators(self._rng, 1)[0]),
            network if network is not None else SimulatedNetwork(),
            window=self.window,
        )

    # ------------------------------------------------------------ internals
    def _wire_stages(self) -> List[Stage]:
        stages = list(self.stages)
        if self.quantizer is not None:
            stages.append(QuantizeStage(self.quantizer))
        return stages

    def _context(self, rng) -> StageContext:
        return StageContext(
            k=self.k, epsilon=self.epsilon, delta=self.delta, rng=rng
        )

    def _start_stream(
        self, first_batch_shape: Tuple[int, int]
    ) -> Tuple[List[Stage], Stage]:
        """The stream-start protocol: pin derived dimensions against the
        first batch's shape, then run the stream-wide seed handshake.
        Returns the pinned stages and the CR stage that reduces merged
        buckets."""
        ctx = self._context(self._rng)
        stages = _pin_derived_dimensions(
            self._wire_stages(), first_batch_shape, ctx
        )
        reduce_stage = next((s for s in stages if s.reduces_cardinality), None)
        if reduce_stage is None:
            raise ValueError(
                "streaming requires a CR stage (FSS / SS / Uniform) in the "
                "composition; merge-and-reduce has nothing to reduce with"
            )
        for stage in stages:
            stage.handshake(ctx)
        return stages, reduce_stage

    def _query(self, router: TopologyRouter, t: int) -> QuerySnapshot:
        server, network = router.server, router.network
        result, coreset, seconds = server.query()
        centers = result.centers
        lifts = next((s.lifts for s in router.sources if s.lifts is not None), [])
        for lift in reversed(lifts):
            centers = lift(centers)
        windowed_scalars, windowed_bits = router.windowed_uplink(t)
        return QuerySnapshot(
            time=t,
            centers=centers,
            summary_cardinality=coreset.size,
            summary_dimension=coreset.dimension,
            scalars=network.uplink_scalars(),
            bits=network.uplink_bits(),
            windowed_scalars=windowed_scalars,
            windowed_bits=windowed_bits,
            live_buckets=server.live_bucket_count,
            server_seconds=seconds,
        )

    def _report(
        self,
        router: TopologyRouter,
        queries: List[QuerySnapshot],
        num_steps: int,
    ) -> StreamingReport:
        sources, server, network = router.sources, router.server, router.network
        final = queries[-1]
        quantizer_bits = self.quantizer_bits
        if quantizer_bits is None:
            quantizer_bits = next(
                (s.quantizer_bits for s in sources if s.quantizer_bits is not None), None
            )
        failed = sum(1 for s in sources if network.is_failed(s.source_id))
        report = StreamingReport(
            algorithm=self.name,
            centers=final.centers,
            # Headline communication follows the window semantics: expired
            # batches drop out of the totals; unwindowed streams report the
            # cumulative uplink (windowed == cumulative then).
            communication_scalars=final.windowed_scalars,
            communication_bits=final.windowed_bits,
            source_seconds=max(s.compute_seconds for s in sources),
            server_seconds=server.compute_seconds,
            summary_cardinality=final.summary_cardinality,
            summary_dimension=final.summary_dimension,
            quantizer_bits=quantizer_bits,
            participating_sources=len(sources) - failed,
            failed_sources=failed,
            retransmissions=network.retransmissions(),
            messages_lost=network.lost_messages(),
            simulated_network_seconds=network.simulated_seconds(),
            tag_scalars=network.log.scalars_by_tag(),
            queries=queries,
        )
        report = report.with_detail(
            num_sources=len(sources),
            delivery_failures=sum(s.delivery_failures for s in sources),
            num_batch_steps=num_steps,
            num_batches=sum(s.batches_ingested for s in sources),
            num_queries=len(queries),
            total_source_seconds=sum(s.compute_seconds for s in sources),
            cumulative_scalars=network.uplink_scalars(),
            cumulative_bits=network.uplink_bits(),
            live_buckets=final.live_buckets,
            max_live_buckets=max(s.tree.max_live_buckets for s in sources),
            max_resident_points=max(s.tree.max_resident_points for s in sources),
            tree_merges=sum(s.tree.merges for s in sources),
            batch_size=self.batch_size,
            window=0 if self.window is None else self.window,
        )
        if not router.topology.is_star:
            report = report.with_detail(
                topology_hops=router.topology.hops,
                num_aggregators=router.topology.num_aggregators,
                aggregator_seconds=router.aggregator_seconds,
                total_aggregator_seconds=router.total_aggregator_seconds,
                aggregator_merges=router.aggregator_merges,
                aggregator_delivery_failures=router.aggregator_delivery_failures,
                failed_aggregators=router.failed_aggregators,
            )
        return report


def _pin_derived_dimensions(
    stages: Sequence[Stage], first_batch_shape: Tuple[int, int], ctx: StageContext
) -> List[Stage]:
    """Replace JL stages with derived targets by explicitly-sized copies.

    In the one-shot engine a JL stage may derive ``d'`` from the state
    flowing past it; in a stream that state differs per batch (final batches
    are short), which would project batches into different spaces and break
    bucket merging.  Pinning resolves every derived dimension once against
    the first batch's shape, tracking how cardinality and dimension evolve
    through the composition (CR stages shrink cardinality, JL stages shrink
    dimension, PCA/QT stages preserve shapes).
    """
    n, d = int(first_batch_shape[0]), int(first_batch_shape[1])
    shape = _ShapeState(cardinality=n, dimension=d, is_raw=True)
    pinned: List[Stage] = []
    for stage in stages:
        if isinstance(stage, JLStage):
            target = stage.resolve_dimension(shape, ctx)
            if stage.dimension is None:
                stage = JLStage(target)
            shape.dimension = target
        elif stage.reduces_cardinality:
            size = getattr(stage, "size", None)
            shape.cardinality = resolve_coreset_size(size, shape.cardinality, ctx.k)
            shape.is_raw = False
        pinned.append(stage)
    return pinned
