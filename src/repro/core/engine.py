"""The stage-composition execution engine.

The seed implementations of the paper's algorithms each re-implemented the
same protocol skeleton: time the source computation, meter every transmission
through a :class:`~repro.distributed.network.SimulatedNetwork`, solve
weighted k-means at the server, and lift the centers back through the
inverses of whatever DR maps were applied.  This module owns that skeleton
once, for *any* declarative composition of stages:

* :class:`StagePipeline` executes a list of
  :class:`~repro.stages.base.Stage` objects for a single data source;
* :class:`DistributedStagePipeline` executes
  :class:`~repro.stages.distributed.DistributedStage` objects over an
  :class:`~repro.distributed.cluster.EdgeCluster` of shards.

Both produce the same :class:`~repro.core.report.PipelineReport` as the seed
pipelines.  Every registered algorithm — the paper's eight included — is a
row of the composition table in :mod:`repro.core.registry`, built as a
subclass of one of these engines (or of the streaming engine).

Protocol sequence (single source)
---------------------------------
1. **Seed handshake** — every stage with ``requires_shared_seed`` derives one
   seed from the master generator, in declaration order, *before* any source
   computation: data-oblivious DR maps are agreed upon by both end points up
   front, which is why describing them costs zero communication.
2. **Source** (timed) — stages transform the working
   :class:`~repro.stages.base.SourceState`; the final state is encoded for
   the wire (subspace summaries as coordinates + basis, coresets as points +
   weights + shift, raw data as-is), quantizing the main payload on send.
3. **Transmission** — every message is metered by the network.
4. **Server** (timed) — reconstruct the summary, solve weighted k-means, and
   pull the centers back through the recorded lifts in reverse stage order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import CacheLike, pack_effect, unpack_effect
from repro.core.report import PipelineReport
from repro.distributed.cluster import EdgeCluster
from repro.distributed.conditions import (
    ConditionLike,
    FaultPlan,
    NetworkCondition,
    resolve_condition,
)
from repro.distributed.network import SimulatedNetwork
from repro.distributed.partition import partition_dataset
from repro.kmeans.lloyd import WeightedKMeans
from repro.quantization.rounding import RoundingQuantizer
from repro.stages.base import SourceState, Stage, StageContext, StageEffect
from repro.stages.distributed import DistributedStage, DistributedStageContext
from repro.stages.qt import QuantizeStage
from repro.utils.clock import perf_counter
from repro.utils.parallel import resolve_jobs
from repro.utils.random import SeedLike, as_generator, derive_seed
from repro.utils.validation import check_fraction, check_matrix, check_positive_int

_SOURCE = "source-0"


@dataclass
class WireSummary:
    """A source state encoded for transmission.

    ``messages`` are ``(tag, payload, significant_bits)`` triples in
    transmission order; ``decode`` reconstructs the point set the server
    solves on (run inside the server's timed section).
    """

    messages: List[Tuple[str, object, Optional[int]]]
    decode: Callable[[], np.ndarray]
    weights: Optional[np.ndarray]
    cardinality: int
    dimension: int
    quantizer_bits: Optional[int]


def encode_for_wire(state: SourceState) -> WireSummary:
    """Encode a source state into the paper's wire formats.

    * raw data → the (optionally quantized) matrix;
    * subspace summary → per-point subspace coordinates (quantized) plus the
      basis at full precision (Theorem 4.1's FSS format);
    * coreset → points (quantized) plus weights and the shift Δ at full
      precision (Section 6.2: only the points are quantized).
    """
    quantizer = state.wire_quantizer
    bits: Optional[int] = None
    if state.subspace is not None:
        basis = state.subspace.basis  # (d_current, t)
        payload = state.points @ basis
        if quantizer is not None:
            payload = quantizer.quantize(payload)
            bits = quantizer.significant_bits
        tag = "pca-coords" if state.is_raw else "coreset-coords"
        messages: List[Tuple[str, object, Optional[int]]] = [
            (tag, payload, bits),
            ("pca-basis", basis, None),
        ]
        decode = lambda: payload @ basis.T  # noqa: E731 - captured payload/basis
        dimension = int(basis.shape[1])
    else:
        payload = state.points
        if quantizer is not None:
            payload = quantizer.quantize(payload)
            bits = quantizer.significant_bits
        tag = "raw-data" if state.is_raw else "coreset-points"
        messages = [(tag, payload, bits)]
        decode = lambda: payload  # noqa: E731
        dimension = int(payload.shape[1])
    if not state.is_raw:
        messages.append(("coreset-weights", state.weights, None))
        messages.append(("coreset-shift", float(state.shift), None))
    return WireSummary(
        messages=messages,
        decode=decode,
        weights=state.weights,
        cardinality=state.cardinality,
        dimension=dimension,
        quantizer_bits=bits,
    )


class _MeteredContext(StageContext):
    """A :class:`StageContext` that counts ``derive_seed`` draws.

    The stage cache stores each stage's draw count so that a cache hit can
    *burn* the same number of draws from the master generator — leaving
    every downstream draw (later stages, the server solver seed)
    bit-identical to a cache-cold run.  Deliberately not a dataclass: a new
    defaulted field would disturb subclass field ordering.
    """

    draws: int = 0

    def derive_seed(self) -> int:
        self.draws += 1
        return super().derive_seed()


class StagePipeline:
    """Execute a composition of stages for a single data source.

    Parameters
    ----------
    stages:
        The stage composition to execute, kept as the read-only
        :attr:`stages` tuple.
    k:
        Number of clusters.
    epsilon, delta:
        Accuracy / confidence parameters handed to every stage for derived
        defaults.
    quantizer:
        Optional rounding quantizer; sugar for appending a
        :class:`~repro.stages.qt.QuantizeStage` (the +QT variants of
        Section 6).
    server_n_init, server_max_iterations:
        Parameters of the server-side weighted k-means solver.
    seed:
        Master seed controlling every random choice in the pipeline.
    name:
        Report label; defaults to the class-level ``name``.
    network:
        Simulated-network condition: a
        :class:`~repro.distributed.conditions.NetworkCondition`, a preset
        name (``"ideal"``, ``"lossy"``, ``"edge-wan"``), or ``None`` for the
        ideal wire.  Under ``ideal`` every pipeline is bit-identical to the
        condition-free implementation.
    fault_plan:
        Optional scripted node failures (dropout / flaky / stragglers).
    retries:
        Override of the condition's per-message retransmission budget.
    network_seed:
        Override of the condition's loss/jitter seed (network randomness
        never touches the pipeline's master generator).
    stage_cache:
        Optional :class:`~repro.core.cache.StageCache` (or a per-cell
        :class:`~repro.core.cache.StageCacheView`).  When set, every
        ``cacheable`` stage is resolved through content-addressed
        memoization: the stage's output is loaded from the cache when its
        prefix key hits, and computed-then-stored otherwise.  Results are
        bit-identical with and without the cache — hits replay the exact
        number of master-generator draws the stage would have consumed.
    """

    #: Human-readable algorithm name; subclasses or ``name=`` override.
    name: str = "stages"

    def __init__(
        self,
        stages: Sequence[Stage],
        *,
        k: int,
        epsilon: float = 0.2,
        delta: float = 0.1,
        quantizer: Optional[RoundingQuantizer] = None,
        server_n_init: int = 5,
        server_max_iterations: int = 100,
        seed: SeedLike = None,
        name: Optional[str] = None,
        network: ConditionLike = None,
        fault_plan: Optional[FaultPlan] = None,
        retries: Optional[int] = None,
        network_seed: Optional[int] = None,
        stage_cache: Optional[CacheLike] = None,
    ) -> None:
        self.k = check_positive_int(k, "k")
        self.epsilon = check_fraction(epsilon, "epsilon")
        self.delta = check_fraction(delta, "delta")
        self.quantizer = quantizer
        self.server_n_init = check_positive_int(server_n_init, "server_n_init")
        self.server_max_iterations = check_positive_int(
            server_max_iterations, "server_max_iterations"
        )
        self.network_condition: NetworkCondition = resolve_condition(
            network
        ).with_overrides(retries=retries, seed=network_seed)
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self.stage_cache = stage_cache
        self._rng = as_generator(seed)
        self.stages = tuple(stages)
        if name is not None:
            self.name = str(name)

    # -------------------------------------------------------------- assembly
    def _wire_stages(self) -> List[Stage]:
        stages = list(self.stages)
        if self.quantizer is not None:
            stages.append(QuantizeStage(self.quantizer))
        return stages

    def _server_solver(self, seed: SeedLike) -> WeightedKMeans:
        return WeightedKMeans(
            k=self.k,
            n_init=self.server_n_init,
            max_iterations=self.server_max_iterations,
            seed=seed,
        )

    @property
    def quantizer_bits(self) -> Optional[int]:
        return None if self.quantizer is None else self.quantizer.significant_bits

    # ------------------------------------------------------------------ API
    def run(self, points: np.ndarray) -> PipelineReport:
        """Execute the composition on a dataset held by a single source.

        Under a lossy condition the wire messages retry up to the budget;
        with only one source there is no partial participation to fall back
        to, so an exhausted budget propagates as
        :class:`~repro.distributed.conditions.DeliveryError`.
        """
        points = check_matrix(points, "points")
        network = SimulatedNetwork(
            condition=self.network_condition, fault_plan=self.fault_plan
        )
        cache = self.stage_cache
        context_cls = StageContext if cache is None else _MeteredContext
        ctx = context_cls(
            k=self.k, epsilon=self.epsilon, delta=self.delta, rng=self._rng
        )
        stages = self._wire_stages()

        # Seed handshake: pre-shared randomness is agreed before the protocol
        # runs, so data-oblivious maps cost zero communication.
        for stage in stages:
            stage.handshake(ctx)

        # ---------------------------------------------------------- source
        source_start = perf_counter()
        state = SourceState(points=points)
        lifts = []
        details: Dict[str, float] = {}
        key = None if cache is None else cache.root_key(
            points, self.k, self.epsilon, self.delta
        )
        for stage in stages:
            if cache is None:
                effect = stage.apply_at_source(state, ctx)
            else:
                # The chain key is extended BEFORE the stage draws from the
                # master generator: it covers the rng position the stage
                # starts from, so equal keys guarantee equal outputs.
                key = cache.chain_key(key, stage, ctx.rng)
                if stage.cacheable:
                    effect = self._cached_apply(cache, key, stage, state, ctx)
                else:
                    effect = stage.apply_at_source(state, ctx)
            state = effect.state
            if effect.lift is not None:
                lifts.append(effect.lift)
            details.update(effect.details)
        wire = encode_for_wire(state)
        source_seconds = perf_counter() - source_start

        # One batched call for the whole summary: bit-identical messages,
        # with the per-send link/fault-plan resolution hoisted out.
        network.send_many(
            _SOURCE, "server",
            [(tag, payload, bits) for tag, payload, bits in wire.messages],
        )
        network.advance_round()

        # ---------------------------------------------------------- server
        server_start = perf_counter()
        summary_points = wire.decode()
        solver = self._server_solver(ctx.derive_seed())
        result = solver.fit(summary_points, wire.weights)
        centers = result.centers
        for lift in reversed(lifts):
            centers = lift(centers)
        server_seconds = perf_counter() - server_start

        report = PipelineReport(
            algorithm=self.name,
            centers=centers,
            communication_scalars=network.uplink_scalars(),
            communication_bits=network.uplink_bits(),
            source_seconds=source_seconds,
            server_seconds=server_seconds,
            summary_cardinality=wire.cardinality,
            summary_dimension=wire.dimension,
            quantizer_bits=wire.quantizer_bits,
            participating_sources=1,
            failed_sources=0,
            retransmissions=network.retransmissions(),
            messages_lost=network.lost_messages(),
            simulated_network_seconds=network.simulated_seconds(),
            tag_scalars=network.log.scalars_by_tag(),
        )
        return report.with_detail(**details)

    def _cached_apply(
        self,
        cache: CacheLike,
        key: str,
        stage: Stage,
        state: SourceState,
        ctx: "_MeteredContext",
    ) -> "StageEffect":
        """Resolve one cacheable stage through the content-addressed cache.

        The per-key lock makes concurrent cells racing on the same prefix
        dedupe in-process: the first computes and stores, the rest block and
        hit.  The wait is bounded (``StageCache.lock_timeout``): a holder
        wedged mid-compute degrades dedupe to double-compute, never to a
        deadlocked sweep.  A stored entry that cannot be honoured (corrupt
        file, version skew, unbuildable lift) falls through to
        recomputation — the cache degrades to a slower run, never to a
        wrong or crashed one.
        """
        with cache.locked(key):
            payload = cache.lookup(key)
            if payload is not None:
                rebuilt = unpack_effect(payload, stage, state)
                if rebuilt is not None:
                    effect, seed_draws = rebuilt
                    # Burn the draws the stage would have consumed so every
                    # downstream draw stays bit-identical to a cold run.
                    for _ in range(seed_draws):
                        ctx.derive_seed()
                    cache.count_hit()
                    return effect
            draws_before = ctx.draws
            effect = stage.apply_at_source(state, ctx)
            stored = False
            try:
                cache.store(key, pack_effect(effect, ctx.draws - draws_before))
                stored = True
            except OSError:
                pass  # unwritable cache directory: run uncached
            cache.count_miss(stored=stored)
            return effect


class DistributedStagePipeline:
    """Execute a composition of distributed stages over per-source shards.

    Owns the full multi-source skeleton: cluster construction, the seed
    handshake, per-stage execution through the metered network, the server's
    weighted k-means solve on the stage-produced coreset, lift-back, and the
    report with the paper's parallel-complexity accounting (``source_seconds``
    is the *maximum* per-source computation time; the per-source total is in
    ``details``).
    """

    name: str = "stages (distributed)"

    def __init__(
        self,
        stages: Sequence[DistributedStage],
        *,
        k: int,
        epsilon: float = 1.0 / 3.0,
        delta: float = 0.1,
        quantizer: Optional[RoundingQuantizer] = None,
        server_n_init: int = 5,
        seed: SeedLike = None,
        name: Optional[str] = None,
        jobs: Optional[int] = None,
        network: ConditionLike = None,
        fault_plan: Optional[FaultPlan] = None,
        retries: Optional[int] = None,
        network_seed: Optional[int] = None,
    ) -> None:
        self.k = check_positive_int(k, "k")
        self.epsilon = check_fraction(
            epsilon, "epsilon", high=1.0 / 3.0, inclusive_high=True
        )
        self.delta = check_fraction(delta, "delta")
        self.quantizer = quantizer
        self.server_n_init = check_positive_int(server_n_init, "server_n_init")
        #: Worker threads for the per-source compute sections (``None``
        #: consults ``REPRO_JOBS``; 1 = sequential; 0 = all cores).  Results
        #: are identical for every value — only wall-clock changes.
        self.jobs = resolve_jobs(jobs)
        #: Simulated-network condition (preset name / NetworkCondition /
        #: None → ideal) with optional retry/seed overrides applied, plus the
        #: scripted fault plan.  See :mod:`repro.distributed.conditions`.
        self.network_condition: NetworkCondition = resolve_condition(
            network
        ).with_overrides(retries=retries, seed=network_seed)
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self._rng = as_generator(seed)
        self.stages = tuple(stages)
        if name is not None:
            self.name = str(name)

    @property
    def quantizer_bits(self) -> Optional[int]:
        return None if self.quantizer is None else self.quantizer.significant_bits

    # ------------------------------------------------------------------ API
    def run(self, shards: Sequence[np.ndarray]) -> PipelineReport:
        """Execute the composition over per-source shards of the dataset."""
        shards = [check_matrix(s, "shard") for s in shards]
        if not shards:
            raise ValueError("at least one shard is required")
        ctx = DistributedStageContext(
            k=self.k,
            epsilon=self.epsilon,
            delta=self.delta,
            rng=self._rng,
            quantizer=self.quantizer,
            original_dimension=int(shards[0].shape[1]),
            total_cardinality=int(sum(s.shape[0] for s in shards)),
            min_cardinality=int(min(s.shape[0] for s in shards)),
            num_sources=len(shards),
            jobs=self.jobs,
        )

        # Seed handshake before the cluster exists: pre-shared randomness is
        # part of deployment configuration, not of the protocol run.
        for stage in self.stages:
            stage.handshake(ctx)

        cluster = EdgeCluster.from_shards(
            shards,
            k=self.k,
            seed=derive_seed(self._rng),
            server_n_init=self.server_n_init,
            condition=self.network_condition,
            fault_plan=self.fault_plan,
        )

        coreset = None
        lifts = []
        details: Dict[str, float] = {}
        for stage in self.stages:
            effect = stage.apply_to_cluster(cluster, ctx)
            if effect.coreset is not None:
                coreset = effect.coreset
            if effect.lift is not None:
                lifts.append(effect.lift)
            details.update(effect.details)
        if coreset is None:
            raise RuntimeError(
                "the stage composition produced no summary for the server "
                "(it needs a CR / gather stage)"
            )

        # ---------------------------------------------------------- server
        # The server's own clock already holds the solve (and the stages'
        # server-side steps); only the lift is timed here.
        centers = cluster.server.solve_kmeans(coreset).centers
        lift_start = perf_counter()
        for lift in reversed(lifts):
            centers = lift(centers)
        server_seconds = perf_counter() - lift_start + cluster.server.compute_seconds

        failed = len(cluster.failed_source_ids)
        report = PipelineReport(
            algorithm=self.name,
            centers=centers,
            communication_scalars=cluster.network.uplink_scalars(),
            communication_bits=cluster.network.uplink_bits(),
            source_seconds=cluster.max_source_compute_seconds(),
            server_seconds=server_seconds,
            summary_cardinality=coreset.size,
            summary_dimension=cluster.dimension,
            quantizer_bits=self.quantizer_bits,
            participating_sources=cluster.num_sources - failed,
            failed_sources=failed,
            retransmissions=cluster.network.retransmissions(),
            messages_lost=cluster.network.lost_messages(),
            simulated_network_seconds=cluster.network.simulated_seconds(),
            tag_scalars=cluster.network.log.scalars_by_tag(),
        )
        return report.with_detail(
            total_source_seconds=cluster.total_source_compute_seconds(),
            num_sources=cluster.num_sources,
            **details,
        )

    def run_on_dataset(
        self,
        points: np.ndarray,
        num_sources: int,
        strategy: str = "random",
        partition_seed: SeedLike = None,
    ) -> PipelineReport:
        """Convenience wrapper: partition ``points`` and run the pipeline."""
        points = check_matrix(points, "points")
        seed = partition_seed if partition_seed is not None else derive_seed(self._rng)
        indices = partition_dataset(points, num_sources, strategy=strategy, seed=seed)
        return self.run([points[idx] for idx in indices])
