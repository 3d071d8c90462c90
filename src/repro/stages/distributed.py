"""Distributed stages: per-shard steps of the multi-source protocols.

A distributed stage operates on a whole :class:`~repro.distributed.cluster.
EdgeCluster` — every local computation runs on a :class:`DataSourceNode` (so
it is timed as the paper's complexity metric) and every transmission goes
through the cluster's :class:`SimulatedNetwork` (so it is metered).  Like the
single-source stages, a distributed stage may register a center lift that the
engine applies server-side after the k-means solve.

Stage inventory:

* :class:`SharedJLStage` — every source applies the same pre-shared-seed JL
  map locally (zero communication); the lift is the pseudo-inverse
  (Algorithm 4's DR step).
* :class:`BKLWStage` — disPCA + disSS (the BKLW CR method, Theorem 5.3).
* :class:`RawGatherStage` — every source ships its raw shard (the
  distributed NR baseline).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.cr.coreset import Coreset, merge_coresets
from repro.distributed.cluster import EdgeCluster
from repro.distributed.dispca import run_dispca
from repro.distributed.disss import run_disss
from repro.distributed.network import deliver_round
from repro.dr.jl import JLProjection
from repro.stages.base import StageContext
from repro.stages.dr import jl_lift
from repro.stages.sizing import (
    resolve_distributed_samples,
    resolve_jl_dimension,
    resolve_pca_rank,
)
from repro.utils.parallel import parallel_map


@dataclass
class DistributedStageContext(StageContext):
    """Execution context for distributed stages.

    Extends the single-source context with the cluster geometry *as seen
    before any stage ran*: stage parameter defaults are resolved against the
    original shards (matching the paper's analyses, which state summary sizes
    in terms of the input's ``n``, ``d``, and ``m``) even when an earlier DR
    stage already shrank the working dimension.
    """

    quantizer: Optional[object] = None
    original_dimension: int = 0
    total_cardinality: int = 0
    min_cardinality: int = 0
    num_sources: int = 0
    #: Worker threads available for per-source compute sections (1 =
    #: sequential).  Stages must keep network transmissions serial.
    jobs: int = 1


@dataclass
class DistributedStageEffect:
    """Everything one distributed stage application produces."""

    coreset: Optional[Coreset] = None
    lift: Optional[Callable[[np.ndarray], np.ndarray]] = None
    details: Dict[str, float] = field(default_factory=dict)


class DistributedStage(abc.ABC):
    """One composable step of a multi-source summary protocol."""

    name: str = "stage"

    #: See :class:`repro.stages.base.Stage`: stages whose randomness is
    #: pre-shared between all end points take part in the seed handshake.
    requires_shared_seed: bool = False

    def handshake(self, ctx: StageContext) -> None:
        if self.requires_shared_seed:
            self._shared_seed = ctx.derive_seed()

    @abc.abstractmethod
    def apply_to_cluster(
        self, cluster: EdgeCluster, ctx: DistributedStageContext
    ) -> DistributedStageEffect:
        """Run this protocol step over the cluster's sources and server."""

    @property
    def shared_seed(self) -> int:
        seed = getattr(self, "_shared_seed", None)
        if seed is None:
            raise RuntimeError(
                f"{type(self).__name__} requires a seed handshake before use; "
                "run it through a DistributedStagePipeline"
            )
        return seed


class SharedJLStage(DistributedStage):
    """Every source applies the identical pre-shared-seed JL map locally.

    Costs zero communication (the seed handshake stands in for the paper's
    pre-shared seed) and shrinks every subsequent stage's payloads; the
    server lifts the final centers back through the Moore–Penrose inverse.
    """

    name = "JL"
    requires_shared_seed = True

    def __init__(self, dimension: Optional[int] = None) -> None:
        self.dimension = dimension

    def apply_to_cluster(
        self, cluster: EdgeCluster, ctx: DistributedStageContext
    ) -> DistributedStageEffect:
        d = cluster.dimension
        target = resolve_jl_dimension(
            self.dimension, ctx.total_cardinality, ctx.k, d, ctx.epsilon, ctx.delta
        )
        seed = self.shared_seed
        projection = JLProjection(d, target, seed=seed)
        # Pure local compute (the projection matrix is pre-shared and every
        # node owns its shard), so the per-source loop parallelises freely.
        # Sources already down skip the projection and are excluded for the
        # run: letting one recover later with an unprojected shard would mix
        # geometries in the fold.
        parallel_map(
            lambda source: source.apply_jl(projection),
            cluster.network.participating(cluster.sources),
            ctx.jobs,
        )
        return DistributedStageEffect(
            lift=jl_lift(d, target, seed), details={"jl_dimension": float(target)}
        )


class BKLWStage(DistributedStage):
    """disPCA + disSS over the (possibly already projected) shards.

    Runs disPCA at the resolved rank, then disSS with the resolved global
    sample budget, and produces the merged coreset at the server (Lemma 5.1's
    "BKLW-based CR method"); the final k-means solve is left to the engine.
    Parameter defaults are resolved against the *original* cluster geometry
    recorded in the context.
    """

    name = "BKLW"

    def __init__(
        self, pca_rank: Optional[int] = None, total_samples: Optional[int] = None
    ) -> None:
        self.pca_rank = pca_rank
        self.total_samples = total_samples

    def apply_to_cluster(
        self, cluster: EdgeCluster, ctx: DistributedStageContext
    ) -> DistributedStageEffect:
        rank = resolve_pca_rank(
            self.pca_rank, ctx.min_cardinality, ctx.original_dimension, ctx.k
        )
        samples = resolve_distributed_samples(self.total_samples, ctx.num_sources, ctx.k)
        dispca_scalars = run_dispca(cluster.sources, cluster.server, rank, ctx.jobs)
        disss = run_disss(
            cluster.sources, cluster.server, ctx.k, samples, ctx.quantizer, ctx.jobs
        )
        return DistributedStageEffect(
            coreset=disss.coreset,
            details={
                "dispca_scalars": float(dispca_scalars),
                "disss_scalars": float(disss.transmitted_scalars),
            },
        )


class RawGatherStage(DistributedStage):
    """Every source ships its raw (optionally quantized) shard to the server
    — the distributed NR baseline.

    Fault tolerance: shards whose source is down or exhausts its retry
    budget are excluded from the gathered union (and the source is marked
    failed for the run); at least one shard must arrive.
    """

    name = "NR"

    def apply_to_cluster(
        self, cluster: EdgeCluster, ctx: DistributedStageContext
    ) -> DistributedStageEffect:
        network = cluster.network
        active = network.participating(cluster.sources)
        if not active:
            raise RuntimeError("NR gather: every data source is down")
        bits = None
        if ctx.quantizer is not None:
            # Compute phase (parallel): quantization is node-local work.
            payloads = parallel_map(
                lambda source: source.quantize(source.points, ctx.quantizer),
                active,
                ctx.jobs,
            )
            bits = ctx.quantizer.significant_bits
        else:
            payloads = [source.points for source in active]
        # Transmission phase (serial, source order): metering stays
        # deterministic whatever the compute interleaving was.  Like disSS,
        # the gather merges exactly the shards that arrived in this round.
        arrived = deliver_round(
            network,
            zip(active, payloads),
            lambda source, payload: source.send_to_server(
                payload, tag="raw-data", significant_bits=bits
            ),
            "NR gather: no shard reached the server",
        )
        return DistributedStageEffect(
            coreset=merge_coresets(
                Coreset(payload, np.ones(payload.shape[0]), shift=0.0)
                for _, payload in arrived
            )
        )
