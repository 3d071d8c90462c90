"""disPCA — distributed principal component analysis (paper ref. [35]).

Protocol (Section 5.1):

1. Every data source ``i`` computes a local SVD ``A_{P_i} = U_i Σ_i V_i^T``
   and transmits the top ``t1`` singular values and right singular vectors
   ``(Σ_i^{(t1)}, V_i^{(t1)})`` — ``t1 · (d + 1)`` scalars.  ``U_i`` is
   never formed: :func:`~repro.utils.linalg.right_svd` returns ``Σ_i`` and
   ``V_i`` alone, through the SVD of the shard's QR factor ``R`` when the
   shard is tall.
2. The server stacks ``Y_i = Σ_i^{(t1)} (V_i^{(t1)})^T`` into ``Y`` and
   computes a global SVD ``Y = U Σ V^T``.
3. The first ``t2`` columns of ``V`` are broadcast back; each source projects
   its local shard onto that subspace (``A -> A V V^T``).

With ``t1 = t2 = k + ⌈4k/ε²⌉ − 1`` the projected union approximates the
k-means cost of the original union up to ``1 ± ε`` plus a constant shift Δ
(Theorem 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.distributed.conditions import DeliveryError
from repro.distributed.node import DataSourceNode
from repro.distributed.server import EdgeServer
from repro.dr.pca import pca_target_dimension
from repro.utils.parallel import parallel_map
from repro.utils.validation import check_fraction, check_positive_int


@dataclass
class DisPCAResult:
    """Outcome of the disPCA protocol.

    Attributes
    ----------
    basis:
        The global top-``t2`` right singular subspace basis, ``(d, t2)``.
    rank:
        The rank ``t2`` actually used.
    transmitted_scalars:
        Scalars transmitted uplink by all sources during the protocol.
    """

    basis: np.ndarray
    rank: int
    transmitted_scalars: int


class DistributedPCA:
    """disPCA protocol driver.

    Parameters
    ----------
    k:
        Number of clusters the downstream k-means targets.
    epsilon:
        PCA accuracy parameter ε in Theorem 5.1.
    rank:
        Explicit ``t1 = t2`` override; default ``k + ⌈4k/ε²⌉ − 1``.
    """

    def __init__(
        self,
        k: int,
        epsilon: float = 1.0 / 3.0,
        rank: int | None = None,
        jobs: int | None = None,
    ) -> None:
        self.k = check_positive_int(k, "k")
        self.epsilon = check_fraction(epsilon, "epsilon", high=1.0 / 3.0, inclusive_high=True)
        self.rank = rank if rank is None else check_positive_int(rank, "rank")
        self.jobs = jobs

    def resolved_rank(self, d: int, n: int) -> int:
        rank = self.rank or pca_target_dimension(self.k, self.epsilon)
        return max(1, min(rank, d, n))

    def run(self, sources: Sequence[DataSourceNode], server: EdgeServer) -> DisPCAResult:
        """Execute the protocol; each source's local shard is replaced by its
        projection onto the global principal subspace.

        Fault tolerance: sources that are down (per the network's fault
        plan) or exhaust their retry budget are excluded from the round —
        the global SVD stacks only the sketches that arrived, and sources
        that miss the basis broadcast are marked failed (their shards would
        be geometrically inconsistent with the projected survivors).  At
        least one source must complete each phase.
        """
        if not sources:
            raise ValueError("disPCA requires at least one data source")
        network = server.network
        active = network.participating(sources)
        if not active:
            raise RuntimeError("disPCA: every data source is down")
        d = active[0].dimension
        min_local_n = min(s.cardinality for s in active)
        rank = self.resolved_rank(d, min_local_n)

        before = network.uplink_scalars()

        # Step 1: local SVDs (parallel per-source compute), then transmit to
        # the server serially in source order so metering is deterministic.
        local_svds = parallel_map(lambda source: source.local_svd(rank), active, self.jobs)
        sketches: List[np.ndarray] = []
        survivors: List[DataSourceNode] = []
        for source, (singular_values, basis) in zip(active, local_svds):
            payload = {"singular_values": singular_values, "basis": basis}
            try:
                source.send_to_server(payload, tag="dispca-local-svd")
            except DeliveryError:
                network.mark_failed(source.node_id)
                continue
            sketches.append((singular_values[:, None] * basis.T))  # Σ_t V_t^T
            survivors.append(source)
        network.advance_round()
        if not sketches:
            raise RuntimeError("disPCA: no local SVD sketch reached the server")

        # Step 2: global SVD of the stacked sketches (survivors only).
        stacked = np.vstack(sketches)
        global_basis = server.global_svd(stacked, rank)

        # Step 3: broadcast the basis (downlink; not counted in the paper's
        # source-side communication metric but still logged, hence serial)
        # and project the local shards (parallel: node-local compute).
        receivers: List[DataSourceNode] = []
        for source in network.participating(survivors):
            try:
                server.send_to_source(source.node_id, global_basis, tag="dispca-basis")
            except DeliveryError:
                network.mark_failed(source.node_id)
                continue
            receivers.append(source)
        network.advance_round()
        if not receivers:
            raise RuntimeError("disPCA: no source received the global basis")
        parallel_map(lambda source: source.project_onto(global_basis), receivers, self.jobs)

        transmitted = network.uplink_scalars() - before
        return DisPCAResult(basis=global_basis, rank=rank, transmitted_scalars=transmitted)
