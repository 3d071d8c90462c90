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

from typing import Optional, Sequence

import numpy as np

from repro.distributed.network import deliver_round
from repro.distributed.node import DataSourceNode
from repro.distributed.server import EdgeServer
from repro.utils.parallel import parallel_map


def run_dispca(
    sources: Sequence[DataSourceNode],
    server: EdgeServer,
    rank: int,
    jobs: Optional[int],
) -> int:
    """Execute disPCA with ``t1 = t2 = rank``; each source's local shard is
    replaced by its projection onto the global principal subspace.  Returns
    the scalars all sources transmitted uplink during the protocol.

    The rank is clamped to the shards' current dimension (after a JL step,
    the projected one) and to the smallest participating shard.  ``jobs``
    threads run the per-source compute; transmissions stay serial, in
    source order.

    Fault tolerance: sources that are down (per the network's fault plan) or
    exhaust their retry budget are excluded from the round — the global SVD
    stacks only the sketches that arrived, and sources that miss the basis
    broadcast are marked failed (their shards would be geometrically
    inconsistent with the projected survivors).  At least one source must
    complete each phase.
    """
    network = server.network
    active = network.participating(sources)
    if not active:
        raise RuntimeError("disPCA: every data source is down")
    rank = max(1, min(rank, active[0].dimension, min(s.cardinality for s in active)))

    before = network.uplink_scalars()

    # Step 1: local SVDs (parallel per-source compute), transmitted as
    # (Σ_t, V_t).
    local_svds = parallel_map(lambda source: source.local_svd(rank), active, jobs)
    sketched = deliver_round(
        network,
        zip(active, local_svds),
        lambda source, svd: source.send_to_server(
            {"singular_values": svd[0], "basis": svd[1]}, tag="dispca-local-svd"
        ),
        "disPCA: no local SVD sketch reached the server",
    )

    # Step 2: global SVD of the stacked sketches Σ_t V_t^T (survivors only).
    stacked = np.vstack([values[:, None] * basis.T for _, (values, basis) in sketched])
    global_basis = server.global_svd(stacked, rank)

    # Step 3: broadcast the basis (downlink; not counted in the paper's
    # source-side communication metric but still logged) and project the
    # local shards (parallel: node-local compute).
    survivors = network.participating([source for source, _ in sketched])
    received = deliver_round(
        network,
        [(source, global_basis) for source in survivors],
        lambda source, basis: server.send_to_source(
            source.node_id, basis, tag="dispca-basis"
        ),
        "disPCA: no source received the global basis",
    )
    parallel_map(
        lambda source: source.project_onto(global_basis),
        [source for source, _ in received],
        jobs,
    )

    return network.uplink_scalars() - before
