"""disSS — distributed sensitivity sampling (paper ref. [4]).

Protocol (Section 5.1):

1. Every data source ``i`` computes a bicriteria approximation ``X_i`` of its
   local shard and reports the scalar ``cost(P_i, X_i)``.
2. The server splits the global sample budget ``s`` across sources
   proportionally to the reported costs and sends each source its share
   ``s_i`` (one scalar downlink each — the "negligible extra round" of the
   paper's footnote 1).
3. Every source draws ``s_i`` points with probability proportional to
   ``cost({p}, X_i)`` and transmits ``S_i ∪ X_i`` with weights matching the
   number of points per cluster.
4. The union ``(∪_i (S_i ∪ X_i), 0, w)`` is an ε-coreset of ``∪_i P_i`` with
   probability ≥ 1 − δ (Theorem 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cr.coreset import Coreset, merge_coresets
from repro.distributed.network import deliver_round
from repro.distributed.node import DataSourceNode
from repro.distributed.server import EdgeServer
from repro.quantization.rounding import RoundingQuantizer
from repro.utils.parallel import parallel_map


@dataclass
class DisSSResult:
    """Outcome of the disSS protocol.

    Attributes
    ----------
    coreset:
        The merged coreset ``(∪_i (S_i ∪ X_i), 0, w)`` held at the server.
    transmitted_scalars:
        Uplink scalars spent by the protocol.
    """

    coreset: Coreset
    transmitted_scalars: int


def run_disss(
    sources: Sequence[DataSourceNode],
    server: EdgeServer,
    k: int,
    total_samples: int,
    quantizer: Optional[RoundingQuantizer],
    jobs: Optional[int],
) -> DisSSResult:
    """Execute disSS with the global sample budget ``total_samples`` and
    return the coreset the server merged.

    ``quantizer`` (the +QT variants of Section 6) rounds each source's
    outgoing sample points, or is ``None``.  ``jobs`` threads run the
    per-source compute steps (bicriteria and sampling); transmissions stay
    serial, in source order.  Every source draws from its own pre-derived
    generator, so results are identical for any value.

    Fault tolerance: a source that is down or exhausts its retry budget at
    any of the three communication phases is excluded from the rest of the
    round — the sample budget is re-based on the costs that arrived, and the
    merged coreset unions only the sample sets that reached the server.  At
    least one source must complete.
    """
    network = server.network
    active = network.participating(sources)
    if not active:
        raise RuntimeError("disSS: every data source is down")

    before = network.uplink_scalars()

    # Step 1: local bicriteria solutions (parallel compute — each node draws
    # from its own generator), then each source reports its cost.
    bicriterias = parallel_map(lambda source: source.local_bicriteria(k), active, jobs)
    reported = deliver_round(
        network,
        zip(active, bicriterias),
        lambda source, bicriteria: source.send_to_server(
            float(bicriteria.cost), tag="disss-local-cost"
        ),
        "disSS: no local cost report reached the server",
    )

    # Step 2: allocate the sample budget proportionally to cost (over the
    # costs that arrived), and deliver each share.
    sizes = server.allocate_sample_sizes(
        [float(bicriteria.cost) for _, bicriteria in reported], total_samples
    )
    allocated = deliver_round(
        network,
        [(source, bicriteria, int(size))
         for (source, bicriteria), size in zip(reported, sizes)],
        lambda source, _, size: server.send_to_source(
            source.node_id, size, tag="disss-sample-size"
        ),
        "disSS: no source received a sample allocation",
    )

    # Step 3: local sampling (parallel compute), then transmit samples ∪
    # bicriteria centers with weights (optionally quantized).
    significant_bits = quantizer.significant_bits if quantizer is not None else None

    def _sample(entry):
        source, bicriteria, size = entry
        sampled_points, weights = source.local_sensitivity_sample(bicriteria, size)
        if quantizer is not None:
            sampled_points = source.quantize(sampled_points, quantizer)
        return source, sampled_points, weights

    def _send(source, sampled_points, weights):
        source.send_to_server(
            sampled_points, tag="disss-samples", significant_bits=significant_bits
        )
        source.send_to_server(weights, tag="disss-weights")

    # A one-shot round needs no watermarks: it merges exactly the sample
    # sets that arrived in this round, so a reused server never folds an
    # earlier round's coreset into this one.
    arrived = deliver_round(
        network,
        parallel_map(_sample, allocated, jobs),
        _send,
        "disSS: no sample set reached the server",
    )

    transmitted = network.uplink_scalars() - before
    return DisSSResult(
        coreset=merge_coresets(
            Coreset(sampled_points, weights, shift=0.0)
            for _, sampled_points, weights in arrived
        ),
        transmitted_scalars=transmitted,
    )
