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

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.cr.coreset import Coreset, merge_coresets
from repro.distributed.conditions import DeliveryError
from repro.distributed.node import DataSourceNode
from repro.distributed.server import EdgeServer
from repro.quantization.rounding import RoundingQuantizer
from repro.utils.parallel import parallel_map
from repro.utils.validation import check_fraction, check_positive_int


def disss_sample_size(
    k: int,
    d: int,
    m: int,
    epsilon: float,
    delta: float = 0.1,
    constant: float = 1.0,
) -> int:
    """Theoretical budget ``O(ε⁻⁴(kd + log 1/δ) + mk log(mk/δ))`` (Thm 5.2).

    As with the centralized coreset sizes, the constant is exposed because
    the paper's experiments tune summary sizes to reach comparable empirical
    error at laptop scale.
    """
    k = check_positive_int(k, "k")
    d = check_positive_int(d, "d")
    m = check_positive_int(m, "m")
    epsilon = check_fraction(epsilon, "epsilon")
    delta = check_fraction(delta, "delta")
    size = constant * (
        (k * d + math.log(1.0 / delta)) / epsilon**4
        + m * k * math.log(m * k / delta)
    )
    return max(m * (k + 1), int(math.ceil(size)))


@dataclass
class DisSSResult:
    """Outcome of the disSS protocol.

    Attributes
    ----------
    coreset:
        The merged coreset ``(∪_i (S_i ∪ X_i), 0, w)`` held at the server.
    per_source_sizes:
        Sample budget allocated to each source.
    transmitted_scalars:
        Uplink scalars spent by the protocol.
    """

    coreset: Coreset
    per_source_sizes: np.ndarray
    transmitted_scalars: int


class DistributedSensitivitySampler:
    """disSS protocol driver.

    Parameters
    ----------
    k:
        Number of clusters.
    total_samples:
        Global sample budget ``s`` (use :func:`disss_sample_size` or tune).
    quantizer:
        Optional rounding quantizer applied to each source's outgoing summary
        (the +QT variants of Section 6).
    jobs:
        Worker threads for the per-source compute steps (bicriteria and
        sampling); transmissions stay serial.  Every source draws from its
        own pre-derived generator, so results are identical for any value.
    """

    def __init__(
        self,
        k: int,
        total_samples: int,
        quantizer: Optional[RoundingQuantizer] = None,
        jobs: Optional[int] = None,
    ) -> None:
        self.k = check_positive_int(k, "k")
        self.total_samples = check_positive_int(total_samples, "total_samples")
        self.quantizer = quantizer
        self.jobs = jobs

    def run(self, sources: Sequence[DataSourceNode], server: EdgeServer) -> DisSSResult:
        """Execute the protocol and return the coreset the server merged.

        Fault tolerance: a source that is down or exhausts its retry budget
        at any of the three communication phases is excluded from the rest
        of the round — the sample budget is re-based on the costs that
        arrived, and the merged coreset unions only the sample sets that
        reached the server.  At least one source must complete.
        """
        if not sources:
            raise ValueError("disSS requires at least one data source")
        network = server.network
        active = network.participating(sources)
        if not active:
            raise RuntimeError("disSS: every data source is down")

        before = network.uplink_scalars()

        # Step 1: local bicriteria solutions (parallel compute — each node
        # draws from its own generator); costs reported serially in source
        # order so the transmission log is schedule-independent.
        bicriterias = parallel_map(
            lambda source: source.local_bicriteria(self.k), active, self.jobs
        )
        local_costs: List[float] = []
        reporters: List[tuple] = []
        for source, bicriteria in zip(active, bicriterias):
            try:
                source.send_to_server(float(bicriteria.cost), tag="disss-local-cost")
            except DeliveryError:
                network.mark_failed(source.node_id)
                continue
            local_costs.append(float(bicriteria.cost))
            reporters.append((source, bicriteria))
        network.advance_round()
        if not reporters:
            raise RuntimeError("disSS: no local cost report reached the server")

        # Step 2: allocate the sample budget proportionally to cost (over the
        # costs that arrived), and deliver each share.
        sizes = server.allocate_sample_sizes(local_costs, self.total_samples)
        samplers: List[tuple] = []
        for (source, bicriteria), size in zip(reporters, sizes):
            if network.node_is_down(source.node_id):
                network.mark_failed(source.node_id)
                continue
            try:
                server.send_to_source(source.node_id, int(size), tag="disss-sample-size")
            except DeliveryError:
                network.mark_failed(source.node_id)
                continue
            samplers.append((source, bicriteria, int(size)))
        network.advance_round()
        if not samplers:
            raise RuntimeError("disSS: no source received a sample allocation")

        # Step 3: local sampling (parallel compute), then transmit samples ∪
        # bicriteria centers with weights (optionally quantized) serially.
        significant_bits = (
            self.quantizer.significant_bits if self.quantizer is not None else None
        )

        def _sample(args):
            source, bicriteria, size = args
            sampled_points, weights = source.local_sensitivity_sample(bicriteria, int(size))
            if self.quantizer is not None:
                sampled_points = source.quantize(sampled_points, self.quantizer)
            return sampled_points, weights

        samples = parallel_map(_sample, samplers, self.jobs)
        # A one-shot round needs no watermarks: it merges exactly the sample
        # sets that arrived in this round, so a reused server never folds an
        # earlier round's coreset into this one.
        received: List[Coreset] = []
        delivered_sizes: List[int] = []
        for (source, _, size), (sampled_points, weights) in zip(samplers, samples):
            try:
                source.send_to_server(
                    sampled_points, tag="disss-samples", significant_bits=significant_bits
                )
                source.send_to_server(weights, tag="disss-weights")
            except DeliveryError:
                network.mark_failed(source.node_id)
                continue
            received.append(Coreset(sampled_points, weights, shift=0.0))
            delivered_sizes.append(size)
        network.advance_round()
        if not received:
            raise RuntimeError("disSS: no sample set reached the server")

        transmitted = network.uplink_scalars() - before
        return DisSSResult(
            coreset=merge_coresets(received),
            per_source_sizes=np.asarray(delivered_sizes, dtype=int),
            transmitted_scalars=transmitted,
        )
