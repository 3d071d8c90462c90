"""The streaming data source: per-batch compression + incremental uplink.

A :class:`StreamingSource` turns the one-shot source protocol of
:class:`~repro.core.engine.StagePipeline` into an online one.  For every
timestamped batch it

1. runs the stage composition on the batch (timed, exactly like the one-shot
   engine's source section) to obtain a leaf coreset in the reduced space —
   DR stages use the seeds agreed at the stream-wide handshake, so every
   batch of every source lands in the *same* reduced space and summaries
   stay mergeable;
2. inserts the leaf into its bounded-memory
   :class:`~repro.streaming.tree.CoresetTree` (merges run locally, inside
   the timed section — they are source work);
3. transmits the *delta* between the buckets the server already holds and
   the buckets now alive, through the metered
   :class:`~repro.distributed.network.SimulatedNetwork`: new buckets travel
   as quantized points + full-precision weights + a 5-scalar header, retired
   bucket ids as one scalar each.  Re-transmitting a merged bucket replaces
   the buckets it subsumes, so the server's view stays consistent while the
   per-batch uplink stays amortized ``O(coreset_size)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.cr.coreset import Coreset
from repro.distributed.conditions import DeliveryError
from repro.distributed.network import SimulatedNetwork
from repro.stages.base import CenterLift, SourceState, Stage, StageContext
from repro.streaming.tree import CoresetTree
from repro.utils.clock import perf_counter


@dataclass
class BucketUpdate:
    """One bucket as it crossed the wire (points possibly quantized)."""

    bucket_id: int
    coreset: Coreset
    first_batch: int
    last_batch: int
    level: int


@dataclass
class SourceUpdate:
    """Incremental summary of one ingest step, for the server to fold."""

    source_id: str
    batch_index: int
    added: List[BucketUpdate] = field(default_factory=list)
    retired_ids: List[int] = field(default_factory=list)


def reduce_coreset(stage: Stage, ctx: StageContext, coreset: Coreset) -> Coreset:
    """Re-compress a merged coreset with the composition's CR stage."""
    state = SourceState(
        points=coreset.points, weights=coreset.weights, shift=coreset.shift
    )
    state = stage.apply_at_source(state, ctx).state
    return Coreset(state.points, state.weights, state.shift)


def ship_bucket(
    network: SimulatedNetwork,
    sender: str,
    receiver: str,
    bucket,
    quantizer,
    hop: str = "",
) -> BucketUpdate:
    """Transmit one bucket and return it as it crossed the wire.

    ``bucket`` is a :class:`~repro.streaming.tree.Bucket` or a
    :class:`BucketUpdate`.  Quantize-on-send: points at reduced precision,
    weights and Δ at full precision (Section 6.2's coreset wire format),
    plus a 5-scalar header; ``hop`` suffixes the wire tags (``"@h<level>"``
    for an aggregator's upward hop).  Raises
    :class:`~repro.distributed.conditions.DeliveryError` when a message
    cannot be delivered.
    """
    coreset, bits = bucket.coreset, None
    if quantizer is not None:
        coreset = Coreset(
            quantizer.quantize(coreset.points), coreset.weights, coreset.shift
        )
        bits = int(quantizer.significant_bits)
    header = [
        float(bucket.bucket_id), float(bucket.level),
        float(bucket.first_batch), float(bucket.last_batch),
        float(coreset.shift),
    ]
    # One batched call per bucket: the recorded messages (and loss draws)
    # are bit-identical to three sequential sends, but the per-call
    # link/fault-plan resolution is hoisted — the difference between
    # feasible and not at 10k sources.
    network.send_many(
        sender, receiver,
        [
            ("stream-points" + hop, coreset.points, bits),
            ("stream-weights" + hop, coreset.weights, None),
            ("stream-header" + hop, header, None),
        ],
    )
    return BucketUpdate(
        bucket_id=bucket.bucket_id,
        coreset=coreset,
        first_batch=bucket.first_batch,
        last_batch=bucket.last_batch,
        level=bucket.level,
    )


class StreamingSource:
    """One data source of a streaming deployment.

    Parameters
    ----------
    source_id:
        Network identifier (``"source-<i>"``).
    stages:
        The (already handshaken) stage composition applied to every batch.
    reduce_stage:
        The composition's CR stage, re-applied to merged tree buckets.
    ctx:
        The stream-wide stage context (shared master generator).
    network:
        The metered network all transmissions go through.
    window:
        Optional sliding window in batches, forwarded to the tree.
    receiver:
        Fold target this source transmits to: the server (default, the
        flat star) or a mid-tree aggregator id under a tree topology.
    """

    def __init__(
        self,
        source_id: str,
        stages: Sequence[Stage],
        reduce_stage: Stage,
        ctx: StageContext,
        network: SimulatedNetwork,
        window: Optional[int] = None,
        receiver: str = "server",
    ) -> None:
        self.source_id = str(source_id)
        self.receiver = str(receiver)
        self.stages = list(stages)
        self.reduce_stage = reduce_stage
        self.ctx = ctx
        self.network = network
        self.tree = CoresetTree(
            reduce=functools.partial(reduce_coreset, reduce_stage, ctx),
            window=window,
        )
        self.compute_seconds = 0.0
        self.batches_ingested = 0
        self.lifts: Optional[List[CenterLift]] = None
        self.quantizer_bits: Optional[int] = None
        #: Ingest steps whose bucket delta could not be fully delivered
        #: (the pending part ships on the next successful flush).
        self.delivery_failures = 0
        self._shipped: set = set()
        self._pending_quantizer = None

    # ------------------------------------------------------------------ API
    def ingest(self, batch: np.ndarray, batch_index: int) -> SourceUpdate:
        """Compress one batch, update the tree, and uplink the delta."""
        self.compress(batch, batch_index)
        return self.flush(batch_index)

    def compress(self, batch: np.ndarray, batch_index: int) -> None:
        """The compute half of :meth:`ingest`: run the stage composition on
        the batch and update the local tree — no network activity.

        Touches only source-local state (the tree, the timing counter, and
        this source's stage context / generator), so the engine may run the
        ``compress`` steps of all sources in parallel; the network delta is
        shipped afterwards by :meth:`flush`, serially, in source order.
        """
        start = perf_counter()
        state = SourceState(points=np.asarray(batch, dtype=float))
        lifts: List[CenterLift] = []
        for stage in self.stages:
            effect = stage.apply_at_source(state, self.ctx)
            state = effect.state
            if effect.lift is not None:
                lifts.append(effect.lift)
        if state.weights is None:
            raise RuntimeError(
                "streaming requires a CR stage in the composition: the batch "
                "state still has no coreset weights after all stages"
            )
        if self.lifts is None:
            # DR maps are fixed for the whole stream (shared handshake seeds,
            # pinned dimensions), so the lift chain of the first batch is the
            # lift chain of every batch.
            self.lifts = lifts
        leaf = Coreset(state.points, state.weights, state.shift)
        self.tree.insert(leaf, batch_index)
        self.tree.expire(batch_index)
        self.compute_seconds += perf_counter() - start
        self.batches_ingested += 1

        self._pending_quantizer = state.wire_quantizer
        if state.wire_quantizer is not None:
            self.quantizer_bits = int(state.wire_quantizer.significant_bits)

    def flush(self, batch_index: int) -> SourceUpdate:
        """The transmit half of :meth:`ingest`: uplink the bucket delta."""
        return self._transmit_delta(batch_index, self._pending_quantizer)

    def advance(self, batch_index: int) -> SourceUpdate:
        """Advance stream time without new data: expire and retire only.

        Sliding-window streams call this for sources whose stream already
        ended while others keep ingesting — their out-of-window buckets must
        leave the tree and the server view exactly as if they were still
        producing batches.
        """
        self.tree.expire(batch_index)
        return self._transmit_delta(batch_index, None)

    # ------------------------------------------------------------ internals
    def _transmit_delta(self, batch_index: int, quantizer) -> SourceUpdate:
        """Ship exactly the difference between server view and live buckets.

        Delivery failures are tolerated per bucket: a bucket joins the
        server update (and :attr:`_shipped`) only when all three of its
        messages arrive; anything undelivered stays pending and retries on
        the next flush, so a flaky link catches the server up once it
        recovers.  Retirements ship only after every new bucket arrived.
        Every failed attempt is still metered by the network.
        """
        to_retire = sorted(self._shipped - set(self.tree.live_bucket_ids))
        update = SourceUpdate(source_id=self.source_id, batch_index=batch_index)
        try:
            for bucket in self.tree.live_buckets:
                if bucket.bucket_id in self._shipped:
                    continue
                update.added.append(
                    ship_bucket(
                        self.network, self.source_id, self.receiver, bucket,
                        quantizer,
                    )
                )
                self._shipped.add(bucket.bucket_id)
            if to_retire:
                self.network.send(
                    self.source_id, self.receiver, to_retire, tag="stream-retire"
                )
                update.retired_ids = to_retire
                self._shipped -= set(to_retire)
        except DeliveryError:
            self.delivery_failures += 1
        return update
