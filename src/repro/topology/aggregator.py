"""The mid-tree aggregator: fold child summaries, ship one bucket upward.

An :class:`AggregatorNode` is both halves of the streaming protocol at
once.  Downward it is a server: it registers its children and folds their
:class:`~repro.streaming.source.SourceUpdate`\\ s with the
:class:`~repro.streaming.server.FoldState` the root
:class:`~repro.streaming.server.StreamingServer` uses (duplicates ack as
no-ops, gaps are typed rejections).  Upward it is a source: whenever its
child view changed it merges every live child bucket (exact, by coreset
mergeability — the same merge the
:class:`~repro.streaming.tree.CoresetTree` performs), re-compresses the
merged summary with the composition's CR stage (timed as aggregator
compute), and ships *one* replacing bucket to its parent through the
metered network with per-hop tags (``stream-points@h<level>`` ...), so
reports break communication down by hop.

Delivery failures are transactional per step: the upward update either
carries the complete replace (new bucket + retirement of the previous one)
or nothing — a failed hop leaves the parent on the aggregator's last good
summary (stale but valid) and retries on the next step.
"""

from __future__ import annotations

from typing import Optional

from repro.cr.coreset import merge_coresets
from repro.distributed.conditions import DeliveryError
from repro.distributed.network import SimulatedNetwork
from repro.stages.base import Stage, StageContext
from repro.streaming.source import (
    BucketUpdate,
    SourceUpdate,
    reduce_coreset,
    ship_bucket,
)
from repro.streaming.server import FoldResult, FoldState
from repro.utils.clock import perf_counter


class AggregatorNode:
    """One aggregation hop of a tree topology.

    Parameters
    ----------
    agg_id, parent_id, level:
        This node's identifier, its fold target (an aggregator id or the
        server), and its height above the sources (leaf aggregators are
        level 1) — the hop number stamped into its wire tags.
    reduce_stage, ctx:
        The composition's CR stage and this aggregator's own stage context
        (its private generator), used to re-compress merged child summaries.
    network:
        The metered network the upward hop transmits through.
    quantizer:
        Optional wire quantizer (the composition's QT stage), applied to
        the merged bucket's points on send exactly as sources do.
    """

    def __init__(
        self,
        agg_id: str,
        parent_id: str,
        level: int,
        reduce_stage: Stage,
        ctx: StageContext,
        network: SimulatedNetwork,
        quantizer=None,
    ) -> None:
        self.agg_id = str(agg_id)
        self.parent_id = str(parent_id)
        self.level = int(level)
        self.reduce_stage = reduce_stage
        self.ctx = ctx
        self.network = network
        self.quantizer = quantizer
        self._fold = FoldState()
        #: Bucket id the parent currently holds for this aggregator.
        self._current_id: Optional[int] = None
        self._next_bucket_id = 0
        self.compute_seconds = 0.0
        self.merges = 0
        self.updates_folded = 0
        self.delivery_failures = 0

    # ----------------------------------------------------------- server half
    def register(self, child_id: str) -> int:
        """Admit a child to this aggregator's fold (idempotent)."""
        return self._fold.register(child_id)

    def fold(self, update: SourceUpdate) -> FoldResult:
        """Fold one child update under the watermarked delivery contract."""
        result = self._fold.apply(update)
        if result is FoldResult.APPLIED:
            self.updates_folded += 1
        return result

    @property
    def live_bucket_count(self) -> int:
        return len(self._fold.buckets)

    # ----------------------------------------------------------- source half
    def emit(self, batch_index: int) -> SourceUpdate:
        """Produce this step's upward update (and transmit its payload).

        Always returns an update stamped ``batch_index`` — an empty one
        when the child view did not change (it advances the parent's
        watermark at zero wire cost, keeping the per-source contiguity the
        fold contract demands).  When it changed, merges the live child
        buckets, re-reduces, and ships the replacing bucket; on a delivery
        failure the update stays empty, the change stays pending, and the
        hop retries next step.
        """
        update = SourceUpdate(source_id=self.agg_id, batch_index=int(batch_index))
        if not self._fold.changed:
            return update

        start = perf_counter()
        merged: Optional[BucketUpdate] = None
        children = self._fold.live_buckets
        if children:
            merged = BucketUpdate(
                bucket_id=self._next_bucket_id,
                coreset=reduce_coreset(
                    self.reduce_stage, self.ctx,
                    merge_coresets(c.coreset for c in children),
                ),
                first_batch=min(c.first_batch for c in children),
                last_batch=max(c.last_batch for c in children),
                level=self.level,
            )
            self.merges += 1
        self.compute_seconds += perf_counter() - start

        hop = f"@h{self.level}"
        try:
            if merged is not None:
                merged = ship_bucket(
                    self.network, self.agg_id, self.parent_id, merged,
                    self.quantizer, hop,
                )
            if self._current_id is not None:
                self.network.send(
                    self.agg_id, self.parent_id, [self._current_id],
                    tag="stream-retire" + hop,
                )
        except DeliveryError:
            self.delivery_failures += 1
            return update

        if self._current_id is not None:
            update.retired_ids = [self._current_id]
            self._current_id = None
        if merged is not None:
            update.added.append(merged)
            self._current_id = merged.bucket_id
            self._next_bucket_id = merged.bucket_id + 1
        self._fold.changed = False
        return update
