"""Streaming: online distributed clustering over batched arrivals.

The paper's protocols are one-shot — each source compresses once, the server
solves once.  This package turns every registered stage composition into a
*streaming* algorithm: sources ingest timestamped batches, maintain
bounded-memory merge-and-reduce coreset trees
(:class:`~repro.streaming.tree.CoresetTree`), and ship only incremental
summaries through the metered network; the server folds them and answers
k-means queries at any point in the stream
(:class:`~repro.streaming.server.StreamingServer`).  The execution engine
that schedules batches and produces reports is
:class:`~repro.core.streaming.StreamingEngine`.
"""

from repro.streaming.tree import Bucket, CoresetTree
from repro.streaming.source import BucketUpdate, SourceUpdate, StreamingSource
from repro.streaming.server import (
    EmptySummaryError,
    FoldRejectedError,
    FoldResult,
    StreamingServer,
    UnknownSourceError,
    UpdateGapError,
)

__all__ = [
    "Bucket",
    "CoresetTree",
    "BucketUpdate",
    "SourceUpdate",
    "StreamingSource",
    "StreamingServer",
    "EmptySummaryError",
    "FoldRejectedError",
    "FoldResult",
    "UnknownSourceError",
    "UpdateGapError",
]
