"""The streaming edge server: fold incremental summaries, answer queries.

The server's state is a per-(source, bucket) map of the coresets it has
received.  Folding a :class:`~repro.streaming.source.SourceUpdate` is O(delta)
— drop retired buckets, store new ones; no recomputation touches buckets that
did not change.  A *query* merges all live buckets across sources into one
generalized coreset (exact, by coreset mergeability) and solves weighted
k-means on it, exactly like the one-shot engine's server section; the caller
lifts the centers back through the stream's DR maps.

Delivery safety
---------------
Real transports deliver at-least-once and sometimes out of order: a client
whose ack was lost retries an update the server already applied, and a
delayed retry can arrive *after* a newer update retired the buckets it
carries.  Folding either one blindly corrupts the global coreset (a retired
bucket comes back from the dead) and double-counts the accounting.  The fold
layer therefore keeps a per-source ``batch_index`` high-water mark:

* an update at or below the watermark is a no-op acknowledged as
  :attr:`FoldResult.DUPLICATE` — replaying any delivered prefix leaves the
  server byte-identical;
* an update that skips past ``watermark + 1`` raises :class:`UpdateGapError`
  so the transport can replay the missing range instead of silently folding
  a summary whose retirements reference updates the server never saw;
* an update from a source that never registered raises
  :class:`UnknownSourceError` (sources are admitted by the engine or the
  daemon's registration handshake, and survive snapshot/restore).
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Tuple

from repro.cr.coreset import Coreset, merge_coresets
from repro.kmeans.lloyd import KMeansResult, WeightedKMeans
from repro.streaming.source import BucketUpdate, SourceUpdate
from repro.utils import faultpoints
from repro.utils.clock import perf_counter
from repro.utils.random import (
    SeedLike,
    as_generator,
    derive_seed,
    generator_state,
    restore_generator,
)
from repro.utils.validation import check_positive_int


class EmptySummaryError(RuntimeError):
    """Raised by :meth:`StreamingServer.global_coreset` / ``query`` when the
    server holds no live buckets.

    A ``RuntimeError`` subclass so legacy callers keep working, but typed so
    the serving daemon can map it to a clean protocol error (and the CLI to
    a one-line message) instead of a traceback.
    """


class FoldRejectedError(ValueError):
    """Base of the typed fold rejections (the daemon maps these to protocol
    errors; the in-process engine treats them as programming errors)."""


class UnknownSourceError(FoldRejectedError):
    """An update arrived from a source the server never registered."""

    def __init__(self, source_id: str, registered: Iterable[str]) -> None:
        self.source_id = str(source_id)
        self.registered = tuple(sorted(str(s) for s in registered))
        super().__init__(
            f"unknown source {self.source_id!r}: the server has registered "
            f"{', '.join(self.registered) if self.registered else 'no sources'}"
            " — complete the registration handshake before folding"
        )


class UpdateGapError(FoldRejectedError):
    """An update skipped past the source's high-water mark.

    Folding it would apply retirements/additions that assume updates the
    server never saw; the transport must replay from :attr:`expected`.
    """

    def __init__(self, source_id: str, expected: int, got: int) -> None:
        self.source_id = str(source_id)
        self.expected = int(expected)
        self.got = int(got)
        super().__init__(
            f"update gap for source {self.source_id!r}: expected batch_index "
            f"{self.expected}, got {self.got} — replay the missing updates"
        )


class FoldResult(enum.Enum):
    """What :meth:`StreamingServer.fold` did with an update."""

    #: The update advanced the source's watermark and changed server state.
    APPLIED = "applied"
    #: The update was at or below the watermark: a retransmission of state
    #: the server already holds.  Nothing changed; the delivery layer should
    #: ack it so the client stops retrying.
    DUPLICATE = "duplicate"


class FoldState:
    """The watermarked fold every fold target runs: the root
    :class:`StreamingServer` and each mid-tree
    :class:`~repro.topology.aggregator.AggregatorNode`.

    Holds the per-source ``batch_index`` high-water marks and the
    per-(source, bucket) map of the buckets those sources delivered, and
    applies updates under the contract in the module docstring.
    """

    def __init__(self) -> None:
        #: source_id -> highest applied batch_index (-1 = registered, no
        #: update applied yet).  Presence in the map *is* registration.
        self.watermarks: Dict[str, int] = {}
        #: (source_id, bucket_id) -> the bucket as it crossed the wire.
        self.buckets: Dict[Tuple[str, int], BucketUpdate] = {}
        #: Set when an applied update added or retired a bucket; the owner
        #: clears it once it has acted on the change.
        self.changed = False

    def register(self, source_id: str) -> int:
        """Admit ``source_id`` (idempotent); returns its watermark."""
        return self.watermarks.setdefault(str(source_id), -1)

    def apply(self, update: SourceUpdate) -> FoldResult:
        """Retire then add, unless the update is a duplicate, stale, gapped
        or from an unregistered source."""
        watermark = self.watermarks.get(update.source_id)
        if watermark is None:
            raise UnknownSourceError(update.source_id, self.watermarks)
        index = int(update.batch_index)
        if index <= watermark:
            return FoldResult.DUPLICATE
        if index > watermark + 1:
            raise UpdateGapError(update.source_id, watermark + 1, index)
        for bucket_id in update.retired_ids:
            if self.buckets.pop((update.source_id, bucket_id), None) is not None:
                self.changed = True
        for bucket in update.added:
            self.buckets[(update.source_id, bucket.bucket_id)] = bucket
            self.changed = True
        self.watermarks[update.source_id] = index
        return FoldResult.APPLIED

    @property
    def live_buckets(self) -> List[BucketUpdate]:
        """Every held bucket, in (source, bucket) order."""
        return [self.buckets[key] for key in sorted(self.buckets)]


class StreamingServer:
    """Server half of the streaming protocol.

    Parameters
    ----------
    k:
        Number of clusters answered per query.
    n_init, max_iterations:
        Weighted k-means solver parameters (fresh solver per query, seeded
        deterministically from the server's generator).
    seed:
        Master seed for the per-query solver seeds.
    """

    def __init__(
        self,
        k: int,
        n_init: int = 5,
        max_iterations: int = 100,
        seed: SeedLike = None,
    ) -> None:
        self.k = check_positive_int(k, "k")
        self.n_init = check_positive_int(n_init, "n_init")
        self.max_iterations = check_positive_int(max_iterations, "max_iterations")
        self._rng = as_generator(seed)
        self._fold = FoldState()
        self.compute_seconds = 0.0
        self.updates_folded = 0

    # ------------------------------------------------------------------ API
    def register(self, source_id: str) -> int:
        """Admit ``source_id`` to the fold (idempotent).

        Returns the source's current high-water mark (-1 when no update has
        been applied yet), which is what a reconnecting client needs to know
        where to resume its replay.
        """
        return self._fold.register(source_id)

    @property
    def registered_sources(self) -> Tuple[str, ...]:
        """Every source admitted to the fold, sorted."""
        return tuple(sorted(self._fold.watermarks))

    def watermark(self, source_id: str) -> int:
        """Highest applied ``batch_index`` of a registered source."""
        try:
            return self._fold.watermarks[str(source_id)]
        except KeyError:
            raise UnknownSourceError(source_id, self._fold.watermarks) from None

    def fold(self, update: SourceUpdate) -> FoldResult:
        """Apply one incremental summary: retire then add.

        Idempotent and ordered per source (see the module docstring): a
        duplicate or stale update returns :attr:`FoldResult.DUPLICATE`
        without touching any state, a gapped update raises
        :class:`UpdateGapError`, an unregistered source raises
        :class:`UnknownSourceError`.
        """
        faultpoints.reach("streaming.fold")
        result = self._fold.apply(update)
        if result is FoldResult.APPLIED:
            self.updates_folded += 1
        return result

    @property
    def live_bucket_count(self) -> int:
        return len(self._fold.buckets)

    @property
    def has_summary(self) -> bool:
        return bool(self._fold.buckets)

    def global_coreset(self) -> Coreset:
        """Union of every live bucket of every source."""
        if not self._fold.buckets:
            raise EmptySummaryError(
                "the server holds no summary (no batches ingested, or every "
                "bucket expired from the sliding window)"
            )
        return merge_coresets(b.coreset for b in self._fold.live_buckets)

    def query(self) -> Tuple[KMeansResult, Coreset, float]:
        """Solve weighted k-means on the current global coreset.

        Returns ``(result, coreset, seconds)``; centers are in the stream's
        reduced space — the engine lifts them back.
        """
        start = perf_counter()
        coreset = self.global_coreset()
        solver = WeightedKMeans(
            k=self.k,
            n_init=self.n_init,
            max_iterations=self.max_iterations,
            seed=derive_seed(self._rng),
        )
        result = solver.fit(coreset.points, coreset.weights)
        seconds = perf_counter() - start
        self.compute_seconds += seconds
        return result, coreset, seconds

    # ------------------------------------------------------- snapshotting
    @property
    def rng_state(self) -> dict:
        """JSON-able position of the per-query seed generator.  Assigning a
        captured position moves the generator there, which is how the serve
        daemon's fold log replays a query without re-solving it."""
        return generator_state(self._rng)

    @rng_state.setter
    def rng_state(self, state: dict) -> None:
        self._rng = restore_generator(state)

    def snapshot(self) -> dict:
        """JSON-able snapshot of the server's complete state.

        Covers the per-(source, bucket) coreset map, the solver
        configuration, the accounting counters, and — crucially — the exact
        position of the per-query seed generator (the stream-wide rng
        handshake): a server rebuilt by :meth:`restore` derives the same
        solver seed for its next query and answers it bit-identically.  The
        wall-clock :attr:`compute_seconds` is left out, so two servers fed
        the same stream snapshot to the same bytes.
        """
        watermarks, buckets = self._fold.watermarks, self._fold.buckets
        return {
            "k": self.k,
            "n_init": self.n_init,
            "max_iterations": self.max_iterations,
            "rng": self.rng_state,
            "updates_folded": self.updates_folded,
            # The delivery watermarks ride in the snapshot so a restored
            # server keeps the same at-least-once guarantees: a client
            # replaying its unacked tail gets DUPLICATE acks, never a
            # double-fold.
            "watermarks": [
                {"source_id": source_id, "batch_index": watermarks[source_id]}
                for source_id in sorted(watermarks)
            ],
            "buckets": [
                {
                    "source_id": source_id,
                    "bucket_id": bucket_id,
                    "coreset": buckets[(source_id, bucket_id)].coreset.to_state(),
                }
                for source_id, bucket_id in sorted(buckets)
            ],
        }

    @classmethod
    def restore(cls, snapshot: dict) -> "StreamingServer":
        """Rebuild a server from a :meth:`snapshot` (mid-stream queries on
        the restored server are bit-identical to the original's)."""
        server = cls(
            k=int(snapshot["k"]),
            n_init=int(snapshot.get("n_init", 5)),
            max_iterations=int(snapshot.get("max_iterations", 100)),
        )
        server.rng_state = snapshot["rng"]
        fold = server._fold
        # A snapshot keeps each bucket's coreset, all that a query reads; the
        # batch span and level are read only by aggregators and restore as
        # zeros.
        fold.buckets = {
            (str(b["source_id"]), int(b["bucket_id"])): BucketUpdate(
                int(b["bucket_id"]), Coreset.from_state(b["coreset"]), 0, 0, 0
            )
            for b in snapshot.get("buckets", ())
        }
        fold.watermarks = {
            str(w["source_id"]): int(w["batch_index"])
            for w in snapshot.get("watermarks", ())
        }
        # Pre-watermark snapshots: admit every source that owns a bucket so
        # folding can continue, with an unknown (-1) watermark.
        for source_id, _ in fold.buckets:
            fold.register(source_id)
        server.updates_folded = int(snapshot.get("updates_folded", 0))
        return server
