"""The merge-and-reduce coreset tree: bounded-memory stream summarization.

The classic merge-and-reduce scheme (Bentley–Saxe, as used by every
streaming-coreset construction since Har-Peled–Mazumdar): each arriving batch
is compressed into a level-0 *bucket* (a generalized coreset, Definition 3.2
of the paper); whenever two buckets of the same level exist, they are merged
(coreset union — exact, by the mergeability of coresets) and *reduced* back
to bucket size by re-applying a CR stage, producing one bucket one level up.
After ``b`` batches at most ``⌈log₂ b⌉ + 1`` buckets are alive, so a source's
resident memory is ``O(coreset_size · log(n / batch_size))`` while the union
of the live buckets summarizes the entire prefix of the stream.

Sliding-window mode (``window=W`` batches) adds two rules:

* a merge is *blocked* when the merged bucket would span more than ``W``
  batches — the older operand is frozen (it only awaits expiry), so no
  bucket ever covers a range that cannot fully leave the window;
* a bucket *expires* — is dropped from the tree — as soon as its entire
  batch range ``[first_batch, last_batch]`` has left the window, i.e. when
  ``last_batch ≤ current_batch − W``.

Buckets whose range straddles the window boundary are retained whole (the
standard windowed-coreset approximation); because merges are span-capped,
every bucket fully expires at most ``W`` steps after its newest batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.cr.coreset import Coreset, merge_coresets
from repro.utils.validation import check_positive_int


@dataclass
class Bucket:
    """One node of the merge-and-reduce tree.

    Attributes
    ----------
    bucket_id:
        Identifier unique within one tree; the incremental wire protocol
        addresses buckets by id (add / retire).
    level:
        Number of merge generations below this bucket (0 for a fresh batch).
    coreset:
        The generalized coreset summarizing the covered batches.
    first_batch, last_batch:
        Inclusive range of batch indices this bucket covers.
    frozen:
        Sliding-window mode only: True once a span-capped merge was blocked
        on this bucket — it will never merge again, only expire.
    """

    bucket_id: int
    level: int
    coreset: Coreset
    first_batch: int
    last_batch: int
    frozen: bool = False

    @property
    def span(self) -> int:
        """Number of batches covered (inclusive range width)."""
        return self.last_batch - self.first_batch + 1


class CoresetTree:
    """Bounded-memory merge-and-reduce tree over a stream of batch coresets.

    Parameters
    ----------
    reduce:
        ``Coreset -> Coreset`` re-compression applied to every merged pair
        (the streaming engine passes the composition's CR stage); must not
        change the coreset's space.
    window:
        Optional sliding window, in batches.  ``None`` streams over the full
        prefix (no expiry).
    """

    def __init__(
        self,
        reduce: Callable[[Coreset], Coreset],
        window: Optional[int] = None,
    ) -> None:
        self._reduce = reduce
        self.window = None if window is None else check_positive_int(window, "window")
        self._buckets: Dict[int, Bucket] = {}
        self._next_id = 0
        self.merges = 0
        self.max_live_buckets = 0
        self.max_resident_points = 0

    # ------------------------------------------------------------ properties
    @property
    def live_buckets(self) -> List[Bucket]:
        """Live buckets, oldest first."""
        return sorted(self._buckets.values(), key=lambda b: b.first_batch)

    @property
    def live_bucket_count(self) -> int:
        return len(self._buckets)

    @property
    def live_bucket_ids(self) -> List[int]:
        return sorted(self._buckets)

    @property
    def resident_points(self) -> int:
        """Total coreset points currently held — the memory the tree bounds."""
        return sum(b.coreset.size for b in self._buckets.values())

    def merged_coreset(self) -> Coreset:
        """Union of all live buckets (the source's current stream summary)."""
        if not self._buckets:
            raise RuntimeError("the tree holds no buckets (empty or fully expired)")
        return merge_coresets(b.coreset for b in self.live_buckets)

    # ------------------------------------------------------------------ API
    def insert(self, coreset: Coreset, batch_index: int) -> None:
        """Add one batch coreset at ``batch_index`` and cascade merges.

        A source learns what to transmit by comparing
        :attr:`live_bucket_ids` with the ids it already shipped.
        """
        leaf = Bucket(
            bucket_id=self._allocate_id(),
            level=0,
            coreset=coreset,
            first_batch=int(batch_index),
            last_batch=int(batch_index),
        )
        self._buckets[leaf.bucket_id] = leaf
        self._cascade(leaf.level)
        self._track_peaks()

    def expire(self, current_batch: int) -> None:
        """Drop buckets whose whole range left the window (no-op when the
        tree is unwindowed)."""
        if self.window is None:
            return
        cutoff = int(current_batch) - self.window
        expired = [bid for bid, b in self._buckets.items() if b.last_batch <= cutoff]
        for bid in expired:
            del self._buckets[bid]

    # ------------------------------------------------------------ internals
    def _allocate_id(self) -> int:
        bid = self._next_id
        self._next_id += 1
        return bid

    def _mergeable_at(self, level: int) -> List[Bucket]:
        return sorted(
            (b for b in self._buckets.values() if b.level == level and not b.frozen),
            key=lambda b: b.first_batch,
        )

    def _cascade(self, level: int) -> None:
        # Invariant: every level holds at most one unfrozen bucket between
        # insertions, so each merge can only overflow the next level up.
        while True:
            peers = self._mergeable_at(level)
            if len(peers) < 2:
                return
            older, newer = peers[0], peers[1]
            span = newer.last_batch - older.first_batch + 1
            if self.window is not None and span > self.window:
                # Span-capped: the older bucket can never merge again inside
                # the window — freeze it until it expires.
                older.frozen = True
                continue
            merged = older.coreset.merged_with(newer.coreset)
            reduced = self._reduce(merged)
            del self._buckets[older.bucket_id]
            del self._buckets[newer.bucket_id]
            parent = Bucket(
                bucket_id=self._allocate_id(),
                level=level + 1,
                coreset=reduced,
                first_batch=older.first_batch,
                last_batch=newer.last_batch,
            )
            self._buckets[parent.bucket_id] = parent
            self.merges += 1
            level += 1

    def _track_peaks(self) -> None:
        self.max_live_buckets = max(self.max_live_buckets, len(self._buckets))
        self.max_resident_points = max(self.max_resident_points, self.resident_points)
