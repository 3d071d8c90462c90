"""Integer pins of streaming runs the golden fixture does not reach.

``tests/goldens/communication.json`` runs every streaming composition on the
ideal network with even shards.  These pins cover the delivery paths that
only a faulty deployment takes, in both the star and a tree topology: a
lossy network (the ``lossy`` preset, and the same preset without retries so
that many bucket deltas and aggregator hops fail and ship on a later step),
a source that drops out mid-stream (plus a mid-tree aggregator that drops
out in tree runs), uneven shard lengths (ended streams keep ageing under a
sliding window), and a query every two steps.

Everything pinned is integer-exact: uplink totals, the network's loss and
retransmission counts, the delivery failures, the surviving sources, and per
query its step, windowed bits, live buckets at the server and summary size.
"""

import numpy as np
import pytest

from repro.core import registry
from repro.datasets import make_gaussian_mixture
from repro.distributed.conditions import FaultPlan

#: Rows per source: 5, 3, 7, 2, 6 and 4 batches of 32.
SHARD_ROWS = (160, 96, 224, 64, 192, 128)

#: case -> (composition, tree topology?, retry budget override)
CASES = {
    f"{name}-{shape}-{net}": (name, shape == "tree", retries)
    for name in ("stream-fss-window", "stream-uniform-qt")
    for shape in ("star", "tree")
    for net, retries in (("lossy", None), ("lossy-noretry", 0))
}


def accounting(name: str, tree: bool, retries) -> dict:
    points, _, _ = make_gaussian_mixture(n=sum(SHARD_ROWS), d=10, k=3, seed=5)
    shards = np.split(points, np.cumsum(SHARD_ROWS)[:-1])
    dropout = {"source-4": 2}
    kwargs = dict(
        k=3, seed=11, coreset_size=40, batch_size=32, query_every=2,
        network="lossy", retries=retries,
    )
    if name == "stream-fss-window":
        # Shorter than the longest shard, so buckets expire mid-stream.
        kwargs["window"] = 3
    if tree:
        # balanced(6, 2): agg-1-1 carries sources 2 and 3.
        dropout["agg-1-1"] = 3
        kwargs.update(topology="tree", fan_in=2)
    report = registry.create_pipeline(
        name, fault_plan=FaultPlan(dropout=dropout), **kwargs
    ).run(shards)
    details = report.details
    return {
        "uplink_scalars": int(details["cumulative_scalars"]),
        "uplink_bits": int(details["cumulative_bits"]),
        "communication_bits": int(report.communication_bits),
        "retransmissions": int(report.retransmissions),
        "messages_lost": int(report.messages_lost),
        "participating_sources": int(report.participating_sources),
        "delivery_failures": int(details["delivery_failures"])
        + int(details.get("aggregator_delivery_failures", 0)),
        "queries": [
            [q.time, q.windowed_bits, q.live_buckets, q.summary_cardinality]
            for q in report.queries
        ],
    }


#: Each query is [step, windowed bits, live buckets, summary cardinality].
PINS = {
    "stream-fss-window-star-lossy": {
        "uplink_scalars": 11237, "uplink_bits": 719168,
        "communication_bits": 99328, "retransmissions": 16,
        "messages_lost": 16, "participating_sources": 5,
        "delivery_failures": 0,
        "queries": [
            [1, 380928, 6, 240],
            [3, 438720, 10, 392],
            [5, 162112, 6, 232],
            [6, 99328, 4, 144],
        ],
    },
    "stream-fss-window-star-lossy-noretry": {
        "uplink_scalars": 11270, "uplink_bits": 721280,
        "communication_bits": 97280, "retransmissions": 0,
        "messages_lost": 13, "participating_sources": 5,
        "delivery_failures": 13,
        "queries": [
            [1, 302656, 5, 192],
            [3, 392064, 9, 352],
            [5, 156928, 6, 232],
            [6, 97280, 4, 144],
        ],
    },
    "stream-fss-window-tree-lossy": {
        "uplink_scalars": 21039, "uplink_bits": 1346496,
        "communication_bits": 672192, "retransmissions": 39,
        "messages_lost": 39, "participating_sources": 3,
        "delivery_failures": 0,
        "queries": [
            [1, 674176, 2, 80],
            [3, 873152, 2, 80],
            [4, 672192, 2, 80],
        ],
    },
    "stream-fss-window-tree-lossy-noretry": {
        "uplink_scalars": 15342, "uplink_bits": 981888,
        "communication_bits": 409024, "retransmissions": 0,
        "messages_lost": 21, "participating_sources": 3,
        "delivery_failures": 21,
        "queries": [
            [1, 501824, 2, 80],
            [3, 644800, 2, 80],
            [4, 409024, 2, 80],
        ],
    },
    "stream-uniform-qt-star-lossy": {
        "uplink_scalars": 11232, "uplink_bits": 292128,
        "communication_bits": 292128, "retransmissions": 16,
        "messages_lost": 16, "participating_sources": 5,
        "delivery_failures": 0,
        "queries": [
            [1, 155808, 6, 240],
            [3, 250112, 7, 272],
            [5, 282720, 9, 344],
            [6, 292128, 10, 376],
        ],
    },
    "stream-uniform-qt-star-lossy-noretry": {
        "uplink_scalars": 9708, "uplink_bits": 244992,
        "communication_bits": 244992, "retransmissions": 0,
        "messages_lost": 11, "participating_sources": 5,
        "delivery_failures": 11,
        "queries": [
            [1, 121216, 5, 192],
            [3, 205024, 7, 272],
            [5, 235584, 9, 344],
            [6, 244992, 10, 376],
        ],
    },
    "stream-uniform-qt-tree-lossy": {
        "uplink_scalars": 20142, "uplink_bits": 536448,
        "communication_bits": 536448, "retransmissions": 38,
        "messages_lost": 38, "participating_sources": 3,
        "delivery_failures": 0,
        "queries": [
            [1, 281056, 2, 80],
            [3, 496320, 2, 80],
            [4, 536448, 2, 80],
        ],
    },
    "stream-uniform-qt-tree-lossy-noretry": {
        "uplink_scalars": 14232, "uplink_bits": 359808,
        "communication_bits": 359808, "retransmissions": 0,
        "messages_lost": 19, "participating_sources": 3,
        "delivery_failures": 19,
        "queries": [
            [1, 202784, 2, 80],
            [3, 329856, 2, 80],
            [4, 359808, 2, 80],
        ],
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_accounting_matches_pin(case):
    assert accounting(*CASES[case]) == PINS[case]
