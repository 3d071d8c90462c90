"""S2 — Source-count scaling: flat star vs hierarchical aggregation tree.

The paper's experiments stop at 10 sources; the star topology they imply
folds every source directly into the edge server, so the server's query cost
grows linearly with the source count.  This benchmark records the 10 → 10k
source-count curve for the flat star and for a balanced aggregation tree
(``topology="tree"``), persisting wall time, per-layer compute seconds,
simulated network seconds, uplink traffic and clustering quality per row
into ``BENCH_scaling.json``.

The in-process simulation runs every source and aggregator one after
another, so a row's wall time is mostly the same source compute in both
modes and says little about a deployment.  Each row therefore also records
the root server's seconds, the slowest source's and the slowest
aggregator's seconds, and the total CPU across all nodes.

The committed curve is produced with ``REPRO_SCALING_MAX_SOURCES=10000``;
the default stops at 1000 so the tier-1 suite stays affordable.  CI runs the
1000-source smoke and relies on this file's own gate: at >= 1000 sources the
tree must take work off the root — fewer server seconds than the flat star —
while staying in the same quality regime.
"""

from __future__ import annotations

import os
import time
from typing import Dict

import numpy as np
import pytest

from bench_helpers import print_series, record_bench
from repro.core.streaming import StreamingEngine
from repro.datasets import make_gaussian_mixture
from repro.distributed.conditions import LinkModel, NetworkCondition
from repro.stages.cr import FSSStage

#: Source counts of the committed curve; trimmed by REPRO_SCALING_MAX_SOURCES.
SOURCE_COUNTS = (10, 100, 1000, 10000)
MAX_SOURCES = int(os.environ.get("REPRO_SCALING_MAX_SOURCES", "1000"))

K = 4
D = 8
#: Points per source: BATCHES_PER_SOURCE batches of BATCH_SIZE each, so the
#: dataset grows linearly with the source count (n = 96 m) and the per-source
#: work stays constant — what scales is purely the aggregation fan-in.
BATCH_SIZE = 32
BATCHES_PER_SOURCE = 3
CORESET_SIZE = 64
#: Tree fan-in; at source counts at or below the fan-in a 32-ary tree
#: degenerates to the star, so small counts use a smaller fan-in to keep a
#: genuine mid-tree hop in every tree row (that is where the small-m overhead
#: the curve documents comes from).
FAN_IN = 32
SEED = 62

#: Lossless but metered wire: every transmission costs latency + payload
#: seconds, so the curve records non-trivial simulated network time without
#: retransmission randomness.
METERED = NetworkCondition(
    name="metered",
    default_link=LinkModel(
        loss=0.0, latency_seconds=0.005, bandwidth_bits_per_second=50e6
    ),
)


def _counts():
    return [m for m in SOURCE_COUNTS if m <= MAX_SOURCES]


def _fan_in_for(num_sources: int) -> int:
    return FAN_IN if num_sources > FAN_IN else 4


def _engine(num_sources: int, flat: bool) -> StreamingEngine:
    kwargs = {}
    if not flat:
        kwargs = {"topology": "tree", "fan_in": _fan_in_for(num_sources)}
    return StreamingEngine(
        [FSSStage(size=CORESET_SIZE)],
        k=K,
        batch_size=BATCH_SIZE,
        query_every=1,
        server_n_init=3,
        server_max_iterations=25,
        seed=SEED,
        jobs=1,
        network=METERED,
        **kwargs,
    )


def _clustering_cost(points: np.ndarray, centers: np.ndarray) -> float:
    distances = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return float(distances.min(axis=1).sum())


def _measure(num_sources: int) -> Dict[str, Dict[str, float]]:
    n = num_sources * BATCH_SIZE * BATCHES_PER_SOURCE
    points, _, true_centers = make_gaussian_mixture(
        n=n, d=D, k=K, separation=6.0, seed=SEED
    )
    shards = np.array_split(points, num_sources)
    baseline_cost = _clustering_cost(points, true_centers)

    rows: Dict[str, Dict[str, float]] = {}
    for label, flat in ((f"flat@{num_sources}", True), (f"tree@{num_sources}", False)):
        engine = _engine(num_sources, flat)
        start = time.perf_counter()
        report = engine.run(shards)
        wall = time.perf_counter() - start
        details = report.details
        rows[label] = {
            "num_sources": float(num_sources),
            "wall_seconds": wall,
            "server_seconds": float(report.server_seconds),
            "source_seconds": float(report.source_seconds),
            "aggregator_seconds": float(details.get("aggregator_seconds", 0.0)),
            "total_cpu_seconds": float(
                details["total_source_seconds"]
                + details.get("total_aggregator_seconds", 0.0)
                + report.server_seconds
            ),
            "simulated_network_seconds": float(report.simulated_network_seconds),
            "uplink_scalars": float(report.communication_scalars),
            "uplink_bits": float(report.communication_bits),
            "normalized_cost": _clustering_cost(points, report.centers) / baseline_cost,
            "fan_in": float(0 if flat else _fan_in_for(num_sources)),
            "num_aggregators": float(details.get("num_aggregators", 0)),
            "topology_hops": float(details.get("topology_hops", 1)),
        }
    return rows


@pytest.mark.benchmark(group="scaling")
def test_source_scaling_curve():
    counts = _counts()
    rows: Dict[str, Dict[str, float]] = {}
    for m in counts:
        rows.update(_measure(m))

    record_bench("scaling", rows)
    metrics = (
        "wall_seconds", "server_seconds", "total_cpu_seconds",
        "simulated_network_seconds", "normalized_cost",
    )
    for metric in metrics:
        print_series(
            f"Source scaling — {metric}",
            "sources",
            counts,
            {
                "flat": [rows[f"flat@{m}"][metric] for m in counts],
                "tree": [rows[f"tree@{m}"][metric] for m in counts],
            },
        )

    for m in counts:
        flat, tree = rows[f"flat@{m}"], rows[f"tree@{m}"]
        # Both modes answer the query in the regime of the true mixture cost.
        assert flat["normalized_cost"] < 2.0, (m, flat["normalized_cost"])
        # The tree's summary quality tracks the flat fold's: every hop is an
        # exact merge followed by one more coreset reduction.
        assert tree["normalized_cost"] <= flat["normalized_cost"] * 1.25 + 0.35, m
        # Mid-tree hops retransmit reduced coresets, so the tree pays more
        # simulated wire time but never less than the star's uplink.
        assert tree["simulated_network_seconds"] >= flat["simulated_network_seconds"]
        assert tree["num_aggregators"] > 0, m

    # The point of the subsystem: past ~1k sources the star's query cost at
    # the server grows with every source it folds, while the tree's root
    # merges only its few top-level aggregator buckets.
    gated = [m for m in counts if m >= 1000]
    for m in gated:
        flat, tree = rows[f"flat@{m}"], rows[f"tree@{m}"]
        assert tree["server_seconds"] < flat["server_seconds"], (
            m,
            tree["server_seconds"],
            flat["server_seconds"],
        )
