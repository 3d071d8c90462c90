"""Perf micro/macro benchmarks of the numerical core → BENCH_perf.json.

Times the hot primitives (fused assignment/cost, cluster means, k-means++,
D²-sampling, bicriteria) and the end-to-end ``fss`` / ``jl-fss`` registered
pipelines, plus bicriteria and FSS at a streaming source's leaf shape
(32 × 8 batch, k = 4), bicriteria at the two ends of an aggregation hop's
merge-and-re-reduce (704 and 3072 weighted points of 8 dims, k = 4, whose
12-wide D² rounds take the row-minimum path), the server's k-means solve
at the three query shapes (a 320 × 8 stream-tree root coreset and a
1024 × 8 ``repro serve`` tenant of 16 sources' buckets, both with k = 4, 10
restarts and at most 25 updates each; a 640 × 129 one-shot coreset with
k = 2 and 5 restarts), where per-call overhead rather than arithmetic
shows, and the two tall exact SVDs: disPCA's local SVD on a JL-projected
2000 × 129 shard and a PCA fit on 4000 × 256.
``primitive:make_mnist_like`` times the MNIST-like generator at the
``oneshot`` benchmark's 20000 × 784 and keeps, apart from the timing, its
``tracemalloc`` peak over the output's bytes.  The rows go to
``BENCH_perf.json`` so CI uploads a machine-readable perf trajectory
alongside the streaming benches.  The
committed copy of the file additionally carries the ``baseline:*`` /
``post:*`` rows measured on the 100k × 50 acceptance workload (see
``benchmarks/perf_baseline.py``).

Scale with ``REPRO_BENCH_SCALE``; the default keeps the whole module under a
minute on a laptop.
"""

import time
import tracemalloc

import numpy as np
import pytest

from bench_helpers import SCALE, record_perf, run_once, time_best_of
from repro.core import registry
from repro.cr.fss import FSSCoreset
from repro.datasets import make_gaussian_mixture, make_mnist_like
from repro.distributed.network import SimulatedNetwork
from repro.distributed.node import DataSourceNode
from repro.dr.pca import PCAProjection
from repro.kmeans.bicriteria import bicriteria_approximation
from repro.kmeans.cost import assign_and_cost, assign_to_centers, cluster_means
from repro.kmeans.lloyd import WeightedKMeans
from repro.kmeans.seeding import d2_sampling, kmeans_plus_plus

N = int(40_000 * SCALE)
D = 50
K = 10

# The stream-fss leaf: one 32-row batch of 8-dim points, k = 4, coreset size
# 64; each leaf row times LEAF_CALLS back-to-back calls.
LEAF_CALLS = 200
# Each query-shape solve row times QUERY_CALLS back-to-back fits.
QUERY_CALLS = 50
# Each aggregation-hop bicriteria row times HOP_CALLS back-to-back calls.
HOP_CALLS = 20
# The generator row builds the oneshot benchmark's dataset shape.
MNIST_SHAPE = (20_000, 784)


def mnist_like_peak_ratio() -> float:
    """``tracemalloc`` peak of one generation over the output's bytes."""
    tracemalloc.start()
    try:
        points, _ = make_mnist_like(*MNIST_SHAPE, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / points.nbytes


@pytest.fixture(scope="module")
def dataset():
    points, _, _ = make_gaussian_mixture(
        n=max(N, 2_000), d=D, k=K, separation=6.0, cluster_std=1.0, seed=31
    )
    return points


@pytest.fixture(scope="module")
def centers(dataset):
    rng = np.random.default_rng(0)
    return dataset[rng.choice(dataset.shape[0], size=K, replace=False)].copy()


def test_primitive_timings(benchmark, dataset, centers):
    """Record per-primitive best-of-3 timings."""
    labels, _ = assign_to_centers(dataset, centers)
    leaf = np.random.default_rng(5).standard_normal((32, 8))
    shard_node = DataSourceNode(
        "source-0", np.random.default_rng(6).standard_normal((2000, 129)),
        SimulatedNetwork(),
    )
    tall = np.random.default_rng(7).standard_normal((4000, 256))
    query_rng = np.random.default_rng(8)
    stream_query = query_rng.standard_normal((320, 8))
    stream_weights = query_rng.random(320) + 0.5
    oneshot_query = query_rng.standard_normal((640, 129))
    oneshot_weights = query_rng.random(640) + 0.5
    serve_query = query_rng.standard_normal((1024, 8))
    serve_weights = query_rng.random(1024) + 0.5

    def leaf_calls(fn, calls=LEAF_CALLS):
        return lambda: [fn(seed) for seed in range(calls)]

    def hop_row(rows):
        hop_rng = np.random.default_rng(rows)
        hop = hop_rng.standard_normal((rows, 8))
        hop_weights = hop_rng.random(rows) + 0.5
        return {
            "seconds": time_best_of(leaf_calls(
                lambda seed: bicriteria_approximation(
                    hop, 4, weights=hop_weights, seed=seed
                ),
                HOP_CALLS,
            )),
            "calls": float(HOP_CALLS),
        }

    rows = {
        "primitive:fused_assign_cost": {
            "seconds": time_best_of(lambda: assign_and_cost(dataset, centers))
        },
        "primitive:assign_to_centers": {
            "seconds": time_best_of(lambda: assign_to_centers(dataset, centers))
        },
        "primitive:cluster_means": {
            "seconds": time_best_of(lambda: cluster_means(dataset, labels, K))
        },
        "primitive:kmeans_plus_plus": {
            "seconds": time_best_of(
                lambda: kmeans_plus_plus(dataset[:10_000], K, seed=1)
            )
        },
        "primitive:d2_sampling": {
            "seconds": time_best_of(
                lambda: d2_sampling(dataset, centers, 512, seed=1)
            )
        },
        "primitive:bicriteria": {
            "seconds": time_best_of(
                lambda: bicriteria_approximation(dataset[:10_000], K, seed=1),
                repeats=1,
            )
        },
        "primitive:bicriteria_leaf": {
            "seconds": time_best_of(leaf_calls(
                lambda seed: bicriteria_approximation(leaf, 4, seed=seed)
            )),
            "calls": float(LEAF_CALLS),
        },
        "primitive:bicriteria_hop_704": hop_row(704),
        "primitive:bicriteria_hop_3072": hop_row(3072),
        "primitive:fss_leaf": {
            "seconds": time_best_of(leaf_calls(
                lambda seed: FSSCoreset(k=4, size=64, seed=seed).build(leaf)
            )),
            "calls": float(LEAF_CALLS),
        },
        "primitive:solve_query_stream": {
            "seconds": time_best_of(leaf_calls(
                lambda seed: WeightedKMeans(
                    k=4, n_init=10, max_iterations=25, seed=seed
                ).fit(stream_query, stream_weights),
                QUERY_CALLS,
            )),
            "calls": float(QUERY_CALLS),
        },
        "primitive:solve_query_serve": {
            "seconds": time_best_of(leaf_calls(
                lambda seed: WeightedKMeans(
                    k=4, n_init=10, max_iterations=25, seed=seed
                ).fit(serve_query, serve_weights),
                QUERY_CALLS,
            )),
            "calls": float(QUERY_CALLS),
        },
        "primitive:solve_query_oneshot": {
            "seconds": time_best_of(leaf_calls(
                lambda seed: WeightedKMeans(k=2, n_init=5, seed=seed).fit(
                    oneshot_query, oneshot_weights
                ),
                QUERY_CALLS,
            )),
            "calls": float(QUERY_CALLS),
        },
        "primitive:local_svd": {
            "seconds": time_best_of(lambda: shard_node.local_svd(10))
        },
        "primitive:pca_fit_tall": {
            "seconds": time_best_of(lambda: PCAProjection(rank=20).fit(tall))
        },
        # Timed first, so the traced call runs with numpy's lazy imports done.
        "primitive:make_mnist_like": {
            "seconds": time_best_of(lambda: make_mnist_like(*MNIST_SHAPE, seed=0)),
            "tracemalloc_peak_ratio": mnist_like_peak_ratio(),
        },
        "primitive:lloyd_fit": {
            "seconds": time_best_of(
                lambda: WeightedKMeans(k=K, n_init=2, seed=3).fit(dataset[:10_000]),
                repeats=1,
            )
        },
    }
    run_once(benchmark, lambda: None)
    path = record_perf(rows)
    print(f"\nrecorded primitive timings -> {path}")
    for name, row in rows.items():
        print(f"  {name:<34} {row['seconds']:.4f}s")


@pytest.mark.parametrize("algorithm", ["fss", "jl-fss"])
def test_pipeline_wall_clock(benchmark, dataset, algorithm):
    """Record end-to-end wall-clock of the acceptance pipelines."""
    pipeline = registry.create_pipeline(
        algorithm, k=K, coreset_size=500, seed=7
    )
    start = time.perf_counter()
    report = run_once(benchmark, lambda: pipeline.run(dataset))
    wall = time.perf_counter() - start
    record_perf({
        f"pipeline:{algorithm}": {
            "wall_seconds": wall,
            "source_seconds": report.source_seconds,
            "server_seconds": report.server_seconds,
            "n": float(dataset.shape[0]),
            "d": float(dataset.shape[1]),
        }
    })
    print(f"\n{algorithm}: wall={wall:.3f}s source={report.source_seconds:.3f}s")
