"""Acceptance tests for the streaming subsystem (ISSUE 2 criteria).

Streaming FSS on a 50k-point Gaussian mixture must reach a normalized
k-means cost within 10% of the one-shot FSS pipeline while per-source
resident memory stays ``O(coreset_size · log(n / batch_size))`` — verified
through the tree's live-bucket accounting — and sliding-window mode must
drop expired batches from both the cost and the communication totals.
"""

import math

import numpy as np
import pytest

from repro.core.registry import FSSPipeline
from repro.core.streaming import StreamingEngine
from repro.datasets import make_gaussian_mixture
from repro.kmeans.cost import kmeans_cost
from repro.metrics.evaluation import EvaluationContext
from repro.stages.cr import FSSStage

N = 50_000
D = 16
K = 4
CORESET_SIZE = 400
BATCH_SIZE = 2048
NUM_SOURCES = 2


@pytest.fixture(scope="module")
def mixture():
    points, _, _ = make_gaussian_mixture(n=N, d=D, k=K, separation=5.0, seed=40)
    return points


@pytest.fixture(scope="module")
def context(mixture):
    return EvaluationContext.build(mixture, K, n_init=5, seed=41)


def normalized(points, centers, context):
    return kmeans_cost(points, centers) / context.reference_cost


@pytest.fixture(scope="module")
def streamed_report(mixture):
    engine = StreamingEngine(
        [FSSStage(size=CORESET_SIZE)],
        k=K,
        batch_size=BATCH_SIZE,
        seed=42,
    )
    shards = np.array_split(mixture, NUM_SOURCES)
    return engine.run(shards)


def test_streaming_fss_cost_within_10_percent_of_one_shot(
    mixture, context, streamed_report
):
    one_shot = FSSPipeline(k=K, coreset_size=CORESET_SIZE, seed=42).run(mixture)
    one_shot_cost = normalized(mixture, one_shot.centers, context)
    streamed_cost = normalized(mixture, streamed_report.centers, context)
    assert streamed_cost <= one_shot_cost * 1.10, (streamed_cost, one_shot_cost)


def test_resident_memory_is_logarithmic_in_stream_length(streamed_report):
    batches_per_source = math.ceil((N / NUM_SOURCES) / BATCH_SIZE)
    bucket_bound = math.ceil(math.log2(batches_per_source)) + 1
    assert streamed_report.details["max_live_buckets"] <= bucket_bound
    # Each bucket holds one coreset, so resident memory is O(m · log(n/b)).
    assert (
        streamed_report.details["max_resident_points"]
        <= bucket_bound * CORESET_SIZE
    )


def test_sliding_window_drops_expired_batches():
    # Two regimes: early batches sample a cluster at +offset, late batches a
    # cluster at -offset.  A window covering only the late batches must (a)
    # place its center near the late cluster — expired batches leave the
    # cost — and (b) report less communication than was cumulatively sent.
    rng = np.random.default_rng(43)
    offset = 60.0
    early = rng.standard_normal((8 * 500, 6)) + offset
    late = rng.standard_normal((8 * 500, 6)) - offset
    batches = list(np.vstack([early, late]).reshape(16, 500, 6))

    engine = StreamingEngine(
        [FSSStage(size=100)], k=1, batch_size=500, window=4, query_every=4, seed=44
    )
    report = engine.run_streams([batches])

    center = report.centers[0]
    assert np.allclose(center, -offset * np.ones(6), atol=3.0)
    # Expired batches also leave the communication totals.
    assert report.communication_bits < report.details["cumulative_bits"]
    assert report.communication_scalars < report.details["cumulative_scalars"]
    # Mid-stream queries saw the early regime before it expired.
    first_query = report.queries[0]
    assert first_query.time == 3
    assert np.allclose(first_query.centers[0], offset * np.ones(6), atol=3.0)


def test_live_bucket_trace_stays_within_window(mixture):
    window = 4
    engine = StreamingEngine(
        [FSSStage(size=120)],
        k=K,
        batch_size=BATCH_SIZE,
        window=window,
        query_every=2,
        seed=45,
    )
    report = engine.run([mixture[: 10 * BATCH_SIZE]])
    for query in report.queries:
        # Windowed accounting never exceeds the cumulative totals.
        assert query.windowed_bits <= query.bits
    # Once the stream outgrows the window, retired + expired buckets keep the
    # live count small even though ten batches were ingested.
    assert report.queries[-1].live_buckets <= window
