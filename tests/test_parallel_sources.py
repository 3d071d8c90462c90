"""Parallel source execution must be invisible in every report.

The engines run per-source compute sections on a thread pool when ``jobs >
1``; randomness comes from per-source generators pre-derived from the master
seed and transmissions happen in a serial phase, so a parallel run must
produce *identical* reports — centers, communication totals, per-source
summaries, ledgers — to a sequential one.  These tests pin that
order-independence with ``jobs=1`` vs ``jobs=4``.
"""

import numpy as np
import pytest

from repro.core.registry import (
    BKLWPipeline,
    DistributedNoReductionPipeline,
    JLBKLWPipeline,
    create_pipeline,
)
from repro.datasets import make_gaussian_mixture
from repro.distributed.partition import partition_dataset
from repro.quantization.rounding import RoundingQuantizer
from repro.utils.parallel import parallel_map, resolve_jobs


@pytest.fixture(scope="module")
def shards():
    points, _, _ = make_gaussian_mixture(
        n=600, d=30, k=3, separation=8.0, cluster_std=1.0, seed=77
    )
    indices = partition_dataset(points, 4, seed=5)
    return [points[idx] for idx in indices]


def _reports_identical(a, b):
    np.testing.assert_array_equal(a.centers, b.centers)
    assert a.communication_scalars == b.communication_scalars
    assert a.communication_bits == b.communication_bits
    assert a.summary_cardinality == b.summary_cardinality
    assert a.summary_dimension == b.summary_dimension
    for key in a.details:
        if key.endswith("seconds"):
            continue  # timing is the one thing allowed to differ
        assert a.details[key] == b.details[key], key


class TestResolveJobs:
    def test_default_is_sequential(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(2) == 2


class TestParallelMap:
    def test_preserves_order(self):
        assert parallel_map(lambda x: x * x, range(20), jobs=4) == [
            x * x for x in range(20)
        ]

    def test_sequential_fallback(self):
        assert parallel_map(lambda x: -x, [3], jobs=8) == [-3]

    def test_exceptions_propagate(self):
        def boom(x):
            raise RuntimeError("task failed")

        with pytest.raises(RuntimeError):
            parallel_map(boom, [1, 2, 3], jobs=4)


@pytest.mark.parametrize(
    "pipeline_cls, kwargs",
    [
        (DistributedNoReductionPipeline, dict(k=3)),
        (DistributedNoReductionPipeline, dict(k=3, quantizer=RoundingQuantizer(8))),
        (BKLWPipeline, dict(k=3, total_samples=60, pca_rank=6)),
        (JLBKLWPipeline, dict(k=3, total_samples=60, pca_rank=6, jl_dimension=12)),
        (
            JLBKLWPipeline,
            dict(
                k=3,
                total_samples=60,
                pca_rank=6,
                jl_dimension=12,
                quantizer=RoundingQuantizer(10),
            ),
        ),
    ],
    ids=["nr", "nr-qt", "bklw", "jl-bklw", "jl-bklw-qt"],
)
class TestDistributedOrderIndependence:
    def test_jobs_1_vs_4_identical(self, shards, pipeline_cls, kwargs):
        sequential = pipeline_cls(seed=0, jobs=1, **kwargs).run(
            [s.copy() for s in shards]
        )
        parallel = pipeline_cls(seed=0, jobs=4, **kwargs).run(
            [s.copy() for s in shards]
        )
        _reports_identical(sequential, parallel)


class TestDistributedPerSourceSummaries:
    def test_disss_per_source_sizes_and_logs_identical(self, shards):
        """Per-source accounting — merged coreset, and the transmission log
        broken down by sender, by tag, and message by message — must match
        between sequential and parallel execution.  Each source's sample
        allocation shows in the size of its ``disss-samples`` message."""
        from repro.distributed.cluster import EdgeCluster
        from repro.distributed.dispca import run_dispca
        from repro.distributed.disss import run_disss

        results = []
        for jobs in (1, 4):
            cluster = EdgeCluster.from_shards([s.copy() for s in shards], k=3, seed=11)
            run_dispca(cluster.sources, cluster.server, rank=6, jobs=jobs)
            disss = run_disss(cluster.sources, cluster.server, k=3, total_samples=60,
                              quantizer=None, jobs=jobs)
            results.append((disss, cluster))
        a, b = results[0][0], results[1][0]
        np.testing.assert_array_equal(a.coreset.points, b.coreset.points)
        np.testing.assert_array_equal(a.coreset.weights, b.coreset.weights)
        log_a = results[0][1].network.log
        log_b = results[1][1].network.log
        assert log_a.scalars_by_sender() == log_b.scalars_by_sender()
        assert log_a.scalars_by_tag() == log_b.scalars_by_tag()
        assert log_a.messages == log_b.messages  # same order, same costs


class TestStreamingOrderIndependence:
    @pytest.mark.parametrize("name", ["stream-fss", "stream-jl-fss", "stream-fss-window"])
    def test_jobs_1_vs_4_identical(self, name):
        points, _, _ = make_gaussian_mixture(
            n=1200, d=16, k=3, separation=8.0, cluster_std=1.0, seed=21
        )
        indices = partition_dataset(points, 3, seed=9)
        shards = [points[idx] for idx in indices]
        reports = []
        for jobs in (1, 4):
            engine = create_pipeline(
                name,
                k=3,
                coreset_size=60,
                batch_size=128,
                query_every=2,
                seed=33,
                jobs=jobs,
            )
            reports.append(engine.run([s.copy() for s in shards]))
        a, b = reports
        _reports_identical(a, b)
        assert len(a.queries) == len(b.queries)
        for qa, qb in zip(a.queries, b.queries):
            assert qa.time == qb.time
            np.testing.assert_array_equal(qa.centers, qb.centers)
            assert qa.scalars == qb.scalars
            assert qa.bits == qb.bits
            assert qa.windowed_scalars == qb.windowed_scalars
            assert qa.windowed_bits == qb.windowed_bits
            assert qa.live_buckets == qb.live_buckets


class TestRegistryJobsKnob:
    def test_multi_source_factory_accepts_jobs(self):
        pipeline = create_pipeline("bklw", k=2, jobs=4)
        assert pipeline.jobs == 4

    def test_streaming_factory_accepts_jobs(self):
        engine = create_pipeline("stream-fss", k=2, jobs=2)
        assert engine.jobs == 2

    def test_single_source_factory_rejects_jobs(self):
        # Single-source pipelines have one source, so the knob is not theirs.
        with pytest.raises(TypeError, match="jobs"):
            create_pipeline("fss", k=2, jobs=4)
