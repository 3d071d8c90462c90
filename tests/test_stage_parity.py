"""Communication-metering parity between the stage engine and the seed code.

The expected values below were captured by running the original monolithic
pipeline implementations (pre-refactor) with the exact configurations used
here.  The stage-engine rewrite must reproduce them **identically** — every
scalar and every bit — because the paper's headline numbers (Tables 3/4) are
communication costs.  The distributed values are sensitive to the RNG stream
(the disSS sample allocation depends on data-dependent costs), so these tests
also pin the engine's seed-handshake ordering against the seed behaviour.
"""

import numpy as np
import pytest

from repro.core.registry import (
    BKLWPipeline,
    DistributedNoReductionPipeline,
    FSSJLPipeline,
    FSSPipeline,
    JLBKLWPipeline,
    JLFSSJLPipeline,
    JLFSSPipeline,
    NoReductionPipeline,
)
from repro.datasets import make_gaussian_mixture
from repro.distributed.network import Message, SimulatedNetwork, _count_scalars
from repro.distributed.partition import partition_dataset
from repro.quantization.rounding import RoundingQuantizer


@pytest.fixture(scope="module")
def dataset():
    points, _, _ = make_gaussian_mixture(
        n=240, d=60, k=3, separation=8.0, cluster_std=1.0, seed=123
    )
    return points


@pytest.fixture(scope="module")
def shards(dataset):
    indices = partition_dataset(dataset, 4, seed=99)
    return [dataset[idx] for idx in indices]


_SINGLE_KW = dict(k=3, seed=0, coreset_size=50, pca_rank=6)
_QT = dict(quantizer=RoundingQuantizer(8))

#: (pipeline factory kwargs) -> seed-captured
#: (communication_scalars, communication_bits, summary_cardinality,
#:  summary_dimension).
SINGLE_SOURCE_EXPECTED = [
    # NR: the raw 240x60 dataset.
    (NoReductionPipeline, dict(k=3, seed=0), (14400, 921600, 240, 60)),
    # FSS: 50x6 coords + 60x6 basis + 50 weights + 1 shift = 711.
    (FSSPipeline, _SINGLE_KW, (711, 45504, 50, 6)),
    # Alg1: 50x6 coords + 20x6 basis (projected space) + 50 + 1 = 471.
    (JLFSSPipeline, dict(jl_dimension=20, **_SINGLE_KW), (471, 30144, 50, 6)),
    # Alg2: 50x20 points + 50 + 1 = 1051 (no basis travels).
    (FSSJLPipeline, dict(jl_dimension=20, **_SINGLE_KW), (1051, 67264, 50, 20)),
    # Alg3: 50x10 points + 50 + 1 = 551.
    (JLFSSJLPipeline,
     dict(jl_dimension=20, second_jl_dimension=10, **_SINGLE_KW),
     (551, 35264, 50, 10)),
    # +QT variants: identical scalar counts, reduced bits on the point
    # payload only (weights/basis/shift stay at 64 bits).
    (NoReductionPipeline, dict(k=3, seed=0, **_QT), (14400, 288000, 240, 60)),
    (FSSPipeline, dict(**_SINGLE_KW, **_QT), (711, 32304, 50, 6)),
    (JLFSSPipeline, dict(jl_dimension=20, **_SINGLE_KW, **_QT), (471, 16944, 50, 6)),
    (FSSJLPipeline, dict(jl_dimension=20, **_SINGLE_KW, **_QT), (1051, 23264, 50, 20)),
    (JLFSSJLPipeline,
     dict(jl_dimension=20, second_jl_dimension=10, **_SINGLE_KW, **_QT),
     (551, 13264, 50, 10)),
    # Derived-default geometry (no explicit sizes).
    (FSSPipeline, dict(k=3, seed=1), (4741, 303424, 240, 15)),
    (JLFSSJLPipeline, dict(k=3, seed=1), (14641, 937024, 240, 60)),
]

_MULTI_KW = dict(k=3, seed=0, total_samples=60, pca_rank=6)

#: Distributed cases additionally pin the per-stage detail scalars; the disSS
#: counts depend on the RNG stream, so equality here proves the engine's
#: seed-handshake order matches the seed implementations.
MULTI_SOURCE_EXPECTED = [
    (DistributedNoReductionPipeline, dict(k=3, seed=0),
     (14400, 921600, 240, 60), {}),
    (BKLWPipeline, _MULTI_KW,
     (13363, 855232, 195, 60),
     {"dispca_scalars": 1464.0, "disss_scalars": 11899.0}),
    (JLBKLWPipeline, dict(jl_dimension=20, **_MULTI_KW),
     (4519, 289216, 191, 20),
     {"dispca_scalars": 504.0, "disss_scalars": 4015.0, "jl_dimension": 20.0}),
    (DistributedNoReductionPipeline, dict(k=3, seed=0, **_QT),
     (14400, 288000, 240, 60), {}),
    (BKLWPipeline, dict(**_MULTI_KW, **_QT),
     (13363, 340432, 195, 60),
     {"dispca_scalars": 1464.0, "disss_scalars": 11899.0}),
    (JLBKLWPipeline, dict(jl_dimension=20, **_MULTI_KW, **_QT),
     (4519, 121136, 191, 20),
     {"dispca_scalars": 504.0, "disss_scalars": 4015.0, "jl_dimension": 20.0}),
    (BKLWPipeline, dict(k=3, seed=2),
     (26539, 1698496, 375, 60),
     {"dispca_scalars": 3660.0, "disss_scalars": 22879.0}),
]


class TestSingleSourceParity:
    @pytest.mark.parametrize(
        "pipeline_cls, kwargs, expected", SINGLE_SOURCE_EXPECTED,
        ids=[f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(SINGLE_SOURCE_EXPECTED)],
    )
    def test_matches_seed_implementation(self, dataset, pipeline_cls, kwargs, expected):
        report = pipeline_cls(**kwargs).run(dataset)
        scalars, bits, cardinality, dimension = expected
        assert report.communication_scalars == scalars
        assert report.communication_bits == bits
        assert report.summary_cardinality == cardinality
        assert report.summary_dimension == dimension

    def test_runs_are_reproducible(self, dataset):
        """Two pipelines with the same master seed produce identical centers."""
        first = JLFSSJLPipeline(k=3, seed=42, coreset_size=40).run(dataset)
        second = JLFSSJLPipeline(k=3, seed=42, coreset_size=40).run(dataset)
        np.testing.assert_array_equal(first.centers, second.centers)


class TestMultiSourceParity:
    @pytest.mark.parametrize(
        "pipeline_cls, kwargs, expected, details", MULTI_SOURCE_EXPECTED,
        ids=[f"{cls.__name__}-{i}" for i, (cls, _, _, _) in enumerate(MULTI_SOURCE_EXPECTED)],
    )
    def test_matches_seed_implementation(
        self, shards, pipeline_cls, kwargs, expected, details
    ):
        report = pipeline_cls(**kwargs).run([s.copy() for s in shards])
        scalars, bits, cardinality, dimension = expected
        assert report.communication_scalars == scalars
        assert report.communication_bits == bits
        assert report.summary_cardinality == cardinality
        assert report.summary_dimension == dimension
        for key, value in details.items():
            assert report.details[key] == value


class TestCountScalarsNestedPayloads:
    """The metering chokepoint must count arbitrarily nested payloads."""

    def test_deeply_nested_mixed_containers(self):
        payload = {
            "coords": np.zeros((5, 3)),
            "meta": {"shift": 0.5, "sizes": [1, 2, 3]},
            "blocks": [np.zeros(4), (np.zeros((2, 2)), 7.0), []],
        }
        assert _count_scalars(payload) == 15 + 1 + 3 + 4 + 4 + 1

    def test_empty_containers_count_zero(self):
        assert _count_scalars({}) == 0
        assert _count_scalars([]) == 0
        assert _count_scalars({"a": [], "b": {}}) == 0

    def test_dict_of_lists_of_dicts(self):
        payload = {"rows": [{"x": 1.0, "y": 2.0}, {"x": 3.0, "y": np.zeros(6)}]}
        assert _count_scalars(payload) == 2 + 1 + 6

    def test_numpy_scalar_types(self):
        assert _count_scalars(np.int32(5)) == 1
        assert _count_scalars([np.float32(1.0), np.int64(2)]) == 2


class TestDownlinkAccounting:
    """Uplink metrics must exclude server → source traffic, which is still
    recorded in the log (disSS sends the sample-size allocation downlink)."""

    def test_downlink_not_counted_in_uplink_totals(self):
        network = SimulatedNetwork()
        network.send("source-0", "server", np.zeros((4, 4)), tag="summary")
        network.send("server", "source-0", np.zeros(10), tag="allocation")
        assert network.uplink_scalars() == 16
        assert network.uplink_bits() == 16 * 64
        assert network.log.total_scalars(uplink_only=False) == 26
        assert len(network.log) == 2

    def test_downlink_message_direction(self):
        message = Message("server", "source-3", "allocation", scalars=4)
        assert not message.uplink
        assert message.bits == 4 * 64

    def test_bklw_records_downlink_allocation(self, shards):
        """The BKLW protocol's downlink allocation messages are in the log
        but excluded from the uplink metrics the reports quote."""
        pipeline = BKLWPipeline(k=3, seed=0, total_samples=60, pca_rank=6)
        # Re-run on fresh shards and inspect via a fresh cluster run: the
        # report only exposes uplink, so check the invariant indirectly.
        report = pipeline.run([s.copy() for s in shards])
        assert report.communication_scalars == 13363  # uplink only, as pinned
