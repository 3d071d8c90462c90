"""Tests for repro.utils.validation and the public entry points it guards."""

import re
import tracemalloc

import numpy as np
import pytest

import repro
from repro.core import registry
from repro.core.streaming import StreamingEngine
from repro.cr.fss import FSSCoreset
from repro.cr.sensitivity import SensitivitySampler
from repro.distributed.cluster import EdgeCluster
from repro.distributed.network import SimulatedNetwork
from repro.distributed.node import DataSourceNode
from repro.dr.jl import JLProjection
from repro.dr.pca import PCAProjection
from repro.kmeans.bicriteria import bicriteria_approximation
from repro.kmeans.cost import assign_to_centers
from repro.kmeans.seeding import d2_sampling
from repro.stages.cr import UniformStage
from repro.utils.validation import (
    check_fraction,
    check_matrix,
    check_positive_int,
    check_weights,
)


class TestCheckMatrix:
    def test_returns_float_2d(self):
        out = check_matrix([[1, 2], [3, 4]])
        assert out.dtype == float
        assert out.shape == (2, 2)

    def test_promotes_1d(self):
        assert check_matrix([1.0, 2.0, 3.0]).shape == (1, 3)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            check_matrix(np.zeros((2, 2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_matrix([[np.nan, 1.0]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            check_matrix([[np.inf, 1.0]])

    def test_min_rows_enforced(self):
        with pytest.raises(ValueError):
            check_matrix(np.zeros((1, 3)), min_rows=2)

    def test_allow_empty(self):
        out = check_matrix(np.zeros((0, 3)), allow_empty=True)
        assert out.shape == (0, 3)


class TestCheckWeights:
    def test_none_gives_unit_weights(self):
        assert np.allclose(check_weights(None, 4), np.ones(4))

    def test_valid_passthrough(self):
        w = check_weights([1.0, 2.0], 2)
        assert np.allclose(w, [1.0, 2.0])

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            check_weights([1.0], 2)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            check_weights([-1.0, 1.0], 2)

    def test_nan_raises(self):
        with pytest.raises(ValueError):
            check_weights([np.nan, 1.0], 2)

    def test_2d_raises(self):
        with pytest.raises(ValueError):
            check_weights(np.ones((2, 2)), 2)


class TestFiniteCheck:
    """Finiteness is one sum, and the ``np.isfinite`` scan runs only when
    that sum is not finite: a bad entry, or finite entries that overflow."""

    def test_overflowing_finite_entries_pass(self):
        with np.errstate(over="ignore"):
            assert check_matrix(np.full((6, 4), 1e308)).shape == (6, 4)
            assert check_weights(np.full(6, 1e308), 6).shape == (6,)

    @pytest.mark.parametrize(
        "bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]],
        ids=["nan", "+inf", "-inf", "+inf-and--inf"],
    )
    def test_non_finite_entries_raise(self, bad):
        points = np.ones((6, 4))
        points[2, : len(bad)] = bad
        weights = np.ones(6)
        weights[1 : 1 + len(bad)] = bad
        with np.errstate(invalid="ignore"):
            with pytest.raises(
                ValueError, match="^points contains NaN or infinite values$"
            ):
                check_matrix(points)
            with pytest.raises(
                ValueError, match="^weights contains NaN or infinite values$"
            ):
                check_weights(weights, 6)

    def test_check_matrix_allocates_no_mask(self):
        """A 4096 × 784 check peaks below 1% of the array's bytes (an
        ``np.isfinite`` mask alone is 12.5%), with no clock read."""
        points = np.random.default_rng(0).standard_normal((4096, 784))
        check_matrix(points)
        tracemalloc.start()
        try:
            check_matrix(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * points.nbytes, peak


class TestCheckPositiveInt:
    def test_valid(self):
        assert check_positive_int(3, "k") == 3

    def test_numpy_int_accepted(self):
        assert check_positive_int(np.int64(5), "k") == 5

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            check_positive_int(3.0, "k")

    def test_bool_rejected(self):
        # bool subclasses int; True must not pass as k = 1.
        with pytest.raises(TypeError):
            check_positive_int(True, "k")

    def test_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "k")

    def test_custom_minimum(self):
        assert check_positive_int(0, "x", minimum=0) == 0


class TestCheckFraction:
    def test_valid(self):
        assert check_fraction(0.5, "eps") == 0.5

    def test_zero_rejected_by_default(self):
        with pytest.raises(ValueError):
            check_fraction(0.0, "eps")

    def test_one_rejected_by_default(self):
        with pytest.raises(ValueError):
            check_fraction(1.0, "eps")

    def test_inclusive_bounds(self):
        assert check_fraction(0.0, "eps", inclusive_low=True) == 0.0
        assert check_fraction(1.0, "eps", inclusive_high=True) == 1.0

    def test_custom_range(self):
        assert check_fraction(0.3, "eps", high=1.0 / 3.0, inclusive_high=True) == 0.3
        with pytest.raises(ValueError):
            check_fraction(0.4, "eps", high=1.0 / 3.0, inclusive_high=True)

    @pytest.mark.parametrize("build, name", [
        (lambda: check_fraction(None, "eps"), "eps"),
        (lambda: repro.FSSPipeline(k=2, epsilon=None), "epsilon"),
        (lambda: repro.BKLWPipeline(k=2, delta=None), "delta"),
        (lambda: StreamingEngine([], k=2, epsilon=None), "epsilon"),
    ], ids=["helper", "FSSPipeline", "BKLWPipeline", "StreamingEngine"])
    def test_none_names_the_parameter(self, build, name):
        with pytest.raises(TypeError, match=f"^{name} must be a real number"):
            build()

    def test_registry_drops_none_as_the_default(self):
        assert registry.create_pipeline("fss", k=2, epsilon=None).epsilon == 0.2


# Public entry points that take a point set, called as ``fn(points)`` or,
# for the ones that take weights, ``fn(points, weights)``.
WEIGHTED_ENTRIES = {
    "bicriteria_approximation": lambda p, w=None: bicriteria_approximation(
        p, 3, weights=w, seed=0
    ),
    "d2_sampling": lambda p, w=None: d2_sampling(p, None, 6, weights=w, seed=0),
    "SensitivitySampler.build": lambda p, w=None: SensitivitySampler(
        k=3, size=8, seed=0
    ).build(p, weights=w),
    "SensitivitySampler.compute_sensitivities": lambda p, w=None: SensitivitySampler(
        k=3, size=8, seed=0
    ).compute_sensitivities(p, weights=w),
    "FSSCoreset.build": lambda p, w=None: FSSCoreset(k=3, size=8, seed=0).build(
        p, weights=w
    ),
}
ENTRIES = dict(
    WEIGHTED_ENTRIES,
    **{
        "PCAProjection.fit": lambda p: PCAProjection(rank=2).fit(p),
        "assign_to_centers": lambda p: assign_to_centers(
            p, np.zeros((2, p.shape[-1]))
        ),
        "JLProjection.transform": lambda p: JLProjection(4, 2, seed=0).transform(p),
        "DataSourceNode": lambda p: DataSourceNode(
            "source-0", p, SimulatedNetwork()
        ),
        "EdgeCluster.from_shards": lambda p: EdgeCluster.from_shards(
            [p], k=3, seed=0
        ),
        "DistributedStagePipeline.run": lambda p: registry.create_pipeline(
            "jl-bklw", k=3, seed=0
        ).run([p]),
        "StreamingEngine.run_streams": lambda p: StreamingEngine(
            [UniformStage(8)], k=3, batch_size=8, seed=0
        ).run_streams([[p]]),
    },
)
# The name an entry's messages give the array, where it is not "points".
ARRAY_NAMES = {
    "DistributedStagePipeline.run": "shard",
    "StreamingEngine.run_streams": "batch",
}
# Finite points whose squared distances overflow to inf - inf = NaN.
OVERFLOWING_ENTRIES = [
    "bicriteria_approximation",
    "SensitivitySampler.build",
    "SensitivitySampler.compute_sensitivities",
    "FSSCoreset.build",
]


def _boundary_points():
    return np.random.default_rng(3).standard_normal((32, 4))


def _bad_points(kind):
    points = _boundary_points()
    if kind == "nan":
        points[3, 1] = np.nan
    elif kind == "inf":
        points[5, 0] = np.inf
    else:
        points = points.reshape(2, 16, 4)
    return points


def _bad_weights(kind):
    weights = np.ones(32)
    if kind == "negative":
        weights[4] = -1.0
    elif kind == "nan":
        weights[2] = np.nan
    elif kind == "short":
        weights = weights[:-1]
    else:
        weights[:] = 0.0
    return weights


class TestPublicBoundary:
    """Each public entry refuses bad input itself, with the message its
    validator gives, whatever trusted loop runs behind it."""

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("kind, message", [
        ("nan", "points contains NaN or infinite values"),
        ("inf", "points contains NaN or infinite values"),
        ("3d", "points must be a 2-D array, got ndim=3"),
    ])
    def test_bad_points_rejected(self, entry, kind, message):
        message = message.replace("points", ARRAY_NAMES.get(entry, "points"))
        with pytest.raises(ValueError, match=re.escape(message)):
            ENTRIES[entry](_bad_points(kind))

    @pytest.mark.parametrize("entry", sorted(WEIGHTED_ENTRIES))
    @pytest.mark.parametrize("kind, message", [
        ("negative", "weights must be non-negative"),
        ("nan", "weights contains NaN or infinite values"),
        ("short", "weights must have length 32, got 31"),
        ("zero", "weights must contain at least one positive entry"),
    ])
    def test_bad_weights_rejected(self, entry, kind, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            WEIGHTED_ENTRIES[entry](_boundary_points(), _bad_weights(kind))

    @pytest.mark.parametrize("entry", OVERFLOWING_ENTRIES)
    def test_overflowing_distances_rejected(self, entry):
        points = _boundary_points() * 1e200
        with np.errstate(all="ignore"), pytest.raises(
            ValueError, match="probabilities must contain positive mass"
        ):
            ENTRIES[entry](points)

    @pytest.mark.parametrize("make", [
        lambda: bicriteria_approximation(_boundary_points(), True, seed=0),
        lambda: FSSCoreset(k=True),
        lambda: SensitivitySampler(k=True, size=8),
    ], ids=["bicriteria_approximation", "FSSCoreset", "SensitivitySampler"])
    def test_bool_k_rejected(self, make):
        with pytest.raises(TypeError, match="k must be an integer"):
            make()
