"""Tests for the fast numerical core: fused kernels, fast samplers, the
trusted bicriteria loop and Lloyd solver, validate-once counts, and the
dtype policy.

Three contracts are pinned here:

1. **Parity** — the fused assignment/cost kernel, the searchsorted samplers,
   the incremental bicriteria sweep and the Lloyd solver's trusted restarts
   must match their naive formulations bit for bit (the registry's golden
   communication values depend on the exact RNG draw sequence, so
   "equivalent" is not enough).
2. **Determinism** — seeded sampler runs reproduce exactly.
3. **Dtype policy** — the validating kernels promote ``float32`` input to
   ``float64``; the linear-algebra helpers pass it through, copy-free, for
   direct callers.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from repro.core import streaming as streaming_engine
from repro.core.streaming import StreamingEngine
from repro.cr.fss import FSSCoreset
from repro.datasets.streams import iter_batches
from repro.distributed.network import SimulatedNetwork
from repro.distributed.node import DataSourceNode
from repro.dr.jl import JLProjection
from repro.kmeans.bicriteria import bicriteria_approximation
from repro.kmeans.cost import (
    _BLOCK_ROWS,
    _nearest_center_pass,
    assign_and_cost,
    assign_to_centers,
    cluster_means,
    weighted_kmeans_cost,
)
from repro.kmeans.lloyd import WeightedKMeans, _farthest_indices
from repro.kmeans.seeding import _pick_distances, d2_sampling, kmeans_plus_plus
from repro.stages.cr import UniformStage
from repro.utils.linalg import (
    _ROW_MIN_MAX_CENTERS,
    _min_squared_distances_into,
    _squared_distances_into,
    pairwise_squared_distances,
    squared_norms,
)
from repro.utils.random import (
    as_generator,
    spawn_generators,
    weighted_index_from_scores,
    weighted_indices,
)
from repro.utils.validation import check_matrix, check_weights


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    points = rng.standard_normal((3000, 17)) * 2.0
    points[1000:2000] += 8.0
    points[2000:] -= 8.0
    weights = rng.random(3000) + 0.05
    return points, weights


class TestFusedAssignCost:
    """The fused kernel must match the naive two-pass computation bit for bit."""

    def test_matches_two_pass_bitwise(self, data):
        points, weights = data
        rng = np.random.default_rng(3)
        centers = points[rng.choice(points.shape[0], size=9, replace=False)]

        labels, d2, cost = assign_and_cost(points, centers, weights)
        naive_labels, naive_d2 = assign_to_centers(points, centers)
        naive_cost = weighted_kmeans_cost(points, centers, weights)

        np.testing.assert_array_equal(labels, naive_labels)
        np.testing.assert_array_equal(d2, naive_d2)
        assert cost == naive_cost  # bitwise, not approx

    def test_shift_carried(self, data):
        points, weights = data
        centers = points[:4]
        _, _, cost = assign_and_cost(points, centers, weights, shift=2.5)
        assert cost == weighted_kmeans_cost(points, centers, weights, shift=2.5)

    def test_unweighted_defaults_to_unit_weights(self, data):
        points, _ = data
        centers = points[:5]
        _, d2, cost = assign_and_cost(points, centers)
        assert cost == float(np.dot(np.ones(points.shape[0]), d2))

    def test_blockwise_matches_single_block(self, data):
        """Inputs larger than the block size produce the same answer."""
        from repro.kmeans import cost as cost_mod

        points, weights = data
        centers = points[:6]
        full = assign_and_cost(points, centers, weights)
        original = cost_mod._BLOCK_ROWS
        try:
            cost_mod._BLOCK_ROWS = 257  # force many ragged blocks
            blocked = assign_and_cost(points, centers, weights)
        finally:
            cost_mod._BLOCK_ROWS = original
        np.testing.assert_array_equal(full[0], blocked[0])
        np.testing.assert_array_equal(full[1], blocked[1])
        assert full[2] == blocked[2]


class TestClusterMeansSegmentSums:
    @pytest.mark.parametrize("d", [17, 129])
    @pytest.mark.parametrize("layout", ["c", "fortran"])
    @pytest.mark.parametrize("weight_kind", ["positive", "zeros"])
    def test_matches_scatter_add_bitwise(self, data, d, layout, weight_kind):
        points, weights = data
        if d != points.shape[1]:
            points = np.random.default_rng(d).standard_normal((points.shape[0], d))
        if layout == "fortran":
            points = np.asfortranarray(points)
        if weight_kind == "zeros":
            weights = weights.copy()
            weights[1::3] = 0.0
        labels = np.random.default_rng(5).integers(0, 12, size=points.shape[0])
        means = cluster_means(points, labels, 12, weights)
        reference = np.zeros((12, points.shape[1]))
        totals = np.zeros(12)
        np.add.at(totals, labels, weights)
        np.add.at(reference, labels, points * weights[:, None])
        nonempty = totals > 0
        reference[nonempty] /= totals[nonempty, None]
        np.testing.assert_array_equal(means, reference)

    def test_return_totals(self, data):
        points, weights = data
        labels = np.zeros(points.shape[0], dtype=np.int64)
        means, totals = cluster_means(points, labels, 3, weights, return_totals=True)
        assert totals[0] == pytest.approx(weights.sum())
        assert totals[1] == 0.0 and totals[2] == 0.0
        np.testing.assert_array_equal(means[1], 0.0)


class TestSearchsortedSamplers:
    """The cumsum+searchsorted samplers must be bit-compatible with
    ``Generator.choice`` and deterministic under a fixed seed."""

    def test_weighted_indices_matches_generator_choice(self):
        p = np.abs(np.random.default_rng(0).standard_normal(513))
        p /= p.sum()
        a = np.random.default_rng(42).choice(513, size=100, replace=True, p=p)
        b = weighted_indices(np.random.default_rng(42), p, size=100)
        np.testing.assert_array_equal(a, b)

    def test_scalar_draw_matches_generator_choice(self):
        p = np.random.default_rng(1).random(64)
        p /= p.sum()
        a = int(np.random.default_rng(9).choice(64, p=p))
        b = weighted_index_from_scores(np.random.default_rng(9), p * 13.0)
        assert a == b

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            weighted_indices(np.random.default_rng(0), np.zeros(8))

    def test_kmeans_plus_plus_deterministic(self, data):
        points, weights = data
        a = kmeans_plus_plus(points, 6, weights=weights, seed=11)
        b = kmeans_plus_plus(points, 6, weights=weights, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_d2_sampling_deterministic(self, data):
        points, weights = data
        centers = points[:3]
        ia, _ = d2_sampling(points, centers, 40, weights=weights, seed=13)
        ib, _ = d2_sampling(points, centers, 40, weights=weights, seed=13)
        np.testing.assert_array_equal(ia, ib)

    def test_d2_sampling_all_zero_weights_raise(self, data):
        points, _ = data
        with pytest.raises(ValueError):
            d2_sampling(points, points[:2], 10, weights=np.zeros(points.shape[0]), seed=0)

    def test_d2_sampling_precomputed_distances_match(self, data):
        points, weights = data
        centers = points[:5]
        closest = pairwise_squared_distances(points, centers).min(axis=1)
        ia, _ = d2_sampling(points, centers, 30, weights=weights, seed=3)
        ib, _ = d2_sampling(
            points, None, 30, weights=weights, seed=3, min_squared_distances=closest
        )
        np.testing.assert_array_equal(ia, ib)


def reference_bicriteria(points, k, weights=None, rounds=None, seed=None,
                         batch_factor=3, repetitions=3):
    """Reference adaptive-sampling loop, written with the public kernels.

    Every round goes through the validating ``d2_sampling``, takes the
    fresh centers with ``np.unique`` and recomputes both norm vectors in
    ``pairwise_squared_distances``; the winner is labelled by the public
    ``assign_to_centers``.  Returns ``(centers, cost, labels, d2, rounds)``.
    """
    points = check_matrix(points, "points")
    n = points.shape[0]
    weights = check_weights(weights, n)
    if rounds is None:
        rounds = max(1, int(np.ceil(np.log2(max(n, 2)))))
    best_centers, best_cost = None, np.inf
    for rng in spawn_generators(as_generator(seed), repetitions):
        batch = min(batch_factor * k, n)
        selected = np.zeros(n, dtype=bool)
        closest = None
        residual = np.inf
        for _ in range(rounds):
            indices, _ = d2_sampling(
                points, None, batch, weights=weights, seed=rng,
                min_squared_distances=closest,
            )
            fresh = np.unique(indices[~selected[indices]])
            selected[fresh] = True
            if fresh.size:
                new_d2 = pairwise_squared_distances(points, points[fresh]).min(axis=1)
                if closest is None:
                    closest = new_d2
                else:
                    np.minimum(closest, new_d2, out=closest)
            residual = float(np.dot(weights, closest))
            if residual <= 0.0:
                break
        centers = points[np.flatnonzero(selected)]
        if best_centers is None or residual < best_cost:
            best_centers, best_cost = centers, residual
    labels, d2 = assign_to_centers(points, best_centers)
    return best_centers, float(best_cost), labels, d2, rounds


def reference_weighted_kmeans(points, k, weights=None, n_init=3,
                              max_iterations=100, tolerance=1e-6, seed=None):
    """Reference solver, written with the public kernels.

    Each restart seeds through the validating ``kmeans_plus_plus``; every
    nearest-center pass sweeps the blocks through the public
    ``pairwise_squared_distances``, which computes each block's row norms
    itself; the means are one ``bincount`` per column.  Returns
    ``(centers, labels, cost, iterations, converged, refills, restarts)``:
    the first five of the best restart, ``refills`` the number of mean
    updates of all restarts that re-seeded an empty cluster, and
    ``restarts`` each restart's ``(centers, cost, iterations)``.
    """
    points = check_matrix(points, "points")
    n, d = points.shape
    weights = check_weights(weights, n)

    def nearest(centers):
        labels, d2 = np.empty(n, dtype=np.int64), np.empty(n)
        for start in range(0, n, _BLOCK_ROWS):
            block = pairwise_squared_distances(
                points[start:start + _BLOCK_ROWS], centers
            )
            rows = slice(start, start + block.shape[0])
            labels[rows] = block.argmin(axis=1)
            d2[rows] = block[np.arange(block.shape[0]), labels[rows]]
        return labels, d2

    best, refills, restarts = None, 0, []
    for rng in spawn_generators(as_generator(seed), n_init):
        size = min(k, n)
        centers = kmeans_plus_plus(points, size, weights=weights, seed=rng)
        labels, _ = nearest(centers)
        cost, previous, converged, iteration = np.inf, np.inf, False, 0
        for iteration in range(1, max_iterations + 1):
            totals = np.bincount(labels, weights=weights, minlength=size)
            weighted = points * weights[:, None]
            means = np.empty((size, d))
            for j in range(d):
                means[:, j] = np.bincount(
                    labels, weights=weighted[:, j], minlength=size
                )
            occupied = totals > 0
            means[~occupied] = 0.0
            means[occupied] /= totals[occupied, None]
            if not occupied.all():
                refills += 1
                _, d2 = nearest(means[occupied])
                refill = np.flatnonzero(~occupied)
                for slot, idx in zip(refill, _farthest_indices(d2, refill.size)):
                    means[slot] = points[idx]
            centers = means
            labels, d2 = nearest(centers)
            cost = float(np.dot(weights, d2))
            if previous - cost <= tolerance * max(previous, 1e-300):
                converged = True
                break
            previous = cost
        if size < k:
            centers = np.vstack([centers, np.repeat(centers[[0]], k - size, axis=0)])
        restarts.append((centers, cost, iteration))
        if best is None or cost < best[2]:
            best = (centers, labels, cost, iteration, converged)
    return best + (refills, restarts)


def _parity_points(n, duplicate=False, d=5, layout=None):
    rng = np.random.default_rng(n)
    if duplicate == "pair":
        points = rng.standard_normal((2, d))[np.arange(n) % 2]
    elif duplicate:
        points = np.tile(rng.standard_normal((1, d)), (n, 1))
    else:
        points = rng.standard_normal((n, d))
        points[: n // 2] += 6.0
    if layout == "float32":
        return points.astype(np.float32)
    if layout == "fortran":
        return np.asfortranarray(points)
    if layout == "strided":
        return np.repeat(points, 2, axis=1)[:, ::2]
    return points


def _parity_weights(kind, n):
    if kind is None:
        return None
    weights = np.random.default_rng(n + 1).random(n) + 0.1
    if kind == "zeros":
        weights[1::3] = 0.0
    return weights


PARITY_CASES = [
    dict(n=n, k=k, weights=w)
    for n in (1, 2, 32, 128, 3000)
    for k in (1, 4, n + 1)
    for w in (None, "positive", "zeros")
] + [
    dict(n=n, k=k, weights=w, duplicate=True)
    for n in (2, 32, 128)
    for k in (1, 4)
    for w in (None, "zeros")
] + [
    dict(n=n, k=4, weights="positive", rounds=r)
    for n in (1, 32, 128)
    for r in (1, 2, 9)
] + [
    dict(n=n, k=4, weights=w, layout=layout)
    for n in (32, 128)
    for w in (None, "zeros")
    for layout in ("float32", "fortran", "strided")
] + [
    # An aggregation hop's merge-and-reduce: up to 3072 rows of 8 dims.
    dict(n=n, k=4, weights="positive", d=8)
    for n in (1024, 2048, 3072)
]


SOLVER_CASES = [
    dict(n=n, d=d, k=k, weights=w, tolerance=t)
    for n in (1, 2, 32, 320)
    for d in (8, 129)
    for k in (1, 4, n + 1)
    for w in (None, "positive", "zeros")
    for t in (1e-6, 0)
] + [
    # Two blocks of _BLOCK_ROWS rows and more.
    dict(n=9000, d=d, k=k, weights=w, tolerance=t)
    for d in (8, 129)
    for k in (1, 4)
    for w in (None, "zeros")
    for t in (1e-6, 0)
] + [
    dict(n=n, d=8, k=k, weights=w, tolerance=t, duplicate=True)
    for n in (2, 32, 320)
    for k in (1, 4)
    for w in (None, "zeros")
    for t in (1e-6, 0)
] + [
    dict(n=n, d=8, k=4, weights=w, tolerance=t, layout=layout)
    for n in (32, 320, 9000)
    for w in (None, "zeros")
    for t in (1e-6, 0)
    for layout in ("float32", "fortran", "strided")
] + [
    # A single restart, and the 10 every live query runs.
    dict(n=n, d=d, k=4, weights=w, tolerance=t, n_init=r)
    for n in (32, 320, 1024)
    for d in (8, 129)
    for w in (None, "positive")
    for t in (1e-6, 0)
    for r in (1, 10)
] + [
    # Every point a copy of one of two rows: all 10 restarts reach cost 0
    # exactly, each with its centers in the order of its own draws, so the
    # winner is the first restart only under the first-strictly-lower rule.
    dict(n=n, d=8, k=k, weights=w, tolerance=1e-6, duplicate="pair", n_init=10)
    for n in (32, 320)
    for k in (2, 3)
    for w in (None, "positive")
] + [
    # tolerance=0 on overlapping clusters: the restarts converge at
    # different iterations, so restarts leave the active set mid-fit.
    dict(n=n, d=d, k=k, weights=w, tolerance=0, n_init=10, staggered=True)
    for n in (320, 1024)
    for d in (2, 8)
    for k in (4, 7)
    for w in (None, "positive")
]


def _parity_id(case):
    return "-".join(f"{key}={value}" for key, value in case.items())


class TestIncrementalBicriteria:
    def test_cost_matches_full_reassignment(self, data):
        points, weights = data
        result = bicriteria_approximation(points, 5, weights=weights, seed=19)
        recomputed = weighted_kmeans_cost(points, result.centers, weights)
        assert result.cost == recomputed  # incremental min == full-pass min

    def test_cached_assignment_matches(self, data):
        points, weights = data
        result = bicriteria_approximation(points, 5, weights=weights, seed=23)
        labels, d2 = assign_to_centers(points, result.centers)
        np.testing.assert_array_equal(result.labels, labels)
        np.testing.assert_array_equal(result.squared_distances, d2)

    @pytest.mark.parametrize("case", PARITY_CASES, ids=_parity_id)
    def test_bit_parity_with_reference_loop(self, case):
        """The trusted loop reproduces the validating loop bit for bit.

        Both run here, in one process, so a BLAS difference between hosts
        shifts both sides alike and cannot flip the comparison.
        """
        n, k = case["n"], case["k"]
        points = _parity_points(
            n, case.get("duplicate", False), d=case.get("d", 5),
            layout=case.get("layout"),
        )
        weights = _parity_weights(case["weights"], n)
        rounds = case.get("rounds")
        for seed in (0, 1):
            result = bicriteria_approximation(
                points, k, weights=weights, rounds=rounds, seed=seed
            )
            centers, cost, labels, d2, ref_rounds = reference_bicriteria(
                points, k, weights=weights, rounds=rounds, seed=seed
            )
            assert result.centers.dtype == centers.dtype
            np.testing.assert_array_equal(result.centers, centers)
            assert result.cost == cost
            np.testing.assert_array_equal(result.labels, labels)
            np.testing.assert_array_equal(result.squared_distances, d2)
            assert result.rounds == ref_rounds
            if case.get("duplicate"):
                assert cost == 0.0  # the residual-0 early exit ran


class TestTrustedSolver:
    @pytest.mark.parametrize("case", SOLVER_CASES, ids=_parity_id)
    def test_bit_parity_with_reference_fit(self, case):
        """The solver's trusted restarts reproduce the public-kernel loop
        bit for bit: centers, labels, cost, iterations and convergence."""
        n, k, tolerance = case["n"], case["k"], case["tolerance"]
        points = _parity_points(
            n, case.get("duplicate", False), d=case["d"], layout=case.get("layout")
        )
        weights = _parity_weights(case["weights"], n)
        # Two restarts of at most 25 updates keep the multi-block cases short.
        n_init, max_iterations = (2, 25) if n > _BLOCK_ROWS else (3, 100)
        n_init = case.get("n_init", n_init)
        for seed in (0, 1):
            result = WeightedKMeans(
                k=k, n_init=n_init, max_iterations=max_iterations,
                tolerance=tolerance, seed=seed,
            ).fit(points, weights)
            centers, labels, cost, iterations, converged, refills, restarts = (
                reference_weighted_kmeans(
                    points, k, weights=weights, n_init=n_init,
                    max_iterations=max_iterations, tolerance=tolerance, seed=seed,
                )
            )
            assert result.centers.dtype == centers.dtype
            np.testing.assert_array_equal(result.centers, centers)
            np.testing.assert_array_equal(result.labels, labels)
            assert result.cost == cost
            assert result.iterations == iterations
            assert result.converged == converged
            assert result.restarts == n_init
            if case.get("duplicate") is True and k > 1:
                assert refills > 0  # empty clusters were re-seeded
            if case.get("duplicate") == "pair":
                # An exact tie on cost between restarts with different
                # centers: the winner rule decides the result.
                assert {restart_cost for _, restart_cost, _ in restarts} == {0.0}
                assert any(
                    not np.array_equal(restart_centers, restarts[0][0])
                    for restart_centers, _, _ in restarts
                )
            if case.get("staggered"):
                assert len({its for _, _, its in restarts}) > 1

    @staticmethod
    def _fit_peak_ratio(tolerance):
        """The ``tracemalloc`` peak of one 10-restart fit at 20,000 × 50 over
        its input's bytes."""
        points = np.random.default_rng(4).standard_normal((20_000, 50))
        WeightedKMeans(k=10, n_init=10, seed=1).fit(points[:200])  # warm up
        solver = WeightedKMeans(k=10, n_init=10, tolerance=tolerance, seed=0)
        tracemalloc.start()
        try:
            solver.fit(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / points.nbytes

    def test_fit_memory_is_a_fixed_multiple_of_the_input(self):
        """One 10-restart fit at 20,000 × 50 peaks under four times its
        input's bytes (2.8 times now), with no clock read.

        The lockstep restarts share one stacked distance block, but each
        restart's mean update stays its own ``bincount`` over an ``n × d``
        index: one stacked over all restarts would need an ``R·n·d`` index,
        ten times the input by itself.
        """
        ratio = self._fit_peak_ratio(1e-6)
        assert ratio < 4, ratio

    def test_iterating_fit_drops_each_pass_before_the_next(self):
        """At ``tolerance=0`` the fit runs past its first mean update and
        peaks under three times its input (2.8 times, as at the default):
        each pass's labels and distances are freed before the next pass
        allocates its own, which held both read 3.4 times."""
        ratio = self._fit_peak_ratio(0)
        assert ratio < 3, ratio


ROW_MIN_WIDTHS = sorted({
    1, 2, 3, 4, 12, 30, 300, 3000,
    _ROW_MIN_MAX_CENTERS - 1, _ROW_MIN_MAX_CENTERS, _ROW_MIN_MAX_CENTERS + 1,
})


def _row_min_case(n, d, rows):
    """Points of one of the ``rows`` kinds and a function that draws ``width``
    centers for them: half are rows of the points, so exact zeros reach the
    clamp, and half are fresh; centers take the layout of the points."""
    rng = np.random.default_rng(n * 1000 + d)
    if rows == "duplicate":
        points = np.tile(rng.standard_normal((1, d)), (n, 1))
    else:
        points = rng.standard_normal((n, d))
        points[: n // 2] += 6.0
        if rows == "zeros":
            points[::3] = 0.0
    layout = {"fortran": np.asfortranarray,
              "strided": lambda a: np.repeat(a, 2, axis=1)[:, ::2]}.get(
                  rows, lambda a: a)

    def centers(width):
        picked = points[rng.integers(0, n, size=width - width // 2)]
        fresh = rng.standard_normal((width // 2, d))
        if rows == "zeros":
            fresh[:1] = 0.0
        return layout(np.vstack([picked, fresh]))

    return layout(points), centers


class TestMinSquaredDistancesCore:
    """The min core returns the row minima of the distance buffer bit for bit.

    It reduces along contiguous rows for 2 to ``_ROW_MIN_MAX_CENTERS``
    centers and plainly otherwise, so the widths straddle both ends of that
    rule.  Each width also runs in oversized buffers full of NaN,
    as bicriteria reuses one pair sized for a whole batch.
    """

    @pytest.mark.parametrize("d", [1, 5, 8, 129])
    @pytest.mark.parametrize(
        "rows", ["c", "fortran", "strided", "duplicate", "zeros"]
    )
    def test_matches_row_minima_of_distance_buffer(self, d, rows):
        for n in (1, 2, 31, 223, 1024, 3072, 9000):
            points, draw_centers = _row_min_case(n, d, rows)
            point_norms = squared_norms(points)
            for width in ROW_MIN_WIDTHS:
                if n * width > 1_000_000:
                    continue  # keeps every buffer under 8 MB
                centers = draw_centers(width)
                center_norms = squared_norms(centers)
                expected = _squared_distances_into(
                    points, centers, point_norms, center_norms
                ).min(axis=1)
                got = _min_squared_distances_into(
                    points, centers, point_norms, center_norms
                )
                np.testing.assert_array_equal(got, expected)
                buffers = tuple(np.full(n * width + 7, np.nan) for _ in range(2))
                got = _min_squared_distances_into(
                    points, centers, point_norms, center_norms, buffers
                )
                np.testing.assert_array_equal(got, expected)


STACK_LAYOUTS = ["c", "fortran", "strided", "float32"]
#: Row counts up to two blocks of _BLOCK_ROWS (8192 and 808 rows at 9000).
STACK_ROWS = (1, 2, 31, 320, 8192, 9000)


class TestStackedProducts:
    """A stacked product is bit for bit the per-restart 2-D products.

    The solver's restarts run in lockstep: k-means++ updates the distances
    of all ``R`` restarts with one product of the points against the
    ``(R, d, 1)`` stack of their picks, and each block of the labelled
    Lloyd pass is one product against the ``(R, d, k)`` stack of their
    center sets.  numpy sends each matrix of a stack to the BLAS call, with
    the strides, of the 2-D product; a 2-D ``(n, R)`` product of all picks,
    or rows cut into other blocks, rounds differently.  The points reach
    the products as the solver's entry passes them on: C, Fortran or
    strided float64, or float32 promoted by ``check_matrix``.  CI runs this
    class with one BLAS thread.
    """

    @pytest.mark.parametrize("d", [1, 8, 129])
    @pytest.mark.parametrize("layout", STACK_LAYOUTS)
    def test_center_stacks(self, d, layout):
        rng = np.random.default_rng(d)
        for n in STACK_ROWS:
            points = check_matrix(_parity_points(n, d=d, layout=layout))
            point_norms = squared_norms(points)
            for restarts in (1, 3, 10):
                for k in (1, 2, 4, 16):
                    centers = rng.standard_normal((restarts, k, d))
                    # Rows of the points too, so exact zeros reach the clamp.
                    picked = rng.integers(0, n, (restarts, (k + 1) // 2))
                    centers[:, ::2] = points[picked]
                    center_norms = squared_norms(centers)
                    product = np.matmul(points, centers.swapaxes(-1, -2))
                    distances = _squared_distances_into(
                        points, centers, point_norms, center_norms
                    )
                    labels, dists = _nearest_center_pass(points, point_norms, centers)
                    for i in range(restarts):
                        alone = centers[i].copy()
                        alone_norms = squared_norms(alone)
                        np.testing.assert_array_equal(product[i], points @ alone.T)
                        np.testing.assert_array_equal(center_norms[i], alone_norms)
                        np.testing.assert_array_equal(
                            distances[i],
                            _squared_distances_into(points, alone, point_norms, alone_norms),
                        )
                        alone_labels, alone_dists = _nearest_center_pass(
                            points, point_norms, alone
                        )
                        np.testing.assert_array_equal(labels[i], alone_labels)
                        np.testing.assert_array_equal(dists[i], alone_dists)

    @pytest.mark.parametrize("d", [1, 8, 129])
    @pytest.mark.parametrize("layout", STACK_LAYOUTS)
    def test_pick_stacks(self, d, layout):
        rng = np.random.default_rng(d)
        for n in STACK_ROWS:
            points = check_matrix(_parity_points(n, d=d, layout=layout))
            point_norms = squared_norms(points)
            for restarts in (1, 3, 10):
                picks = rng.integers(0, n, restarts)
                product = np.matmul(points, points[picks][:, :, None])
                distances = _pick_distances(points, point_norms, picks)
                for i, pick in enumerate(picks):
                    alone = points[[pick]]
                    np.testing.assert_array_equal(product[i], points @ alone.T)
                    np.testing.assert_array_equal(
                        distances[i],
                        _squared_distances_into(
                            points, alone, point_norms, point_norms[[pick]]
                        ),
                    )


def count_validation_calls(fn, callers=None):
    """How many times ``fn()`` enters ``check_matrix``/``check_weights``.

    Counted from profiler call events on the two code objects, so the
    figure is exact and reads no clock.  ``callers`` (module files) keeps
    only the calls made from code in those files.
    """
    codes = {check_matrix.__code__, check_weights.__code__}
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code in codes and (
            callers is None or frame.f_back.f_code.co_filename in callers
        ):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


class TestValidateOnce:
    """Inputs are validated at the public entry, not once per round: the
    number of validation calls does not grow with n, rounds or
    repetitions."""

    def test_fss_build_independent_of_n(self):
        rng = np.random.default_rng(5)
        counts = [
            count_validation_calls(
                lambda: FSSCoreset(k=4, size=64, pca_rank=8, seed=1).build(
                    rng.standard_normal((n, 8))
                )
            )
            for n in (32, 4096)
        ]
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("knob", ["repetitions", "rounds"])
    def test_bicriteria_independent_of_knob(self, data, knob):
        points, weights = data
        values = {"repetitions": (3, 9), "rounds": (2, 12)}[knob]
        counts = [
            count_validation_calls(
                lambda: bicriteria_approximation(
                    points[:400], 4, weights=weights[:400], seed=2,
                    **{knob: value},
                )
            )
            for value in values
        ]
        assert counts[0] == counts[1]

    def test_solver_fit_independent_of_restarts_and_iterations(self, data):
        """One fit validates its input once, whatever the number of
        restarts and mean updates (``tolerance=0`` iterates to the fixed
        point)."""
        points, weights = data
        counts = [
            count_validation_calls(
                lambda: WeightedKMeans(
                    k=4, n_init=n_init, tolerance=tolerance, seed=2
                ).fit(points[:320], weights[:320])
            )
            for n_init in (1, 10)
            for tolerance in (1e-6, 0)
        ]
        assert counts == [counts[0]] * 4, counts

    def test_node_jl_step_does_not_rescan_the_shard(self):
        shard = np.random.default_rng(6).standard_normal((200, 30))
        node = DataSourceNode("source-0", shard, SimulatedNetwork())
        projection = JLProjection(30, 8, seed=1)
        assert count_validation_calls(lambda: node.apply_jl(projection)) == 0
        np.testing.assert_array_equal(node.points, projection.transform(shard))


class TestStreamingValidatesOnce:
    """The streaming engine checks each shard once in ``run`` and each
    batch once in ``run_streams``, whatever the number of batches."""

    SOURCES = 4
    BATCH = 16
    ENGINE_FILES = {streaming_engine.__file__, iter_batches.__code__.co_filename}

    def _engine(self):
        return StreamingEngine([UniformStage(8)], k=2, batch_size=self.BATCH, seed=3)

    def _shards(self, batches):
        rng = np.random.default_rng(batches)
        return [rng.standard_normal((batches * self.BATCH, 5))
                for _ in range(self.SOURCES)]

    @pytest.mark.parametrize("batches", [3, 12])
    def test_run_checks_each_shard_once(self, batches):
        shards = self._shards(batches)
        calls = count_validation_calls(
            lambda: self._engine().run(shards), callers=self.ENGINE_FILES)
        assert calls == self.SOURCES

    @pytest.mark.parametrize("batches", [3, 12])
    def test_run_streams_checks_each_batch_once(self, batches):
        streams = [list(iter_batches(shard, self.BATCH))
                   for shard in self._shards(batches)]
        calls = count_validation_calls(
            lambda: self._engine().run_streams(streams), callers=self.ENGINE_FILES)
        assert calls == self.SOURCES * batches

    @pytest.mark.parametrize("bad, message", [
        (np.full((BATCH, 5), np.nan), "batch contains NaN or infinite values"),
        (np.zeros((2, BATCH, 5)), "batch must be a 2-D array, got ndim=3"),
    ], ids=["nan", "3d"])
    def test_run_streams_rejects_a_bad_batch_mid_stream(self, bad, message):
        streams = [list(iter_batches(shard, self.BATCH)) for shard in self._shards(3)]
        streams[2][1] = bad
        with pytest.raises(ValueError, match=message):
            self._engine().run_streams(streams)

    def test_run_matches_run_streams(self):
        shards = self._shards(3)
        streams = [list(iter_batches(shard, self.BATCH)) for shard in shards]
        a, b = self._engine().run(shards), self._engine().run_streams(streams)
        np.testing.assert_array_equal(a.centers, b.centers)
        assert a.communication_bits == b.communication_bits


class TestFloat32Path:
    def test_pairwise_preserves_float32(self):
        a = np.random.default_rng(0).standard_normal((40, 6)).astype(np.float32)
        b = np.random.default_rng(1).standard_normal((5, 6)).astype(np.float32)
        d2 = pairwise_squared_distances(a, b)
        assert d2.dtype == np.float32

    def test_pairwise_no_copy_for_contiguous_float64(self):
        """Regression: float inputs must not be silently copied/promoted."""
        a = np.ascontiguousarray(np.random.default_rng(2).standard_normal((30, 4)))
        b = np.ascontiguousarray(np.random.default_rng(3).standard_normal((7, 4)))
        from repro.utils.linalg import as_float_array

        assert as_float_array(a) is a
        assert as_float_array(b) is b
        f32 = a.astype(np.float32)
        assert as_float_array(f32) is f32  # no promotion copy either

    def test_pairwise_out_buffer_is_used_and_matches(self):
        a = np.random.default_rng(4).standard_normal((25, 9))
        b = np.random.default_rng(5).standard_normal((6, 9))
        out = np.empty((25, 6))
        result = pairwise_squared_distances(a, b, out=out)
        assert result is out
        np.testing.assert_array_equal(out, pairwise_squared_distances(a, b))

    def test_assign_and_cost_promotes_float32(self, data):
        points, _ = data
        pts32 = points.astype(np.float32)
        # float32 input is promoted to float64 at the validation boundary:
        # the expanded distance formula is unsafe in single precision.
        _, d2_promoted, _ = assign_and_cost(pts32, pts32[:4])
        assert d2_promoted.dtype == np.float64
