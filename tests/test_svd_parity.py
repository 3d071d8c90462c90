"""Bit-parity of :func:`repro.utils.linalg.right_svd` with the plain SVD.

``right_svd`` returns ``(s, Vt)`` without forming ``U``: on tall enough
matrices it takes the SVD of the QR factor ``R``, the path LAPACK's
``dgesdd`` runs itself once ``m >= floor(11 n / 6)``.  Every caller that
switched to it (disPCA's local and global SVDs, ``PCAProjection.fit`` and
``project_onto_top_singular_subspace``) relies on the result being the
plain SVD's ``s`` and ``Vt`` bit for bit, so the goldens and the wire pins
do not move.  Every comparison here runs both paths in-process and stores
no digest; none reads a clock.
"""

import numpy as np
import pytest

from repro.core import registry
from repro.datasets import make_gaussian_mixture
from repro.distributed.network import SimulatedNetwork
from repro.distributed.node import DataSourceNode
from repro.distributed.partition import partition_dataset
from repro.kmeans.cost import kmeans_cost
from repro.utils import linalg
from repro.utils.linalg import right_svd, safe_svd

FLOOR = linalg._R_SVD_MIN_ENTRIES


def plain_factors(matrix):
    """``s`` and ``Vt`` as the callers computed them before ``right_svd``."""
    _, s, vt = np.linalg.svd(np.asarray(matrix, dtype=float), full_matrices=False)
    return s, vt


def takes_r_path(m, n):
    return m >= (11 * n) // 6 and m * n >= FLOOR


def assert_bit_identical(matrix, label):
    s, vt = right_svd(matrix)
    ref_s, ref_vt = plain_factors(matrix)
    assert s.dtype == ref_s.dtype and vt.dtype == ref_vt.dtype, label
    np.testing.assert_array_equal(s, ref_s, err_msg=label)
    np.testing.assert_array_equal(vt, ref_vt, err_msg=label)


def grid_rows(n):
    """Row counts around the dgesdd threshold, the size floor, and beyond."""
    threshold = (11 * n) // 6
    floor_rows = -(-FLOOR // n)
    rows = {threshold - 1, threshold, threshold + 1, 2 * n, 4 * n,
            floor_rows - 1, floor_rows, 32, 64, 128, 1000}
    return sorted(m for m in rows if n <= m <= 5000)


def grid_matrix(rng, m, n, kind):
    if kind == "random":
        return rng.standard_normal((m, n))
    if kind == "rank-deficient":
        rank = max(1, n // 3)
        return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    return np.zeros((m, n))


class TestRightSvdParity:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 12, 20, 64, 129, 200])
    def test_grid_straddles_threshold_and_floor(self, n):
        rng = np.random.default_rng(n)
        shapes = [(m, n) for m in grid_rows(n)]
        # The grid covers both paths at every column count that has room.
        assert any(takes_r_path(*shape) for shape in shapes)
        if n > 1:
            assert any(not takes_r_path(*shape) for shape in shapes)
        for m, _ in shapes:
            for kind in ("random", "rank-deficient", "zero"):
                assert_bit_identical(grid_matrix(rng, m, n, kind), f"{m}x{n} {kind}")

    @pytest.mark.parametrize("layout", ["C", "F", "strided", "float32"])
    @pytest.mark.parametrize("shape", [(2000, 129), (600, 300)])
    def test_layouts_and_dtypes(self, layout, shape):
        rng = np.random.default_rng(shape[1])
        base = rng.standard_normal((2 * shape[0], shape[1]))
        matrix = {
            "C": base[: shape[0]].copy(),
            "F": np.asfortranarray(base[: shape[0]]),
            "strided": base[::2],
            "float32": base[: shape[0]].astype(np.float32),
        }[layout]
        assert matrix.shape == shape and takes_r_path(*shape)
        assert_bit_identical(matrix, layout)


class TestWhatReachesLapack:
    """``right_svd`` hands ``np.linalg.svd`` the ``n x n`` factor on the R
    path and the whole matrix below the threshold or the floor."""

    @pytest.fixture
    def svd_shapes(self, monkeypatch):
        shapes = []
        svd = np.linalg.svd

        def recording_svd(matrix, *args, **kwargs):
            shapes.append(np.shape(matrix))
            return svd(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        return shapes

    def test_local_svd_passes_only_r(self, svd_shapes):
        shard = np.random.default_rng(0).standard_normal((2000, 129))
        node = DataSourceNode("source-0", shard, SimulatedNetwork())
        s, basis = node.local_svd(10)
        assert svd_shapes == [(129, 129)]
        assert s.shape == (10,) and basis.shape == (129, 10)

    @pytest.mark.parametrize("shape, expected", [
        ((32, 8), (32, 8)),       # a stream-fss leaf batch: below the floor
        ((128, 8), (128, 8)),     # a merged leaf bucket: below the floor
        ((2048, 8), (8, 8)),      # an aggregator re-fit: the R path
        ((200, 129), (200, 129)), # below floor(11 * 129 / 6) = 236
        ((236, 129), (129, 129)), # at the threshold
    ], ids=["leaf", "bucket", "aggregator", "below-threshold", "at-threshold"])
    def test_path_by_shape(self, svd_shapes, shape, expected):
        right_svd(np.random.default_rng(1).standard_normal(shape))
        assert svd_shapes == [expected]


class TestNonConvergenceFallback:
    """When LAPACK does not converge, ``safe_svd`` factors the jittered
    matrix instead of failing, and ``right_svd`` falls back to
    ``safe_svd`` on the whole matrix."""

    @pytest.fixture
    def svd_fails_once(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def failing_once(matrix, *args, **kwargs):
            calls.append(np.shape(matrix))
            if len(calls) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing_once)
        return calls

    def test_safe_svd_retries_on_jittered_matrix(self, svd_fails_once):
        matrix = np.random.default_rng(2).standard_normal((40, 6))
        u, s, vt = safe_svd(matrix)
        assert len(svd_fails_once) == 2
        np.testing.assert_allclose(u @ np.diag(s) @ vt, matrix, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("shape", [(40, 6), (2000, 129)], ids=["plain", "r-path"])
    def test_right_svd_falls_back(self, svd_fails_once, shape):
        matrix = np.random.default_rng(3).standard_normal(shape)
        s, vt = right_svd(matrix)
        assert len(svd_fails_once) == 2
        assert svd_fails_once[-1] == shape  # the retry factors the whole matrix
        gram = matrix.T @ matrix
        np.testing.assert_allclose(
            (vt.T * s**2) @ vt, gram, rtol=0, atol=1e-9 * np.abs(gram).max()
        )


class TestPipelinesUnchanged:
    """Whole compositions at sizes that take the R path produce the same
    centers, cost and uplink bits as with the helper forced onto the plain
    path."""

    @pytest.fixture(scope="class")
    def points(self):
        points, _, _ = make_gaussian_mixture(n=2400, d=40, k=3, seed=8)
        return points

    def _run(self, algorithm, points):
        if algorithm == "fss":
            pipeline = registry.create_pipeline(
                "fss", k=3, seed=4, coreset_size=120)
            return pipeline.run(points)
        pipeline = registry.create_pipeline(
            algorithm, k=3, seed=4, total_samples=120,
            **({"jl_dimension": 24} if algorithm == "jl-bklw" else {}))
        shards = [points[i] for i in partition_dataset(points, 6, seed=5)]
        return pipeline.run(shards)

    @pytest.mark.parametrize("algorithm", ["fss", "bklw", "jl-bklw"])
    def test_same_result_as_plain_path(self, monkeypatch, points, algorithm):
        qr_calls = []
        qr = np.linalg.qr

        def counting_qr(matrix, *args, **kwargs):
            qr_calls.append(np.shape(matrix))
            return qr(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        fast = self._run(algorithm, points)
        assert qr_calls, "the composition never took the R path"
        monkeypatch.setattr(linalg, "_R_SVD_MIN_ENTRIES", np.inf)
        del qr_calls[:]
        plain = self._run(algorithm, points)
        assert not qr_calls
        np.testing.assert_array_equal(fast.centers, plain.centers)
        assert kmeans_cost(points, fast.centers) == kmeans_cost(points, plain.centers)
        assert fast.communication_bits == plain.communication_bits
        assert fast.communication_scalars == plain.communication_scalars
