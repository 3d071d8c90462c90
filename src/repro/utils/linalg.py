"""Linear-algebra helpers shared by the DR, CR, and distributed subsystems.

These wrap :mod:`numpy.linalg` with the conventions used throughout the
paper: datasets are row-major matrices ``A_P`` of shape ``(n, d)`` (one data
point per row), and projections are applied as ``A_P @ Pi`` for a projection
matrix ``Pi`` of shape ``(d, d')``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def as_float_array(points: np.ndarray) -> np.ndarray:
    """Return ``points`` as a float array, preserving ``float32``/``float64``.

    Contiguous float arrays pass through without a copy; every other dtype is
    cast to ``float64`` (the library-wide default).  The helpers built on it
    compute in the input's precision for direct callers; the validating
    entry points (:func:`repro.utils.validation.check_matrix`) have already
    promoted ``float32`` to ``float64`` before their data reaches them.
    """
    arr = np.asarray(points)
    if arr.dtype == np.float32 or arr.dtype == np.float64:
        return arr
    return arr.astype(np.float64)


def squared_norms(points: np.ndarray) -> np.ndarray:
    """Row-wise squared Euclidean norms of a ``(n, d)`` matrix, or of each
    matrix of a ``(..., n, d)`` stack (one ``einsum`` sums each row the same
    way, stacked or not)."""
    points = as_float_array(points)
    if points.ndim == 1:
        points = points[None, :]
    return np.einsum("...j,...j->...", points, points)


def pairwise_squared_distances(
    a: np.ndarray,
    b: np.ndarray,
    b_squared_norms: np.ndarray = None,
    a_squared_norms: np.ndarray = None,
    out: np.ndarray = None,
) -> np.ndarray:
    """Squared Euclidean distances between rows of ``a`` and rows of ``b``.

    Returns a matrix of shape ``(len(a), len(b))``.  Uses the expansion
    ``|x - y|^2 = |x|^2 - 2 x.y + |y|^2`` and clips tiny negative values
    produced by floating-point cancellation.

    ``b_squared_norms`` (and symmetrically ``a_squared_norms``) let blockwise
    callers that sweep many ``a`` blocks against one fixed ``b`` (e.g.
    nearest-center assignment) pass ``squared_norms(b)`` precomputed instead
    of recomputing it per block.  ``out`` supplies a preallocated
    ``(len(a), len(b))`` buffer the whole computation runs in — blockwise
    sweeps reuse one buffer across blocks instead of allocating a distance
    matrix per block.

    The computation preserves the input floating dtype: a direct caller's
    ``float32`` inputs are processed (and returned) in ``float32`` without a
    silent promotion copy; contiguous ``float64`` inputs are used as-is,
    copy-free.  Library data reaches it as ``float64``, since every
    validating entry point promotes first.
    """
    a = np.atleast_2d(as_float_array(a))
    b = np.atleast_2d(as_float_array(b))
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"dimension mismatch: a has {a.shape[1]} columns, b has {b.shape[1]}"
        )
    if b_squared_norms is None:
        b_squared_norms = squared_norms(b)
    if a_squared_norms is None:
        a_squared_norms = squared_norms(a)
    return _squared_distances_into(a, b, a_squared_norms, b_squared_norms, out)


def _squared_distances_into(
    a: np.ndarray,
    b: np.ndarray,
    a_norms: np.ndarray,
    b_norms: np.ndarray,
    out: np.ndarray = None,
) -> np.ndarray:
    """Trusted core of :func:`pairwise_squared_distances`.

    Takes a 2-D float array ``a``, a ``(m, d)`` array ``b`` or an
    ``(r, m, d)`` stack of them, and their row norms (``(m,)`` or
    ``(r, m)``), and checks nothing: the k-means layer calls it from loops
    whose inputs its public entry already validated.  ``out`` is the
    ``(len(a), m)`` or ``(r, len(a), m)`` buffer to fill; ``None`` allocates
    one.

    A stack is one ``np.matmul`` with ``a`` broadcast against it: numpy
    runs each of its matrices through the same BLAS call, with the same
    strides, as the 2-D product, so every slice ``[i]`` of a stacked result
    is bit for bit the result for ``b[i]`` alone.  Never stack the centers
    side by side into one 2-D ``b`` instead: a wider product goes to
    another BLAS kernel (a one-column product goes to ``gemv``) and rounds
    differently.
    """
    if out is None:
        out = np.empty(
            b.shape[:-2] + (a.shape[0], b.shape[-2]), dtype=np.result_type(a, b)
        )
    # In-place evaluation of |a|^2 - 2 a.b + |b|^2 inside the (possibly
    # caller-provided) buffer; the operation order matches the naive
    # expression bit for bit.
    np.matmul(a, b.swapaxes(-1, -2), out=out)
    out *= -2.0
    out += a_norms[:, None]
    out += b_norms[..., None, :]
    np.maximum(out, 0.0, out=out)
    return out


#: Widest block of centers whose minima :func:`_min_squared_distances_into`
#: takes along contiguous rows.  With one OpenBLAS thread on a 2-vCPU VM
#: (numpy 2.4), the row path ran 0.2-0.7x the plain time at 2 to 16 centers
#: for 223 to 9000 points at d = 1, 5 and 8 (0.6-0.85x at d = 129) and
#: 0.9-1.05x for 32 points, with its buffers reused or allocated per call.
#: It lost at 24 centers with buffers allocated per call (1.2x for 3072 and
#: 9000 points at d = 1), at 32 with reused ones too (1.1-1.25x for 9000
#: points), and at one center (1.0-1.25x), which keeps the plain path.
_ROW_MIN_MAX_CENTERS = 16


def _min_squared_distances_into(
    a: np.ndarray,
    b: np.ndarray,
    a_norms: np.ndarray,
    b_norms: np.ndarray,
    buffers: Tuple[np.ndarray, np.ndarray] = None,
) -> np.ndarray:
    """Trusted core: each row of ``a``'s squared distance to its nearest
    row of ``b``.

    Returns ``_squared_distances_into(a, b, a_norms, b_norms).min(axis=1)``
    bit for bit, and checks nothing.  ``buffers`` is a pair of flat arrays
    of the result dtype with at least ``len(a) * len(b)`` entries each,
    which the call overwrites; ``None`` allocates them.

    Over a few centers, ``min(axis=1)`` reduces every short row on its own,
    and that per-row dispatch costs far more than the arithmetic.  For 2 to
    ``_ROW_MIN_MAX_CENTERS`` centers the core therefore writes ``-2 a.b``
    transposed into a ``(len(b), len(a))`` buffer, adds the norms there and
    takes ``min(axis=0)``: an elementwise minimum of contiguous rows.  One
    center and wider blocks keep the plain reduction.

    Why the bits agree: the product is the same ``a @ b.T`` BLAS call into
    a C-order ``(len(a), len(b))`` buffer, and every entry then goes through
    the same operations in the same order (times -2, plus the row norm of
    ``a``, plus the row norm of ``b``, clamp at 0).  No entry is -0.0, as
    the last addend is a sum of squares, so the minimum is the same in any
    order.  Never compute ``b @ a.T`` instead: BLAS sums that product in
    another order and it differs in the last bit at many shapes.
    """
    n, width = a.shape[0], b.shape[0]
    if buffers is None:
        dtype = np.result_type(a, b)
        buffers = (np.empty(n * width, dtype=dtype), np.empty(n * width, dtype=dtype))
    product = buffers[0][: n * width].reshape(n, width)
    if not 1 < width <= _ROW_MIN_MAX_CENTERS:
        return _squared_distances_into(a, b, a_norms, b_norms, product).min(axis=1)
    np.matmul(a, b.T, out=product)
    distances = np.multiply(
        product.T, -2.0, out=buffers[1][: n * width].reshape(width, n)
    )
    distances += a_norms
    distances += b_norms[:, None]
    np.maximum(distances, 0.0, out=distances)
    return distances.min(axis=0)


def safe_svd(matrix: np.ndarray, full_matrices: bool = False) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD with a fallback for the rare LAPACK non-convergence case.

    Returns ``(U, s, Vt)`` such that ``matrix ≈ U @ diag(s) @ Vt``.  Callers
    that discard ``U`` use :func:`right_svd` instead.
    """
    matrix = np.asarray(matrix, dtype=float)
    try:
        return np.linalg.svd(matrix, full_matrices=full_matrices)
    except np.linalg.LinAlgError:
        # Jitter the matrix very slightly; gesdd occasionally fails on
        # rank-deficient inputs where gesvd-style perturbation succeeds.
        jitter = 1e-12 * np.linalg.norm(matrix, ord="fro")
        perturbed = matrix + jitter * np.eye(*matrix.shape)
        return np.linalg.svd(perturbed, full_matrices=full_matrices)


#: Smallest ``m * n`` for which :func:`right_svd` takes the R-factor path.
#: Below it the extra ``qr`` call costs more than not forming ``U`` saves:
#: with one OpenBLAS thread on a 2-vCPU VM the R path ran 1.47x the plain
#: time at 32 x 8, 1.11x at 256 x 8 and 2048 x 1, and 0.87-0.93x at each
#: measured shape of 4096 entries (4096 x 1 through 128 x 32).
_R_SVD_MIN_ENTRIES = 4096


def right_svd(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors, without forming ``U``.

    Returns ``(s, Vt)``, bit for bit the last two factors of
    ``safe_svd(matrix)``.

    The rule: an ``(m, n)`` matrix with ``m >= floor(11 n / 6)`` and at
    least ``_R_SVD_MIN_ENTRIES`` entries is reduced to its ``n x n`` factor
    ``R = np.linalg.qr(matrix, mode="r")``, and the SVD is taken of ``R``.
    Every other matrix goes through :func:`safe_svd`, as does any matrix
    whose R path raises ``LinAlgError``, so failures behave as before.

    Why the bits agree: for ``m >= floor(11 n / 6)`` LAPACK's ``dgesdd``,
    which :func:`numpy.linalg.svd` calls, itself runs the QR-first SVD
    (Chan's R-SVD): it factors ``A = QR`` with ``dgeqrf``, takes ``s`` and
    ``Vt`` from the SVD of ``R``, and only then forms ``U = Q U_R``.  Taking
    the SVD of ``R`` here runs the same ``dgeqrf`` and the same SVD of the
    same ``R``, and skips ``Q`` and the ``(m, n)`` ``U``.  Below the
    threshold ``dgesdd`` bidiagonalizes ``A`` directly and the R path would
    differ in the last bits, so it is not taken there.
    """
    matrix = np.asarray(matrix, dtype=float)
    tall = matrix.ndim == 2 and matrix.shape[0] >= (11 * matrix.shape[1]) // 6
    if tall and matrix.size >= _R_SVD_MIN_ENTRIES:
        try:
            _, s, vt = np.linalg.svd(
                np.linalg.qr(matrix, mode="r"), full_matrices=False
            )
            return s, vt
        except np.linalg.LinAlgError:
            pass
    _, s, vt = safe_svd(matrix, full_matrices=False)
    return s, vt


def moore_penrose_inverse(matrix: np.ndarray, rcond: float = 1e-12) -> np.ndarray:
    """Moore–Penrose pseudo-inverse, used to lift centers back through a
    (non-invertible) linear DR map as described in Section 3.1 of the paper."""
    return np.linalg.pinv(np.asarray(matrix, dtype=float), rcond=rcond)
