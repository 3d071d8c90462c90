"""The rounding-based quantizer Γ of Section 6.1.

For a scalar ``x = ±2^{e_x}(a_0.a_1a_2…)`` in binary floating point, the
quantizer keeps the sign, the exponent, and the first ``s`` significand bits,
rounding the remainder to nearest.  Element-wise quantization of a point
``p`` therefore satisfies ``|p_i − Γ(p_i)| ≤ 2^{e_{p_i} − s} ≤ |p_i| 2^{-s}``
so the per-point error is bounded by ``Δ_QT ≤ 2^{-s} max_p ‖p‖`` (Eq. 14).

Implementation: rather than manipulating bit patterns, we use the exact
mathematical equivalent — scale each element so its leading significant bit
sits at a fixed position, round to the nearest integer multiple of
``2^{e_x − s}``, and rescale.  ``numpy.frexp`` exposes the exponent, making
this vectorized and exact for IEEE doubles with ``s ≤ 52``.
"""

from __future__ import annotations

import numpy as np

from repro.quantization.bits import (
    DOUBLE_SIGNIFICAND_BITS,
    bits_per_scalar,
    scalars_to_bits,
)
from repro.utils.validation import check_matrix, check_positive_int


class RoundingQuantizer:
    """Keep ``significant_bits`` significand bits of every element.

    Parameters
    ----------
    significant_bits:
        Number of significant bits ``s`` to retain, ``1 ≤ s ≤ 53``.  With
        ``s = 53`` the quantizer is exact for IEEE doubles (identity).
    """

    def __init__(self, significant_bits: int) -> None:
        self.significant_bits = check_positive_int(significant_bits, "significant_bits")
        if self.significant_bits > DOUBLE_SIGNIFICAND_BITS:
            raise ValueError(
                "significant_bits cannot exceed "
                f"{DOUBLE_SIGNIFICAND_BITS}, got {self.significant_bits}"
            )

    # ------------------------------------------------------------------ API
    def quantize(self, points: np.ndarray) -> np.ndarray:
        """Quantize every element of ``points`` (any shape)."""
        arr = np.asarray(points, dtype=float)
        if arr.size == 0:
            return arr.copy()
        if not np.all(np.isfinite(arr)):
            raise ValueError("cannot quantize NaN or infinite values")
        if self.significant_bits >= DOUBLE_SIGNIFICAND_BITS:
            return arr.copy()

        # frexp: x = mantissa * 2**exponent with mantissa in [0.5, 1).
        mantissa, exponent = np.frexp(arr)
        # Keeping s significant bits of the paper's representation
        # (leading bit a_0 = 1, i.e. mantissa in [1, 2)) corresponds to
        # keeping s+1 bits of the frexp mantissa in [0.5, 1); equivalently we
        # round the frexp mantissa to a multiple of 2^-(s+1).  The paper's
        # quantizer keeps bits a_0..a_s plus the rounded bit a'(s), which is
        # exactly round-to-nearest at resolution 2^{e-s} in its convention;
        # with frexp's convention the resolution is 2^{exponent-(s+1)}.
        scale = float(2 ** (self.significant_bits + 1))
        rounded = np.rint(mantissa * scale) / scale
        return np.ldexp(rounded, exponent)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.quantize(points)

    def max_error(self, points: np.ndarray) -> float:
        """Exact maximum per-point quantization error ``max_p ‖p − Γ(p)‖``."""
        points = check_matrix(points, "points", allow_empty=True)
        if points.shape[0] == 0:
            return 0.0
        diff = points - self.quantize(points)
        return float(np.max(np.linalg.norm(diff, axis=1)))

    def error_bound(self, points: np.ndarray) -> float:
        """The analytical bound ``Δ_QT ≤ 2^{-s} max_p ‖p‖`` of Eq. (14)."""
        points = check_matrix(points, "points", allow_empty=True)
        if points.shape[0] == 0:
            return 0.0
        max_norm = float(np.max(np.linalg.norm(points, axis=1)))
        return 2.0 ** (-self.significant_bits) * max_norm

    # ------------------------------------------------------------ accounting
    @property
    def bits_per_scalar(self) -> int:
        """Bits on the wire per transmitted scalar at this precision."""
        return bits_per_scalar(self.significant_bits)

    def transmission_bits(self, scalars: int) -> int:
        """Bits needed to transmit ``scalars`` quantized values."""
        return scalars_to_bits(scalars, self.significant_bits)


class IdentityQuantizer(RoundingQuantizer):
    """Full-precision 'quantizer' (s = 53): transmits doubles unchanged.

    Used as the no-QT endpoint of the precision sweep in Figures 3–6.
    """

    def __init__(self) -> None:
        super().__init__(DOUBLE_SIGNIFICAND_BITS)

    def quantize(self, points: np.ndarray) -> np.ndarray:
        arr = np.asarray(points, dtype=float)
        return arr.copy()
