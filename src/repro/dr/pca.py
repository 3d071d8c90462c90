"""PCA / SVD-based dimensionality reduction.

FSS (Theorem 3.2) and disPCA (Theorem 5.1) reduce the *intrinsic* dimension
of the dataset by projecting it onto the span of its top ``t`` right singular
vectors.  Crucially for the communication analysis, the projected points are
kept in the original ``d``-dimensional coordinates (the map is
``A -> A V V^T``), so what a data source actually transmits is the
``t``-dimensional coordinates of each point *plus* the basis ``V`` — which is
where the ``O(d k / ε²)`` communication term of FSS/BKLW comes from.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.dr.base import DimensionalityReducer
from repro.utils.linalg import right_svd
from repro.utils.validation import check_fraction, check_matrix, check_positive_int


def pca_target_dimension(k: int, epsilon: float) -> int:
    """Rank ``t = k + ceil(4k/ε²) - 1`` required by Theorem 5.1 (and used by
    FSS to bound the intrinsic dimension)."""
    k = check_positive_int(k, "k")
    epsilon = check_fraction(epsilon, "epsilon")
    return k + int(math.ceil(4.0 * k / epsilon**2)) - 1


class PCAProjection(DimensionalityReducer):
    """Projection onto the top-``rank`` right singular subspace of the data.

    Unlike :class:`~repro.dr.jl.JLProjection` this map is *data-dependent*:
    it must be fitted, and its basis costs ``d * rank`` scalars to transmit.

    Parameters
    ----------
    rank:
        Number of principal directions to keep.
    """

    def __init__(self, rank: int) -> None:
        self._rank = check_positive_int(rank, "rank")
        self._basis: Optional[np.ndarray] = None  # (d, rank)
        self._singular_values: Optional[np.ndarray] = None
        self._d: Optional[int] = None

    # ------------------------------------------------------------------ API
    def fit(self, points: np.ndarray) -> "PCAProjection":
        """Compute the top singular subspace of ``points``."""
        points = check_matrix(points, "points")
        self._d = points.shape[1]
        rank = min(self._rank, min(points.shape))
        s, vt = right_svd(points)
        self._basis = vt[:rank].T
        self._singular_values = s[:rank]
        return self

    def fit_transform(self, points: np.ndarray) -> np.ndarray:
        return self.fit(points).transform(points)

    @property
    def is_fitted(self) -> bool:
        return self._basis is not None

    @property
    def basis(self) -> np.ndarray:
        """The ``(d, rank)`` orthonormal basis ``V`` (read-only copy)."""
        self._require_fitted()
        return self._basis.copy()

    @property
    def singular_values(self) -> np.ndarray:
        self._require_fitted()
        return self._singular_values.copy()

    @property
    def effective_rank(self) -> int:
        """Rank actually retained (may be below the requested rank)."""
        self._require_fitted()
        return int(self._basis.shape[1])

    @property
    def input_dimension(self) -> int:
        self._require_fitted()
        return int(self._d)

    @property
    def output_dimension(self) -> int:
        return self.effective_rank

    @property
    def transmitted_scalars(self) -> int:
        """Cost of shipping the basis V: ``d * rank`` scalars."""
        self._require_fitted()
        return int(self._d * self._basis.shape[1])

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Coordinates of the points in the principal subspace (``n × rank``)."""
        self._require_fitted()
        points = check_matrix(points, "points", allow_empty=True)
        if points.shape[1] != self._d:
            raise ValueError(
                f"expected {self._d}-dimensional points, got {points.shape[1]}"
            )
        return points @ self._basis

    def inverse_transform(self, points: np.ndarray) -> np.ndarray:
        """Embed subspace coordinates back into ``R^d`` (``x -> x V^T``)."""
        self._require_fitted()
        points = check_matrix(points, "points", allow_empty=True)
        if points.shape[1] != self._basis.shape[1]:
            raise ValueError(
                f"expected {self._basis.shape[1]}-dimensional points, "
                f"got {points.shape[1]}"
            )
        return points @ self._basis.T

    def project_in_place(self, points: np.ndarray) -> np.ndarray:
        """The FSS-style projection ``A -> A V V^T`` (original coordinates).

        ``transform`` validates ``points``; its output is embedded back
        directly, without re-validating an array computed a line earlier.
        """
        return self.transform(points) @ self._basis.T

    def residual_energy(self, points: np.ndarray) -> float:
        """Squared Frobenius distance between the data and its projection.

        This is the constant Δ that FSS adds to the coreset cost so that the
        projected dataset plus Δ approximates the original cost
        (Theorem 5.1 / Definition 3.2).
        """
        points = check_matrix(points, "points")
        residual = points - self.project_in_place(points)
        return float(np.sum(residual**2))

    # ------------------------------------------------------------ internals
    def _require_fitted(self) -> None:
        if self._basis is None:
            raise RuntimeError("PCAProjection must be fitted before use")
