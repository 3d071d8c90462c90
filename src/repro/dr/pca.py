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

from typing import Optional

import numpy as np

from repro.utils.linalg import right_svd
from repro.utils.validation import check_matrix, check_positive_int


class PCAProjection:
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
        self._d: Optional[int] = None

    # ------------------------------------------------------------------ API
    def fit(self, points: np.ndarray) -> "PCAProjection":
        """Compute the top singular subspace of ``points``, keeping at most
        ``min(n, d)`` directions."""
        points = check_matrix(points, "points")
        self._d = points.shape[1]
        rank = min(self._rank, min(points.shape))
        _, vt = right_svd(points)
        self._basis = vt[:rank].T
        return self

    @property
    def basis(self) -> np.ndarray:
        """The ``(d, rank)`` orthonormal basis ``V`` (read-only copy)."""
        self._require_fitted()
        return self._basis.copy()

    @property
    def effective_rank(self) -> int:
        """Rank actually retained (may be below the requested rank)."""
        self._require_fitted()
        return int(self._basis.shape[1])

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Coordinates of the points in the principal subspace (``n × rank``)."""
        self._require_fitted()
        points = check_matrix(points, "points", allow_empty=True)
        if points.shape[1] != self._d:
            raise ValueError(
                f"expected {self._d}-dimensional points, got {points.shape[1]}"
            )
        return points @ self._basis

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
