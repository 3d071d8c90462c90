"""Johnson–Lindenstrauss random projections.

A JL projection is a random linear map ``π : R^d -> R^{d'}`` that preserves
ℓ-2 norms up to ``1 ± ε`` with high probability (Lemma 3.1) and, with the
target dimension of Theorem 3.1 / Lemmas 4.1–4.2, preserves k-means costs of
all candidate center sets simultaneously.

The decisive property for the paper is *data-obliviousness*: the projection
matrix is a function only of ``(d, d', seed)``.  The data source and the edge
server can therefore derive the identical matrix from a pre-shared seed, so
describing the map costs **zero** communication at runtime — in contrast to
PCA, whose basis must be shipped.

Two matrix ensembles are provided, both satisfying the sub-Gaussian-tail
condition of Theorem 3.1:

* ``"gaussian"`` — i.i.d. ``N(0, 1/d')`` entries;
* ``"rademacher"`` — Achlioptas' database-friendly ±1/sqrt(d') entries.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.dr.base import DimensionalityReducer
from repro.utils.linalg import moore_penrose_inverse
from repro.utils.random import SeedLike, as_generator
from repro.utils.validation import check_fraction, check_matrix, check_positive_int

_ENSEMBLES = ("gaussian", "rademacher")


def jl_target_dimension(
    n: int,
    k: int,
    epsilon: float,
    delta: float = 0.1,
    constant: float = 8.0,
    max_dimension: Optional[int] = None,
) -> int:
    """Target dimension ``d' = O(ε^{-2} log(nk/δ))`` from Lemma 4.1 / 4.2.

    Parameters
    ----------
    n:
        Cardinality of the point set whose pairwise point–center distances
        must be preserved (the dataset size for Lemma 4.1, or the coreset
        size for Lemma 4.2).
    k:
        Number of clustering centers.
    epsilon:
        Distortion parameter ε in (0, 1).
    delta:
        Failure probability δ in (0, 1).
    constant:
        The hidden constant; the paper's Section 6.3 uses
        ``d' <= ceil(8 log(4 n' k / δ) / ε²)``, so the default is 8.
    max_dimension:
        Optional cap (never project *up*: callers pass the input dimension).
    """
    n = check_positive_int(n, "n")
    k = check_positive_int(k, "k")
    epsilon = check_fraction(epsilon, "epsilon")
    delta = check_fraction(delta, "delta")
    raw = constant * math.log(4.0 * n * k / delta) / (epsilon**2)
    dimension = max(1, int(math.ceil(raw)))
    if max_dimension is not None:
        dimension = min(dimension, int(max_dimension))
    return dimension


class JLProjection(DimensionalityReducer):
    """A concrete JL random projection with a reproducible matrix.

    Parameters
    ----------
    input_dimension:
        Original dimension ``d``.
    output_dimension:
        Target dimension ``d'`` (use :func:`jl_target_dimension` to derive it
        from ``(n, k, ε, δ)``).
    seed:
        Seed shared between data source and server.  Two instances created
        with the same ``(input_dimension, output_dimension, seed, ensemble)``
        produce the identical matrix.
    ensemble:
        ``"gaussian"`` or ``"rademacher"``.
    """

    def __init__(
        self,
        input_dimension: int,
        output_dimension: int,
        seed: SeedLike = None,
        ensemble: str = "gaussian",
    ) -> None:
        self._d = check_positive_int(input_dimension, "input_dimension")
        self._d_out = check_positive_int(output_dimension, "output_dimension")
        if ensemble not in _ENSEMBLES:
            raise ValueError(f"ensemble must be one of {_ENSEMBLES}, got {ensemble!r}")
        self._ensemble = ensemble
        rng = as_generator(seed)
        self._matrix = self._draw_matrix(rng)
        self._pinv: Optional[np.ndarray] = None

    # ------------------------------------------------------------- plumbing
    def _draw_matrix(self, rng: np.random.Generator) -> np.ndarray:
        scale = 1.0 / math.sqrt(self._d_out)
        if self._ensemble == "gaussian":
            return rng.standard_normal((self._d, self._d_out)) * scale
        signs = rng.integers(0, 2, size=(self._d, self._d_out)) * 2 - 1
        return signs.astype(float) * scale

    # ------------------------------------------------------------------ API
    @property
    def input_dimension(self) -> int:
        return self._d

    @property
    def output_dimension(self) -> int:
        return self._d_out

    @property
    def matrix(self) -> np.ndarray:
        """The projection matrix Π of shape ``(d, d')`` (read-only copy)."""
        return self._matrix.copy()

    @property
    def ensemble(self) -> str:
        return self._ensemble

    @property
    def transmitted_scalars(self) -> int:
        """JL maps are data-oblivious: the server re-derives Π from the seed."""
        return 0

    def transform(self, points: np.ndarray) -> np.ndarray:
        return self._project(check_matrix(points, "points", allow_empty=True))

    def _project(self, points: np.ndarray) -> np.ndarray:
        """The projection of an already-validated 2-D float array: the
        dimension is checked, the entries are not scanned again."""
        if points.shape[1] != self._d:
            raise ValueError(
                f"expected {self._d}-dimensional points, got {points.shape[1]}"
            )
        return points @ self._matrix

    def inverse_transform(self, points: np.ndarray) -> np.ndarray:
        points = check_matrix(points, "points", allow_empty=True)
        if points.shape[1] != self._d_out:
            raise ValueError(
                f"expected {self._d_out}-dimensional points, got {points.shape[1]}"
            )
        if self._pinv is None:
            self._pinv = moore_penrose_inverse(self._matrix)
        return points @ self._pinv

    def distortion(self, points: np.ndarray) -> float:
        """Empirical worst-case norm distortion ``max |‖π(x)‖/‖x‖ - 1|``.

        A diagnostic used in tests and the ablation bench; nonzero-norm rows
        only.
        """
        points = check_matrix(points, "points")
        norms = np.linalg.norm(points, axis=1)
        mask = norms > 0
        if not mask.any():
            return 0.0
        projected = np.linalg.norm(self.transform(points[mask]), axis=1)
        ratios = projected / norms[mask]
        return float(np.max(np.abs(ratios - 1.0)))
