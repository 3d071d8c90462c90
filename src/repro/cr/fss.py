"""The FSS coreset construction (Feldman–Schmidt–Sohler, paper ref. [11]).

FSS = PCA intrinsic-dimension reduction + sensitivity sampling + Δ term:

1. Project the dataset onto the span of its top ``t = O(k/ε²)`` right
   singular vectors (keeping the points in the original coordinates,
   ``A -> A V V^T``); the discarded tail energy ‖A − A V V^T‖²_F becomes the
   constant shift Δ of the generalized coreset (Definition 3.2).
2. Run sensitivity sampling on the projected points.

The resulting ``(S, Δ, w)`` is an ε-coreset of the original dataset of size
``Õ(k³/ε⁴)`` — constant in ``n`` and ``d`` (Theorem 3.2).

Communication subtlety (Theorem 4.1): the coreset points live in a
``t``-dimensional subspace of ``R^d``, so a data source transmitting the
coreset alone sends each point's ``t`` subspace coordinates *plus* the basis
``V`` (``d·t`` scalars) — the term that dominates FSS's communication cost
and that JL+FSS avoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cr.coreset import Coreset
from repro.cr.sensitivity import SensitivitySampler, sensitivity_sample_size
from repro.dr.pca import PCAProjection, pca_target_dimension
from repro.utils.random import SeedLike, as_generator, derive_seed
from repro.utils.validation import (
    check_fraction,
    check_matrix,
    check_positive_int,
)


def fss_coreset_size(k: int, epsilon: float, delta: float = 0.1, constant: float = 10.0) -> int:
    """ε-coreset cardinality ``O(k³ log²k log(1/δ)/ε⁴)`` from Theorem 3.2."""
    return sensitivity_sample_size(k, epsilon, delta, constant)


@dataclass
class FSSResult:
    """Everything FSS produces: the coreset plus the fitted PCA map.

    ``basis_scalars`` is the number of scalars needed to describe the PCA
    basis if it has to be transmitted (Theorem 4.1's ``O(d·k/ε²)`` term); it
    is zero only when a subsequent JL projection makes the basis irrelevant.
    """

    coreset: Coreset
    pca: PCAProjection
    basis_scalars: int


class FSSCoreset:
    """FSS coreset builder.

    Parameters
    ----------
    k:
        Number of clusters.
    epsilon:
        Target coreset error ε.
    delta:
        Failure probability δ.
    size:
        Explicit coreset cardinality; if omitted it is derived from
        ``(k, ε, δ)`` via :func:`fss_coreset_size`.
    pca_rank:
        Explicit PCA rank ``t``; if omitted, ``k + ceil(4k/ε²) − 1``.
    seed:
        RNG seed or generator.
    """

    def __init__(
        self,
        k: int,
        epsilon: float = 0.2,
        delta: float = 0.1,
        size: Optional[int] = None,
        pca_rank: Optional[int] = None,
        seed: SeedLike = None,
    ) -> None:
        self.k = check_positive_int(k, "k")
        self.epsilon = check_fraction(epsilon, "epsilon")
        self.delta = check_fraction(delta, "delta")
        self.size = size if size is None else check_positive_int(size, "size")
        self.pca_rank = (
            pca_rank if pca_rank is None else check_positive_int(pca_rank, "pca_rank")
        )
        self._rng = as_generator(seed)

    # ------------------------------------------------------------------ API
    def resolved_size(self, n: Optional[int] = None) -> int:
        """Coreset cardinality actually used (never larger than n)."""
        size = self.size or fss_coreset_size(self.k, self.epsilon, self.delta)
        if n is not None:
            size = min(size, n)
        return size

    def resolved_rank(self, n: int, d: int) -> int:
        """PCA rank actually used (never larger than min(n, d))."""
        rank = self.pca_rank or pca_target_dimension(self.k, self.epsilon)
        return max(1, min(rank, n, d))

    def build(self, points: np.ndarray, weights: Optional[np.ndarray] = None) -> FSSResult:
        """Construct the FSS coreset of ``points``.

        Returns an :class:`FSSResult`; the coreset points are expressed in
        the original ``d``-dimensional coordinates (projected onto the
        principal subspace), with the discarded energy in ``coreset.shift``.
        """
        points = check_matrix(points, "points")
        n, d = points.shape
        rank = self.resolved_rank(n, d)

        derive_seed(self._rng)  # unused; the sampler's seed sits after it
        pca = PCAProjection(rank=rank)
        pca.fit(points)
        projected = pca.project_in_place(points)
        # Δ = ‖A − A V Vᵀ‖²_F, from the projection already in hand: the same
        # bits as pca.residual_energy(points), which would project again.
        tail_energy = float(np.sum((points - projected) ** 2))

        sampler = SensitivitySampler(
            k=self.k,
            size=self.resolved_size(n),
            seed=derive_seed(self._rng),
        )
        coreset = sampler.build(projected, weights=weights, shift=tail_energy)
        basis_scalars = d * pca.effective_rank
        return FSSResult(coreset=coreset, pca=pca, basis_scalars=basis_scalars)

    def __call__(self, points: np.ndarray, weights: Optional[np.ndarray] = None) -> Coreset:
        """Shorthand returning only the coreset."""
        return self.build(points, weights).coreset
