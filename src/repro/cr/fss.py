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
from repro.cr.sensitivity import SensitivitySampler
from repro.dr.pca import PCAProjection
from repro.utils.random import SeedLike, as_generator, derive_seed
from repro.utils.validation import check_matrix, check_positive_int


@dataclass
class FSSResult:
    """Everything FSS produces: the coreset plus the fitted PCA map, whose
    ``d × t`` basis is what a source ships beside the coreset's subspace
    coordinates (Theorem 4.1's ``O(d·k/ε²)`` term)."""

    coreset: Coreset
    pca: PCAProjection


class FSSCoreset:
    """FSS coreset builder.

    Parameters
    ----------
    k:
        Number of clusters.
    size:
        Coreset cardinality (capped at the number of input points).
    pca_rank:
        PCA rank ``t`` (capped at ``min(n, d)`` of the input).
    seed:
        RNG seed or generator.

    :mod:`repro.stages.sizing` derives ``size`` and ``pca_rank``; the
    theory's ``Õ(k³/ε⁴)`` cardinality and ``k + ⌈4k/ε²⌉ − 1`` rank exceed
    laptop-scale datasets.
    """

    def __init__(self, k: int, size: int, pca_rank: int, seed: SeedLike = None) -> None:
        self.k = check_positive_int(k, "k")
        self.size = check_positive_int(size, "size")
        self.pca_rank = check_positive_int(pca_rank, "pca_rank")
        self._rng = as_generator(seed)

    # ------------------------------------------------------------------ API
    def build(self, points: np.ndarray, weights: Optional[np.ndarray] = None) -> FSSResult:
        """Construct the FSS coreset of ``points``.

        Returns an :class:`FSSResult`; the coreset points are expressed in
        the original ``d``-dimensional coordinates (projected onto the
        principal subspace), with the discarded energy in ``coreset.shift``.
        """
        points = check_matrix(points, "points")
        n, d = points.shape

        derive_seed(self._rng)  # unused; the sampler's seed sits after it
        pca = PCAProjection(rank=min(self.pca_rank, n, d))
        pca.fit(points)
        projected = pca.project_in_place(points)
        # Δ = ‖A − A V Vᵀ‖²_F, from the projection already in hand: the same
        # bits as pca.residual_energy(points), which would project again.
        tail_energy = float(np.sum((points - projected) ** 2))

        sampler = SensitivitySampler(
            k=self.k, size=min(self.size, n), seed=derive_seed(self._rng)
        )
        coreset = sampler.build(projected, weights=weights, shift=tail_energy)
        return FSSResult(coreset=coreset, pca=pca)
