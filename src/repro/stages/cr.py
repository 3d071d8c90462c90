"""Cardinality-reduction stages: FSS, sensitivity sampling, uniform sampling.

Each CR stage replaces the state's point set by a small weighted coreset
``(S, Δ, w)`` (Definition 3.2).  ``FSSStage`` runs the full FSS construction
(in-place PCA + sensitivity sampling, Theorem 3.2) and records the fitted
basis for the compact wire format; ``SensitivityStage`` and ``UniformStage``
are the primitive samplers, usable on their own or after a ``PCAStage``.
"""

from __future__ import annotations

from typing import Optional

from repro.cr.fss import FSSCoreset
from repro.cr.sensitivity import SensitivitySampler
from repro.cr.uniform import UniformCoreset
from repro.stages.base import Stage, StageContext, StageEffect, SourceState
from repro.stages.sizing import resolve_coreset_size, resolve_pca_rank


class FSSStage(Stage):
    """Build an FSS coreset of the current points (Theorem 3.2).

    The coreset points stay in the ambient coordinates of the current space
    but span the fitted principal subspace, which the stage records so the
    engine can transmit subspace coordinates plus the basis (Theorem 4.1's
    wire format) — unless a later DR stage moves the points again.
    """

    name = "FSS"
    reduces_cardinality = True
    cacheable = True

    def __init__(self, size: Optional[int] = None, pca_rank: Optional[int] = None) -> None:
        self.size = size
        self.pca_rank = pca_rank

    def fingerprint(self):
        return ("FSS", self.size, self.pca_rank)

    def apply_at_source(self, state: SourceState, ctx: StageContext) -> StageEffect:
        n, d = state.cardinality, state.dimension
        size = resolve_coreset_size(self.size, n, ctx.k)
        rank = resolve_pca_rank(self.pca_rank, n, d, ctx.k)
        fss = FSSCoreset(ctx.k, size, rank, seed=ctx.derive_seed())
        built = fss.build(state.points, weights=state.weights)
        coreset = built.coreset
        return StageEffect(
            state=state.evolve(
                points=coreset.points,
                weights=coreset.weights,
                shift=state.shift + coreset.shift,
                subspace=built.pca,
            ),
            details={"coreset_size": float(coreset.size)},
        )


class SensitivityStage(Stage):
    """Sensitivity (importance) sampling of the current points.

    Keeps any recorded subspace: sampling selects rows, so the points still
    lie in the fitted principal subspace and the compact wire format stays
    valid.  ``PCAStage`` + ``SensitivityStage`` therefore recomposes FSS from
    primitive stages.
    """

    name = "SS"
    reduces_cardinality = True
    cacheable = True

    def __init__(self, size: Optional[int] = None) -> None:
        self.size = size

    def fingerprint(self):
        return ("SS", self.size)

    def apply_at_source(self, state: SourceState, ctx: StageContext) -> StageEffect:
        size = resolve_coreset_size(self.size, state.cardinality, ctx.k)
        sampler = SensitivitySampler(k=ctx.k, size=size, seed=ctx.derive_seed())
        coreset = sampler.build(state.points, weights=state.weights, shift=state.shift)
        return StageEffect(
            state=state.evolve(
                points=coreset.points,
                weights=coreset.weights,
                shift=coreset.shift,
            ),
            details={"coreset_size": float(coreset.size)},
        )


class UniformStage(Stage):
    """Uniform sampling of the current points — the naive CR baseline.

    No worst-case ε-coreset guarantee (Section 7.4's ablation shows why
    importance sampling matters), but a valid stage that composes with DR and
    QT stages into pipelines the seed code could not express.
    """

    name = "Uniform"
    reduces_cardinality = True
    cacheable = True

    def __init__(self, size: Optional[int] = None) -> None:
        self.size = size

    def fingerprint(self):
        return ("Uniform", self.size)

    def apply_at_source(self, state: SourceState, ctx: StageContext) -> StageEffect:
        size = resolve_coreset_size(self.size, state.cardinality, ctx.k)
        sampler = UniformCoreset(size=size, seed=ctx.derive_seed())
        coreset = sampler.build(state.points, weights=state.weights, shift=state.shift)
        return StageEffect(
            state=state.evolve(
                points=coreset.points,
                weights=coreset.weights,
                shift=coreset.shift,
            ),
            details={"coreset_size": float(coreset.size)},
        )
