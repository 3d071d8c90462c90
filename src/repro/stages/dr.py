"""Dimensionality-reduction stages: JL projections and in-place PCA.

``JLStage`` is data-oblivious: its matrix is a function of ``(d, d', seed)``
only, so the seed handshake lets the server re-derive the identical map and
describing it costs zero communication.  Its lift is the Moore–Penrose
pseudo-inverse (Section 3.1).

``PCAStage`` is the FSS-style *in-place* projection ``A -> A V Vᵀ``: the
points stay in ambient coordinates but now span the rank-``t`` principal
subspace, the discarded tail energy ``‖A − A V Vᵀ‖²_F`` joins the coreset
shift Δ, and the fitted basis is recorded on the state so the wire format can
send ``t`` coordinates per point plus the basis (``d·t`` scalars) — the term
that dominates FSS's communication and that a subsequent JL stage removes.
"""

from __future__ import annotations

from typing import Optional

from repro.dr.jl import JLProjection
from repro.dr.pca import PCAProjection
from repro.stages.base import CenterLift, Stage, StageContext, StageEffect, SourceState
from repro.stages.sizing import resolve_jl_dimension, resolve_pca_rank


def jl_lift(input_dimension: int, output_dimension: int, seed: int) -> CenterLift:
    """The server-side lift of a shared-seed JL map: the Moore–Penrose
    pseudo-inverse of the matrix the server re-derives from ``(d, d',
    seed)``, so no projection matrix is ever sent or persisted."""

    def lift(centers):
        server_projection = JLProjection(input_dimension, output_dimension, seed=seed)
        return server_projection.inverse_transform(centers)

    return lift


class JLStage(Stage):
    """Apply a shared-seed JL projection to the current point set.

    Parameters
    ----------
    dimension:
        Explicit target dimension ``d'`` (capped at the input dimension);
        when omitted it is derived from the state via Lemma 4.1 (raw data,
        cardinality ``n``) or Lemma 4.2 (coreset, cardinality ``|S|``).
    """

    name = "JL"
    requires_shared_seed = True
    cacheable = True

    def __init__(self, dimension: Optional[int] = None) -> None:
        self.dimension = dimension

    def fingerprint(self):
        return ("JL", self.dimension)

    def rebuild_lift(self, input_dimension: int, output_dimension: int):
        # The lift is a pure function of (d, d', shared seed), so a cached
        # application can rebuild it.
        return jl_lift(input_dimension, output_dimension, self.shared_seed)

    def resolve_dimension(self, state: SourceState, ctx: StageContext) -> int:
        reference_n = state.cardinality if state.is_raw else max(state.cardinality, 2)
        return resolve_jl_dimension(
            self.dimension, reference_n, ctx.k, state.dimension, ctx.epsilon, ctx.delta
        )

    def apply_at_source(self, state: SourceState, ctx: StageContext) -> StageEffect:
        d = state.dimension
        target = self.resolve_dimension(state, ctx)
        projection = JLProjection(d, target, seed=self.shared_seed)
        projected = projection.transform(state.points)
        return StageEffect(
            # The projection moves the points out of any recorded subspace.
            state=state.evolve(points=projected, subspace=None),
            lift=self.rebuild_lift(d, target),
            details={"jl_dimension": float(target)},
        )


class PCAStage(Stage):
    """Project the points in place onto their top-``rank`` principal subspace.

    The stage records the fitted basis on the state (so the engine can use
    the compact FSS wire format) and adds the discarded tail energy to the
    shift Δ, exactly as FSS does (Theorem 3.2 / Definition 3.2).  Composing
    ``PCAStage`` with ``SensitivityStage`` recreates FSS from primitive
    stages.
    """

    name = "PCA"
    cacheable = True

    def __init__(self, rank: Optional[int] = None) -> None:
        self.rank = rank

    def fingerprint(self):
        return ("PCA", self.rank)

    def apply_at_source(self, state: SourceState, ctx: StageContext) -> StageEffect:
        rank = resolve_pca_rank(self.rank, state.cardinality, state.dimension, ctx.k)
        ctx.derive_seed()  # unused; every later seed sits on this draw
        pca = PCAProjection(rank=rank)
        pca.fit(state.points)
        projected = pca.project_in_place(state.points)
        tail_energy = pca.residual_energy(state.points)
        return StageEffect(
            state=state.evolve(
                points=projected,
                shift=state.shift + tail_energy,
                subspace=pca,
            ),
            details={"pca_rank": float(pca.effective_rank)},
        )
