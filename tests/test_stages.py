"""Unit tests for the stage protocol and the concrete DR/CR/QT stages."""

import numpy as np
import pytest

from repro.core.engine import StagePipeline, encode_for_wire
from repro.cr.fss import FSSCoreset
from repro.stages import (
    FSSStage,
    JLStage,
    PCAStage,
    QuantizeStage,
    SensitivityStage,
    SourceState,
    StageContext,
    UniformStage,
)
from repro.quantization.rounding import RoundingQuantizer
from repro.utils.random import as_generator, derive_seed


@pytest.fixture()
def ctx():
    return StageContext(k=3, epsilon=0.2, delta=0.1, rng=as_generator(7))


@pytest.fixture()
def raw_state(high_dim_points):
    return SourceState(points=high_dim_points)


def _handshaken(stage, ctx):
    stage.handshake(ctx)
    return stage


class TestSourceState:
    def test_raw_until_weighted(self, raw_state):
        assert raw_state.is_raw
        weighted = raw_state.evolve(weights=np.ones(raw_state.cardinality))
        assert not weighted.is_raw

    def test_evolve_preserves_other_fields(self, raw_state):
        changed = raw_state.evolve(shift=3.0)
        assert changed.shift == 3.0
        assert changed.points is raw_state.points


class TestJLStage:
    def test_requires_handshake(self, raw_state, ctx):
        with pytest.raises(RuntimeError):
            JLStage(10).apply_at_source(raw_state, ctx)

    def test_projects_and_registers_lift(self, raw_state, ctx):
        stage = _handshaken(JLStage(10), ctx)
        effect = stage.apply_at_source(raw_state, ctx)
        assert effect.state.dimension == 10
        assert effect.lift is not None
        lifted = effect.lift(effect.state.points[:5])
        assert lifted.shape == (5, raw_state.dimension)

    def test_explicit_dimension_capped_at_input(self, raw_state, ctx):
        stage = _handshaken(JLStage(10_000), ctx)
        effect = stage.apply_at_source(raw_state, ctx)
        assert effect.state.dimension == raw_state.dimension

    def test_clears_recorded_subspace(self, raw_state, ctx):
        pca_effect = PCAStage(5).apply_at_source(raw_state, ctx)
        assert pca_effect.state.subspace is not None
        jl = _handshaken(JLStage(10), ctx)
        assert jl.apply_at_source(pca_effect.state, ctx).state.subspace is None


class TestPCAStage:
    def test_projects_in_place_and_accumulates_shift(self, raw_state, ctx):
        effect = PCAStage(5).apply_at_source(raw_state, ctx)
        state = effect.state
        # In-place projection keeps the ambient dimension but moves energy
        # into the shift.
        assert state.dimension == raw_state.dimension
        assert state.shift > 0.0
        assert state.subspace is not None
        assert state.subspace.effective_rank == 5


class TestCRStages:
    @pytest.mark.parametrize("stage_cls", [SensitivityStage, UniformStage])
    def test_sampling_produces_weighted_coreset(self, stage_cls, raw_state, ctx):
        effect = stage_cls(40).apply_at_source(raw_state, ctx)
        state = effect.state
        assert not state.is_raw
        assert state.cardinality == 40
        assert state.weights.shape == (40,)
        # Deterministic total weight: the coreset stands in for all n points.
        assert state.weights.sum() == pytest.approx(raw_state.cardinality)

    def test_fss_stage_records_subspace(self, raw_state, ctx):
        effect = FSSStage(size=40, pca_rank=6).apply_at_source(raw_state, ctx)
        state = effect.state
        assert state.cardinality == 40
        assert state.subspace.effective_rank == 6
        assert state.shift > 0.0

    def test_sampling_after_pca_keeps_subspace(self, raw_state, ctx):
        pca_state = PCAStage(6).apply_at_source(raw_state, ctx).state
        ss_state = SensitivityStage(40).apply_at_source(pca_state, ctx).state
        assert ss_state.subspace is pca_state.subspace
        assert ss_state.shift >= pca_state.shift


class TestQuantizeStage:
    def test_arms_wire_quantizer(self, raw_state, ctx):
        effect = QuantizeStage(8).apply_at_source(raw_state, ctx)
        assert effect.state.wire_quantizer.significant_bits == 8

    def test_accepts_quantizer_instance(self, raw_state, ctx):
        quantizer = RoundingQuantizer(12)
        effect = QuantizeStage(quantizer).apply_at_source(raw_state, ctx)
        assert effect.state.wire_quantizer is quantizer


def _advanced_by_draws(seed, draws):
    """A fresh generator of ``seed`` after ``draws`` seed derivations."""
    reference = as_generator(seed)
    for _ in range(draws):
        derive_seed(reference)
    return reference


class TestSeedDraws:
    """Each stage's draws from the master generator, in ``handshake`` plus
    ``apply_at_source``.  Every later seed (later stages, the server solver,
    the stage cache's draw replay) sits on these positions, so a stage that
    stops using a seed it draws must keep the draw."""

    @pytest.mark.parametrize(
        "make, draws",
        [
            (lambda: JLStage(10), 1),
            (lambda: PCAStage(5), 1),
            (lambda: FSSStage(size=40, pca_rank=6), 1),
            (lambda: SensitivityStage(40), 1),
            (lambda: UniformStage(40), 1),
            (lambda: QuantizeStage(8), 0),
        ],
        ids=["JL", "PCA", "FSS", "SS", "Uniform", "QT"],
    )
    def test_master_generator_draws(self, make, draws, raw_state):
        ctx = StageContext(k=3, epsilon=0.2, delta=0.1, rng=as_generator(7))
        stage = make()
        stage.handshake(ctx)
        stage.apply_at_source(raw_state, ctx)
        expected = _advanced_by_draws(7, draws)
        assert ctx.rng.bit_generator.state == expected.bit_generator.state

    def test_fss_build_draws_two_seeds_of_its_generator(self, high_dim_points):
        rng = as_generator(11)
        FSSCoreset(k=3, size=40, pca_rank=6, seed=rng).build(high_dim_points)
        expected = _advanced_by_draws(11, 2)
        assert rng.bit_generator.state == expected.bit_generator.state


class TestWireEncoding:
    def test_raw_state_single_message(self, raw_state):
        wire = encode_for_wire(raw_state)
        tags = [tag for tag, _, _ in wire.messages]
        assert tags == ["raw-data"]
        assert wire.quantizer_bits is None

    def test_coreset_without_subspace(self, raw_state, ctx):
        state = UniformStage(30).apply_at_source(raw_state, ctx).state
        wire = encode_for_wire(state)
        assert [tag for tag, _, _ in wire.messages] == [
            "coreset-points", "coreset-weights", "coreset-shift",
        ]

    def test_subspace_summary_ships_coords_plus_basis(self, raw_state, ctx):
        state = FSSStage(size=30, pca_rank=5).apply_at_source(raw_state, ctx).state
        wire = encode_for_wire(state)
        tags = [tag for tag, _, _ in wire.messages]
        assert tags == [
            "coreset-coords", "pca-basis", "coreset-weights", "coreset-shift",
        ]
        coords = wire.messages[0][1]
        assert coords.shape == (30, 5)
        assert wire.dimension == 5
        # Server-side reconstruction embeds the coords back into ambient
        # coordinates.
        assert wire.decode().shape == (30, raw_state.dimension)

    def test_quantizer_applies_to_main_payload_only(self, raw_state, ctx):
        state = FSSStage(size=30, pca_rank=5).apply_at_source(raw_state, ctx).state
        state = QuantizeStage(6).apply_at_source(state, ctx).state
        wire = encode_for_wire(state)
        bits = {tag: b for tag, _, b in wire.messages}
        assert bits["coreset-coords"] == 6
        assert bits["pca-basis"] is None
        assert bits["coreset-weights"] is None
        assert wire.quantizer_bits == 6


class TestAdHocCompositions:
    """The engine must execute compositions the seed code could not express."""

    def test_empty_composition_is_nr(self, high_dim_points):
        n, d = high_dim_points.shape
        report = StagePipeline([], k=3, seed=0, name="NR (ad hoc)").run(high_dim_points)
        assert report.algorithm == "NR (ad hoc)"
        assert report.communication_scalars == n * d

    def test_pca_ss_matches_fss_wire_cost(self, high_dim_points):
        """PCA+SS recomposes FSS from primitives: identical wire geometry."""
        from repro.core.registry import FSSPipeline

        fss = FSSPipeline(k=3, seed=0, coreset_size=40, pca_rank=6).run(high_dim_points)
        recomposed = StagePipeline(
            [PCAStage(6), SensitivityStage(40)], k=3, seed=0, name="PCA+SS"
        ).run(high_dim_points)
        assert recomposed.communication_scalars == fss.communication_scalars
        assert recomposed.summary_dimension == fss.summary_dimension

    def test_double_jl_uniform_qt(self, high_dim_points):
        """A three-stage novel composition runs end to end with lift-back."""
        pipeline = StagePipeline(
            [JLStage(20), UniformStage(30), JLStage(10), QuantizeStage(8)],
            k=3, seed=5, name="JL+Uniform+JL+QT",
        )
        report = pipeline.run(high_dim_points)
        assert report.centers.shape == (3, high_dim_points.shape[1])
        assert np.all(np.isfinite(report.centers))
        assert report.summary_dimension == 10
        assert report.quantizer_bits == 8
        assert report.communication_bits < report.communication_scalars * 64

    def test_stageless_pipeline_requires_stages(self):
        with pytest.raises(TypeError):
            StagePipeline(k=3)
