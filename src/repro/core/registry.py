"""The pipeline registry: one composition table, one constructor path.

An algorithm is an ordered chain of DR, CR and QT stages — the paper's
Algorithms 1–4 are JL∘FSS, FSS∘JL, JL∘FSS∘JL and JL∘BKLW — so every
registered composition is one row of :data:`_COMPOSITIONS`: its name, its
kind, its report label, its stage chain written as a function of the summary
geometry, and any per-row defaults.  :func:`_composition_class` turns a row
into a subclass of its kind's engine
(:class:`~repro.core.engine.StagePipeline`,
:class:`~repro.core.engine.DistributedStagePipeline` or
:class:`~repro.core.streaming.StreamingEngine`), whose constructor sends the
geometry keywords (``coreset_size``, ``pca_rank``, ``jl_dimension``,
``second_jl_dimension``, ``total_samples``; ``None`` derives the size from
the data) to the chain and every other keyword to the engine.  ``k`` may be
positional; every other argument is keyword-only, and a keyword outside the
kind's set (:data:`SINGLE_SOURCE_KWARGS`, :data:`MULTI_SOURCE_KWARGS`,
:data:`STREAMING_KWARGS`) raises ``TypeError``.

The paper's eight rows are exported under their classic names
(:class:`JLFSSJLPipeline` is the ``"jl-fss-jl"`` row), so
``JLFSSJLPipeline(k=5, seed=0)`` and ``create_pipeline("jl-fss-jl", k=5,
seed=0)`` build the same class.  The other rows are compositions the
monolithic seed implementations could not express — uniform-sampling
baselines, FSS recomposed from primitive ``PCA + SS`` stages, explicit
quantization stages — and the ``stream-*`` rows, which run the same chains
online on the streaming engine: batched arrivals, merge-and-reduce coreset
trees, incremental uplink and continuous queries.

The CLI (:mod:`repro.cli`) and the experiment harness
(:meth:`repro.metrics.experiment.ExperimentRunner.run_registered`) both
resolve algorithms through this registry, so registering a composition is
all it takes to make it runnable everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.engine import DistributedStagePipeline, StagePipeline
from repro.core.streaming import StreamingEngine
from repro.distributed.conditions import (
    NETWORK_PRESETS,
    FaultPlan,
    NetworkCondition,
)
from repro.stages.cr import FSSStage, SensitivityStage, UniformStage
from repro.stages.distributed import BKLWStage, RawGatherStage, SharedJLStage
from repro.stages.dr import JLStage, PCAStage
from repro.stages.qt import QuantizeStage

#: Network-simulation keyword arguments accepted by every factory kind
#: (condition preset / NetworkCondition, scripted faults, retry budget,
#: loss-seed override — see :mod:`repro.distributed.conditions`).
NETWORK_KWARGS = ("network", "fault_plan", "retries", "network_seed")

#: Keyword arguments every single-source factory accepts.  ``stage_cache``
#: (a :class:`~repro.core.cache.StageCache` or per-cell view) opts the
#: engine into content-addressed memoization of stage outputs; the
#: multi-source and streaming kinds execute uncached (their per-shard
#: network metering interleaves with stage execution).
SINGLE_SOURCE_KWARGS = (
    "k", "epsilon", "delta", "coreset_size", "pca_rank", "jl_dimension",
    "second_jl_dimension", "quantizer", "server_n_init",
    "server_max_iterations", "seed", "stage_cache",
) + NETWORK_KWARGS
#: Keyword arguments every multi-source factory accepts.
MULTI_SOURCE_KWARGS = (
    "k", "epsilon", "delta", "pca_rank", "total_samples", "jl_dimension",
    "quantizer", "server_n_init", "seed", "jobs",
) + NETWORK_KWARGS
#: Keyword arguments every streaming factory accepts (streaming compositions
#: consume per-source shards like multi-source ones, plus the stream shape).
STREAMING_KWARGS = (
    "k", "epsilon", "delta", "coreset_size", "pca_rank", "jl_dimension",
    "quantizer", "batch_size", "window", "query_every", "server_n_init",
    "server_max_iterations", "seed", "jobs", "topology", "fan_in",
) + NETWORK_KWARGS

_SINGLE, _MULTI, _STREAMING = "single-source", "multi-source", "streaming"
_KIND_KWARGS = {
    _SINGLE: SINGLE_SOURCE_KWARGS,
    _MULTI: MULTI_SOURCE_KWARGS,
    _STREAMING: STREAMING_KWARGS,
}

#: Significant bits used by the registered +QT compositions when no explicit
#: quantizer is passed (a mid-sweep value from the paper's Figures 3–6).
DEFAULT_QT_BITS = 10


@dataclass(frozen=True)
class PipelineSpec:
    """One registry entry.

    Attributes
    ----------
    name:
        Registry / CLI name (e.g. ``"jl-fss-jl"``).
    factory:
        Callable building a fresh pipeline from the standard keyword
        arguments of its kind.
    multi_source:
        True when the pipeline consumes per-source shards.
    description:
        One-line description shown by ``repro --list-algorithms``.
    novel:
        True for compositions beyond the paper's eight algorithms.
    streaming:
        True for online compositions executed by the
        :class:`~repro.core.streaming.StreamingEngine` (these also consume
        per-source shards, so ``multi_source`` is True for them).
    """

    name: str
    factory: Callable[..., object]
    multi_source: bool
    description: str
    novel: bool = False
    streaming: bool = False


_REGISTRY: Dict[str, PipelineSpec] = {}


def register_pipeline(
    name: str,
    factory: Callable[..., object],
    *,
    multi_source: bool = False,
    description: str = "",
    novel: bool = False,
    streaming: bool = False,
    overwrite: bool = False,
) -> PipelineSpec:
    """Register a composition under ``name`` and return its spec."""
    key = str(name).lower()
    if not overwrite and key in _REGISTRY:
        raise ValueError(f"pipeline {key!r} is already registered")
    spec = PipelineSpec(
        name=key,
        factory=factory,
        multi_source=bool(multi_source) or bool(streaming),
        description=description,
        novel=bool(novel),
        streaming=bool(streaming),
    )
    _REGISTRY[key] = spec
    return spec


def get_spec(name: str) -> PipelineSpec:
    """Look up a registered composition (raises ``KeyError`` with the list of
    known names on a miss)."""
    key = str(name).lower()
    try:
        return _REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown pipeline {name!r}; registered: {', '.join(sorted(_REGISTRY))}"
        ) from None


def factory_kind(name: str) -> str:
    """The keyword-argument kind of a registered composition:
    ``"streaming"``, ``"multi-source"``, or ``"single-source"``."""
    spec = get_spec(name)
    if spec.streaming:
        return "streaming"
    if spec.multi_source:
        return "multi-source"
    return "single-source"


def accepted_kwargs(name: str) -> Tuple[str, ...]:
    """The standard keyword-argument tuple of a composition's kind."""
    return _KIND_KWARGS[factory_kind(name)]


def create_pipeline(name: str, **kwargs):
    """Build a fresh pipeline instance for a registered composition.

    A ``None`` value means "the default" and is dropped.  A keyword outside
    the composition's kind (see :func:`accepted_kwargs`) raises
    ``TypeError`` naming it and the accepted set: a typo like ``jl_dim=20``
    must not silently run the wrong experiment.
    """
    return get_spec(name).factory(
        **{key: value for key, value in kwargs.items() if value is not None}
    )


def registered_names(
    multi_source: Optional[bool] = None, streaming: Optional[bool] = None
) -> List[str]:
    """Sorted names, optionally filtered by kind."""
    return sorted(
        spec.name
        for spec in _REGISTRY.values()
        if (multi_source is None or spec.multi_source == multi_source)
        and (streaming is None or spec.streaming == streaming)
    )


def registered_specs() -> List[PipelineSpec]:
    """All specs, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def is_multi_source(name: str) -> bool:
    """True when the named composition consumes per-source shards."""
    return get_spec(name).multi_source


def is_streaming(name: str) -> bool:
    """True when the named composition runs on the streaming engine."""
    return get_spec(name).streaming


# --------------------------------------------------------------------------
# The composition table.
# --------------------------------------------------------------------------
_ENGINES = {
    _SINGLE: StagePipeline,
    _MULTI: DistributedStagePipeline,
    _STREAMING: StreamingEngine,
}
#: Keyword arguments the stage chain takes (the summary geometry); every
#: other accepted keyword goes to the engine.
_GEOMETRY_KWARGS = (
    "coreset_size", "pca_rank", "jl_dimension", "second_jl_dimension",
    "total_samples",
)


@dataclass(frozen=True)
class _Composition:
    """One row of the composition table.

    ``chain`` maps the geometry keywords to the stage list (each chain takes
    the ones it uses and ignores the rest); ``defaults`` overlays keyword
    defaults on the engine's own; ``classic`` and ``doc`` name and document
    the exported class of a paper row.
    """

    name: str
    kind: str
    label: str
    chain: Callable[..., list]
    description: str
    novel: bool = False
    defaults: Dict[str, object] = field(default_factory=dict)
    classic: Optional[str] = None
    doc: Optional[str] = None


def _composition_class(row: _Composition) -> type:
    """A subclass of the row's engine whose constructor builds the row's
    chain from the geometry keywords and sends the rest to the engine."""
    engine = _ENGINES[row.kind]
    accepted = _KIND_KWARGS[row.kind]
    class_name = row.classic or "".join(
        part.capitalize() for part in row.name.split("-")
    ) + "Pipeline"

    def __init__(self, k, **kwargs):
        unknown = sorted(set(kwargs) - set(accepted))
        if unknown:
            raise TypeError(
                f"{class_name} ({row.name!r}) got unknown keyword arguments "
                f"{unknown}; {row.kind} pipelines accept {sorted(accepted)}"
            )
        kwargs = {**row.defaults, **kwargs}
        geometry = {key: kwargs.pop(key, None) for key in _GEOMETRY_KWARGS}
        engine.__init__(self, row.chain(**geometry), k=k, **kwargs)

    def __reduce__(self):
        # Only the eight paper rows are module attributes, so pickle finds
        # a row's class through the registry name instead.
        return _blank_instance, (row.name,), self.__dict__

    return type(class_name, (engine,), {
        "__init__": __init__,
        "__reduce__": __reduce__,
        "__doc__": row.doc or row.description,
        "__module__": __name__,
        "name": row.label,
    })


def _blank_instance(name: str):
    """An uninitialised instance of a registered row's class (unpickling)."""
    cls = get_spec(name).factory
    return cls.__new__(cls)


_COMPOSITIONS = (
    # ------------------------------------------------ the paper's eight
    _Composition(
        "nr", _SINGLE, "NR", lambda **_: [],
        "no reduction: transmit the raw dataset (Section 7.2 baseline)",
        classic="NoReductionPipeline",
        doc="""The NR baseline: transmit the raw dataset; the server solves
        k-means.

        Normalized communication cost is 1 by construction and the data
        source performs no computation (Section 7.2).
        """,
    ),
    _Composition(
        "fss", _SINGLE, "FSS",
        lambda coreset_size, pca_rank, **_: [FSSStage(coreset_size, pca_rank)],
        "FSS coreset: PCA + sensitivity sampling (Theorem 4.1)",
        classic="FSSPipeline",
        doc="""The FSS baseline (Theorem 4.1): PCA + sensitivity sampling at
        the source, weighted k-means at the server.

        The coreset points live in the ``t``-dimensional principal subspace,
        so the source transmits each point's subspace coordinates *plus* the
        basis ``V`` (``d·t`` scalars) — the term that dominates FSS's
        communication and that the JL-based pipelines eliminate.
        """,
    ),
    _Composition(
        "jl-fss", _SINGLE, "JL+FSS (Alg1)",
        lambda coreset_size, pca_rank, jl_dimension, **_: [
            JLStage(jl_dimension), FSSStage(coreset_size, pca_rank),
        ],
        "Algorithm 1: JL projection, then FSS (Theorem 4.2)",
        classic="JLFSSPipeline",
        doc="""Algorithm 1 (DR + CR): JL projection, then FSS, at the data
        source.

        The JL map is derived from a seed shared with the server (the
        engine's seed handshake), so describing it costs nothing; the coreset
        is built in the projected space and the server lifts the computed
        centers back through the Moore–Penrose inverse.
        """,
    ),
    _Composition(
        "fss-jl", _SINGLE, "FSS+JL (Alg2)",
        lambda coreset_size, pca_rank, jl_dimension, **_: [
            FSSStage(coreset_size, pca_rank), JLStage(jl_dimension),
        ],
        "Algorithm 2: FSS, then JL projection of the coreset (Theorem 4.3)",
        classic="FSSJLPipeline",
        doc="""Algorithm 2 (CR + DR): FSS on the original data, then a JL
        projection of the (small) coreset.

        Communication becomes independent of ``n`` and ``d`` (only the
        dimension-reduced coreset travels), but the FSS step now runs on the
        full-dimensional data, giving the super-linear source complexity of
        Theorem 4.3.
        """,
    ),
    _Composition(
        "jl-fss-jl", _SINGLE, "JL+FSS+JL (Alg3)",
        lambda coreset_size, pca_rank, jl_dimension, second_jl_dimension, **_: [
            JLStage(jl_dimension),
            FSSStage(coreset_size, pca_rank),
            JLStage(second_jl_dimension),
        ],
        "Algorithm 3: JL, then FSS, then JL again (Theorem 4.4)",
        classic="JLFSSJLPipeline",
        doc="""Algorithm 3 (DR + CR + DR): JL, then FSS, then JL again.

        Combines the near-linear source complexity of Algorithm 1 (the
        expensive coreset step runs in the already-projected space) with the
        constant communication of Algorithm 2 (only a dimension-reduced
        coreset travels), at a small extra approximation factor (Theorem
        4.4).  ``second_jl_dimension`` is the target of the second
        projection; when omitted it is derived from the coreset cardinality
        via Lemma 4.2.
        """,
    ),
    _Composition(
        "nr-distributed", _MULTI, "NR (distributed)",
        lambda **_: [RawGatherStage()],
        "distributed no-reduction baseline: every source ships its shard",
        classic="DistributedNoReductionPipeline",
        doc="Distributed NR baseline: every source ships its raw shard.",
    ),
    _Composition(
        "bklw", _MULTI, "BKLW",
        lambda pca_rank, total_samples, **_: [BKLWStage(pca_rank, total_samples)],
        "BKLW: disPCA + disSS (Theorem 5.3)",
        classic="BKLWPipeline",
        doc="""The BKLW baseline (Theorem 5.3): disPCA + disSS, then server
        k-means.

        The disPCA stage ships each source's local singular vectors
        (``O(k d/ε²)`` scalars per source), which dominates the
        communication cost for high-dimensional data — exactly the term
        Algorithm 4 removes.
        """,
    ),
    _Composition(
        "jl-bklw", _MULTI, "JL+BKLW (Alg4)",
        lambda pca_rank, total_samples, jl_dimension, **_: [
            SharedJLStage(jl_dimension), BKLWStage(pca_rank, total_samples),
        ],
        "Algorithm 4: shared-seed JL, then BKLW (Theorem 5.4)",
        classic="JLBKLWPipeline",
        doc="""Algorithm 4 (Theorem 5.4): every source applies a shared-seed
        JL projection to its shard (no communication), then BKLW runs in the
        projected space; the server lifts the centers back through the JL
        pseudo-inverse.
        """,
    ),
    # -------------------------------------------- novel single-source rows
    _Composition(
        "uniform", _SINGLE, "Uniform",
        lambda coreset_size, **_: [UniformStage(coreset_size)],
        "uniform-sampling coreset baseline (the Section 7.4 ablation, "
        "promoted to a first-class pipeline)",
        novel=True,
    ),
    _Composition(
        "jl-uniform", _SINGLE, "JL+Uniform",
        lambda coreset_size, jl_dimension, **_: [
            JLStage(jl_dimension), UniformStage(coreset_size),
        ],
        "shared-seed JL projection, then uniform sampling",
        novel=True,
    ),
    _Composition(
        "jl-uniform-qt", _SINGLE, "JL+Uniform+QT",
        lambda coreset_size, jl_dimension, **_: [
            JLStage(jl_dimension),
            UniformStage(coreset_size),
            QuantizeStage(DEFAULT_QT_BITS),
        ],
        f"JL, uniform sampling, and an explicit {DEFAULT_QT_BITS}-bit "
        "quantization stage",
        novel=True,
    ),
    _Composition(
        "pca-ss", _SINGLE, "PCA+SS",
        lambda coreset_size, pca_rank, **_: [
            PCAStage(pca_rank), SensitivityStage(coreset_size),
        ],
        "FSS recomposed from primitive stages: in-place PCA, then "
        "sensitivity sampling",
        novel=True,
    ),
    _Composition(
        "jl-ss", _SINGLE, "JL+SS",
        lambda coreset_size, jl_dimension, **_: [
            JLStage(jl_dimension), SensitivityStage(coreset_size),
        ],
        "JL projection, then plain sensitivity sampling (Algorithm 1 "
        "without the intrinsic-dimension PCA step)",
        novel=True,
    ),
    _Composition(
        "jl-fss-qt", _SINGLE, "JL+FSS+QT",
        lambda coreset_size, pca_rank, jl_dimension, **_: [
            JLStage(jl_dimension),
            FSSStage(coreset_size, pca_rank),
            QuantizeStage(DEFAULT_QT_BITS),
        ],
        f"Algorithm 1 with an explicit {DEFAULT_QT_BITS}-bit quantization "
        "stage (Section 6.2, single source)",
        novel=True,
    ),
    # ------------------------------------------------------ streaming rows
    _Composition(
        "stream-fss", _STREAMING, "Stream FSS",
        lambda coreset_size, pca_rank, **_: [FSSStage(coreset_size, pca_rank)],
        "streaming FSS: per-batch FSS coresets in a merge-and-reduce tree, "
        "incremental uplink, k-means queries mid-stream",
        novel=True,
    ),
    _Composition(
        "stream-jl-fss", _STREAMING, "Stream JL+FSS",
        lambda coreset_size, pca_rank, jl_dimension, **_: [
            JLStage(jl_dimension), FSSStage(coreset_size, pca_rank),
        ],
        "streaming Algorithm 1: pinned shared-seed JL projection, then "
        "per-batch FSS coresets",
        novel=True,
    ),
    _Composition(
        "stream-jl-ss", _STREAMING, "Stream JL+SS",
        lambda coreset_size, jl_dimension, **_: [
            JLStage(jl_dimension), SensitivityStage(coreset_size),
        ],
        "streaming JL projection + sensitivity sampling",
        novel=True,
    ),
    _Composition(
        "stream-uniform-qt", _STREAMING, "Stream Uniform+QT",
        lambda coreset_size, **_: [
            UniformStage(coreset_size), QuantizeStage(DEFAULT_QT_BITS),
        ],
        f"streaming uniform-sampling baseline with {DEFAULT_QT_BITS}-bit "
        "quantize-on-send",
        novel=True,
    ),
    _Composition(
        "stream-fss-window", _STREAMING, "Stream FSS (window)",
        lambda coreset_size, pca_rank, **_: [FSSStage(coreset_size, pca_rank)],
        "sliding-window streaming FSS: expired batches leave the trees, the "
        "query cost, and the communication totals (default window: 8 "
        "batches)",
        novel=True,
        defaults={"window": 8},
    ),
)

for _row in _COMPOSITIONS:
    register_pipeline(
        _row.name,
        _composition_class(_row),
        multi_source=_row.kind == _MULTI,
        streaming=_row.kind == _STREAMING,
        description=_row.description,
        novel=_row.novel,
    )
del _row

NoReductionPipeline = get_spec("nr").factory
FSSPipeline = get_spec("fss").factory
JLFSSPipeline = get_spec("jl-fss").factory
FSSJLPipeline = get_spec("fss-jl").factory
JLFSSJLPipeline = get_spec("jl-fss-jl").factory
DistributedNoReductionPipeline = get_spec("nr-distributed").factory
BKLWPipeline = get_spec("bklw").factory
JLBKLWPipeline = get_spec("jl-bklw").factory


def make_stage_pipeline(stages, *, multi_source: bool = False, **kwargs):
    """Build an unregistered ad-hoc composition (convenience for notebooks
    and tests): dispatches to the right engine class."""
    engine_cls = DistributedStagePipeline if multi_source else StagePipeline
    return engine_cls(stages, **kwargs)


def network_preset_names() -> List[str]:
    """Sorted names of the registered network-condition presets."""
    return sorted(NETWORK_PRESETS)


__all__ = [
    "PipelineSpec",
    "register_pipeline",
    "get_spec",
    "create_pipeline",
    "accepted_kwargs",
    "factory_kind",
    "registered_names",
    "registered_specs",
    "is_multi_source",
    "is_streaming",
    "make_stage_pipeline",
    "network_preset_names",
    "NETWORK_PRESETS",
    "NetworkCondition",
    "FaultPlan",
    "SINGLE_SOURCE_KWARGS",
    "MULTI_SOURCE_KWARGS",
    "STREAMING_KWARGS",
    "NETWORK_KWARGS",
    "DEFAULT_QT_BITS",
    "NoReductionPipeline",
    "FSSPipeline",
    "JLFSSPipeline",
    "FSSJLPipeline",
    "JLFSSJLPipeline",
    "DistributedNoReductionPipeline",
    "BKLWPipeline",
    "JLBKLWPipeline",
]
