"""Typed, declarative experiment specifications.

The paper's evaluation (Section 7) is a grid — {algorithms} × {datasets} ×
{k, ε, coreset size, JL dimension, quantization bits} × {sources, network
condition} repeated over Monte-Carlo runs — but the kwargs-tuple API can
only express one cell at a time, and silently drops typoed keys.  This
module is the declarative replacement:

* :class:`PipelineConfig` — algorithm name plus every tuning knob, validated
  eagerly against the registry kind (unknown or kind-foreign fields raise at
  construction, not at run time, and never silently filter).
* :class:`DataSpec` — a named benchmark dataset at a chosen scale.
* :class:`NetworkSpec` — network preset, loss/retry overrides, and a
  scripted dropout plan.
* :class:`ExperimentSpec` — the composition, with ``runs``, ``seed``,
  ``num_sources``, and the partition ``strategy``.
* :class:`SweepSpec` — an :class:`ExperimentSpec` plus axis lists, expanded
  into the full cell grid with paired Monte-Carlo seeds.

All specs are frozen dataclasses that round-trip via ``to_dict`` /
``from_dict`` and — through :mod:`repro.api.serialization` — TOML/JSON
files, so an experiment is a reviewable artifact, not a shell history.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.distributed.conditions import (
    NETWORK_PRESETS,
    FaultPlan,
    NetworkCondition,
    resolve_condition,
)
from repro.quantization.bits import DOUBLE_SIGNIFICAND_BITS
from repro.quantization.rounding import RoundingQuantizer

#: Partition strategies accepted by :func:`repro.distributed.partition.
#: partition_dataset` (mirrored here so specs validate eagerly).
PARTITION_STRATEGIES = ("random", "skewed-size", "by-cluster")

#: Benchmark dataset keys :func:`repro.datasets.load_benchmark_dataset`
#: resolves (canonical names first, aliases after).
DATASET_NAMES = ("mnist", "neurips", "mnist-like", "nips", "neurips-like")


def parse_dropout(specs: Sequence[str]) -> Dict[str, int]:
    """Parse ``"SOURCE[:ROUND]"`` dropout entries into a FaultPlan map.

    Raises ``ValueError`` on malformed entries (the CLI converts this to a
    ``SystemExit`` with the same message).
    """
    dropout: Dict[str, int] = {}
    for spec in specs or ():
        index, _, at_round = str(spec).partition(":")
        try:
            dropout[f"source-{int(index)}"] = int(at_round) if at_round else 0
        except ValueError:
            raise ValueError(
                f"invalid dropout entry {spec!r}: expected SOURCE_INDEX[:ROUND]"
            ) from None
    return dropout


def _require_positive(value: Optional[int], name: str) -> None:
    if value is not None and (not isinstance(value, int) or isinstance(value, bool) or value < 1):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _require_fraction(value: Optional[float], name: str) -> None:
    if value is None:
        return
    if not 0.0 < float(value) < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


def _prune_none(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Drop ``None`` entries (TOML has no null; absent means default)."""
    return {key: value for key, value in payload.items() if value is not None}


def _check_payload_fields(cls, payload: Mapping[str, Any]) -> None:
    names = {f.name for f in fields(cls)}
    unknown = sorted(set(payload) - names)
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} fields: {unknown}; "
            f"accepted: {sorted(names)}"
        )


# ---------------------------------------------------------------------------
# PipelineConfig
# ---------------------------------------------------------------------------

#: Spec field → registry keyword argument (identity except the serializable
#: ``quantize_bits`` knob, which materialises a RoundingQuantizer).
_KNOB_TO_KWARG = {
    "epsilon": "epsilon",
    "delta": "delta",
    "coreset_size": "coreset_size",
    "total_samples": "total_samples",
    "pca_rank": "pca_rank",
    "jl_dimension": "jl_dimension",
    "second_jl_dimension": "second_jl_dimension",
    "quantize_bits": "quantizer",
    "batch_size": "batch_size",
    "window": "window",
    "query_every": "query_every",
    "server_n_init": "server_n_init",
    "server_max_iterations": "server_max_iterations",
    "jobs": "jobs",
}


@dataclass(frozen=True)
class PipelineConfig:
    """One algorithm plus all of its tuning knobs, eagerly validated.

    Every knob the registry kinds accept is an explicit field, so a typo
    (``jl_dim=20``) raises ``TypeError`` from the dataclass constructor
    instead of silently running the wrong experiment.  Knobs that the named
    algorithm's kind does not accept (e.g. ``total_samples`` on a
    single-source composition) raise ``ValueError`` at construction with
    the accepted set for that kind.
    """

    algorithm: str
    k: int
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    coreset_size: Optional[int] = None
    total_samples: Optional[int] = None
    pca_rank: Optional[int] = None
    jl_dimension: Optional[int] = None
    second_jl_dimension: Optional[int] = None
    quantize_bits: Optional[int] = None
    batch_size: Optional[int] = None
    window: Optional[int] = None
    query_every: Optional[int] = None
    server_n_init: Optional[int] = None
    server_max_iterations: Optional[int] = None
    jobs: Optional[int] = None

    def __post_init__(self) -> None:
        from repro.core import registry

        try:
            registry.get_spec(self.algorithm)
        except KeyError as exc:
            raise ValueError(str(exc).strip('"')) from None
        _require_positive(self.k, "k")
        _require_fraction(self.epsilon, "epsilon")
        _require_fraction(self.delta, "delta")
        for name in ("coreset_size", "total_samples", "pca_rank",
                     "jl_dimension", "second_jl_dimension", "quantize_bits",
                     "batch_size", "window", "query_every", "server_n_init",
                     "server_max_iterations"):
            _require_positive(getattr(self, name), name)
        accepted = set(registry.accepted_kwargs(self.algorithm))
        rejected = sorted(
            name for name, kwarg in _KNOB_TO_KWARG.items()
            if getattr(self, name) is not None and kwarg not in accepted
        )
        if rejected:
            accepted_knobs = sorted(
                name for name, kwarg in _KNOB_TO_KWARG.items() if kwarg in accepted
            )
            raise ValueError(
                f"{registry.factory_kind(self.algorithm)} pipeline "
                f"{self.algorithm!r} does not accept {rejected}; its knobs: "
                f"{accepted_knobs}"
            )

    @property
    def kind(self) -> str:
        """``"single-source"``, ``"multi-source"``, or ``"streaming"``."""
        from repro.core import registry

        return registry.factory_kind(self.algorithm)

    def quantizer(self) -> Optional[RoundingQuantizer]:
        """Materialise the quantizer knob (bits ≥ 53 keep full doubles,
        matching the CLI's historical ``--quantize-bits`` semantics)."""
        bits = self.quantize_bits
        if bits is None or bits >= DOUBLE_SIGNIFICAND_BITS:
            return None
        return RoundingQuantizer(bits)

    def to_overrides(self) -> Dict[str, Any]:
        """The ``run_registered`` override dict this config describes
        (``k`` excluded — the experiment runner owns it)."""
        overrides: Dict[str, Any] = {}
        for name, kwarg in _KNOB_TO_KWARG.items():
            value = getattr(self, name)
            if value is None:
                continue
            overrides[kwarg] = self.quantizer() if name == "quantize_bits" else value
        return overrides

    def to_dict(self) -> Dict[str, Any]:
        return _prune_none({f.name: getattr(self, f.name) for f in fields(self)})

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PipelineConfig":
        _check_payload_fields(cls, payload)
        return cls(**dict(payload))


# ---------------------------------------------------------------------------
# DataSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DataSpec:
    """A named benchmark dataset at a chosen scale.

    ``seed`` overrides the generation seed; when unset the experiment's
    master seed is used (matching the CLI, where ``--seed`` seeds both
    the dataset and the runs).
    """

    name: str = "mnist"
    n: Optional[int] = None
    d: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        key = str(self.name).strip().lower()
        if key not in DATASET_NAMES:
            raise ValueError(
                f"unknown dataset {self.name!r}; available: "
                f"{', '.join(DATASET_NAMES[:2])}"
            )
        _require_positive(self.n, "n")
        _require_positive(self.d, "d")

    def generation_seed(self, default_seed: int) -> int:
        return int(self.seed if self.seed is not None else default_seed)

    def load(self, default_seed: int = 0):
        """Generate the dataset: returns ``(points, DatasetSpec)``."""
        from repro.datasets import load_benchmark_dataset

        return load_benchmark_dataset(
            self.name, n=self.n, d=self.d, seed=self.generation_seed(default_seed)
        )

    def cache_key(self, default_seed: int) -> Tuple:
        """Identity of the generated matrix (the sweep runner shares points
        and reference solutions across cells with equal keys)."""
        return (str(self.name).strip().lower(), self.n, self.d,
                self.generation_seed(default_seed))

    def to_dict(self) -> Dict[str, Any]:
        return _prune_none({f.name: getattr(self, f.name) for f in fields(self)})

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DataSpec":
        _check_payload_fields(cls, payload)
        return cls(**dict(payload))


# ---------------------------------------------------------------------------
# NetworkSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NetworkSpec:
    """Declarative network simulation settings.

    ``dropout`` entries use the CLI grammar ``"SOURCE_INDEX[:ROUND]"``;
    ``network_seed`` defaults to the experiment seed so degraded runs
    reproduce.
    """

    preset: str = "ideal"
    loss: Optional[float] = None
    retries: Optional[int] = None
    dropout: Tuple[str, ...] = ()
    network_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if str(self.preset).lower() not in NETWORK_PRESETS:
            raise ValueError(
                f"unknown network preset {self.preset!r}; available: "
                f"{', '.join(sorted(NETWORK_PRESETS))}"
            )
        if self.loss is not None and not 0.0 <= float(self.loss) < 1.0:
            raise ValueError(f"loss must lie in [0, 1), got {self.loss!r}")
        if self.retries is not None and int(self.retries) < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries!r}")
        object.__setattr__(self, "dropout", tuple(str(s) for s in self.dropout))
        parse_dropout(self.dropout)  # validate the grammar eagerly

    def condition(self) -> NetworkCondition:
        return resolve_condition(self.preset).with_overrides(
            loss=self.loss, retries=self.retries
        )

    def to_kwargs(self, default_seed: int = 0) -> Dict[str, Any]:
        """The ``create_pipeline`` network keyword arguments (the same
        resolution the CLI flags perform)."""
        dropout = parse_dropout(self.dropout)
        return {
            "network": self.condition(),
            "fault_plan": FaultPlan(dropout=dropout) if dropout else None,
            "network_seed": (
                self.network_seed if self.network_seed is not None
                else int(default_seed)
            ),
        }

    def to_dict(self) -> Dict[str, Any]:
        payload = _prune_none({f.name: getattr(self, f.name) for f in fields(self)})
        if not payload.get("dropout"):
            payload.pop("dropout", None)
        else:
            payload["dropout"] = list(payload["dropout"])
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "NetworkSpec":
        _check_payload_fields(cls, payload)
        payload = dict(payload)
        if "dropout" in payload:
            payload["dropout"] = tuple(payload["dropout"])
        return cls(**payload)


# ---------------------------------------------------------------------------
# TopologySpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TopologySpec:
    """Declarative aggregation topology for streaming experiments.

    ``kind="star"`` is the paper's flat source → server fold (the default,
    and bit-identical to specs written before topologies existed);
    ``kind="tree"`` folds sources through a balanced aggregator tree with
    ``fan_in`` children per node — the shape is deterministic given
    ``(num_sources, fan_in)``, see :meth:`repro.topology.Topology.balanced`.
    """

    kind: str = "star"
    fan_in: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("star", "tree"):
            raise ValueError(
                f"unknown topology kind {self.kind!r}; expected 'star' or 'tree'"
            )
        _require_positive(self.fan_in, "fan_in")
        if self.kind == "tree":
            if self.fan_in is None:
                raise ValueError("topology kind 'tree' requires fan_in")
            if self.fan_in < 2:
                raise ValueError(f"fan_in must be >= 2, got {self.fan_in}")
        elif self.fan_in is not None:
            raise ValueError("fan_in applies only to topology kind 'tree'")

    def to_overrides(self) -> Dict[str, Any]:
        """The engine keyword arguments this topology adds (empty for the
        star — absence *is* the flat fold, keeping old runs bit-identical)."""
        if self.kind == "star":
            return {}
        return {"topology": "tree", "fan_in": self.fan_in}

    def to_dict(self) -> Dict[str, Any]:
        return _prune_none({f.name: getattr(self, f.name) for f in fields(self)})

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TopologySpec":
        _check_payload_fields(cls, payload)
        return cls(**dict(payload))


# ---------------------------------------------------------------------------
# ExperimentSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment cell: pipeline × data × network × repetition plan."""

    pipeline: PipelineConfig
    data: DataSpec = field(default_factory=DataSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    runs: int = 1
    seed: int = 0
    num_sources: Optional[int] = None
    strategy: str = "random"
    topology: Optional[TopologySpec] = None

    def __post_init__(self) -> None:
        if not isinstance(self.pipeline, PipelineConfig):
            raise TypeError("pipeline must be a PipelineConfig")
        if not isinstance(self.data, DataSpec):
            raise TypeError("data must be a DataSpec")
        if not isinstance(self.network, NetworkSpec):
            raise TypeError("network must be a NetworkSpec")
        if self.topology is not None and not isinstance(self.topology, TopologySpec):
            raise TypeError("topology must be a TopologySpec")
        _require_positive(self.runs, "runs")
        _require_positive(self.num_sources, "num_sources")
        if self.strategy not in PARTITION_STRATEGIES:
            raise ValueError(
                f"unknown partition strategy {self.strategy!r}; available: "
                f"{', '.join(PARTITION_STRATEGIES)}"
            )
        if self.pipeline.kind != "single-source" and self.num_sources is None:
            raise ValueError(
                f"num_sources is required for {self.pipeline.kind} pipeline "
                f"{self.pipeline.algorithm!r}"
            )
        if (
            self.topology is not None
            and self.topology.kind == "tree"
            and self.pipeline.kind != "streaming"
        ):
            raise ValueError(
                f"tree topology requires a streaming composition; "
                f"{self.pipeline.algorithm!r} is {self.pipeline.kind}"
            )

    def overrides(self) -> Dict[str, Any]:
        """The merged ``run_registered`` override dict (pipeline knobs plus
        resolved network and topology settings)."""
        merged = self.pipeline.to_overrides()
        merged.update(self.network.to_kwargs(self.seed))
        if self.topology is not None:
            merged.update(self.topology.to_overrides())
        return merged

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "pipeline": self.pipeline.to_dict(),
            "runs": self.runs,
            "seed": self.seed,
            "strategy": self.strategy,
        }
        if self.num_sources is not None:
            payload["num_sources"] = self.num_sources
        data = self.data.to_dict()
        if data != DataSpec().to_dict():
            payload["data"] = data
        network = self.network.to_dict()
        if network != NetworkSpec().to_dict():
            payload["network"] = network
        if self.topology is not None:
            topology = self.topology.to_dict()
            if topology != TopologySpec().to_dict():
                payload["topology"] = topology
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        _check_payload_fields(cls, payload)
        payload = dict(payload)
        if "pipeline" not in payload:
            raise ValueError("ExperimentSpec requires a [pipeline] section")
        payload["pipeline"] = PipelineConfig.from_dict(payload["pipeline"])
        payload["data"] = DataSpec.from_dict(payload.get("data", {}))
        payload["network"] = NetworkSpec.from_dict(payload.get("network", {}))
        if payload.get("topology") is not None:
            payload["topology"] = TopologySpec.from_dict(payload["topology"])
        return cls(**payload)


# ---------------------------------------------------------------------------
# SweepSpec
# ---------------------------------------------------------------------------

#: Axis name → (section, target field).  ``pipeline`` axes cover every
#: PipelineConfig knob; a few CLI-friendly aliases route to the data /
#: network / experiment sections.
_AXIS_TARGETS: Dict[str, Tuple[str, str]] = {
    **{f: ("pipeline", f) for f in (
        "algorithm", "k", "epsilon", "delta", "coreset_size", "total_samples",
        "pca_rank", "jl_dimension", "second_jl_dimension", "quantize_bits",
        "batch_size", "window", "query_every", "server_n_init",
        "server_max_iterations", "jobs",
    )},
    "dataset": ("data", "name"),
    "n": ("data", "n"),
    "d": ("data", "d"),
    "net": ("network", "preset"),
    "preset": ("network", "preset"),
    "loss": ("network", "loss"),
    "retries": ("network", "retries"),
    "dropout": ("network", "dropout"),
    "num_sources": ("experiment", "num_sources"),
    "strategy": ("experiment", "strategy"),
    "runs": ("experiment", "runs"),
    "seed": ("experiment", "seed"),
    "topology": ("topology", "kind"),
    "fan_in": ("topology", "fan_in"),
}


def axis_names() -> Tuple[str, ...]:
    """Valid sweep-axis / override names, sorted."""
    return tuple(sorted(_AXIS_TARGETS))


def apply_axis_overrides(
    spec: ExperimentSpec, overrides: Mapping[str, Any]
) -> ExperimentSpec:
    """Rebuild a spec with axis-style overrides applied to the right
    sections (shared by sweep expansion and every CLI flag path).  The new
    spec re-validates at construction."""
    sections: Dict[str, Dict[str, Any]] = {
        "pipeline": {}, "data": {}, "network": {}, "experiment": {},
        "topology": {},
    }
    for name, value in overrides.items():
        if name not in _AXIS_TARGETS:
            raise ValueError(
                f"unknown override {name!r}; available: {', '.join(axis_names())}"
            )
        section, target = _AXIS_TARGETS[name]
        sections[section][target] = value
    # Collect every section into ONE replace() so ExperimentSpec only
    # re-validates the jointly-overridden spec — applying sections one at a
    # time would reject valid combinations at an intermediate step (e.g.
    # algorithm=bklw + num_sources=4 over a single-source base).
    changes: Dict[str, Any] = dict(sections["experiment"])
    if sections["pipeline"]:
        changes["pipeline"] = replace(spec.pipeline, **sections["pipeline"])
    if sections["data"]:
        changes["data"] = replace(spec.data, **sections["data"])
    if sections["network"]:
        changes["network"] = replace(spec.network, **sections["network"])
    if sections["topology"]:
        base_topology = spec.topology if spec.topology is not None else TopologySpec()
        merged = {
            "kind": base_topology.kind,
            "fan_in": base_topology.fan_in,
            **sections["topology"],
        }
        # A star cell has no fan-in: drop it so grids crossing
        # topology=("star", "tree") with a fan_in axis stay valid — the
        # star rows are the flat baseline the tree rows compare against.
        if merged["kind"] == "star":
            merged["fan_in"] = None
        changes["topology"] = TopologySpec(**merged)
    return replace(spec, **changes) if changes else spec


@dataclass(frozen=True)
class SweepCell:
    """One expanded sweep cell: its grid coordinates plus the full spec."""

    index: int
    cell_id: str
    overrides: Tuple[Tuple[str, Any], ...]
    spec: ExperimentSpec


@dataclass(frozen=True)
class SweepSpec:
    """A base experiment plus axis lists, expanded to the full grid.

    Axes expand in declaration order via the cartesian product; every cell
    keeps the base ``seed`` (unless ``seed`` itself is an axis), so all
    cells draw *paired* Monte-Carlo run seeds, and the sweep runner shares
    one reference solution per ``(dataset, k)`` — the paper's paired-runs
    methodology.
    """

    base: ExperimentSpec
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.base, ExperimentSpec):
            raise TypeError("base must be an ExperimentSpec")
        def _values(value: Any) -> Tuple[Any, ...]:
            # A scalar — including a bare string, which is iterable but
            # never meant as a character list (`net = "lossy"` in TOML) —
            # is a one-value axis.
            if isinstance(value, str):
                return (value,)
            try:
                return tuple(value)
            except TypeError:
                return (value,)

        if isinstance(self.axes, Mapping):
            axes = tuple((str(k), _values(v)) for k, v in self.axes.items())
        else:
            axes = tuple((str(k), _values(v)) for k, v in self.axes)
        for name, values in axes:
            if name not in _AXIS_TARGETS:
                raise ValueError(
                    f"unknown sweep axis {name!r}; available axes: "
                    f"{', '.join(sorted(_AXIS_TARGETS))}"
                )
            if not values:
                raise ValueError(f"sweep axis {name!r} has no values")
        names = [name for name, _ in axes]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            # Tuple-form axes could repeat a name; the grid would be
            # nonsense and to_dict() would silently collapse it.
            raise ValueError(
                f"duplicate sweep axis name(s): {', '.join(duplicates)}"
            )
        object.__setattr__(self, "axes", axes)

    def cell_count(self) -> int:
        count = 1
        for _, values in self.axes:
            count *= len(values)
        return count

    def cells(self) -> List[SweepCell]:
        """Expand the grid: one validated :class:`ExperimentSpec` per cell."""
        names = [name for name, _ in self.axes]
        value_lists = [values for _, values in self.axes]
        cells: List[SweepCell] = []
        for index, combo in enumerate(itertools.product(*value_lists)):
            overrides = tuple(zip(names, combo))
            cells.append(SweepCell(
                index=index,
                cell_id=",".join(f"{n}={v}" for n, v in overrides) or "base",
                overrides=overrides,
                spec=self._apply(overrides),
            ))
        return cells

    def _apply(self, overrides: Sequence[Tuple[str, Any]]) -> ExperimentSpec:
        return apply_axis_overrides(self.base, dict(overrides))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "base": self.base.to_dict(),
            "axes": {name: list(values) for name, values in self.axes},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        _check_payload_fields(cls, payload)
        if "base" not in payload:
            raise ValueError("SweepSpec requires a [base] section")
        return cls(
            base=ExperimentSpec.from_dict(payload["base"]),
            axes=payload.get("axes", ()),
        )


__all__ = [
    "PARTITION_STRATEGIES",
    "DATASET_NAMES",
    "parse_dropout",
    "axis_names",
    "apply_axis_overrides",
    "PipelineConfig",
    "DataSpec",
    "NetworkSpec",
    "TopologySpec",
    "ExperimentSpec",
    "SweepCell",
    "SweepSpec",
]
