"""Communication profiles: a canonical fixture of every pipeline's traffic.

The golden regression suite pins, for **all** registered compositions, the
uplink scalars/bits and the per-tag scalar table produced on a fixed seeded
dataset under the ideal network.  :func:`communication_profile` is the single
source of truth for how that fixture is computed — the committed JSON
(``tests/goldens/communication.json``), its regeneration script, and the
diffing test all call it, so the three can never drift apart.

Everything the profile contains is integer-exact (scalar counts come from
array shapes and seeded draws, bit counts from scalar counts × precision),
so the fixture is stable across platforms and BLAS builds.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.core import registry
from repro.datasets import make_gaussian_mixture

#: The fixed configuration the golden fixture is generated under.  Changing
#: any value invalidates the committed fixture — regenerate it via
#: ``python tests/goldens/regenerate_communication.py`` and review the diff.
GOLDEN_CONFIG: Dict[str, object] = {
    "n": 240,
    "d": 12,
    "k": 3,
    "separation": 6.0,
    "cluster_std": 0.8,
    "dataset_seed": 42,
    "pipeline_seed": 123,
    "partition_seed": 7,
    "num_sources": 3,
    "coreset_size": 40,
    "total_samples": 60,
    "pca_rank": 4,
    "jl_dimension": 8,
    "batch_size": 64,
}


#: Pipeline overrides of the tree-mode golden section: the streaming
#: compositions rerun under a balanced fan-in-2 aggregation tree, which at
#: the golden source count (3) yields two mid-tree aggregators whose hop-1
#: traffic is pinned via the ``@h1`` wire tags.
GOLDEN_TREE_OVERRIDES: Dict[str, object] = {"topology": "tree", "fan_in": 2}


def communication_profile(
    names: Optional[Iterable[str]] = None,
    config: Optional[Dict[str, object]] = None,
    pipeline_overrides: Optional[Dict[str, object]] = None,
) -> Dict[str, Dict[str, object]]:
    """Run registered compositions under the ideal network and profile them.

    Returns ``{pipeline name: {"uplink_scalars", "uplink_bits",
    "scalars_by_tag"}}`` for each name (default: every registered
    composition), using the fixed :data:`GOLDEN_CONFIG` unless overridden.
    ``pipeline_overrides`` are extra constructor kwargs applied verbatim to
    every profiled pipeline (every name must accept them).
    """
    cfg = dict(GOLDEN_CONFIG)
    if config:
        cfg.update(config)
    points, _, _ = make_gaussian_mixture(
        n=int(cfg["n"]),
        d=int(cfg["d"]),
        k=int(cfg["k"]),
        separation=float(cfg["separation"]),
        cluster_std=float(cfg["cluster_std"]),
        seed=int(cfg["dataset_seed"]),
    )
    if names is None:
        names = registry.registered_names()

    profiles: Dict[str, Dict[str, object]] = {}
    merged = {
        "k": int(cfg["k"]),
        "seed": int(cfg["pipeline_seed"]),
        "coreset_size": int(cfg["coreset_size"]),
        "total_samples": int(cfg["total_samples"]),
        "pca_rank": int(cfg["pca_rank"]),
        "jl_dimension": int(cfg["jl_dimension"]),
        "batch_size": int(cfg["batch_size"]),
    }
    for name in sorted(names):
        # One merged config covers all kinds; select each kind's subset
        # (create_pipeline rejects keys outside the kind).
        accepted = registry.accepted_kwargs(name)
        kwargs = {key: value for key, value in merged.items() if key in accepted}
        kwargs.update(pipeline_overrides or {})
        pipeline = registry.create_pipeline(name, **kwargs)
        if registry.is_multi_source(name):
            report = pipeline.run_on_dataset(
                points,
                num_sources=int(cfg["num_sources"]),
                partition_seed=int(cfg["partition_seed"]),
            )
        else:
            report = pipeline.run(points)
        tags = report.tag_scalars or {}
        profiles[name] = {
            "uplink_scalars": int(report.communication_scalars),
            "uplink_bits": int(report.communication_bits),
            "scalars_by_tag": {tag: int(count) for tag, count in sorted(tags.items())},
        }
    return profiles


def tree_communication_profile(
    names: Optional[Iterable[str]] = None,
    config: Optional[Dict[str, object]] = None,
) -> Dict[str, Dict[str, object]]:
    """Profile the streaming compositions under the golden aggregation tree.

    Same dataset, seeds, and sizes as :func:`communication_profile`, but the
    sources fold through a balanced fan-in-2 tree
    (:data:`GOLDEN_TREE_OVERRIDES`), so the per-tag tables additionally pin
    the mid-tree hop traffic (the ``@h<level>`` tags).
    """
    if names is None:
        names = registry.registered_names(streaming=True)
    return communication_profile(
        names, config, pipeline_overrides=dict(GOLDEN_TREE_OVERRIDES)
    )


__all__ = [
    "GOLDEN_CONFIG",
    "GOLDEN_TREE_OVERRIDES",
    "communication_profile",
    "tree_communication_profile",
]
