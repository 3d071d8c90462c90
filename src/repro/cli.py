"""Command-line interface: declarative experiment runs, sweeps, and reports.

The CLI is built on the typed spec layer (:mod:`repro.api`): every
invocation — subcommand or legacy flat flags — constructs an
:class:`~repro.api.ExperimentSpec` and executes it through the experiment
harness, so flag runs, spec-file runs, and programmatic runs are
bit-identical.

Example invocations::

    repro run examples/specs/quickstart.toml          # spec-file run
    repro run spec.toml --runs 3 --store results/run.jsonl
    repro run --algorithm jl-fss --k 2 --quantize-bits 10
    repro sweep examples/specs/quantization_sweep.toml --store results/sweep.jsonl
    repro report results/sweep.jsonl --cdf normalized_cost
    repro stream --algorithm stream-fss --batch-size 512 --query-every 4
    repro serve --port 9009 --k 2 --snapshot results/serve.json
    repro serve --port 9009 --k 2 --restore results/serve.json   # after a crash
    repro client --port 9009 --algorithm stream-fss --batches 8 --query-every 4
    repro cache stats                                 # sweep stage cache
    repro cache gc --max-bytes 100000000
    repro sweep sweep.toml --store results/s.jsonl --resume   # after a crash
    repro store verify results/s.jsonl                # torn/corrupt check

    # legacy flat form (kept working via the spec adapter):
    python -m repro --dataset mnist --algorithm jl-fss-jl --k 2
    python -m repro --algorithm bklw --sources 10 --net-preset lossy --dropout 3:1
    python -m repro --list-algorithms

Algorithms are resolved through the pipeline registry
(:mod:`repro.core.registry`), so every registered stage composition — the
paper's eight algorithms plus the novel ones — is runnable here.  ``repro
run`` executes one experiment cell (Monte-Carlo repeated) and prints the
paper's three metrics; ``repro sweep`` expands an axis grid into cells with
paired seeds and a shared reference solution per (dataset, k), persisting
every cell to a JSONL result store; ``repro report`` renders stored records
as comparison tables and text CDFs.  The ``stream`` subcommand runs a
streaming composition over batched arrivals and prints the cost and
communication of every mid-stream query.

All experiment-shaped commands accept the unreliable-edge simulation flags
(``--net-preset``, ``--loss``, ``--retries``, ``--dropout``); degraded runs
report their participation, retransmissions, and simulated network time.
"""

from __future__ import annotations

import argparse
from typing import Any, Collection, Dict, Optional

from repro import api
from repro.core import registry
from repro.datasets import load_benchmark_dataset
from repro.distributed.conditions import FaultPlan, NetworkCondition
from repro.quantization.rounding import RoundingQuantizer


#: Where `repro sweep` keeps its stage cache unless --cache-dir overrides it
#: (beside the default result store, and ignored by git like the rest of
#: results/).
DEFAULT_CACHE_DIR = "results/stage_cache"


def _algorithms() -> Dict[str, tuple]:
    """CLI algorithm name -> (pipeline factory, is_multi_source)."""
    return {
        spec.name: (spec.factory, spec.multi_source)
        for spec in registry.registered_specs()
    }


#: Backwards-compatible view of the registry (kept because external callers
#: and the test suite introspect it).
ALGORITHMS = _algorithms()


def build_parser() -> argparse.ArgumentParser:
    """Create the legacy flat-flag argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Communication-efficient k-means for edge-based machine learning "
                    "(ICDCS 2020 reproduction).",
        epilog="Subcommands: `repro run <spec.toml|flags>` executes one "
               "declarative experiment spec; `repro sweep <sweep.toml>` "
               "expands an axis grid into paired cells and persists a JSONL "
               "result store; `repro report <store.jsonl>` renders stored "
               "records; `repro stream --help` runs a stream-* composition "
               "over batched arrivals.",
    )
    parser.add_argument("--list-algorithms", action="store_true",
                        help="print the registered compositions and exit")
    _add_experiment_arguments(parser)
    return parser


def _add_experiment_arguments(parser: argparse.ArgumentParser,
                              suppress_defaults: bool = False) -> None:
    """The flat experiment flags, shared by the legacy form and `repro run`.

    With ``suppress_defaults`` the parser records only flags the user
    actually typed (so spec-file values are not clobbered by defaults).
    """
    def default(value):
        return argparse.SUPPRESS if suppress_defaults else value

    parser.add_argument("--dataset", choices=("mnist", "neurips"),
                        default=default("mnist"),
                        help="synthetic benchmark dataset to generate")
    parser.add_argument("--n", type=int, default=default(None),
                        help="dataset cardinality override")
    parser.add_argument("--d", type=int, default=default(None),
                        help="dataset dimension override")
    parser.add_argument("--algorithm", choices=registry.registered_names(),
                        default=default("jl-fss-jl"),
                        help="registered pipeline composition to run")
    parser.add_argument("--k", type=int, default=default(2),
                        help="number of clusters")
    parser.add_argument("--runs", type=int, default=default(1),
                        help="Monte-Carlo repetitions")
    parser.add_argument("--sources", type=int, default=default(10),
                        help="number of data sources (multi-source algorithms only)")
    parser.add_argument("--strategy", choices=api.PARTITION_STRATEGIES,
                        default=default("random"),
                        help="shard partition strategy (multi-source algorithms)")
    parser.add_argument("--topology", choices=("star", "tree"),
                        default=default(None),
                        help="aggregation topology (streaming algorithms): "
                             "star = flat source->server fold (default), "
                             "tree = balanced aggregator tree")
    parser.add_argument("--fan-in", type=int, default=default(None),
                        help="children per aggregator for --topology tree "
                             "(implies --topology tree when given alone)")
    parser.add_argument("--coreset-size", type=int, default=default(300),
                        help="coreset cardinality (single-source algorithms)")
    parser.add_argument("--total-samples", type=int, default=default(300),
                        help="disSS global sample budget (multi-source algorithms)")
    parser.add_argument("--pca-rank", type=int, default=default(None),
                        help="PCA / disPCA rank t")
    parser.add_argument("--jl-dimension", type=int, default=default(None),
                        help="JL target dimension d'")
    parser.add_argument("--quantize-bits", type=int, default=default(None),
                        help="significant bits kept by the rounding quantizer (default: no quantization)")
    parser.add_argument("--jobs", type=int, default=default(None),
                        help="worker threads for per-source computation "
                             "(multi-source algorithms; 1 = sequential, "
                             "0 = all cores; results are identical either way)")
    parser.add_argument("--seed", type=int, default=default(0),
                        help="master random seed")
    _add_network_arguments(parser, suppress_defaults=suppress_defaults)


def _add_network_arguments(parser: argparse.ArgumentParser,
                           suppress_defaults: bool = False) -> None:
    """Unreliable-edge simulation flags shared by every experiment command."""
    def default(value):
        return argparse.SUPPRESS if suppress_defaults else value

    group = parser.add_argument_group("network simulation")
    group.add_argument("--net-preset", choices=registry.network_preset_names(),
                       default=default("ideal"),
                       help="simulated network condition preset (default: ideal, "
                            "the loss-free wire)")
    group.add_argument("--loss", type=float, default=default(None),
                       help="override the per-message Bernoulli loss probability "
                            "of every link (0 <= loss < 1)")
    group.add_argument("--retries", type=int, default=default(None),
                       help="override the per-message retransmission budget "
                            "(every attempt is metered)")
    group.add_argument("--dropout", action="append", default=default(None),
                       metavar="SOURCE[:ROUND]",
                       help="drop source SOURCE (index) permanently at protocol "
                            "round / batch step ROUND (default 0); repeatable")


def _network_settings(args: argparse.Namespace) -> Dict[str, object]:
    """Resolve the network flags into create_pipeline keyword arguments."""
    return _network_spec_from_args(args).to_kwargs(getattr(args, "seed", 0))


def _network_spec_from_args(args: argparse.Namespace) -> api.NetworkSpec:
    try:
        return api.NetworkSpec(
            preset=getattr(args, "net_preset", "ideal"),
            loss=getattr(args, "loss", None),
            retries=getattr(args, "retries", None),
            dropout=tuple(getattr(args, "dropout", None) or ()),
        )
    except ValueError as exc:  # bad --loss / --dropout grammar etc.
        raise SystemExit(str(exc)) from None


def _print_degradation(report) -> None:
    """One status line for runs that saw losses or lost sources."""
    if report.failed_sources or report.messages_lost:
        print(f"degraded run: {report.participating_sources} participating, "
              f"{report.failed_sources} failed source(s), "
              f"{report.retransmissions} retransmissions, "
              f"{report.messages_lost} lost messages, "
              f"{report.simulated_network_seconds:.3f}s simulated network time")


def list_algorithms() -> str:
    """Human-readable table of registered compositions."""
    lines = []
    for spec in registry.registered_specs():
        if spec.streaming:
            kind = "stream"
        elif spec.multi_source:
            kind = "multi "
        else:
            kind = "single"
        flag = " [novel]" if spec.novel else ""
        lines.append(f"{spec.name:<18} {kind} {spec.description}{flag}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The flags → ExperimentSpec adapter (legacy flat form and `repro run` flags).
# ---------------------------------------------------------------------------

#: Flat experiment flags that are PipelineConfig knobs (argparse derives the
#: attribute names from the flags, so flag attr == knob name).
_FLAG_KNOBS = (
    "coreset_size", "total_samples", "pca_rank", "jl_dimension",
    "quantize_bits", "jobs",
)


def experiment_spec_from_args(
    args: argparse.Namespace,
    typed: Collection[str] = frozenset(),
) -> api.ExperimentSpec:
    """The thin legacy adapter: flat CLI flags → typed ExperimentSpec.

    Knob flags that the chosen algorithm's kind does not accept are dropped
    (the flat form always carries defaults for both kinds, e.g.
    ``--coreset-size`` *and* ``--total-samples``) — unless the user
    explicitly typed them (``typed``, the `repro run` path), in which case
    they reach PipelineConfig and fail eager validation instead of being
    silently ignored.
    """
    algorithm = args.algorithm
    accepted = set(registry.accepted_kwargs(algorithm))
    knobs: Dict[str, Any] = {}
    for knob in _FLAG_KNOBS:
        value = getattr(args, knob, None)
        if value is None:
            continue
        kwarg = "quantizer" if knob == "quantize_bits" else knob
        if kwarg in accepted or knob in typed:
            knobs[knob] = value
    kind = registry.factory_kind(algorithm)
    return api.ExperimentSpec(
        pipeline=api.PipelineConfig(algorithm=algorithm, k=args.k, **knobs),
        data=api.DataSpec(name=args.dataset, n=args.n, d=args.d),
        network=_network_spec_from_args(args),
        runs=getattr(args, "runs", 1),
        seed=args.seed,
        num_sources=args.sources if kind != "single-source" else None,
        strategy=getattr(args, "strategy", "random"),
        topology=_topology_spec_from_args(args),
    )


def _topology_spec_from_args(args: argparse.Namespace) -> Optional[api.TopologySpec]:
    """Resolve ``--topology`` / ``--fan-in`` (``--fan-in`` alone implies a
    tree; neither flag means "no topology section" — the flat star)."""
    kind = getattr(args, "topology", None)
    fan_in = getattr(args, "fan_in", None)
    if kind is None and fan_in is None:
        return None
    if kind is None:
        kind = "tree"
    return api.TopologySpec(kind=kind, fan_in=fan_in)


def _execute_spec(spec: api.ExperimentSpec,
                  store_path: Optional[str] = None) -> Dict[str, float]:
    """Run one experiment spec, print the paper's metrics, and return the
    summary row (shared by the legacy flat form and `repro run`)."""
    points, dataset = spec.data.load(spec.seed)
    print(f"dataset: {dataset.name} (n={dataset.n}, d={dataset.d}), "
          f"algorithm: {spec.pipeline.algorithm}, k={spec.pipeline.k}, "
          f"runs={spec.runs}")

    outcome = api.run_experiment(spec, points=points, dataset=dataset)
    summary = outcome.summary
    row = {
        "normalized_cost": summary.mean_normalized_cost,
        "normalized_communication": summary.mean_normalized_communication,
        "source_seconds": summary.mean_source_seconds,
        "runs": float(summary.runs),
        "mean_participating_sources": summary.mean_participating_sources,
        "total_retransmissions": float(summary.total_retransmissions),
    }
    print(f"normalized k-means cost : {row['normalized_cost']:.4f}")
    print(f"normalized communication: {row['normalized_communication']:.6f}")
    print(f"source running time (s) : {row['source_seconds']:.3f}")
    if summary.total_failed_sources or summary.total_messages_lost:
        print(f"degraded runs: mean participation "
              f"{summary.mean_participating_sources:.2f}, "
              f"{summary.total_failed_sources} failed source(s), "
              f"{summary.total_retransmissions} retransmissions, "
              f"{summary.total_messages_lost} lost messages, "
              f"{summary.mean_simulated_network_seconds:.3f}s mean simulated "
              f"network time")
    if store_path:
        try:
            record = api.ResultStore(store_path).append(outcome.to_record())
        except OSError as exc:
            raise SystemExit(f"cannot write store {store_path}: {exc}") from None
        print(f"stored run record {record.spec_hash} -> {store_path}")
    return row


def run(args: argparse.Namespace) -> Dict[str, float]:
    """Execute the experiment described by legacy flat arguments.

    Returns the summary row (also printed) so programmatic callers and tests
    can inspect it.
    """
    return _execute_spec(experiment_spec_from_args(args))


# ---------------------------------------------------------------------------
# `repro run`: spec-file (or flag-built) single experiment.
# ---------------------------------------------------------------------------

def build_run_parser() -> argparse.ArgumentParser:
    """Argument parser of ``repro run`` (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro run",
        description="Run one declarative experiment: from a .toml/.json spec "
                    "file, from flat flags, or from a spec file with flag "
                    "overrides on top.",
    )
    parser.add_argument("spec", nargs="?", default=None,
                        help="experiment spec file (.toml or .json); omit to "
                             "build the spec from flags")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="append the run record to this JSONL result store")
    _add_experiment_arguments(parser, suppress_defaults=True)
    return parser


#: `repro run` flag attribute → spec override axis (see repro.api.axis_names).
_OVERRIDE_AXES = (
    ("dataset", "dataset"), ("n", "n"), ("d", "d"),
    ("algorithm", "algorithm"), ("k", "k"), ("runs", "runs"),
    ("sources", "num_sources"), ("strategy", "strategy"),
    ("coreset_size", "coreset_size"), ("total_samples", "total_samples"),
    ("pca_rank", "pca_rank"), ("jl_dimension", "jl_dimension"),
    ("quantize_bits", "quantize_bits"), ("jobs", "jobs"), ("seed", "seed"),
    ("net_preset", "net"), ("loss", "loss"), ("retries", "retries"),
    ("dropout", "dropout"),
    ("topology", "topology"), ("fan_in", "fan_in"),
)


def _load_spec_or_exit(path: str):
    """Resolve a spec file, converting ordinary user mistakes (missing
    file, malformed TOML/JSON, invalid spec values) into a clean one-line
    CLI error instead of a traceback."""
    try:
        return api.load_spec(path)
    except OSError as exc:
        raise SystemExit(f"cannot read spec file {path}: {exc}") from None
    except ValueError as exc:  # covers TOML/JSON decode + spec validation
        raise SystemExit(f"invalid spec {path}: {exc}") from None
    except RuntimeError as exc:  # TOML specs on Python < 3.11 (no tomllib)
        raise SystemExit(f"cannot load spec {path}: {exc}") from None


def run_spec(args: argparse.Namespace) -> Dict[str, float]:
    """Execute ``repro run``: resolve the spec, apply overrides, run."""
    if args.spec is not None:
        loaded = _load_spec_or_exit(args.spec)
        if isinstance(loaded, api.SweepSpec):
            raise SystemExit(
                f"{args.spec} is a sweep spec; run it with `repro sweep {args.spec}`"
            )
        overrides = {
            axis: tuple(getattr(args, attr)) if attr == "dropout" else getattr(args, attr)
            for attr, axis in _OVERRIDE_AXES
            if hasattr(args, attr) and getattr(args, attr) is not None
        }
        try:
            spec = api.apply_axis_overrides(loaded, overrides) if overrides else loaded
        except ValueError as exc:
            raise SystemExit(f"invalid override for {args.spec}: {exc}") from None
    else:
        defaults = build_parser().parse_args([])
        merged = vars(defaults).copy()
        merged.update(vars(args))
        try:
            # vars(args) holds only the flags the user typed (SUPPRESS
            # defaults), so kind-foreign knobs among them raise.
            spec = experiment_spec_from_args(
                argparse.Namespace(**merged), typed=set(vars(args))
            )
        except ValueError as exc:
            raise SystemExit(f"invalid experiment flags: {exc}") from None
    return _execute_spec(spec, store_path=args.store)


# ---------------------------------------------------------------------------
# `repro sweep`: expand an axis grid, run every cell, persist the store.
# ---------------------------------------------------------------------------

def build_sweep_parser() -> argparse.ArgumentParser:
    """Argument parser of ``repro sweep`` (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Expand a sweep spec into its full cell grid (paired "
                    "Monte-Carlo seeds, one shared reference solution per "
                    "dataset × k) and run every cell.",
    )
    parser.add_argument("spec", help="sweep spec file (.toml or .json)")
    parser.add_argument("--store", default="results/sweep.jsonl", metavar="PATH",
                        help="JSONL result store to append cell records to "
                             "(default: results/sweep.jsonl; pass '' to skip "
                             "persistence)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="cells executed concurrently (1 = sequential, "
                             "0 = all cores; results are identical either way)")
    parser.add_argument("--cache", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="memoize stage outputs and reference solutions "
                             "in a content-addressed cache so repeated "
                             "prefixes cost nothing; results are bit-identical "
                             "either way (default: on)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
                        help=f"stage cache directory (default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--resume", action="store_true",
                        help="skip cells already committed to --store (a "
                             "crashed or aborted sweep continues where it "
                             "stopped; the finished store is identical to an "
                             "uncrashed run's)")
    parser.add_argument("--max-failures", type=int, default=0, metavar="N",
                        help="tolerate up to N failing cells (captured with "
                             "their traceback in the sweep journal and shown "
                             "as [failed] rows) before aborting (default: 0)")
    return parser


def run_sweep(args: argparse.Namespace) -> Dict[str, float]:
    """Execute ``repro sweep`` and print the comparison table."""
    loaded = _load_spec_or_exit(args.spec)
    if isinstance(loaded, api.ExperimentSpec):
        loaded = api.SweepSpec(base=loaded)  # a degenerate 1-cell sweep
    try:
        # Expansion validates every cell's spec; surface bad axis/base
        # combinations as a clean error before any cell runs.
        loaded.cells()
    except ValueError as exc:
        raise SystemExit(f"invalid sweep {args.spec}: {exc}") from None
    print(f"sweep: {loaded.cell_count()} cell(s) over "
          f"{len(loaded.axes)} axis/axes "
          f"({', '.join(name for name, _ in loaded.axes) or 'none'})")
    store = api.ResultStore(args.store) if args.store else None
    resume = getattr(args, "resume", False)
    if resume and store is None:
        raise SystemExit("--resume needs a result store; pass --store PATH")
    cache = api.StageCache(args.cache_dir) if getattr(args, "cache", False) else None
    try:
        outcomes = api.run_sweep(
            loaded, jobs=args.jobs, store=store, cache=cache,
            resume=resume, max_failures=getattr(args, "max_failures", 0),
        )
    except OSError as exc:
        raise SystemExit(f"cannot write results: {exc}") from None
    print(api.compare_outcomes(outcomes))
    restored = sum(1 for o in outcomes if getattr(o, "restored", False))
    failed = [o for o in outcomes if isinstance(o, api.FailedCell)]
    if resume and restored:
        print(f"resumed: {restored}/{len(outcomes)} cell(s) already in "
              f"{store.path}, {len(outcomes) - restored} executed")
    if failed:
        print(f"{len(failed)} cell(s) failed (tracebacks in "
              f"{api.SweepJournal.for_store(store.path).path if store else 'the sweep journal'}): "
              + ", ".join(o.cell_id or o.label for o in failed))
    if cache is not None:
        counters = cache.counters
        cells_hit = sum(1 for o in outcomes if o.cache_stats.get("hits"))
        print(f"stage cache [{args.cache_dir}]: {counters.hits} hit(s), "
              f"{counters.misses} miss(es) "
              f"({counters.hit_rate:.0%} hit rate; {cells_hit}/{len(outcomes)} "
              f"cell(s) reused cached stages)")
    if store is not None:
        stored = len(outcomes) - len(failed)
        print(f"stored {stored} run record(s) -> {store.path}")
    return {"cells": float(len(outcomes)), "failed": float(len(failed)),
            "restored": float(restored)}


# ---------------------------------------------------------------------------
# `repro report`: tables and text CDFs over a persisted result store.
# ---------------------------------------------------------------------------

def build_report_parser() -> argparse.ArgumentParser:
    """Argument parser of ``repro report`` (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro report",
        description="Render a persisted JSONL result store: comparison "
                    "tables of aggregate metrics, and per-cell empirical "
                    "CDFs of per-run metrics.",
    )
    parser.add_argument("store", help="JSONL result store written by "
                                      "`repro run --store` / `repro sweep`")
    parser.add_argument("--metrics", default=",".join(api.DEFAULT_COMPARE_METRICS),
                        help="comma-separated aggregate (AlgorithmSummary) "
                             "columns for the table")
    parser.add_argument("--cdf", default=None, metavar="METRIC",
                        help="also print the per-cell empirical CDF of one "
                             "per-run metric (e.g. normalized_cost)")
    parser.add_argument("--algorithm", default=None,
                        help="only report records of this algorithm")
    return parser


def run_report(args: argparse.Namespace) -> Dict[str, float]:
    """Execute ``repro report``."""
    from repro.metrics.experiment import empirical_cdf

    store = api.ResultStore(args.store)
    records = (store.filter(algorithm=args.algorithm)
               if args.algorithm else store.load())
    if not records:
        print(f"no records in {args.store}")
        return {"records": 0.0}
    metrics = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    try:
        print(api.compare_records(records, metrics))
    except KeyError as exc:  # unknown --metrics name, with the valid set
        raise SystemExit(exc.args[0]) from None
    if args.cdf:
        metric = args.cdf
        print(f"\nempirical CDF of per-run {metric}:")
        for record in records:
            label = record.cell_id or record.algorithm
            samples = [e.get(metric) for e in record.evaluations]
            if not samples:
                print(f"  {label}: (no per-run evaluations recorded)")
                continue
            if any(not isinstance(s, (int, float)) for s in samples):
                available = sorted(
                    key for key, value in record.evaluations[0].items()
                    if isinstance(value, (int, float))
                )
                raise SystemExit(
                    f"metric {metric!r} is not a numeric per-run metric for "
                    f"{label}; available: {', '.join(available)}"
                )
            values, fractions = empirical_cdf(samples)
            steps = " ".join(
                f"{value:.4f}@{fraction:.2f}"
                for value, fraction in zip(values, fractions)
            )
            print(f"  {label}: {steps}")
    return {"records": float(len(records))}


# ---------------------------------------------------------------------------
# `repro cache`: inspect and prune the sweep stage cache.
# ---------------------------------------------------------------------------

def build_cache_parser() -> argparse.ArgumentParser:
    """Argument parser of ``repro cache`` (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect or prune the content-addressed stage cache "
                    "written by `repro sweep`.",
    )
    parser.add_argument("action", choices=("stats", "gc"),
                        help="stats: print entry count and size; gc: evict "
                             "oldest entries down to --max-bytes")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
                        help=f"stage cache directory (default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--max-bytes", type=int, default=0, metavar="N",
                        help="gc: cache size to shrink to, oldest entries "
                             "first (default 0: remove every entry)")
    return parser


def run_cache(args: argparse.Namespace) -> Dict[str, float]:
    """Execute ``repro cache stats|gc``."""
    cache = api.StageCache(args.cache_dir)
    if args.action == "gc":
        if args.max_bytes < 0:
            raise SystemExit("--max-bytes must be >= 0")
        removed, freed = cache.gc(args.max_bytes)
        print(f"evicted {removed} entr{'y' if removed == 1 else 'ies'} "
              f"({freed} bytes) from {args.cache_dir}")
    stats = cache.stats()
    print(f"stage cache [{stats.directory}]: {stats.entries} "
          f"entr{'y' if stats.entries == 1 else 'ies'}, "
          f"{stats.total_bytes} bytes")
    return {"entries": float(stats.entries), "bytes": float(stats.total_bytes)}


# ---------------------------------------------------------------------------
# `repro store`: diagnose and repair a JSONL result store.
# ---------------------------------------------------------------------------

def build_store_parser() -> argparse.ArgumentParser:
    """Argument parser of ``repro store`` (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro store",
        description="Diagnose or repair a JSONL result store: verify reports "
                    "torn trailing lines (crashed appends) and corrupt "
                    "records without modifying the file; repair heals the "
                    "tail and quarantines corrupt lines into "
                    "<store>.corrupt.",
    )
    parser.add_argument("action", choices=("verify", "repair"),
                        help="verify: non-mutating diagnosis (exit 1 when "
                             "unhealthy); repair: heal the torn tail and "
                             "quarantine corrupt lines")
    parser.add_argument("store", help="JSONL result store path")
    return parser


def run_store(args: argparse.Namespace) -> Dict[str, float]:
    """Execute ``repro store verify|repair``."""
    store = api.ResultStore(args.store)
    try:
        if args.action == "repair":
            kept, quarantined = store.repair()
            if quarantined:
                print(f"repaired {args.store}: kept {kept} record(s), "
                      f"quarantined {quarantined} line(s) -> {store.corrupt_path}")
            else:
                print(f"{args.store}: {kept} record(s), nothing to repair")
            return {"records": float(kept), "quarantined": float(quarantined)}
        check = store.verify()
    except OSError as exc:
        raise SystemExit(f"cannot access store {args.store}: {exc}") from None
    status = []
    if check.torn_tail:
        status.append("torn trailing line (crashed append; `repro store "
                      "repair` heals it)")
    if check.corrupt_lines:
        lines = ", ".join(str(n) for n in check.corrupt_lines)
        status.append(f"corrupt line(s) {lines}")
    print(f"{args.store}: {check.records} record(s)"
          + (", " + "; ".join(status) if status else ", ok"))
    if not check.ok:
        raise SystemExit(1)
    return {"records": float(check.records),
            "corrupt": float(len(check.corrupt_lines))}


# ---------------------------------------------------------------------------
# The `stream` subcommand: batched arrivals + continuous queries.
# ---------------------------------------------------------------------------

def build_stream_parser() -> argparse.ArgumentParser:
    """Argument parser of ``repro stream`` (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro stream",
        description="Streaming distributed k-means: sources ingest timestamped "
                    "batches into merge-and-reduce coreset trees; the server "
                    "answers queries at any point in the stream.",
    )
    parser.add_argument("--dataset", choices=("mnist", "neurips"), default="mnist",
                        help="synthetic benchmark dataset to stream")
    parser.add_argument("--n", type=int, default=None, help="dataset cardinality override")
    parser.add_argument("--d", type=int, default=None, help="dataset dimension override")
    parser.add_argument("--algorithm",
                        choices=registry.registered_names(streaming=True),
                        default="stream-fss",
                        help="registered streaming composition to run")
    parser.add_argument("--k", type=int, default=2, help="number of clusters")
    parser.add_argument("--sources", type=int, default=4,
                        help="number of concurrently streaming data sources")
    parser.add_argument("--topology", choices=("star", "tree"), default=None,
                        help="aggregation topology: star = flat source->server "
                             "fold (default), tree = balanced aggregator tree")
    parser.add_argument("--fan-in", type=int, default=None,
                        help="children per aggregator for --topology tree "
                             "(implies --topology tree when given alone)")
    parser.add_argument("--batch-size", type=int, default=512,
                        help="rows per timestamped batch")
    parser.add_argument("--window", type=int, default=None,
                        help="sliding window in batches (default: full prefix)")
    parser.add_argument("--query-every", type=int, default=None,
                        help="answer a k-means query every N batch steps "
                             "(default: only at end of stream)")
    parser.add_argument("--coreset-size", type=int, default=300,
                        help="per-bucket coreset cardinality")
    parser.add_argument("--pca-rank", type=int, default=None,
                        help="FSS intrinsic rank t")
    parser.add_argument("--jl-dimension", type=int, default=None,
                        help="JL target dimension d'")
    parser.add_argument("--quantize-bits", type=int, default=None,
                        help="significant bits kept by the rounding quantizer "
                             "(default: no quantization)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker threads for per-source batch compression "
                             "(1 = sequential, 0 = all cores; results are "
                             "identical either way)")
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    _add_network_arguments(parser)
    return parser


def run_stream(args: argparse.Namespace) -> Dict[str, float]:
    """Execute one streaming run and print the per-query trajectory.

    Returns the final-query summary row for programmatic callers and tests.
    """
    from repro.kmeans.cost import kmeans_cost
    from repro.metrics.evaluation import EvaluationContext, evaluate_report
    from repro.quantization.bits import DOUBLE_PRECISION_BITS

    if args.topology == "tree" and args.fan_in is None:
        raise SystemExit("--topology tree requires --fan-in")
    if args.topology == "star" and args.fan_in is not None:
        raise SystemExit("--fan-in applies only to --topology tree")
    points, spec = load_benchmark_dataset(args.dataset, n=args.n, d=args.d, seed=args.seed)
    quantizer: Optional[RoundingQuantizer] = None
    if args.quantize_bits is not None and args.quantize_bits < 53:
        quantizer = RoundingQuantizer(args.quantize_bits)
    try:
        # create_pipeline is strict by default: a knob the composition does
        # not accept is an error, not a silent drop.
        engine = registry.create_pipeline(
            args.algorithm,
            k=args.k,
            coreset_size=args.coreset_size,
            pca_rank=args.pca_rank,
            jl_dimension=args.jl_dimension,
            quantizer=quantizer,
            batch_size=args.batch_size,
            window=args.window,
            query_every=args.query_every,
            seed=args.seed,
            jobs=getattr(args, "jobs", None),
            topology=(
                "tree"
                if args.topology is None and args.fan_in is not None
                else args.topology
            ),
            fan_in=args.fan_in,
            **_network_settings(args),
        )
    except TypeError as exc:
        raise SystemExit(f"invalid flags for {args.algorithm}: {exc}") from None
    topology_note = (
        f", topology=tree(fan_in={args.fan_in})" if args.fan_in is not None else ""
    )
    print(f"dataset: {spec.name} (n={spec.n}, d={spec.d}), algorithm: {args.algorithm}, "
          f"k={args.k}, sources={args.sources}, batch={args.batch_size}, "
          f"window={engine.window if engine.window is not None else 'none'}"
          f"{topology_note}")

    report = engine.run_on_dataset(points, num_sources=args.sources, partition_seed=args.seed)

    context = EvaluationContext.build(points, args.k, seed=args.seed)
    raw_bits = DOUBLE_PRECISION_BITS * spec.n * spec.d
    print(f"{'step':>6} {'norm. cost':>12} {'norm. comm':>12} {'summary':>9} {'buckets':>9}")
    for query in report.queries:
        cost = kmeans_cost(points, query.centers)
        normalized = cost / context.reference_cost if context.reference_cost > 0 else float("inf")
        print(f"{query.time:>6} {normalized:>12.4f} "
              f"{query.windowed_bits / raw_bits:>12.6f} "
              f"{query.summary_cardinality:>9} {query.live_buckets:>9}")

    evaluation = evaluate_report(report, context)
    row = {
        "normalized_cost": evaluation.normalized_cost,
        "normalized_communication": evaluation.normalized_communication,
        "source_seconds": evaluation.source_seconds,
        "queries": float(len(report.queries)),
        "max_live_buckets": report.details["max_live_buckets"],
        "participating_sources": float(report.participating_sources),
    }
    print(f"final normalized k-means cost : {row['normalized_cost']:.4f}")
    print(f"final normalized communication: {row['normalized_communication']:.6f}")
    print(f"max live buckets per source   : {int(row['max_live_buckets'])}")
    _print_degradation(report)
    return row


# ---------------------------------------------------------------------------
# `repro serve`: the live clustering daemon (real transport, many clients).
# ---------------------------------------------------------------------------

def build_serve_parser() -> argparse.ArgumentParser:
    """Argument parser of ``repro serve`` (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the live clustering daemon: accept SourceUpdate "
                    "uplinks from concurrent clients over newline-delimited "
                    "JSON, fold them into per-tenant streaming servers, and "
                    "answer weighted k-means queries mid-stream.  Delivery "
                    "is at-least-once safe: duplicate or stale updates are "
                    "acked without changing state, gaps are typed rejections "
                    "the client replays from.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=9009,
                        help="TCP port (0 picks an ephemeral port; see "
                             "--port-file)")
    parser.add_argument("--port-file", default=None, metavar="PATH",
                        help="write the bound port here once listening "
                             "(how scripts find an ephemeral port)")
    parser.add_argument("--k", type=int, default=2, help="clusters per query")
    parser.add_argument("--n-init", type=int, default=5,
                        help="per-query k-means restarts")
    parser.add_argument("--max-iterations", type=int, default=100,
                        help="per-query Lloyd iteration cap")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed; each tenant's solver stream "
                             "derives from (seed, tenant)")
    parser.add_argument("--snapshot", default=None, metavar="PATH",
                        help="persist daemon state here: every registration, "
                             "applied fold and query is appended to the fold "
                             "log PATH.log before its ack, and the log is "
                             "compacted into this snapshot (atomically) at "
                             "start, when it grows as large as the snapshot, "
                             "and on graceful shutdown")
    parser.add_argument("--snapshot-every", type=int, default=1, metavar="N",
                        help="fsync the fold log at every Nth applied fold "
                             "(default 1: every acked fold is durable; "
                             "registrations and queries are always fsynced)")
    parser.add_argument("--restore", default=None, metavar="PATH",
                        help="before serving, restore tenant state from the "
                             "snapshot at PATH and replay its fold log "
                             "PATH.log")
    return parser


def run_serve(args: argparse.Namespace) -> Dict[str, float]:
    """Execute ``repro serve``: run the daemon until SIGTERM/SIGINT (or a
    protocol ``shutdown`` request), then persist a final snapshot."""
    import asyncio
    from pathlib import Path

    from repro.serve.daemon import ServeDaemon, load_snapshot

    try:
        daemon = ServeDaemon(
            k=args.k, n_init=args.n_init, max_iterations=args.max_iterations,
            seed=args.seed, host=args.host, port=args.port,
            snapshot_path=args.snapshot, snapshot_every=args.snapshot_every,
        )
    except ValueError as exc:
        raise SystemExit(f"invalid serve flags: {exc}") from None
    restored = 0
    if args.restore:
        try:
            state = load_snapshot(args.restore)
            daemon.restore_state(state)
        except OSError as exc:
            raise SystemExit(f"cannot read snapshot {args.restore}: {exc}") from None
        except (ValueError, KeyError, TypeError) as exc:
            raise SystemExit(f"invalid snapshot {args.restore}: {exc}") from None
        restored = len(daemon.tenant_names)

    def ready(host: str, port: int) -> None:
        print(f"repro serve: listening on {host}:{port} "
              f"(k={args.k}, {restored} tenant(s) restored)", flush=True)
        if args.port_file:
            Path(args.port_file).write_text(f"{port}\n")

    asyncio.run(daemon.run(ready=ready, install_signal_handlers=True))
    print(f"repro serve: stopped ({daemon.snapshot_writes} snapshot write(s))")
    return {"tenants": float(len(daemon.tenant_names)),
            "snapshot_writes": float(daemon.snapshot_writes)}


# ---------------------------------------------------------------------------
# `repro client`: stream one source's batches against a live daemon.
# ---------------------------------------------------------------------------

def build_client_parser() -> argparse.ArgumentParser:
    """Argument parser of ``repro client`` (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro client",
        description="Drive one streaming source against a live `repro "
                    "serve` daemon: compress batches locally with a "
                    "registered stream-* composition, uplink the bucket "
                    "deltas until acked, and query mid-stream.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="daemon address")
    parser.add_argument("--port", type=int, required=True, help="daemon port")
    parser.add_argument("--tenant", default="default",
                        help="tenant whose server folds this stream")
    parser.add_argument("--source-id", default="source-0",
                        help="this client's registered source identity")
    parser.add_argument("--dataset", choices=("mnist", "neurips"), default="mnist",
                        help="synthetic benchmark dataset to stream")
    parser.add_argument("--n", type=int, default=None, help="dataset cardinality override")
    parser.add_argument("--d", type=int, default=None, help="dataset dimension override")
    parser.add_argument("--algorithm",
                        choices=registry.registered_names(streaming=True),
                        default="stream-fss",
                        help="streaming composition applied to every batch")
    parser.add_argument("--k", type=int, default=2, help="number of clusters")
    parser.add_argument("--batch-size", type=int, default=512,
                        help="rows per uplinked batch")
    parser.add_argument("--batches", type=int, default=None,
                        help="stop after this many batches (default: stream "
                             "the whole dataset)")
    parser.add_argument("--coreset-size", type=int, default=300,
                        help="per-bucket coreset cardinality")
    parser.add_argument("--pca-rank", type=int, default=None,
                        help="FSS intrinsic rank t")
    parser.add_argument("--jl-dimension", type=int, default=None,
                        help="JL target dimension d'")
    parser.add_argument("--quantize-bits", type=int, default=None,
                        help="significant bits kept by the rounding quantizer")
    parser.add_argument("--window", type=int, default=None,
                        help="sliding window in batches")
    parser.add_argument("--query-every", type=int, default=None,
                        help="query the daemon every N delivered batches")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed (clients sharing a tenant must "
                             "share it so their DR maps agree)")
    parser.add_argument("--timeout", type=float, default=10.0,
                        help="per-request socket timeout in seconds")
    parser.add_argument("--retry-deadline", type=float, default=30.0,
                        help="keep retrying unacked folds for this many "
                             "seconds across reconnects")
    return parser


def run_client(args: argparse.Namespace) -> Dict[str, float]:
    """Execute ``repro client``: register, stream, deliver-until-acked."""
    from repro.datasets.streams import iter_batches
    from repro.serve.client import ServeClient, ServeError, ServeSource

    points, spec = load_benchmark_dataset(args.dataset, n=args.n, d=args.d,
                                          seed=args.seed)
    quantizer: Optional[RoundingQuantizer] = None
    if args.quantize_bits is not None and args.quantize_bits < 53:
        quantizer = RoundingQuantizer(args.quantize_bits)
    try:
        engine = registry.create_pipeline(
            args.algorithm,
            k=args.k,
            coreset_size=args.coreset_size,
            pca_rank=args.pca_rank,
            jl_dimension=args.jl_dimension,
            quantizer=quantizer,
            batch_size=args.batch_size,
            window=args.window,
            seed=args.seed,
        )
    except TypeError as exc:
        raise SystemExit(f"invalid flags for {args.algorithm}: {exc}") from None
    batches = list(iter_batches(points, args.batch_size))
    if args.batches is not None:
        batches = batches[: args.batches]
    if not batches:
        raise SystemExit("the dataset yielded no batches")
    source = engine.standalone_source(args.source_id, batches[0].shape)

    print(f"dataset: {spec.name} (n={spec.n}, d={spec.d}), "
          f"algorithm: {args.algorithm}, source: {args.source_id}, "
          f"tenant: {args.tenant}, batches: {len(batches)}")
    applied = duplicates = queries = 0
    try:
        with ServeClient(args.host, args.port, timeout=args.timeout,
                         retry_deadline=args.retry_deadline) as client:
            serve_source = ServeSource(source, client, tenant=args.tenant)
            watermark = serve_source.register()
            print(f"registered {args.source_id} (server watermark: {watermark})")
            for index, batch in enumerate(batches):
                ack = serve_source.ingest(batch, index)
                if ack["result"] == "applied":
                    applied += 1
                else:
                    duplicates += 1
                if (args.query_every is not None
                        and (index + 1) % args.query_every == 0):
                    queries += _print_query_row(serve_source, index)
            queries += _print_query_row(serve_source, len(batches) - 1,
                                             final=True)
    except ServeError as exc:
        raise SystemExit(f"server rejected the stream: {exc}") from None
    except (OSError, ConnectionError) as exc:
        raise SystemExit(f"cannot reach {args.host}:{args.port}: {exc}") from None
    print(f"delivered {applied + duplicates} update(s) "
          f"({applied} applied, {duplicates} duplicate ack(s)), "
          f"{queries} quer{'y' if queries == 1 else 'ies'}")
    return {"delivered": float(applied + duplicates),
            "applied": float(applied),
            "duplicates": float(duplicates),
            "queries": float(queries)}


def _print_query_row(serve_source, step: int, final: bool = False) -> int:
    """One mid-stream query printed as a trajectory row; returns 1 when the
    daemon answered, 0 when its summary is still empty (a clean one-liner
    instead of a stack trace)."""
    from repro.serve.client import ServeError

    try:
        answer = serve_source.query()
    except ServeError as exc:
        if exc.code == "empty-summary":
            print(f"step {step}: the server holds no summary yet")
            return 0
        raise
    label = "final query" if final else f"query@{step}"
    print(f"{label}: cost={answer['cost']:.4f} "
          f"summary={answer['summary_cardinality']} "
          f"buckets={answer['live_buckets']} "
          f"folded={answer['updates_folded']}")
    return 1


#: Subcommand name -> (parser builder, executor).
_SUBCOMMANDS = {
    "run": (build_run_parser, run_spec),
    "sweep": (build_sweep_parser, run_sweep),
    "report": (build_report_parser, run_report),
    "stream": (build_stream_parser, run_stream),
    "serve": (build_serve_parser, run_serve),
    "client": (build_client_parser, run_client),
    "cache": (build_cache_parser, run_cache),
    "store": (build_store_parser, run_store),
}


def main(argv=None) -> int:
    """Console entry point."""
    import sys

    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        build_subparser, execute = _SUBCOMMANDS[argv[0]]
        execute(build_subparser().parse_args(argv[1:]))
        return 0
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_algorithms:
        print(list_algorithms())
        return 0
    run(args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
