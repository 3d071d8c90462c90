"""Layer spans for the traced run, installed from outside the program.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
the public entry points of each layer with wrappers that record a
:class:`Span` (name, layer, start, end, parent, job and step ids, the actor
-- source, aggregator or server -- that did the work) and a few counts, and
:meth:`Tracer.uninstall` puts the originals back, so traced and untraced
jobs can alternate in one process.  Functions that other modules import by
name (``check_matrix``, ``merge_coresets``, ...) are patched in every
``repro`` module that holds them.

Spans stay in memory; :func:`job_metrics` turns one job's spans into the
per-layer figures named in ``BENCHMARK.json``.  A layer's ``busy_s`` sums self
time: each span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional

_clock = time.perf_counter


class Span:
    """One call into a layer entry point."""

    __slots__ = ("id", "parent", "name", "layer", "start", "end", "child",
                 "job", "step", "actor", "level", "op", "layer_root",
                 "actor_root", "attrs")

    ROW = __slots__

    def to_row(self) -> list:
        return [getattr(self, key) for key in self.ROW]

    @classmethod
    def from_row(cls, row: list) -> "Span":
        span = cls()
        for key, value in zip(cls.ROW, row):
            setattr(span, key, value)
        return span


class Patcher:
    """Attribute replacement with exact undo."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def replace_everywhere(self, original, new) -> None:
        """Swap ``original`` for ``new`` in every loaded ``repro`` module."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


class Tracer:
    """In-memory span recorder; one per process.

    ``role`` is ``"client"`` for the benchmark process and ``"daemon"`` for
    the serve launcher (frame bytes are counted on the client side only).
    """

    def __init__(self, role: str = "client") -> None:
        self.role = role
        self.spans: List[Span] = []
        self.counters: Dict[int, Counter] = defaultdict(Counter)
        self.networks: Dict[int, dict] = defaultdict(dict)
        self.job = 0
        self.request_op: Optional[str] = None
        self._stack: List[Span] = []
        self._next_id = 0
        self._patcher = Patcher()

    # ----------------------------------------------------------- recording
    def open(self, name, layer, actor=None, step=None, level=None) -> Span:
        span = Span()
        parent = self._stack[-1] if self._stack else None
        span.id = self._next_id
        self._next_id += 1
        span.name, span.layer = name, layer
        span.job, span.op, span.attrs, span.child = self.job, self.request_op, None, 0.0
        if parent is None:
            span.parent = None
            span.layer_root = True
            span.actor_root = actor is not None
        else:
            span.parent = parent.id
            span.layer_root = parent.layer != layer
            span.actor_root = actor is not None and actor != parent.actor
            if actor is None:
                actor, level = parent.actor, parent.level
            if step is None:
                step = parent.step
        span.actor, span.step, span.level = actor, step, level
        self._stack.append(span)
        span.start = _clock()
        return span

    def close(self, span: Span) -> None:
        span.end = _clock()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += span.end - span.start
        self.spans.append(span)

    def inside(self, name: str) -> bool:
        return any(span.name == name for span in self._stack)

    def count(self, key: str, value: float = 1) -> None:
        self.counters[self.job][key] += value

    def watch_network(self, network) -> None:
        self.networks[self.job][id(network)] = network

    # -------------------------------------------------------- installation
    def wrap(self, fn: Callable, name: str, layer: str, bind=None,
             before=None, after=None) -> Callable:
        """A traced stand-in for ``fn``.

        ``bind(args, kwargs) -> (actor, step, level)`` names who works,
        ``before(args, kwargs) -> state`` snapshots what ``after(span, state,
        args, kwargs, result)`` needs to attach counts to the span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            actor = step = level = None
            if bind is not None:
                actor, step, level = bind(args, kwargs)
            state = before(args, kwargs) if before is not None else None
            span = tracer.open(name, layer, actor, step, level)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, state, args, kwargs, result)
            return result

        return traced

    def hook(self, owner, attr: str, name: str, layer: str, **hooks) -> None:
        self._patcher.replace(owner, attr, self.wrap(owner.__dict__[attr], name,
                                                     layer, **hooks))

    def hook_everywhere(self, fn: Callable, name: str, layer: str, **hooks) -> None:
        self.replace_everywhere(fn, self.wrap(fn, name, layer, **hooks))

    def replace_everywhere(self, original: Callable, new: Callable) -> None:
        self._patcher.replace_everywhere(original, new)

    def counter_hook(self, owner, attr: str, on_call: Callable) -> None:
        """Count without a span: ``on_call(args, result)`` runs after every
        call, failed ones included (``result`` is then ``None``)."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                on_call(args, result)

        self._patcher.replace(owner, attr, counted)

    def uninstall(self) -> None:
        self._patcher.restore()


def _set_attr(span: Span, key: str, value: float) -> None:
    if span.attrs is None:
        span.attrs = {}
    span.attrs[key] = span.attrs.get(key, 0) + value


def _subclasses(cls) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


#: Layer of each stage class (stages whose module does not say it).
_STAGE_LAYERS = {"SharedJLStage": "dr", "BKLWStage": "cr",
                 "RawGatherStage": "distributed"}
_STAGE_MODULE_LAYERS = {"repro.stages.dr": "dr", "repro.stages.cr": "cr",
                        "repro.stages.qt": "quantization"}
#: Layer of the work each edge-node method does; the ``distributed.*``
#: metrics are the per-node view over all of them.
_NODE_METHOD_LAYERS = {
    "apply_jl": "dr", "local_svd": "dr", "project_onto": "dr",
    "global_svd": "dr", "local_bicriteria": "kmeans.bicriteria",
    "local_sensitivity_sample": "cr", "allocate_sample_sizes": "cr",
    "merged_coreset": "cr", "quantize": "quantization",
    "solve_kmeans": "kmeans.solve", "send_to_server": "network",
    "send_to_source": "network",
}


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer entry point in the loaded ``repro`` package."""
    import repro.cli  # noqa: F401  - loads every module that imports by name
    from repro.cr.coreset import Coreset, merge_coresets
    from repro.distributed.network import SimulatedNetwork
    from repro.distributed.node import DataSourceNode
    from repro.distributed.server import EdgeServer
    from repro.kmeans.bicriteria import bicriteria_approximation
    from repro.kmeans.lloyd import WeightedKMeans
    from repro.quantization.rounding import IdentityQuantizer, RoundingQuantizer
    from repro.serve import protocol
    from repro.serve.client import ServeClient, ServeSource
    from repro.serve.daemon import ServeDaemon
    from repro.stages.base import Stage
    from repro.stages.distributed import DistributedStage
    from repro.streaming.server import StreamingServer
    from repro.streaming.source import StreamingSource
    from repro.streaming.tree import CoresetTree
    from repro.topology.aggregator import AggregatorNode
    from repro.topology.router import TopologyRouter
    from repro.utils.validation import check_matrix, check_weights

    t = tracer

    # ---------------------------------------------------------- stages
    def lift_after(span, state, args, kwargs, effect):
        if effect.lift is not None:
            effect.lift = t.wrap(effect.lift, "engine.lift", "engine.lift")

    def cr_stage_after(span, state, args, kwargs, effect):
        lift_after(span, state, args, kwargs, effect)
        _set_attr(span, "points_in", args[1].cardinality)
        _set_attr(span, "points_out", effect.state.cardinality)

    for cls in _subclasses(Stage):
        if "apply_at_source" not in cls.__dict__:
            continue
        layer = _STAGE_LAYERS.get(cls.__name__) or _STAGE_MODULE_LAYERS.get(
            cls.__module__, "stages")
        t.hook(cls, "apply_at_source", f"stage.{cls.__name__}", layer,
               after=cr_stage_after if layer == "cr" else lift_after)

    def cluster_cr_after(span, state, args, kwargs, effect):
        lift_after(span, state, args, kwargs, effect)
        _set_attr(span, "points_in", args[1].total_cardinality)
        if effect.coreset is not None:
            _set_attr(span, "points_out", effect.coreset.size)

    for cls in _subclasses(DistributedStage):
        if "apply_to_cluster" not in cls.__dict__:
            continue
        layer = _STAGE_LAYERS.get(cls.__name__, "distributed")
        t.hook(cls, "apply_to_cluster", f"stage.{cls.__name__}", layer,
               after=cluster_cr_after if layer == "cr" else lift_after)

    # ------------------------------------------------- nodes and server
    def node_bind(args, kwargs):
        node = args[0]
        return node.node_id, node.network.round, None

    def server_bind(args, kwargs):
        return "server", args[0].network.round, None

    for cls, prefix, bind in ((DataSourceNode, "distributed.source", node_bind),
                              (EdgeServer, "distributed.server", server_bind)):
        for attr, value in list(cls.__dict__.items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            t.hook(cls, attr, f"{prefix}.{attr}",
                   _NODE_METHOD_LAYERS.get(attr, "distributed"), bind=bind)

    # ---------------------------------------------------------- network
    def net_before(args, kwargs):
        log = args[0].log
        return len(log.messages), log.total_bits(uplink_only=False)

    def net_after(span, state, args, kwargs, result):
        network = args[0]
        t.watch_network(network)
        _set_attr(span, "messages", len(network.log.messages) - state[0])
        _set_attr(span, "bits", network.log.total_bits(uplink_only=False) - state[1])

    for attr in ("send", "send_many"):
        t.hook(SimulatedNetwork, attr, f"network.{attr}", "network",
               before=net_before, after=net_after)

    for cls in (RoundingQuantizer, IdentityQuantizer):
        t.hook(cls, "quantize", "quantization.quantize", "quantization")

    # -------------------------------------------------------- streaming
    def indexed_bind(position):
        """Actor and step of a call whose batch index is argument ``position``."""
        def bind(args, kwargs):
            index = args[position] if len(args) > position else kwargs["batch_index"]
            actor = args[0]
            return (getattr(actor, "source_id", None) or actor.agg_id, int(index),
                    getattr(actor, "level", None))
        return bind

    t.hook(StreamingSource, "compress", "streaming.source.compress",
           "streaming.source", bind=indexed_bind(2))
    t.hook(StreamingSource, "flush", "streaming.source.flush",
           "streaming.source", bind=indexed_bind(1))

    t.hook(CoresetTree, "insert", "streaming.tree.insert", "streaming.tree",
           before=lambda args, kwargs: args[0].merges,
           after=lambda span, merges, args, kwargs, result: _set_attr(
               span, "merges", args[0].merges - merges))

    def at_server(args, kwargs):
        return "server", None, None

    t.hook(StreamingServer, "fold", "streaming.server.fold", "streaming.server",
           bind=lambda args, kwargs: ("server", int(args[1].batch_index), None))
    t.hook(StreamingServer, "global_coreset", "streaming.server.merge",
           "streaming.server", bind=at_server,
           before=lambda args, kwargs: t.count(
               "merge.buckets", args[0].live_bucket_count))
    t.hook(StreamingServer, "query", "streaming.server.query",
           "streaming.server", bind=at_server)

    # Rows a server merge writes: every pairwise ``merged_with`` result, or
    # the merged coreset itself when ``merge_coresets`` copies in one go.
    def merged_with_counted(args, result):
        if result is not None and t.inside("streaming.server.merge"):
            t.count("merge.rows_copied", result.size)

    t.counter_hook(Coreset, "merged_with", merged_with_counted)

    @functools.wraps(merge_coresets)
    def counted_merge(coresets):
        coresets = list(coresets)
        before = t.counters[t.job]["merge.rows_copied"]
        merged = merge_coresets(coresets)
        if t.inside("streaming.server.merge"):
            t.count("merge.rows_merged", merged.size)
            copied = t.counters[t.job]["merge.rows_copied"] - before
            if not copied and len(coresets) > 1:
                t.count("merge.rows_copied", merged.size)
        return merged

    t.replace_everywhere(merge_coresets, counted_merge)

    # --------------------------------------------------------- topology
    t.hook(AggregatorNode, "fold", "topology.aggregator.fold", "topology",
           bind=lambda args, kwargs: (args[0].agg_id, int(args[1].batch_index),
                                      args[0].level))
    t.hook(AggregatorNode, "emit", "topology.aggregator.emit", "topology",
           bind=indexed_bind(1), before=lambda args, kwargs: args[0].merges,
           after=lambda span, merges, args, kwargs, result: _set_attr(
               span, "merges", args[0].merges - merges))
    t.hook(TopologyRouter, "deliver_step", "topology.router.deliver_step",
           "topology")

    # ----------------------------------------------------------- kmeans
    t.hook(WeightedKMeans, "fit", "kmeans.solve", "kmeans.solve",
           after=lambda span, state, args, kwargs, result: _set_attr(
               span, "iterations", result.iterations))
    t.hook_everywhere(bicriteria_approximation, "kmeans.bicriteria",
                      "kmeans.bicriteria")
    t.hook_everywhere(check_matrix, "validation.check_matrix", "validation")
    t.hook_everywhere(check_weights, "validation.check_weights", "validation")

    # ------------------------------------------------------------ serve
    t.hook_everywhere(protocol.encode_update, "serve.protocol.encode",
                      "serve.protocol")
    t.hook_everywhere(protocol.decode_update, "serve.protocol.decode",
                      "serve.protocol")

    def parse_after(span, state, args, kwargs, frame):
        if t.role == "daemon" and isinstance(frame, dict) and "op" in frame:
            t.request_op = span.op = str(frame["op"])

    t.hook(protocol, "parse_frame", "serve.protocol.parse", "serve.protocol",
           after=parse_after)
    if t.role == "client":
        t.counter_hook(protocol, "dump_frame", lambda args, frame: t.count(
            "serve.protocol.bytes_out", len(frame or b"")))
    # ServeClient.call drops the connection after every failed attempt and
    # before each retry; no job closes its client otherwise.
    t.counter_hook(ServeClient, "close",
                   lambda args, r: t.count("serve.client.retries"))
    t.hook(ServeSource, "deliver", "serve.client.deliver", "serve.client")
    t.hook(ServeSource, "query", "serve.client.query", "serve.client")

    def snapshot_after(span, state, args, kwargs, path):
        if path is not None:
            _set_attr(span, "bytes", os.path.getsize(path))

    t.hook(ServeDaemon, "write_snapshot", "serve.snapshot", "serve.snapshot",
           after=snapshot_after)
    return tracer


# ------------------------------------------------------------------ analysis
def _role_of(actor: Optional[str]) -> Optional[str]:
    if actor is None:
        return None
    if actor.startswith("source-"):
        return "source"
    if actor.startswith("agg-"):
        return "aggregator"
    return "server"


def job_metrics(spans: List[Span], counters: Counter, wall: float, sim_s: float,
                retransmissions: float,
                daemon_spans: Iterable[Span] = ()) -> Dict[str, float]:
    """The per-layer figures of one traced job.

    ``spans`` are the job's in-process spans, ``daemon_spans`` those the
    serve daemon recorded during the same session; ``wall`` is the traced
    job's wall time and ``sim_s`` / ``retransmissions`` come from the job's
    simulated networks.
    """
    daemon_spans = list(daemon_spans)
    calls: Counter = Counter()
    busy: Dict[str, float] = defaultdict(float)
    name_calls: Counter = Counter()
    name_self: Dict[str, float] = defaultdict(float)
    name_total: Dict[str, float] = defaultdict(float)
    attrs: Dict[str, float] = defaultdict(float)
    for span in spans + daemon_spans:
        self_time = span.end - span.start - span.child
        busy[span.layer] += self_time
        calls[span.layer] += span.layer_root
        name_calls[span.name] += 1
        name_self[span.name] += self_time
        name_total[span.name] += span.end - span.start
        for key, value in (span.attrs or {}).items():
            attrs[f"{span.layer}.{key}"] += value

    # Per-actor inclusive time of the calls each actor made on its own
    # behalf (outermost span per actor), in-process only.
    per_actor: Dict[str, float] = defaultdict(float)
    per_node: Dict[str, float] = defaultdict(float)
    compress: Dict[str, float] = defaultdict(float)
    per_step: Dict[tuple, float] = defaultdict(float)
    server_side = 0.0
    for span in spans:
        if not span.actor_root:
            continue
        role = _role_of(span.actor)
        duration = span.end - span.start
        if span.name.startswith("distributed.server."):
            server_side += duration
        if role == "server":
            continue
        per_actor[span.actor] += duration
        per_step[(role, span.step, span.level, span.actor)] += duration
        if span.name.startswith("distributed.source."):
            per_node[span.actor] += duration
        if span.name == "streaming.source.compress":
            compress[span.actor] += duration

    # Deployment view: per step the slowest source, then the slowest
    # aggregator of every tree level, then everything else (server and
    # engine work, which the simulation runs serially), plus wire time.
    slowest: Dict[tuple, float] = defaultdict(float)
    for (role, step, level, _actor), seconds in per_step.items():
        key = (role, step, level)
        slowest[key] = max(slowest[key], seconds)
    edge = sum(per_actor.values())
    critical = sum(slowest.values()) + max(wall - edge, 0.0) + sim_s

    aggregators = [s for a, s in per_actor.items() if _role_of(a) == "aggregator"]
    c = counters
    rows_merged = c["merge.rows_merged"]
    daemon_fold = sum(span.end - span.start for span in daemon_spans
                      if span.parent is None and span.op == "fold")
    return {
        "dr.calls": calls["dr"], "dr.busy_s": busy["dr"],
        "cr.calls": calls["cr"], "cr.busy_s": busy["cr"],
        "cr.points_in": attrs["cr.points_in"],
        "cr.points_out": attrs["cr.points_out"],
        "kmeans.bicriteria.calls": calls["kmeans.bicriteria"],
        "kmeans.bicriteria.busy_s": busy["kmeans.bicriteria"],
        "kmeans.solve.calls": name_calls["kmeans.solve"],
        "kmeans.solve.busy_s": busy["kmeans.solve"],
        "kmeans.solve.iterations": attrs["kmeans.solve.iterations"],
        "quantization.calls": calls["quantization"],
        "quantization.busy_s": busy["quantization"],
        "validation.calls": calls["validation"],
        "validation.busy_s": busy["validation"],
        "network.sends": name_calls["network.send"] + name_calls["network.send_many"],
        "network.messages": attrs["network.messages"],
        "network.bits": attrs["network.bits"],
        "network.busy_s": busy["network"],
        "network.sim_s": sim_s,
        "network.retransmissions": retransmissions,
        "distributed.source.max_s": max(per_node.values(), default=0.0),
        "distributed.source.total_s": sum(per_node.values()),
        "distributed.server.busy_s": server_side,
        "streaming.source.compress.calls": name_calls["streaming.source.compress"],
        "streaming.source.compress.busy_s": name_self["streaming.source.compress"],
        "streaming.source.compress.max_s": max(compress.values(), default=0.0),
        "streaming.source.flush.busy_s": name_self["streaming.source.flush"],
        "streaming.tree.merges": attrs["streaming.tree.merges"],
        "streaming.tree.busy_s": busy["streaming.tree"],
        "streaming.server.fold.calls": name_calls["streaming.server.fold"],
        "streaming.server.fold.busy_s": name_self["streaming.server.fold"],
        "streaming.server.merge.calls": name_calls["streaming.server.merge"],
        "streaming.server.merge.busy_s": name_self["streaming.server.merge"],
        "streaming.server.merge.buckets": c["merge.buckets"],
        "streaming.server.merge.rows_copied": c["merge.rows_copied"],
        "streaming.server.merge.copy_ratio":
            c["merge.rows_copied"] / rows_merged if rows_merged else 0.0,
        "streaming.server.query.calls": name_calls["streaming.server.query"],
        "streaming.server.query.busy_s": name_self["streaming.server.query"],
        "topology.folds": name_calls["topology.aggregator.fold"],
        "topology.emits": name_calls["topology.aggregator.emit"],
        "topology.merges": attrs["topology.merges"],
        "topology.busy_s": busy["topology"],
        "topology.max_s": max(aggregators, default=0.0),
        "serve.snapshot.writes": name_calls["serve.snapshot"],
        "serve.snapshot.busy_s": name_self["serve.snapshot"],
        "serve.snapshot.bytes": attrs["serve.snapshot.bytes"],
        "serve.protocol.bytes_out": c["serve.protocol.bytes_out"],
        "serve.protocol.encode_s": name_self["serve.protocol.encode"],
        "serve.protocol.decode_s": name_self["serve.protocol.decode"],
        "serve.transport_s":
            max(name_total["serve.client.deliver"] - daemon_fold, 0.0)
            if name_calls["serve.client.deliver"] else 0.0,
        "serve.client.retries": c["serve.client.retries"],
        "engine.lift.calls": calls["engine.lift"],
        "engine.lift.busy_s": busy["engine.lift"],
        "critical_path_s": critical,
    }


def self_time_total(spans: Iterable[Span]) -> float:
    """Sum of self times: never more than the wall time the spans cover."""
    return sum(span.end - span.start - span.child for span in spans)


def median_metrics(per_job: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(job[key] for job in per_job)
            for key in per_job[0]}


def write_spans(path, spans: Iterable[Span]) -> None:
    import json

    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(list(Span.ROW)) + "\n")
        for span in spans:
            handle.write(json.dumps(span.to_row(), separators=(",", ":")) + "\n")


def read_spans(path) -> List[Span]:
    import json

    with open(path, "r", encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        if header != list(Span.ROW):
            raise ValueError(f"{path}: unexpected span layout {header}")
        return [Span.from_row(json.loads(line)) for line in handle]
