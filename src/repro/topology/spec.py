"""The :class:`Topology` spec: who folds into whom.

A topology is an immutable child → parent map over node identifiers:
sources are ``"source-<i>"``, mid-tree aggregators are
``"agg-<level>-<index>"``, and the root parent is always the server.  The
constructors guarantee a deterministic shape for a given ``(num_sources,
fan_in, depth)`` — source ``i`` always lands on aggregator ``i // fan_in``
of the first layer, and so on upward — so a fixed (topology, seed) pair
reproduces bit-identical runs.

The star is the degenerate tree with no aggregators; the streaming engine
routes it through the same :class:`~repro.topology.router.TopologyRouter`
as any tree, with every source folding straight into the server.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.distributed.conditions import AGGREGATOR_PREFIX, SERVER_ID
from repro.utils.validation import check_positive_int


def is_aggregator_id(node_id: str) -> bool:
    """True for mid-tree aggregator identifiers (``"agg-..."``)."""
    return str(node_id).startswith(AGGREGATOR_PREFIX)


def source_id(index: int) -> str:
    """Canonical identifier of source ``index`` (``"source-<i>"``)."""
    return f"source-{int(index)}"


def _sort_key(node_id: str) -> Tuple:
    """Natural sort: numeric components compare numerically."""
    parts = node_id.split("-")
    return tuple(int(p) if p.isdigit() else p for p in parts)


class Topology:
    """An immutable aggregation topology over ``num_sources`` sources.

    Parameters
    ----------
    parents:
        Child → parent map.  Keys must be exactly the sources
        ``source-0 .. source-<m-1>`` plus every aggregator that appears as
        a parent; parent values are aggregator ids or :data:`SERVER_ID`.
        The graph must be a forest rooted at the server (every node has one
        parent, no cycles, no childless aggregators).
    """

    def __init__(self, parents: Dict[str, str]) -> None:
        self._parents = {str(c): str(p) for c, p in parents.items()}
        self._children: Dict[str, List[str]] = {}
        for child, parent in self._parents.items():
            self._children.setdefault(parent, []).append(child)
        for parent in self._children:
            self._children[parent].sort(key=_sort_key)
        self._validate()
        self._levels = self._compute_levels()
        #: Aggregators in deterministic upward processing order: ascending
        #: level, then natural id order — every child is emitted before its
        #: parent aggregator runs.
        self.aggregator_ids: Tuple[str, ...] = tuple(
            sorted(
                (n for n in self._parents if is_aggregator_id(n)),
                key=lambda n: (self._levels[n], _sort_key(n)),
            )
        )
        self.source_ids: Tuple[str, ...] = tuple(
            source_id(i) for i in range(self.num_sources)
        )

    # ------------------------------------------------------------ validation
    def _validate(self) -> None:
        sources = [n for n in self._parents if not is_aggregator_id(n)]
        for node in sources:
            if not node.startswith("source-"):
                raise ValueError(
                    f"unrecognized node id {node!r}: sources are "
                    f"'source-<i>', aggregators '{AGGREGATOR_PREFIX}...'"
                )
        indices = set()
        for node in sources:
            suffix = node[len("source-"):]
            if not suffix.isdigit():
                raise ValueError(f"malformed source id {node!r}")
            indices.add(int(suffix))
        if not indices:
            raise ValueError("a topology needs at least one source")
        if indices != set(range(len(indices))):
            raise ValueError(
                "source ids must be contiguous source-0 .. source-<m-1>; "
                f"got {sorted(indices)}"
            )
        self.num_sources = len(indices)
        for child, parent in self._parents.items():
            if parent == SERVER_ID:
                continue
            if not is_aggregator_id(parent):
                raise ValueError(
                    f"{child!r} names parent {parent!r}, which is neither "
                    f"the server nor an aggregator"
                )
            if parent not in self._parents:
                raise ValueError(
                    f"{child!r} names parent {parent!r}, which has no "
                    f"parent entry of its own (dangling aggregator)"
                )
        for node in self._parents:
            if is_aggregator_id(node) and not self._children.get(node):
                raise ValueError(f"aggregator {node!r} has no children")
        # Every parent chain must reach the server without revisiting a node.
        for node in self._parents:
            seen = {node}
            cursor = self._parents[node]
            while cursor != SERVER_ID:
                if cursor in seen:
                    raise ValueError(f"cycle through {cursor!r}")
                seen.add(cursor)
                cursor = self._parents[cursor]

    def _compute_levels(self) -> Dict[str, int]:
        levels: Dict[str, int] = {}

        def level_of(node: str) -> int:
            if node in levels:
                return levels[node]
            if not is_aggregator_id(node):
                levels[node] = 0
                return 0
            value = 1 + max(level_of(c) for c in self._children[node])
            levels[node] = value
            return value

        for node in self._parents:
            level_of(node)
        return levels

    # ---------------------------------------------------------- constructors
    @classmethod
    def star(cls, num_sources: int) -> "Topology":
        """Every source uplinks straight to the server (the flat baseline)."""
        m = check_positive_int(num_sources, "num_sources")
        return cls({source_id(i): SERVER_ID for i in range(m)})

    @classmethod
    def balanced(
        cls,
        num_sources: int,
        fan_in: int,
        depth: Optional[int] = None,
    ) -> "Topology":
        """A balanced tree: contiguous blocks of ``fan_in`` children per
        aggregator, layered until the top layer fits the server's fan-in.

        ``depth`` forces an exact number of aggregation layers (0 = star);
        when ``None``, layers are added while a layer has more than
        ``fan_in`` nodes — so ``num_sources <= fan_in`` degenerates to the
        star and the server itself never takes more than ``fan_in``
        children.
        """
        m = check_positive_int(num_sources, "num_sources")
        fan_in = check_positive_int(fan_in, "fan_in")
        if fan_in < 2:
            raise ValueError(f"fan_in must be >= 2, got {fan_in}")
        if depth is not None and depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        parents: Dict[str, str] = {}
        current = [source_id(i) for i in range(m)]
        level = 0
        while True:
            if depth is None:
                if len(current) <= fan_in:
                    break
            elif level >= depth:
                break
            level += 1
            width = math.ceil(len(current) / fan_in)
            layer = [f"{AGGREGATOR_PREFIX}{level}-{j}" for j in range(width)]
            for idx, child in enumerate(current):
                parents[child] = layer[idx // fan_in]
            current = layer
        for child in current:
            parents[child] = SERVER_ID
        return cls(parents)

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[str, str]]) -> "Topology":
        """Build from explicit ``(child, parent)`` pairs."""
        parents: Dict[str, str] = {}
        for child, parent in edges:
            child, parent = str(child), str(parent)
            if child in parents and parents[child] != parent:
                raise ValueError(
                    f"{child!r} has two parents: {parents[child]!r} and "
                    f"{parent!r}"
                )
            if child == SERVER_ID:
                raise ValueError("the server cannot be a child")
            parents[child] = parent
        return cls(parents)

    # ---------------------------------------------------------------- queries
    def parent(self, node_id: str) -> str:
        return self._parents[str(node_id)]

    def children(self, node_id: str) -> Tuple[str, ...]:
        return tuple(self._children.get(str(node_id), ()))

    def level(self, node_id: str) -> int:
        return self._levels[str(node_id)]

    @property
    def is_star(self) -> bool:
        return not self.aggregator_ids

    @property
    def num_aggregators(self) -> int:
        return len(self.aggregator_ids)

    @property
    def hops(self) -> int:
        """Longest source → server path length (1 for the star)."""
        longest = 1
        for node in self.source_ids:
            count = 0
            while node != SERVER_ID:
                node = self._parents[node]
                count += 1
            longest = max(longest, count)
        return longest

    def subtree_nodes(self, node_id: str) -> Tuple[str, ...]:
        """The node plus every descendant, in natural order."""
        out: List[str] = []
        frontier = [str(node_id)]
        while frontier:
            node = frontier.pop()
            out.append(node)
            frontier.extend(self._children.get(node, ()))
        return tuple(sorted(out, key=_sort_key))

    def subtree_sources(self, node_id: str) -> Tuple[str, ...]:
        """The sources under a node (the blast radius of its failure)."""
        return tuple(
            n for n in self.subtree_nodes(node_id) if not is_aggregator_id(n)
        )

    def describe(self) -> str:
        if self.is_star:
            return f"star({self.num_sources})"
        return (
            f"tree({self.num_sources} sources, "
            f"{self.num_aggregators} aggregators, {self.hops} hops)"
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Topology) and self._parents == other._parents

    def __hash__(self) -> int:
        return hash(frozenset(self._parents.items()))

    def __repr__(self) -> str:
        return f"Topology<{self.describe()}>"


TopologyLike = Union[None, str, Topology]


def resolve_topology(
    topology: TopologyLike,
    fan_in: Optional[int],
    num_sources: int,
) -> Optional[Topology]:
    """Resolve an engine's ``(topology, fan_in)`` knobs against the actual
    source count.  Returns ``None`` for the star and a validated
    :class:`Topology` with at least one aggregator otherwise.
    """
    if isinstance(topology, Topology):
        if fan_in is not None:
            raise ValueError(
                "fan_in cannot be combined with an explicit Topology"
            )
        if topology.num_sources != num_sources:
            raise ValueError(
                f"topology covers {topology.num_sources} sources but the "
                f"run has {num_sources}"
            )
        return None if topology.is_star else topology
    if topology is None or topology == "star":
        if fan_in is not None:
            raise ValueError("fan_in requires topology='tree'")
        return None
    if topology == "tree":
        if fan_in is None:
            raise ValueError("topology='tree' requires fan_in")
        built = Topology.balanced(num_sources, fan_in)
        return None if built.is_star else built
    raise ValueError(
        f"unknown topology {topology!r}: expected 'star', 'tree', or a "
        f"Topology instance"
    )
