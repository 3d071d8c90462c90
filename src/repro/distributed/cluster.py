"""EdgeCluster — convenience wiring of sources, server, and network.

Builds the whole simulated deployment (one :class:`SimulatedNetwork`, ``m``
:class:`DataSourceNode` shards, one :class:`EdgeServer`) from per-source
shards.  The multi-source engine
(:class:`~repro.core.engine.DistributedStagePipeline`) operates on an
``EdgeCluster``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.distributed.conditions import ConditionLike, FaultPlan
from repro.distributed.network import SimulatedNetwork
from repro.distributed.node import DataSourceNode
from repro.distributed.server import EdgeServer
from repro.utils.random import SeedLike, as_generator, spawn_generators


@dataclass
class EdgeCluster:
    """A simulated edge deployment: ``m`` data sources and one edge server,
    built from per-source shards by :meth:`from_shards`."""

    network: SimulatedNetwork
    sources: List[DataSourceNode]
    server: EdgeServer

    # --------------------------------------------------------- constructors
    @classmethod
    def from_shards(
        cls,
        shards: Sequence[np.ndarray],
        k: int,
        seed: SeedLike = None,
        server_n_init: int = 5,
        condition: ConditionLike = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> "EdgeCluster":
        """Build a cluster from explicit per-source shards.

        ``condition`` / ``fault_plan`` configure the simulated network's
        unreliable-edge behaviour; the defaults are the ideal loss-free wire.
        """
        if not shards:
            raise ValueError("at least one shard is required")
        rng = as_generator(seed)
        network = SimulatedNetwork(condition=condition, fault_plan=fault_plan)
        source_rngs = spawn_generators(rng, len(shards) + 1)
        sources = [
            DataSourceNode(f"source-{i}", shard, network, seed=source_rngs[i])
            for i, shard in enumerate(shards)
        ]
        server = EdgeServer(
            network, k=k, n_init=server_n_init, seed=source_rngs[-1]
        )
        return cls(network=network, sources=sources, server=server)

    # --------------------------------------------------------- participation
    @property
    def failed_source_ids(self) -> List[str]:
        """Sorted ids of sources excluded from the run so far."""
        return sorted(
            s.node_id for s in self.sources if self.network.is_failed(s.node_id)
        )

    # ------------------------------------------------------------ properties
    @property
    def num_sources(self) -> int:
        return len(self.sources)

    @property
    def total_cardinality(self) -> int:
        return sum(s.cardinality for s in self.sources)

    @property
    def dimension(self) -> int:
        return self.sources[0].dimension

    def total_source_compute_seconds(self) -> float:
        """Total local computation time across all data sources."""
        return float(sum(s.compute_seconds for s in self.sources))

    def max_source_compute_seconds(self) -> float:
        """Maximum per-source computation time (the wall-clock bottleneck
        when sources compute in parallel)."""
        return float(max(s.compute_seconds for s in self.sources))
