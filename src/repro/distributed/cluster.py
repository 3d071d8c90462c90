"""EdgeCluster — convenience wiring of sources, server, and network.

Builds the whole simulated deployment (one :class:`SimulatedNetwork`, ``m``
:class:`DataSourceNode` shards, one :class:`EdgeServer`) from a dataset and a
partition strategy.  The multi-source engine
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
from repro.distributed.partition import partition_dataset
from repro.distributed.server import EdgeServer
from repro.utils.random import SeedLike, as_generator, spawn_generators
from repro.utils.validation import check_matrix, check_positive_int


@dataclass
class EdgeCluster:
    """A simulated edge deployment: ``m`` data sources and one edge server.

    Use :meth:`from_dataset` to build one from a monolithic dataset, or pass
    pre-partitioned shards to :meth:`from_shards` (e.g. when emulating data
    collected independently at each device).
    """

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

    @classmethod
    def from_dataset(
        cls,
        points: np.ndarray,
        num_sources: int,
        k: int,
        strategy: str = "random",
        seed: SeedLike = None,
        server_n_init: int = 5,
        condition: ConditionLike = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> "EdgeCluster":
        """Partition ``points`` across ``num_sources`` and build the cluster."""
        points = check_matrix(points, "points")
        check_positive_int(num_sources, "num_sources")
        rng = as_generator(seed)
        indices = partition_dataset(points, num_sources, strategy=strategy, seed=rng)
        shards = [points[idx] for idx in indices]
        return cls.from_shards(
            shards, k=k, seed=rng, server_n_init=server_n_init,
            condition=condition, fault_plan=fault_plan,
        )

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

    def union_points(self) -> np.ndarray:
        """The union ∪ P_i of the current local shards (evaluation only —
        algorithms never call this)."""
        return np.vstack([s.points for s in self.sources])

    def total_source_compute_seconds(self) -> float:
        """Total local computation time across all data sources."""
        return float(sum(s.compute_seconds for s in self.sources))

    def max_source_compute_seconds(self) -> float:
        """Maximum per-source computation time (the wall-clock bottleneck
        when sources compute in parallel)."""
        return float(max(s.compute_seconds for s in self.sources))
