"""Simulated edge deployment and distributed DR/CR algorithms.

This package is the substrate for the multi-source setting of Section 5:

* :class:`SimulatedNetwork`, :class:`DataSourceNode`, :class:`EdgeServer`,
  :class:`EdgeCluster` — an in-process simulation of ``m`` data sources
  connected to one edge server, where every transmission is an explicit
  :class:`Message` and every scalar/bit is metered.
* :func:`partition_dataset` — ways of splitting a dataset across sources.
* :func:`run_dispca` (disPCA, reference [35]) and :func:`run_disss` (disSS,
  reference [4]) — the two protocol steps of BKLW [27], which
  :class:`~repro.stages.distributed.BKLWStage` runs one after the other.
  Every one-shot round goes through :func:`deliver_round`, the one place
  its fault policy lives.
* :class:`NetworkCondition`, :class:`LinkModel`, :class:`FaultPlan`,
  :data:`NETWORK_PRESETS` — unreliable-edge simulation: lossy and
  heterogeneous links, scripted dropout/flaky/straggler faults, and
  retry-with-budget delivery (:class:`DeliveryError` on exhaustion).
"""

from repro.distributed.conditions import (
    NETWORK_PRESETS,
    DeliveryError,
    FaultPlan,
    LinkModel,
    NetworkCondition,
    resolve_condition,
)
from repro.distributed.network import (
    Message,
    SimulatedNetwork,
    TransmissionLog,
    deliver_round,
)
from repro.distributed.node import DataSourceNode
from repro.distributed.server import EdgeServer
from repro.distributed.cluster import EdgeCluster
from repro.distributed.partition import partition_dataset
from repro.distributed.dispca import run_dispca
from repro.distributed.disss import DisSSResult, run_disss

__all__ = [
    "Message",
    "SimulatedNetwork",
    "TransmissionLog",
    "deliver_round",
    "NetworkCondition",
    "LinkModel",
    "FaultPlan",
    "DeliveryError",
    "NETWORK_PRESETS",
    "resolve_condition",
    "DataSourceNode",
    "EdgeServer",
    "EdgeCluster",
    "partition_dataset",
    "run_dispca",
    "run_disss",
    "DisSSResult",
]
