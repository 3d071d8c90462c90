"""The edge server: aggregates summaries and solves k-means.

The server is assumed to be much more powerful than the data sources
(Section 3.4), so its computation is not part of the complexity metric; it is
still timed separately for completeness.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cr.coreset import Coreset
from repro.distributed.network import SimulatedNetwork
from repro.kmeans.lloyd import KMeansResult, WeightedKMeans
from repro.utils.clock import perf_counter
from repro.utils.linalg import right_svd
from repro.utils.random import SeedLike, as_generator
from repro.utils.validation import check_positive_int


class EdgeServer:
    """The edge server that receives summaries and computes k-means centers.

    Parameters
    ----------
    network:
        Shared simulated network (used for the rare downlink messages such as
        the per-source sample-size allocation of disSS).
    k:
        Number of clusters to compute.
    n_init:
        Restarts of the server-side weighted k-means solver.
    seed:
        RNG seed for the solver.
    """

    def __init__(
        self,
        network: SimulatedNetwork,
        k: int,
        n_init: int = 5,
        seed: SeedLike = None,
    ) -> None:
        self.network = network
        self.k = check_positive_int(k, "k")
        self.n_init = check_positive_int(n_init, "n_init")
        self.rng = as_generator(seed)
        #: Wall-clock seconds spent in server-side computation.
        self.compute_seconds = 0.0

    # -------------------------------------------------------------- helpers
    def _timed(self, fn, *args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        self.compute_seconds += perf_counter() - start
        return result

    def send_to_source(self, node_id: str, payload, tag: str):
        """Downlink transmission (e.g. disSS sample-size allocation).

        Same retry-with-budget semantics as the uplink: attempts up to the
        budget, every attempt metered,
        :class:`~repro.distributed.conditions.DeliveryError` when the source
        stays unreachable (the protocol driver then excludes it from
        the round).
        """
        return self.network.send(
            sender="server", receiver=node_id, payload=payload, tag=tag,
        )

    # ------------------------------------------------------------------ API
    def solve_kmeans(self, coreset: Coreset) -> KMeansResult:
        """Weighted k-means on a coreset (the ``kmeans(S', w, k)`` step)."""
        solver = WeightedKMeans(k=self.k, n_init=self.n_init, seed=self.rng)
        return self._timed(solver.fit, coreset.points, coreset.weights)

    def global_svd(self, stacked: np.ndarray, rank: int) -> np.ndarray:
        """Global SVD step of disPCA: returns the top-``rank`` right singular
        vectors (columns) of the stacked per-source sketches."""
        rank = check_positive_int(rank, "rank")

        def _svd():
            vt = right_svd(stacked)[1]
            keep = min(rank, vt.shape[0])
            return vt[:keep].T

        return self._timed(_svd)

    def allocate_sample_sizes(
        self, costs: Sequence[float], total_samples: int
    ) -> np.ndarray:
        """disSS step 2: split the global sample budget across sources
        proportionally to their reported local bicriteria costs."""
        total_samples = check_positive_int(total_samples, "total_samples")
        costs_arr = np.asarray(list(costs), dtype=float)
        if np.any(costs_arr < 0):
            raise ValueError("costs must be non-negative")
        total_cost = costs_arr.sum()
        m = costs_arr.shape[0]
        if total_cost <= 0:
            shares = np.full(m, 1.0 / m)
        else:
            shares = costs_arr / total_cost
        sizes = np.maximum(1, np.round(shares * total_samples).astype(int))
        return sizes
