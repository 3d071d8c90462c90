"""The data-source node: an edge device holding a local dataset shard.

A :class:`DataSourceNode` owns its local points and exposes the *local*
computations the distributed algorithms need (local SVD for disPCA,
bicriteria + sampling for disSS, JL projection, quantization).  It never
reads another node's data; anything that leaves the node goes through the
:class:`~repro.distributed.network.SimulatedNetwork` so it is metered.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.distributed.network import SimulatedNetwork
from repro.dr.jl import JLProjection
from repro.kmeans.bicriteria import BicriteriaResult, bicriteria_approximation
from repro.kmeans.cost import assign_to_centers
from repro.quantization.rounding import RoundingQuantizer
from repro.utils.clock import perf_counter
from repro.utils.linalg import right_svd
from repro.utils.random import SeedLike, as_generator, weighted_indices
from repro.utils.validation import check_matrix, check_positive_int

#: Adaptive-sampling rounds of a source's local bicriteria solve (disSS step
#: 1).  The bicriteria set ``X_i`` is transmitted with the samples, so few
#: rounds keep ``|X_i|`` a small multiple of ``k``.
LOCAL_BICRITERIA_ROUNDS = 4


class DataSourceNode:
    """One edge device holding a shard of the dataset.

    Parameters
    ----------
    node_id:
        Identifier used in transmission logs (e.g. ``"source-3"``).
    points:
        The local dataset shard, ``(n_i, d)``.
    network:
        The shared simulated network.
    seed:
        RNG seed for this node's local randomness.
    """

    def __init__(
        self,
        node_id: str,
        points: np.ndarray,
        network: SimulatedNetwork,
        seed: SeedLike = None,
    ) -> None:
        self.node_id = str(node_id)
        self.points = check_matrix(points, "points")
        self.network = network
        self.rng = as_generator(seed)
        #: Wall-clock seconds spent in local computation on this node.
        self.compute_seconds = 0.0
        # (bicriteria result, the exact points array it was computed on) —
        # lets the sampling step reuse the cached assignment safely: any
        # local transform (JL, projection) replaces self.points with a new
        # array, which invalidates the pair by identity.
        self._cached_bicriteria = None
        self._cached_bicriteria_points = None

    # -------------------------------------------------------------- helpers
    @property
    def cardinality(self) -> int:
        return int(self.points.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.points.shape[1])

    def _timed(self, fn, *args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        self.compute_seconds += perf_counter() - start
        return result

    def send_to_server(self, payload, tag: str, significant_bits: Optional[int] = None):
        """Transmit a payload to the edge server through the metered network.

        Retries up to the network condition's retransmission budget; every
        attempt is metered.  Raises
        :class:`~repro.distributed.conditions.DeliveryError` when the budget
        is exhausted, so the protocol driver can exclude this source from
        the round.
        """
        return self.network.send(
            sender=self.node_id,
            receiver="server",
            payload=payload,
            tag=tag,
            significant_bits=significant_bits,
        )

    # ---------------------------------------------------------- local steps
    def apply_jl(self, projection: JLProjection) -> np.ndarray:
        """Apply a JL projection to the local shard (costs no communication:
        the projection seed is pre-shared).

        The node validated its shard when it was built, and its local
        transforms replace it only with products of valid arrays, so the
        projection runs its trusted step and does not scan the shard again.
        """
        projected = self._timed(projection._project, self.points)
        self.points = projected
        return projected

    def local_svd(self, rank: int) -> Tuple[np.ndarray, np.ndarray]:
        """Local SVD step of disPCA: returns ``(Sigma_t, V_t)`` truncated to
        ``rank`` columns (these are what the node transmits).  The left
        singular vectors are never formed: nothing sends them."""
        rank = check_positive_int(rank, "rank")

        def _svd():
            s, vt = right_svd(self.points)
            keep = min(rank, s.shape[0])
            return s[:keep], vt[:keep].T

        return self._timed(_svd)

    def project_onto(self, basis: np.ndarray) -> np.ndarray:
        """Replace the local shard by its projection ``A V V^T`` onto a basis
        received from the server (the disPCA output)."""
        basis = np.asarray(basis, dtype=float)

        def _project():
            return (self.points @ basis) @ basis.T

        self.points = self._timed(_project)
        return self.points

    def local_bicriteria(self, k: int) -> BicriteriaResult:
        """Bicriteria approximation on the local shard (disSS step 1), in
        :data:`LOCAL_BICRITERIA_ROUNDS` adaptive rounds."""
        result = self._timed(
            bicriteria_approximation,
            self.points,
            k,
            rounds=LOCAL_BICRITERIA_ROUNDS,
            seed=self.rng,
        )
        self._cached_bicriteria = result
        self._cached_bicriteria_points = self.points
        return result

    def local_sensitivity_sample(
        self,
        bicriteria: BicriteriaResult,
        sample_size: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """disSS step 3: draw ``sample_size`` points with probability
        proportional to their cost against the local bicriteria centers, and
        return the sampled points together with weights.

        The returned set is ``S_i ∪ X_i`` (samples plus the bicriteria
        centers) with weights chosen to match the number of points per
        cluster, following [4]: sampled points get inverse-probability
        weights, and each bicriteria center gets the (non-negative) residual
        weight of its cluster so the total weight equals ``n_i``.
        """
        sample_size = check_positive_int(sample_size, "sample_size")

        def _sample():
            # The bicriteria step cached its assignment of these exact local
            # points; reuse it rather than paying another full pass.  Any
            # shard transform since then (apply_jl / project_onto) replaced
            # self.points, so identity of both the result and the array
            # guarantees the cache still describes the current geometry.
            if (
                bicriteria is self._cached_bicriteria
                and self.points is self._cached_bicriteria_points
                and bicriteria.squared_distances is not None
            ):
                labels, d2 = bicriteria.labels, bicriteria.squared_distances
            else:
                labels, d2 = assign_to_centers(self.points, bicriteria.centers)
            total = float(d2.sum())
            n_local = self.points.shape[0]
            if total <= 0:
                probabilities = np.full(n_local, 1.0 / n_local)
            else:
                probabilities = d2 / total
                # Guard against numerically-zero rows.
                probabilities = np.maximum(probabilities, 1e-18)
                probabilities /= probabilities.sum()
            size = min(sample_size, n_local)
            indices = weighted_indices(self.rng, probabilities, size=size)
            sample_weights = 1.0 / (size * probabilities[indices])

            # Residual weight per bicriteria center: cluster size minus the
            # weight already assigned to samples from that cluster.
            cluster_sizes = np.bincount(labels, minlength=bicriteria.size).astype(float)
            sampled_weight_per_cluster = np.bincount(
                labels[indices], weights=sample_weights, minlength=bicriteria.size
            )
            center_weights = np.maximum(cluster_sizes - sampled_weight_per_cluster, 0.0)

            points_out = np.vstack([self.points[indices], bicriteria.centers])
            weights_out = np.concatenate([sample_weights, center_weights])
            return points_out, weights_out

        return self._timed(_sample)

    def quantize(self, points: np.ndarray, quantizer: RoundingQuantizer) -> np.ndarray:
        """Quantize a prepared summary before transmission."""
        return self._timed(quantizer.quantize, points)
