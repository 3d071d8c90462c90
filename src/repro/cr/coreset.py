"""The generalized coreset data structure ``(S, Δ, w)``.

Definition 3.2 of the paper: a tuple of a (small) weighted point set and an
additive constant Δ whose cost function

    cost(S, X) = Σ_{q ∈ S} w(q) · min_{x ∈ X} ‖q − x‖² + Δ

approximates the k-means cost of the original dataset for *every* candidate
center set X up to a ``1 ± ε`` factor.  The Δ term is what allows FSS to
discard the energy outside the principal subspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.kmeans.cost import weighted_kmeans_cost
from repro.utils.validation import check_matrix, check_weights


@dataclass
class Coreset:
    """A weighted coreset with an additive constant, ``(S, Δ, w)``.

    Attributes
    ----------
    points:
        The coreset points ``S`` as an ``(m, d')`` array.  Note ``d'`` may
        differ from the original dimension if a DR map was applied.
    weights:
        Non-negative weights ``w``, one per coreset point.
    shift:
        The additive constant Δ (0 for classical coresets).
    """

    points: np.ndarray
    weights: np.ndarray
    shift: float = 0.0

    def __post_init__(self) -> None:
        self.points = check_matrix(self.points, "points", allow_empty=True)
        self.weights = check_weights(self.weights, self.points.shape[0])
        self.shift = float(self.shift)
        if self.shift < 0:
            raise ValueError(f"shift must be non-negative, got {self.shift}")

    # ------------------------------------------------------------ properties
    @property
    def size(self) -> int:
        """Number of coreset points |S|."""
        return int(self.points.shape[0])

    @property
    def dimension(self) -> int:
        """Dimension of the space the coreset lives in."""
        return int(self.points.shape[1])

    @property
    def total_weight(self) -> float:
        """Σ w(q); for sensitivity sampling with deterministic weights this
        equals the cardinality n of the original dataset (footnote 8)."""
        return float(self.weights.sum())

    # ------------------------------------------------------------------ API
    def to_state(self) -> dict:
        """JSON-able snapshot of the coreset.

        ``tolist()`` round-trips float64 exactly, so
        :meth:`from_state` rebuilds a bit-identical coreset — the unit the
        streaming snapshot/restore machinery serializes.
        """
        return {
            "points": self.points.tolist(),
            "weights": self.weights.tolist(),
            "shift": self.shift,
            "dimension": self.dimension,
        }

    @classmethod
    def from_state(cls, state: dict) -> "Coreset":
        """Rebuild a coreset from a :meth:`to_state` snapshot."""
        dimension = int(state.get("dimension", 0))
        points = np.asarray(state["points"], dtype=float)
        if points.size == 0:
            points = points.reshape(0, dimension)
        return cls(
            points,
            np.asarray(state["weights"], dtype=float),
            float(state.get("shift", 0.0)),
        )

    def cost(self, centers: np.ndarray) -> float:
        """Coreset k-means cost (Eq. 4) for a candidate center set."""
        return weighted_kmeans_cost(self.points, centers, self.weights, self.shift)

    def transform(self, reducer) -> "Coreset":
        """Apply a DR map to the coreset points, keeping weights and Δ.

        This is the ``S' <- π1(S)`` step of Algorithm 2 / Algorithm 3.
        """
        return Coreset(reducer.transform(self.points), self.weights.copy(), self.shift)

    def quantize(self, quantizer) -> "Coreset":
        """Quantize the coreset points, keeping weights and Δ (Section 6.2)."""
        return Coreset(quantizer.quantize(self.points), self.weights.copy(), self.shift)

    def merged_with(self, other: "Coreset") -> "Coreset":
        """Union of two coresets (used by the server in the distributed
        setting to merge per-source coresets)."""
        if self.dimension != other.dimension:
            raise ValueError(
                f"cannot merge coresets of dimension {self.dimension} and {other.dimension}"
            )
        return Coreset(
            np.vstack([self.points, other.points]),
            np.concatenate([self.weights, other.weights]),
            self.shift + other.shift,
        )

    def scalars_to_transmit(self, include_weights: bool = True) -> int:
        """Communication cost of sending this coreset, in scalars.

        Each point contributes its ``dimension`` coordinates; each weight is
        one scalar; Δ is one scalar.
        """
        scalars = self.size * self.dimension
        if include_weights:
            scalars += self.size
        return scalars + 1  # the Δ term

    def empirical_distortion(
        self,
        original_points: np.ndarray,
        centers: np.ndarray,
        original_weights: Optional[np.ndarray] = None,
    ) -> float:
        """Relative error of the coreset cost vs. the true cost for one X.

        Diagnostic used in tests: for an ε-coreset this should be ≤ ε for any
        candidate center set (up to the sampling failure probability).
        """
        true_cost = weighted_kmeans_cost(original_points, centers, original_weights)
        approx_cost = self.cost(centers)
        if true_cost <= 0:
            return 0.0 if approx_cost <= self.shift + 1e-12 else float("inf")
        return float(abs(approx_cost - true_cost) / true_cost)


def merge_coresets(coresets) -> Coreset:
    """Merge an iterable of coresets into one (distributed-setting helper).

    The result equals folding :meth:`Coreset.merged_with` left to right, but
    every point and weight is copied once: O(total rows) rather than O(B²)
    rows over B coresets, with one validation.  A single coreset is returned
    as is.
    """
    coresets = list(coresets)
    if not coresets:
        raise ValueError("cannot merge an empty collection of coresets")
    first = coresets[0]
    if len(coresets) == 1:
        return first
    for other in coresets[1:]:
        if other.dimension != first.dimension:
            raise ValueError(
                f"cannot merge coresets of dimension {first.dimension} and {other.dimension}"
            )
    return Coreset(
        np.concatenate([c.points for c in coresets]),
        np.concatenate([c.weights for c in coresets]),
        sum((c.shift for c in coresets[1:]), first.shift),
    )
