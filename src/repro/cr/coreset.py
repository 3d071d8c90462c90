"""The generalized coreset data structure ``(S, Δ, w)``.

Definition 3.2 of the paper: a tuple of a (small) weighted point set and an
additive constant Δ whose cost function

    cost(S, X) = Σ_{q ∈ S} w(q) · min_{x ∈ X} ‖q − x‖² + Δ

approximates the k-means cost of the original dataset for *every* candidate
center set X up to a ``1 ± ε`` factor.  The Δ term is what allows FSS to
discard the energy outside the principal subspace.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass
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
        """JSON-able snapshot of the coreset: points and weights through
        :func:`encode_array`, Δ as a JSON number.

        Both round-trip float64 exactly, so :meth:`from_state` rebuilds a
        bit-identical coreset — the unit that ``repro serve`` fold frames,
        its fold log and every streaming snapshot carry.
        """
        return {
            "points": encode_array(self.points),
            "weights": encode_array(self.weights),
            "shift": self.shift,
        }

    @classmethod
    def from_state(cls, state: dict) -> "Coreset":
        """Rebuild a coreset from a :meth:`to_state` snapshot; raises
        ``ValueError`` on a malformed or list-form (format 1) state."""
        points, weights = state["points"], state["weights"]
        if isinstance(points, list) or isinstance(weights, list):
            raise ValueError(
                "coreset state is in the format-1 list form, which is no "
                "longer read; points and weights must be encoded arrays"
            )
        return cls(
            decode_array(points, rank=2),
            decode_array(weights, rank=1),
            float(state.get("shift", 0.0)),
        )

    def cost(self, centers: np.ndarray) -> float:
        """Coreset k-means cost (Eq. 4) for a candidate center set."""
        return weighted_kmeans_cost(self.points, centers, self.weights, self.shift)

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


def encode_array(array: np.ndarray) -> dict:
    """A float64 array as a JSON object, losslessly: its little-endian
    (``<f8``) bytes minus the low-order bytes that are zero in every element,
    base64-encoded, with the shape and the dropped-byte count.

    The count comes from the data: a ``RoundingQuantizer(s)`` output has
    ``52 − s`` zero low bits, so a 12-bit coordinate ships the 3 bytes the
    bit meter charges, and full-precision data ships all 8.  At most 7 bytes
    are dropped (an all-zero array keeps one per element), so decoding never
    allocates more than 8 bytes per payload byte.
    """
    raw = np.ascontiguousarray(array, dtype="<f8")
    # The bytes below the lowest bit set in any element are zero in all.
    union = int(np.bitwise_or.reduce(raw.view("<u8"), axis=None))
    drop = min(7, ((union & -union).bit_length() - 1) // 8) if union else 7
    kept = raw.view(np.uint8).reshape(-1, 8)[:, drop:]
    return {
        "shape": list(raw.shape),
        "drop": drop,
        "b64": base64.b64encode(kept.tobytes()).decode("ascii"),
    }


def decode_array(state: dict, rank: int) -> np.ndarray:
    """Inverse of :func:`encode_array`: a fresh, writable float64 array of
    ``rank`` dimensions.  Raises ``ValueError`` on a malformed state; the
    payload's length is checked against the shape before the array is
    allocated, so a forged shape cannot allocate more than 8 bytes per
    payload byte."""
    shape, drop, payload = state["shape"], state["drop"], state["b64"]
    if not (
        isinstance(shape, list)
        and len(shape) == rank
        and all(type(n) is int and n >= 0 for n in shape)
    ):
        raise ValueError(
            f"array shape must be {rank} non-negative integer(s), got {shape!r}"
        )
    if type(drop) is not int or not 0 <= drop <= 7:
        raise ValueError(f"dropped-byte count must be 0 to 7, got {drop!r}")
    if not isinstance(payload, str):
        raise ValueError("array payload must be a base64 string")
    kept = base64.b64decode(payload, validate=True)
    count, width = math.prod(shape), 8 - drop
    size = count * width
    if len(kept) != size:
        raise ValueError(
            f"payload holds {len(kept)} bytes, shape {shape} at {width} "
            f"byte(s) per element needs {size}"
        )
    raw = np.zeros((count, 8), dtype=np.uint8)
    raw[:, drop:] = np.frombuffer(kept, dtype=np.uint8).reshape(count, width)
    return raw.view("<f8").reshape(shape).astype(np.float64, copy=False)


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
