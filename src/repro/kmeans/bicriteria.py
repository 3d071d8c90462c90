"""Bicriteria approximation for k-means via adaptive sampling.

Implements the Aggarwal–Deshpande–Kannan adaptive-sampling scheme (paper
references [36]/[42]): repeatedly draw batches of ``O(k)`` points with
D²-sampling.  The selected set ``B`` has more than ``k`` points but its cost
is within a constant factor of the optimal k-means cost with constant
probability; repeating ``log(1/δ)`` times and keeping the best run boosts the
confidence.

Two consumers in this library:

* sensitivity sampling (:mod:`repro.cr.sensitivity`) uses the bicriteria set
  to upper-bound point sensitivities;
* the quantizer configuration of Section 6.3 uses ``cost(P, B)/20`` as the
  lower bound ``E`` on the optimal k-means cost.

Performance: inputs are validated once, at the entry of
:func:`bicriteria_approximation`, and the adaptive rounds run as a trusted
loop over the checked arrays; re-validating every round would cost more
than the arithmetic on a streaming source's 32-row batches.  Each round
draws its batch straight from the weighted D² scores, marks the fresh
centers with a boolean mask and computes distances to those fresh centers
only, with the row norms hoisted out of the loop, folding them into a
per-point running minimum: each (point, center) distance is computed once
per repetition.  A round's minima come from the trusted min core
:func:`~repro.utils.linalg._min_squared_distances_into`, in two
``n × 3k`` buffers allocated once per call.  For 2 to 16 fresh centers it
reduces along contiguous rows: at 3000 rows, ``min(axis=1)`` over 12
columns took 110 µs and ``min(axis=0)`` of the transposed block 7 µs (one
core of a 2-vCPU VM), and one bicriteria call at an aggregation hop's
3072 × 8, k = 4, went from 10.5 to 6.7 ms.  The draw searches the CDF of
the trusted core k-means++ shares (``_scores_cdf``).  The draws are
bit-identical to a loop
that calls the public, validating :func:`~repro.kmeans.seeding.d2_sampling`
every round, which the tests keep as the reference.  Nearest-center labels
and distances are computed once, for the winning repetition only, with the
hoisted row norms, and cached on the result for downstream reuse (the
sensitivity sampler needs exactly those quantities).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.kmeans.cost import _nearest_center_pass
from repro.utils.linalg import _min_squared_distances_into, squared_norms
from repro.utils.random import (
    SeedLike,
    _draw_from_cdf,
    _scores_cdf,
    as_generator,
    spawn_generators,
)
from repro.utils.validation import check_matrix, check_positive_int, check_weights


@dataclass
class BicriteriaResult:
    """A bicriteria solution: more than ``k`` centers, constant-factor cost.

    Attributes
    ----------
    centers:
        Selected points (shape ``(b, d)`` with ``b >= k`` typically).
    cost:
        Weighted k-means cost of the original data against ``centers``.
    labels:
        Nearest-center assignment of the input points.
    rounds:
        Number of adaptive-sampling rounds each repetition was given (a
        repetition stops early once its residual cost reaches zero).
    squared_distances:
        Per-point squared distance to the nearest center (the ``D²`` vector
        matching ``labels``); cached so consumers such as the sensitivity
        sampler do not pay another full assignment pass.
    """

    centers: np.ndarray
    cost: float
    labels: np.ndarray
    rounds: int
    squared_distances: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return int(self.centers.shape[0])

    def optimal_cost_lower_bound(self, slack: float = 20.0) -> float:
        """Lower bound ``E = cost / slack`` on the optimal k-means cost.

        The adaptive-sampling guarantee states the bicriteria cost is at most
        a constant (the paper uses 20) times the optimum, hence dividing by
        that constant yields a valid lower bound with high probability.
        """
        return self.cost / float(slack)


def bicriteria_approximation(
    points: np.ndarray,
    k: int,
    weights: Optional[np.ndarray] = None,
    rounds: Optional[int] = None,
    repetitions: int = 3,
    seed: SeedLike = None,
) -> BicriteriaResult:
    """Adaptive-sampling bicriteria approximation for weighted k-means.

    Parameters
    ----------
    points:
        ``(n, d)`` data matrix.
    k:
        Target number of clusters.
    weights:
        Optional non-negative point weights.
    rounds:
        Number of adaptive sampling rounds; defaults to
        ``max(1, ceil(log2(max(n, 2))))``.  The default fixes how many
        batches each repetition draws, so it is part of the seeded stream.
        Each round draws ``3 k`` points.
    repetitions:
        Independent repetitions; the lowest-cost selection wins (this is the
        ``log(1/δ)`` boosting described in Section 6.3).
    seed:
        RNG seed or generator.
    """
    points = check_matrix(points, "points")
    k = check_positive_int(k, "k")
    n = points.shape[0]
    weights = check_weights(weights, n)
    check_positive_int(repetitions, "repetitions")
    rng = as_generator(seed)

    if rounds is None:
        rounds = max(1, int(np.ceil(np.log2(max(n, 2)))))
    rounds = check_positive_int(rounds, "rounds")

    if weights.sum() <= 0:
        raise ValueError("weights must contain at least one positive entry")
    point_norms = squared_norms(points)
    # Each round's fresh centers are gathered into a C-contiguous copy, and
    # einsum's summation order depends on the layout: index the norms of a
    # C-contiguous array so they match squared_norms(points[fresh]) bit for
    # bit whatever the layout of the input.
    contiguous = np.ascontiguousarray(points)
    center_norms = point_norms if contiguous is points else squared_norms(contiguous)
    # One pair of distance buffers, wide enough for a full batch, serves
    # every round of every repetition.
    batch = min(3 * k, n)
    buffers = (np.empty(n * batch), np.empty(n * batch))

    best_centers: Optional[np.ndarray] = None
    best_cost = np.inf
    for rep_rng in spawn_generators(rng, repetitions):
        centers, cost = _single_adaptive_run(
            points, point_norms, center_norms, weights, batch, rounds, rep_rng,
            buffers,
        )
        if best_centers is None or cost < best_cost:
            best_centers = centers
            best_cost = cost
    # Labels (and the matching D² vector) are needed only for the winner, so
    # the losing repetitions never pay the assignment pass.
    labels, d2 = _nearest_center_pass(points, point_norms, best_centers)
    return BicriteriaResult(
        centers=best_centers,
        cost=float(best_cost),
        labels=labels,
        rounds=rounds,
        squared_distances=d2,
    )


def _single_adaptive_run(
    points: np.ndarray,
    point_norms: np.ndarray,
    center_norms: np.ndarray,
    weights: np.ndarray,
    batch: int,
    rounds: int,
    rng: np.random.Generator,
    buffers: Tuple[np.ndarray, np.ndarray],
):
    """One adaptive-sampling pass: iteratively add D²-sampled batches of
    ``batch`` draws.

    Trusts its inputs (:func:`bicriteria_approximation` validated them) and
    returns ``(centers, cost)``.  The per-point min squared distance to the
    selected set is maintained incrementally: each round computes distances
    to that round's *newly added* centers only, in ``buffers``.
    """
    n = points.shape[0]
    selected = np.zeros(n, dtype=bool)
    # Before any center is selected, D² sampling draws by weight alone.
    scores = weights
    closest: Optional[np.ndarray] = None
    residual = np.inf

    for _ in range(rounds):
        indices = _draw_from_cdf(rng, _scores_cdf(scores), size=batch)
        fresh_mask = np.zeros(n, dtype=bool)
        fresh_mask[indices] = True
        fresh_mask[selected] = False
        fresh = np.flatnonzero(fresh_mask)
        selected[fresh] = True
        if fresh.size:
            new_d2 = _min_squared_distances_into(
                points, points[fresh], point_norms, center_norms[fresh], buffers
            )
            if closest is None:
                closest = new_d2
            else:
                np.minimum(closest, new_d2, out=closest)
        # Early exit: once the residual cost is (numerically) zero every
        # point coincides with a selected center and further rounds are moot.
        residual = float(np.dot(weights, closest))
        if residual <= 0.0:
            break
        scores = weights * closest

    # rounds >= 1 and every draw returns >= 1 index, so at least one point is
    # always selected.
    centers = points[np.flatnonzero(selected)]
    return centers, residual
