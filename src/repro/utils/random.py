"""Random-number-generator plumbing.

Every stochastic component in the library accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None`` and normalises it through
:func:`as_generator`.  This keeps experiments reproducible end to end: a
single seed passed to an experiment harness deterministically derives the
seeds of every JL projection, sampler, and solver it spawns via
:func:`spawn_generators`.
"""

from __future__ import annotations

import math
import zlib
from typing import Iterable, List, Optional, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted seed form.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an ``int``, a ``SeedSequence``, or an
        existing ``Generator`` (returned unchanged).

    Returns
    -------
    numpy.random.Generator
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(
        f"seed must be None, int, SeedSequence or Generator, got {type(seed)!r}"
    )


def spawn_generators(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Derive ``count`` statistically independent generators from one seed.

    The derivation is deterministic given ``seed``, which lets an experiment
    harness hand independent streams to each Monte-Carlo run or each data
    source while remaining reproducible.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive children by drawing fresh seed material from the generator.
        seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    sequence = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


def derive_seed(rng: np.random.Generator) -> int:
    """Draw a fresh integer seed from ``rng`` (for handing to sub-components)."""
    return int(rng.integers(0, 2**63 - 1))


def generator_for_name(seed: SeedLike, name: str) -> np.random.Generator:
    """Derive a generator keyed by a stable string name.

    Unlike :func:`spawn_generators` the derivation does not depend on how
    many (or in which order) other generators were derived: the same
    ``(seed, name)`` pair always yields the same stream.  The network
    simulation uses this to give every link its own loss/jitter generator —
    per-link draws are then independent of the transmission schedule, which
    is what keeps lossy runs identical for ``jobs=1`` and ``jobs=N``.
    """
    if isinstance(seed, np.random.Generator):
        raise TypeError(
            "generator_for_name needs reusable seed material (None, int or "
            "SeedSequence), not a Generator: drawing from a shared generator "
            "would make the derivation order-dependent"
        )
    entropy = zlib.crc32(str(name).encode("utf-8"))
    if isinstance(seed, np.random.SeedSequence):
        base = list(seed.entropy) if isinstance(seed.entropy, (list, tuple)) else [seed.entropy]
        return np.random.default_rng(np.random.SeedSequence(base + [entropy]))
    base_seed = 0 if seed is None else int(seed)
    return np.random.default_rng(np.random.SeedSequence([base_seed, entropy]))


def weighted_indices(
    rng: np.random.Generator,
    probabilities: np.ndarray,
    size: Optional[int] = None,
):
    """Sample indices proportionally to ``probabilities`` via inverse-CDF.

    Drop-in replacement for ``rng.choice(n, p=probabilities[, size=size])``
    with replacement: one cumulative sum builds the CDF, then each draw is a
    single uniform plus an ``O(log n)`` :func:`numpy.searchsorted` lookup —
    skipping ``Generator.choice``'s per-call probability re-validation, which
    dominates when the hot samplers draw repeatedly from short-lived score
    vectors (k-means++, D²-sampling, sensitivity sampling).

    The draw sequence is bit-identical to ``Generator.choice`` (which uses
    the same inverse-CDF construction internally), so swapping the samplers
    does not perturb any seeded experiment.

    Returns a python ``int`` when ``size`` is ``None``, else an ``int64``
    array of ``size`` indices (sampled with replacement).
    """
    probabilities = np.asarray(probabilities)
    if np.any(probabilities < 0):
        # choice() validated this; a negative entry would make the CDF
        # non-monotonic and the binary search silently wrong.
        raise ValueError("probabilities must be non-negative")
    # Accumulate in float64 regardless of input dtype (choice() casts p the
    # same way), over the flattened array.
    probabilities = probabilities.astype(np.float64, copy=False).ravel()
    return _draw_from_cdf(rng, _normalized_cdf(probabilities), size)


def weighted_index_from_scores(
    rng: np.random.Generator, scores: np.ndarray, size: Optional[int] = None
):
    """Like :func:`weighted_indices` but for *unnormalized* non-negative
    scores.

    The scores are normalized before the CDF is built (and the CDF is
    normalized again inside :func:`weighted_indices`) — deliberately, even
    though one pass would suffice: this reproduces the exact float sequence
    of the historical ``rng.choice(n, p=scores/scores.sum())`` call sites, so
    the draws stay bit-identical to the seeded golden values.  The saving
    over ``Generator.choice`` is its per-call probability re-validation
    (a Kahan-summed full-array check), not the normalization itself.
    """
    probabilities = np.asarray(scores, dtype=float)
    probabilities = probabilities / probabilities.sum()
    return weighted_indices(rng, probabilities, size=size)


def _scores_cdf(scores: np.ndarray) -> np.ndarray:
    """Trusted core of the CDF :func:`weighted_index_from_scores` searches.

    ``scores`` must be non-negative ``float64``, as the k-means layer's D²
    scores are by construction; the same float sequence as the public
    function (normalize, cumulative sum, renormalize) without its array
    conversion and sign scan.  :func:`_draw_from_cdf` then draws from it.

    Works along the last axis: a ``(r, n)`` array gives one CDF per row,
    each bit for bit the CDF of that row alone, as a row-wise ``sum`` and
    ``cumsum`` run the same loops as on a vector and the rest is
    elementwise.  k-means++ builds the CDFs of all its restarts' D² scores
    in one call.
    """
    return _normalized_cdf(scores / scores.sum(-1, keepdims=True))


def _normalized_cdf(probabilities: np.ndarray) -> np.ndarray:
    """One cumulative sum of ``float64`` probabilities along the last axis,
    a mass check per row, and normalization: the CDF the weighted samplers
    search."""
    cdf = probabilities.cumsum(-1)
    totals = cdf[..., -1:]
    # A NaN or overflowed total (distances of extreme-magnitude points) must
    # raise, not feed the binary search a NaN CDF.
    for total in totals.ravel().tolist():
        if not 0 < total < math.inf:
            raise ValueError("probabilities must contain positive mass")
    return cdf / totals


def _draw_from_cdf(
    rng: np.random.Generator, cdf: np.ndarray, size: Optional[int] = None
):
    """One uniform (or ``size`` of them) from ``rng`` searched in a
    normalized CDF: an ``int``, or an ``int64`` array of indices."""
    if size is None:
        return int(cdf.searchsorted(rng.random(), side="right"))
    idx = cdf.searchsorted(rng.random(int(size)), side="right")
    return np.asarray(idx, dtype=np.int64)


def permutation_chunks(
    rng: np.random.Generator, n: int, parts: int
) -> List[np.ndarray]:
    """Randomly split ``range(n)`` into ``parts`` near-equal index chunks."""
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    if n < parts:
        raise ValueError(f"cannot split {n} items into {parts} non-empty parts")
    order = rng.permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(order, parts)]


def check_all_distinct(rngs: Iterable[np.random.Generator]) -> bool:
    """Best-effort check that generators are distinct objects (debug aid)."""
    rng_list = list(rngs)
    return len({id(r) for r in rng_list}) == len(rng_list)


def generator_state(rng: np.random.Generator) -> dict:
    """JSON-able snapshot of a generator's exact position in its stream.

    Captures the underlying bit generator's name and state with every numpy
    scalar/array converted to plain python values, so the result survives a
    ``json.dumps`` round trip.  :func:`restore_generator` rebuilds a
    generator that continues the stream bit-identically — the piece that
    lets streaming servers snapshot their per-query seed derivation.
    """

    def jsonable(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, dict):
            return {key: jsonable(value) for key, value in obj.items()}
        return obj

    return jsonable(rng.bit_generator.state)


def restore_generator(state: dict) -> np.random.Generator:
    """Rebuild a generator from a :func:`generator_state` snapshot.

    The returned generator produces exactly the draws the snapshotted one
    would have produced next (numpy's bit-generator state setters accept
    the plain-python form directly).
    """
    name = state.get("bit_generator")
    cls = getattr(np.random, str(name), None)
    if cls is None or not isinstance(cls, type) or not issubclass(
        cls, np.random.BitGenerator
    ):
        raise ValueError(f"unknown bit generator in snapshot: {name!r}")
    bit_generator = cls()
    bit_generator.state = state
    return np.random.Generator(bit_generator)
