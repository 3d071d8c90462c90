"""Batch iterators: turn datasets into timestamped streams.

The streaming engine consumes one batch iterator per source.  These helpers
produce them from in-memory arrays (contiguous or shuffled batching of a
shard) and generate non-stationary streams whose cluster structure drifts
over time — the scenario where sliding-window clustering visibly beats
clustering the full prefix.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.utils.random import SeedLike, as_generator
from repro.utils.validation import check_matrix, check_positive_int


def iter_batches(
    points: np.ndarray,
    batch_size: int,
    shuffle: bool = False,
    seed: SeedLike = None,
) -> Iterator[np.ndarray]:
    """Yield consecutive row batches of ``points`` (final batch may be short).

    With ``shuffle=True`` the rows are visited in a random order, emulating
    arrival order independent of storage order.
    """
    points = check_matrix(points, "points")
    batch_size = check_positive_int(batch_size, "batch_size")
    n = points.shape[0]
    order = as_generator(seed).permutation(n) if shuffle else np.arange(n)
    yield from _batches(points, batch_size, order)


def _batches(
    points: np.ndarray, batch_size: int, order: np.ndarray
) -> Iterator[np.ndarray]:
    """:func:`iter_batches` after its checks: row batches of an array the
    caller has already validated, visited in ``order``."""
    for start in range(0, order.shape[0], batch_size):
        yield points[order[start:start + batch_size]]


def make_drifting_stream(
    num_batches: int,
    batch_size: int,
    d: int,
    k: int,
    drift: float = 1.0,
    separation: float = 6.0,
    cluster_std: float = 1.0,
    seed: SeedLike = None,
) -> Tuple[List[np.ndarray], np.ndarray]:
    """A non-stationary stream: cluster centers translate a little per batch.

    Every batch is a ``k``-component Gaussian mixture whose centers have
    moved by ``drift`` (in units of ``cluster_std``) along a fixed random
    direction since the previous batch, so the optimal centers of the recent
    window diverge from those of the full prefix — the workload the
    sliding-window mode exists for.

    Returns ``(batches, final_centers)`` where ``final_centers`` are the
    mixture centers of the *last* batch.
    """
    num_batches = check_positive_int(num_batches, "num_batches")
    batch_size = check_positive_int(batch_size, "batch_size")
    d = check_positive_int(d, "d")
    k = check_positive_int(k, "k")
    rng = as_generator(seed)

    centers = rng.standard_normal((k, d)) * separation
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    step = direction * drift * cluster_std

    batches: List[np.ndarray] = []
    for _ in range(num_batches):
        labels = rng.integers(0, k, size=batch_size)
        batch = centers[labels] + rng.standard_normal((batch_size, d)) * cluster_std
        batches.append(batch)
        centers = centers + step
    return batches, centers - step
