"""Dataset normalization and the benchmark dataset registry.

The paper normalizes both datasets "to [-1, 1] with zero mean" (Section 7.1).
:func:`normalize_dataset` implements that: subtract the global column means,
then scale by the maximum absolute value so every entry lies in [-1, 1].
It is its check, one copy, and the in-place core
:func:`_normalize_in_place`, which the generators run on the arrays they
build, so a generated dataset is normalized without a second ``(n, d)``
buffer.

:func:`load_benchmark_dataset` is the single entry point used by examples and
benchmarks; it maps the names ``"mnist"`` and ``"neurips"`` to the synthetic
substitutes (see the :mod:`repro.datasets` docstring) at a configurable
scale.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.utils.random import SeedLike
from repro.utils.validation import check_matrix


def normalize_dataset(points: np.ndarray) -> np.ndarray:
    """Zero-mean, [-1, 1] normalization used by the paper's experiments.

    Returns a new array and leaves ``points`` untouched; the copy is the one
    ``(n, d)`` allocation.  Columns with zero variance are left at zero after
    centering.
    """
    return _normalize_in_place(check_matrix(points, "points").copy())


def _normalize_in_place(points: np.ndarray) -> np.ndarray:
    """Trusted core of :func:`normalize_dataset`: normalizes a checked
    ``float64`` matrix in place and returns it.

    The scale is ``max(points.max(), -points.min())``, which equals
    ``np.max(np.abs(points))`` on finite input without its ``(n, d)``
    temporary.  The generators call it on arrays they own, after
    ``check_matrix``.
    """
    points -= points.mean(axis=0, keepdims=True)
    max_abs = max(points.max(), -points.min())
    if max_abs > 0:
        points /= max_abs
    return points


def load_benchmark_dataset(
    name: str,
    n: Optional[int] = None,
    d: Optional[int] = None,
    seed: SeedLike = 0,
) -> Tuple[np.ndarray, "DatasetSpec"]:
    """Load one of the two benchmark datasets by name.

    Parameters
    ----------
    name:
        ``"mnist"`` or ``"neurips"`` (case-insensitive).  The synthetic
        substitutes are generated on the fly; sizes default to laptop-scale
        values and can be overridden with ``n`` and ``d``.
    n, d:
        Optional size overrides (pass the paper's full 60,000 × 784 /
        11,463 × 5,812 to run at paper scale).  Generation holds about
        1.07× the result's bytes for ``"mnist"`` (359 MiB at paper scale)
        and about 2.0× for ``"neurips"``, whose expected-count matrix has
        the result's shape.
    seed:
        Generation seed, for reproducibility across benchmark runs.
    """
    from repro.datasets.synthetic import make_mnist_like, make_neurips_like

    key = name.strip().lower()
    if key in ("mnist", "mnist-like"):
        return make_mnist_like(n=n or 6000, d=d or 784, seed=seed)
    if key in ("neurips", "nips", "neurips-like"):
        return make_neurips_like(n=n or 4000, d=d or 2000, seed=seed)
    raise ValueError(
        f"unknown dataset {name!r}; available: 'mnist', 'neurips'"
    )
