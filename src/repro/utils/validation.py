"""Input validation helpers.

Public API entry points validate their inputs early and raise informative
exceptions; internal hot loops assume the checks have already run.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np


def check_matrix(
    points: np.ndarray,
    name: str = "points",
    min_rows: int = 1,
    min_cols: int = 1,
    allow_empty: bool = False,
) -> np.ndarray:
    """Validate and return a 2-D float array of data points.

    A 1-D array is promoted to a single-row matrix.  Raises ``ValueError`` on
    wrong dimensionality, NaN/Inf entries, or too-small shapes.

    Everything is cast to ``float64`` (contiguous float64 input passes
    through copy-free): the distance kernels use the expanded
    ``|x|² − 2x·y + |y|²`` formula, which is numerically unsafe in single
    precision.
    """
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got ndim={arr.ndim}")
    if not allow_empty:
        if arr.shape[0] < min_rows:
            raise ValueError(
                f"{name} must have at least {min_rows} row(s), got {arr.shape[0]}"
            )
        if arr.shape[1] < min_cols:
            raise ValueError(
                f"{name} must have at least {min_cols} column(s), got {arr.shape[1]}"
            )
    if not _all_finite(arr):
        raise ValueError(f"{name} contains NaN or infinite values")
    return arr


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of the float array is finite, without an
    ``arr``-sized mask.

    Any NaN or infinite entry makes the sum NaN or infinite, so a finite
    sum clears the array in one pass.  A sum that is not finite is either a
    bad entry or an overflow of finite entries (an all-``1e308`` matrix,
    for which numpy warns about the overflow); only then does the
    ``np.isfinite`` scan decide.
    """
    return math.isfinite(arr.sum()) or bool(np.isfinite(arr).all())


def check_weights(
    weights: Optional[np.ndarray], n: int, name: str = "weights"
) -> np.ndarray:
    """Validate a weight vector of length ``n``; ``None`` means unit weights."""
    if weights is None:
        return np.ones(n, dtype=float)
    arr = np.asarray(weights, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got ndim={arr.ndim}")
    if arr.shape[0] != n:
        raise ValueError(f"{name} must have length {n}, got {arr.shape[0]}")
    if not _all_finite(arr):
        raise ValueError(f"{name} contains NaN or infinite values")
    if np.any(arr < 0):
        raise ValueError(f"{name} must be non-negative")
    return arr


def check_integer(value: int, name: str) -> int:
    """Validate an integer parameter of any sign, such as a seed.

    ``bool`` is refused like ``float``: it subclasses ``int``, so without the
    explicit test ``k=True`` would silently run as ``k=1``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value)!r}")
    return int(value)


def check_positive_int(value: int, name: str, minimum: int = 1) -> int:
    """Validate an integer parameter such as ``k`` or a sample size."""
    value = check_integer(value, name)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_fraction(value: float, name: str, low: float = 0.0, high: float = 1.0,
                   inclusive_low: bool = False, inclusive_high: bool = False) -> float:
    """Validate a fraction-like parameter such as epsilon or delta.

    Text and booleans (Python or numpy) are refused like ``None``: ``float``
    would parse ``"0.2"`` and read ``False`` as 0.0.
    """
    try:
        if isinstance(value, (str, bytes, bool, np.bool_)):
            raise TypeError
        value = float(value)
    except TypeError:
        raise TypeError(f"{name} must be a real number, got {type(value)!r}") from None
    ok_low = value >= low if inclusive_low else value > low
    ok_high = value <= high if inclusive_high else value < high
    if not (ok_low and ok_high):
        lo = "[" if inclusive_low else "("
        hi = "]" if inclusive_high else ")"
        raise ValueError(f"{name} must be in {lo}{low}, {high}{hi}, got {value}")
    return value
