"""Shared low-level utilities: RNG handling, linear algebra, validation."""

from repro.utils.random import as_generator, spawn_generators
from repro.utils.linalg import (
    moore_penrose_inverse,
    right_svd,
    safe_svd,
    squared_norms,
    pairwise_squared_distances,
)
from repro.utils.validation import (
    check_matrix,
    check_weights,
    check_positive_int,
    check_fraction,
)

__all__ = [
    "as_generator",
    "spawn_generators",
    "moore_penrose_inverse",
    "right_svd",
    "safe_svd",
    "squared_norms",
    "pairwise_squared_distances",
    "check_matrix",
    "check_weights",
    "check_positive_int",
    "check_fraction",
]
