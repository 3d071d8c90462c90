"""Closed-form communication/complexity scalings of Table 2.

The paper summarizes its analysis in Table 2: for each algorithm, the
communication cost and the data-source computational complexity as functions
of ``(n, d, k, m, ε)``.  This module evaluates those expressions (up to the
hidden constants, which cancel when comparing growth rates), so the scaling
benchmark (``benchmarks/test_table2_scaling.py``) can check that the
*measured* costs of the implementation grow the way the theory predicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.utils.validation import check_fraction, check_positive_int


@dataclass(frozen=True)
class TheoreticalCosts:
    """Predicted communication cost and source complexity for one algorithm.

    Values are the Table 2 expressions evaluated without hidden constants;
    they are meaningful only for *comparisons across input sizes or across
    algorithms*, never as absolute scalar counts.
    """

    algorithm: str
    communication: float
    complexity: float


def _log(x: float) -> float:
    return math.log(max(x, 2.0))


def theoretical_costs(
    algorithm: str,
    n: int,
    d: int,
    k: int,
    epsilon: float,
    m: int = 1,
) -> TheoreticalCosts:
    """Evaluate the Table 2 row for ``algorithm`` at the given parameters.

    Supported names (case-insensitive): ``"FSS"``, ``"JL+FSS"``, ``"FSS+JL"``,
    ``"JL+FSS+JL"``, ``"BKLW"``, ``"JL+BKLW"``, and ``"NR"`` (raw data, for
    reference).
    """
    n = check_positive_int(n, "n")
    d = check_positive_int(d, "d")
    k = check_positive_int(k, "k")
    m = check_positive_int(m, "m")
    epsilon = check_fraction(epsilon, "epsilon")

    e2 = epsilon**2
    e4 = epsilon**4
    e6 = epsilon**6
    key = algorithm.strip().lower().replace(" ", "")

    if key in ("nr", "raw", "noreduction"):
        return TheoreticalCosts(algorithm, communication=float(n * d), complexity=0.0)
    if key == "fss":
        return TheoreticalCosts(
            algorithm,
            communication=k * d / e2,
            complexity=n * d * min(n, d),
        )
    if key in ("jl+fss", "alg1"):
        return TheoreticalCosts(
            algorithm,
            communication=k * _log(n) / e4,
            complexity=n * d / e2,
        )
    if key in ("fss+jl", "alg2"):
        return TheoreticalCosts(
            algorithm,
            communication=(k**3) / e6,
            complexity=n * d * min(n, d),
        )
    if key in ("jl+fss+jl", "alg3"):
        return TheoreticalCosts(
            algorithm,
            communication=(k**3) / e6,
            complexity=n * d / e2,
        )
    if key == "bklw":
        return TheoreticalCosts(
            algorithm,
            communication=m * k * d / e2,
            complexity=n * d * min(n, d),
        )
    if key in ("jl+bklw", "alg4"):
        return TheoreticalCosts(
            algorithm,
            communication=m * k * _log(n) / e4,
            complexity=n * d / e4,
        )
    raise ValueError(f"unknown algorithm {algorithm!r}")


#: The rows of Table 2, in the paper's order, for iteration in benchmarks.
THEORY_TABLE_ROWS = (
    "FSS",
    "JL+FSS",
    "FSS+JL",
    "JL+FSS+JL",
    "BKLW",
    "JL+BKLW",
)


def scaling_table(
    n: int, d: int, k: int, epsilon: float, m: int = 10
) -> Dict[str, TheoreticalCosts]:
    """Evaluate every Table 2 row at one parameter point."""
    return {
        name: theoretical_costs(name, n, d, k, epsilon, m=m)
        for name in THEORY_TABLE_ROWS
    }
