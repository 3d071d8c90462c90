"""Summary geometry: the one module that derives a coreset size, PCA rank,
JL dimension or disSS sample budget.

The theoretical constants of the paper (``Õ(k³/ε⁴)`` coresets,
``8 ε⁻² log(nk/δ)`` JL dimensions) exceed laptop-scale dataset sizes, so —
as in the paper's experiments (Section 7.1), which tune summary sizes so all
algorithms land in a comparable empirical error regime — these defaults are
large enough for stable k-means estimates yet a small fraction of the data.
Every stage accepts an explicit override and resolves it here; the DR/CR
primitives (:mod:`repro.dr`, :mod:`repro.cr`) take the resolved geometry.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.utils.validation import check_positive_int


def default_coreset_size(n: int, k: int) -> int:
    """Practical default coreset cardinality used when none is given."""
    return int(min(n, max(100, 200 * k)))


def default_jl_dimension(n: int, k: int, d: int, epsilon: float, delta: float) -> int:
    """Practical default JL target dimension ``⌈ε⁻² log(4nk/δ)⌉``, never
    exceeding ``d``.

    Lemma 4.1's ``O(ε⁻² log(nk/δ))`` with constant 1: the paper's constant 8
    (Section 6.3) routinely exceeds the ambient dimension at its scale.
    """
    return min(math.ceil(math.log(4.0 * n * k / delta) / epsilon**2), d)


def default_pca_rank(n: int, d: int, k: int) -> int:
    """Practical default PCA / FSS intrinsic rank ``t``: enough directions to
    capture ``k`` clusters with slack, but far below the ambient dimension.

    It is ``k + 2`` even when ``d < k + 2``; the fitted maps keep at most
    ``min(n, d)`` directions."""
    return max(k + 2, min(d, n, 5 * k))


def default_distributed_samples(m: int, k: int) -> int:
    """Practical default for the disSS global sample budget across ``m``
    sources (Theorem 5.2's constants exceed laptop-scale sizes)."""
    return max(100, 100 * k, 20 * m * k)


def resolve_coreset_size(size: Optional[int], n: int, k: int) -> int:
    """Coreset cardinality built from ``n`` points: the explicit ``size``
    capped at ``n``, or the default."""
    if size is not None:
        return min(check_positive_int(size, "coreset_size"), n)
    return default_coreset_size(n, k)


def resolve_distributed_samples(total_samples: Optional[int], m: int, k: int) -> int:
    """disSS global sample budget across ``m`` sources: the explicit
    ``total_samples``, or the default."""
    if total_samples is not None:
        return check_positive_int(total_samples, "total_samples")
    return default_distributed_samples(m, k)


def resolve_pca_rank(rank: Optional[int], n: int, d: int, k: int) -> int:
    """PCA rank for ``n`` points in ``d`` dimensions: the explicit ``rank``
    capped at ``min(n, d)``, or the default."""
    if rank is not None:
        return min(check_positive_int(rank, "pca_rank"), n, d)
    return default_pca_rank(n, d, k)


def resolve_jl_dimension(
    dimension: Optional[int], n: int, k: int, d: int, epsilon: float, delta: float
) -> int:
    """JL target dimension for ``n`` points in ``d`` dimensions: the explicit
    ``dimension`` capped at ``d``, or the default."""
    if dimension is not None:
        return min(check_positive_int(dimension, "jl_dimension"), d)
    return default_jl_dimension(n, k, d, epsilon, delta)
