"""Dimensionality reduction (DR) methods for k-means.

Two families, mirroring Section 3.2 of the paper:

* :class:`JLProjection` — data-oblivious random (Johnson–Lindenstrauss)
  projections.  Because the projection matrix can be derived from a shared
  seed, transmitting it costs nothing, which is the key to the
  communication-cost savings of Algorithms 1, 3, and 4.
* :class:`PCAProjection` — SVD-based projection onto the top singular
  subspace, used inside FSS / disPCA.  Unlike JL, its basis is data-dependent
  and must be shipped to the server, costing ``O(d * d')`` scalars.

Both take their geometry (target dimension, rank) explicitly;
:mod:`repro.stages.sizing` derives it.
"""

from repro.dr.jl import JLProjection
from repro.dr.pca import PCAProjection

__all__ = [
    "JLProjection",
    "PCAProjection",
]
