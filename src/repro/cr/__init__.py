"""Cardinality reduction (CR): coreset constructions for k-means.

The paper's CR primitive is the FSS coreset (Feldman–Schmidt–Sohler,
reference [11], Theorem 3.2): project the data onto its top principal
subspace to bound the intrinsic dimension, then run sensitivity sampling on
the projected points, carrying the discarded energy as a constant shift Δ in
the generalized coreset definition (Definition 3.2).

Also provided: plain sensitivity sampling (used directly by disSS in the
distributed setting) and a uniform-sampling coreset as an ablation baseline.
"""

from repro.cr.coreset import Coreset
from repro.cr.sensitivity import SensitivitySampler
from repro.cr.fss import FSSCoreset
from repro.cr.uniform import UniformCoreset

__all__ = [
    "Coreset",
    "SensitivitySampler",
    "FSSCoreset",
    "UniformCoreset",
]
