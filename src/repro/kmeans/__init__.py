"""Weighted k-means substrate.

This package provides the clustering machinery the paper's pipelines depend
on: cost functions (Eq. 1 and 4), k-means++ / D²-sampling seeding, a weighted
Lloyd solver used both at the edge server and as the reference solver for the
optimal-cost denominator, and the bicriteria approximation (adaptive
sampling) used by sensitivity sampling and by the lower bound ``E`` in the
quantizer configuration of Section 6.3.
"""

from repro.kmeans.cost import (
    kmeans_cost,
    weighted_kmeans_cost,
    assign_to_centers,
    assign_and_cost,
    cluster_means,
)
from repro.kmeans.seeding import kmeans_plus_plus, d2_sampling
from repro.kmeans.lloyd import WeightedKMeans, KMeansResult
from repro.kmeans.bicriteria import bicriteria_approximation, BicriteriaResult

__all__ = [
    "kmeans_cost",
    "weighted_kmeans_cost",
    "assign_to_centers",
    "assign_and_cost",
    "cluster_means",
    "kmeans_plus_plus",
    "d2_sampling",
    "WeightedKMeans",
    "KMeansResult",
    "bicriteria_approximation",
    "BicriteriaResult",
]
