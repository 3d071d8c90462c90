"""Datasets: synthetic substitutes for the paper's MNIST and NeurIPS data.

The paper evaluates on the MNIST training images (60,000 × 784) and the
NeurIPS 1987–2015 word-count matrix (11,463 × 5,812), both normalized to
[-1, 1] with zero mean.  Those files are not available offline, so this
package provides synthetic generators that reproduce the structural
properties the algorithms are sensitive to — size, dimension, cluster
structure, sparsity, and spectral decay — plus the paper's normalization.
"""

from repro.datasets.synthetic import (
    make_gaussian_mixture,
    make_mnist_like,
    make_neurips_like,
    DatasetSpec,
)
from repro.datasets.loaders import normalize_dataset, load_benchmark_dataset
from repro.datasets.streams import iter_batches, make_drifting_stream

__all__ = [
    "make_gaussian_mixture",
    "make_mnist_like",
    "make_neurips_like",
    "DatasetSpec",
    "normalize_dataset",
    "load_benchmark_dataset",
    "iter_batches",
    "make_drifting_stream",
]
