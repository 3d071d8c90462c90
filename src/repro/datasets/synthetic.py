"""Synthetic dataset generators.

Three generators:

* :func:`make_gaussian_mixture` — generic well-separated Gaussian clusters,
  used by unit tests and the scaling benchmark (Table 2 validation).
* :func:`make_mnist_like` — a substitute for the MNIST training set:
  dense low-ish dimensional (784 by default) points drawn from a mixture of
  smooth "digit prototype" blobs with pixel-like bounded values and moderate
  spectral decay.
* :func:`make_neurips_like` — a substitute for the NeurIPS word-count
  matrix: high-dimensional, sparse, non-negative, heavy-tailed counts with a
  rapidly decaying spectrum (documents/words concentrate on few topics).

Both named generators then apply the paper's normalization (shift to zero
mean, scale to [-1, 1]), which :func:`repro.datasets.loaders.normalize_dataset`
implements; they run its in-place core on the array they built, after the
same finite check.

:func:`make_mnist_like` allocates its output once and fills it in place: the
noise is drawn straight into it, and each block of ``_ROWS_PER_BLOCK`` rows
is scaled, offset by its prototypes, dimmed and clipped there.  Apart from
the output it holds one block's temporaries (the finite check allocates no
mask): a ``tracemalloc`` peak of about 1.07× the output's bytes at
4096 × 784, where building it whole held 3.0×.  The values are the
whole-array construction's bit for bit (``tests/test_datasets.py`` compares
them with a frozen copy of it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.datasets.loaders import _normalize_in_place
from repro.utils.random import SeedLike, as_generator
from repro.utils.validation import check_matrix, check_positive_int

# make_mnist_like builds its output in blocks of this many rows, so the
# gathered prototype and pixel-factor rows are never (n, d) temporaries.
# Generating 20000 x 784 took the same time at 128 to 2048 rows per block
# (0.218-0.226 s best of 7, 2-vCPU VM, numpy 2.4); at 256 a block temporary
# stays under 7% of the output from 4096 rows up.
_ROWS_PER_BLOCK = 256


@dataclass(frozen=True)
class DatasetSpec:
    """Description of a generated dataset, carried through experiment logs."""

    name: str
    n: int
    d: int
    k_hint: int
    notes: str = ""


def make_gaussian_mixture(
    n: int,
    d: int,
    k: int,
    separation: float = 6.0,
    cluster_std: float = 1.0,
    weights: Optional[np.ndarray] = None,
    seed: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample a mixture of ``k`` isotropic Gaussians in ``R^d``.

    Returns ``(points, labels, centers)``.  ``separation`` controls the
    distance scale between cluster centers relative to ``cluster_std``.
    """
    n = check_positive_int(n, "n")
    d = check_positive_int(d, "d")
    k = check_positive_int(k, "k")
    rng = as_generator(seed)

    if weights is None:
        mixture_weights = np.full(k, 1.0 / k)
    else:
        mixture_weights = np.asarray(weights, dtype=float)
        if mixture_weights.shape != (k,):
            raise ValueError(f"weights must have shape ({k},)")
        if np.any(mixture_weights < 0) or mixture_weights.sum() <= 0:
            raise ValueError("weights must be non-negative and sum to a positive value")
        mixture_weights = mixture_weights / mixture_weights.sum()

    centers = rng.standard_normal((k, d)) * separation
    labels = rng.choice(k, size=n, p=mixture_weights)
    points = centers[labels] + rng.standard_normal((n, d)) * cluster_std
    return points, labels, centers


def make_mnist_like(
    n: int = 6000,
    d: int = 784,
    n_prototypes: int = 10,
    pixel_sparsity: float = 0.55,
    noise_scale: float = 0.25,
    seed: SeedLike = None,
    normalize: bool = True,
) -> Tuple[np.ndarray, DatasetSpec]:
    """Synthetic substitute for the MNIST training images.

    Construction: ``n_prototypes`` smooth prototype images are generated by
    low-pass filtering random pixel fields (so prototypes have the spatial
    correlation of digit strokes); each sample is a prototype plus pixel
    noise, with a large fraction of background pixels dimmed to 5% (MNIST
    images are mostly background).  Values are clipped to [0, 1] ("ink
    intensity") before the paper's normalization.  The output is the one
    ``(n, d)`` allocation (see the module docstring).

    Returns ``(points, spec)``.
    """
    n = check_positive_int(n, "n")
    d = check_positive_int(d, "d")
    n_prototypes = check_positive_int(n_prototypes, "n_prototypes")
    rng = as_generator(seed)

    side = int(np.sqrt(d))
    prototypes = np.empty((n_prototypes, d))
    for i in range(n_prototypes):
        field = rng.random(d)
        if side * side == d and side >= 5:
            # Smooth the field with a separable moving average to create
            # stroke-like spatially correlated structure.  (`same`-mode
            # convolution returns max(M, N) samples, so images narrower
            # than the kernel stay unsmoothed instead of breaking.)
            image = field.reshape(side, side)
            kernel = np.ones(5) / 5.0
            image = np.apply_along_axis(
                lambda row: np.convolve(row, kernel, mode="same"), 1, image
            )
            image = np.apply_along_axis(
                lambda col: np.convolve(col, kernel, mode="same"), 0, image
            )
            field = image.ravel()
        prototypes[i] = field

    labels = rng.integers(0, n_prototypes, size=n)
    # The noise is drawn straight into the output: the same stream as
    # ``rng.standard_normal((n, d))``.
    points = np.empty((n, d))
    rng.standard_normal(out=points)
    # Background sparsity: the pixels below a prototype's ``pixel_sparsity``
    # quantile are scaled by 0.05 in all samples of that prototype.
    pixel_factor = np.ones((n_prototypes, d))
    for i in range(n_prototypes):
        threshold = np.quantile(prototypes[i], pixel_sparsity)
        pixel_factor[i, prototypes[i] < threshold] = 0.05
    # Each element becomes ``clip((p + s·z)·f)``; addition and multiplication
    # commute and ``x * 1.0 == x``, so these are the bits of adding the
    # gathered prototypes to the scaled noise and dimming the dim pixels.
    for start in range(0, n, _ROWS_PER_BLOCK):
        block = points[start:start + _ROWS_PER_BLOCK]
        rows = labels[start:start + _ROWS_PER_BLOCK]
        block *= noise_scale
        block += prototypes[rows]
        block *= pixel_factor[rows]
        np.clip(block, 0.0, 1.0, out=block)

    if normalize:
        points = _normalize_in_place(check_matrix(points, "points"))
    spec = DatasetSpec(
        name="mnist-like",
        n=n,
        d=d,
        k_hint=n_prototypes,
        notes="synthetic substitute for the MNIST training set (see the repro.datasets docstring)",
    )
    return points, spec


def make_neurips_like(
    n: int = 4000,
    d: int = 2000,
    n_topics: int = 25,
    density: float = 0.05,
    zipf_exponent: float = 0.8,
    seed: SeedLike = None,
    normalize: bool = True,
) -> Tuple[np.ndarray, DatasetSpec]:
    """Synthetic substitute for the NeurIPS 1987–2015 word-count dataset.

    Construction: a latent topic model.  Each of the ``n`` rows (words, in
    the paper's orientation) has a heavy-tailed total count drawn from a Zipf
    law; counts are spread over the ``d`` columns (papers) according to a
    small number of topics, producing a sparse non-negative matrix whose
    spectrum decays quickly — the property that makes the dataset
    "sufficiently high-dimensional" for JL+FSS+JL to shine (Section 7.2).

    The default ``zipf_exponent`` is calibrated so that the k = 2
    between-cluster / within-cluster variance ratio of the normalized matrix
    is moderate, matching the regime of the real NeurIPS word-count data
    where the paper reports normalized k-means costs between 1.0 and 1.25.

    Returns ``(points, spec)``.
    """
    n = check_positive_int(n, "n")
    d = check_positive_int(d, "d")
    n_topics = check_positive_int(n_topics, "n_topics")
    rng = as_generator(seed)

    # Topic loadings for words (rows) and papers (columns).
    word_topics = rng.dirichlet(np.full(n_topics, 0.2), size=n)
    paper_topics = rng.dirichlet(np.full(n_topics, 0.3), size=d)
    # Heavy-tailed per-word total counts (Zipf-like).
    ranks = np.arange(1, n + 1, dtype=float)
    rng.shuffle(ranks)
    totals = (ranks ** (-zipf_exponent)) * n * 10.0

    expected = word_topics @ paper_topics.T
    expected *= totals[:, None] / np.maximum(expected.sum(axis=1, keepdims=True), 1e-12)
    # Sparsify: keep only a `density` fraction of entries (the largest per row
    # plus random noise in selection), then draw Poisson counts.
    points = np.zeros((n, d))
    keep = max(1, int(density * d))
    for i in range(n):
        top = np.argpartition(expected[i], -keep)[-keep:]
        points[i, top] = rng.poisson(np.maximum(expected[i, top], 1e-9))

    if normalize:
        points = _normalize_in_place(check_matrix(points, "points"))
    spec = DatasetSpec(
        name="neurips-like",
        n=n,
        d=d,
        k_hint=n_topics,
        notes="synthetic substitute for the NeurIPS word-count matrix (see the repro.datasets docstring)",
    )
    return points, spec
