"""Tests for repro.datasets — synthetic generators and normalization."""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.datasets.loaders import load_benchmark_dataset, normalize_dataset
from repro.datasets.synthetic import (
    DatasetSpec,
    make_gaussian_mixture,
    make_mnist_like,
    make_neurips_like,
)
from repro.kmeans.cost import kmeans_cost
from repro.kmeans.lloyd import solve_reference_kmeans
from repro.utils.random import as_generator
from repro.utils.validation import check_matrix, check_positive_int


# ---------------------------------------------------------------------------
# Frozen copy of the whole-array construction the generators replaced: each
# built its dataset from (n, d) temporaries and normalized a copy of it.  The
# statements are verbatim; only the names, docstrings and comments differ.
# The in-place generators must return these arrays byte for byte.
# ---------------------------------------------------------------------------

def frozen_normalize_dataset(points):
    """The whole-array normalization (copy, ``np.abs`` temporary)."""
    points = check_matrix(points, "points").copy()
    points -= points.mean(axis=0, keepdims=True)
    max_abs = np.max(np.abs(points))
    if max_abs > 0:
        points /= max_abs
    return points


def frozen_make_mnist_like(
    n=6000,
    d=784,
    n_prototypes=10,
    pixel_sparsity=0.55,
    noise_scale=0.25,
    seed=None,
    normalize=True,
):
    """The whole-array MNIST-like generator (three (n, d) copies at once)."""
    n = check_positive_int(n, "n")
    d = check_positive_int(d, "d")
    n_prototypes = check_positive_int(n_prototypes, "n_prototypes")
    rng = as_generator(seed)

    side = int(np.sqrt(d))
    prototypes = np.empty((n_prototypes, d))
    for i in range(n_prototypes):
        field = rng.random(d)
        if side * side == d and side >= 5:
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
    points = prototypes[labels] + noise_scale * rng.standard_normal((n, d))
    for i in range(n_prototypes):
        threshold = np.quantile(prototypes[i], pixel_sparsity)
        dim_pixels = np.flatnonzero(prototypes[i] < threshold)
        rows = np.flatnonzero(labels == i)
        if rows.size and dim_pixels.size:
            points[np.ix_(rows, dim_pixels)] *= 0.05
    np.clip(points, 0.0, 1.0, out=points)

    if normalize:
        points = frozen_normalize_dataset(points)
    spec = DatasetSpec(
        name="mnist-like",
        n=n,
        d=d,
        k_hint=n_prototypes,
        notes="synthetic substitute for the MNIST training set (see the repro.datasets docstring)",
    )
    return points, spec


def frozen_make_neurips_like(
    n=4000,
    d=2000,
    n_topics=25,
    density=0.05,
    zipf_exponent=0.8,
    seed=None,
    normalize=True,
):
    """The NeurIPS-like generator that normalized a copy of its counts."""
    n = check_positive_int(n, "n")
    d = check_positive_int(d, "d")
    n_topics = check_positive_int(n_topics, "n_topics")
    rng = as_generator(seed)

    word_topics = rng.dirichlet(np.full(n_topics, 0.2), size=n)
    paper_topics = rng.dirichlet(np.full(n_topics, 0.3), size=d)
    ranks = np.arange(1, n + 1, dtype=float)
    rng.shuffle(ranks)
    totals = (ranks ** (-zipf_exponent)) * n * 10.0

    expected = word_topics @ paper_topics.T
    expected *= totals[:, None] / np.maximum(expected.sum(axis=1, keepdims=True), 1e-12)
    points = np.zeros((n, d))
    keep = max(1, int(density * d))
    for i in range(n):
        top = np.argpartition(expected[i], -keep)[-keep:]
        points[i, top] = rng.poisson(np.maximum(expected[i, top], 1e-9))

    if normalize:
        points = frozen_normalize_dataset(points)
    spec = DatasetSpec(
        name="neurips-like",
        n=n,
        d=d,
        k_hint=n_topics,
        notes="synthetic substitute for the NeurIPS word-count matrix (see the repro.datasets docstring)",
    )
    return points, spec


def assert_same_bytes(actual, expected):
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    assert actual.flags.c_contiguous
    assert actual.tobytes() == expected.tobytes()


def traced_peak(fn):
    """``(result, bytes)``: ``fn()`` and the ``tracemalloc`` peak of what it
    allocated (tracing starts with the call)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestNormalization:
    def test_zero_mean(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(5.0, 10.0, size=(100, 8))
        normalized = normalize_dataset(x)
        assert np.allclose(normalized.mean(axis=0), 0.0, atol=1e-10)

    def test_range_within_unit_box(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-100.0, 100.0, size=(50, 5))
        normalized = normalize_dataset(x)
        assert normalized.min() >= -1.0 - 1e-12
        assert normalized.max() <= 1.0 + 1e-12

    def test_constant_dataset(self):
        x = np.full((10, 3), 7.0)
        normalized = normalize_dataset(x)
        assert np.allclose(normalized, 0.0)

    def test_does_not_mutate_input(self):
        # A new array: the in-place core runs on a copy of the caller's.
        x = np.random.default_rng(2).uniform(-3.0, 5.0, size=(40, 6))
        original = x.copy()
        normalized = normalize_dataset(x)
        assert not np.shares_memory(normalized, x)
        assert x.tobytes() == original.tobytes()

    @pytest.mark.parametrize("shape", [(1, 3), (5, 1), (7, 25), (257, 50)])
    def test_same_bits_as_whole_array_normalization(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        for x in (rng.standard_normal(shape) * 3.0 + 1.0,
                  rng.uniform(0.0, 1.0, size=shape), np.zeros(shape)):
            assert_same_bytes(normalize_dataset(x), frozen_normalize_dataset(x))

    def test_peak_memory_is_the_one_copy(self):
        # The copy is the one (n, d) allocation: no np.abs temporary.  The
        # whole-array normalization peaked at 2.00x the output's bytes.
        x = np.random.default_rng(3).standard_normal((4096, 300))
        normalized, peak = traced_peak(lambda: normalize_dataset(x))
        assert peak <= 1.25 * normalized.nbytes


class TestGaussianMixture:
    def test_shapes(self):
        points, labels, centers = make_gaussian_mixture(200, 10, 4, seed=0)
        assert points.shape == (200, 10)
        assert labels.shape == (200,)
        assert centers.shape == (4, 10)

    def test_labels_in_range(self):
        _, labels, _ = make_gaussian_mixture(100, 5, 3, seed=1)
        assert labels.min() >= 0 and labels.max() < 3

    def test_separation_controls_cluster_structure(self):
        points, labels, centers = make_gaussian_mixture(
            500, 10, 4, separation=20.0, cluster_std=0.5, seed=2
        )
        planted_cost = kmeans_cost(points, centers)
        single = kmeans_cost(points, points.mean(axis=0, keepdims=True))
        assert planted_cost < 0.05 * single

    def test_custom_weights(self):
        _, labels, _ = make_gaussian_mixture(
            1000, 3, 2, weights=np.array([0.9, 0.1]), seed=3
        )
        counts = np.bincount(labels, minlength=2)
        assert counts[0] > counts[1]

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            make_gaussian_mixture(10, 2, 2, weights=np.array([1.0]), seed=0)
        with pytest.raises(ValueError):
            make_gaussian_mixture(10, 2, 2, weights=np.array([-1.0, 2.0]), seed=0)

    def test_reproducible(self):
        a, _, _ = make_gaussian_mixture(50, 4, 2, seed=9)
        b, _, _ = make_gaussian_mixture(50, 4, 2, seed=9)
        assert np.array_equal(a, b)


class TestMnistLike:
    def test_shape_and_spec(self):
        points, spec = make_mnist_like(n=300, d=196, n_prototypes=5, seed=0)
        assert points.shape == (300, 196)
        assert isinstance(spec, DatasetSpec)
        assert spec.name == "mnist-like"
        assert spec.k_hint == 5

    def test_normalized_by_default(self):
        points, _ = make_mnist_like(n=200, d=64, seed=1)
        assert abs(points.mean()) < 1e-8
        assert points.min() >= -1.0 - 1e-12 and points.max() <= 1.0 + 1e-12

    def test_unnormalized_values_in_unit_interval(self):
        points, _ = make_mnist_like(n=100, d=64, seed=2, normalize=False)
        assert points.min() >= 0.0 and points.max() <= 1.0

    def test_has_cluster_structure(self):
        points, spec = make_mnist_like(n=400, d=100, n_prototypes=4, seed=3)
        result = solve_reference_kmeans(points, 4, n_init=3, seed=0)
        single = kmeans_cost(points, points.mean(axis=0, keepdims=True))
        assert result.cost < single

    def test_reproducible(self):
        a, _ = make_mnist_like(n=50, d=49, seed=5)
        b, _ = make_mnist_like(n=50, d=49, seed=5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "n, d", list(itertools.product([1, 7, 257, 4097], [4, 25, 50, 784]))
    )
    def test_same_bits_as_whole_array_construction(self, n, d):
        # n = 257 and 4097 end in a one-row block; d = 25 and 784 are square
        # images that take the smoothing path, d = 4 is narrower than it.
        grid = itertools.product([3, 10], [0.0, 0.55, 0.9], [0.0, 0.25], [True, False])
        for seed, (n_prototypes, sparsity, noise, normalize) in enumerate(grid):
            kwargs = dict(n=n, d=d, n_prototypes=n_prototypes,
                          pixel_sparsity=sparsity, noise_scale=noise,
                          seed=seed, normalize=normalize)
            points, spec = make_mnist_like(**kwargs)
            expected, expected_spec = frozen_make_mnist_like(**kwargs)
            assert_same_bytes(points, expected)
            assert spec == expected_spec

    def test_peak_memory_is_one_output_plus_a_block(self):
        # The output is the one (n, d) allocation; a row block's gathered
        # prototypes and the finite check's boolean mask come on top.  The
        # whole-array construction peaked at 3.0x the output's bytes.
        make_mnist_like(n=8, d=784, seed=0)  # lazy numpy imports, untraced
        (points, _), peak = traced_peak(lambda: make_mnist_like(4096, 784, seed=1))
        assert peak <= 1.25 * points.nbytes

    def test_nan_noise_scale_fails_the_finite_check(self):
        with pytest.raises(ValueError, match="points contains NaN or infinite values"):
            make_mnist_like(n=20, d=16, noise_scale=float("nan"), seed=0)


class TestNeuripsLike:
    def test_shape_and_spec(self):
        points, spec = make_neurips_like(n=200, d=300, n_topics=8, seed=0)
        assert points.shape == (200, 300)
        assert spec.name == "neurips-like"

    def test_sparse_before_normalization(self):
        points, _ = make_neurips_like(n=150, d=400, density=0.05, seed=1, normalize=False)
        zero_fraction = np.mean(points == 0.0)
        assert zero_fraction > 0.7

    def test_nonnegative_before_normalization(self):
        points, _ = make_neurips_like(n=100, d=200, seed=2, normalize=False)
        assert points.min() >= 0.0

    def test_normalized_by_default(self):
        points, _ = make_neurips_like(n=100, d=200, seed=3)
        assert abs(points.mean()) < 1e-8

    def test_reproducible(self):
        a, _ = make_neurips_like(n=60, d=80, seed=7)
        b, _ = make_neurips_like(n=60, d=80, seed=7)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n, d", [(1, 4), (7, 25), (257, 50), (600, 300)])
    def test_same_bits_as_copying_normalization(self, n, d):
        for seed, normalize in enumerate([True, False]):
            kwargs = dict(n=n, d=d, n_topics=6, seed=seed, normalize=normalize)
            points, spec = make_neurips_like(**kwargs)
            expected, expected_spec = frozen_make_neurips_like(**kwargs)
            assert_same_bytes(points, expected)
            assert spec == expected_spec


class TestLoader:
    def test_mnist_alias(self):
        points, spec = load_benchmark_dataset("mnist", n=100, d=64, seed=0)
        assert points.shape == (100, 64)
        assert spec.name == "mnist-like"

    def test_neurips_alias(self):
        points, spec = load_benchmark_dataset("NeurIPS", n=80, d=120, seed=0)
        assert points.shape == (80, 120)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            load_benchmark_dataset("imagenet")
