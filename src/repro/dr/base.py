"""Abstract interface shared by all dimensionality-reduction maps."""

from __future__ import annotations

import abc

import numpy as np


class DimensionalityReducer(abc.ABC):
    """A linear map ``π : R^d -> R^{d'}`` applied row-wise to datasets.

    All DR methods in the paper are linear (JL projections and PCA), so the
    interface exposes the projection matrix, application to point sets, and
    lifting centers back to the original space through the Moore–Penrose
    pseudo-inverse (Section 3.1).
    """

    @property
    @abc.abstractmethod
    def input_dimension(self) -> int:
        """Dimension ``d`` of the original space."""

    @property
    @abc.abstractmethod
    def output_dimension(self) -> int:
        """Dimension ``d'`` of the projected space."""

    @abc.abstractmethod
    def transform(self, points: np.ndarray) -> np.ndarray:
        """Apply the map to every row of ``points`` (shape ``(n, d)``)."""

    @abc.abstractmethod
    def inverse_transform(self, points: np.ndarray) -> np.ndarray:
        """Lift points from the projected space back to ``R^d``.

        The lift is not the inverse of the map (the map is not injective);
        it is *an* inverse in the sense of Section 3.1: any solution of
        ``π(x̃) = x'``, here the Moore–Penrose one.
        """

    @property
    @abc.abstractmethod
    def transmitted_scalars(self) -> int:
        """Number of scalars the data source must send to describe the map.

        Zero for data-oblivious maps (JL with a shared seed); ``d * d'`` for
        data-dependent maps whose basis must be shipped (PCA).
        """

    # Convenience -----------------------------------------------------------
    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.transform(points)

    def describe(self) -> str:
        """Short human-readable description used by experiment logs."""
        return (
            f"{type(self).__name__}({self.input_dimension} -> "
            f"{self.output_dimension})"
        )

    def lift_through(self, outer: "DimensionalityReducer", points: np.ndarray) -> np.ndarray:
        """Pull points back through ``outer`` then through ``self``.

        Utility for Algorithm 3, where centers found in the twice-projected
        space must be lifted through ``(π1^(2) ∘ π1^(1))^{-1}``: first invert
        the outer (second) projection, then this (first) one.
        """
        return self.inverse_transform(outer.inverse_transform(points))


class IdentityReducer(DimensionalityReducer):
    """No-op DR map, handy for baselines and for unit testing pipelines."""

    def __init__(self, dimension: int) -> None:
        if dimension <= 0:
            raise ValueError(f"dimension must be positive, got {dimension}")
        self._dimension = int(dimension)

    @property
    def input_dimension(self) -> int:
        return self._dimension

    @property
    def output_dimension(self) -> int:
        return self._dimension

    def transform(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[None, :]
        if points.shape[1] != self._dimension:
            raise ValueError(
                f"expected {self._dimension}-dimensional points, got {points.shape[1]}"
            )
        return points.copy()

    def inverse_transform(self, points: np.ndarray) -> np.ndarray:
        return self.transform(points)

    @property
    def transmitted_scalars(self) -> int:
        return 0
