"""Location-noise models (Section IV-A, Eq. 3 of the paper).

An observed location ``ℓ`` in a trajectory is not a certain position: the
localization process is noisy, so the paper models each observation as an
outcome of a probability distribution ``f(r, ℓ)`` over grid cells — the
likelihood that the *true* position is cell ``r`` given the observation
``ℓ``.  The distribution may be arbitrary; the paper (and our default) uses
an isotropic Gaussian on the distance between ``ℓ`` and the cell center.

Every model exposes two evaluation modes:

* :meth:`NoiseModel.cell_distribution` — sparse/truncated support (the cells
  where the probability is non-negligible), which every STP evaluator uses;
  :meth:`NoiseModel.cell_distributions` evaluates it for a whole
  trajectory in one vectorized pass (candidate windows, radius mask and
  distances of all observations together), bitwise equal to the
  per-point call, which stays the reference;
* :meth:`NoiseModel.dense_distribution` — the full ``|R|``-vector, used by
  tests that verify truncation is faithful.

Both return distributions normalized to sum to 1 over their support, as
required by Algorithm 1 of the paper.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .grid import Grid

__all__ = [
    "NoiseModel",
    "GaussianNoiseModel",
    "DeterministicNoiseModel",
    "UniformDiskNoiseModel",
]


class NoiseModel(ABC):
    """Maps an observed location to a probability distribution over cells."""

    @abstractmethod
    def support_radius(self, grid: Grid) -> float:
        """Radius (meters) beyond which the density is treated as zero."""

    @abstractmethod
    def _weight(self, distances: np.ndarray) -> np.ndarray:
        """Unnormalized density at cell centers at the given distances.

        Elementwise: :meth:`cell_distributions` passes the distances of
        many observations in one array.
        """

    # ------------------------------------------------------------------
    def cell_distribution(self, grid: Grid, x: float, y: float) -> tuple[np.ndarray, np.ndarray]:
        """Sparse distribution over cells for an observation at ``(x, y)``.

        Returns ``(cells, probs)`` where ``cells`` are flat grid indices
        (sorted ascending) and ``probs`` sums to 1.  The support always
        contains at least the cell holding ``(x, y)``, so the result is
        well-defined even for very tight noise.
        """
        radius = self.support_radius(grid)
        cells = grid.cells_within(x, y, radius)
        if len(cells) == 0:
            cells = np.array([grid.cell_of(x, y)], dtype=int)
        dist = grid.distances_from(x, y, cells)
        weights = self._weight(dist)
        total = weights.sum()
        if total <= 0 or not np.isfinite(total):
            # Degenerate support (e.g. zero-width noise): point mass on the
            # containing cell.
            cells = np.array([grid.cell_of(x, y)], dtype=int)
            return cells, np.ones(1)
        return cells, weights / total

    def cell_distributions(
        self, grid: Grid, xs: np.ndarray, ys: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """:meth:`cell_distribution` at every ``(xs[i], ys[i])``, in one pass.

        The candidate windows, the radius mask and the distances of all
        points are computed together, and :meth:`_weight` sees every
        distance at once, so it must be elementwise (a model whose weights
        depend on a point's whole support overrides this method, as
        :class:`DeterministicNoiseModel` does).  Each point is normalized
        by summing only its own cells, in ascending order, so every result
        is bitwise ``cell_distribution(grid, x, y)``.
        """
        xs = np.asarray(xs, dtype=float).ravel()
        ys = np.asarray(ys, dtype=float).ravel()
        owners, cells = grid.cells_within_many(xs, ys, self.support_radius(grid))
        counts = np.bincount(owners, minlength=xs.size)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            # No cell centre within the radius: the containing cell alone.
            owned = grid.cells_of(np.column_stack([xs[empty], ys[empty]]))
            order = np.argsort(np.concatenate([owners, empty]), kind="stable")
            owners = np.concatenate([owners, empty])[order]
            cells = np.concatenate([cells, owned])[order]
            counts[empty] = 1
        centers = grid.centers()[cells]
        weights = self._weight(np.hypot(centers[:, 0] - xs[owners], centers[:, 1] - ys[owners]))
        out = []
        start = 0
        for k, stop in enumerate(np.cumsum(counts).tolist()):
            support = weights[start:stop]
            total = support.sum()
            if total <= 0 or not math.isfinite(total):
                cell = grid.cell_of(float(xs[k]), float(ys[k]))
                out.append((np.array([cell], dtype=int), np.ones(1)))
            else:
                out.append((cells[start:stop], support / total))
            start = stop
        return out

    def dense_distribution(self, grid: Grid, x: float, y: float) -> np.ndarray:
        """Full ``|R|``-vector distribution (normalized), untruncated."""
        dist = grid.distances_from(x, y)
        weights = self._weight(dist)
        total = weights.sum()
        if total <= 0 or not np.isfinite(total):
            dense = np.zeros(grid.n_cells)
            dense[grid.cell_of(x, y)] = 1.0
            return dense
        return weights / total


class GaussianNoiseModel(NoiseModel):
    """Isotropic Gaussian location noise (Eq. 3 of the paper).

    ``f(r, ℓ) ∝ exp(-dis(ℓ, r) / (2σ²))`` evaluated at cell centers.

    .. note::
       Eq. 3 as printed uses ``dis(ℓ, r)`` (not squared) in the exponent.
       We follow the standard Gaussian form ``dis²`` — the printed form is a
       typo (the paper cites the Gaussian as "widely used to model location
       noise", and a non-squared exponent is a Laplace kernel).  Set
       ``squared=False`` to reproduce the literal printed formula; both are
       normalized over the grid so the difference is a slightly heavier
       tail.

    Parameters
    ----------
    sigma:
        Noise standard deviation in meters (the localization error of the
        sensing system; ~3 m for the mall WiFi system in the paper).
    truncate:
        Support radius in standard deviations.  4σ keeps >99.99% of mass.
    squared:
        Use the standard Gaussian ``exp(-d²/2σ²)`` (default) or the paper's
        literal ``exp(-d/2σ²)``.
    """

    def __init__(self, sigma: float, truncate: float = 4.0, squared: bool = True):
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        if truncate <= 0:
            raise ValueError(f"truncate must be positive, got {truncate}")
        self.sigma = float(sigma)
        self.truncate = float(truncate)
        self.squared = bool(squared)

    def support_radius(self, grid: Grid) -> float:
        # At least one cell diagonal, so tight noise still spans the cell
        # containing the observation and its immediate neighbors.
        return max(self.truncate * self.sigma, grid.cell_size * math.sqrt(2.0))

    def _weight(self, distances: np.ndarray) -> np.ndarray:
        if self.squared:
            z = distances**2 / (2.0 * self.sigma**2)
        else:
            z = distances / (2.0 * self.sigma**2)
        return np.exp(-z)

    def __repr__(self) -> str:
        return f"GaussianNoiseModel(sigma={self.sigma}, truncate={self.truncate})"


class DeterministicNoiseModel(NoiseModel):
    """No noise: a point mass on the cell containing the observation.

    This is the location model of the STS-N ablation variant (Section VI-C),
    where each observed location is treated as a deterministic point.
    """

    def support_radius(self, grid: Grid) -> float:
        return 0.0

    def _weight(self, distances: np.ndarray) -> np.ndarray:
        # Only reached with a non-empty candidate set; mass goes to the
        # nearest center.
        weights = np.zeros_like(distances)
        weights[int(np.argmin(distances))] = 1.0
        return weights

    def cell_distribution(self, grid: Grid, x: float, y: float) -> tuple[np.ndarray, np.ndarray]:
        cell = grid.cell_of(x, y)
        return np.array([cell], dtype=int), np.ones(1)

    def cell_distributions(
        self, grid: Grid, xs: np.ndarray, ys: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        return [self.cell_distribution(grid, x, y) for x, y in zip(xs, ys)]

    def dense_distribution(self, grid: Grid, x: float, y: float) -> np.ndarray:
        dense = np.zeros(grid.n_cells)
        dense[grid.cell_of(x, y)] = 1.0
        return dense

    def __repr__(self) -> str:
        return "DeterministicNoiseModel()"


class UniformDiskNoiseModel(NoiseModel):
    """Uniform noise over a disk of fixed radius.

    Demonstrates the paper's claim that ``f`` may be *any* distribution:
    useful for localization systems that report a confidence radius rather
    than a Gaussian error (e.g. cell-tower positioning).
    """

    def __init__(self, radius: float):
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        self.radius = float(radius)

    def support_radius(self, grid: Grid) -> float:
        return max(self.radius, grid.cell_size * math.sqrt(2.0))

    def _weight(self, distances: np.ndarray) -> np.ndarray:
        return (distances <= self.radius).astype(float)

    def __repr__(self) -> str:
        return f"UniformDiskNoiseModel(radius={self.radius})"
