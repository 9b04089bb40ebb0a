"""Unit tests for co-location probability (Eq. 8–9, Algorithm 1)."""

import numpy as np
import pytest

from repro.core.colocation import colocation_batch, colocation_probability
from repro.core.grid import Grid
from repro.core.kernel import colocation_terms
from repro.core.noise import DeterministicNoiseModel, GaussianNoiseModel
from repro.core.speed import KDESpeedModel
from repro.core.stprob import TrajectorySTP
from repro.core.transition import SpeedTransitionModel
from repro.core.trajectory import Trajectory


def make_stp(traj, grid, noise=None):
    noise = noise if noise is not None else GaussianNoiseModel(2.0)
    transition = SpeedTransitionModel(KDESpeedModel.from_trajectory(traj, approx=False))
    return TrajectorySTP(traj, grid, noise, transition)


def sparse_inner(a, b, n_cells=100):
    """One Eq. 9 term through the kernel's sparse product."""
    return colocation_terms([a], np.array([0]), [(np.array([0]), [b])], n_cells)[0, 0]


@pytest.fixture
def grid():
    return Grid(0, 0, 40, 20, cell_size=2.0)


class TestSparseInner:
    """The inner product of two sparse cell distributions (Eq. 9)."""

    def test_disjoint_supports(self):
        a = (np.array([0, 1]), np.array([0.5, 0.5]))
        b = (np.array([2, 3]), np.array([0.5, 0.5]))
        assert sparse_inner(a, b) == 0.0

    def test_identical_point_masses(self):
        a = (np.array([7]), np.array([1.0]))
        assert sparse_inner(a, a) == 1.0

    def test_partial_overlap(self):
        a = (np.array([0, 1, 2]), np.array([0.2, 0.3, 0.5]))
        b = (np.array([1, 2, 3]), np.array([0.4, 0.1, 0.5]))
        # Ascending-cell sequential sum of the products, bitwise.
        assert sparse_inner(a, b) == 0.3 * 0.4 + 0.5 * 0.1

    def test_empty_distribution(self):
        empty = (np.empty(0, dtype=int), np.empty(0))
        a = (np.array([0]), np.array([1.0]))
        assert sparse_inner(a, empty) == 0.0
        assert sparse_inner(empty, empty) == 0.0

    def test_bounded_by_one(self, rng):
        for _ in range(20):
            cells = np.sort(rng.choice(100, size=10, replace=False))
            pa = rng.dirichlet(np.ones(10))
            pb = rng.dirichlet(np.ones(10))
            value = sparse_inner((cells, pa), (cells, pb))
            assert 0.0 <= value <= 1.0

    def test_matches_dense_dot(self, rng):
        cells_a = np.sort(rng.choice(50, size=8, replace=False))
        cells_b = np.sort(rng.choice(50, size=12, replace=False))
        pa = rng.dirichlet(np.ones(8))
        pb = rng.dirichlet(np.ones(12))
        dense_a = np.zeros(50)
        dense_a[cells_a] = pa
        dense_b = np.zeros(50)
        dense_b[cells_b] = pb
        assert sparse_inner((cells_a, pa), (cells_b, pb)) == pytest.approx(dense_a @ dense_b)

    def test_sum_runs_in_ascending_cell_order(self, rng):
        for _ in range(20):
            cells = np.sort(rng.choice(100, size=30, replace=False))
            pa, pb = rng.dirichlet(np.ones(30)), rng.dirichlet(np.ones(30))
            expected = 0.0
            for x, y in zip(pa, pb):
                expected += x * y
            assert sparse_inner((cells, pa), (cells, pb)) == expected
            # Multiplication commutes, so the side a distribution sits on
            # does not change the term.
            assert sparse_inner((cells, pb), (cells, pa)) == expected


class TestColocationProbability:
    def test_same_trajectory_high(self, grid):
        traj = Trajectory.from_arrays([2, 6, 10], [10, 10, 10], [0, 4, 8])
        stp = make_stp(traj, grid, noise=DeterministicNoiseModel())
        assert colocation_probability(stp, stp, 4.0) == pytest.approx(1.0)

    def test_far_apart_low(self, grid):
        a = Trajectory.from_arrays([2, 6], [2, 2], [0, 4])
        b = Trajectory.from_arrays([2, 6], [18, 18], [0, 4])
        cp = colocation_probability(make_stp(a, grid), make_stp(b, grid), 2.0)
        assert cp < 1e-6

    def test_no_temporal_overlap_zero(self, grid):
        a = Trajectory.from_arrays([2, 6], [10, 10], [0, 4])
        b = Trajectory.from_arrays([2, 6], [10, 10], [100, 104])
        assert colocation_probability(make_stp(a, grid), make_stp(b, grid), 2.0) == 0.0
        assert colocation_probability(make_stp(a, grid), make_stp(b, grid), 102.0) == 0.0

    def test_colocated_people_with_noise(self, grid):
        # Same true path, independently noisy observations: CP should be
        # clearly above the far-apart case.
        rng = np.random.default_rng(0)
        base_x = np.array([2.0, 6.0, 10.0, 14.0])
        ts = np.array([0.0, 4.0, 8.0, 12.0])
        a = Trajectory.from_arrays(base_x + rng.normal(0, 1, 4), 10 + rng.normal(0, 1, 4), ts)
        b = Trajectory.from_arrays(base_x + rng.normal(0, 1, 4), 10 + rng.normal(0, 1, 4), ts)
        cp = colocation_probability(make_stp(a, grid), make_stp(b, grid), 4.0)
        assert cp > 0.05

    def test_series_matches_pointwise(self, grid):
        a = Trajectory.from_arrays([2, 6, 10], [10, 10, 10], [0, 4, 8])
        b = Trajectory.from_arrays([3, 7, 11], [10, 10, 10], [1, 5, 9])
        sa, sb = make_stp(a, grid), make_stp(b, grid)
        times = np.array([0.0, 2.0, 5.0])
        series = colocation_batch(sa, sb, times)
        for t, v in zip(times, series):
            assert v == colocation_probability(sa, sb, float(t))

    def test_symmetric(self, grid):
        a = Trajectory.from_arrays([2, 6, 10], [8, 10, 12], [0, 4, 8])
        b = Trajectory.from_arrays([4, 8, 12], [10, 10, 10], [1, 5, 9])
        sa, sb = make_stp(a, grid), make_stp(b, grid)
        for t in [1.0, 3.0, 7.5]:
            assert colocation_probability(sa, sb, t) == colocation_probability(sb, sa, t)
