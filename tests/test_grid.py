"""Unit tests for the uniform spatial grid."""

import numpy as np
import pytest

from repro.core import grid as grid_module
from repro.core.grid import Grid


class TestConstruction:
    def test_cell_counts(self, small_grid):
        assert small_grid.n_cols == 10
        assert small_grid.n_rows == 10
        assert small_grid.n_cells == 100

    def test_non_divisible_extent_rounds_up(self):
        grid = Grid(0, 0, 10.5, 4.1, cell_size=2.0)
        assert grid.n_cols == 6
        assert grid.n_rows == 3
        assert grid.max_x == 12.0
        assert grid.max_y == 6.0

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError, match="cell_size"):
            Grid(0, 0, 10, 10, cell_size=0.0)
        with pytest.raises(ValueError, match="cell_size"):
            Grid(0, 0, 10, 10, cell_size=-1.0)

    def test_invalid_extent(self):
        with pytest.raises(ValueError, match="extent"):
            Grid(0, 0, 0, 10, cell_size=1.0)
        with pytest.raises(ValueError, match="extent"):
            Grid(5, 0, 4, 10, cell_size=1.0)

    def test_covering_points(self):
        pts = np.array([[1.0, 2.0], [9.0, 14.0]])
        grid = Grid.covering(pts, cell_size=3.0)
        assert grid.min_x <= 1.0 and grid.min_y <= 2.0
        assert grid.max_x >= 9.0 and grid.max_y >= 14.0

    def test_covering_with_margin(self):
        pts = np.array([[0.0, 0.0], [10.0, 10.0]])
        grid = Grid.covering(pts, cell_size=1.0, margin=5.0)
        assert grid.min_x <= -5.0
        assert grid.max_x >= 15.0

    def test_covering_single_point(self):
        grid = Grid.covering(np.array([[3.0, 3.0]]), cell_size=2.0)
        assert grid.n_cells >= 1
        assert grid.cell_of(3.0, 3.0) >= 0

    def test_covering_empty_raises(self):
        with pytest.raises(ValueError, match="zero points"):
            Grid.covering(np.empty((0, 2)), cell_size=1.0)

    def test_equality_and_hash(self):
        a = Grid(0, 0, 10, 10, 2.0)
        b = Grid(0, 0, 10, 10, 2.0)
        c = Grid(0, 0, 10, 10, 5.0)
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestMapping:
    def test_cell_of_origin(self, small_grid):
        assert small_grid.cell_of(0.1, 0.1) == 0

    def test_cell_of_row_major(self, small_grid):
        # one row up = +n_cols
        assert small_grid.cell_of(0.1, 2.1) == small_grid.n_cols

    def test_cell_of_clamps_outside(self, small_grid):
        assert small_grid.cell_of(-100.0, -100.0) == 0
        assert small_grid.cell_of(100.0, 100.0) == small_grid.n_cells - 1

    def test_cells_of_matches_scalar(self, small_grid, rng):
        pts = rng.uniform(-5, 25, size=(50, 2))
        vector = small_grid.cells_of(pts)
        scalar = [small_grid.cell_of(x, y) for x, y in pts]
        np.testing.assert_array_equal(vector, scalar)

    def test_center_roundtrip(self, small_grid):
        for idx in [0, 5, 37, 99]:
            cx, cy = small_grid.center_of(idx)
            assert small_grid.cell_of(cx, cy) == idx

    def test_center_of_out_of_range(self, small_grid):
        with pytest.raises(IndexError):
            small_grid.center_of(100)
        with pytest.raises(IndexError):
            small_grid.center_of(-1)

    def test_centers_shape_and_order(self, small_grid):
        centers = small_grid.centers()
        assert centers.shape == (100, 2)
        np.testing.assert_allclose(centers[0], [1.0, 1.0])
        np.testing.assert_allclose(centers[1], [3.0, 1.0])  # next column
        np.testing.assert_allclose(centers[10], [1.0, 3.0])  # next row

    def test_centers_read_only_and_cached(self, small_grid):
        centers = small_grid.centers()
        assert centers is small_grid.centers()
        with pytest.raises(ValueError):
            centers[0, 0] = 1e9


class TestRangeQueries:
    def test_cells_within_zero_radius(self, small_grid):
        # radius 0 around a cell center returns exactly that cell
        cx, cy = small_grid.center_of(55)
        cells = small_grid.cells_within(cx, cy, 0.0)
        np.testing.assert_array_equal(cells, [55])

    def test_cells_within_matches_bruteforce(self, small_grid, rng):
        centers = small_grid.centers()
        for _ in range(20):
            x, y = rng.uniform(-2, 22, size=2)
            radius = rng.uniform(0, 15)
            expected = np.nonzero(np.hypot(centers[:, 0] - x, centers[:, 1] - y) <= radius)[0]
            got = small_grid.cells_within(x, y, radius)
            np.testing.assert_array_equal(got, expected)

    def test_cells_within_far_away_empty(self, small_grid):
        assert len(small_grid.cells_within(1000.0, 1000.0, 5.0)) == 0

    def test_cells_within_negative_radius_raises(self, small_grid):
        with pytest.raises(ValueError, match="radius"):
            small_grid.cells_within(0, 0, -1.0)

    def test_cells_within_sorted(self, small_grid):
        cells = small_grid.cells_within(10.0, 10.0, 6.0)
        assert np.all(np.diff(cells) > 0)

    @pytest.mark.parametrize("window_cells", [1 << 17, 5])
    def test_cells_within_many_matches_per_point(self, small_grid, rng, monkeypatch, window_cells):
        # A tiny window budget forces one point per pass.
        monkeypatch.setattr(grid_module, "WINDOW_CELLS", window_cells)
        xs = np.concatenate([rng.uniform(-8, 28, size=30), [0.0, 20.0, 1000.0, -1000.0]])
        ys = np.concatenate([rng.uniform(-8, 28, size=30), [20.0, 0.0, 5.0, 5.0]])
        for radius in (0.0, 1.0, 2.9, 7.5):
            owners, cells = small_grid.cells_within_many(xs, ys, radius)
            assert np.all(np.diff(owners) >= 0)
            for i, (x, y) in enumerate(zip(xs, ys)):
                expected = small_grid.cells_within(float(x), float(y), radius)
                np.testing.assert_array_equal(cells[owners == i], expected)
                assert cells.dtype == expected.dtype

    def test_cells_within_many_empty_and_negative(self, small_grid):
        owners, cells = small_grid.cells_within_many([], [], 3.0)
        assert owners.size == cells.size == 0
        with pytest.raises(ValueError, match="radius"):
            small_grid.cells_within_many([0.0], [0.0], -1.0)

    def test_distances_from_all(self, small_grid):
        d = small_grid.distances_from(1.0, 1.0)
        assert d.shape == (100,)
        assert d[0] == pytest.approx(0.0)

    def test_distances_from_subset(self, small_grid):
        d = small_grid.distances_from(1.0, 1.0, cells=[0, 1])
        assert d.shape == (2,)
        assert d[1] == pytest.approx(2.0)


class TestCoarsen:
    def test_factor_one_is_identity(self, small_grid):
        assert small_grid.coarsen(1) is small_grid

    def test_factor_two_merges_cells(self, small_grid):
        coarse = small_grid.coarsen(2)
        assert coarse.cell_size == 4.0
        assert coarse.n_cols == 5 and coarse.n_rows == 5
        assert (coarse.min_x, coarse.min_y) == (small_grid.min_x, small_grid.min_y)

    def test_coarse_grid_covers_original_extent(self):
        grid = Grid(1.0, 2.0, 11.5, 8.1, cell_size=2.0)
        for factor in (2, 3, 4):
            coarse = grid.coarsen(factor)
            assert coarse.min_x == grid.min_x and coarse.min_y == grid.min_y
            assert coarse.max_x >= grid.max_x and coarse.max_y >= grid.max_y
            assert coarse.cell_size == grid.cell_size * factor

    def test_every_point_keeps_a_cell(self, small_grid, rng):
        coarse = small_grid.coarsen(4)
        pts = rng.uniform(0, 20, size=(50, 2))
        for x, y in pts:
            assert 0 <= coarse.cell_of(x, y) < coarse.n_cells

    def test_invalid_factor(self, small_grid):
        with pytest.raises(ValueError, match="factor"):
            small_grid.coarsen(0)
        with pytest.raises(ValueError, match="factor"):
            small_grid.coarsen(1.5)
