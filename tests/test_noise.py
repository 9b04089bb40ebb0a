"""Unit tests for location-noise models (Eq. 3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import Grid
from repro.core.noise import (
    DeterministicNoiseModel,
    GaussianNoiseModel,
    UniformDiskNoiseModel,
)


class TestGaussianNoiseModel:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GaussianNoiseModel(sigma=0.0)
        with pytest.raises(ValueError):
            GaussianNoiseModel(sigma=-1.0)
        with pytest.raises(ValueError):
            GaussianNoiseModel(sigma=1.0, truncate=0.0)

    def test_distribution_sums_to_one(self, small_grid):
        model = GaussianNoiseModel(sigma=2.0)
        cells, probs = model.cell_distribution(small_grid, 10.0, 10.0)
        assert probs.sum() == pytest.approx(1.0)
        assert len(cells) == len(probs)
        assert (probs > 0).all()

    def test_mass_concentrated_near_observation(self, small_grid):
        model = GaussianNoiseModel(sigma=1.0)
        cells, probs = model.cell_distribution(small_grid, 11.0, 11.0)
        best = cells[np.argmax(probs)]
        assert best == small_grid.cell_of(11.0, 11.0)

    def test_probability_decays_with_distance(self, small_grid):
        model = GaussianNoiseModel(sigma=2.0)
        dense = model.dense_distribution(small_grid, 11.0, 11.0)
        centers = small_grid.centers()
        d = np.hypot(centers[:, 0] - 11.0, centers[:, 1] - 11.0)
        order = np.argsort(d)
        # probabilities non-increasing with distance (allowing fp ties)
        sorted_probs = dense[order]
        assert np.all(np.diff(sorted_probs) <= 1e-12)

    def test_dense_matches_sparse(self, small_grid):
        model = GaussianNoiseModel(sigma=2.0, truncate=10.0)  # wide: covers all
        cells, probs = model.cell_distribution(small_grid, 9.0, 9.0)
        dense = model.dense_distribution(small_grid, 9.0, 9.0)
        sparse_dense = np.zeros(small_grid.n_cells)
        sparse_dense[cells] = probs
        np.testing.assert_allclose(sparse_dense, dense, atol=1e-12)

    def test_truncation_limits_support(self, small_grid):
        tight = GaussianNoiseModel(sigma=1.0, truncate=2.0)
        wide = GaussianNoiseModel(sigma=1.0, truncate=6.0)
        cells_tight, _ = tight.cell_distribution(small_grid, 10.0, 10.0)
        cells_wide, _ = wide.cell_distribution(small_grid, 10.0, 10.0)
        assert len(cells_tight) < len(cells_wide)

    def test_support_includes_containing_cell(self, small_grid):
        model = GaussianNoiseModel(sigma=0.01)  # tiny noise
        cells, probs = model.cell_distribution(small_grid, 5.0, 5.0)
        assert small_grid.cell_of(5.0, 5.0) in cells
        assert probs.sum() == pytest.approx(1.0)

    def test_observation_outside_grid_clamped(self, small_grid):
        model = GaussianNoiseModel(sigma=2.0)
        cells, probs = model.cell_distribution(small_grid, -50.0, -50.0)
        assert len(cells) >= 1
        assert probs.sum() == pytest.approx(1.0)

    def test_literal_paper_form(self, small_grid):
        # squared=False reproduces the printed Eq. 3 (Laplace-like kernel);
        # still normalized, heavier tails than the Gaussian.
        gauss = GaussianNoiseModel(sigma=2.0, squared=True)
        laplace = GaussianNoiseModel(sigma=2.0, squared=False)
        dg = gauss.dense_distribution(small_grid, 10.0, 10.0)
        dl = laplace.dense_distribution(small_grid, 10.0, 10.0)
        assert dg.sum() == pytest.approx(1.0)
        assert dl.sum() == pytest.approx(1.0)
        # Laplace puts more mass far away: compare tail mass beyond 4 m.
        centers = small_grid.centers()
        far = np.hypot(centers[:, 0] - 10.0, centers[:, 1] - 10.0) > 4.0
        assert dl[far].sum() > dg[far].sum()

    def test_sigma_equals_paper_mall_setting(self):
        # 3 m error on a 3 m grid: support stays local (a few dozen cells).
        grid = Grid(0, 0, 150, 150, cell_size=3.0)
        model = GaussianNoiseModel(sigma=3.0)
        cells, _ = model.cell_distribution(grid, 75.0, 75.0)
        assert 4 < len(cells) < 100


class TestDeterministicNoiseModel:
    def test_point_mass(self, small_grid):
        model = DeterministicNoiseModel()
        cells, probs = model.cell_distribution(small_grid, 7.3, 3.1)
        assert len(cells) == 1
        assert cells[0] == small_grid.cell_of(7.3, 3.1)
        assert probs[0] == pytest.approx(1.0)

    def test_dense_point_mass(self, small_grid):
        model = DeterministicNoiseModel()
        dense = model.dense_distribution(small_grid, 7.3, 3.1)
        assert dense.sum() == pytest.approx(1.0)
        assert dense[small_grid.cell_of(7.3, 3.1)] == pytest.approx(1.0)

    def test_zero_support_radius(self, small_grid):
        assert DeterministicNoiseModel().support_radius(small_grid) == 0.0


class TestUniformDiskNoiseModel:
    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            UniformDiskNoiseModel(radius=0.0)

    def test_uniform_over_disk(self, small_grid):
        model = UniformDiskNoiseModel(radius=5.0)
        cells, probs = model.cell_distribution(small_grid, 10.0, 10.0)
        assert len(cells) > 1
        # all in-disk cells get equal probability
        np.testing.assert_allclose(probs, probs[0])
        assert probs.sum() == pytest.approx(1.0)

    def test_support_matches_radius(self, small_grid):
        model = UniformDiskNoiseModel(radius=5.0)
        cells, _ = model.cell_distribution(small_grid, 10.0, 10.0)
        centers = small_grid.centers()[cells]
        d = np.hypot(centers[:, 0] - 10.0, centers[:, 1] - 10.0)
        assert (d <= 5.0 + 1e-9).all()


# ----------------------------------------------------------------------
# The batched Eq. 3 pass is bitwise the per-point one
# ----------------------------------------------------------------------
@st.composite
def grids(draw):
    cell = draw(st.sampled_from([0.7, 1.0, 2.0, 3.0, 100.0]))
    cols, rows = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    x0, y0 = draw(st.sampled_from([0.0, -13.3, 250.5])), draw(st.sampled_from([0.0, 7.1]))
    return Grid(x0, y0, x0 + cols * cell, y0 + rows * cell, cell)


def noise_models(cell):
    """All four noise models, with σ from well below a cell to several cells."""
    scale = st.floats(0.05, 4.0, allow_nan=False)
    return st.one_of(
        scale.map(lambda k: GaussianNoiseModel(k * cell)),
        scale.map(lambda k: GaussianNoiseModel(k * cell, squared=False)),
        st.tuples(scale, st.floats(0.5, 5.0)).map(
            lambda a: GaussianNoiseModel(a[0] * cell, truncate=a[1])
        ),
        scale.map(lambda k: UniformDiskNoiseModel(k * cell)),
        st.just(DeterministicNoiseModel()),
    )


def axis_coords(lo, hi, cell):
    """Coordinates on, near and outside both edges, on cell borders and inside."""
    eps = cell * 1e-9
    edges = st.sampled_from([lo, hi, lo + cell, hi - cell])
    return st.one_of(
        edges,
        st.tuples(edges, st.sampled_from([-eps, eps, -0.5 * cell, 0.5 * cell])).map(sum),
        st.floats(lo - 6 * cell, hi + 6 * cell, allow_nan=False),
    )


class TestCellDistributions:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bitwise_per_point(self, data):
        grid = data.draw(grids())
        model = data.draw(noise_models(grid.cell_size))
        n = data.draw(st.integers(0, 12))
        xs = data.draw(st.lists(axis_coords(grid.min_x, grid.max_x, grid.cell_size), min_size=n, max_size=n))
        ys = data.draw(st.lists(axis_coords(grid.min_y, grid.max_y, grid.cell_size), min_size=n, max_size=n))
        batch = model.cell_distributions(grid, np.array(xs, dtype=float), np.array(ys, dtype=float))
        assert len(batch) == n
        for (cells, probs), x, y in zip(batch, xs, ys):
            ref_cells, ref_probs = model.cell_distribution(grid, x, y)
            assert cells.dtype == ref_cells.dtype and probs.dtype == ref_probs.dtype
            assert cells.tobytes() == ref_cells.tobytes()
            assert probs.tobytes() == ref_probs.tobytes()

    def test_empty_input(self, small_grid):
        assert GaussianNoiseModel(2.0).cell_distributions(small_grid, [], []) == []
