"""Numeric regression pins.

These freeze exact measure values on small fixed inputs.  A failure here
does not necessarily mean a bug — it means the numeric behaviour of a
measure changed, which must be a conscious decision (and a changelog
entry), never an accident of refactoring.
"""

import pytest

from repro.core.grid import Grid
from repro.core.noise import GaussianNoiseModel
from repro.core.sts import STS, sts_n
from repro.core.trajectory import Trajectory
from repro.similarity import CATS, DTW, EDR, SST, WGM, EDwP, Frechet

from .summed import summed_personalized


@pytest.fixture
def grid():
    return Grid(0, 0, 40, 20, 2.0)


@pytest.fixture
def walkers():
    a = Trajectory.from_arrays([2, 6, 10, 14, 18], [10] * 5, [0, 4, 8, 12, 16])
    b = Trajectory.from_arrays([4, 8, 12, 16], [11] * 4, [2, 6, 10, 14])
    c = Trajectory.from_arrays([2, 6, 10, 14, 18], [2] * 5, [0, 4, 8, 12, 16])
    return a, b, c


class TestSTSPins:
    def test_companion_pair(self, grid, walkers):
        a, b, _c = walkers
        measure = STS(grid, noise_model=GaussianNoiseModel(2.0))
        assert measure.similarity(a, b) == pytest.approx(0.0655505, rel=1e-5)

    def test_stranger_pair(self, grid, walkers):
        a, _b, c = walkers
        measure = STS(grid, noise_model=GaussianNoiseModel(2.0))
        assert measure.similarity(a, c) == pytest.approx(0.00180748, rel=1e-5)

    def test_self_pair(self, grid, walkers):
        a, _b, _c = walkers
        measure = STS(grid, noise_model=GaussianNoiseModel(2.0))
        assert measure.similarity(a, a) == pytest.approx(0.0842947, rel=1e-5)

    def test_sts_n_pair(self, grid, walkers):
        a, b, _c = walkers
        assert sts_n(grid).similarity(a, b) == pytest.approx(7.0 / 9.0, rel=1e-9)

    def test_modes_pin_identically(self, grid, walkers):
        # FFT convolution, reach-pruned summation, summation over every cell.
        a, b, _c = walkers
        for transition in (None, summed_personalized(), summed_personalized(reach=False)):
            measure = STS(grid, noise_model=GaussianNoiseModel(2.0), transition=transition)
            assert measure.similarity(a, b) == pytest.approx(0.0655505, rel=1e-5)


class TestBaselinePins:
    def test_cats(self, walkers):
        a, b, _c = walkers
        assert CATS(4.0, 3.0)(a, b) == pytest.approx(0.4409830, rel=1e-6)

    def test_sst(self, walkers):
        a, b, _c = walkers
        assert SST(2.0, 4.0)(a, b) == pytest.approx(0.5248822, rel=1e-6)

    def test_wgm(self, walkers):
        a, b, _c = walkers
        assert WGM(4.0, 4.0)(a, b) == pytest.approx(0.5888943, rel=1e-6)

    def test_dtw(self, walkers):
        a, b, _c = walkers
        assert DTW()(a, b) == pytest.approx(11.1803399, rel=1e-6)

    def test_edwp(self, walkers):
        a, b, _c = walkers
        assert EDwP()(a, b) == pytest.approx(90.6099034, rel=1e-6)

    def test_frechet(self, walkers):
        a, b, _c = walkers
        assert Frechet()(a, b) == pytest.approx(2.2360680, rel=1e-6)

    def test_edr(self, walkers):
        a, b, _c = walkers
        assert EDR(2.5)(a, b) == 1.0
