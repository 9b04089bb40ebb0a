"""Unit tests for spatial-temporal probability estimation (Eq. 4–5)."""

import math
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import STS, stprob
from repro.core.grid import Grid
from repro.core.noise import DeterministicNoiseModel, GaussianNoiseModel
from repro.core.speed import GaussianSpeedModel, KDESpeedModel
from repro.core.stprob import TrajectorySTP
from repro.core.transition import FrequencyTransitionModel, SpeedTransitionModel
from repro.core.trajectory import Trajectory

from .summed import Summed


@pytest.fixture
def grid():
    return Grid(0, 0, 40, 20, cell_size=2.0)


@pytest.fixture
def walker():
    """Walks east at 1 m/s along y=10, sampled every 4 s."""
    xs = [2.0, 6.0, 10.0, 14.0, 18.0, 22.0]
    return Trajectory.from_arrays(xs, [10.0] * 6, [0.0, 4.0, 8.0, 12.0, 16.0, 20.0])


def make_stp(traj, grid, noise=None, transition=None):
    noise = noise if noise is not None else GaussianNoiseModel(2.0)
    transition = transition or speed_transition(traj)
    return TrajectorySTP(traj, grid, noise, transition)


def speed_transition(traj):
    return SpeedTransitionModel(KDESpeedModel.from_trajectory(traj, approx=False))


@pytest.fixture
def evaluators(monkeypatch):
    """Names of the Eq. 4 evaluators the estimator ran, in call order."""
    ran = []
    for name in ("_fft_chunk", "_interpolate_pairwise_batch"):
        real = getattr(TrajectorySTP, name)

        def spy(self, *args, _name=name, _real=real):
            ran.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(TrajectorySTP, name, spy)
    return ran


class TestConstruction:
    def test_empty_trajectory_rejected(self, grid):
        with pytest.raises(ValueError, match="empty"):
            make_stp(Trajectory([]), grid)

    def test_invalid_mode(self, grid, walker):
        # The transition model alone picks the evaluator: there is no mode.
        with pytest.raises(TypeError, match="mode"):
            TrajectorySTP(
                walker, grid, GaussianNoiseModel(2.0), speed_transition(walker), mode="fft"
            )

    def test_fft_requires_isotropic(self, grid, walker, evaluators):
        # The same speed model, with its isotropy hidden, is summed.
        make_stp(walker, grid, transition=Summed(speed_transition(walker))).stp(6.5)
        assert evaluators == ["_interpolate_pairwise_batch"]

    def test_auto_resolves_by_model(self, grid, walker, evaluators):
        make_stp(walker, grid).stp(6.5)
        assert evaluators == ["_fft_chunk"]
        evaluators.clear()
        freq = FrequencyTransitionModel(grid).fit([walker])
        make_stp(walker, grid, transition=freq).stp(6.5)
        assert evaluators == ["_interpolate_pairwise_batch"]


class TestEq5Cases:
    def test_outside_span_is_zero(self, grid, walker):
        stp = make_stp(walker, grid)
        cells, probs = stp.stp(-5.0)
        assert len(cells) == 0 and len(probs) == 0
        assert stp.stp_dense(25.0).sum() == 0.0

    def test_observed_time_returns_noise_distribution(self, grid, walker):
        noise = GaussianNoiseModel(2.0)
        stp = make_stp(walker, grid, noise=noise)
        cells, probs = stp.stp(8.0)  # third observation at (10, 10)
        exp_cells, exp_probs = noise.cell_distribution(grid, 10.0, 10.0)
        np.testing.assert_array_equal(cells, exp_cells)
        np.testing.assert_allclose(probs, exp_probs)

    def test_interpolated_sums_to_one(self, grid, walker):
        stp = make_stp(walker, grid)
        for t in [1.0, 2.0, 6.5, 13.7, 19.9]:
            _, probs = stp.stp(t)
            assert probs.sum() == pytest.approx(1.0)

    def test_interpolated_mass_near_expected_position(self, grid, walker):
        stp = make_stp(walker, grid)
        cells, probs = stp.stp(10.0)  # expect near x=12, y=10
        centers = grid.centers()[cells]
        mean_x = float(np.dot(probs, centers[:, 0]))
        mean_y = float(np.dot(probs, centers[:, 1]))
        assert mean_x == pytest.approx(12.0, abs=2.5)
        assert mean_y == pytest.approx(10.0, abs=2.5)

    def test_interpolation_follows_time(self, grid, walker):
        stp = make_stp(walker, grid)
        xs = []
        for t in [1.0, 5.0, 9.0, 13.0, 17.0]:
            cells, probs = stp.stp(t)
            centers = grid.centers()[cells]
            xs.append(float(np.dot(probs, centers[:, 0])))
        assert all(a < b for a, b in zip(xs, xs[1:]))  # drifts east over time


class TestModeAgreement:
    """FFT convolution and reach-pruned summation against Eq. 4 summed over every cell."""

    @staticmethod
    def summed(walker, grid, reach, noise=None):
        return make_stp(walker, grid, noise, Summed(speed_transition(walker), reach))

    @pytest.mark.parametrize("t", [1.0, 6.5, 10.0, 15.3, 19.0])
    def test_pruned_matches_dense(self, grid, walker, t):
        dense = self.summed(walker, grid, reach=False)
        pruned = self.summed(walker, grid, reach=True)
        np.testing.assert_allclose(
            pruned.stp_dense(t), dense.stp_dense(t), atol=1e-9
        )

    @pytest.mark.parametrize("t", [1.0, 6.5, 10.0, 15.3, 19.0])
    def test_fft_matches_dense(self, grid, walker, t):
        dense = self.summed(walker, grid, reach=False)
        fft = make_stp(walker, grid)
        np.testing.assert_allclose(fft.stp_dense(t), dense.stp_dense(t), atol=1e-9)

    @pytest.mark.parametrize("t", [1.0, 6.5, 10.0, 15.3, 19.0])
    def test_fft_matches_dense_on_frames_inside_the_grid(self, walker, t):
        # 40 m of margin: every frame, and so every window, is cropped
        # on both axes, and kept cells map back through a cell table.
        grid = Grid(-40, -40, 80, 60, cell_size=2.0)
        dense = self.summed(walker, grid, reach=False)
        fft = make_stp(walker, grid)
        np.testing.assert_allclose(fft.stp_dense(t), dense.stp_dense(t), atol=1e-9)

    def test_fft_matches_dense_with_deterministic_noise(self, grid, walker):
        dense = self.summed(walker, grid, reach=False, noise=DeterministicNoiseModel())
        fft = make_stp(walker, grid, noise=DeterministicNoiseModel())
        for t in [2.0, 9.5, 18.0]:
            np.testing.assert_allclose(fft.stp_dense(t), dense.stp_dense(t), atol=1e-9)


class TestCachingAndFallback:
    def test_cache_returns_same_object(self, grid, walker):
        stp = make_stp(walker, grid)
        a = stp.stp(6.5)
        b = stp.stp(6.5)
        assert a[0] is b[0]

    def test_clear_cache(self, grid, walker):
        stp = make_stp(walker, grid)
        stp.stp(6.5)
        stp.clear_cache()
        assert stp._cache == {}

    def test_underflow_falls_back_to_linear_interpolation(self, grid):
        # Consecutive points 30 m apart in 1 s but the speed model believes
        # ~0.1 m/s: every transition weight underflows to 0.
        traj = Trajectory.from_arrays([2.0, 32.0], [10.0, 10.0], [0.0, 1.0])
        slow = SpeedTransitionModel(KDESpeedModel([0.1], bandwidth=0.001, approx=False))
        stp = TrajectorySTP(traj, grid, GaussianNoiseModel(1.0), slow)
        cells, probs = stp.stp(0.5)
        assert len(cells) == 1
        assert probs[0] == pytest.approx(1.0)
        # Mass sits at the midpoint cell (17, 10).
        assert cells[0] == grid.cell_of(17.0, 10.0)

    def test_duplicate_timestamp_uses_first_observation(self, grid):
        traj = Trajectory.from_arrays([2.0, 4.0, 6.0], [10.0, 10.0, 10.0], [0.0, 5.0, 5.0])
        stp = make_stp(traj, grid)
        cells, probs = stp.stp(5.0)
        assert probs.sum() == pytest.approx(1.0)


class TestCredibleCells:
    def test_mass_covered(self, grid, walker):
        stp = make_stp(walker, grid)
        for t in (4.0, 6.5, 13.7):
            for mass in (0.5, 0.9, 1.0):
                region = stp.credible_cells(t, mass=mass)
                cells, probs = stp.stp(t)
                lookup = dict(zip(cells.tolist(), probs.tolist()))
                covered = sum(lookup[c] for c in region.tolist())
                assert covered >= mass - 1e-9

    def test_minimal_region(self, grid, walker):
        # dropping the least-probable member must fall below the mass
        stp = make_stp(walker, grid)
        region = stp.credible_cells(6.5, mass=0.9)
        cells, probs = stp.stp(6.5)
        lookup = dict(zip(cells.tolist(), probs.tolist()))
        members = sorted(region.tolist(), key=lambda c: lookup[c])
        without_smallest = sum(lookup[c] for c in members[1:])
        assert without_smallest < 0.9

    def test_tighter_mass_smaller_region(self, grid, walker):
        stp = make_stp(walker, grid)
        small = stp.credible_cells(6.5, mass=0.5)
        big = stp.credible_cells(6.5, mass=0.99)
        assert len(small) <= len(big)
        assert set(small.tolist()) <= set(big.tolist())

    def test_outside_span_empty(self, grid, walker):
        stp = make_stp(walker, grid)
        assert len(stp.credible_cells(-10.0)) == 0

    def test_point_mass_single_cell(self, grid, walker):
        stp = make_stp(walker, grid, noise=DeterministicNoiseModel())
        region = stp.credible_cells(4.0, mass=1.0)
        assert len(region) == 1

    def test_invalid_mass(self, grid, walker):
        stp = make_stp(walker, grid)
        with pytest.raises(ValueError, match="mass"):
            stp.credible_cells(4.0, mass=0.0)
        with pytest.raises(ValueError, match="mass"):
            stp.credible_cells(4.0, mass=1.5)


class TestFrequencyBackend:
    def test_frequency_transition_stp_normalizes(self, grid, walker):
        freq = FrequencyTransitionModel(grid).fit([walker])
        stp = make_stp(walker, grid, transition=freq)
        _, probs = stp.stp(6.0)
        assert probs.sum() == pytest.approx(1.0)

    def test_single_point_trajectory_stp(self, grid):
        traj = Trajectory.from_arrays([10.0], [10.0], [5.0])
        stp = make_stp(traj, grid)
        cells, probs = stp.stp(5.0)
        assert probs.sum() == pytest.approx(1.0)
        assert len(stp.stp(4.0)[0]) == 0  # outside span


class TestDisjointReaches:
    """A bridged query whose two observations' reaches miss each other."""

    def test_falls_back_like_explicit_summation(self):
        # 300 m in 20 s under a ~1 m/s speed law: no cell is reachable
        # from both observations, so Eq. 4 is 0/0 everywhere, and both
        # evaluators place the mass on the interpolated cell.
        grid = Grid(0, 0, 400, 200, cell_size=5.0)
        traj = Trajectory.from_arrays([50.0, 350.0], [100.0, 100.0], [0.0, 20.0])
        model = SpeedTransitionModel(GaussianSpeedModel(1.0, 0.3))
        fft = make_stp(traj, grid, noise=GaussianNoiseModel(5.0), transition=model)
        summed = make_stp(traj, grid, noise=GaussianNoiseModel(5.0), transition=Summed(model))
        for t in (5.0, 10.0, 15.0):
            cell = fft._fallback(t, 0)[0].tolist()
            for cells, probs in (fft.stp(t), summed.stp(t)):
                assert cells.tolist() == cell
                assert probs.tolist() == [1.0]
        assert fft._fft_geometry().windows == [None]  # the frames do not meet

    def test_falls_back_when_only_a_longer_gap_makes_the_frames_meet(self):
        # The same first segment, then a 280 s halt: the frames are
        # dilated by the long gap's kernel half and meet, but the first
        # segment's own reaches (the halves of its dt1 and dt2) do not.
        grid = Grid(0, 0, 500, 200, cell_size=5.0)
        traj = Trajectory.from_arrays([50.0, 350.0, 350.0], [100.0] * 3, [0.0, 20.0, 300.0])
        model = SpeedTransitionModel(GaussianSpeedModel(1.0, 0.3))
        fft = make_stp(traj, grid, noise=GaussianNoiseModel(5.0), transition=model)
        summed = make_stp(traj, grid, noise=GaussianNoiseModel(5.0), transition=Summed(model))
        assert fft._fft_geometry().windows[0] is not None
        for t in (5.0, 10.0, 15.0):
            cell = fft._fallback(t, 0)[0].tolist()
            for cells, probs in (fft.stp(t), summed.stp(t)):
                assert cells.tolist() == cell
                assert probs.tolist() == [1.0]


class TestCacheStats:
    def test_counts_grow_with_queries_and_reset_on_clear(self, grid, walker):
        stp = make_stp(walker, grid)
        assert all(s["size"] == 0 for s in stp.cache_stats().values())
        stp.stp(2.5)
        stp.stp(7.5)
        stats = stp.cache_stats()
        assert stats["results"]["size"] == 2
        assert sum(s["size"] for s in stats.values()) > 2  # kernels/planes too
        stp.clear_cache()
        assert all(s["size"] == 0 for s in stp.cache_stats().values())

    def test_stats_report_capacity_and_hit_miss_eviction(self, grid, walker):
        stp = make_stp(walker, grid)
        stp.stp(2.5)
        stp.stp(2.5)  # second query hits the result cache
        stats = stp.cache_stats()
        results = stats["results"]
        assert set(results) == {"size", "max", "hits", "misses", "evictions"}
        assert results["max"] == 4096
        assert results["hits"] >= 1
        assert results["misses"] >= 1
        assert results["evictions"] == 0


class TestFFTChunks:
    """Bridged times of one call share FFT round trips across segments."""

    @pytest.mark.parametrize("budget", [stprob.FFT_CHUNK_BYTES, 60_000])  # 94 and 5 queries
    def test_round_trips_per_chunk_not_per_segment(self, grid, walker, monkeypatch, budget):
        times = [float(t + f) for t in walker.timestamps[:-1] for f in (0.5, 2.0, 3.5)]
        reference = make_stp(walker, grid).stp_batch(times)
        monkeypatch.setattr(stprob, "FFT_CHUNK_BYTES", budget)
        stp = make_stp(walker, grid)
        calls = []
        real = stprob._fft.irfft2

        def spy(*args, **kwargs):
            calls.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(stprob._fft, "irfft2", spy)
        got = stp.stp_batch(times)
        chunk = stp._fft_geometry().chunk
        assert len(calls) <= math.ceil(len(times) / chunk) < 2 * 5
        assert sum(calls) == 2 * len(times)  # a forward and a backward kernel each
        for (cells, probs), (ref_cells, ref_probs) in zip(got, reference):
            assert cells.tobytes() == ref_cells.tobytes()
            assert probs.tobytes() == ref_probs.tobytes()

    def test_scratch_does_not_grow_with_queries(self):
        grid = Grid(0, 0, 120, 120, cell_size=3.0)
        k = np.arange(11)
        walker = Trajectory.from_arrays(30 + 6.0 * k, 60 + 3 * np.sin(k), 20.0 * k)
        stp = TrajectorySTP(
            walker, grid, GaussianNoiseModel(3.0),
            SpeedTransitionModel(GaussianSpeedModel(1.0, 0.3)), cache_size=0,
        )
        assert stp._fft_geometry().shape == (45, 45)
        rng = np.random.default_rng(2)
        stp.stp_batch([10.0])  # plan caches and lazy geometry outside the measurement

        def scratch(n_times):
            times = np.sort(rng.uniform(0.5, 199.5, n_times))
            tracemalloc.start()
            try:
                out = stp.stp_batch(times)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - sum(cells.nbytes + probs.nbytes for cells, probs in out)

        few, many = scratch(10), scratch(200)
        assert many < 1.25 * few, (few, many)

    def test_shared_gap_table_is_bounded(self):
        """Times on a clock repeat their gaps; the gap table stays bounded."""
        grid = Grid(0, 0, 120, 120, cell_size=3.0)
        k = np.arange(11)
        walker = Trajectory.from_arrays(30 + 6.0 * k, 60 + 3 * np.sin(k), 20.0 * k)
        stp = TrajectorySTP(
            walker, grid, GaussianNoiseModel(3.0),
            SpeedTransitionModel(GaussianSpeedModel(1.0, 0.3)), cache_size=0,
        )
        stp.stp_batch([10.0])  # plan caches and lazy geometry outside the measurement
        # A 1/16 s clock: 319 distinct gaps, more than the table holds.
        lattice = np.setdiff1d(np.arange(1, 3200) / 16.0, walker.timestamps)
        shares = []  # per gap table: (gaps it holds, gaps it does not)
        real = stp._gap_table

        def spy(*args):
            table = real(*args)
            shares.append((int((table.rows >= 0).sum()), int((table.rows < 0).sum())))
            return table

        stp._gap_table = spy

        def scratch(n_times):
            times = lattice[np.linspace(0, lattice.size - 1, n_times).astype(int)]
            tracemalloc.start()
            try:
                out = stp.stp_batch(times)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            del out
            return peak - current  # what the call held beyond its results

        few, many = scratch(10), scratch(2000)
        assert many <= few + 1.25 * stprob.FFT_CHUNK_BYTES, (few, many)
        (share,) = shares  # the 10 times fit one chunk and need no table
        assert min(share) > 0, share


def reference_fft_chunk(stp, los, ts, *_gaps):
    """Eq. 4 for one FFT chunk, one kernel and one query at a time.

    The per-query loop that ``TrajectorySTP._fft_chunk`` batches, kept as
    its reference, on the estimator's frame geometry; the chunk's gap
    table (``_gaps``) is not read.  Each kernel is evaluated at its own
    ``dt``: on its canvas's unique lattice distances when there are more
    than 64 of them, else on the whole canvas.  Each is embedded with its
    own slice assignment and convolved with its own plane in its own
    round trip.  A query whose two supports, each dilated by its own
    kernel's canvas half, are disjoint falls back.  Otherwise its product
    is taken on the intersection of its two frames, rebuilt here from the
    noise supports, and normalized in its own pass.
    """
    stamps = stp.trajectory.timestamps
    grid, model = stp.grid, stp.transition_model
    geom = stp._fft_geometry()
    halves = np.array([geom.half_r, geom.half_c])
    dims = np.array([grid.n_rows, grid.n_cols])
    series = stp._span_buckets()

    def kernel_canvas(dt):
        """The kernel of ``dt`` on the fixed canvas, and its own canvas halves."""
        span = int(np.ceil(model.reachable_radius(dt) / grid.cell_size)) + 1
        bucket = int(series[min(np.searchsorted(series, span), series.size - 1)])
        h_r, h_c = min(grid.n_rows - 1, bucket), min(grid.n_cols - 1, bucket)
        dx, dy = np.arange(-h_c, h_c + 1), np.arange(-h_r, h_r + 1)
        dist = np.hypot(dx[None, :], dy[:, None]) * grid.cell_size
        unique, inverse = np.unique(dist.ravel(), return_inverse=True)
        if unique.size > 64:
            kernel = model.distance_weights(unique, dt)[inverse].reshape(dist.shape)
        else:
            kernel = model.distance_weights(dist, dt)
        canvas = np.zeros(2 * halves + 1)
        canvas[geom.half_r - h_r : geom.half_r + h_r + 1,
               geom.half_c - h_c : geom.half_c + h_c + 1] = kernel
        return canvas, np.array([h_r, h_c])

    def convolve(obs, dt):
        """Observation ``obs``'s convolution, its reach, its frame and its origin."""
        cells, probs = stp._observed[obs]
        at = np.column_stack([cells // grid.n_cols, cells % grid.n_cols])
        s0, s1 = at.min(axis=0), at.max(axis=0) + 1
        frame = (np.maximum(0, s0 - halves), np.minimum(dims, s1 + halves))
        plane = np.zeros(geom.shape)
        plane[tuple((at - geom.origins[obs]).T)] = probs
        canvas, own = kernel_canvas(dt)
        spectrum = stprob._fft.rfft2(canvas, s=geom.shape)
        spectrum *= stprob._fft.rfft2(plane)
        conv = stprob._fft.irfft2(spectrum, s=geom.shape)
        return conv, (s0 - own, s1 + own), frame, geom.origins[obs]

    results = []
    for lo, t in zip(los.tolist(), ts.tolist()):
        fwd, (fr0, fr1), (f0, f1), f_origin = convolve(lo, t - stamps[lo])
        bwd, (br0, br1), (b0, b1), b_origin = convolve(lo + 1, stamps[lo + 1] - t)
        w0, w1 = np.maximum(f0, b0), np.minimum(f1, b1)
        reached = (np.maximum(fr0, br0) < np.minimum(fr1, br1)).all()
        if not reached or (w0 >= w1).any():  # the two reaches miss each other
            results.append(stp._fallback(t, lo))
            continue

        def window(conv, origin):
            (r0, c0), (r1, c1) = w0 - origin + halves, w1 - origin + halves
            return conv[r0:r1, c0:c1]

        unnorm = (window(fwd, f_origin) * window(bwd, b_origin)).ravel()
        np.clip(unnorm, 0.0, None, out=unnorm)
        total = float(unnorm.sum())
        if total <= 0.0 or not np.isfinite(total):
            results.append(stp._fallback(t, lo))
            continue
        probs = unnorm / total
        local = np.nonzero(probs > stprob._SPARSE_EPS)[0]
        if local.size == 0:
            results.append(stp._fallback(t, lo))
            continue
        rows, cols = np.divmod(local, w1[1] - w0[1])
        kept = probs[local]
        results.append(((rows + w0[0]) * grid.n_cols + cols + w0[1], kept / kept.sum()))
    return results


def _speed_model(kind, traj, approx):
    if kind == "own":
        return KDESpeedModel.from_trajectory(traj, approx=approx)
    if kind == "no-samples":  # degenerate KDE: one pseudo-sample at 0 m/s
        return KDESpeedModel([], approx=approx)
    if kind == "too-slow":  # every weight underflows: the _fallback rows
        return KDESpeedModel([0.1], bandwidth=0.001, approx=approx)
    return GaussianSpeedModel(1.5, 0.8)  # STS-B


@st.composite
def bridged_cases(draw):
    """A trajectory on ``GRID_20x10``, its transition model and query times."""
    n = draw(st.integers(1, 6))
    gaps = draw(st.lists(st.floats(0.05, 9.0), min_size=n - 1, max_size=n - 1))
    stamps = draw(st.floats(0.0, 15.0)) + np.cumsum([0.0] + gaps)
    if draw(st.booleans()):  # stationary: zero speed samples
        xs = np.full(n, draw(st.floats(0.0, 40.0)))
        ys = np.full(n, draw(st.floats(0.0, 20.0)))
    else:  # anywhere, grid edges included: mass clipped at the edge
        xs = np.array(draw(st.lists(st.floats(0.0, 40.0), min_size=n, max_size=n)))
        ys = np.array(draw(st.lists(st.floats(0.0, 20.0), min_size=n, max_size=n)))
    traj = Trajectory.from_arrays(xs, ys, stamps)
    kind = draw(st.sampled_from(["own", "own", "no-samples", "too-slow", "gaussian"]))
    model = SpeedTransitionModel(
        _speed_model(kind, traj, approx=draw(st.booleans())),
        zero_dt_tolerance=draw(st.sampled_from([1e-9, 0.4])),
    )
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    times = stamps[0] + np.array(fractions) * (stamps[-1] - stamps[0])
    # Just past an observation: a gap within the zero-dt tolerance.
    times = np.concatenate([times, stamps[:-1] + 1e-10])
    return traj, model, times


GRID_20x10 = Grid(0, 0, 40, 20, cell_size=2.0)


def _lattice_case():
    """Reports every 2 s and queries on a 0.25 s clock: every gap repeats."""
    k = np.arange(8)
    traj = Trajectory.from_arrays(6.0 + 3.5 * k, 10.0 + 2.0 * np.sin(k), 3.0 + 2.0 * k)
    model = SpeedTransitionModel(KDESpeedModel.from_trajectory(traj, approx=False))
    return traj, model, np.arange(3.0, 17.0, 0.25)


class TestBatchedChunk:
    """The batched FFT chunk is bitwise the per-query loop."""

    @settings(max_examples=80, deadline=None)
    @given(
        case=bridged_cases(),
        split=st.floats(0.0, 1.0),
        chunk_bytes=st.sampled_from([stprob.FFT_CHUNK_BYTES, 20_000]),
    )
    @example(case=_lattice_case(), split=0.4, chunk_bytes=20_000)
    def test_stp_batch_matches_per_query_reference(self, case, split, chunk_bytes):
        # 20 kB chunks hold one or two queries, so a call spans many chunks
        # and, when its gaps repeat, shares them through a gap table.
        traj, model, times = case
        with mock.patch.object(stprob, "FFT_CHUNK_BYTES", chunk_bytes):
            self._check_against_reference(traj, model, times, split)

    def test_lattice_case_fills_a_gap_table(self):
        traj, model, times = _lattice_case()
        tables = []
        with mock.patch.object(stprob, "FFT_CHUNK_BYTES", 20_000):
            stp = TrajectorySTP(traj, GRID_20x10, GaussianNoiseModel(2.0), model)
            real = stp._gap_table
            stp._gap_table = lambda *args: tables.append(real(*args)) or tables[-1]
            stp.stp_batch(times)
        assert 3 * stp._fft_geometry().chunk < len(times)
        (table,) = tables
        assert (table.rows >= 0).any() and (table.rows < 0).any()  # shared and own gaps

    @staticmethod
    def _check_against_reference(traj, model, times, split):
        batched = TrajectorySTP(traj, GRID_20x10, GaussianNoiseModel(2.0), model)
        looped = TrajectorySTP(traj, GRID_20x10, GaussianNoiseModel(2.0), model)
        looped._fft_chunk = types.MethodType(reference_fft_chunk, looped)
        cut = int(split * times.size)
        for part in (times[:cut], times[cut:], times):
            if part is times:  # resolve again, every kernel from the memo
                batched._cache.clear()
                looped._cache.clear()
            got, want = batched.stp_batch(part), looped.stp_batch(part)
            for (cells, probs), (ref_cells, ref_probs) in zip(got, want):
                assert cells.tobytes() == ref_cells.tobytes()
                assert probs.tobytes() == ref_probs.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 70),
        cols=st.integers(1, 700),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_row_sums_of_a_contiguous_product_are_per_row_sums(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(2, 2 * rows, cols))
        prod = a[:rows] * b[rows:]
        totals = prod.sum(axis=1)
        for i in range(rows):
            assert totals[i].tobytes() == prod[i].sum().tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 40),
        cols=st.integers(1, 130),
        samples=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernel_mean_of_stacked_rows_is_each_rows_mean(self, rows, cols, samples, seed):
        rng = np.random.default_rng(seed)
        model = KDESpeedModel(rng.uniform(0.0, 10.0, samples), approx=False)
        speeds = rng.uniform(0.0, 12.0, (rows, cols))
        stacked = model._kernel_mean_exact(speeds)  # mean(axis=-1) over a 3-D array
        for i in range(rows):
            assert stacked[i].tobytes() == model._kernel_mean_exact(speeds[i]).tobytes()


class TestKernelMemo:
    """A memoized kernel is the kernel of its own exact gap."""

    @staticmethod
    def _fleet():
        """15 s reports with fractional phase offsets, so gaps computed
        along different paths differ by round-off."""
        rng = np.random.default_rng(11)
        fleet = []
        for k in range(8):
            stamps = 0.1 + 1.7 * k + 15.0 * np.arange(10)
            path = np.cumsum(rng.normal(0.0, 40.0, (10, 2)), axis=0) + 300.0
            fleet.append(Trajectory.from_arrays(path[:, 0], path[:, 1], stamps, f"t{k}"))
        return fleet

    def test_memo_changes_no_bit(self):
        grid = Grid(0, 0, 600, 600, cell_size=25.0)
        fleet = self._fleet()
        queries, gallery = fleet[::2], fleet[1::2]
        default = STS(grid).pairwise(gallery, queries=queries)
        uncached = STS(grid, stp_cache_size=0).pairwise(gallery, queries=queries)
        assert default.tobytes() == uncached.tobytes()

        pairs = [(a, b) for a in fleet for b in fleet if a is not b]
        forward = STS(grid)
        ahead = [forward.similarity(a, b) for a, b in pairs]
        warm = STS(grid)
        behind = [warm.similarity(a, b) for a, b in reversed(pairs)][::-1]
        assert np.array(ahead).tobytes() == np.array(behind).tobytes()
