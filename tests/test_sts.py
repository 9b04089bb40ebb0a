"""Unit tests for the STS measure (Eq. 10) and its ablation variants."""

import numpy as np
import pytest

from repro.core.grid import Grid
from repro.core.noise import DeterministicNoiseModel, GaussianNoiseModel
from repro.core.speed import GaussianSpeedModel
from repro.core.sts import STS, sts_b, sts_f, sts_g, sts_n
from repro.core.transition import SpeedTransitionModel
from repro.core.trajectory import Trajectory

from .summed import summed_personalized


@pytest.fixture
def grid():
    return Grid(0, 0, 40, 20, cell_size=2.0)


@pytest.fixture
def walker():
    xs = [2.0, 6.0, 10.0, 14.0, 18.0, 22.0]
    return Trajectory.from_arrays(xs, [10.0] * 6, [0.0, 4.0, 8.0, 12.0, 16.0, 20.0])


@pytest.fixture
def companion():
    """Same route as walker, sampled at offset times (sporadic sampling)."""
    xs = [4.0, 8.0, 12.0, 16.0, 20.0]
    return Trajectory.from_arrays(xs, [10.0] * 5, [2.0, 6.0, 10.0, 14.0, 18.0])


@pytest.fixture
def stranger():
    """Different corridor, same times as walker."""
    xs = [2.0, 6.0, 10.0, 14.0, 18.0, 22.0]
    return Trajectory.from_arrays(xs, [2.0] * 6, [0.0, 4.0, 8.0, 12.0, 16.0, 20.0])


class TestConstruction:
    def test_default_noise_model(self, grid):
        measure = STS(grid)
        assert isinstance(measure.noise_model, GaussianNoiseModel)
        assert measure.noise_model.sigma == grid.cell_size

    def test_invalid_transition_type(self, grid):
        with pytest.raises(TypeError, match="transition"):
            STS(grid, transition="personalized")  # type: ignore[arg-type]

    def test_shared_transition_instance(self, grid, walker, companion):
        shared = SpeedTransitionModel(GaussianSpeedModel(1.0, 0.3))
        measure = STS(grid, transition=shared)
        assert measure.stp_for(walker).transition_model is shared
        assert measure.stp_for(companion).transition_model is shared

    def test_transition_factory_called_per_trajectory(self, grid, walker, companion):
        seen = []
        factory = lambda t: seen.append(t) or SpeedTransitionModel(  # noqa: E731
            GaussianSpeedModel(1.0, 0.3)
        )
        measure = STS(grid, transition=factory)
        measure.similarity(walker, companion)
        assert walker in seen and companion in seen


class TestSimilarityBehaviour:
    def test_empty_rejected(self, grid, walker):
        with pytest.raises(ValueError, match="empty"):
            STS(grid).similarity(walker, Trajectory([]))

    def test_range(self, grid, walker, companion, stranger):
        measure = STS(grid)
        for a, b in [(walker, companion), (walker, stranger), (walker, walker)]:
            value = measure.similarity(a, b)
            assert 0.0 <= value <= 1.0

    def test_symmetric(self, grid, walker, companion):
        measure = STS(grid)
        assert measure.similarity(walker, companion) == measure.similarity(companion, walker)

    def test_companion_beats_stranger(self, grid, walker, companion, stranger):
        # The headline behaviour: co-moving trajectories with disjoint
        # timestamps score far above spatially-separated ones.
        measure = STS(grid)
        assert measure.similarity(walker, companion) > 5 * measure.similarity(walker, stranger)

    def test_self_similarity_highest(self, grid, walker, companion, stranger):
        measure = STS(grid)
        self_sim = measure.similarity(walker, walker)
        assert self_sim >= measure.similarity(walker, companion)
        assert self_sim >= measure.similarity(walker, stranger)

    def test_no_temporal_overlap_is_zero(self, grid, walker):
        later = walker.shifted(dt=1000.0)
        assert STS(grid).similarity(walker, later) == 0.0

    def test_callable_and_score_aliases(self, grid, walker, companion):
        measure = STS(grid)
        value = measure.similarity(walker, companion)
        assert measure(walker, companion) == pytest.approx(value)
        assert measure.score(walker, companion) == pytest.approx(value)
        assert measure.higher_is_better

    def test_eq10_average_formula(self, grid, walker, companion):
        # Recompute Eq. 10 from the co-location probabilities directly.
        from repro.core.colocation import colocation_probability

        measure = STS(grid)
        stp_a = measure.stp_for(walker)
        stp_b = measure.stp_for(companion)
        total = sum(
            colocation_probability(stp_a, stp_b, float(t)) for t in walker.timestamps
        ) + sum(colocation_probability(stp_a, stp_b, float(t)) for t in companion.timestamps)
        expected = total / (len(walker) + len(companion))
        assert measure.similarity(walker, companion) == pytest.approx(expected)

    def test_colocation_profile(self, grid, walker, companion):
        measure = STS(grid)
        times, cps = measure.colocation_profile(walker, companion)
        assert len(times) == len(np.union1d(walker.timestamps, companion.timestamps))
        assert (cps >= 0).all() and (cps <= 1).all()

    def test_modes_agree(self, grid, walker, companion):
        # FFT convolution and reach-pruned summation against Eq. 4 summed
        # over every cell.
        fft = STS(grid).similarity(walker, companion)
        pruned = STS(grid, transition=summed_personalized()).similarity(walker, companion)
        dense = STS(grid, transition=summed_personalized(reach=False)).similarity(
            walker, companion
        )
        assert fft == pytest.approx(dense, abs=1e-9)
        assert pruned == pytest.approx(dense, abs=1e-9)


class TestPairwise:
    def test_pairwise_symmetric_gallery(self, grid, walker, companion, stranger):
        measure = STS(grid)
        gallery = [walker, companion, stranger]
        matrix = measure.pairwise(gallery)
        assert matrix.shape == (3, 3)
        np.testing.assert_allclose(matrix, matrix.T)

    def test_pairwise_query_gallery(self, grid, walker, companion, stranger):
        measure = STS(grid)
        matrix = measure.pairwise([companion, stranger], queries=[walker])
        assert matrix.shape == (1, 2)
        assert matrix[0, 0] > matrix[0, 1]  # companion beats stranger

    def test_cache_reused_and_clearable(self, grid, walker, companion):
        measure = STS(grid)
        measure.similarity(walker, companion)
        assert len(measure._stp_cache) == 2
        assert measure.stp_for(walker) is measure.stp_for(walker)
        measure.clear_cache()
        assert len(measure._stp_cache) == 0


class TestCacheBounds:
    def test_cache_size_bounds_estimator_cache(self, grid, walker, companion, stranger):
        measure = STS(grid, cache_size=2)
        for trajectory in (walker, companion, stranger):
            measure.stp_for(trajectory)
        assert len(measure._stp_cache) == 2  # LRU evicted the oldest

    def test_cache_size_none_is_unbounded(self, grid, walker, companion, stranger):
        measure = STS(grid, cache_size=None)
        for trajectory in (walker, companion, stranger):
            measure.stp_for(trajectory)
        assert len(measure._stp_cache) == 3

    def test_stp_cache_size_forwarded_to_estimators(self, grid, walker):
        stp = STS(grid, stp_cache_size=16).stp_for(walker)
        assert stp._cache.maxsize == 16
        stp_off = STS(grid, stp_cache_size=0).stp_for(walker)
        assert stp_off._cache.maxsize == 0
        assert stp_off._kernel_cache.maxsize == 0

    def test_query_results_memoized_within_capacity(self, grid, walker):
        stp = STS(grid).stp_for(walker)
        t = float(walker.timestamps[0]) + 1.3
        first = stp.stp(t)
        again = stp.stp(t)
        assert first[0] is again[0] and first[1] is again[1]  # cache hit


class TestProfileVsSimilarityAccounting:
    """Regression pin: Eq. 10 vs :meth:`colocation_profile` on shared times.

    ``similarity`` counts a timestamp present in *both* trajectories twice
    (once per Σ in Eq. 10, denominator ``|Tra| + |Tra'|``); the profile is
    a deduplicated union — an inspection view, not the measure's terms.
    Both behaviours are documented in the ``colocation_profile`` docstring
    and pinned here so neither silently drifts into the other.
    """

    @pytest.fixture
    def twin(self, walker):
        """Same timestamps as walker (full overlap), slightly offset path."""
        return Trajectory.from_arrays(
            walker.xy[:, 0] + 1.0, walker.xy[:, 1], walker.timestamps.copy()
        )

    def test_shared_timestamps_counted_twice_in_similarity(self, grid, walker, twin):
        measure = STS(grid)
        times, cps = measure.colocation_profile(walker, twin)
        # Full timestamp overlap: union has |Tra| entries, not 2|Tra|.
        assert len(times) == len(walker)
        # Eq. 10 counts each shared time once per trajectory: the sum over
        # the deduplicated profile appears twice in the numerator, and the
        # denominator is |Tra| + |Tra'| — so the measure equals the plain
        # profile mean here, but via 2·Σ/(2n), not Σ/n over 2n terms.
        expected = 2.0 * float(cps.sum()) / (len(walker) + len(twin))
        assert measure.similarity(walker, twin) == pytest.approx(expected, abs=1e-12)

    def test_profile_mean_differs_under_partial_overlap(self, grid, walker):
        # One shared timestamp: profile mean averages over |union| = 10
        # terms, Eq. 10 over |Tra| + |Tra'| = 11 — they must not agree.
        other = Trajectory.from_arrays(
            walker.xy[:, 0] + 1.0, walker.xy[:, 1], walker.timestamps + 4.0
        )
        assert np.intersect1d(walker.timestamps, other.timestamps).size == 5
        measure = STS(grid)
        times, cps = measure.colocation_profile(walker, other)
        assert len(times) == 7  # 6 + 6 timestamps, 5 shared
        sim = measure.similarity(walker, other)
        assert sim != pytest.approx(float(cps.mean()), abs=1e-15)
        # And the exact relation between the two accountings holds:
        shared_mask = np.isin(times, np.intersect1d(walker.timestamps, other.timestamps))
        expected = (cps.sum() + cps[shared_mask].sum()) / (len(walker) + len(other))
        assert sim == pytest.approx(expected, abs=1e-12)


class TestVariants:
    def test_sts_n_ignores_noise(self, grid, walker):
        variant = sts_n(grid)
        assert variant.name == "STS-N"
        assert isinstance(variant.noise_model, DeterministicNoiseModel)

    def test_sts_g_shares_global_speed(self, grid, walker, companion):
        variant = sts_g(grid, [walker, companion])
        assert variant.name == "STS-G"
        tm_a = variant.stp_for(walker).transition_model
        tm_b = variant.stp_for(companion).transition_model
        assert tm_a is tm_b  # one global model

    def test_sts_f_uses_frequency_transitions(self, grid, walker, companion):
        variant = sts_f(grid, [walker, companion])
        assert variant.name == "STS-F"
        from repro.core.transition import FrequencyTransitionModel

        assert isinstance(variant.stp_for(walker).transition_model, FrequencyTransitionModel)

    def test_variants_produce_valid_similarities(self, grid, walker, companion):
        corpus = [walker, companion]
        for variant in (sts_n(grid), sts_g(grid, corpus), sts_f(grid, corpus), sts_b(grid)):
            value = variant.similarity(walker, companion)
            assert 0.0 <= value <= 1.0

    def test_sts_b_uses_gaussian_speed_law(self, grid, walker):
        from repro.core.speed import GaussianSpeedModel
        from repro.core.transition import SpeedTransitionModel

        variant = sts_b(grid)
        assert variant.name == "STS-B"
        tm = variant.stp_for(walker).transition_model
        assert isinstance(tm, SpeedTransitionModel)
        assert isinstance(tm.speed_model, GaussianSpeedModel)
        # walker moves at a constant 1 m/s; the fitted mean reflects that
        assert tm.speed_model.mean == pytest.approx(1.0)

    def test_sts_b_single_point_trajectory(self, grid):
        lonely = Trajectory.from_arrays([10.0], [10.0], [5.0])
        variant = sts_b(grid)
        assert variant.similarity(lonely, lonely) > 0.0

    def test_full_sts_more_stable_than_sts_n_under_noise(self, grid):
        # The value of the noise model: across independent noise draws of
        # the same co-moving pair, full STS's similarity is far more stable
        # than STS-N's (whose score swings with whichever cells the noisy
        # points happen to land in).  Robustness is what drives the paper's
        # Fig. 8–10 gap.
        ts = np.arange(0.0, 24.0, 4.0)
        base = 2.0 + ts  # 1 m/s east
        full_vals, bare_vals = [], []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            a = Trajectory.from_arrays(
                base + rng.normal(0, 2, len(ts)), 10 + rng.normal(0, 2, len(ts)), ts
            )
            b = Trajectory.from_arrays(
                base + rng.normal(0, 2, len(ts)), 10 + rng.normal(0, 2, len(ts)), ts + 2.0
            )
            full_vals.append(STS(grid, noise_model=GaussianNoiseModel(2.0)).similarity(a, b))
            bare_vals.append(sts_n(grid).similarity(a, b))
        cv = lambda v: np.std(v) / np.mean(v)  # noqa: E731
        assert cv(full_vals) < cv(bare_vals)
