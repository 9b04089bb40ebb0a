"""Property-based tests (hypothesis) for core invariants.

Covers the invariants the paper's math promises:

* STS ∈ [0, 1], symmetric;
* STP distributions are normalized over the grid;
* co-location probability ∈ [0, 1], symmetric;
* classic measures: identity, symmetry, non-negativity;
* grid point↔cell consistency;
* KDE positivity and Eq. 7 range.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.grid import Grid
from repro.core.noise import GaussianNoiseModel
from repro.core.speed import KDESpeedModel
from repro.core.stprob import TrajectorySTP
from repro.core.sts import STS
from repro.core.transition import SpeedTransitionModel
from repro.core.trajectory import Trajectory, TrajectoryPoint
from repro.similarity import (
    CATS,
    DTW,
    EDR,
    LCSS,
    SST,
    WGM,
    Frechet,
    Hausdorff,
    dtw_distance,
    edr_distance,
    frechet_distance,
    hausdorff_distance,
    lcss_similarity,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
coord = st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False)


@st.composite
def trajectories(draw, min_points=2, max_points=8):
    """Small trajectories inside [0, 50]² with strictly increasing times."""
    n = draw(st.integers(min_points, max_points))
    xs = draw(st.lists(coord, min_size=n, max_size=n))
    ys = draw(st.lists(coord, min_size=n, max_size=n))
    gaps = draw(
        st.lists(st.floats(0.5, 20.0, allow_nan=False), min_size=n, max_size=n)
    )
    ts = np.cumsum(gaps)
    return Trajectory(
        [TrajectoryPoint(x, y, float(t)) for x, y, t in zip(xs, ys, ts)]
    )


GRID = Grid(-10, -10, 60, 60, cell_size=5.0)
SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def sts_measure():
    return STS(GRID, noise_model=GaussianNoiseModel(3.0))


# ----------------------------------------------------------------------
# STS invariants
# ----------------------------------------------------------------------
class TestSTSProperties:
    @SLOW
    @given(a=trajectories(), b=trajectories())
    def test_range_and_symmetry(self, a, b):
        measure = sts_measure()
        ab = measure.similarity(a, b)
        ba = measure.similarity(b, a)
        assert 0.0 <= ab <= 1.0 + 1e-12
        assert ab == pytest.approx(ba, abs=1e-9)

    @SLOW
    @given(a=trajectories())
    def test_self_similarity_positive(self, a):
        measure = sts_measure()
        assert measure.similarity(a, a) > 0.0

    @SLOW
    @given(a=trajectories(), b=trajectories())
    def test_disjoint_time_spans_zero(self, a, b):
        far = b.shifted(dt=a.end_time - b.start_time + 1000.0)
        assert sts_measure().similarity(a, far) == 0.0

    @SLOW
    @given(a=trajectories(), dt=st.floats(0.0, 100.0, allow_nan=False))
    def test_time_translation_invariance(self, a, dt):
        measure = sts_measure()
        base = measure.similarity(a, a)
        shifted = a.shifted(dt=dt)
        also = sts_measure().similarity(shifted, shifted)
        assert also == pytest.approx(base, abs=1e-9)


#: Timestamps 7.6, 20.9 and 25.599999999999998: at ``frac = 1.0`` the
#: interpolated time rounds to 25.6, one ulp past the end of the span.
ULP_PAST_END = Trajectory(
    [TrajectoryPoint(10.0, 10.0, t) for t in np.cumsum([7.6, 13.3, 4.7]).tolist()]
)


class TestSTPProperties:
    @SLOW
    @given(a=trajectories(), frac=st.floats(0.0, 1.0, allow_nan=False))
    @example(a=ULP_PAST_END, frac=1.0)
    def test_stp_normalized_inside_span(self, a, frac):
        stp = TrajectorySTP(
            a,
            GRID,
            GaussianNoiseModel(3.0),
            SpeedTransitionModel(KDESpeedModel.from_trajectory(a)),
        )
        # The interpolation can round past the end, where stp is
        # (correctly) empty: clamp it into the span.
        t = min(a.start_time + frac * (a.end_time - a.start_time), a.end_time)
        cells, probs = stp.stp(t)
        assert len(cells) == len(probs)
        assert probs.sum() == pytest.approx(1.0)
        assert (probs >= 0).all()
        assert len(np.unique(cells)) == len(cells)

    @SLOW
    @given(a=trajectories())
    def test_stp_zero_outside_span(self, a):
        stp = TrajectorySTP(
            a,
            GRID,
            GaussianNoiseModel(3.0),
            SpeedTransitionModel(KDESpeedModel.from_trajectory(a)),
        )
        assert len(stp.stp(a.start_time - 1.0)[0]) == 0
        assert len(stp.stp(a.end_time + 1.0)[0]) == 0


# ----------------------------------------------------------------------
# KDE invariants
# ----------------------------------------------------------------------
class TestSpeedProperties:
    @given(
        samples=st.lists(st.floats(0.0, 30.0, allow_nan=False), min_size=1, max_size=30),
        v=st.floats(0.0, 50.0, allow_nan=False),
    )
    def test_density_non_negative(self, samples, v):
        model = KDESpeedModel(samples, approx=False)
        assert model.density(v) >= 0.0

    @given(
        samples=st.lists(st.floats(0.0, 30.0, allow_nan=False), min_size=1, max_size=30),
        v=st.floats(0.0, 50.0, allow_nan=False),
    )
    def test_transition_weight_bounded(self, samples, v):
        # Eq. 7 value is a kernel mean, bounded by K(0) = 1/sqrt(2π).
        model = KDESpeedModel(samples, approx=False)
        assert 0.0 <= model.transition_weight(v) <= 1.0 / np.sqrt(2 * np.pi) + 1e-12


# ----------------------------------------------------------------------
# Grid invariants
# ----------------------------------------------------------------------
class TestGridProperties:
    @given(x=st.floats(-10, 60, allow_nan=False), y=st.floats(-10, 60, allow_nan=False))
    def test_point_in_own_cell(self, x, y):
        idx = GRID.cell_of(x, y)
        cx, cy = GRID.center_of(idx)
        # point is within half a cell diagonal of its cell's center
        assert abs(cx - x) <= GRID.cell_size / 2 + 1e-9
        assert abs(cy - y) <= GRID.cell_size / 2 + 1e-9

    @given(
        x=st.floats(0, 50, allow_nan=False),
        y=st.floats(0, 50, allow_nan=False),
        r=st.floats(0, 30, allow_nan=False),
    )
    def test_cells_within_radius_sound(self, x, y, r):
        cells = GRID.cells_within(x, y, r)
        centers = GRID.centers()
        for c in cells:
            assert np.hypot(centers[c, 0] - x, centers[c, 1] - y) <= r + 1e-9


# ----------------------------------------------------------------------
# Classic measures
# ----------------------------------------------------------------------
class TestIndexProperties:
    @SLOW
    @given(q=trajectories(), gallery=st.lists(trajectories(), min_size=1, max_size=5))
    def test_time_filter_lossless_for_sts(self, q, gallery):
        # Every gallery entry the time filter rejects scores exactly 0
        # under STS, so filtering cannot change any ranking of positives.
        from repro.index import time_overlap_filter

        measure = sts_measure()
        kept = set(time_overlap_filter(q, gallery).tolist())
        for i, candidate in enumerate(gallery):
            if i not in kept:
                assert measure.similarity(q, candidate) == 0.0

    @SLOW
    @given(q=trajectories(), gallery=st.lists(trajectories(), min_size=1, max_size=5))
    def test_filtered_matcher_subset_of_rank_gallery(self, q, gallery):
        from repro.eval import rank_gallery
        from repro.index import FilteredMatcher
        from repro.similarity import SST

        measure = SST(spatial_scale=5.0, temporal_scale=10.0)
        matcher = FilteredMatcher(measure, spatial_slack=1000.0)
        filtered = matcher.query(q, gallery).matches
        full = {m.index: m.score for m in rank_gallery(measure, q, gallery)}
        # survivors keep their exact scores, and appear in score order
        scores = [m.score for m in filtered]
        assert scores == sorted(scores, reverse=True)
        for m in filtered:
            assert m.score == pytest.approx(full[m.index])


class TestPreprocessProperties:
    @SLOW
    @given(a=trajectories(min_points=2, max_points=12), max_speed=st.floats(0.5, 10.0))
    def test_despiked_speeds_bounded(self, a, max_speed):
        from repro.preprocess import remove_speed_outliers

        out = remove_speed_outliers(a, max_speed=max_speed)
        assert len(out) >= 1
        assert (out.speeds() <= max_speed + 1e-9).all()
        # only original observations survive, in order
        original = set(a.points)
        assert all(p in original for p in out)

    @SLOW
    @given(a=trajectories(min_points=2, max_points=12), max_gap=st.floats(0.5, 30.0))
    def test_split_segments_have_no_internal_gaps(self, a, max_gap):
        from repro.preprocess import split_on_gaps

        segments = split_on_gaps(a, max_gap=max_gap, min_points=1)
        total = sum(len(s) for s in segments)
        assert total == len(a)  # partition, nothing lost with min_points=1
        for seg in segments:
            gaps = np.diff(seg.timestamps)
            assert (gaps <= max_gap + 1e-9).all()

    @SLOW
    @given(a=trajectories(min_points=2, max_points=12))
    def test_dedup_strictly_increasing(self, a):
        from repro.preprocess import deduplicate_timestamps

        out = deduplicate_timestamps(a)
        assert (np.diff(out.timestamps) > 0).all() or len(out) <= 1


class TestMeasureProperties:
    @SLOW
    @given(a=trajectories(), b=trajectories())
    def test_distances_non_negative_and_symmetric(self, a, b):
        for fn in (dtw_distance, frechet_distance, hausdorff_distance):
            ab = fn(a.xy, b.xy)
            assert ab >= 0.0
            assert ab == pytest.approx(fn(b.xy, a.xy), rel=1e-9, abs=1e-9)

    @SLOW
    @given(a=trajectories())
    def test_identity_of_indiscernibles(self, a):
        assert dtw_distance(a.xy, a.xy) == pytest.approx(0.0, abs=1e-9)
        assert frechet_distance(a.xy, a.xy) == pytest.approx(0.0, abs=1e-9)
        assert hausdorff_distance(a.xy, a.xy) == 0.0
        assert edr_distance(a.xy, a.xy, epsilon=1.0) == 0.0
        assert lcss_similarity(a.xy, a.xy, epsilon=1.0) == 1.0

    @SLOW
    @given(a=trajectories(), b=trajectories())
    def test_similarity_measures_in_unit_interval(self, a, b):
        for measure in (
            CATS(epsilon=5.0, tau=10.0),
            SST(spatial_scale=5.0, temporal_scale=10.0),
            WGM(spatial_scale=5.0, temporal_scale=10.0),
            LCSS(epsilon=5.0),
        ):
            value = measure(a, b)
            assert 0.0 <= value <= 1.0 + 1e-12

    @SLOW
    @given(a=trajectories(), b=trajectories())
    def test_score_orientation_consistent(self, a, b):
        for measure in (DTW(), Frechet(), Hausdorff(), EDR(epsilon=2.0)):
            assert measure.score(a, b) == -measure(a, b)

    @SLOW
    @given(a=trajectories(), b=trajectories())
    def test_dtw_lower_bounded_by_endpoint_costs(self, a, b):
        # any warping path pairs the two start points and the two end points
        d = dtw_distance(a.xy, b.xy)
        start = np.hypot(*(a.xy[0] - b.xy[0]))
        end = np.hypot(*(a.xy[-1] - b.xy[-1]))
        assert d >= max(start, end) - 1e-9
