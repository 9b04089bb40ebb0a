"""Batched evaluation must match the per-time path exactly.

``TrajectorySTP.stp_batch`` / ``colocation_batch`` / the block-kernel
``STS.pairwise`` are pure performance features: they group queries by
bracketing segment and amortize kernel/FFT work, but every distribution is
produced by the same evaluation core as a singleton ``stp(t)`` call, and
every co-location term by the same sparse product.  The tests here pin
that contract *bitwise* — not "close", identical — for both Eq. 4
evaluators (FFT convolution, and explicit summation over the reachable
cells or over every cell), for observed / interpolated / duplicated /
out-of-span query times.
"""

import numpy as np
import pytest

from repro.core.colocation import colocation_batch, colocation_probability
from repro.core.grid import Grid
from repro.core.sts import STS
from repro.core.transition import FrequencyTransitionModel
from repro.core.trajectory import Trajectory

from .summed import Summed, summed_personalized

#: Transition policy per Eq. 4 evaluator: summed over every cell, summed
#: over the reachable cells, FFT convolution (STS's default).
MODES = {
    "dense": summed_personalized(reach=False),
    "pruned": summed_personalized(),
    "fft": None,
}


@pytest.fixture
def grid():
    return Grid(0, 0, 40, 20, cell_size=2.0)


@pytest.fixture
def walker():
    xs = [2.0, 6.0, 10.0, 14.0, 18.0, 22.0]
    return Trajectory.from_arrays(xs, [10.0] * 6, [0.0, 4.0, 8.0, 12.0, 16.0, 20.0])


@pytest.fixture
def companion():
    xs = [4.0, 8.0, 12.0, 16.0, 20.0]
    return Trajectory.from_arrays(xs, [10.0] * 5, [2.0, 6.0, 10.0, 14.0, 18.0])


def query_times(trajectory, partner):
    """A deliberately nasty query set: observed times, the partner's times,
    off-grid midpoints, duplicates, and times outside the observed span."""
    own = trajectory.timestamps
    other = partner.timestamps
    mids = (own[:-1] + own[1:]) / 2.0
    out_of_span = np.array([own[0] - 5.0, own[-1] + 5.0])
    times = np.concatenate([own, other, mids, mids[:2], own[:2], out_of_span])
    return times


def assert_distributions_identical(batch, singles):
    assert len(batch) == len(singles)
    for k, ((bc, bp), (sc, sp)) in enumerate(zip(batch, singles)):
        assert np.array_equal(bc, sc), f"cells differ at query {k}"
        assert np.array_equal(bp, sp), f"probs differ at query {k}"


class TestStpBatchMatchesPerT:
    @pytest.mark.parametrize("mode", MODES)
    def test_bitwise_identity_all_modes(self, grid, walker, companion, mode):
        times = query_times(walker, companion)
        batch = STS(grid, transition=MODES[mode]).stp_for(walker).stp_batch(times)
        # Fresh estimator for the singleton path so neither run can serve
        # the other from a cache.
        single_stp = STS(grid, transition=MODES[mode]).stp_for(walker)
        singles = [single_stp.stp(float(t)) for t in times]
        assert_distributions_identical(batch, singles)

    @pytest.mark.parametrize("mode", ["pruned", "dense"])
    def test_bitwise_identity_frequency_transitions(self, grid, walker, companion, mode):
        freq = FrequencyTransitionModel(grid).fit([walker, companion])
        transition = Summed(freq, reach=mode == "pruned")
        times = query_times(walker, companion)
        batch = STS(grid, transition=transition).stp_for(walker).stp_batch(times)
        single_stp = STS(grid, transition=transition).stp_for(walker)
        singles = [single_stp.stp(float(t)) for t in times]
        assert_distributions_identical(batch, singles)

    def test_bitwise_identity_with_caches_disabled(self, grid, walker, companion):
        times = query_times(walker, companion)
        batch = STS(grid, stp_cache_size=0).stp_for(walker).stp_batch(times)
        singles_stp = STS(grid, stp_cache_size=0).stp_for(walker)
        singles = [singles_stp.stp(float(t)) for t in times]
        assert_distributions_identical(batch, singles)

    def test_duplicate_times_share_one_result(self, grid, walker):
        t = float(walker.timestamps[0]) + 1.7
        batch = STS(grid).stp_for(walker).stp_batch([t, t, t])
        assert_distributions_identical(batch[1:], [batch[0]] * 2)

    def test_out_of_span_times_are_empty(self, grid, walker):
        batch = STS(grid).stp_for(walker).stp_batch([-100.0, 1e6])
        for cells, probs in batch:
            assert cells.size == 0 and probs.size == 0

    def test_empty_input(self, grid, walker):
        assert STS(grid).stp_for(walker).stp_batch([]) == []


class TestColocationBatch:
    def test_matches_per_t_inner_products(self, grid, walker, companion):
        measure = STS(grid)
        stp1, stp2 = measure.stp_for(walker), measure.stp_for(companion)
        times = np.concatenate([walker.timestamps, companion.timestamps])
        batch = colocation_batch(stp1, stp2, times)

        # Fresh estimators, one query time per call.
        ref_measure = STS(grid)
        ref1, ref2 = ref_measure.stp_for(walker), ref_measure.stp_for(companion)
        singles = np.array([colocation_probability(ref1, ref2, float(t)) for t in times])
        assert np.array_equal(batch, singles)
        # Each term is the ascending-cell sum of the two distributions'
        # products over their common support.
        for t, value in zip(times, batch):
            (ca, pa), (cb, pb) = ref1.stp(float(t)), ref2.stp(float(t))
            common, ia, ib = np.intersect1d(ca, cb, assume_unique=True, return_indices=True)
            expected = 0.0
            for k in np.argsort(common):
                expected += pa[ia[k]] * pb[ib[k]]
            assert value == expected
        assert ((batch >= 0.0) & (batch <= 1.0)).all()

    def test_empty_times(self, grid, walker, companion):
        measure = STS(grid)
        out = colocation_batch(measure.stp_for(walker), measure.stp_for(companion), [])
        assert out.size == 0


class TestPrewarmedPairwise:
    """The block-kernel matrix against per-pair (1×1 block) scoring."""

    def test_symmetric_matrix_matches_per_pair_similarity(self, grid, walker, companion):
        gallery = [walker, companion]
        matrix = STS(grid).pairwise(gallery)

        ref = STS(grid)
        expected = np.array(
            [[ref.similarity(a, b) for b in gallery] for a in gallery]
        )
        assert np.array_equal(matrix, expected)
        assert np.array_equal(matrix, matrix.T)

    def test_query_gallery_matrix_matches_per_pair_similarity(self, grid, walker, companion):
        matrix = STS(grid).pairwise([walker, companion], queries=[companion])
        ref = STS(grid)
        expected = np.array(
            [[ref.similarity(companion, walker), ref.similarity(companion, companion)]]
        )
        assert np.array_equal(matrix, expected)

    def test_prewarm_skipped_when_caches_disabled(self, grid, walker, companion):
        # With stp_cache_size=0 nothing the resolution step computes is
        # memoized; the matrix must still be identical.
        matrix = STS(grid, stp_cache_size=0).pairwise([walker, companion])
        expected = STS(grid).pairwise([walker, companion])
        assert np.allclose(matrix, expected, rtol=0, atol=0)
