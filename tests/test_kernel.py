"""The Eq. 10 block kernel: one number per pair, however the matrix is cut.

:mod:`repro.core.kernel` is the only implementation of Eq. 10.  These
tests pin the properties every path relies on: an entry is bitwise the
same from a 1×1 call, any sub-block, the full matrix or the transposed
orientation; a self block is bitwise symmetric; the reduction adds each
trajectory's terms sequentially in timestamp order; resolution reads a
trajectory only at the timestamps its partners' terms need; and a
block's working set stays bounded, by sub-blocks, however large it is.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import STS
from repro.core.colocation import colocation_batch
from repro.core.grid import Grid
from repro.core import kernel
from repro.core.kernel import (
    BlockSide,
    colocation_terms,
    eq10,
    score_sides,
    sequential_sum,
    term_sums,
)
from repro.core.trajectory import Trajectory
from repro.errors import DegenerateTrajectoryError
from repro.serving import anytime_similarity

GRID = Grid(0, 0, 40, 20, cell_size=2.0)


def _corpus(n=7, seed=3):
    """Short walks with unsynchronised clocks and partly disjoint spans."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        m = int(rng.integers(2, 7))
        ts = np.cumsum(rng.uniform(1.0, 6.0, m)) + rng.uniform(0.0, 12.0)
        xs = np.clip(4.0 + 1.5 * np.arange(m) + rng.normal(0, 1.0, m), 0.5, 39.5)
        ys = np.clip(10.0 + rng.normal(0, 2.0, m), 0.5, 19.5)
        out.append(Trajectory.from_arrays(xs, ys, ts, object_id=f"t{k}"))
    return out


CORPUS = _corpus()


@pytest.fixture(scope="module")
def full():
    return STS(GRID).similarity_block(CORPUS)


class TestBlockInvariance:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        rows=st.lists(st.integers(0, len(CORPUS) - 1), min_size=1, max_size=5),
        cols=st.lists(st.integers(0, len(CORPUS) - 1), min_size=1, max_size=5),
    )
    def test_any_sub_block_equals_the_full_matrix(self, full, rows, cols):
        measure = STS(GRID)  # cold: no state carried from the full matrix
        block = measure.similarity_block(
            [CORPUS[i] for i in rows], [CORPUS[j] for j in cols]
        )
        np.testing.assert_array_equal(block, full[np.ix_(rows, cols)])
        flipped = measure.similarity_block(
            [CORPUS[j] for j in cols], [CORPUS[i] for i in rows]
        )
        np.testing.assert_array_equal(flipped.T, block)

    def test_self_block_is_bitwise_symmetric(self, full):
        np.testing.assert_array_equal(full, full.T)

    def test_one_by_one_calls_equal_the_matrix(self, full):
        measure = STS(GRID)
        singles = np.array([[measure.similarity(a, b) for b in CORPUS] for a in CORPUS])
        np.testing.assert_array_equal(singles, full)

    def test_pairwise_orientations_agree(self, full):
        measure = STS(GRID)
        np.testing.assert_array_equal(measure.pairwise(CORPUS), full)
        np.testing.assert_array_equal(
            measure.pairwise(CORPUS[:3], queries=CORPUS[3:]), full[3:, :3]
        )

    def test_anytime_completes_to_the_kernel_entry(self, full):
        measure = STS(GRID)
        for i, a in enumerate(CORPUS):
            for j, b in enumerate(CORPUS):
                score = anytime_similarity(measure, a, b, batch_size=2)
                assert score.completed and score.value == full[i, j]


class TestReduction:
    def test_entry_is_two_sequential_sums_over_the_term_count(self):
        measure = STS(GRID)
        a, b = CORPUS[0], CORPUS[1]
        stp_a, stp_b = measure.stp_for(a), measure.stp_for(b)
        terms_a = colocation_batch(stp_a, stp_b, a.timestamps)
        terms_b = colocation_batch(stp_a, stp_b, b.timestamps)
        left = 0.0
        for value in terms_a:
            left += value
        right = 0.0
        for value in terms_b:
            right += value
        expected = (left + right) / (len(a) + len(b))
        assert measure.similarity(a, b) == expected
        assert eq10(sequential_sum(terms_a), sequential_sum(terms_b), len(a), len(b)) == expected

    def test_term_sums_match_sequential_sum_per_trajectory(self, rng):
        counts = np.array([3, 1, 5, 2])
        products = rng.random((counts.sum(), 4))
        sums = term_sums(products, counts)
        start = 0
        for i, n in enumerate(counts):
            for p in range(products.shape[1]):
                assert sums[i, p] == sequential_sum(products[start:start + n, p])
            start += n

    def test_sequential_sum_is_not_pairwise(self):
        # 1 + 1e-16 + ... : left-to-right addition drops every tiny term,
        # pairwise summation would keep some of them.
        values = np.array([1.0] + [1e-16] * 200)
        expected = 0.0
        for v in values:
            expected += v
        assert sequential_sum(values) == expected == 1.0


class TestProducts:
    def test_terms_are_ascending_cell_sums_on_any_key_space(self, rng):
        # A fine grid makes slots × cells far larger than the entries;
        # the terms must not depend on it.
        def dist(n, span):
            cells = np.sort(rng.choice(span, size=n, replace=False))
            return cells, rng.dirichlet(np.ones(n))

        terms = [dist(6, 40) for _ in range(5)]
        partners = [(np.arange(3), [dist(30, 40) for _ in range(3)]) for _ in range(4)]
        slots = np.array([0, 1, 2, 0, 2])
        small = colocation_terms(terms, slots, partners, n_cells=40)
        large = colocation_terms(terms, slots, partners, n_cells=10**7)
        np.testing.assert_array_equal(small, large)
        for k, (cells, probs) in enumerate(terms):
            for p, (_slots, dists) in enumerate(partners):
                other = dict(zip(*dists[slots[k]]))
                expected = 0.0
                for cell, prob in zip(cells, probs):
                    expected += prob * other.get(cell, 0.0)
                assert small[k, p] == expected


def _block_side(n_traj, n_partners, length, rng):
    """A synthetic resolved side: ``n_traj`` trajectories of ``length``
    terms against ``n_partners`` partners, all on one clock."""
    pool = []
    for _ in range(16):
        cells = np.sort(rng.choice(64, size=6, replace=False))
        pool.append((cells, rng.dirichlet(np.ones(6))))
    return BlockSide(
        terms=[pool[k % 16] for k in range(n_traj * length)],
        slots=np.tile(np.arange(length), n_traj),
        counts=np.full(n_traj, length, dtype=np.int64),
        partners=[
            (np.arange(length), [pool[(p + s) % 16] for s in range(length)])
            for p in range(n_partners)
        ],
    )


class TestScratch:
    def test_one_by_k_block_scratch_grows_linearly_in_k(self, rng):
        """A 1×k block multiplies L×k and kL×1 terms: O(k · L), not O(k²)."""
        length, peaks = 12, {}
        for k in (100, 800):
            sides = (_block_side(1, k, length, rng), _block_side(k, 1, length, rng))
            tracemalloc.start()
            try:
                score_sides(*sides, n_cells=64)
                peaks[k] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[800] < 1.5 * 8 * peaks[100], peaks

    def test_sub_blocks_bound_a_self_block_working_set(self, monkeypatch):
        """Resolution of a self block holds one sub-block at a time.

        The scratch of a cut block (its peak above what the call keeps:
        the estimators and the matrix) must not grow with the corpus: it
        stays within 1.25× when the corpus doubles.  Scored whole, the
        same blocks' scratch grows about fourfold.
        """
        rng = np.random.default_rng(5)
        corpus = []
        for k in range(48):  # overlapping spans: each is read at ~all the times
            ts = np.sort(rng.uniform(0.0, 60.0, 4))
            xs = np.clip(4.0 + rng.normal(0, 1.0, 4), 0.5, 39.5)
            ys = np.clip(10.0 + rng.normal(0, 2.0, 4), 0.5, 19.5)
            corpus.append(Trajectory.from_arrays(xs, ys, ts, object_id=f"w{k}"))

        def scratch(trajectories):
            measure = STS(GRID, stp_cache_size=0)  # no results outlive a sub-block
            tracemalloc.start()
            try:
                block = measure.similarity_block(trajectories)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - current, block

        whole = STS(GRID, stp_cache_size=0).similarity_block(corpus[:24])
        monkeypatch.setattr(kernel, "SUB_BLOCK_PRODUCTS", 128)
        (half, cut), (doubled, _) = scratch(corpus[:24]), scratch(corpus)
        assert doubled < 1.25 * half, (half, doubled)
        np.testing.assert_array_equal(cut, whole)

    def test_sub_blocks_leave_every_entry_unchanged(self, full, monkeypatch):
        monkeypatch.setattr(kernel, "SUB_BLOCK_PRODUCTS", 40)
        assert len(kernel.plan_sub_blocks([len(t) for t in CORPUS])) > len(CORPUS)
        measure = STS(GRID)
        np.testing.assert_array_equal(measure.similarity_block(CORPUS), full)
        np.testing.assert_array_equal(
            measure.similarity_block(CORPUS[:4], CORPUS[2:]), full[:4, 2:]
        )

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(st.integers(1, 30), max_size=12),
        cols=st.one_of(st.none(), st.lists(st.integers(1, 30), max_size=12)),
        budget=st.integers(1, 400),
    )
    def test_plan_covers_every_pair_once_within_budget(self, rows, cols, budget):
        with mock.patch.object(kernel, "SUB_BLOCK_PRODUCTS", budget):
            plan = kernel.plan_sub_blocks(rows, cols)
        c_lens = rows if cols is None else cols
        seen = []
        for r, c in plan:
            r_ids = list(range(len(rows)))[r]
            c_ids = r_ids if c is None else list(range(len(c_lens)))[c]
            cost = (
                sum(rows[i] for i in r_ids) * len(c_ids)
                + sum(c_lens[j] for j in c_ids) * len(r_ids)
            )
            assert cost <= budget or len(r_ids) == len(c_ids) == 1
            if c is None:
                seen += [(i, j) for i in r_ids for j in r_ids if i <= j]
            else:
                assert cols is not None or r_ids[-1] < c_ids[0]  # rows before columns
                seen += [(i, j) for i in r_ids for j in c_ids]
        if cols is None:
            expected = [(i, j) for i in range(len(rows)) for j in range(i, len(rows))]
        else:
            expected = [(i, j) for i in range(len(rows)) for j in range(len(cols))]
        assert sorted(seen) == sorted(expected)


class TestResolution:
    def test_rows_resolve_only_where_partners_read(self):
        """A row is resolved at its own and the column side's timestamps."""
        rows = [Trajectory.from_arrays([2, 10], [10, 10], [0.0, 10.0], "r0"),
                Trajectory.from_arrays([2, 10], [12, 12], [1.0, 9.0], "r1")]
        cols = [Trajectory.from_arrays([4, 8], [10, 10], [2.0, 8.0], "c0")]
        measure = STS(GRID)
        seen = {}
        for traj in rows + cols:
            stp = measure.stp_for(traj)
            original = stp.stp_batch

            def spy(times, original=original, key=traj.object_id):
                seen.setdefault(key, []).extend(np.asarray(times).tolist())
                return original(times)

            stp.stp_batch = spy
        measure.similarity_block(rows, cols)
        # r0 never meets r1's timestamps: only its own and c0's.
        assert sorted(seen["r0"]) == [0.0, 2.0, 8.0, 10.0]
        assert sorted(seen["r1"]) == [1.0, 2.0, 8.0, 9.0]
        # c0 is read at the rows' timestamps inside its span [2, 8].
        assert sorted(seen["c0"]) == [2.0, 8.0]

    def test_empty_trajectory_rejected(self):
        with pytest.raises(DegenerateTrajectoryError):
            STS(GRID).similarity_block([CORPUS[0]], [Trajectory([])])

    def test_empty_blocks(self):
        measure = STS(GRID)
        assert measure.similarity_block([]).shape == (0, 0)
        assert measure.similarity_block([CORPUS[0]], []).shape == (1, 0)

    def test_call_counter_counts_distinct_pairs(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        measure = STS(GRID, registry=registry)
        measure.similarity_block(CORPUS[:4])
        measure.similarity_block(CORPUS[:2], CORPUS[2:5])
        calls = registry.snapshot()["counters"]["repro_sts_similarity_calls_total"][""]
        assert calls == 10 + 6
