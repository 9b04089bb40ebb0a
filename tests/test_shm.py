"""Tests for the shared-memory arena transport (:mod:`repro.parallel.shm`).

The contract under test: the arena is a pure transport — every score
computed against a worker's zero-copy views is bitwise identical to the
serial path — plus the ownership protocol (parent unlinks exactly once,
views never copy) and the announce-on-fallback guarantee.
"""

import os
import warnings

import numpy as np
import pytest

from repro.core.grid import Grid
from repro.core.sts import STS
from repro.core.trajectory import Trajectory
from repro.parallel import (
    ParallelSTS,
    SharedTrajectoryArena,
    chunk_pairs_by_cost,
    pair_costs,
)


@pytest.fixture
def grid():
    return Grid(0, 0, 40, 20, cell_size=2.0)


@pytest.fixture
def gallery():
    """Four short overlapping trajectories in two corridors."""
    specs = [
        ([2.0, 8.0, 14.0, 20.0], 10.0, 0.0),
        ([4.0, 10.0, 16.0, 22.0], 10.0, 2.0),
        ([2.0, 8.0, 14.0, 20.0], 4.0, 0.0),
        ([20.0, 14.0, 8.0, 2.0], 6.0, 1.0),
    ]
    return [
        Trajectory.from_arrays(
            xs, [y] * len(xs), np.array([0.0, 5.0, 10.0, 15.0]) + t0,
            object_id=f"obj-{k}",
        )
        for k, (xs, y, t0) in enumerate(specs)
    ]


class TestArenaRoundtrip:
    def test_pack_attach_is_exact(self, gallery):
        with SharedTrajectoryArena.pack(gallery) as arena:
            view = SharedTrajectoryArena.attach(arena.handle)
            try:
                assert len(view.gallery) == len(gallery)
                assert view.queries is None
                for original, packed in zip(gallery, view.gallery):
                    assert np.array_equal(original.xy, packed.xy)
                    assert np.array_equal(original.timestamps, packed.timestamps)
                    assert original.object_id == packed.object_id
            finally:
                view.close()

    def test_views_are_zero_copy(self, gallery):
        with SharedTrajectoryArena.pack(gallery) as arena:
            view = SharedTrajectoryArena.attach(arena.handle)
            try:
                for packed in view.gallery:
                    assert not packed.xy.flags["OWNDATA"]
                    assert not packed.timestamps.flags["OWNDATA"]
            finally:
                view.close()

    def test_gallery_and_queries_split(self, gallery):
        with SharedTrajectoryArena.pack(gallery[:3], gallery[3:]) as arena:
            view = SharedTrajectoryArena.attach(arena.handle)
            try:
                assert len(view.gallery) == 3
                assert view.queries is not None and len(view.queries) == 1
                assert np.array_equal(view.queries[0].xy, gallery[3].xy)
            finally:
                view.close()

    def test_empty_corpus_packs(self):
        with SharedTrajectoryArena.pack([]) as arena:
            view = SharedTrajectoryArena.attach(arena.handle)
            try:
                assert view.gallery == []
            finally:
                view.close()

    def test_close_is_idempotent_and_unlinks(self, gallery):
        arena = SharedTrajectoryArena.pack(gallery)
        name = arena.handle.shm_name
        arena.close()
        arena.close()
        assert arena.closed
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_matches_requires_identity(self, gallery):
        with SharedTrajectoryArena.pack(gallery) as arena:
            assert arena.matches(gallery)
            assert not arena.matches(list(reversed(gallery)))
            assert not arena.matches(gallery[:3])
            assert not arena.matches(gallery, queries=gallery[:1])
        assert not arena.matches(gallery)  # closed arena never matches


class TestParallelShmParity:
    def test_process_shm_matches_serial_bitwise(self, grid, gallery):
        serial = STS(grid).pairwise(gallery)
        wrapper = ParallelSTS(STS(grid), n_jobs=2, backend="process", shm=True)
        assert np.array_equal(serial, wrapper.pairwise(gallery))

    def test_cost_chunking_matches_serial_bitwise(self, grid, gallery):
        serial = STS(grid).pairwise(gallery)
        wrapper = ParallelSTS(
            STS(grid), n_jobs=2, backend="process", shm=True, chunking="cost"
        )
        assert np.array_equal(serial, wrapper.pairwise(gallery))

    def test_query_vs_gallery_shape(self, grid, gallery):
        serial = STS(grid).pairwise(gallery[:3], queries=gallery[3:])
        wrapper = ParallelSTS(STS(grid), n_jobs=2, backend="process", shm=True)
        assert np.array_equal(
            serial, wrapper.pairwise(gallery[:3], queries=gallery[3:])
        )

    def test_query_row(self, grid, gallery):
        measure = STS(grid)
        expected = np.array(
            [measure.similarity(gallery[0], g) for g in gallery[1:]]
        )
        wrapper = ParallelSTS(STS(grid), n_jobs=2, backend="process", shm=True)
        row = wrapper.query(gallery[0], gallery[1:])
        assert np.array_equal(row, expected)

    def test_query_cols_subset(self, grid, gallery):
        measure = STS(grid)
        wrapper = ParallelSTS(STS(grid), n_jobs=2, backend="process", shm=True)
        row = wrapper.query(gallery[0], gallery, cols=[2, 0])
        expected = np.array(
            [measure.similarity(gallery[0], gallery[c]) for c in (2, 0)]
        )
        assert np.array_equal(row, expected)

    def test_shm_false_still_matches(self, grid, gallery):
        serial = STS(grid).pairwise(gallery)
        wrapper = ParallelSTS(STS(grid), n_jobs=2, backend="process", shm=False)
        assert np.array_equal(serial, wrapper.pairwise(gallery))


class TestPersistentPool:
    def test_arena_and_pool_reused_across_calls(self, grid, gallery):
        with ParallelSTS(
            STS(grid), n_jobs=2, backend="process", shm=True, persistent=True
        ) as wrapper:
            first = wrapper.pairwise(gallery)
            arena_name = wrapper._arena.handle.shm_name
            warm = wrapper._warm["executor"]
            second = wrapper.pairwise(gallery)
            assert wrapper._arena.handle.shm_name == arena_name
            assert wrapper._warm["executor"] is warm
            assert np.array_equal(first, second)
        assert wrapper._arena is None and wrapper._warm is None

    def test_query_after_pairwise_repacks_gallery_only(self, grid, gallery):
        measure = STS(grid)
        expected = np.array([measure.similarity(gallery[0], g) for g in gallery])
        with ParallelSTS(
            STS(grid), n_jobs=2, backend="process", shm=True, persistent=True
        ) as wrapper:
            wrapper.pairwise(gallery[:3], queries=gallery[3:])
            row1 = wrapper.query(gallery[0], gallery)
            name = wrapper._arena.handle.shm_name
            row2 = wrapper.query(gallery[0], gallery)
            assert wrapper._arena.handle.shm_name == name  # reused
        assert np.array_equal(row1, expected)
        assert np.array_equal(row2, expected)

    def test_new_gallery_repacks(self, grid, gallery):
        with ParallelSTS(
            STS(grid), n_jobs=2, backend="process", shm=True, persistent=True
        ) as wrapper:
            wrapper.pairwise(gallery)
            name = wrapper._arena.handle.shm_name
            other = [gallery[0], gallery[2]]
            out = wrapper.pairwise(other)
            assert wrapper._arena.handle.shm_name != name
        assert np.array_equal(out, STS(grid).pairwise(other))

    def test_new_gallery_invalidates_warm_pool_without_arena(self, grid, gallery):
        # With shm=False the warm-pool key has shm_name None on both
        # sides; reuse must still be refused for a different gallery, or
        # the warm workers would score the *old* corpus at the new
        # indices.  Regression test for collection-identity keying.
        with ParallelSTS(
            STS(grid), n_jobs=2, backend="process", shm=False, persistent=True
        ) as wrapper:
            wrapper.pairwise(gallery)
            warm = wrapper._warm["executor"]
            other = [gallery[3], gallery[1]]
            out = wrapper.pairwise(other)
            assert wrapper._warm["executor"] is not warm
        assert np.array_equal(out, STS(grid).pairwise(other))

    def test_new_gallery_invalidates_warm_pool_thread_backend(self, grid, gallery):
        with ParallelSTS(
            STS(grid), n_jobs=2, backend="thread", persistent=True
        ) as wrapper:
            wrapper.pairwise(gallery)
            other = [gallery[3], gallery[1]]
            out = wrapper.pairwise(other)
        assert np.array_equal(out, STS(grid).pairwise(other))

    def test_same_gallery_reuses_warm_pool_without_arena(self, grid, gallery):
        # The flip side: identity keying must not *break* warm reuse when
        # the collections genuinely are the same objects.
        with ParallelSTS(
            STS(grid), n_jobs=2, backend="process", shm=False, persistent=True
        ) as wrapper:
            first = wrapper.pairwise(gallery)
            warm = wrapper._warm["executor"]
            second = wrapper.pairwise(gallery)
            assert wrapper._warm["executor"] is warm
        assert np.array_equal(first, second)

    def test_no_arena_packed_for_single_worker(self, grid, gallery):
        # n_jobs=1 runs on the serial rung even when a checkpoint forces
        # the supervised path; packing an arena there would be pure
        # waste, never attached by anyone.
        wrapper = ParallelSTS(STS(grid), n_jobs=1, backend="process", shm=True)
        assert not wrapper._shm_wanted()
        out = wrapper.pairwise(gallery, deadline=60.0)
        assert wrapper._arena is None
        assert np.array_equal(out, STS(grid).pairwise(gallery))


class TestCostChunking:
    def test_partition_without_loss_or_duplication(self):
        pairs = [(i, j) for i in range(7) for j in range(i, 7)]
        lengths = [5 * (i + 1) for i in range(7)]
        costs = pair_costs(pairs, lengths, lengths)
        chunks = chunk_pairs_by_cost(pairs, costs, n_workers=3)
        flat = [p for chunk in chunks for p in chunk]
        assert sorted(flat) == sorted(pairs)
        assert len(flat) == len(set(flat))

    def test_balances_skewed_costs(self):
        # One giant pair plus many tiny ones: count-chunking would put
        # several tiny pairs alongside the giant; cost-chunking gives the
        # giant its own chunk (2 chunks requested via 1 worker x 2).
        pairs = [(0, j) for j in range(9)]
        costs = [1000] + [1] * 8
        chunks = chunk_pairs_by_cost(pairs, costs, n_workers=1, chunks_per_worker=2)
        totals = sorted(sum(costs[pairs.index(p)] for p in c) for c in chunks)
        assert totals == [8, 1000]

    def test_deterministic(self):
        pairs = [(i, j) for i in range(6) for j in range(i, 6)]
        costs = pair_costs(pairs, [3, 1, 4, 1, 5, 9], [3, 1, 4, 1, 5, 9])
        assert chunk_pairs_by_cost(pairs, costs, 4) == chunk_pairs_by_cost(
            pairs, costs, 4
        )

    def test_empty(self):
        assert chunk_pairs_by_cost([], [], 4) == []


class TestFallbackAnnouncement:
    def test_unpicklable_measure_warns_and_counts(self, grid, gallery):
        from repro.core.speed import GaussianSpeedModel
        from repro.core.transition import SpeedTransitionModel
        from repro.obs.registry import MetricsRegistry

        measure = STS(
            grid,
            transition=lambda t: SpeedTransitionModel(GaussianSpeedModel(1.0, 0.3)),
        )
        registry = MetricsRegistry()
        wrapper = ParallelSTS(
            measure, n_jobs=2, backend="auto", shm=True, registry=registry
        )
        with pytest.warns(RuntimeWarning, match="falling back to the pickling"):
            out = wrapper.pairwise(gallery)
        expected = np.array(
            [[measure.similarity(a, b) for b in gallery] for a in gallery]
        )
        assert np.allclose(out, expected)
        snapshot = registry.snapshot()
        fallback = snapshot["counters"]["repro_parallel_shm_fallback_total"]
        assert sum(fallback.values()) >= 1

    def test_shm_false_never_warns(self, grid, gallery):
        wrapper = ParallelSTS(STS(grid), n_jobs=2, backend="thread", shm=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            wrapper.pairwise(gallery)


class TestCheckpointFingerprint:
    def test_chunking_policy_is_part_of_the_fingerprint(self, grid, gallery):
        count = ParallelSTS(STS(grid), n_jobs=2, chunking="count")
        cost = ParallelSTS(STS(grid), n_jobs=2, chunking="cost")
        fp_count = count._fingerprint(4, 4, 10, 8, True)
        fp_cost = cost._fingerprint(4, 4, 10, 8, True)
        assert fp_count != fp_cost
        assert fp_count["chunking"] == "count"
        assert fp_cost["chunking"] == "cost"

    def test_journal_of_pair_list_chunks_is_refused(self, grid, gallery, tmp_path):
        # A journal whose chunks were pair lists has the same counts as a
        # block plan but no "plan" entry; resuming it would read its chunk
        # k as block k.
        import json

        from repro.errors import CheckpointError

        path = tmp_path / "pairwise.ckpt"
        ParallelSTS(STS(grid), n_jobs=1).pairwise(gallery, checkpoint=str(path))
        journal = json.loads(path.read_text())
        assert journal["fingerprint"].pop("plan") == "blocks"
        path.write_text(json.dumps(journal))
        with pytest.raises(CheckpointError, match="different run"):
            ParallelSTS(STS(grid), n_jobs=1).pairwise(gallery, checkpoint=str(path))

    def test_checkpoint_resume_still_works_with_shm(self, grid, gallery, tmp_path):
        path = str(tmp_path / "pairwise.ckpt")
        serial = STS(grid).pairwise(gallery)
        wrapper = ParallelSTS(STS(grid), n_jobs=2, backend="process", shm=True)
        first = wrapper.pairwise(gallery, checkpoint=path)
        assert os.path.exists(path)
        resumed = ParallelSTS(STS(grid), n_jobs=2, backend="process", shm=True)
        second = resumed.pairwise(gallery, checkpoint=path)
        assert resumed.last_health.resumed_chunks == resumed.last_health.n_chunks
        assert np.array_equal(first, serial)
        assert np.array_equal(second, serial)


class TestDefaults:
    def test_invalid_values_rejected(self, grid):
        with pytest.raises(ValueError, match="chunking"):
            ParallelSTS(STS(grid), chunking="weighted")
        with pytest.raises(ValueError, match="shm"):
            ParallelSTS(STS(grid), shm="yes")

    def test_process_wide_defaults_resolve(self, grid):
        from repro.parallel import get_parallel_defaults, set_parallel_defaults

        before = get_parallel_defaults()
        try:
            set_parallel_defaults(shm=False, chunking="cost")
            wrapper = ParallelSTS(STS(grid), n_jobs=2)
            assert wrapper.shm is False
            assert wrapper.chunking == "cost"
            explicit = ParallelSTS(STS(grid), n_jobs=2, shm=True, chunking="count")
            assert explicit.shm is True
            assert explicit.chunking == "count"
        finally:
            set_parallel_defaults(**before)
