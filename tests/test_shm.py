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
from repro.parallel import ParallelSTS, SharedTrajectoryArena


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


class TestParallelShmParity:
    def test_process_shm_matches_serial_bitwise(self, grid, gallery):
        serial = STS(grid).pairwise(gallery)
        wrapper = ParallelSTS(STS(grid), n_jobs=2)
        # A healthy process run never announces a fallback.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = wrapper.pairwise(gallery)
        assert np.array_equal(serial, out)
        assert wrapper.last_health.backends_used == ["process"]

    def test_query_vs_gallery_shape(self, grid, gallery):
        serial = STS(grid).pairwise(gallery[:3], queries=gallery[3:])
        wrapper = ParallelSTS(STS(grid), n_jobs=2)
        assert np.array_equal(
            serial, wrapper.pairwise(gallery[:3], queries=gallery[3:])
        )

    def test_no_arena_packed_for_single_worker(self, grid, gallery, monkeypatch):
        # n_jobs=1 scores in-process even when a deadline forces the
        # supervised path; packing an arena there would be pure waste,
        # never attached by anyone.
        packed = []
        monkeypatch.setattr(
            SharedTrajectoryArena, "pack", lambda *args, **kwargs: packed.append(args)
        )
        wrapper = ParallelSTS(STS(grid), n_jobs=1)
        out = wrapper.pairwise(gallery, deadline=60.0)
        assert packed == []
        assert np.array_equal(out, STS(grid).pairwise(gallery))


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
        wrapper = ParallelSTS(measure, n_jobs=2, registry=registry)
        with pytest.warns(
            RuntimeWarning, match="from process workers to in-process scoring"
        ):
            out = wrapper.pairwise(gallery)
        expected = np.array(
            [[measure.similarity(a, b) for b in gallery] for a in gallery]
        )
        assert np.array_equal(out, expected)
        snapshot = registry.snapshot()
        fallback = snapshot["counters"]["repro_parallel_shm_fallback_total"]
        assert sum(fallback.values()) >= 1


class TestCheckpointFingerprint:
    def test_chunking_policy_is_part_of_the_fingerprint(self, grid, gallery, tmp_path):
        # The one block plan deals indices by count, as the default plan
        # always did: a journal written by it resumes, while a journal of
        # the retired cost-balanced plan is refused.
        import json

        from repro.errors import CheckpointError

        path = tmp_path / "pairwise.ckpt"
        ParallelSTS(STS(grid), n_jobs=2).pairwise(gallery, checkpoint=str(path))
        journal = json.loads(path.read_text())
        assert journal["fingerprint"] == {
            "kind": "pairwise",
            "plan": "blocks",
            "measure": STS(grid).name,
            "n_rows": 4,
            "n_cols": 4,
            "n_pairs": 10,
            "n_chunks": 10,
            "symmetric": True,
            "chunking": "count",
        }
        resumed = ParallelSTS(STS(grid), n_jobs=2)
        out = resumed.pairwise(gallery, checkpoint=str(path))
        assert resumed.last_health.resumed_chunks == resumed.last_health.n_chunks == 10
        assert np.array_equal(out, STS(grid).pairwise(gallery))

        journal["fingerprint"]["chunking"] = "cost"
        path.write_text(json.dumps(journal))
        with pytest.raises(CheckpointError, match="different run"):
            ParallelSTS(STS(grid), n_jobs=2).pairwise(gallery, checkpoint=str(path))

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
        wrapper = ParallelSTS(STS(grid), n_jobs=2)
        first = wrapper.pairwise(gallery, checkpoint=path)
        assert os.path.exists(path)
        resumed = ParallelSTS(STS(grid), n_jobs=2)
        second = resumed.pairwise(gallery, checkpoint=path)
        assert resumed.last_health.resumed_chunks == resumed.last_health.n_chunks
        assert np.array_equal(first, serial)
        assert np.array_equal(second, serial)
