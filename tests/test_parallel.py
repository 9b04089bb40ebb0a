"""Tests for the parallel pairwise scoring package (:mod:`repro.parallel`).

The contract under test: the parallel matrix equals the serial one to the
last bit (same scoring code per entry, deterministic assembly), for both
backends, any worker count, and both the symmetric and query-vs-gallery
shapes.
"""

import os

import numpy as np
import pytest

from repro.core.grid import Grid
from repro.core.sts import STS
from repro.core.trajectory import Trajectory
from repro.parallel import ParallelSTS, chunk_pairs, resolve_n_jobs


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
        Trajectory.from_arrays(xs, [y] * len(xs), np.array([0.0, 5.0, 10.0, 15.0]) + t0)
        for xs, y, t0 in specs
    ]


class TestResolveNJobs:
    def test_none_and_one_are_serial(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(1) == 1

    def test_positive_passthrough(self):
        assert resolve_n_jobs(3) == 3

    def test_minus_one_is_available_cpus(self):
        from repro.parallel import available_cpus

        assert resolve_n_jobs(-1) == available_cpus()

    def test_sklearn_negative_convention(self):
        from repro.parallel import available_cpus

        assert resolve_n_jobs(-2) == max(1, available_cpus() - 1)

    def test_available_cpus_prefers_affinity(self, monkeypatch):
        # A cgroup-limited container may expose 64 cores via cpu_count
        # while pinning the process to 2; the pool must size to the 2.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        from repro.parallel import available_cpus

        assert available_cpus() == 2
        assert resolve_n_jobs(-1) == 2

    def test_available_cpus_falls_back_without_affinity(self, monkeypatch):
        def boom(pid):
            raise AttributeError("no sched_getaffinity on this platform")

        monkeypatch.setattr(os, "sched_getaffinity", boom, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        from repro.parallel import available_cpus

        assert available_cpus() == 7

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="n_jobs"):
            resolve_n_jobs(0)


class TestChunkPairs:
    def test_partitions_without_loss_or_duplication(self):
        pairs = [(i, j) for i in range(7) for j in range(i, 7)]
        chunks = chunk_pairs(pairs, n_workers=3)
        flat = [p for chunk in chunks for p in chunk]
        assert sorted(flat) == sorted(pairs)
        assert all(chunk for chunk in chunks)

    def test_chunk_count_bounded_by_pairs(self):
        pairs = [(0, 0), (0, 1), (1, 1)]
        chunks = chunk_pairs(pairs, n_workers=8, chunks_per_worker=4)
        assert len(chunks) == len(pairs)

    def test_interleaved_assignment(self):
        pairs = list(enumerate(range(8)))
        chunks = chunk_pairs(pairs, n_workers=1, chunks_per_worker=2)
        assert chunks == [pairs[0::2], pairs[1::2]]

    def test_empty(self):
        assert chunk_pairs([], n_workers=4) == []


class TestParallelMatchesSerial:
    def test_thread_backend_symmetric(self, grid, gallery):
        serial = STS(grid).pairwise(gallery)
        parallel = STS(grid).pairwise(gallery, n_jobs=4, backend="thread")
        assert abs(parallel - serial).max() <= 1e-12
        assert np.array_equal(parallel, parallel.T)

    def test_thread_backend_query_gallery(self, grid, gallery):
        serial = STS(grid).pairwise(gallery[:3], queries=gallery[3:])
        parallel = STS(grid).pairwise(
            gallery[:3], queries=gallery[3:], n_jobs=2, backend="thread"
        )
        assert abs(parallel - serial).max() <= 1e-12

    def test_process_backend_symmetric(self, grid, gallery):
        serial = STS(grid).pairwise(gallery)
        parallel = STS(grid).pairwise(gallery, n_jobs=2, backend="process")
        assert abs(parallel - serial).max() <= 1e-12

    def test_n_jobs_one_delegates_to_serial(self, grid, gallery):
        measure = STS(grid)
        wrapper = ParallelSTS(measure, n_jobs=1)
        assert np.array_equal(wrapper.pairwise(gallery), measure.pairwise(gallery))

    def test_single_pair_passthrough(self, grid, gallery):
        measure = STS(grid)
        wrapper = ParallelSTS(measure, n_jobs=2, backend="thread")
        assert wrapper.similarity(gallery[0], gallery[1]) == measure.similarity(
            gallery[0], gallery[1]
        )

    def test_empty_gallery(self, grid):
        out = ParallelSTS(STS(grid), n_jobs=2, backend="thread").pairwise([])
        assert out.shape == (0, 0)


class TestBackendSelection:
    def test_invalid_backend_rejected(self, grid, gallery):
        with pytest.raises(ValueError, match="backend"):
            STS(grid).pairwise(gallery, n_jobs=2, backend="fork")

    def test_auto_falls_back_to_threads_for_unpicklable_measure(self, grid, gallery):
        # A closure-based transition policy cannot cross a process
        # boundary; "auto" must quietly use the thread backend instead.
        from repro.core.speed import GaussianSpeedModel
        from repro.core.transition import SpeedTransitionModel

        measure = STS(grid, transition=lambda t: SpeedTransitionModel(GaussianSpeedModel(1.0, 0.3)))
        serial = np.array(
            [[measure.similarity(a, b) for b in gallery] for a in gallery]
        )
        parallel = ParallelSTS(measure, n_jobs=2, backend="auto").pairwise(gallery)
        assert abs(parallel - serial).max() <= 1e-12

    def test_process_backend_degrades_for_unpicklable_measure_supervised(
        self, grid, gallery
    ):
        # The supervised executor steps down the process→thread→serial
        # ladder instead of failing, and records the degradation.
        from repro.core.speed import GaussianSpeedModel
        from repro.core.transition import SpeedTransitionModel

        measure = STS(grid, transition=lambda t: SpeedTransitionModel(GaussianSpeedModel(1.0, 0.3)))
        serial = np.array(
            [[measure.similarity(a, b) for b in gallery] for a in gallery]
        )
        wrapper = ParallelSTS(measure, n_jobs=2, backend="process")
        parallel = wrapper.pairwise(gallery)
        assert abs(parallel - serial).max() <= 1e-12
        assert wrapper.last_health is not None
        assert wrapper.last_health.degradations
        assert "process" not in wrapper.last_health.backends_used
