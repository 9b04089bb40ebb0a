"""Tests for the parallel pairwise scoring package (:mod:`repro.parallel`).

The contract under test: the parallel matrix equals the serial one to the
last bit (same scoring code per entry, deterministic assembly), on shard
workers and in-process, for any worker count, and both the symmetric and
query-vs-gallery shapes.
"""

import gc
import multiprocessing
import os
import warnings
import weakref

import numpy as np
import pytest

from repro.core.grid import Grid
from repro.core.sts import STS
from repro.core.trajectory import Trajectory
from repro.obs.registry import MetricsRegistry
from repro.parallel import ParallelSTS, resolve_n_jobs


@pytest.fixture
def grid():
    return Grid(0, 0, 40, 20, cell_size=2.0)


def _unpicklable_sts(grid):
    """An STS whose closure-based transition policy cannot cross a process boundary."""
    from repro.core.speed import GaussianSpeedModel
    from repro.core.transition import SpeedTransitionModel

    return STS(grid, transition=lambda t: SpeedTransitionModel(GaussianSpeedModel(1.0, 0.3)))


@pytest.fixture
def spawn_only(monkeypatch):
    """A platform that cannot fork: shard workers start by spawn, which
    pickles the measure before any process starts."""
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: spawn)


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


class TestParallelMatchesSerial:
    def test_process_backend_symmetric(self, grid, gallery):
        serial = STS(grid).pairwise(gallery)
        for n_jobs in (2, 3):
            parallel = STS(grid).pairwise(gallery, n_jobs=n_jobs)
            assert np.array_equal(parallel, serial)
            assert np.array_equal(parallel, parallel.T)

    def test_self_plan_scores_each_pair_once_with_balanced_shards(self):
        from repro.parallel.sts import _shard_plan

        members = [[0, 3, 5, 6], [1, 4, 7], [2, 8, 9, 10, 11]]
        counts = {}
        per_shard = [0, 0, 0]
        for shard, rows, local in _shard_plan(members, 12, symmetric=True):
            cols = [members[shard][c] for c in local]
            for a, i in enumerate(cols if rows is None else rows):
                for j in cols[a if rows is None else 0:]:
                    pair = (min(i, j), max(i, j))
                    counts[pair] = counts.get(pair, 0) + 1
                    per_shard[shard] += 1
        assert counts == {(i, j): 1 for i in range(12) for j in range(i, 12)}
        assert max(per_shard) <= 1.5 * min(per_shard)

    def test_n_jobs_one_delegates_to_serial(self, grid, gallery):
        measure = STS(grid)
        wrapper = ParallelSTS(measure, n_jobs=1)
        assert np.array_equal(wrapper.pairwise(gallery), measure.pairwise(gallery))

    def test_single_pair_passthrough(self, grid, gallery):
        measure = STS(grid)
        wrapper = ParallelSTS(measure, n_jobs=2)
        assert wrapper.similarity(gallery[0], gallery[1]) == measure.similarity(
            gallery[0], gallery[1]
        )

    def test_empty_gallery(self, grid):
        out = ParallelSTS(STS(grid), n_jobs=2).pairwise([])
        assert out.shape == (0, 0)


class TestBackendSelection:
    def test_invalid_backend_rejected(self, grid, gallery):
        # The engine is fixed (shard workers, then the calling process)
        # and its recovery policy is the service's: none is a parameter.
        with pytest.raises(TypeError, match="backend"):
            STS(grid).pairwise(gallery, n_jobs=2, backend="thread")
        for setting in (
            {"backend": "auto"},
            {"max_retries": 3},
            {"backoff_base": 0.0},
            {"chunk_timeout": 1.0},
            {"on_error": "skip"},
        ):
            with pytest.raises(TypeError, match=next(iter(setting))):
                ParallelSTS(STS(grid), n_jobs=2, **setting)

    def test_unpicklable_measure_scores_in_process(self, grid, gallery, spawn_only):
        # A closure-based transition policy cannot cross a spawn boundary;
        # STS.pairwise(n_jobs=2) scores in-process instead, bitwise.
        measure = _unpicklable_sts(grid)
        serial = np.array(
            [[measure.similarity(a, b) for b in gallery] for a in gallery]
        )
        with pytest.warns(RuntimeWarning, match="in-process"):
            parallel = measure.pairwise(gallery, n_jobs=2)
        assert np.array_equal(parallel, serial)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_unpicklable_measure_scores_on_forked_workers(self, grid, gallery):
        # Forked shard workers inherit the measure: nothing is pickled.
        measure = _unpicklable_sts(grid)
        serial = np.array(
            [[measure.similarity(a, b) for b in gallery] for a in gallery]
        )
        wrapper = ParallelSTS(measure, n_jobs=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            parallel = wrapper.pairwise(gallery)
        assert np.array_equal(parallel, serial)
        assert wrapper.last_health.ok and wrapper.last_health.reports

    def test_process_backend_degrades_for_unpicklable_measure_supervised(
        self, grid, gallery, spawn_only
    ):
        # The engine steps down from shard workers to in-process scoring
        # instead of failing, and records the step.
        measure = _unpicklable_sts(grid)
        serial = np.array(
            [[measure.similarity(a, b) for b in gallery] for a in gallery]
        )
        wrapper = ParallelSTS(measure, n_jobs=2)
        with pytest.warns(RuntimeWarning, match="in-process"):
            parallel = wrapper.pairwise(gallery)
        assert np.array_equal(parallel, serial)
        assert wrapper.last_health is not None
        assert wrapper.last_health.degradations == ["process->serial"]
        assert wrapper.last_health.reports == []

    def test_pool_that_cannot_start_is_not_a_retry(self, grid, gallery, spawn_only):
        # Nothing was dispatched: no gather, no retry — only the one step
        # down, counted once as a backend that was unavailable.
        registry = MetricsRegistry()
        wrapper = ParallelSTS(_unpicklable_sts(grid), n_jobs=2, registry=registry)
        with pytest.warns(RuntimeWarning, match="in-process"):
            wrapper.pairwise(gallery)
        health = wrapper.last_health
        assert health.n_chunks >= 2
        assert health.retries == 0
        assert health.reports == []
        assert health.degradations == ["process->serial"]
        counters = registry.snapshot()["counters"]
        assert counters["repro_parallel_shm_fallback_total"] == {
            'reason="backend-unavailable"': 1.0
        }
        assert sum(counters["repro_cluster_shard_calls_total"].values()) == 0


class TestInProcessScoringKeepsNoState:
    """In-process scoring leaves nothing of the call behind."""

    @pytest.mark.parametrize("path", ["checkpoint", "unpicklable-fallback", "workers"])
    def test_measure_released_after_the_call(self, grid, gallery, tmp_path, path, request):
        call = {}
        if path == "checkpoint":
            measure, n_jobs = STS(grid), 1
            call = {"checkpoint": str(tmp_path / "pairwise.ckpt")}
        elif path == "unpicklable-fallback":
            request.getfixturevalue("spawn_only")
            measure, n_jobs = _unpicklable_sts(grid), 2
        else:
            measure, n_jobs = STS(grid), 2
        alive = weakref.ref(measure)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            out = ParallelSTS(measure, n_jobs=n_jobs).pairwise(gallery, **call)
        assert np.isfinite(out).all()
        del measure
        gc.collect()
        assert alive() is None
