"""Leak-safety of the shared-memory arena under faults.

The ownership protocol says the parent owns the segment and unlinks it
exactly once, no matter how the run ends: clean exit, a worker taken by
SIGKILL, a hang that makes the service kill the worker, or a
degradation off the shard workers entirely.  These tests assert the
protocol's observable consequence — every segment the run's arenas
created is gone from ``/dev/shm`` afterwards — and that Python's
``resource_tracker`` agrees (no "leaked shared_memory" warning at
interpreter shutdown).  They follow the segments their own arenas
create, by name, so segments other processes on the host create and
remove meanwhile do not matter.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterService
from repro.cluster import service as cluster_service
from repro.core.sts import STS
from repro.parallel import ParallelSTS, SharedTrajectoryArena

from .faults import FaultyMeasure

SHM_DIR = Path("/dev/shm")

pytestmark = pytest.mark.skipif(
    not SHM_DIR.is_dir(), reason="needs a POSIX /dev/shm to observe segments"
)


class PackSpy:
    """The segment of every arena :meth:`SharedTrajectoryArena.pack` creates.

    ``attempts`` counts the calls; with ``error`` set, a call raises it
    instead of packing (a platform without ``/dev/shm``).
    """

    def __init__(self):
        self.attempts = 0
        self.names: list[str] = []
        self.error: Exception | None = None

    def assert_unlinked(self) -> None:
        """At least one arena was packed, and every one's segment is gone."""
        assert self.names, "no arena was packed"
        left = [name for name in self.names if (SHM_DIR / name).exists()]
        assert not left, left


@pytest.fixture
def packed(monkeypatch):
    spy = PackSpy()
    real = SharedTrajectoryArena.pack.__func__

    def pack(cls, *args, **kwargs):
        spy.attempts += 1
        if spy.error is not None:
            raise spy.error
        arena = real(cls, *args, **kwargs)
        spy.names.append(arena.handle.shm_name)
        return arena

    monkeypatch.setattr(SharedTrajectoryArena, "pack", classmethod(pack))
    return spy


class ProcessAllergicMeasure:
    """Kills any worker *process* that scores with it; fine in-process.

    Deterministic degradation driver: every gather's workers die with a
    SIGKILL-equivalent (``os._exit``), so the engine must step down to
    in-process scoring — where the pid check passes — while the arenas it
    packed for the workers have to be cleaned up.
    """

    def __init__(self, base):
        self.base = base
        self.home_pid = os.getpid()

    @property
    def name(self) -> str:
        return f"process-allergic({getattr(self.base, 'name', 'measure')})"

    def similarity(self, tra1, tra2) -> float:
        if os.getpid() != self.home_pid:
            os._exit(1)
        return self.base.similarity(tra1, tra2)


class TestNoLeakedSegments:
    def test_normal_run_leaves_no_segment(self, grid, gallery, clean_serial, packed):
        wrapper = ParallelSTS(STS(grid), n_jobs=2)
        out = wrapper.pairwise(gallery)
        assert np.array_equal(out, clean_serial)
        packed.assert_unlinked()

    def test_sigkilled_worker_leaves_no_segment(
        self, grid, gallery, clean_serial, tmp_path, packed
    ):
        faulty = FaultyMeasure(
            STS(grid), "crash", ("a", "c"), tmp_path / "crash.token"
        )
        wrapper = ParallelSTS(faulty, n_jobs=2)
        out = wrapper.pairwise(gallery)
        assert np.array_equal(out, clean_serial)
        assert sum(report.restarts for report in wrapper.last_health.reports) >= 1
        packed.assert_unlinked()

    def test_hung_worker_killed_pool_leaves_no_segment(
        self, grid, gallery, clean_serial, tmp_path, packed, monkeypatch
    ):
        monkeypatch.setattr(cluster_service, "REQUEST_TIMEOUT_S", 1.5)
        faulty = FaultyMeasure(
            STS(grid), "hang", ("a", "c"), tmp_path / "hang.token",
            hang_seconds=60.0,
        )
        wrapper = ParallelSTS(faulty, n_jobs=2)
        out = wrapper.pairwise(gallery)
        assert np.array_equal(out, clean_serial)
        events = [e for report in wrapper.last_health.reports for e in report.events]
        assert any("timed out" in event for event in events)
        packed.assert_unlinked()

    def test_deadline_leaves_no_segment(self, grid, gallery, clean_serial, tmp_path, packed):
        # The hung replica is killed at the deadline, its blocks come back
        # NaN, and every arena the call packed is unlinked.
        faulty = FaultyMeasure(
            STS(grid), "hang", ("a", "c"), tmp_path / "hang.token",
            hang_seconds=60.0,
        )
        wrapper = ParallelSTS(faulty, n_jobs=2)
        out = wrapper.pairwise(gallery, deadline=1.5)
        assert wrapper.last_health.deadline_expired
        scored = ~np.isnan(out)
        assert not scored.all()
        assert np.array_equal(out[scored], clean_serial[scored])
        packed.assert_unlinked()

    def test_degradation_leaves_no_segment(self, grid, gallery, clean_serial, packed):
        wrapper = ParallelSTS(ProcessAllergicMeasure(STS(grid)), n_jobs=2)
        with pytest.warns(
            RuntimeWarning, match="from process workers to in-process scoring"
        ):
            out = wrapper.pairwise(gallery)
        assert np.array_equal(out, clean_serial)
        health = wrapper.last_health
        assert health.degradations == ["process->serial"]
        assert health.reports and not any(report.ok for report in health.reports)
        packed.assert_unlinked()

    def test_workers_that_cannot_start_score_in_process(
        self, grid, gallery, clean_serial, monkeypatch, packed
    ):
        # A fork that fails (EAGAIN: out of process ids) is a service that
        # cannot start: no gather, no retry, one announced step down, and
        # the arenas packed before the fork are unlinked.
        import errno
        import multiprocessing.process

        from repro.obs.registry import MetricsRegistry

        def no_fork(self):
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_fork)
        registry = MetricsRegistry()
        wrapper = ParallelSTS(STS(grid), n_jobs=2, registry=registry)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = wrapper.pairwise(gallery)
        assert np.array_equal(out, clean_serial)
        health = wrapper.last_health
        assert health.reports == []
        assert health.retries == 0
        assert health.degradations == ["process->serial"]
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "Errno 11" in str(runtime[0].message)
        fallback = registry.snapshot()["counters"]["repro_parallel_shm_fallback_total"]
        assert sum(fallback.values()) == 1
        packed.assert_unlinked()

    def test_pack_failure_leaves_no_segment(self, grid, gallery, clean_serial, packed):
        # A platform without /dev/shm cannot pack the arena: the service
        # cannot start, and the run scores in-process, announced exactly
        # once.
        from repro.obs.registry import MetricsRegistry

        packed.error = OSError("no /dev/shm")
        registry = MetricsRegistry()
        wrapper = ParallelSTS(STS(grid), n_jobs=2, registry=registry)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = wrapper.pairwise(gallery)
        assert np.array_equal(out, clean_serial)
        assert wrapper.last_health.reports == []
        assert wrapper.last_health.degradations == ["process->serial"]
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "from process workers to in-process scoring" in str(runtime[0].message)
        fallback = registry.snapshot()["counters"]["repro_parallel_shm_fallback_total"]
        assert sum(fallback.values()) == 1
        assert packed.attempts >= 1 and packed.names == []

    def test_cluster_pack_failure_ships_the_gallery_and_leaves_no_segment(
        self, grid, gallery, packed
    ):
        # Without /dev/shm each shard's replicas get their gallery slice
        # itself, and a matrix's requests ship its rows, scored exactly as
        # the arenas' views.
        packed.error = OSError("no /dev/shm")
        query = gallery[1]
        expected = STS(grid).similarity_block([query], gallery)[0]
        with ClusterService(STS(grid), gallery, n_shards=2, n_replicas=1) as svc:
            scores, report = svc.query_scores(query)
            matrix, matrix_report = svc.pairwise(gallery[:2])
        assert report.ok and report.coverage == 1.0
        assert np.array_equal([scores[i] for i in range(len(gallery))], expected)
        assert matrix_report.ok
        assert np.array_equal(matrix, STS(grid).pairwise(gallery, queries=gallery[:2]))
        assert packed.attempts >= 1 and packed.names == []


class TestResourceTrackerSilence:
    """The tracker's shutdown audit must not flag our segments."""

    _SCRIPT = """
import numpy as np
from repro.core.grid import Grid
from repro.core.sts import STS
from repro.core.trajectory import Trajectory
from repro.parallel import ParallelSTS

grid = Grid(0, 0, 40, 20, cell_size=2.0)
gallery = [
    Trajectory.from_arrays(
        xs, [y] * len(xs), np.array([0.0, 5.0, 10.0, 15.0]) + t0, object_id=oid
    )
    for oid, xs, y, t0 in [
        ("a", [2.0, 8.0, 14.0, 20.0], 10.0, 0.0),
        ("b", [4.0, 10.0, 16.0, 22.0], 10.0, 2.0),
        ("c", [2.0, 8.0, 14.0, 20.0], 4.0, 0.0),
    ]
]
serial = STS(grid).pairwise(gallery)
parallel = ParallelSTS(STS(grid), n_jobs=2)
assert np.array_equal(parallel.pairwise(gallery), serial)
print("OK")
"""

    def test_no_leak_warning_at_interpreter_exit(self):
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error::UserWarning", "-c", self._SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout
        assert "leaked shared_memory" not in proc.stderr
        assert "resource_tracker" not in proc.stderr
