"""Worker death, hangs, raised errors and corrupt scores all recover.

The acceptance bar: after any injected fault the final matrix is
**bitwise-identical** to a clean serial run, and the
:class:`~repro.parallel.MatrixHealth` report (with the
:class:`~repro.cluster.ClusterReport` of every gather) says what
happened.
"""

from __future__ import annotations

import inspect
import json
import time

import numpy as np
import pytest

from repro.cluster import service as cluster_service
from repro.core import kernel
from repro.core.sts import STS
from repro.parallel import ParallelSTS

from .faults import FaultyMeasure


def _faulty(grid, kind, tmp_path, **kwargs):
    return FaultyMeasure(
        STS(grid), kind, target=("a", "d"), token_path=tmp_path / "token", **kwargs
    )


def _events(health) -> list[str]:
    return [event for report in health.reports for event in report.events]


class AlwaysFails:
    """Raises on the target pair every single time (picklable, so the
    shard workers run it and exhaust their gathers)."""

    name = "always-fails"

    def __init__(self, base):
        self.base = base

    def similarity(self, tra1, tra2):
        if {tra1.object_id, tra2.object_id} == {"a", "d"}:
            raise RuntimeError("permanent fault")
        return self.base.similarity(tra1, tra2)


class SlowPairs:
    """A healthy measure that takes ``delay_s`` per pair (no block kernel)."""

    name = "slow-pairs"

    def __init__(self, base, delay_s: float):
        self.base = base
        self.delay_s = delay_s

    def similarity(self, tra1, tra2):
        time.sleep(self.delay_s)
        return self.base.similarity(tra1, tra2)


class TestWorkerDeath:
    def test_crashed_worker_chunk_is_retried_bitwise_identical(
        self, grid, gallery, clean_serial, tmp_path
    ):
        faulty = _faulty(grid, "crash", tmp_path)
        wrapper = ParallelSTS(faulty, n_jobs=2)
        out = wrapper.pairwise(gallery)
        assert np.array_equal(out, clean_serial)
        health = wrapper.last_health
        assert health.retries >= 1
        assert sum(report.restarts for report in health.reports) >= 1
        assert any("died mid-query" in event for event in _events(health))
        assert not health.ok
        assert not health.degradations
        assert faulty.token.fired

    def test_clean_run_reports_healthy(self, grid, gallery, clean_serial):
        wrapper = ParallelSTS(STS(grid), n_jobs=2)
        out = wrapper.pairwise(gallery)
        assert np.array_equal(out, clean_serial)
        assert wrapper.last_health.ok
        assert len(wrapper.last_health.reports) == 1


class TestHang:
    def test_hung_worker_is_timed_out_killed_and_retried(
        self, grid, gallery, clean_serial, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cluster_service, "REQUEST_TIMEOUT_S", 1.5)
        faulty = _faulty(grid, "hang", tmp_path, hang_seconds=60.0)
        wrapper = ParallelSTS(faulty, n_jobs=2)
        out = wrapper.pairwise(gallery)
        assert np.array_equal(out, clean_serial)
        health = wrapper.last_health
        assert health.retries >= 1
        assert any("timed out" in event and "killed" in event for event in _events(health))
        assert sum(report.restarts for report in health.reports) >= 1

    def test_long_healthy_block_is_not_taken_for_a_hang(
        self, grid, gallery, clean_serial, monkeypatch
    ):
        # One pair per sub-block, 0.1 s each: a shard's request runs past
        # the timeout, while its replica reports progress every 0.1 s.
        monkeypatch.setattr(cluster_service, "REQUEST_TIMEOUT_S", 0.4)
        monkeypatch.setattr(kernel, "SUB_BLOCK_PRODUCTS", 1)
        wrapper = ParallelSTS(SlowPairs(STS(grid), 0.1), n_jobs=2)
        out = wrapper.pairwise(gallery)
        assert np.array_equal(out, clean_serial)
        health = wrapper.last_health
        assert health.ok, _events(health)
        (report,) = health.reports
        assert report.elapsed_ms > 1000.0 * cluster_service.REQUEST_TIMEOUT_S


class TestRaisedError:
    def test_raised_error_is_retried(self, grid, gallery, clean_serial, tmp_path):
        faulty = _faulty(grid, "raise", tmp_path)
        wrapper = ParallelSTS(faulty, n_jobs=2)
        out = wrapper.pairwise(gallery)
        assert np.array_equal(out, clean_serial)
        health = wrapper.last_health
        assert health.retries >= 1
        assert any("injected fault" in event for event in _events(health))


class TestCorruptScore:
    def test_nan_score_is_detected_and_rescored(
        self, grid, gallery, clean_serial, tmp_path
    ):
        faulty = _faulty(grid, "corrupt", tmp_path)
        wrapper = ParallelSTS(faulty, n_jobs=2)
        out = wrapper.pairwise(gallery)
        assert np.array_equal(out, clean_serial)
        assert np.isfinite(out).all()
        health = wrapper.last_health
        assert health.retries >= 1
        assert any("non-finite" in event for event in health.events)


class TestDegradationLadder:
    def test_persistent_failure_raises_by_default(self, grid, gallery, tmp_path):
        wrapper = ParallelSTS(AlwaysFails(STS(grid)), n_jobs=2)
        with pytest.warns(RuntimeWarning, match="in-process"):
            with pytest.raises(RuntimeError, match="permanent fault"):
                wrapper.pairwise(gallery)
        health = wrapper.last_health
        # Every gather failed on the poisoned block before the step down:
        # the first and max_restarts more.
        max_restarts = inspect.signature(cluster_service.ClusterService).parameters[
            "max_restarts"
        ].default
        assert health.retries == max_restarts
        assert len(health.reports) == health.retries + 1
        assert health.degradations == ["process->serial"]


class TestDeadline:
    def test_deadline_sheds_unscored_blocks_and_journals_none(
        self, grid, gallery, clean_serial, tmp_path
    ):
        journal = tmp_path / "pairwise.json"
        faulty = _faulty(grid, "hang", tmp_path, hang_seconds=60.0)
        wrapper = ParallelSTS(faulty, n_jobs=2)
        started = time.monotonic()
        out = wrapper.pairwise(gallery, checkpoint=journal, deadline=1.5)
        # The hung replica is killed, not awaited, once the deadline passes.
        assert time.monotonic() - started < 1.5 + 1.0
        health = wrapper.last_health
        assert health.deadline_expired and not health.degradations
        shed = np.isnan(out)
        assert shed.any() and not shed.all()
        assert np.array_equal(shed, shed.T)
        assert np.array_equal(out[~shed], clean_serial[~shed])
        journaled = json.loads(journal.read_text())["chunks"]
        assert 0 < len(journaled) < health.n_chunks
        assert all(np.isfinite(s) for triples in journaled.values() for _i, _j, s in triples)

        # An unbounded rerun on the journal scores exactly what was shed
        # (the fault fired once; the measure is healthy now).
        rerun = ParallelSTS(faulty, n_jobs=2)
        again = rerun.pairwise(gallery, checkpoint=journal)
        assert np.array_equal(again, clean_serial)
        assert rerun.last_health.resumed_chunks == len(journaled)
