"""Worker death, hangs, raised errors and corrupt scores all recover.

The acceptance bar: after any injected fault the supervised run's final
matrix is **bitwise-identical** to a clean serial run, and the
:class:`~repro.parallel.supervisor.RunHealth` report says what happened.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sts import STS
from repro.parallel import ParallelSTS
from repro.parallel.supervisor import MAX_RETRIES

from .faults import FaultyMeasure


def _faulty(grid, kind, tmp_path, **kwargs):
    return FaultyMeasure(
        STS(grid), kind, target=("a", "d"), token_path=tmp_path / "token", **kwargs
    )


class AlwaysFails:
    """Raises on the target pair every single time (picklable, so the
    process pool runs it and exhausts its retries)."""

    name = "always-fails"

    def __init__(self, base):
        self.base = base

    def similarity(self, tra1, tra2):
        if {tra1.object_id, tra2.object_id} == {"a", "d"}:
            raise RuntimeError("permanent fault")
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
        assert health.worker_crashes >= 1
        assert health.retries >= 1
        assert not health.ok
        assert faulty.token.fired

    def test_clean_run_reports_healthy(self, grid, gallery, clean_serial):
        wrapper = ParallelSTS(STS(grid), n_jobs=2)
        out = wrapper.pairwise(gallery)
        assert np.array_equal(out, clean_serial)
        assert wrapper.last_health.ok


class TestHang:
    def test_hung_worker_is_timed_out_killed_and_retried(
        self, grid, gallery, clean_serial, tmp_path
    ):
        faulty = _faulty(grid, "hang", tmp_path, hang_seconds=60.0)
        wrapper = ParallelSTS(faulty, n_jobs=2, chunk_timeout=1.5)
        out = wrapper.pairwise(gallery)
        assert np.array_equal(out, clean_serial)
        health = wrapper.last_health
        assert health.timeouts >= 1
        assert any(e.kind == "timeout" for e in health.events)


class TestRaisedError:
    def test_raised_error_is_retried(self, grid, gallery, clean_serial, tmp_path):
        faulty = _faulty(grid, "raise", tmp_path)
        wrapper = ParallelSTS(faulty, n_jobs=2)
        out = wrapper.pairwise(gallery)
        assert np.array_equal(out, clean_serial)
        health = wrapper.last_health
        assert health.retries >= 1
        assert any(e.kind == "error" for e in health.events)


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
        assert health.corrupt_scores >= 1
        assert any(e.kind == "corrupt-score" for e in health.events)


class TestDegradationLadder:
    def test_persistent_failure_degrades_and_skip_policy_fills_nan(
        self, grid, gallery, tmp_path
    ):
        wrapper = ParallelSTS(AlwaysFails(STS(grid)), n_jobs=2, on_error="skip")
        with pytest.warns(RuntimeWarning, match="in-process"):
            out = wrapper.pairwise(gallery)
        health = wrapper.last_health
        # The pool ran and failed until its retries were spent.
        assert health.rounds == MAX_RETRIES + 1
        assert health.degradations == ["process->serial"]
        assert health.skipped_pairs >= 1
        # Only the poisoned pair is NaN; everything else was scored.
        assert np.isnan(out[0, 3]) and np.isnan(out[3, 0])
        mask = ~np.isnan(out)
        assert mask.sum() == out.size - 2
        assert np.isfinite(out[mask]).all()

    def test_persistent_failure_raises_by_default(self, grid, gallery, tmp_path):
        wrapper = ParallelSTS(AlwaysFails(STS(grid)), n_jobs=2)
        with pytest.warns(RuntimeWarning, match="in-process"):
            with pytest.raises(RuntimeError, match="permanent fault"):
                wrapper.pairwise(gallery)
