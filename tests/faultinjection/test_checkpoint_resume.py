"""Checkpoint-resume survives a real SIGKILL and a truncated journal.

Two acceptance scenarios from the robustness issue:

* a ``run_all_experiments`` process killed with ``SIGKILL`` between
  experiments resumes from its checkpoint directory, skips the
  completed experiments, and produces a report identical to a clean
  uninterrupted run;
* a pairwise journal truncated mid-run resumes by recomputing only the
  missing chunks, and the final matrix is bitwise-identical.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.sts import STS
from repro.datasets.synthetic import taxi_dataset
from repro.errors import CheckpointError
from repro.eval.runner import run_all_experiments
from repro.parallel import ParallelSTS

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

#: Child process: completes fig10 (journaled), then SIGKILLs itself in
#: place of the second experiment — no cleanup handlers get to run.
_CHILD_SCRIPT = """
import os, signal
import repro.eval.runner as runner_mod
from repro.datasets.synthetic import taxi_dataset

def killer(dataset, seed=0):
    os.kill(os.getpid(), signal.SIGKILL)

runner_mod._EXPERIMENTS = dict(runner_mod._EXPERIMENTS)
runner_mod._EXPERIMENTS["ext_sensitivity"] = (killer, "killer stand-in")
dataset = taxi_dataset(n_trajectories=4, seed=4)
runner_mod.run_all_experiments(
    dataset, only=["fig10", "ext_sensitivity"], checkpoint_dir={ckpt_dir!r}
)
raise SystemExit("unreachable: the killer experiment should have fired")
"""


class TestExperimentSigkillResume:
    def test_sigkilled_run_resumes_and_matches_clean_run(self, tmp_path):
        ckpt_dir = str(tmp_path / "ckpt")
        script = tmp_path / "child.py"
        script.write_text(_CHILD_SCRIPT.format(ckpt_dir=ckpt_dir))

        proc = subprocess.run(
            [sys.executable, str(script)],
            env={**os.environ, "PYTHONPATH": SRC_DIR},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        # Journal filenames carry the run's fingerprint hash.
        assert list(Path(ckpt_dir).glob("fig10-*.json"))
        assert not list(Path(ckpt_dir).glob("ext_sensitivity*.json"))

        dataset = taxi_dataset(n_trajectories=4, seed=4)
        resumed = run_all_experiments(
            dataset, only=["fig10", "ext_sensitivity"], checkpoint_dir=ckpt_dir
        )
        assert resumed.resumed == ["fig10"]

        clean = run_all_experiments(dataset, only=["fig10", "ext_sensitivity"])
        assert clean.resumed == []
        assert set(resumed.results) == set(clean.results)
        for exp_id in clean.results:
            assert (
                resumed.results[exp_id].to_dict() == clean.results[exp_id].to_dict()
            ), f"resumed {exp_id} differs from clean run"

    def test_different_seed_gets_its_own_journal_in_shared_dir(self, tmp_path):
        # Fingerprint-hashed filenames: a different configuration sharing
        # the directory computes into its own journal instead of erroring.
        ckpt_dir = str(tmp_path / "ckpt")
        dataset = taxi_dataset(n_trajectories=4, seed=4)
        first = run_all_experiments(dataset, only=["fig10"], checkpoint_dir=ckpt_dir)
        assert first.resumed == []
        other = run_all_experiments(
            dataset, seed=1, only=["fig10"], checkpoint_dir=ckpt_dir
        )
        assert other.resumed == []  # computed fresh, not spliced from seed 0
        assert len(list(Path(ckpt_dir).glob("fig10-*.json"))) == 2
        # And each run resumes from its own journal on rerun.
        again = run_all_experiments(
            dataset, seed=1, only=["fig10"], checkpoint_dir=ckpt_dir
        )
        assert again.resumed == ["fig10"]
        assert again.results["fig10"].to_dict() == other.results["fig10"].to_dict()


class TestPairwiseJournalResume:
    def test_truncated_journal_resumes_bitwise_identical(
        self, grid, gallery, clean_serial, tmp_path
    ):
        journal = tmp_path / "pairwise.json"
        wrapper = ParallelSTS(STS(grid), n_jobs=2)
        first = wrapper.pairwise(gallery, checkpoint=journal)
        assert np.array_equal(first, clean_serial)
        data = json.loads(journal.read_text())
        n_chunks = len(data["chunks"])
        assert n_chunks >= 2

        # Simulate a run killed halfway: keep only half the journaled chunks.
        kept = dict(sorted(data["chunks"].items())[: n_chunks // 2])
        data["chunks"] = kept
        journal.write_text(json.dumps(data))

        resumed = ParallelSTS(STS(grid), n_jobs=2)
        out = resumed.pairwise(gallery, checkpoint=journal)
        assert np.array_equal(out, clean_serial)
        health = resumed.last_health
        assert health.resumed_chunks == len(kept)
        assert health.n_chunks == n_chunks

    def test_serial_pairwise_honors_checkpoint_argument(
        self, grid, gallery, clean_serial, tmp_path
    ):
        journal = tmp_path / "pairwise.json"
        out = STS(grid).pairwise(gallery, checkpoint=journal)
        assert np.array_equal(out, clean_serial)
        assert journal.exists()
        # A full journal means a rerun recomputes nothing.
        rerun = ParallelSTS(STS(grid), n_jobs=1)
        again = rerun.pairwise(gallery, checkpoint=journal)
        assert np.array_equal(again, clean_serial)
        health = rerun.last_health
        assert health.resumed_chunks == health.n_chunks > 0

    def test_journal_fingerprint_mismatch_raises(self, grid, gallery, tmp_path):
        journal = tmp_path / "pairwise.json"
        ParallelSTS(STS(grid), n_jobs=2).pairwise(
            gallery, checkpoint=journal
        )
        with pytest.raises(CheckpointError, match="different run"):
            # Different gallery size -> different fingerprint.
            ParallelSTS(STS(grid), n_jobs=2).pairwise(
                gallery[:3], checkpoint=journal
            )
