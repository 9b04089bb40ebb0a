"""Tests of the benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite -q`` (the
tier-1 suite collects only ``tests/``).  Faults are injected into the
checkers' inputs; the library under test is never modified.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import timing  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _run(args, cwd=ROOT, env=None, timeout=170):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )


def _summary(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("n, expected", [(5, None), (20, 50.0), (200, 95.0)])
def test_percentile_rule(n, expected):
    assert timing.highest_percentile(n) == expected
    if expected is not None:
        assert n * (100.0 - expected) / 100.0 >= timing.MIN_BEYOND


def test_timings_are_scaled_by_the_probes_either_side():
    ref = timing.REF_PROBE_S
    assert timing.at_reference_speed(0.5, ref, ref) == pytest.approx(0.5)
    # A host running at half speed doubles both the probe and the timing.
    assert timing.at_reference_speed(1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)
    assert timing.at_reference_speed(1.0, ref, 3 * ref) == pytest.approx(0.5)
    # Set-ups are scaled to the set-up probe's reference time.
    setup_ref = timing.REF_SETUP_PROBE_S
    assert timing.at_reference_speed(1.0, 2 * setup_ref, 2 * setup_ref, setup_ref) == pytest.approx(0.5)


def test_spec_names_are_unique_and_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.fixture(scope="module")
def smoke_runs():
    """All six workloads at smoke scale, untraced and traced."""
    started = time.perf_counter()
    untraced = _run(["--seed", "0", "--scale", "smoke", "--seconds", "0.5"])
    elapsed = time.perf_counter() - started
    traced = _run(["--seed", "0", "--scale", "smoke", "--seconds", "0.5", "--trace", "1"])
    return untraced, elapsed, traced


def test_smoke_run_passes_its_checks_in_under_a_minute(smoke_runs):
    untraced, elapsed, _traced = smoke_runs
    assert untraced.returncode == 0, untraced.stdout + untraced.stderr
    assert elapsed < 60.0
    summary = _summary(untraced.stdout)
    assert summary["correct"] and summary["failed"] == 0
    assert set(summary["workloads"]) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_emitted_name_is_in_the_spec(smoke_runs, trace, section):
    proc = smoke_runs[0] if trace == 0 else smoke_runs[2]
    assert proc.returncode == 0, proc.stdout + proc.stderr
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    for name, result in _summary(proc.stdout)["workloads"].items():
        emitted = result["metrics"]
        assert set(emitted) == set(wanted), name
        assert all(NAME.match(n) and emitted[n]["unit"] == wanted[n] for n in emitted)


def test_traced_ledger_leaves_little_unattributed(smoke_runs):
    for name, result in _summary(smoke_runs[2].stdout)["workloads"].items():
        assert result["metrics"]["trace.unattributed_ratio"]["value"] < 0.10, name


def test_without_the_library_it_fails_without_a_result(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "taxi-match",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


@pytest.mark.parametrize("workload", ["taxi-match-n2", "cluster-link"])
def test_a_run_leaves_no_process_behind(workload):
    # Pool workers, replicas and the shared-memory resource tracker must
    # have ended when the run returns.  The tracker exits by itself soon
    # after its parent does, so the children are listed before that.
    script = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
        "rc = run.main(sys.argv[2:]); print(json.dumps(run._child_pids())); sys.exit(rc)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(HERE), "--workload", workload, "--seed", "0",
         "--scale", "smoke", "--seconds", "0.5"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


# ----------------------------------------------------------------------
# Checkers reject bad inputs
# ----------------------------------------------------------------------
def _outcome(scores, hits=1, ranked=1, problems=()):
    return Outcome(len(scores), np.asarray(scores, dtype=float), hits, ranked, None, list(problems))


def test_op_check_rejects_nan_and_out_of_range_scores():
    assert workloads.op_problems(_outcome([0.2, 0.9])) == []
    assert workloads.op_problems(_outcome([0.2, float("nan")])) == ["non-finite score"]
    assert workloads.op_problems(_outcome([0.2, 1.5])) == ["score outside [0, 1]"]
    assert workloads.op_problems(_outcome([0.2], problems=["coverage 0.500 < 1"]))


def test_accuracy_check_rejects_below_floor():
    good = [_outcome([0.5], hits=1) for _ in range(10)]
    assert workloads.top1(good) == (1.0, None)
    bad = good[:8] + [_outcome([0.5], hits=0) for _ in range(2)]
    accuracy, verdict = workloads.top1(bad)
    assert accuracy == pytest.approx(0.8) and verdict is not None


def test_cross_check_rejects_digest_mismatch():
    same = {"taxi-match": {"digests": {"matrix": "aa"}}, "taxi-match-n2": {"digests": {"matrix": "aa"}}}
    assert run.cross_checks(same) == {"match_matrix_serial_vs_n2": "ok"}
    differ = {"taxi-match": {"digests": {"matrix": "aa"}}, "taxi-match-n2": {"digests": {"matrix": "ab"}}}
    assert run.cross_checks(differ)["match_matrix_serial_vs_n2"] != "ok"
    links = {
        "taxi-link": {"digests": {"top5": ["x", "y", "z"]}},
        "cluster-link": {"digests": {"top5": ["x", "q"]}},
    }
    assert run.cross_checks(links)["link_top5_local_vs_cluster"] != "ok"


# ----------------------------------------------------------------------
# compare.py verdicts
# ----------------------------------------------------------------------
def _set(path, latencies, probe=25.0, metric="latency_p50_ms"):
    with open(path, "w") as handle:
        for value in latencies:
            record = {
                "workload": "taxi-match", "trace": 0, "probe_ms": probe,
                "metrics": {metric: {"value": value, "unit": "ms"}},
            }
            handle.write(json.dumps(record) + "\n")
    return compare.load_set(str(path))


def _verdict(lines, metric="latency_p50_ms"):
    return next(line for line in lines if metric in line).rsplit(": ", 1)[1]


def test_compare_verdicts(tmp_path):
    base = _set(tmp_path / "a", [100.0 + i * 0.1 for i in range(10)])
    same = _set(tmp_path / "b", [100.05 + i * 0.1 for i in range(10)])
    slow = _set(tmp_path / "c", [150.0 + i * 0.1 for i in range(10)])
    noisy = _set(tmp_path / "d", [60.0, 140.0] * 5)
    drift = _set(tmp_path / "e", [100.0 + i * 0.1 for i in range(10)], probe=30.0)
    assert _verdict(compare.report(base, same, SPEC)) == "agree"
    assert _verdict(compare.report(base, slow, SPEC)) == "regress"
    assert _verdict(compare.report(base, noisy, SPEC)) == "unresolved"
    assert _verdict(compare.report(base, drift, SPEC)) == "machine drift"


def test_compare_ignores_setup_below_the_floor(tmp_path):
    def setup(name, seconds):
        return _set(tmp_path / name, [seconds * (1 + i / 100) for i in range(10)], metric="setup_s")

    # Twice as slow, but a millisecond: not judged.
    verdict = compare.report(setup("a", 0.001), setup("b", 0.002), SPEC)
    assert _verdict(verdict, "setup_s") == "agree"
    # The same change above the floor is a regression.
    verdict = compare.report(setup("c", 0.1), setup("d", 0.2), SPEC)
    assert _verdict(verdict, "setup_s") == "regress"


def test_a_workload_that_hangs_is_a_run_without_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "WORKLOAD_TIMEOUT_S", 0.01)
    spec = dict(SPEC, workloads=SPEC["workloads"][:1])
    args = run.parse_args(["--seed", "0", "--scale", "smoke"], spec)
    assert run.run_all(args, spec) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert "timed out" in lines[0]
    assert json.loads(lines[-1])["correct"] is False


def test_compare_claim_rule(tmp_path):
    base = _set(tmp_path / "a", [100.0 + i for i in range(10)])
    faster = _set(tmp_path / "b", [80.0 + i for i in range(10)])
    ok, _ = compare.claim(base, faster, SPEC, "latency_p50_ms:taxi-match")
    assert ok
    close = _set(tmp_path / "c", [99.0 + i for i in range(10)])
    ok, _ = compare.claim(base, close, SPEC, "latency_p50_ms:taxi-match")
    assert not ok  # wins every pair, but the gap is inside the parent's IQR
    short = _set(tmp_path / "d", [80.0 + i for i in range(5)])
    ok, detail = compare.claim(base, short, SPEC, "latency_p50_ms:taxi-match")
    assert not ok and "pairs" in detail
