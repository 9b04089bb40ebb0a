"""Plain-timer benchmark harness emitting machine-readable JSON.

The pytest-benchmark suites in this directory are for interactive use;
CI and the performance-tracking workflow instead run the bench modules as
scripts (``python benchmarks/bench_throughput.py``), which time each
configuration with :func:`time_config` and write a ``BENCH_*.json``
summary (mean/p50/p95 per configuration) at the repository root.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

__all__ = ["REPO_ROOT", "HISTORY_LIMIT", "time_config", "write_report"]

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Runs kept under each report's ``history`` key (oldest dropped first).
HISTORY_LIMIT = 20


def _git_sha() -> str | None:
    """The current commit SHA, or None outside a git checkout.

    A tree whose tracked files differ from that commit gets the SHA plus
    ``-dirty``: its timings are not the commit's.
    """
    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        )

    try:
        head = git("rev-parse", "HEAD")
        diff = git("diff", "--quiet", "HEAD", "--")
    except (OSError, subprocess.SubprocessError):
        return None
    sha = head.stdout.strip()
    if head.returncode != 0 or not sha:
        return None
    return f"{sha}-dirty" if diff.returncode == 1 else sha


def _stats(times: list[float]) -> dict:
    ordered = sorted(times)

    def percentile(q: float) -> float:
        if len(ordered) == 1:
            return ordered[0]
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])

    return {
        "repeats": len(times),
        "mean_s": sum(times) / len(times),
        "p50_s": percentile(0.50),
        "p95_s": percentile(0.95),
        "min_s": ordered[0],
        "max_s": ordered[-1],
        "times_s": times,
    }


def _timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def time_config(fn: Callable[[], object], repeats: int = 3, warmup: int = 0) -> dict:
    """Wall-clock stats of ``repeats`` runs of ``fn`` (seconds).

    ``warmup`` extra runs are executed first and discarded — use 1 for
    paths with one-time process-level setup (FFT plan caches, KDE lookup
    tables) when steady-state cost is the quantity of interest.
    """
    for _ in range(warmup):
        fn()
    return _stats([_timed(fn) for _ in range(repeats)])


def write_report(filename: str, payload: dict) -> Path:
    """Write ``payload`` (plus environment metadata) to the repo root.

    Each write also appends a compact run record — commit SHA, UTC
    timestamp, per-config mean seconds — to the report's ``history``
    list (carried over from the existing file, bounded to the last
    :data:`HISTORY_LIMIT` runs), so regressions can be traced to a
    commit without a separate tracking database.

    Consecutive runs on the *same commit* collapse into one record (the
    newest wins): re-running a bench while iterating locally refreshes
    the tail entry instead of flushing real per-commit history out of
    the bounded window.  Records without a SHA (outside a checkout) are
    never collapsed — there is no evidence they are the same code.
    """
    payload = dict(payload)
    payload.setdefault(
        "environment",
        {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpu_count": __import__("os").cpu_count(),
        },
    )
    path = REPO_ROOT / filename
    history: list[dict] = []
    if path.exists():
        try:
            history = list(json.loads(path.read_text()).get("history", []))
        except (OSError, json.JSONDecodeError, AttributeError):
            history = []
    record: dict = {
        "git_sha": _git_sha(),
        "timestamp_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    configs = payload.get("configs")
    if isinstance(configs, dict):
        record["mean_s"] = {
            label: stats["mean_s"]
            for label, stats in configs.items()
            if isinstance(stats, dict) and "mean_s" in stats
        }
    if (
        history
        and record["git_sha"] is not None
        and history[-1].get("git_sha") == record["git_sha"]
    ):
        history[-1] = record
    else:
        history.append(record)
    payload["history"] = history[-HISTORY_LIMIT:]
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
