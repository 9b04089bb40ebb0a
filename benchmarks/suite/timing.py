"""Statistics, resource meters, the drift probe and the run environment."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import thread_time

import numpy as np

#: Percentiles a tail may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def median(values) -> float:
    return float(statistics.median(values))


def iqr(values) -> float:
    """Distance between the first and third quartile (0 below 2 samples)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return float(q3 - q1)


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile of ``values`` (``p`` in 0..100)."""
    return float(np.percentile(np.asarray(values, dtype=float), p))


def highest_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ``MIN_BEYOND`` of ``n`` samples beyond it."""
    best = None
    for p in PERCENTILE_LADDER:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND:
            best = p
    return best


def _proc_stat_cpu(pid: int) -> float:
    """utime + stime of a live process, in seconds (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _proc_peak_rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def cpu_seconds(pids=()) -> float:
    """CPU of this process, its waited-for children and the live ``pids``.

    Pool workers are reaped inside the operation that starts them, so
    ``RUSAGE_CHILDREN`` covers them; long-lived workers (cluster
    replicas) are read from ``/proc/<pid>/stat`` instead.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    return total + sum(_proc_stat_cpu(pid) for pid in pids)


def peak_rss_mib(pids=()) -> float:
    """This process's peak RSS plus the largest child's peak RSS, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    child = max([child] + [_proc_peak_rss_kib(pid) for pid in pids])
    return (own + child) / 1024.0


# ----------------------------------------------------------------------
# Drift probe
# ----------------------------------------------------------------------
_PROBE_PLANE = np.random.default_rng(0).standard_normal((256, 256))
#: The probe's CPU time on the calm 2-vCPU VM the bounds were set on.
#: Timings are reported as they would read on that machine.
REF_PROBE_S = 0.020


def drift_probe() -> float:
    """CPU seconds of this thread for a fixed pure-Python loop plus FFT.

    The probe's work never changes, so its time measures the machine, not
    the code under test.  It is thread CPU time, not wall time, so worker
    processes or threads competing for the CPU do not slow it; what does
    is the host (neighbouring VMs sharing caches and cores), which slows
    the code under test alike.
    """
    start = thread_time()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    for _ in range(6):
        np.fft.irfft2(np.fft.rfft2(_PROBE_PLANE))
    return thread_time() - start


@dataclass(frozen=True)
class _Record:
    x: float
    y: float
    t: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.t)):
            raise ValueError("non-finite record")


_SETUP_ROWS = [
    tuple(np.random.default_rng(i).random((3, 24)).tolist()) for i in range(300)
]
#: About the set-up probe's CPU time on a host where ``drift_probe``
#: reads ``REF_PROBE_S``: set-ups are reported as they would read there.
REF_SETUP_PROBE_S = 0.010


def setup_probe() -> float:
    """CPU seconds of this thread for building 300 short record series.

    Shaped like a set-up, without the library's code: validated frozen
    records, sorted, packed into small arrays.  Such bursts of
    allocation slow more on a busy host than ``drift_probe`` does.  Over
    two back-to-back ten-seed sets of every workload's set-up, with the
    host up to 44 % slower in the second, set-up medians scaled by the
    drift probe moved by up to 21 %; scaled by a probe of this shape, by
    at most 5.3 %.
    """
    start = thread_time()
    kept = []
    for xs, ys, ts in _SETUP_ROWS:
        records = sorted(map(_Record, xs, ys, ts), key=lambda r: r.t)
        kept.append((tuple(records), np.array([(r.x, r.y) for r in records]),
                     np.array([r.t for r in records])))
    return thread_time() - start


def at_reference_speed(seconds: float, before: float, after: float, ref: float = REF_PROBE_S) -> float:
    """``seconds`` scaled to the reference machine by the probes either side.

    On a shared VM the host's load changes the speed of the same code by
    up to 2x within minutes, and probes a second apart correlate at ~0.8.
    Scaling each timing by the mean of the probe just before and just
    after it removes most of that drift.  ``ref`` is the probe's time on
    the reference machine.
    """
    return seconds * ref / ((before + after) / 2.0)


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(src: Path) -> str:
    """SHA-256 over the library sources, so runs of one tree can be matched
    even where no git metadata exists."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path) -> dict:
    import scipy

    return {
        "git_sha": _git_sha(root),
        "src_sha256": source_digest(root / "src"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "argv": sys.argv[1:],
    }
