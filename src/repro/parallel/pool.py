"""Worker sizing for parallel pairwise similarity.

:func:`resolve_n_jobs` turns an ``n_jobs`` request into a worker count
(affinity-aware, scikit-learn's negative convention), and the
cluster-worker mark clamps it to one inside a shard worker, so nested
parallelism can never multiply processes.
"""

from __future__ import annotations

import os

__all__ = [
    "available_cpus",
    "resolve_n_jobs",
    "mark_cluster_worker",
    "in_cluster_worker",
]

# Set inside cluster shard workers (see repro.cluster.worker): a shard
# worker is itself one of N·R processes, so any worker group it sizes
# through resolve_n_jobs must stay serial — otherwise a cluster whose
# workers each open a per-CPU group forks N·R·cpus processes.  The env
# var makes the mark survive a further fork/spawn, should one ever happen.
_IN_CLUSTER_WORKER = False
_CLUSTER_WORKER_ENV = "REPRO_CLUSTER_WORKER"


def mark_cluster_worker() -> None:
    """Mark this process as a cluster shard worker (clamps ``n_jobs`` to 1)."""
    global _IN_CLUSTER_WORKER
    _IN_CLUSTER_WORKER = True
    os.environ[_CLUSTER_WORKER_ENV] = "1"


def in_cluster_worker() -> bool:
    """Whether this process is a cluster shard worker."""
    return _IN_CLUSTER_WORKER or os.environ.get(_CLUSTER_WORKER_ENV) == "1"


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` request to a positive worker count.

    ``None`` and ``1`` mean serial; ``-1`` means one worker per available
    CPU; other negative values follow the scikit-learn convention
    ``available_cpus + 1 + n_jobs`` (floored at 1).

    "Available CPUs" is the scheduling affinity of this process
    (``os.sched_getaffinity``), not ``os.cpu_count()``: in containers and
    cgroup-limited CI runners the two disagree, and sizing a worker group
    to the host's core count on a 1-core quota just multiplies context-switch
    overhead.  Platforms without affinity (macOS, Windows) fall back to
    ``os.cpu_count()``.
    """
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs == 0:
        raise ValueError("n_jobs must be a positive count, -1, or None")
    # Inside a cluster shard worker every call is serial, whatever was
    # asked: the cluster already owns the parallelism (N shards × R
    # replicas), and nesting a per-CPU service under each worker would
    # fork N·R·cpus processes.
    if in_cluster_worker():
        return 1
    cpus = available_cpus()
    if n_jobs < 0:
        return max(1, cpus + 1 + n_jobs)
    return n_jobs


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1
