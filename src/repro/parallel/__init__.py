"""Parallel execution of pairwise similarity computations.

:class:`ParallelSTS` wraps a similarity measure and computes pairwise
matrices on a transient :class:`~repro.cluster.ClusterService` of shard
workers, one block per shard — see :mod:`repro.parallel.sts`.  The
convenient entry point is ``STS.pairwise(..., n_jobs=...)``, which routes
through this package automatically.

Workers read the trajectory corpus from shared-memory arenas
(:class:`SharedTrajectoryArena`: one pack, zero-copy views on the worker
side), so the corpus is never pickled; see :mod:`repro.parallel.shm`.

Dead and hung workers are restarted and their blocks gathered again, and
blocks the workers cannot score — or a whole matrix whose service cannot
start — are scored in-process instead of failing the run; the
:class:`MatrixHealth` report says what happened.
"""

from .pool import available_cpus, resolve_n_jobs
from .shm import ArenaHandle, ArenaView, SharedTrajectoryArena
from .sts import MatrixHealth, ParallelSTS

__all__ = [
    "ParallelSTS",
    "MatrixHealth",
    "available_cpus",
    "resolve_n_jobs",
    "ArenaHandle",
    "ArenaView",
    "SharedTrajectoryArena",
]
