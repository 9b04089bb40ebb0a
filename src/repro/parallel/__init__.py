"""Parallel execution of pairwise similarity computations.

:class:`ParallelSTS` wraps a similarity measure and computes pairwise
matrices on a pool of worker processes — see :mod:`repro.parallel.sts`.
The convenient entry point is ``STS.pairwise(..., n_jobs=...)``, which
routes through this package automatically.

Workers read the trajectory corpus from a :class:`SharedTrajectoryArena`
— one shared-memory pack, zero-copy views on the worker side — so the
corpus is never pickled; see :mod:`repro.parallel.shm`.

Execution is supervised: worker crashes, hangs and corrupt scores are
retried with backoff, and a pool that keeps failing or cannot start
hands its chunks to in-process scoring instead of failing the run — see
:mod:`repro.parallel.supervisor` and the :class:`RunHealth` report.
"""

from .pool import available_cpus, chunk_pairs, resolve_n_jobs
from .shm import ArenaHandle, ArenaView, SharedTrajectoryArena
from .sts import ParallelSTS
from .supervisor import ChunkEvent, RunHealth, SupervisedExecutor

__all__ = [
    "ParallelSTS",
    "available_cpus",
    "chunk_pairs",
    "resolve_n_jobs",
    "ArenaHandle",
    "ArenaView",
    "SharedTrajectoryArena",
    "SupervisedExecutor",
    "RunHealth",
    "ChunkEvent",
]
