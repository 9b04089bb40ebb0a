"""Worker-pool plumbing for parallel pairwise similarity.

Process workers receive the measure **once**, through the pool
initializer, instead of pickling it into every task.  The trajectory
corpus travels as a :class:`~repro.parallel.shm.SharedTrajectoryArena`
handle: the corpus lives in one shared-memory block the parent packed,
workers attach at initializer time, and the only per-call payload is a
:class:`Block` of row and column indices.  A worker scores its block in
one call to the measure's Eq. 10 kernel
(:meth:`repro.core.STS.similarity_block`), and results come back as
``(row, col, score)`` triples — cheap to serialize and
order-independent to assemble.

Workers rebuild their own estimator caches (the measure's LRU caches
deliberately pickle empty — see :class:`repro.core.cache.LRUCache`), so
each worker owns a private, race-free working set.

The in-process rung of the supervisor (:mod:`repro.parallel.supervisor`)
scores the same blocks with :meth:`Block.score` on the caller's own
measure and trajectory lists; it installs no worker state.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = [
    "Block",
    "resolve_n_jobs",
    "chunk_pairs",
    "mark_cluster_worker",
    "in_cluster_worker",
]

# Set inside cluster shard workers (see repro.cluster.worker): a shard
# worker is itself one of N·R processes, so any pool it sizes through
# resolve_n_jobs must stay serial — otherwise a cluster whose workers
# each open a per-CPU pool forks N·R·cpus processes.  The env var makes
# the mark survive a further fork/spawn, should one ever happen.
_IN_CLUSTER_WORKER = False
_CLUSTER_WORKER_ENV = "REPRO_CLUSTER_WORKER"


def mark_cluster_worker() -> None:
    """Mark this process as a cluster shard worker (clamps pools to 1)."""
    global _IN_CLUSTER_WORKER
    _IN_CLUSTER_WORKER = True
    os.environ[_CLUSTER_WORKER_ENV] = "1"


def in_cluster_worker() -> bool:
    """Whether this process is a cluster shard worker."""
    return _IN_CLUSTER_WORKER or os.environ.get(_CLUSTER_WORKER_ENV) == "1"

# Per-process worker state, populated by the pool initializer in each
# process worker (never in the parent).  A module global (not an
# instance attribute) because worker functions must be importable
# top-level objects for pickling.
_WORKER_STATE: dict = {}


def _init_worker_shm(measure, handle) -> None:
    """Pool initializer for the shared-memory protocol.

    Attaches this worker to the parent's arena exactly once and installs
    zero-copy trajectory views as the scoring state.  The view object is
    kept in the worker state so the mapping outlives the initializer.
    """
    from ..obs import DeltaSource
    from .shm import SharedTrajectoryArena

    _WORKER_STATE["measure"] = measure
    # Primed before attach (attach timing is worker work): a fork-started
    # worker's registries are fork copies that already carry the parent's
    # pre-fork history, which must never be credited to this worker.
    _WORKER_STATE["delta_sources"] = [
        DeltaSource(registry, prime=True) for registry in _worker_registries()
    ]
    view = SharedTrajectoryArena.attach(handle)
    _WORKER_STATE["gallery"] = view.gallery
    _WORKER_STATE["queries"] = view.queries
    _WORKER_STATE["arena_view"] = view


@dataclass(frozen=True)
class Block:
    """One chunk of a score matrix: every pair of ``rows × cols``.

    ``rows`` index the run's row trajectories (the queries, or the
    gallery for a self-matrix) and ``cols`` the gallery.  ``cols=None``
    is the self block of ``rows`` (ascending) in a self-matrix run: it
    owns each unordered pair once, as ``i <= j``.  Iterating yields the
    owned pairs, and ``len`` counts them.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...] | None = None

    def _cells(self) -> Iterator[tuple[int, int, int, int]]:
        """``(a, b, i, j)``: position in the block and owned pair."""
        cols = self.rows if self.cols is None else self.cols
        for a, i in enumerate(self.rows):
            for b in range(a if self.cols is None else 0, len(cols)):
                yield a, b, i, cols[b]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return ((i, j) for _a, _b, i, j in self._cells())

    def __len__(self) -> int:
        n = len(self.rows)
        return n * (n + 1) // 2 if self.cols is None else n * len(self.cols)

    def triples(self, scores) -> list[tuple[int, int, float]]:
        """``(row, col, score)`` of every owned pair, from the block's matrix."""
        return [(i, j, float(scores[a, b])) for a, b, i, j in self._cells()]

    def score(self, measure, gallery, queries) -> list[tuple[int, int, float]]:
        """Score the block in one kernel call; ``(row, col, score)`` triples.

        ``queries`` holds the row trajectories (``None`` for a
        self-matrix, whose rows are the ``gallery``).
        """
        from ..obs import trace_span
        from ..similarity.base import similarity_block

        rows = gallery if queries is None else queries
        with trace_span("parallel.chunk", pairs=len(self)):
            scores = similarity_block(
                measure,
                [rows[i] for i in self.rows],
                None if self.cols is None else [gallery[j] for j in self.cols],
            )
        return self.triples(scores)


def _worker_registries() -> list:
    """The registries this worker records into, deduplicated.

    A spawn-started worker rebinds its measure to the worker's default
    registry; a fork-started worker keeps the measure bound to a fork
    copy of the parent's (possibly custom) registry while arena/attach
    instruments hit the default one — so both must feed the delta.
    """
    from ..obs import get_registry

    registries = [get_registry()]
    measure_registry = getattr(_WORKER_STATE.get("measure"), "_registry", None)
    if measure_registry is not None and measure_registry is not registries[0]:
        registries.append(measure_registry)
    return registries


def _worker_delta():
    """The merged registry delta since the last task, or ``None``."""
    from ..obs import merge_snapshots

    sources = _WORKER_STATE["delta_sources"]
    deltas = [d for d in (source.delta() for source in sources) if d]
    if not deltas:
        return None
    merged = deltas[0]
    for delta in deltas[1:]:
        merged = merge_snapshots(merged, delta)
    return merged


def _score_chunk(block: Block) -> dict:
    """Score ``block`` in a process worker, piggybacking telemetry home.

    Returns ``{"triples": ..., "delta": ..., "trace": ...}``: the
    supervisor folds the registry delta into the parent registry under
    ``process="worker"`` labels and stitches the span subtree under the
    dispatching span.  With observability disabled the envelope carries
    only the triples.
    """
    from ..obs import enabled as obs_enabled

    state = (_WORKER_STATE["measure"], _WORKER_STATE["gallery"], _WORKER_STATE["queries"])
    if not obs_enabled():
        return {"triples": block.score(*state)}
    from ..obs import get_tracer, span_payload

    with get_tracer().span(
        "parallel.worker-chunk", pairs=len(block), worker_pid=os.getpid()
    ) as span:
        triples = block.score(*state)
    return {"triples": triples, "delta": _worker_delta(), "trace": span_payload(span)}


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` request to a positive worker count.

    ``None`` and ``1`` mean serial; ``-1`` means one worker per available
    CPU; other negative values follow the scikit-learn convention
    ``available_cpus + 1 + n_jobs`` (floored at 1).

    "Available CPUs" is the scheduling affinity of this process
    (``os.sched_getaffinity``), not ``os.cpu_count()``: in containers and
    cgroup-limited CI runners the two disagree, and sizing a pool to the
    host's core count on a 1-core quota just multiplies context-switch
    overhead.  Platforms without affinity (macOS, Windows) fall back to
    ``os.cpu_count()``.
    """
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs == 0:
        raise ValueError("n_jobs must be a positive count, -1, or None")
    # Inside a cluster shard worker every pool is serial, whatever was
    # asked: the cluster already owns the parallelism (N shards × R
    # replicas), and nesting a per-CPU pool under each worker would fork
    # N·R·cpus processes.
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


def chunk_pairs(pairs: Sequence, n_workers: int, chunks_per_worker: int = 4) -> list[list]:
    """Split a list of work items into interleaved chunks for dispatch.

    The items may be pairs or, as :class:`~repro.parallel.ParallelSTS`
    uses it, trajectory indices dealt into the index groups of its
    blocks.  Chunks are taken round-robin (``pairs[k::n_chunks]``) rather
    than as contiguous slices: costs correlate with trajectory length and
    neighbouring items share a row, so contiguous slabs would concentrate
    the expensive ones in a few unlucky chunks.  Interleaving spreads them
    evenly while remaining fully deterministic.
    """
    if not pairs:
        return []
    n_chunks = min(len(pairs), max(1, n_workers * chunks_per_worker))
    return [list(pairs[k::n_chunks]) for k in range(n_chunks)]
