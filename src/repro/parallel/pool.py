"""Worker-pool plumbing for parallel pairwise similarity.

The process backend ships the measure to each worker **once**, through
the pool initializer, instead of pickling it into every task.  The
trajectory collections travel either the same way (pickled initargs, the
historical path) or — preferably — as a :class:`~repro.parallel.shm.
SharedTrajectoryArena` handle: the corpus lives in one shared-memory
block the parent packed, workers attach at initializer time, and the
only per-call payload is a :class:`Block` of row and column indices.  A
worker scores its block in one call to the measure's Eq. 10 kernel
(:meth:`repro.core.STS.similarity_block`), and results come back as
``(row, col, score)`` triples — cheap to serialize and
order-independent to assemble.

Workers rebuild their own estimator caches (the measure's LRU caches
deliberately pickle empty — see :class:`repro.core.cache.LRUCache`), so
each worker owns a private, race-free working set.

The thread backend shares one measure instance across workers; the
measure's caches are lock-protected, and the heavy kernels (pocketfft,
BLAS) release the GIL, so threads help even for CPU-bound scoring when
processes are unavailable (un-picklable custom models, restricted
platforms).  Threads share the parent address space, so the arena is a
no-op passthrough there: the original trajectory lists are used as-is.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = [
    "Block",
    "resolve_n_jobs",
    "chunk_pairs",
    "chunk_pairs_by_cost",
    "pair_costs",
    "make_executor",
    "set_parallel_defaults",
    "get_parallel_defaults",
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

# Process-wide defaults for the parallel transport/chunking policy.
# ParallelSTS resolves unspecified (None) shm/chunking arguments against
# these, so entry points that cannot thread the knobs through every layer
# (the CLI's `report`, the experiment runners) can set them once.
_PARALLEL_DEFAULTS = {"shm": "auto", "chunking": "count"}


def set_parallel_defaults(
    shm: bool | str | None = None, chunking: str | None = None
) -> None:
    """Set process-wide defaults for ``shm`` and ``chunking``.

    ``None`` leaves a knob unchanged.  Affects every subsequently built
    :class:`~repro.parallel.ParallelSTS` that does not pass the knob
    explicitly.
    """
    if shm is not None:
        if shm not in (True, False, "auto"):
            raise ValueError(f"shm must be True, False or 'auto', got {shm!r}")
        _PARALLEL_DEFAULTS["shm"] = shm
    if chunking is not None:
        if chunking not in ("count", "cost"):
            raise ValueError(
                f"chunking must be 'count' or 'cost', got {chunking!r}"
            )
        _PARALLEL_DEFAULTS["chunking"] = chunking


def get_parallel_defaults() -> dict:
    """The current process-wide ``{"shm": ..., "chunking": ...}`` defaults."""
    return dict(_PARALLEL_DEFAULTS)

# Per-process worker state, populated by the pool initializer.  A module
# global (not an instance attribute) because worker functions must be
# importable top-level objects for pickling.
_WORKER_STATE: dict = {}


def _init_worker(measure, gallery, queries) -> None:
    """Pool initializer: install this worker's private scoring state."""
    _WORKER_STATE["measure"] = measure
    _WORKER_STATE["gallery"] = gallery
    _WORKER_STATE["queries"] = queries
    _WORKER_STATE.pop("arena_view", None)
    _install_delta_sources()


def _init_worker_shm(measure, handle) -> None:
    """Pool initializer for the shared-memory protocol.

    Attaches this worker to the parent's arena exactly once and installs
    zero-copy trajectory views as the scoring state.  The view object is
    kept in the worker state so the mapping outlives the initializer.
    """
    from .shm import SharedTrajectoryArena

    _WORKER_STATE["measure"] = measure
    _install_delta_sources()  # before attach: attach timing is worker work
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


def _score_block(measure, block: Block, rows, gallery) -> list[tuple[int, int, float]]:
    """Score ``block`` in one kernel call and return its triples."""
    from ..obs import trace_span
    from ..similarity.base import similarity_block

    with trace_span("parallel.chunk", pairs=len(block)):
        scores = similarity_block(
            measure,
            [rows[i] for i in block.rows],
            None if block.cols is None else [gallery[j] for j in block.cols],
        )
    return block.triples(scores)


def _score_chunk(block: Block) -> list[tuple[int, int, float]]:
    """Score one block against the worker's state."""
    gallery = _WORKER_STATE["gallery"]
    queries = _WORKER_STATE["queries"]
    rows = gallery if queries is None else queries
    return _score_block(_WORKER_STATE["measure"], block, rows, gallery)


def _score_chunk_vs_queries(queries, block: Block) -> list[tuple[int, int, float]]:
    """Score a block whose *rows* are call-supplied query trajectories.

    Used by the persistent-pool query path: the gallery is the arena the
    worker attached at initializer time, while the (small) query list
    rides along with the task.  ``functools.partial`` binds ``queries``
    so the submitted callable stays a picklable top-level function.
    """
    return _score_block(_WORKER_STATE["measure"], block, queries, _WORKER_STATE["gallery"])


#: Sentinel key marking a process-worker result that carries telemetry
#: alongside the score triples (see _task_with_telemetry).
TELEMETRY_KEY = "__repro_worker_telemetry__"


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


def _install_delta_sources() -> None:
    """(Re)build this worker's delta sources with a primed baseline.

    Called from the pool initializers: priming at initializer time means
    a fork-started worker's registries — fork copies that already carry
    the parent's pre-fork history — contribute only work recorded *in
    this process* to the deltas, never the parent's own.
    """
    from ..obs import DeltaSource

    _WORKER_STATE["delta_sources"] = [
        DeltaSource(registry, prime=True) for registry in _worker_registries()
    ]


def _worker_delta():
    """The merged registry delta since the last task, or ``None``."""
    from ..obs import DeltaSource, merge_snapshots

    sources = _WORKER_STATE.get("delta_sources")
    if sources is None:
        # No initializer ran (direct task invocation in tests): fall
        # back to unprimed sources whose first delta is the lifetime
        # snapshot.
        sources = _WORKER_STATE["delta_sources"] = [
            DeltaSource(registry) for registry in _worker_registries()
        ]
    deltas = [d for d in (source.delta() for source in sources) if d]
    if not deltas:
        return None
    merged = deltas[0]
    for delta in deltas[1:]:
        merged = merge_snapshots(merged, delta)
    return merged


def _task_with_telemetry(task, block):
    """Run ``task`` in a process worker, piggybacking telemetry home.

    Wraps the chunk in a span and returns ``{TELEMETRY_KEY: True,
    "triples": ..., "delta": ..., "trace": ...}``; the supervisor
    unwraps it, folds the registry delta into the parent registry under
    ``process="worker"`` labels, and stitches the span subtree under the
    dispatching span.  With observability disabled the envelope carries
    only the triples.
    """
    from ..obs import enabled as obs_enabled

    result = {TELEMETRY_KEY: True}
    if not obs_enabled():
        result["triples"] = task(block)
        return result
    from ..obs import get_tracer, span_payload

    with get_tracer().span(
        "parallel.worker-chunk", pairs=len(block), worker_pid=os.getpid()
    ) as span:
        result["triples"] = task(block)
    result["delta"] = _worker_delta()
    result["trace"] = span_payload(span)
    return result


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


def pair_costs(
    pairs: Sequence[tuple[int, int]],
    row_lengths: Sequence[int],
    col_lengths: Sequence[int],
) -> list[int]:
    """Estimated Eq. 10 cost per pair, from trajectory lengths.

    Scoring a pair evaluates both estimators at the union of both
    timestamp sets and takes grid-sized products, so the work scales
    with ``|T1| · |T2|`` (each estimator's bridge/kernel work grows with
    its own length *and* with the partner's query count).  The absolute
    scale is irrelevant — only the ratios matter for balancing.
    """
    return [max(1, row_lengths[i] * col_lengths[j]) for i, j in pairs]


def chunk_pairs_by_cost(
    pairs: Sequence,
    costs: Sequence[int],
    n_workers: int,
    chunks_per_worker: int = 4,
) -> list[list]:
    """Partition work items into chunks of near-equal *total cost*.

    The items may be pairs or trajectory indices (the index groups of
    :class:`~repro.parallel.ParallelSTS` blocks, weighted by length).
    Deterministic greedy LPT: items are taken in decreasing cost order
    (ties broken by original position, so the plan is reproducible and
    checkpoint-stable) and each goes to the currently lightest chunk.
    Within a chunk the original order is restored, keeping journals
    readable.  Every item appears in exactly one chunk, so the assembled
    matrix is bitwise independent of the chunking policy.
    """
    if not pairs:
        return []
    n_chunks = min(len(pairs), max(1, n_workers * chunks_per_worker))
    order = sorted(range(len(pairs)), key=lambda k: (-costs[k], k))
    totals = [0] * n_chunks
    members: list[list[int]] = [[] for _ in range(n_chunks)]
    for k in order:
        target = min(range(n_chunks), key=lambda c: (totals[c], c))
        totals[target] += costs[k]
        members[target].append(k)
    return [[pairs[k] for k in sorted(m)] for m in members]


def make_executor(
    backend: str,
    n_workers: int,
    measure,
    gallery,
    queries,
    arena_handle=None,
    registry=None,
) -> tuple[Executor, str]:
    """Build the executor for ``backend`` (``"process"``/``"thread"``/``"auto"``).

    ``"auto"`` prefers processes (true parallelism for the CPU-bound
    scoring loop) and falls back to threads when the measure cannot cross
    a process boundary (e.g. a closure-based transition policy that does
    not pickle).  Returns the executor and the backend actually chosen.

    ``arena_handle`` switches the process backend to the shared-memory
    protocol: initargs carry ``(measure, handle)`` instead of the pickled
    collections, and workers attach to the arena in their initializer.
    When the process backend is unavailable and the caller asked for the
    arena, the fallback to pickling threads is *announced* — a one-line
    ``RuntimeWarning`` plus the ``repro_parallel_shm_fallback_total``
    counter — so a silent throughput regression stays diagnosable.
    """
    if backend not in ("auto", "process", "thread"):
        raise ValueError(
            f"backend must be 'auto', 'process' or 'thread', got {backend!r}"
        )
    if backend in ("auto", "process"):
        try:
            import pickle

            if arena_handle is not None:
                pickle.dumps(measure)
            else:
                pickle.dumps((measure, gallery, queries))
        except Exception:
            if backend == "process":
                raise
            if arena_handle is not None:
                _announce_shm_fallback("measure does not pickle", registry)
        else:
            if arena_handle is not None:
                return (
                    ProcessPoolExecutor(
                        max_workers=n_workers,
                        initializer=_init_worker_shm,
                        initargs=(measure, arena_handle),
                    ),
                    "process",
                )
            return (
                ProcessPoolExecutor(
                    max_workers=n_workers,
                    initializer=_init_worker,
                    initargs=(measure, gallery, queries),
                ),
                "process",
            )
    # Thread fallback: share the measure (its caches are lock-protected).
    # The arena is a no-op passthrough here — threads see the parent's
    # own trajectory lists.
    _init_worker(measure, gallery, queries)
    return ThreadPoolExecutor(max_workers=n_workers), "thread"


def _announce_shm_fallback(reason: str, registry=None) -> None:
    """One-line warning + counter when the shm backend silently degrades."""
    from ..obs import get_registry

    reg = registry if registry is not None else get_registry()
    reg.counter(
        "repro_parallel_shm_fallback_total",
        "Dispatches that fell back from the shared-memory arena to pickling",
    ).inc(reason=reason)
    warnings.warn(
        f"shared-memory arena requested but unusable ({reason}); "
        "falling back to the pickling path — expect serialization-bound "
        "parallel throughput",
        RuntimeWarning,
        stacklevel=3,
    )
