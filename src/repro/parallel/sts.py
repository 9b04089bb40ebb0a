"""Parallel pairwise similarity: cut the matrix into blocks across workers.

A similarity matrix is embarrassingly parallel — every entry is an
independent Eq. 10 score — but a naive fan-out re-pickles the measure per
pair and loses the symmetric structure.  :class:`ParallelSTS` cuts the
matrix into rectangular :class:`~repro.parallel.pool.Block` chunks and
dispatches them to a pool whose workers each hold one private copy of
the measure (built once per worker by the pool initializer); a worker
scores its block in one call to the measure's block kernel
(:meth:`repro.core.STS.similarity_block`), and the parent assembles the
matrix deterministically from ``(row, col, score)`` triples.  The
kernel's entries do not depend on the block they are computed in, so the
parallel matrix matches ``STS.pairwise`` to the last bit regardless of
worker count, block plan, chunking policy, or transport.

Transport: by default (``shm="auto"``) the process backend broadcasts
the trajectory corpus through a :class:`~repro.parallel.shm.
SharedTrajectoryArena` — one shared-memory pack, workers attach at
initializer time and score zero-copy views — so the per-call pickle
payload is the measure plus bare index chunks instead of the whole
corpus.  Thread and serial execution share the parent address space and
need no arena.  ``persistent=True`` additionally keeps the worker pool
and the gallery arena warm across ``pairwise``/``query`` calls, so a
serving loop pays pool startup and the gallery broadcast once.

Chunking: the rows and columns are each split into index groups, and
every (row group, column group) is a block — for a self-matrix, every
group pair on or above the diagonal.  ``chunking="count"`` (default)
deals indices round-robin into groups of equal size;
``chunking="cost"`` packs groups to near-equal total trajectory length
(Eq. 10 work scales with ``|T1|·|T2|``), which tightens the straggler
tail when lengths vary widely.  Either way every pair is scored exactly
once, so results are identical.

Execution is *supervised* by default (see
:mod:`repro.parallel.supervisor`): dead workers are detected and their
chunks retried with capped exponential backoff, hung chunks are timed
out, and the backend degrades ``process → thread → serial`` rather than
failing the run — the arena becoming a no-op passthrough on the lower
rungs.  What happened is recorded in the
:class:`~repro.parallel.supervisor.RunHealth` exposed as
:attr:`ParallelSTS.last_health`.  Passing ``checkpoint=`` journals
completed chunks to disk (atomic write-rename) so an interrupted run
resumes from the last good state — see :mod:`repro.checkpoint`.
"""

from __future__ import annotations

import math
from functools import partial
from time import perf_counter
from typing import Sequence

import numpy as np

from ..checkpoint import PairwiseCheckpoint
from ..core.trajectory import Trajectory
from ..obs import get_registry, trace_span
from ..similarity.base import similarity_block
from .pool import (
    Block,
    _init_worker,
    _score_chunk_vs_queries,
    chunk_pairs,
    chunk_pairs_by_cost,
    get_parallel_defaults,
    make_executor,
    resolve_n_jobs,
)
from .supervisor import RunHealth, SupervisedExecutor

__all__ = ["ParallelSTS"]

#: Ratio buckets for the chunk-imbalance histogram (chunk cost / mean).
_IMBALANCE_BUCKETS = (0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0)


def _assemble(out: np.ndarray, results, symmetric: bool) -> np.ndarray:
    """Write every chunk's ``(row, col, score)`` triples into ``out``."""
    for triples in results:
        for i, j, score in triples:
            out[i, j] = score
            if symmetric:
                out[j, i] = score
    return out


def _same_collections(a, b) -> bool:
    """Element-wise *identity* match between two trajectory collections.

    Identity, not equality, for the same reason as
    :meth:`~repro.parallel.shm.SharedTrajectoryArena.matches`: warm
    workers hold state keyed to the exact objects they were initialized
    with, so only the same objects may reuse them.
    """
    if a is None or b is None:
        return a is None and b is None
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


class ParallelSTS:
    """Parallel, fault-tolerant wrapper around any similarity measure.

    Parameters
    ----------
    measure:
        Typically :class:`repro.core.STS`, whose blocks are scored by its
        Eq. 10 kernel; any other object with a ``similarity(tra1, tra2)
        -> float`` method is scored entry by entry (see
        :func:`repro.similarity.base.similarity_block`).  For the process
        backend it must be picklable; STS and its ablation variants are.
    n_jobs:
        Worker count; ``-1`` means one per available CPU (``None``/``1``
        run serially in-process).
    backend:
        ``"process"`` (private measure copy per worker), ``"thread"``
        (shared measure, lock-protected caches), or ``"auto"`` (processes
        when the measure pickles, threads otherwise).
    chunks_per_worker:
        Dispatch granularity: the matrix is cut into at least
        ``n_jobs * chunks_per_worker`` blocks where it has that many
        pairs, trading scheduling slack against per-block overhead.
    chunking:
        ``"count"`` — index groups of equal size, interleaved; ``"cost"``
        — index groups of near-equal total trajectory length (see
        :func:`~repro.parallel.pool.chunk_pairs_by_cost`).  ``None``
        (default) resolves against the process-wide default
        (:func:`~repro.parallel.pool.set_parallel_defaults`, initially
        ``"count"``).
    shm:
        ``"auto"`` — broadcast the corpus through a shared-memory arena
        whenever the process backend is in play; ``True`` — same, but
        warn loudly if the arena cannot be used; ``False`` — always
        pickle collections into the pool initializer (the historical
        transport).  ``None`` (default) resolves against the
        process-wide default (initially ``"auto"``).
    persistent:
        Keep the worker pool and the gallery arena warm across calls.
        Use as a context manager (or call :meth:`close`) to release the
        pool and unlink the arena.  Repeated :meth:`pairwise` calls on
        the same gallery object, and any number of :meth:`query` calls
        against it, then skip pool startup and the corpus broadcast.
    supervised:
        Run chunks through the :class:`~repro.parallel.supervisor.
        SupervisedExecutor` (default).  ``False`` restores the bare
        fail-fast pool of the original implementation.
    chunk_timeout, max_retries, backoff_base, backoff_max, on_error,
    validate_scores:
        Supervision knobs, forwarded to the supervisor — see
        :class:`~repro.parallel.supervisor.SupervisedExecutor`.

    Attributes
    ----------
    last_health:
        The :class:`~repro.parallel.supervisor.RunHealth` of the most
        recent :meth:`pairwise` call (``None`` before the first call, or
        when the unsupervised serial fast path ran).
    """

    def __init__(
        self,
        measure,
        n_jobs: int | None = -1,
        backend: str = "auto",
        chunks_per_worker: int = 4,
        chunking: str | None = None,
        shm: bool | str | None = None,
        persistent: bool = False,
        supervised: bool = True,
        chunk_timeout: float | None = None,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        on_error: str = "raise",
        validate_scores: bool = True,
        registry=None,
    ):
        defaults = get_parallel_defaults()
        chunking = defaults["chunking"] if chunking is None else chunking
        shm = defaults["shm"] if shm is None else shm
        if chunking not in ("count", "cost"):
            raise ValueError(
                f"chunking must be 'count' or 'cost', got {chunking!r}"
            )
        if shm not in (True, False, "auto"):
            raise ValueError(f"shm must be True, False or 'auto', got {shm!r}")
        self.measure = measure
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.backend = backend
        self.chunks_per_worker = int(chunks_per_worker)
        self.chunking = chunking
        self.shm = shm
        self.persistent = bool(persistent)
        self.supervised = bool(supervised)
        self.chunk_timeout = chunk_timeout
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)
        self.on_error = on_error
        self.validate_scores = bool(validate_scores)
        self.last_health: RunHealth | None = None
        self._arena = None
        self._warm: dict | None = None  # {"executor", "backend", "shm_name"}
        # Share the measure's registry when it has one, so parallel and
        # serial metrics land in one place.
        if registry is not None:
            self._registry = registry
        else:
            self._registry = getattr(measure, "_registry", None) or get_registry()
        self._h_pairwise = self._registry.histogram(
            "repro_pairwise_seconds", "Wall seconds per pairwise() call"
        ).child()
        self._h_dispatch = self._registry.histogram(
            "repro_parallel_dispatch_seconds",
            "Wall seconds per supervised chunk-dispatch round trip",
        ).child()
        self._h_imbalance = self._registry.histogram(
            "repro_parallel_chunk_imbalance",
            "Estimated chunk cost over the mean chunk cost, per chunk",
            buckets=_IMBALANCE_BUCKETS,
        ).child()

    # ------------------------------------------------------------------
    def similarity(self, tra1: Trajectory, tra2: Trajectory) -> float:
        """Single-pair passthrough (no parallelism for one score)."""
        return self.measure.similarity(tra1, tra2)

    def _fingerprint(
        self, n_rows: int, n_cols: int, n_pairs: int, n_chunks: int, symmetric: bool
    ) -> dict:
        return {
            "kind": "pairwise",
            # Chunk k is the k-th rectangular Block of _plan_blocks; journals
            # whose chunks were interleaved pair lists carry no "plan" and
            # must not resume into blocks, even when the counts match.
            "plan": "blocks",
            "measure": getattr(self.measure, "name", type(self.measure).__name__),
            "n_rows": n_rows,
            "n_cols": n_cols,
            "n_pairs": n_pairs,
            "n_chunks": n_chunks,
            "symmetric": symmetric,
            "chunking": self.chunking,
        }

    # ------------------------------------------------------------------
    # Block planning
    # ------------------------------------------------------------------
    def _groups(self, indices: list[int], lengths: Sequence[int], n_groups: int) -> list[tuple]:
        """Split ``indices`` into ``n_groups`` ascending index groups."""
        if self.chunking == "cost":
            groups = chunk_pairs_by_cost(
                indices, [max(1, lengths[i]) for i in indices], n_groups, 1
            )
        else:
            groups = chunk_pairs(indices, n_groups, 1)
        return [tuple(g) for g in groups]

    def _plan_blocks(
        self,
        rows: list[int],
        cols: list[int],
        row_lengths: Sequence[int],
        col_lengths: Sequence[int],
        symmetric: bool,
    ) -> list[Block]:
        """Cut ``rows × cols`` into blocks per the configured chunking policy.

        A self-matrix (``symmetric``) splits its indices into ``g`` groups
        and takes the ``g(g+1)/2`` group pairs on or above the diagonal;
        a rectangular matrix takes every (row group, column group), with
        group counts chosen so the blocks come out near-square.
        """
        target = max(1, self.n_jobs * self.chunks_per_worker)
        if symmetric:
            n_groups = 1
            while n_groups < len(rows) and n_groups * (n_groups + 1) // 2 < target:
                n_groups += 1
            groups = self._groups(rows, row_lengths, n_groups)
            blocks = [
                Block(groups[a], None if b == a else groups[b])
                for a in range(len(groups))
                for b in range(a, len(groups))
            ]
        else:
            n_row_groups = min(
                len(rows), max(1, round(math.sqrt(target * len(rows) / len(cols))))
            )
            n_col_groups = min(len(cols), max(1, -(-target // n_row_groups)))
            blocks = [
                Block(row_group, col_group)
                for row_group in self._groups(rows, row_lengths, n_row_groups)
                for col_group in self._groups(cols, col_lengths, n_col_groups)
            ]
        if self.chunking == "cost":
            totals = [
                sum(row_lengths[i] * col_lengths[j] for i, j in block) for block in blocks
            ]
        else:
            totals = [len(block) for block in blocks]
        mean = sum(totals) / len(totals)
        if mean > 0:
            for total in totals:
                self._h_imbalance.observe(total / mean)
        return blocks

    # ------------------------------------------------------------------
    # Arena + warm-pool lifecycle
    # ------------------------------------------------------------------
    def _shm_wanted(self) -> bool:
        """Whether the arena transport should even be attempted."""
        if self.shm is False:
            return False
        # With one worker the effective backend is serial regardless of
        # what was configured: the run executes in the driver process and
        # an arena would be packed and unlinked without ever being
        # attached.
        if self.n_jobs <= 1:
            return False
        # Threads never need the arena; "auto"/True only matter when the
        # process rung can be reached from the configured backend.
        return self.backend in ("auto", "process")

    def _ensure_arena(self, gallery, queries):
        """The (possibly reused) arena for this call, or ``None``.

        Packing failures are not fatal — the pickling transport still
        works — but they are announced so the regression is diagnosable.
        """
        from .shm import SharedTrajectoryArena

        if self._arena is not None:
            if self.persistent and self._arena.matches(gallery, queries):
                return self._arena
            self._drop_arena()
        try:
            self._arena = SharedTrajectoryArena.pack(
                gallery, queries, registry=self._registry
            )
        except Exception as exc:  # e.g. no /dev/shm on the platform
            from .pool import _announce_shm_fallback

            _announce_shm_fallback(f"arena pack failed: {exc}", self._registry)
            self._arena = None
        return self._arena

    def _drop_arena(self) -> None:
        # The warm pool's workers hold attachments keyed to the old
        # arena; a new arena invalidates them along with the segment.
        self._release_warm()
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    def _release_warm(self) -> None:
        if self._warm is not None:
            try:
                self._warm["executor"].shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            self._warm = None

    def _executor_factory(self, gallery, queries, arena_handle):
        """A supervisor ``executor_factory`` honouring persistence."""
        shm_name = arena_handle.shm_name if arena_handle is not None else None
        gallery = list(gallery)
        queries = list(queries) if queries is not None else None

        def factory(backend: str, n_workers: int):
            warm = self._warm
            # Reuse requires the same transport (backend + arena) AND the
            # same collection objects: without the identity check, a call
            # with a different gallery on the pickling/thread paths (where
            # shm_name is None on both sides) would silently score against
            # the collections the warm workers were initialized with.
            if (
                warm is not None
                and warm["backend"] == backend
                and warm["shm_name"] == shm_name
                and _same_collections(warm["gallery"], gallery)
                and _same_collections(warm["queries"], queries)
            ):
                if backend == "thread":
                    # Thread workers read the module-global worker state,
                    # which any executor built in this process since may
                    # have replaced; refreshing it is free of pickling.
                    _init_worker(self.measure, gallery, queries)
                return warm["executor"], warm["backend"]
            self._release_warm()
            executor, actual = make_executor(
                backend,
                n_workers,
                self.measure,
                gallery,
                queries,
                arena_handle=arena_handle,
                registry=self._registry,
            )
            if self.persistent:
                self._warm = {
                    "executor": executor,
                    "backend": actual,
                    "shm_name": shm_name,
                    "gallery": gallery,
                    "queries": queries,
                }
            return executor, actual

        return factory

    def _executor_release(self, executor, actual: str, healthy: bool) -> None:
        """Supervisor release hook: keep healthy persistent pools warm."""
        warm = self._warm
        if self.persistent and warm is not None and warm["executor"] is executor:
            if healthy:
                return  # stays warm for the next call
            self._warm = None
        from .supervisor import _kill_executor

        if healthy:
            executor.shutdown(wait=True, cancel_futures=True)
        else:
            _kill_executor(executor, actual)

    def close(self) -> None:
        """Release the warm pool and unlink the arena (idempotent)."""
        self._release_warm()
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    def __enter__(self) -> "ParallelSTS":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def pairwise(
        self,
        gallery: Sequence[Trajectory],
        queries: Sequence[Trajectory] | None = None,
        checkpoint: str | None = None,
        deadline: float | None = None,
    ) -> np.ndarray:
        """Similarity matrix, sharded across the worker pool.

        Mirrors :meth:`repro.core.STS.pairwise`: with ``queries=None`` the
        result is the symmetric ``gallery × gallery`` matrix with each
        unordered pair scored once; otherwise ``S[i, j] =
        similarity(queries[i], gallery[j])``.

        ``checkpoint`` names a journal file: completed chunks are
        persisted there (atomic write-rename) and a rerun pointing at the
        same file skips them.  Resume requires the same chunk plan — same
        collections, ``n_jobs``, ``chunks_per_worker`` and ``chunking``
        policy — which the journal's fingerprint enforces.

        ``deadline`` caps the whole call at that many wall-clock seconds:
        chunks not finished in time come back NaN-filled (recorded as
        ``deadline-shed`` in :attr:`last_health`, whose
        ``deadline_expired`` flag is set).  Shed chunks are never
        journaled, so an unbounded rerun on the same checkpoint
        recomputes exactly the missing entries.
        """
        symmetric = queries is None
        rows = gallery if symmetric else queries
        out = np.zeros((len(rows), len(gallery)))
        n_pairs = len(rows) * (len(rows) + 1) // 2 if symmetric else out.size
        if not n_pairs:
            return out
        if self.n_jobs == 1 and checkpoint is None and deadline is None:
            # Serial, unjournaled and undeadlined (supervised or not): the
            # whole matrix is one kernel block, and there is nothing to
            # supervise in-process.
            self.last_health = None
            t0 = perf_counter()
            out = similarity_block(self.measure, rows, None if symmetric else gallery)
            self._h_pairwise.observe(perf_counter() - t0)
            return out

        row_lengths = [len(t) for t in rows]
        chunks = self._plan_blocks(
            list(range(len(rows))),
            list(range(len(gallery))),
            row_lengths,
            row_lengths if symmetric else [len(t) for t in gallery],
            symmetric,
        )
        arena = self._ensure_arena(gallery, queries) if self._shm_wanted() else None
        try:
            if not self.supervised and checkpoint is None and deadline is None:
                return self._unsupervised(out, chunks, gallery, queries, arena)
            ckpt = None
            done = None
            if checkpoint is not None:
                ckpt = PairwiseCheckpoint(
                    checkpoint,
                    self._fingerprint(
                        out.shape[0], out.shape[1], n_pairs, len(chunks), symmetric
                    ),
                )
                done = ckpt.completed

            backend = self.backend if self.n_jobs > 1 else "serial"
            arena_handle = arena.handle if arena is not None else None
            supervisor = SupervisedExecutor(
                self.measure,
                list(gallery),
                list(queries) if queries is not None else None,
                self.n_jobs,
                backend=backend,
                chunk_timeout=self.chunk_timeout,
                max_retries=self.max_retries,
                backoff_base=self.backoff_base,
                backoff_max=self.backoff_max,
                on_error=self.on_error,
                validate_scores=self.validate_scores,
                deadline=deadline,
                registry=self._registry,
                arena_handle=arena_handle,
                executor_factory=self._executor_factory(
                    gallery, queries, arena_handle
                ),
                executor_release=self._executor_release,
            )
            self.last_health = supervisor.health
            t0 = perf_counter()
            with trace_span(
                "parallel.pairwise",
                n_jobs=self.n_jobs,
                backend=backend,
                chunks=len(chunks),
                shm=arena is not None,
            ):
                results = supervisor.run(
                    chunks,
                    done=done,
                    on_chunk_done=ckpt.record if ckpt is not None else None,
                )
            elapsed = perf_counter() - t0
            self._h_pairwise.observe(elapsed)
            self._h_dispatch.observe(elapsed)
            if getattr(self._registry, "enabled", False):
                supervisor.health.metrics = self._registry.snapshot()
            if ckpt is not None:
                ckpt.flush()
            return _assemble(out, results.values(), symmetric)
        finally:
            if not self.persistent:
                self._drop_arena()

    def query(
        self,
        query: Trajectory,
        gallery: Sequence[Trajectory],
        cols: Sequence[int] | None = None,
        deadline: float | None = None,
    ) -> np.ndarray:
        """Scores of one query against (a subset of) the gallery.

        ``cols`` selects gallery indices to score (default: all); the
        result is aligned with ``cols``.  With ``persistent=True`` the
        gallery arena is packed and broadcast on the first call and the
        warm workers are reused after that, so a serving loop pays only
        the per-call index chunks plus one small pickled query — the
        query itself never enters the arena.

        The query's candidates are one ``1 × len(cols)`` kernel block
        (split into column blocks across workers), so the vector is
        bitwise identical to scoring each pair in-process.
        """
        cols = (
            list(range(len(gallery)))
            if cols is None
            else [int(c) for c in cols]
        )
        if not cols:
            return np.empty(0)
        if self.n_jobs == 1 and deadline is None:
            return similarity_block(self.measure, [query], [gallery[c] for c in cols])[0]
        chunks = self._plan_blocks(
            [0], sorted(set(cols)), [len(query)], [len(t) for t in gallery], False
        )
        # The persistent arena must describe the gallery alone, so it
        # stays valid across calls with changing queries.
        arena = self._ensure_arena(gallery, None) if self._shm_wanted() else None
        try:
            backend = self.backend if self.n_jobs > 1 else "serial"
            arena_handle = arena.handle if arena is not None else None
            supervisor = SupervisedExecutor(
                self.measure,
                list(gallery),
                [query],
                self.n_jobs,
                backend=backend,
                chunk_timeout=self.chunk_timeout,
                max_retries=self.max_retries,
                backoff_base=self.backoff_base,
                backoff_max=self.backoff_max,
                on_error=self.on_error,
                validate_scores=self.validate_scores,
                deadline=deadline,
                registry=self._registry,
                arena_handle=arena_handle,
                task=partial(_score_chunk_vs_queries, [query]),
                executor_factory=self._executor_factory(
                    gallery, None, arena_handle
                ),
                executor_release=self._executor_release,
            )
            self.last_health = supervisor.health
            t0 = perf_counter()
            with trace_span(
                "parallel.query",
                n_jobs=self.n_jobs,
                backend=backend,
                chunks=len(chunks),
                shm=arena is not None,
            ):
                results = supervisor.run(chunks)
            self._h_dispatch.observe(perf_counter() - t0)
            by_col = {
                j: score
                for triples in results.values()
                for _i, j, score in triples
            }
            return np.array([by_col[c] for c in cols], dtype=float)
        finally:
            if not self.persistent:
                self._drop_arena()

    def _unsupervised(self, out, chunks, gallery, queries, arena) -> np.ndarray:
        """The original fail-fast pool: any worker fault kills the run."""
        from .pool import _score_chunk

        self.last_health = None
        executor, _backend = make_executor(
            self.backend, self.n_jobs, self.measure, list(gallery),
            list(queries) if queries is not None else None,
            arena_handle=arena.handle if arena is not None else None,
            registry=self._registry,
        )
        try:
            results = list(executor.map(_score_chunk, chunks))
        finally:
            executor.shutdown()
        return _assemble(out, results, queries is None)

    def __repr__(self) -> str:
        return (
            f"ParallelSTS({self.measure!r}, n_jobs={self.n_jobs}, "
            f"backend={self.backend!r}, supervised={self.supervised}, "
            f"shm={self.shm!r}, chunking={self.chunking!r}, "
            f"persistent={self.persistent})"
        )
