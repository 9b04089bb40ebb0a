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
worker count, block plan, or rung.

Transport: each call packs the trajectory corpus into one
:class:`~repro.parallel.shm.SharedTrajectoryArena`; process workers
attach to it at initializer time and score zero-copy views, so the
per-call pickle payload is the measure plus bare index chunks.
In-process scoring reads the caller's own trajectory lists and needs no
arena.

Blocks: the rows and columns are each dealt round-robin into index
groups of equal size, and every (row group, column group) is a block —
for a self-matrix, every group pair on or above the diagonal.  Every
pair is scored exactly once.

Execution is *supervised* (see :mod:`repro.parallel.supervisor`): dead
workers are detected and their chunks retried with capped exponential
backoff, hung chunks are timed out, and a pool that keeps failing or
cannot start hands its chunks to in-process scoring rather than failing
the run.  What happened is recorded in the
:class:`~repro.parallel.supervisor.RunHealth` exposed as
:attr:`ParallelSTS.last_health`.  Passing ``checkpoint=`` journals
completed chunks to disk (atomic write-rename) so an interrupted run
resumes from the last good state — see :mod:`repro.checkpoint`.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Sequence

import numpy as np

from ..checkpoint import PairwiseCheckpoint
from ..core.trajectory import Trajectory
from ..obs import get_registry, trace_span
from ..similarity.base import similarity_block
from .pool import Block, chunk_pairs, resolve_n_jobs
from .shm import SharedTrajectoryArena
from .supervisor import RunHealth, SupervisedExecutor

__all__ = ["ParallelSTS"]

#: Dispatch granularity: a matrix is cut into at least ``n_jobs *
#: CHUNKS_PER_WORKER`` blocks where it has that many pairs, trading
#: scheduling slack against per-block overhead.
CHUNKS_PER_WORKER = 4

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


def _groups(n: int, n_groups: int) -> list[tuple[int, ...]]:
    """Deal ``range(n)`` round-robin into ``n_groups`` ascending index groups."""
    return [tuple(g) for g in chunk_pairs(list(range(n)), n_groups, 1)]


class ParallelSTS:
    """Parallel, fault-tolerant wrapper around any similarity measure.

    Parameters
    ----------
    measure:
        Typically :class:`repro.core.STS`, whose blocks are scored by its
        Eq. 10 kernel; any other object with a ``similarity(tra1, tra2)
        -> float`` method is scored entry by entry (see
        :func:`repro.similarity.base.similarity_block`).  Process workers
        each get a private pickled copy; STS and its ablation variants
        pickle.  A measure that does not pickle, or a host without an
        arena, is scored in-process with one ``RuntimeWarning``.
    n_jobs:
        Worker processes; ``-1`` means one per available CPU
        (``None``/``1`` run serially in-process).
    chunk_timeout, on_error:
        Supervision settings, forwarded to the supervisor — see
        :class:`~repro.parallel.supervisor.SupervisedExecutor`.

    Attributes
    ----------
    last_health:
        The :class:`~repro.parallel.supervisor.RunHealth` of the most
        recent :meth:`pairwise` call (``None`` before the first call, or
        when the serial fast path ran).
    """

    def __init__(
        self,
        measure,
        n_jobs: int | None = -1,
        chunk_timeout: float | None = None,
        on_error: str = "raise",
        registry=None,
    ):
        self.measure = measure
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.chunk_timeout = chunk_timeout
        self.on_error = on_error
        self.last_health: RunHealth | None = None
        # Share the measure's registry when it has one, so parallel and
        # serial metrics land in one place.
        if registry is not None:
            self._registry = registry
        else:
            self._registry = getattr(measure, "_registry", None) or get_registry()
        self._h_pairwise = self._registry.histogram(
            "repro_pairwise_seconds", "Wall seconds per pairwise() call"
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
            # The one block plan deals indices by count; journals written
            # by a cost-balanced plan must not resume into it.
            "chunking": "count",
        }

    def _plan_blocks(self, n_rows: int, n_cols: int, symmetric: bool) -> list[Block]:
        """Cut ``n_rows × n_cols`` into blocks of round-robin index groups.

        A self-matrix (``symmetric``) splits its indices into ``g`` groups
        and takes the ``g(g+1)/2`` group pairs on or above the diagonal;
        a rectangular matrix takes every (row group, column group), with
        group counts chosen so the blocks come out near-square.
        """
        target = max(1, self.n_jobs * CHUNKS_PER_WORKER)
        if symmetric:
            n_groups = 1
            while n_groups < n_rows and n_groups * (n_groups + 1) // 2 < target:
                n_groups += 1
            groups = _groups(n_rows, n_groups)
            blocks = [
                Block(groups[a], None if b == a else groups[b])
                for a in range(len(groups))
                for b in range(a, len(groups))
            ]
        else:
            n_row_groups = min(
                n_rows, max(1, round(math.sqrt(target * n_rows / n_cols)))
            )
            n_col_groups = min(n_cols, max(1, -(-target // n_row_groups)))
            blocks = [
                Block(row_group, col_group)
                for row_group in _groups(n_rows, n_row_groups)
                for col_group in _groups(n_cols, n_col_groups)
            ]
        totals = [len(block) for block in blocks]
        mean = sum(totals) / len(totals)
        if mean > 0:
            for total in totals:
                self._h_imbalance.observe(total / mean)
        return blocks

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
        collections and ``n_jobs`` — which the journal's fingerprint
        enforces.

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
        t0 = perf_counter()
        if self.n_jobs == 1 and checkpoint is None and deadline is None:
            # Serial, unjournaled and undeadlined: the whole matrix is one
            # kernel block, and there is nothing to supervise in-process.
            self.last_health = None
            out = similarity_block(self.measure, rows, None if symmetric else gallery)
            self._h_pairwise.observe(perf_counter() - t0)
            return out

        chunks = self._plan_blocks(len(rows), len(gallery), symmetric)
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
        arena = None
        if self.n_jobs > 1:
            # Only process workers read the arena.  Without one (e.g. no
            # /dev/shm) the pool cannot start, and the supervisor scores
            # in-process and announces it.
            try:
                arena = SharedTrajectoryArena.pack(
                    gallery, queries, registry=self._registry
                )
            except OSError:
                pass
        try:
            supervisor = SupervisedExecutor(
                self.measure,
                list(gallery),
                list(queries) if queries is not None else None,
                self.n_jobs,
                chunk_timeout=self.chunk_timeout,
                on_error=self.on_error,
                deadline=deadline,
                registry=self._registry,
                arena_handle=arena.handle if arena is not None else None,
            )
            self.last_health = supervisor.health
            with trace_span(
                "parallel.pairwise",
                n_jobs=self.n_jobs,
                chunks=len(chunks),
                shm=arena is not None,
            ):
                results = supervisor.run(
                    chunks,
                    done=done,
                    on_chunk_done=ckpt.record if ckpt is not None else None,
                )
        finally:
            if arena is not None:
                arena.close()
        if ckpt is not None:
            ckpt.flush()
        out = _assemble(out, results.values(), symmetric)
        # The whole call, arena pack included, as on the serial path.
        self._h_pairwise.observe(perf_counter() - t0)
        if getattr(self._registry, "enabled", False):
            supervisor.health.metrics = self._registry.snapshot()
        return out

    def __repr__(self) -> str:
        return f"ParallelSTS({self.measure!r}, n_jobs={self.n_jobs})"
