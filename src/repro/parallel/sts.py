"""Parallel pairwise similarity: one block per shard on a transient cluster.

A similarity matrix is embarrassingly parallel — every entry is an
independent Eq. 10 score.  :class:`ParallelSTS` runs a call on the one
process engine of this package, a :class:`~repro.cluster.ClusterService`:
it starts ``ClusterService(measure, gallery, n_shards=n_jobs,
n_replicas=1, hedge=False)`` for the call, packs the call's rows into one
:class:`~repro.parallel.shm.SharedTrajectoryArena` that every replica
attaches, sends each shard one request of row indices, and closes the
service.  Each replica scores its blocks with the Eq. 10 block kernel
(:meth:`repro.core.STS.similarity_block`).  The kernel's entries do not
depend on the block they are computed in and the arenas hold the exact
float64 values of the caller's trajectories, so the parallel matrix
matches ``STS.pairwise`` to the last bit whatever the worker count, plan
or path.

Plan: a rectangular matrix is one block per shard, every row against
the shard's columns.  A self-matrix scores each unordered pair once with
about equal pair counts per shard: shard ``s`` scores its own self block,
and each cross block ``C_t × C_s`` (``t < s``) is split by the rows of
``C_t`` — the first half is scored at ``s`` as rows against ``C_s``, the
rest at ``t`` as rows ``C_s`` against those columns of ``C_t``.

Robustness rides on the service: a dead replica is restarted and a hung
one killed at the request timeout.  Blocks a gather leaves unscored, or
answers with a non-finite score, are gathered again, up to the service's
``max_restarts`` more rounds.  Without a deadline, blocks still unscored
after that — or the whole matrix when the service cannot start (no
shared memory, no fork, a measure a spawn platform cannot pickle) — are
scored in-process, announced by one ``RuntimeWarning`` and a
``repro_parallel_shm_fallback_total`` increment; a block that fails
in-process too raises.  With a deadline, unscored blocks come back NaN.
What happened is recorded in the :class:`MatrixHealth` exposed as
:attr:`ParallelSTS.last_health`.  Passing ``checkpoint=`` journals
completed blocks to disk (atomic write-rename) so an interrupted run
resumes from the last good state — see :mod:`repro.checkpoint`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from time import perf_counter
from typing import Sequence

import numpy as np

from ..checkpoint import PairwiseCheckpoint
from ..cluster.plan import ShardPlan, gallery_keys
from ..cluster.service import ClusterReport, ClusterService
from ..cluster.worker import score_block
from ..core.kernel import plan_sub_blocks
from ..core.trajectory import Trajectory
from ..errors import ScoreCorruptionError
from ..obs import get_registry, trace_span
from ..serving.budget import Budget
from ..similarity.base import similarity_block
from .pool import resolve_n_jobs
from .shm import SharedTrajectoryArena

__all__ = ["MatrixHealth", "ParallelSTS"]


@dataclass
class MatrixHealth:
    """Structured account of one :meth:`ParallelSTS.pairwise` call.

    ``n_chunks`` counts the blocks of the call's plan and
    ``resumed_chunks`` those read back from its checkpoint; ``retries``
    counts gathers after the first; ``degradations`` holds
    ``"process->serial"`` when blocks were scored in-process.
    ``reports`` holds the :class:`~repro.cluster.ClusterReport` of every
    gather, and ``events`` what the engine itself saw (non-finite
    blocks, blocks shed at the deadline).
    """

    n_chunks: int = 0
    resumed_chunks: int = 0
    retries: int = 0
    degradations: list[str] = field(default_factory=list)
    deadline_expired: bool = False
    events: list[str] = field(default_factory=list)
    reports: list[ClusterReport] = field(default_factory=list)
    #: Metrics snapshot taken when the call finished (None when obs is off).
    metrics: dict | None = None

    @property
    def ok(self) -> bool:
        """True when the call needed no recovery at all."""
        return (
            not (self.retries or self.degradations or self.deadline_expired or self.events)
            and all(report.ok for report in self.reports)
        )


def _shard_plan(members: list[list[int]], n_rows: int, symmetric: bool) -> list[tuple]:
    """The blocks ``(shard, row indices | None, local columns)`` of a call.

    ``members[s]`` lists the gallery indices shard ``s`` owns.  ``None``
    rows mark a shard's self block over the given columns.
    """
    shards = [s for s, m in enumerate(members) if m]
    plan = []
    for s in shards:
        cols = tuple(range(len(members[s])))
        if not symmetric:
            plan.append((s, tuple(range(n_rows)), cols))
            continue
        plan.append((s, None, cols))
        below = tuple(g for t in shards if t < s for g in members[t][: len(members[t]) // 2])
        if below:
            plan.append((s, below, cols))
        above = tuple(g for u in shards if u > s for g in members[u])
        rest = cols[len(cols) // 2:]
        if above and rest:
            plan.append((s, above, rest))
    return plan


def _sub_block_plan(rows, gallery, symmetric: bool) -> list[tuple]:
    """:func:`~repro.core.kernel.plan_sub_blocks` as blocks of one shard."""
    subs = plan_sub_blocks(
        [len(t) for t in rows], None if symmetric else [len(t) for t in gallery]
    )
    return [
        (0, None, tuple(range(r.start, r.stop)))
        if c is None
        else (0, tuple(range(r.start, r.stop)), tuple(range(c.start, c.stop)))
        for r, c in subs
    ]


class _Call:
    """One pairwise call: its plan, its matrix and its journal."""

    def __init__(self, measure, gallery, rows, members, blocks, health, ckpt):
        self.measure = measure
        self.gallery = gallery
        self.rows = rows
        self.symmetric = rows is gallery
        self.members = members
        self.blocks = blocks
        self.health = health
        self.ckpt = ckpt
        self.out = np.zeros((len(rows), len(gallery)))

    def cells(self, k: int) -> tuple[list[int], list[int]]:
        """Block ``k``'s row and column indices in the matrix."""
        shard, row_indices, local = self.blocks[k]
        cols = [self.members[shard][c] for c in local]
        return (cols if row_indices is None else list(row_indices)), cols

    def score_here(self, k: int) -> np.ndarray:
        """Block ``k`` scored in the calling process, as a replica scores it."""
        shard, row_indices, local = self.blocks[k]
        cols = [self.gallery[self.members[shard][c]] for c in local]
        return score_block(self.measure, self.rows, row_indices, cols)

    def _fill(self, k: int, values) -> tuple[list[int], list[int]]:
        """Write ``values`` over block ``k``'s cells (and their mirror)."""
        rows, cols = self.cells(k)
        self.out[np.ix_(rows, cols)] = values
        if self.symmetric:
            self.out[np.ix_(cols, rows)] = np.transpose(values)
        return rows, cols

    def store(self, k: int, scores: np.ndarray) -> None:
        """Write block ``k`` into the matrix and journal it."""
        rows, cols = self._fill(k, scores)
        if self.ckpt is not None:
            self.ckpt.record(
                k,
                [
                    (i, j, float(scores[a, b]))
                    for a, i in enumerate(rows)
                    for b, j in enumerate(cols)
                ],
            )

    def resume(self, done: dict) -> None:
        """Write journaled blocks back into the matrix."""
        for triples in done.values():
            for i, j, score in triples:
                self.out[i, j] = score
                if self.symmetric:
                    self.out[j, i] = score

    def shed(self, ks: Sequence[int]) -> None:
        """NaN-fill blocks a deadlined call left unscored; never journaled."""
        for k in ks:
            self._fill(k, np.nan)
            self.health.events.append(f"block {k} shed (NaN) under the deadline")


class ParallelSTS:
    """Parallel, fault-tolerant wrapper around any similarity measure.

    Parameters
    ----------
    measure:
        Typically :class:`repro.core.STS`, whose blocks are scored by its
        Eq. 10 kernel; any other object with a ``similarity(tra1, tra2)
        -> float`` method is scored entry by entry (see
        :func:`repro.similarity.base.similarity_block`).  Shard workers
        are forked with it where the platform can fork; elsewhere it is
        pickled, and a measure that does not pickle is scored in-process
        with one ``RuntimeWarning``.
    n_jobs:
        Shard workers; ``-1`` means one per available CPU
        (``None``/``1`` run serially in-process).

    Attributes
    ----------
    last_health:
        The :class:`MatrixHealth` of the most recent :meth:`pairwise`
        call (``None`` before the first call, or when the serial fast
        path ran).
    """

    def __init__(self, measure, n_jobs: int | None = -1, registry=None):
        self.measure = measure
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.last_health: MatrixHealth | None = None
        # Share the measure's registry when it has one, so parallel and
        # serial metrics land in one place.
        if registry is not None:
            self._registry = registry
        else:
            self._registry = getattr(measure, "_registry", None) or get_registry()
        self._h_pairwise = self._registry.histogram(
            "repro_pairwise_seconds", "Wall seconds per pairwise() call"
        ).child()
        self._m_fallback = self._registry.counter(
            "repro_parallel_shm_fallback_total",
            "Parallel runs that fell back from shared-memory process "
            "workers to in-process scoring",
        )

    # ------------------------------------------------------------------
    def similarity(self, tra1: Trajectory, tra2: Trajectory) -> float:
        """Single-pair passthrough (no parallelism for one score)."""
        return self.measure.similarity(tra1, tra2)

    def _fingerprint(self, call: _Call, placement: str | None) -> dict:
        n_rows, n_cols = call.out.shape
        return {
            "kind": "pairwise",
            # Block k is the k-th block of the shard plan, or of the kernel's
            # sub-block plan in-process; journals of the retired round-robin
            # plan ("blocks") are refused.
            "plan": "shards" if placement is not None else "sub-blocks",
            "placement": placement,
            "measure": getattr(self.measure, "name", type(self.measure).__name__),
            "n_rows": n_rows,
            "n_cols": n_cols,
            "n_pairs": n_rows * (n_rows + 1) // 2 if call.symmetric else n_rows * n_cols,
            "n_chunks": len(call.blocks),
            "symmetric": call.symmetric,
        }

    # ------------------------------------------------------------------
    def pairwise(
        self,
        gallery: Sequence[Trajectory],
        queries: Sequence[Trajectory] | None = None,
        checkpoint: str | None = None,
        deadline: float | None = None,
    ) -> np.ndarray:
        """Similarity matrix, one block per shard worker.

        Mirrors :meth:`repro.core.STS.pairwise`: with ``queries=None`` the
        result is the symmetric ``gallery × gallery`` matrix with each
        unordered pair scored once; otherwise ``S[i, j] =
        similarity(queries[i], gallery[j])``.

        ``checkpoint`` names a journal file: completed blocks are
        persisted there (atomic write-rename) and a rerun pointing at the
        same file skips them.  Resume requires the same plan — same
        collections and ``n_jobs`` — which the journal's fingerprint
        enforces.  With ``n_jobs=1`` the blocks are the kernel's
        sub-blocks, scored in-process.

        ``deadline`` caps the whole call at that many wall-clock seconds:
        blocks not scored in time come back NaN-filled, and
        :attr:`last_health` has ``deadline_expired`` set.  Shed blocks
        are never journaled, so an unbounded rerun on the same checkpoint
        recomputes exactly the missing entries.
        """
        gallery = list(gallery)
        rows = gallery if queries is None else list(queries)
        symmetric = rows is gallery
        n_pairs = len(rows) * (len(rows) + 1) // 2 if symmetric else len(rows) * len(gallery)
        if not n_pairs:
            return np.zeros((len(rows), len(gallery)))
        t0 = perf_counter()
        if self.n_jobs == 1 and checkpoint is None and deadline is None:
            # Serial, unjournaled and undeadlined: the whole matrix is one
            # kernel block.
            self.last_health = None
            out = similarity_block(self.measure, rows, None if symmetric else gallery)
            self._h_pairwise.observe(perf_counter() - t0)
            return out
        budget = None if deadline is None else Budget(deadline_ms=deadline * 1000.0).start()

        placement = None
        if self.n_jobs > 1:
            plan = ShardPlan(self.n_jobs, 1)
            keys = gallery_keys(gallery)
            members = plan.assign(keys)
            blocks = _shard_plan(members, len(rows), symmetric)
            placement = plan.fingerprint(keys)
        else:
            members = [list(range(len(gallery)))]
            blocks = _sub_block_plan(rows, gallery, symmetric)
        health = MatrixHealth(n_chunks=len(blocks))
        self.last_health = health
        call = _Call(self.measure, gallery, rows, members, blocks, health, None)
        todo = list(range(len(blocks)))
        if checkpoint is not None:
            call.ckpt = PairwiseCheckpoint(checkpoint, self._fingerprint(call, placement))
            done = call.ckpt.completed
            call.resume(done)
            health.resumed_chunks = len(done)
            todo = [k for k in todo if k not in done]

        with trace_span("parallel.pairwise", n_jobs=self.n_jobs, blocks=len(blocks)):
            if todo and self.n_jobs > 1:
                todo = self._gather(call, todo, budget)
            for pos, k in enumerate(todo):
                if budget is not None and budget.expired():
                    health.deadline_expired = True
                    call.shed(todo[pos:])
                    break
                scores = call.score_here(k)
                if not np.isfinite(scores).all():
                    raise ScoreCorruptionError(
                        f"block {k} produced a non-finite score in-process"
                    )
                call.store(k, scores)
        if call.ckpt is not None:
            call.ckpt.flush()
        # The whole call, service start and arena pack included, as on
        # the serial path.
        self._h_pairwise.observe(perf_counter() - t0)
        if getattr(self._registry, "enabled", False):
            health.metrics = self._registry.snapshot()
        return call.out

    def _gather(self, call: _Call, todo: list[int], budget: Budget | None) -> list[int]:
        """Score ``todo`` on a transient service; returns what is left in-process."""
        health = call.health
        arena = None
        try:
            arena = SharedTrajectoryArena.pack(call.rows, registry=self._registry)
            service = ClusterService(
                self.measure,
                call.gallery,
                n_shards=self.n_jobs,
                n_replicas=1,
                hedge=False,
                registry=self._registry,
            )
        except Exception as exc:  # no shared memory, no fork, an unpicklable measure
            if arena is not None:
                arena.close()
            self._step_down(health, "backend-unavailable", f"{type(exc).__name__}: {exc}")
            return todo
        try:
            for attempt in range(1 + service.max_restarts):
                if attempt:
                    health.retries += 1
                by_shard: dict[int, list[int]] = {}
                for k in todo:
                    by_shard.setdefault(call.blocks[k][0], []).append(k)
                requests = {s: [call.blocks[k][1:] for k in ks] for s, ks in by_shard.items()}
                answers, report = service.score_blocks(arena.handle, requests, budget)
                health.reports.append(report)
                for shard, matrices in answers.items():
                    for k, scores in zip(by_shard[shard], matrices):
                        if np.isfinite(scores).all():
                            call.store(k, scores)
                            todo.remove(k)
                        else:
                            health.events.append(
                                f"block {k} on shard {shard}: non-finite score"
                            )
                if not todo or (budget is not None and budget.expired()):
                    break
        finally:
            if budget is not None and budget.expired():
                # Replicas still scoring would hold close() past the deadline.
                for shard, replica in list(service.replica_pids()):
                    service.kill_replica(shard, replica)
            service.close()
            arena.close()
        if todo and budget is not None:
            health.deadline_expired = budget.expired()
            call.shed(todo)
            return []
        if todo:
            self._step_down(
                health,
                "unscored",
                f"{len(todo)} block(s) unscored after {len(health.reports)} gather(s)",
            )
        return todo

    def _step_down(self, health: MatrixHealth, kind: str, detail: str) -> None:
        """Record the step to in-process scoring; warn and count it once.

        In-process scoring runs on one core, so a silent step down would
        look like a throughput regression with no cause.
        """
        health.degradations.append("process->serial")
        self._m_fallback.inc(reason=kind)
        warnings.warn(
            f"parallel scoring fell back from process workers to in-process "
            f"scoring ({kind}: {detail}); expect single-core throughput",
            RuntimeWarning,
            stacklevel=4,
        )

    def __repr__(self) -> str:
        return f"ParallelSTS({self.measure!r}, n_jobs={self.n_jobs})"
