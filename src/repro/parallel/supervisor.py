"""Supervised chunk execution: retries, timeouts, graceful degradation.

The plain pool of :mod:`repro.parallel.pool` assumes a healthy world: no
worker ever dies, hangs, or returns garbage.  On a multi-hour pairwise
run that assumption eventually breaks — the OOM killer takes a worker,
a pathological pair wedges a kernel, a node-level fault corrupts a
result — and with a bare ``ProcessPoolExecutor`` one such event kills
the whole run.

:class:`SupervisedExecutor` wraps the same chunk protocol
(:func:`~repro.parallel.pool._score_chunk` over rectangular
:class:`~repro.parallel.pool.Block` chunks) with a supervision loop:

* **crash detection** — a ``BrokenProcessPool`` fails every in-flight
  chunk; the pool is rebuilt and the unfinished chunks re-dispatched.
* **retries with capped exponential backoff** — each failed round waits
  ``BACKOFF_BASE * 2**(round-1)`` seconds (capped at :data:`BACKOFF_MAX`)
  before re-dispatching, so a transiently sick machine gets air.
* **progress timeouts** — if no chunk completes within
  ``chunk_timeout`` seconds the outstanding workers are presumed hung
  and killed outright.
* **graceful degradation** — the ladder has two rungs, the process pool
  and the calling process.  When the pool exhausts :data:`MAX_RETRIES`
  retries, or cannot start (no shared-memory arena, an un-picklable
  measure), the remaining chunks are scored in-process, announced once
  per run.  A chunk that still fails there is failing
  deterministically, and the configured ``on_error`` policy decides
  between propagating the error and filling the chunk's pairs with NaN.
* **score validation** — STS scores are probabilities; a non-finite
  score coming back from a worker marks the chunk corrupt and re-scores
  it.

Because recovery replays the exact same chunks through the exact same
scoring code, a run that experienced crashes/timeouts still produces a
matrix bitwise-identical to a clean serial run.  Everything that
happened along the way is recorded in a :class:`RunHealth` report.
"""

from __future__ import annotations

import pickle
import time
import warnings
from collections import defaultdict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import ScoreCorruptionError, validate_policy
from ..obs import adopt_span, get_registry, merge_into_registry
from .pool import Block, _init_worker_shm, _score_chunk

__all__ = ["ChunkEvent", "RunHealth", "SupervisedExecutor"]

#: Failed pool rounds retried before the run degrades to in-process scoring.
MAX_RETRIES = 2
#: Backoff after the first failed round, in seconds; doubles every round.
BACKOFF_BASE = 0.05
#: Cap on the backoff between failed rounds, in seconds.
BACKOFF_MAX = 2.0

Triple = tuple[int, int, float]


@dataclass(frozen=True)
class ChunkEvent:
    """One supervision incident: what went wrong with which chunk."""

    chunk: int
    attempt: int
    backend: str
    kind: str  # "worker-crash" | "timeout" | "error" | "corrupt-score" | "backend-unavailable" | "skipped" | "deadline-shed"
    detail: str = ""

    def __str__(self) -> str:
        note = f": {self.detail}" if self.detail else ""
        return f"[{self.backend}] chunk {self.chunk} attempt {self.attempt} {self.kind}{note}"


@dataclass
class RunHealth:
    """Structured account of one supervised run.

    A clean run has ``ok`` true and empty ``events``; anything the
    supervisor had to absorb — crashes, retries, the step to in-process
    scoring, skipped chunks — is counted here and detailed in ``events``.
    """

    n_chunks: int = 0
    resumed_chunks: int = 0
    rounds: int = 0
    retries: int = 0
    worker_crashes: int = 0
    timeouts: int = 0
    corrupt_scores: int = 0
    errors: int = 0
    skipped_pairs: int = 0
    deadline_expired: bool = False
    backends_used: list[str] = field(default_factory=list)
    degradations: list[str] = field(default_factory=list)
    events: list[ChunkEvent] = field(default_factory=list)
    #: Metrics snapshot taken when the run finished (None when obs is off).
    metrics: dict | None = None

    @property
    def ok(self) -> bool:
        """True when the run needed no recovery at all."""
        return not self.events and not self.degradations and not self.deadline_expired

    @property
    def degraded(self) -> bool:
        return bool(self.degradations)

    def record(self, event: ChunkEvent) -> None:
        """Append one supervision incident."""
        self.events.append(event)

    def to_dict(self) -> dict:
        """JSON-serializable form of the health report."""
        return {
            "n_chunks": self.n_chunks,
            "resumed_chunks": self.resumed_chunks,
            "rounds": self.rounds,
            "retries": self.retries,
            "worker_crashes": self.worker_crashes,
            "timeouts": self.timeouts,
            "corrupt_scores": self.corrupt_scores,
            "errors": self.errors,
            "skipped_pairs": self.skipped_pairs,
            "deadline_expired": self.deadline_expired,
            "backends_used": list(self.backends_used),
            "degradations": list(self.degradations),
            "events": [
                {
                    "chunk": e.chunk,
                    "attempt": e.attempt,
                    "backend": e.backend,
                    "kind": e.kind,
                    "detail": e.detail,
                }
                for e in self.events
            ],
            "metrics": self.metrics,
        }

    def summary(self) -> str:
        """One-line human summary of the run's health."""
        if self.ok:
            return f"healthy: {self.n_chunks} chunks, no incidents"
        return (
            f"recovered: {self.n_chunks} chunks, {self.retries} retries, "
            f"{self.worker_crashes} worker crash(es), {self.timeouts} timeout(s), "
            f"{self.corrupt_scores} corrupt score(s), {self.errors} error(s), "
            f"degradations {self.degradations or 'none'}, "
            f"{self.skipped_pairs} pair(s) skipped"
            + (", deadline EXPIRED" if self.deadline_expired else "")
        )


def _kill_executor(executor) -> None:
    """Tear a process pool down hard after a hang or a crash.

    Workers are killed with SIGKILL — a hung worker will not honour a
    graceful shutdown — and everything still queued is cancelled.
    """
    for proc in list(getattr(executor, "_processes", {}).values()):
        try:
            proc.kill()
        except Exception:  # already dead
            pass
    executor.shutdown(wait=False, cancel_futures=True)


class SupervisedExecutor:
    """Run score chunks to completion through a fault-tolerance ladder.

    Parameters
    ----------
    measure, gallery, queries:
        The scoring state: the in-process rung scores these objects
        directly; process workers score the arena's views of them.
    n_jobs:
        Worker count of the process pool.  ``1`` scores every chunk
        in-process, with no pool.
    chunk_timeout:
        Progress timeout in seconds: if *no* chunk completes for this
        long, outstanding workers are presumed hung.  ``None`` disables
        timeout supervision.
    on_error:
        What to do when the in-process rung still fails a chunk:
        ``"raise"`` propagates the original exception, ``"skip"`` (and
        ``"repair"``, which is equivalent at this layer) fills the
        chunk's pairs with NaN and records them as skipped.
    deadline:
        Wall-clock allowance for the whole run, in seconds (``None`` =
        unbounded).  When it expires, chunks still outstanding are *shed*
        — their pairs filled with NaN and recorded as ``deadline-shed``
        events — so the run returns promptly with a partial-but-shaped
        result instead of stalling.  Shed chunks are never journaled to
        a checkpoint, so a later unbounded rerun recomputes them.
    arena_handle:
        The :class:`~repro.parallel.shm.ArenaHandle` process workers
        attach to.  Without one the pool cannot start and the run scores
        in-process.  Every step off the process rung is announced
        (warning + fallback counter).

    Non-finite scores are always rejected as chunk corruption: STS
    scores are probabilities.
    """

    def __init__(
        self,
        measure,
        gallery,
        queries,
        n_jobs: int,
        chunk_timeout: float | None = None,
        on_error: str = "raise",
        deadline: float | None = None,
        registry=None,
        arena_handle=None,
    ):
        self.measure = measure
        self.gallery = gallery
        self.queries = queries
        self.n_jobs = int(n_jobs)
        self.chunk_timeout = chunk_timeout
        self.on_error = validate_policy(on_error)
        if deadline is not None and deadline < 0:
            raise ValueError(f"deadline must be >= 0 seconds, got {deadline}")
        self.deadline = deadline
        self.arena_handle = arena_handle
        self.health = RunHealth()
        self._attempts: dict[int, int] = defaultdict(int)
        self._deadline_at: float | None = None
        reg = registry if registry is not None else get_registry()
        self._registry = reg
        chunk_counter = reg.counter(
            "repro_supervisor_chunks_total",
            "Chunk lifecycle events in the supervised executor",
        )
        self._m_queued = chunk_counter.child(event="queued")
        self._m_completed = chunk_counter.child(event="completed")
        self._m_retried = chunk_counter.child(event="retried")
        self._m_shed = chunk_counter.child(event="shed")
        self._m_resumed = chunk_counter.child(event="resumed")
        self._m_degradations = reg.counter(
            "repro_supervisor_degradations_total",
            "Ladder step-downs from process workers to in-process scoring",
        )
        self._m_fallback = reg.counter(
            "repro_parallel_shm_fallback_total",
            "Parallel runs that fell back from shared-memory process "
            "workers to in-process scoring",
        )

    # ------------------------------------------------------------------
    def _remaining(self) -> float | None:
        """Seconds left on the run deadline (``None`` when unbounded)."""
        if self._deadline_at is None:
            return None
        return self._deadline_at - time.monotonic()

    def _deadline_expired(self) -> bool:
        remaining = self._remaining()
        return remaining is not None and remaining <= 0.0

    def _shed_remaining(
        self,
        chunks: Sequence[Block],
        todo: Sequence[int],
        results: dict[int, list[Triple]],
    ) -> None:
        """NaN-fill every chunk still outstanding at deadline expiry.

        Shed chunks are deliberately *not* journaled through the
        checkpoint hook: the NaNs are placeholders, and a resumed
        unbounded run must recompute them.
        """
        health = self.health
        health.deadline_expired = True
        for k in todo:
            if k in results:
                continue
            results[k] = [(i, j, float("nan")) for i, j in chunks[k]]
            health.skipped_pairs += len(chunks[k])
            self._m_shed.inc()
            health.record(
                ChunkEvent(
                    k,
                    self._attempts[k] + 1,
                    "deadline",
                    "deadline-shed",
                    f"run deadline of {self.deadline}s expired",
                )
            )

    # ------------------------------------------------------------------
    def run(
        self,
        chunks: Sequence[Block],
        done: dict[int, list[Triple]] | None = None,
        on_chunk_done: Callable[[int, list[Triple]], None] | None = None,
    ) -> dict[int, list[Triple]]:
        """Score every chunk, surviving crashes/hangs/corruption.

        ``done`` seeds already-completed chunks (checkpoint resume);
        ``on_chunk_done(index, triples)`` fires once per freshly
        completed chunk, in completion order — the checkpoint journaling
        hook.  Returns ``{chunk_index: [(row, col, score), ...]}`` for
        every chunk.
        """
        health = self.health
        results: dict[int, list[Triple]] = dict(done) if done else {}
        health.n_chunks = len(chunks)
        health.resumed_chunks = len(results)
        todo = [k for k in range(len(chunks)) if k not in results]
        if results:
            self._m_resumed.inc(len(results))
        if todo:
            self._m_queued.inc(len(todo))
        if self.deadline is not None and self._deadline_at is None:
            self._deadline_at = time.monotonic() + self.deadline

        if todo and self.n_jobs > 1:
            todo = self._run_process_rung(chunks, todo, results, on_chunk_done)
        if todo and self._deadline_expired():
            self._shed_remaining(chunks, todo, results)
        elif todo:
            self._run_serial(chunks, todo, results, on_chunk_done)
        return results

    def _run_process_rung(
        self,
        chunks: Sequence[Block],
        todo: list[int],
        results: dict[int, list[Triple]],
        on_chunk_done,
    ) -> list[int]:
        """Pool rounds until done, out of retries or deadline; returns what is left."""
        health = self.health
        while todo and not self._deadline_expired():
            executor = None
            try:
                executor = self._start_pool(len(todo))
                # The pool starts its workers on the first submit.  Each
                # result carries the worker's registry delta and span
                # subtree home, in an envelope _absorb_worker_payload unwraps.
                futures = {executor.submit(_score_chunk, chunks[k]): k for k in todo}
            except Exception as exc:
                # No arena, an un-picklable measure, or workers that
                # could not start: no chunk ran, so this is neither a
                # round nor a retry.
                if executor is not None:
                    _kill_executor(executor)
                detail = f"{type(exc).__name__}: {exc}"
                for k in todo:
                    health.record(
                        ChunkEvent(
                            k,
                            self._attempts[k] + 1,
                            "process",
                            "backend-unavailable",
                            detail,
                        )
                    )
                self._step_down("backend-unavailable", detail)
                return todo
            health.rounds += 1
            failed = self._run_pooled(executor, futures, results, on_chunk_done)
            todo = [k for k in todo if k not in results]
            if not todo or self._deadline_expired():
                continue  # done, or shed by the caller without retry/backoff
            health.retries += 1
            for k, kind, detail in failed:
                self._attempts[k] += 1
                self._m_retried.inc()
                health.record(ChunkEvent(k, self._attempts[k], "process", kind, detail))
            if health.rounds > MAX_RETRIES:
                self._step_down(failed[0][1], failed[0][2])
                return todo
            time.sleep(min(BACKOFF_MAX, BACKOFF_BASE * (2 ** (health.rounds - 1))))
        return todo

    def _start_pool(self, n_todo: int) -> ProcessPoolExecutor:
        """A process pool whose workers attach to the arena at start.

        Raises when there is no arena or the measure does not pickle
        (e.g. a closure-based transition policy).
        """
        if self.arena_handle is None:
            raise RuntimeError("no shared-memory arena to attach workers to")
        pickle.dumps(self.measure)
        return ProcessPoolExecutor(
            max_workers=max(1, min(self.n_jobs, n_todo)),
            initializer=_init_worker_shm,
            initargs=(self.measure, self.arena_handle),
        )

    def _step_down(self, kind: str, detail: str) -> None:
        """Record the step to in-process scoring; warn and count it once.

        In-process scoring runs on one core, so a silent step down would
        look like a throughput regression with no cause.
        """
        step = "process->serial"
        self.health.degradations.append(step)
        self._m_degradations.inc(step=step)
        self._m_fallback.inc(reason=kind)
        warnings.warn(
            f"parallel scoring fell back from process workers to in-process "
            f"scoring ({kind}: {detail}); expect single-core throughput",
            RuntimeWarning,
            stacklevel=5,
        )

    @staticmethod
    def _validate(triples: list[Triple]) -> bool:
        return bool(np.isfinite([score for _, _, score in triples]).all())

    def _absorb_worker_payload(self, payload: dict) -> list[Triple]:
        """Unwrap a worker envelope; fold its delta, adopt its spans.

        Folding happens at result-unwrap time — before validation — so a
        chunk whose scores are rejected still has its (real) worker-side
        work credited to the fleet series.
        """
        delta = payload.get("delta")
        if delta:
            merge_into_registry(self._registry, delta, {"process": "worker"})
        trace = payload.get("trace")
        if trace:
            adopt_span(trace)
        return payload["triples"]

    def _run_pooled(
        self,
        executor: ProcessPoolExecutor,
        futures: dict,
        results: dict[int, list[Triple]],
        on_chunk_done,
    ) -> list[tuple[int, str, str]]:
        """Collect one dispatched round; returns ``(chunk, kind, detail)`` failures.

        ``futures`` maps each submitted future to its chunk index.
        """
        health = self.health
        if "process" not in health.backends_used:
            health.backends_used.append("process")

        failed: list[tuple[int, str, str]] = []
        pool_broke = False
        hung = False
        remaining = set(futures)
        try:
            while remaining:
                wait_timeout = self.chunk_timeout
                deadline_left = self._remaining()
                if deadline_left is not None:
                    deadline_left = max(deadline_left, 1e-3)
                    wait_timeout = (
                        deadline_left
                        if wait_timeout is None
                        else min(wait_timeout, deadline_left)
                    )
                done_set, not_done = wait(
                    remaining, timeout=wait_timeout, return_when=FIRST_COMPLETED
                )
                if not done_set:
                    hung = True
                    if self._deadline_expired():
                        # Run deadline, not a hang: abandon the round; the
                        # supervision loop sheds whatever is left.
                        break
                    # No progress for a whole timeout window: presume the
                    # outstanding workers hung.
                    health.timeouts += 1
                    for fut in not_done:
                        failed.append(
                            (
                                futures[fut],
                                "timeout",
                                f"no progress for {self.chunk_timeout}s",
                            )
                        )
                    break
                for fut in done_set:
                    k = futures[fut]
                    try:
                        triples = self._absorb_worker_payload(fut.result())
                    except BrokenProcessPool as exc:
                        pool_broke = True
                        failed.append(
                            (k, "worker-crash", str(exc) or "BrokenProcessPool")
                        )
                    except Exception as exc:
                        failed.append((k, "error", f"{type(exc).__name__}: {exc}"))
                    else:
                        if self._validate(triples):
                            results[k] = triples
                            self._m_completed.inc()
                            if on_chunk_done is not None:
                                on_chunk_done(k, triples)
                        else:
                            health.corrupt_scores += 1
                            failed.append(
                                (k, "corrupt-score", "non-finite score in chunk")
                            )
                remaining = not_done
        finally:
            if hung or pool_broke:
                _kill_executor(executor)
            else:
                executor.shutdown(wait=True, cancel_futures=True)
        if pool_broke:
            health.worker_crashes += 1
        health.errors += sum(1 for _, kind, _ in failed if kind == "error")
        return failed

    def _run_serial(
        self,
        chunks: Sequence[Block],
        todo: Sequence[int],
        results: dict[int, list[Triple]],
        on_chunk_done,
    ) -> None:
        """Last rung: score in the calling process, policy-gated."""
        health = self.health
        if "serial" not in health.backends_used:
            health.backends_used.append("serial")
        for pos, k in enumerate(todo):
            if self._deadline_expired():
                self._shed_remaining(chunks, todo[pos:], results)
                return
            attempt = self._attempts[k] + 1
            try:
                triples = chunks[k].score(self.measure, self.gallery, self.queries)
                if not self._validate(triples):
                    health.corrupt_scores += 1
                    raise ScoreCorruptionError(
                        f"chunk {k} produced a non-finite score serially"
                    )
            except Exception as exc:
                health.errors += 1
                if self.on_error == "raise":
                    health.record(
                        ChunkEvent(k, attempt, "serial", "error", str(exc))
                    )
                    raise
                # Skip policy: re-score the chunk one pair at a time so only
                # the genuinely failing pairs are lost, not block-mates.
                triples, n_bad = self._score_pairs_individually(chunks[k])
                health.skipped_pairs += n_bad
                health.record(
                    ChunkEvent(
                        k,
                        attempt,
                        "serial",
                        "skipped",
                        f"{type(exc).__name__}: {exc} "
                        f"({n_bad}/{len(chunks[k])} pair(s) lost)",
                    )
                )
            results[k] = triples
            self._m_completed.inc()
            if on_chunk_done is not None:
                on_chunk_done(k, triples)

    def _score_pairs_individually(
        self, chunk: Block
    ) -> tuple[list[Triple], int]:
        """Score a failing chunk one pair at a time, NaN-filling failures."""
        rows = self.gallery if self.queries is None else self.queries
        triples: list[Triple] = []
        n_bad = 0
        for i, j in chunk:
            try:
                score = float(self.measure.similarity(rows[i], self.gallery[j]))
                if not np.isfinite(score):
                    raise ScoreCorruptionError(f"non-finite score for pair ({i}, {j})")
            except Exception:
                score = float("nan")
                n_bad += 1
            triples.append((i, j, score))
        return triples, n_bad
