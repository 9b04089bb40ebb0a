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
  ``backoff_base * 2**round`` seconds (capped at :data:`BACKOFF_MAX`)
  before re-dispatching, so a transiently sick machine gets air.
* **progress timeouts** — if no chunk completes within
  ``chunk_timeout`` seconds the outstanding workers are presumed hung;
  process workers are killed outright (threads cannot be killed — there
  the timeout only abandons queued chunks).
* **graceful degradation** — when a backend exhausts ``max_retries``
  (or cannot start: no shared-memory arena, an un-picklable measure)
  the supervisor steps down the ladder ``process → thread → serial``,
  announcing the step off the process rung once per run.
  The serial rung runs in the driver process itself: a chunk that still
  fails there is failing deterministically, and the configured
  ``on_error`` policy decides between propagating the error and filling
  the chunk's pairs with NaN.
* **score validation** — STS scores are probabilities; a non-finite
  score coming back from a worker marks the chunk corrupt and re-scores
  it.

Because recovery replays the exact same chunks through the exact same
scoring code, a run that experienced crashes/timeouts still produces a
matrix bitwise-identical to a clean serial run.  Everything that
happened along the way is recorded in a :class:`RunHealth` report.
"""

from __future__ import annotations

import time
import warnings
from collections import defaultdict
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import ScoreCorruptionError, validate_policy
from ..obs import adopt_span, get_registry, merge_into_registry
from .pool import (
    TELEMETRY_KEY,
    _init_worker,
    _score_chunk,
    _score_chunk_with_telemetry,
    make_executor,
)

__all__ = ["ChunkEvent", "RunHealth", "SupervisedExecutor"]

#: Cap on the backoff between failed rounds, in seconds.
BACKOFF_MAX = 2.0

Triple = tuple[int, int, float]
#: A chunk iterates the ``(row, col)`` pairs it owns (a pool ``Block``).
Chunk = Sequence[tuple[int, int]]


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
    supervisor had to absorb — crashes, retries, backend degradations,
    skipped chunks — is counted here and detailed in ``events``.
    """

    backend_requested: str = "auto"
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
            "backend_requested": self.backend_requested,
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


def _kill_executor(executor, backend: str) -> None:
    """Tear an executor down hard after a hang.

    Process workers are killed with SIGKILL — a hung worker will not
    honour a graceful shutdown.  Threads cannot be killed in CPython;
    abandoning the executor at least cancels everything still queued.
    """
    if backend == "process":
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
        The scoring state: the thread and serial rungs score these
        objects directly; process workers score the arena's views of them.
    n_jobs:
        Worker count for the pooled rungs.
    backend:
        First rung of the ladder: ``"auto"``/``"process"`` start at the
        process pool, ``"thread"`` at the thread pool, ``"serial"`` runs
        everything in the driver.
    chunk_timeout:
        Progress timeout in seconds: if *no* chunk completes for this
        long, outstanding workers are presumed hung.  ``None`` disables
        timeout supervision.
    max_retries:
        Failed-round budget per rung before degrading to the next one.
    backoff_base:
        Exponential backoff between failed rounds, in seconds (capped at
        :data:`BACKOFF_MAX`).
    on_error:
        What to do when the serial rung still fails a chunk:
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
        attach to.  Without one the process rung cannot start and the
        run degrades to threads.  The thread and serial rungs share the
        parent address space and ignore it.  Every step off the process
        rung is announced (warning + fallback counter).

    Non-finite scores are always rejected as chunk corruption: STS
    scores are probabilities.
    """

    _LADDERS = {
        "auto": ("process", "thread", "serial"),
        "process": ("process", "thread", "serial"),
        "thread": ("thread", "serial"),
        "serial": ("serial",),
    }

    def __init__(
        self,
        measure,
        gallery,
        queries,
        n_jobs: int,
        backend: str = "auto",
        chunk_timeout: float | None = None,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        on_error: str = "raise",
        deadline: float | None = None,
        registry=None,
        arena_handle=None,
    ):
        if backend not in self._LADDERS:
            raise ValueError(
                f"backend must be one of {sorted(self._LADDERS)}, got {backend!r}"
            )
        self.measure = measure
        self.gallery = gallery
        self.queries = queries
        self.n_jobs = int(n_jobs)
        self.backend = backend
        self.chunk_timeout = chunk_timeout
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.on_error = validate_policy(on_error)
        if deadline is not None and deadline < 0:
            raise ValueError(f"deadline must be >= 0 seconds, got {deadline}")
        self.deadline = deadline
        self.arena_handle = arena_handle
        self.health = RunHealth(backend_requested=backend)
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
            "Backend ladder step-downs (process->thread->serial)",
        )
        self._m_thread_fallback = reg.counter(
            "repro_parallel_shm_fallback_total",
            "Parallel runs that fell back from shared-memory process "
            "workers to threads",
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
        chunks: Sequence[Chunk],
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
        chunks: Sequence[Chunk],
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

        ladder = self._LADDERS[self.backend]
        rung = 0
        rounds_on_rung = 0
        while todo:
            if self._deadline_expired():
                self._shed_remaining(chunks, todo, results)
                todo = []
                break
            backend = ladder[rung]
            if backend == "serial":
                self._run_serial(chunks, todo, results, on_chunk_done)
                todo = []
                break
            health.rounds += 1
            rounds_on_rung += 1
            failed = self._run_pooled(backend, chunks, todo, results, on_chunk_done)
            todo = [k for k in todo if k not in results]
            if not todo:
                break
            if self._deadline_expired():
                continue  # shed at the top of the loop, no retry/backoff
            health.retries += 1
            for k, kind, detail in failed:
                self._attempts[k] += 1
                self._m_retried.inc()
                health.record(
                    ChunkEvent(k, self._attempts[k], backend, kind, detail)
                )
            if rounds_on_rung > self.max_retries or any(
                kind == "backend-unavailable" for _, kind, _ in failed
            ):
                next_backend = ladder[rung + 1]
                health.degradations.append(f"{backend}->{next_backend}")
                self._m_degradations.inc(step=f"{backend}->{next_backend}")
                if backend == "process":
                    self._announce_thread_fallback(failed[0][1], failed[0][2])
                rung += 1
                rounds_on_rung = 0
            else:
                delay = min(
                    BACKOFF_MAX,
                    self.backoff_base * (2 ** (rounds_on_rung - 1)),
                )
                if delay > 0:
                    time.sleep(delay)
        return results

    # ------------------------------------------------------------------
    def _announce_thread_fallback(self, kind: str, detail: str) -> None:
        """One warning and one counter increment for a step off the process rung.

        Threads share one interpreter, so a silent step down would look
        like a throughput regression with no cause.
        """
        self._m_thread_fallback.inc(reason=kind)
        warnings.warn(
            f"parallel scoring fell back from process workers to threads "
            f"({kind}: {detail}); expect GIL-bound throughput",
            RuntimeWarning,
            stacklevel=4,
        )

    @staticmethod
    def _validate(triples: list[Triple]) -> bool:
        return bool(np.isfinite([score for _, _, score in triples]).all())

    def _absorb_worker_payload(self, payload):
        """Unwrap a telemetry envelope; fold its delta, adopt its spans.

        Folding happens at result-unwrap time — before validation — so a
        chunk whose scores are rejected still has its (real) worker-side
        work credited to the fleet series.
        """
        if not (isinstance(payload, dict) and payload.get(TELEMETRY_KEY)):
            return payload
        delta = payload.get("delta")
        if delta:
            merge_into_registry(self._registry, delta, {"process": "worker"})
        trace = payload.get("trace")
        if trace:
            adopt_span(trace)
        return payload["triples"]

    def _run_pooled(
        self,
        backend: str,
        chunks: Sequence[Chunk],
        todo: Sequence[int],
        results: dict[int, list[Triple]],
        on_chunk_done,
    ) -> list[tuple[int, str, str]]:
        """One dispatch round on a pool; returns ``(chunk, kind, detail)`` failures."""
        health = self.health
        try:
            executor = make_executor(
                backend,
                max(1, min(self.n_jobs, len(todo))),
                self.measure,
                self.gallery,
                self.queries,
                arena_handle=self.arena_handle,
            )
        except Exception as exc:
            # No arena, or an un-picklable measure on the process rung.
            return [
                (k, "backend-unavailable", f"{type(exc).__name__}: {exc}")
                for k in todo
            ]
        if backend not in health.backends_used:
            health.backends_used.append(backend)

        failed: list[tuple[int, str, str]] = []
        pool_broke = False
        hung = False
        # On the process rung each result carries the worker's registry
        # delta and span subtree home; thread and serial rungs share the
        # parent registry/tracer, so wrapping there would double-count.
        task = _score_chunk_with_telemetry if backend == "process" else _score_chunk
        futures = {executor.submit(task, chunks[k]): k for k in todo}
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
                _kill_executor(executor, backend)
            else:
                executor.shutdown(wait=True, cancel_futures=True)
        if pool_broke:
            health.worker_crashes += 1
        health.errors += sum(1 for _, kind, _ in failed if kind == "error")
        return failed

    def _run_serial(
        self,
        chunks: Sequence[Chunk],
        todo: Sequence[int],
        results: dict[int, list[Triple]],
        on_chunk_done,
    ) -> None:
        """Last rung: score in the driver process, policy-gated."""
        health = self.health
        if "serial" not in health.backends_used:
            health.backends_used.append("serial")
        _init_worker(self.measure, self.gallery, self.queries)
        for pos, k in enumerate(todo):
            if self._deadline_expired():
                self._shed_remaining(chunks, todo[pos:], results)
                return
            attempt = self._attempts[k] + 1
            try:
                triples = _score_chunk(chunks[k])
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
        self, chunk: Chunk
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
