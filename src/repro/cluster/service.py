"""Sharded, replicated gallery service with failover and hedged requests.

:class:`ClusterService` is the supervised process group behind the
cluster matcher: a deterministic :class:`~repro.cluster.plan.ShardPlan`
partitions the gallery into N shards, each shard is packed once into its
own :class:`~repro.parallel.shm.SharedTrajectoryArena`, and every shard
is hosted by R replica worker processes that attach to the arena and
answer scoring requests over duplex pipes.

One query is a **scatter-gather**: the surviving candidate indices are
grouped by owning shard, each shard gets a request against one replica
(primaries rotate round-robin for load spread) under a per-shard slice
of the caller's :class:`~repro.serving.Budget`, and the gather loop
multiplexes the replica pipes with :func:`multiprocessing.connection.
wait`.  The loop absorbs every failure mode the single-process path
cannot:

* **replica death** (pipe EOF / SIGKILL mid-query) — the request fails
  over to a sibling replica with capped backoff; the dead worker is
  restarted in the background (re-attaching to the *same* arena — the
  corpus is never repacked) up to ``max_restarts`` times per replica.
* **slow replicas** — after a hedge delay (p95 of recent shard
  latencies, capped at 3× the median so one chronically slow replica
  cannot inflate its own hedge trigger) the request is *hedged* to a
  sibling; the first answer wins, and the loser's late reply is
  discarded by request id — counted (``hedges wasted``), never
  double-scored.
* **whole-shard loss** — when no replica of a shard can answer (all
  dead, restart budget exhausted, breaker open, or the budget expired),
  the shard is **skipped**: the query still returns, with
  ``coverage < 1`` and the skipped shard named in the
  :class:`ClusterReport`.  Partial results are explicit, never silent.

Per-replica :class:`~repro.serving.CircuitBreaker`\\ s keep a flapping
replica from being retried on every query, and a
:data:`REQUEST_TIMEOUT_S` backstop converts a *hung* (not dead) shard
into a skip instead of a hang even on unbudgeted queries.

When every replica is healthy the gathered scores are bitwise identical
to the single-process path: workers score the exact float64 arrays the
parent packed, each request as one ``1 × k`` block of the Eq. 10 block
kernel, and a kernel entry depends only on its pair.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as conn_wait
from typing import Sequence

from ..obs import (
    Span,
    current_span,
    enabled as obs_enabled,
    get_registry,
    merge_into_registry,
    new_trace_id,
    span_from_payload,
    spans_to_chrome,
    trace_span,
)
from ..serving.breaker import CircuitBreaker
from ..serving.budget import Budget
from .plan import ShardPlan, gallery_keys

__all__ = ["ClusterReport", "ClusterService"]

#: Coverage histogram buckets: fraction of the gallery consulted.
_COVERAGE_BUCKETS = (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)

#: Wait before restarting a dead replica: ``RESTART_BACKOFF_BASE *
#: 2**restarts`` seconds, capped at :data:`RESTART_BACKOFF_MAX`.
RESTART_BACKOFF_BASE = 0.05
RESTART_BACKOFF_MAX = 1.0

#: Backstop per shard attempt: a replica that neither answers nor dies
#: within this many seconds is treated as failed (hung), so even an
#: unbudgeted query cannot hang on a wedged shard.
REQUEST_TIMEOUT_S = 30.0


@dataclass
class ClusterReport:
    """Structured account of one scatter-gathered cluster query.

    ``coverage`` is the fraction of the *gallery* whose shard actually
    answered — 1.0 means every shard was consulted; anything lower names
    the skipped shards (and why) in ``events``.  ``shards_degraded``
    lists shards that answered but only through a failover or a worker
    restart — correct results, degraded path.

    ``trace`` is the query's stitched Chrome ``trace_event`` list (when
    observability is on): the parent's scatter-gather spans with every
    replica's scoring subtree — hedge losers included — nested under
    its dispatch span, all on one epoch-anchored timeline.
    """

    gallery_size: int = 0
    covered_size: int = 0
    shards_total: int = 0
    shards_done: int = 0
    shards_skipped: tuple[int, ...] = ()
    shards_degraded: tuple[int, ...] = ()
    hedges_fired: int = 0
    hedges_won: int = 0
    hedges_wasted: int = 0
    failovers: int = 0
    restarts: int = 0
    stale_responses: int = 0
    elapsed_ms: float = 0.0
    events: list[str] = field(default_factory=list)
    trace: list | None = None

    @property
    def coverage(self) -> float:
        """Fraction of the gallery consulted (1.0 = every shard answered)."""
        if self.gallery_size == 0:
            return 1.0
        return self.covered_size / self.gallery_size

    @property
    def ok(self) -> bool:
        """True when no shard was skipped or served via failover/restart.

        Hedging alone does not clear ``ok`` false: a hedge is routine
        tail-tolerance (the sibling may simply be faster today), while a
        failover or restart means a replica actually failed.
        """
        return not self.shards_skipped and not self.shards_degraded

    def to_dict(self) -> dict:
        """JSON-able view of the report (events included)."""
        return {
            "gallery_size": self.gallery_size,
            "covered_size": self.covered_size,
            "coverage": self.coverage,
            "shards_total": self.shards_total,
            "shards_done": self.shards_done,
            "shards_skipped": list(self.shards_skipped),
            "shards_degraded": list(self.shards_degraded),
            "hedges_fired": self.hedges_fired,
            "hedges_won": self.hedges_won,
            "hedges_wasted": self.hedges_wasted,
            "failovers": self.failovers,
            "restarts": self.restarts,
            "stale_responses": self.stale_responses,
            "elapsed_ms": self.elapsed_ms,
            "events": list(self.events),
            "trace": self.trace,
        }

    def summary(self) -> str:
        """One-line human summary: healthy, or what degraded and by how much."""
        if self.ok:
            return (
                f"healthy: {self.shards_done}/{self.shards_total} shard(s), "
                f"coverage {self.coverage:.0%}"
            )
        return (
            f"degraded: coverage {self.coverage:.2%}, "
            f"skipped {list(self.shards_skipped)}, "
            f"degraded {list(self.shards_degraded)}, "
            f"hedges {self.hedges_fired} fired/{self.hedges_won} won/"
            f"{self.hedges_wasted} wasted, {self.failovers} failover(s), "
            f"{self.restarts} restart(s)"
        )


class _LatencyTracker:
    """Recent per-shard response latencies → the hedge trigger delay.

    The hedge delay is the p95 of the last ``maxlen`` *winning* response
    latencies, floored (hedging on microsecond noise is pure overhead)
    and capped at 3× the median: a chronically slow replica contributes
    samples too, and without the cap it would drag p95 up to its own
    latency — disabling exactly the hedges meant to route around it.
    """

    def __init__(self, initial_s: float = 0.05, floor_s: float = 0.001, maxlen: int = 128):
        self.initial_s = float(initial_s)
        self.floor_s = float(floor_s)
        self._samples: deque[float] = deque(maxlen=maxlen)

    def observe(self, seconds: float) -> None:
        self._samples.append(float(seconds))

    def hedge_delay_s(self) -> float:
        if len(self._samples) < 8:
            return self.initial_s
        ordered = sorted(self._samples)

        def pct(q: float) -> float:
            pos = q * (len(ordered) - 1)
            lo = int(pos)
            hi = min(lo + 1, len(ordered) - 1)
            return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])

        return max(self.floor_s, min(pct(0.95), 3.0 * pct(0.50)))


class _Replica:
    """Parent-side handle of one shard-replica worker."""

    def __init__(self, shard: int, replica: int):
        self.shard = shard
        self.replica = replica
        self.process = None
        self.conn = None
        self.restarts = 0
        self.log_path: str | None = None

    @property
    def key(self) -> tuple[int, int]:
        return (self.shard, self.replica)

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class _ShardCall:
    """Gather-loop state of one shard's portion of a query."""

    def __init__(self, shard: int, local_cols: list[int], global_cols: list[int]):
        self.shard = shard
        self.local_cols = local_cols
        self.global_cols = global_cols
        self.done = False
        self.skipped_reason: str | None = None
        self.tried: set[int] = set()  # replica indices dispatched to
        self.inflight: dict[int, tuple[int, float]] = {}  # req_id -> (replica, sent_at)
        self.hedge_fired = False
        self.hedge_replica: int | None = None
        self.first_sent_at: float | None = None
        self.degraded = False


class ClusterService:
    """Supervised N×R shard worker group bound to one gallery.

    Parameters
    ----------
    measure:
        The similarity measure; must pickle (workers are processes).
    gallery:
        The trajectory corpus to shard.  The service is *bound* to these
        objects: queries score against the packed copies, and
        :meth:`matches_gallery` lets callers verify identity.
    n_shards, n_replicas:
        Cluster topology (``plan`` overrides both).
    plan:
        An explicit :class:`~repro.cluster.plan.ShardPlan`.
    hedge:
        Enable hedged requests (on by default).
    hedge_initial_ms:
        Hedge delay used before enough latency samples accumulate.
    max_restarts:
        Restart budget *per replica*; 0 disables restarts.
    log_dir:
        Directory for per-worker log files (default: the
        ``REPRO_CLUSTER_LOG_DIR`` environment variable, if set).  The CI
        chaos job uploads these on failure.
    worker_faults:
        Test hook: ``{(shard, replica): config}`` dicts merged into the
        worker config — ``delay_s`` (slow replica) and
        ``crash_on_score`` (SIGKILL on the k-th request).  Faults apply
        to the *first* incarnation only; restarted workers are clean.
    """

    def __init__(
        self,
        measure,
        gallery: Sequence,
        n_shards: int = 2,
        n_replicas: int = 2,
        plan: ShardPlan | None = None,
        hedge: bool = True,
        hedge_initial_ms: float = 50.0,
        max_restarts: int = 2,
        registry=None,
        log_dir: str | None = None,
        worker_faults: dict | None = None,
    ):
        self.measure = measure
        self.plan = plan if plan is not None else ShardPlan(n_shards, n_replicas)
        self.hedge = bool(hedge)
        self.max_restarts = int(max_restarts)
        # One timeout trips a replica's breaker: a query fails over to a
        # sibling at once instead of waiting on the same replica again.
        self.breaker = CircuitBreaker(threshold=1, cooldown_base=0.25, cooldown_max=5.0)
        self._log_dir = log_dir or os.environ.get("REPRO_CLUSTER_LOG_DIR")
        self._worker_faults = dict(worker_faults or {})
        self._latency = _LatencyTracker(initial_s=hedge_initial_ms / 1000.0)
        self._req_ids = itertools.count(1)
        self._rr: dict[int, int] = {}
        self._closed = False
        # Per-query trace state: {"id": trace_id, "spans": {req_id: Span}}
        # while a query_scores call is live (queries are sequential).
        self._qtrace: dict | None = None
        # Dispatch spans whose worker subtree hadn't arrived when their
        # query ended (hedge losers still scoring): kept addressable so
        # a late reply stitches into the session forest, bounded below.
        self._trace_pending: dict[int, Span] = {}
        self._ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else None)

        reg = registry if registry is not None else (
            getattr(measure, "_registry", None) or get_registry()
        )
        self._registry = reg
        hedges = reg.counter(
            "repro_cluster_hedges_total", "Hedged shard requests by outcome"
        )
        self._m_hedge_fired = hedges.child(outcome="fired")
        self._m_hedge_won = hedges.child(outcome="won")
        self._m_hedge_wasted = hedges.child(outcome="wasted")
        self._m_restarts = reg.counter(
            "repro_cluster_shard_restarts_total",
            "Shard replica workers restarted after death",
        ).child()
        self._m_skipped = reg.counter(
            "repro_cluster_shard_skipped_total",
            "Shards skipped by a query (partial coverage)",
        ).child()
        self._m_failovers = reg.counter(
            "repro_cluster_failovers_total",
            "Shard requests re-dispatched to a sibling after replica failure",
        ).child()
        self._m_stale = reg.counter(
            "repro_cluster_stale_responses_total",
            "Late replies discarded by request id (hedge losers, dead requests)",
        ).child()
        self._h_coverage = reg.histogram(
            "repro_cluster_coverage",
            "Fraction of the gallery consulted per cluster query",
            buckets=_COVERAGE_BUCKETS,
        ).child()
        self._h_shard = reg.histogram(
            "repro_cluster_shard_seconds",
            "Per-shard response latency (winning replica)",
        ).child()

        # ---- shard the gallery and pack one arena per shard ----------
        self.gallery = list(gallery)
        self._keys = gallery_keys(self.gallery)
        self.fingerprint = self.plan.fingerprint(self._keys)
        self.shard_globals: list[list[int]] = self.plan.assign(self._keys)
        self._global_to_local: dict[int, tuple[int, int]] = {}
        for shard, members in enumerate(self.shard_globals):
            for local, global_idx in enumerate(members):
                self._global_to_local[global_idx] = (shard, local)
        self._arenas: list = [None] * self.plan.n_shards
        self._shard_galleries: list[list] = [
            [self.gallery[g] for g in members] for members in self.shard_globals
        ]
        from ..parallel.shm import SharedTrajectoryArena

        for shard, members in enumerate(self.shard_globals):
            if not members:
                continue
            try:
                self._arenas[shard] = SharedTrajectoryArena.pack(
                    self._shard_galleries[shard], registry=reg
                )
            except OSError:
                self._arenas[shard] = None  # no shared memory: ship the list itself

        # ---- spawn the worker group ----------------------------------
        self._replicas: dict[tuple[int, int], _Replica] = {}
        for shard in range(self.plan.n_shards):
            if not self.shard_globals[shard]:
                continue
            for r in range(self.plan.n_replicas):
                handle = _Replica(shard, r)
                self._replicas[(shard, r)] = handle
                self._spawn(handle, config=self._worker_faults.get((shard, r)))

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, handle: _Replica, config: dict | None = None) -> None:
        """Start (or restart) one worker, re-attaching the shard arena."""
        from .worker import worker_main

        config = dict(config or {})
        if self._log_dir:
            os.makedirs(self._log_dir, exist_ok=True)
            handle.log_path = os.path.join(
                self._log_dir, f"shard{handle.shard}-r{handle.replica}.log"
            )
            config.setdefault("log_path", handle.log_path)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        arena = self._arenas[handle.shard]
        process = self._ctx.Process(
            target=worker_main,
            args=(
                child_conn,
                self.measure,
                arena.handle if arena is not None else None,
                None if arena is not None else self._shard_galleries[handle.shard],
                handle.shard,
                handle.replica,
                config,
            ),
            daemon=True,
            name=f"repro-shard{handle.shard}-r{handle.replica}",
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        # Wait briefly for the ready handshake so a query issued right
        # after construction doesn't race worker startup; a worker that
        # dies before readiness is caught on first dispatch instead.
        if parent_conn.poll(5.0):
            try:
                parent_conn.recv()  # ("ready", pid)
            except (EOFError, OSError):
                pass

    def _mark_dead(self, handle: _Replica) -> None:
        """Reap a dead/broken replica and open its breaker."""
        if handle.process is not None:
            try:
                handle.process.join(timeout=0.1)
            except Exception:
                pass
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
        handle.process = None
        handle.conn = None
        self.breaker.record_timeout(handle.key)

    def _try_restart(self, handle: _Replica, report: ClusterReport) -> bool:
        """Restart a dead replica if its restart budget allows."""
        if handle.restarts >= self.max_restarts:
            return False
        time.sleep(min(RESTART_BACKOFF_MAX, RESTART_BACKOFF_BASE * (2 ** handle.restarts)))
        handle.restarts += 1
        # Restarted incarnations never re-apply the injected fault: the
        # chaos harness kills a worker once, and the replacement is clean.
        self._spawn(handle, config=None)
        self.breaker.record_success(handle.key)
        self._m_restarts.inc()
        report.restarts += 1
        report.events.append(
            f"restarted shard {handle.shard} replica {handle.replica} "
            f"(restart {handle.restarts}/{self.max_restarts})"
        )
        return True

    # ------------------------------------------------------------------
    # Dispatch helpers
    # ------------------------------------------------------------------
    def _pick_replica(self, sc: _ShardCall, report: ClusterReport) -> _Replica | None:
        """The next viable replica for this shard call, restarting if needed.

        Preference order: untried live replicas whose breaker admits an
        attempt (starting from the shard's round-robin primary), then
        untried live replicas with an open breaker (when a shard would
        otherwise be skipped, a breaker is a hint, not a veto), then a
        restarted dead replica.  ``None`` means the shard is lost.
        """
        n = self.plan.n_replicas
        start = self._rr.get(sc.shard, 0)
        candidates = [
            self._replicas[(sc.shard, (start + k) % n)]
            for k in range(n)
            if (start + k) % n not in sc.tried
        ]
        for handle in candidates:
            if handle.alive() and self.breaker.allow(handle.key):
                return handle
        for handle in candidates:
            if handle.alive():
                return handle
        for handle in candidates:
            if not handle.alive() and self._try_restart(handle, report):
                return handle
        return None

    def _dispatch(
        self,
        sc: _ShardCall,
        handle: _Replica,
        query,
        deadline_wall: float | None,
        inflight: dict,
        is_hedge: bool,
    ) -> bool:
        """Send one score request; False when the replica is already dead."""
        req_id = next(self._req_ids)
        span = None
        if self._qtrace is not None:
            # Manually-managed span: concurrent in-flight dispatches
            # cannot share the tracer's thread-local stack.  It nests
            # under the open cluster.query span and is finished when the
            # reply (or the query) ends; the worker's scoring subtree is
            # stitched under it on arrival.
            span = Span(
                "cluster.dispatch",
                {
                    "shard": sc.shard,
                    "replica": handle.replica,
                    "hedge": is_hedge,
                    "pairs": len(sc.local_cols),
                },
                time.perf_counter(),
                threading.get_ident(),
            )
            parent = current_span()
            if parent is not None:
                parent.children.append(span)
        request = ("score", req_id, query, sc.local_cols, deadline_wall)
        if span is not None:
            request += ((self._qtrace["id"], span.span_id),)
        try:
            handle.conn.send(request)
        except (BrokenPipeError, OSError):
            if span is not None:
                span.attrs["failed"] = True
                span.finish()
            self._mark_dead(handle)
            return False
        if span is not None:
            self._qtrace["spans"][req_id] = span
        now = time.monotonic()
        if sc.first_sent_at is None:
            sc.first_sent_at = now
        sc.tried.add(handle.replica)
        sc.inflight[req_id] = (handle.replica, now)
        inflight[req_id] = sc
        if is_hedge:
            sc.hedge_fired = True
            sc.hedge_replica = handle.replica
        return True

    # ------------------------------------------------------------------
    # The scatter-gather query
    # ------------------------------------------------------------------
    def query_scores(
        self,
        query,
        cols: Sequence[int] | None = None,
        budget: Budget | None = None,
    ) -> tuple[dict[int, float], ClusterReport]:
        """Scores of ``query`` against gallery indices ``cols``, clustered.

        Returns ``(scores, report)``: ``scores`` maps each *covered*
        global gallery index to its similarity (bitwise identical to the
        single-process score), and ``report`` accounts for coverage,
        failover, hedging and skipped shards.  Indices owned by skipped
        shards are absent from ``scores`` — partial results are explicit.

        When observability is on the whole scatter-gather runs under a
        ``cluster.query`` span; each dispatch gets a child span, every
        replica's scoring subtree is stitched under its dispatch on
        reply, and the stitched Chrome trace lands in ``report.trace``.
        """
        if self._closed:
            raise RuntimeError("ClusterService is closed")
        trace_id = new_trace_id() if obs_enabled() else None
        # trace_span (not get_tracer().span) so a disabled run — or a
        # service constructed dark — skips the root span entirely.
        with trace_span("cluster.query", gallery=len(self.gallery)) as root:
            self._qtrace = {"id": trace_id, "spans": {}} if trace_id else None
            try:
                scores, report = self._query_scores_inner(query, cols, budget)
            finally:
                if self._qtrace is not None:
                    # Dispatches that never got a reply stay open until
                    # the query itself ends; they remain addressable so
                    # a late worker subtree still finds its parent.
                    for req_id, span in self._qtrace["spans"].items():
                        span.finish()
                        self._trace_pending[req_id] = span
                    while len(self._trace_pending) > 256:
                        self._trace_pending.pop(next(iter(self._trace_pending)))
                    self._qtrace = None
        if isinstance(root, Span):
            root.attrs["shards"] = report.shards_total
            root.attrs["coverage"] = round(report.coverage, 4)
            report.trace = spans_to_chrome([root], trace_id=trace_id)
        return scores, report

    def _query_scores_inner(
        self,
        query,
        cols: Sequence[int] | None,
        budget: Budget | None,
    ) -> tuple[dict[int, float], ClusterReport]:
        cols = list(range(len(self.gallery))) if cols is None else [int(c) for c in cols]
        report = ClusterReport(
            gallery_size=len(self.gallery), shards_total=0
        )
        t0 = time.monotonic()

        # Group requested columns by owning shard.
        per_shard: dict[int, _ShardCall] = {}
        for c in cols:
            shard, local = self._global_to_local[c]
            sc = per_shard.get(shard)
            if sc is None:
                sc = per_shard[shard] = _ShardCall(shard, [], [])
            sc.local_cols.append(local)
            sc.global_cols.append(c)
        # Shards with no requested columns still count as covered: their
        # members were consulted (filtered out upstream), not skipped.
        consulted = set(per_shard)
        report.shards_total = len(per_shard)
        report.covered_size = sum(
            len(members)
            for shard, members in enumerate(self.shard_globals)
            if members and shard not in consulted
        )

        self._drain_stale(report)
        scores: dict[int, float] = {}
        if per_shard:
            self._gather(query, per_shard, budget, scores, report)
        for shard, sc in per_shard.items():
            self._rr[shard] = (self._rr.get(shard, 0) + 1) % max(1, self.plan.n_replicas)
            if sc.done:
                report.shards_done += 1
                report.covered_size += len(self.shard_globals[shard])
                if sc.degraded:
                    report.shards_degraded += (shard,)
            else:
                report.shards_skipped += (shard,)
                self._m_skipped.inc()
                report.events.append(
                    f"skipped shard {shard}: {sc.skipped_reason or 'unavailable'}"
                )
        report.shards_skipped = tuple(sorted(report.shards_skipped))
        report.shards_degraded = tuple(sorted(report.shards_degraded))
        report.elapsed_ms = (time.monotonic() - t0) * 1000.0
        self._h_coverage.observe(report.coverage)
        return scores, report

    def _gather(
        self,
        query,
        per_shard: dict[int, _ShardCall],
        budget: Budget | None,
        scores: dict[int, float],
        report: ClusterReport,
    ) -> None:
        bounded = budget is not None and budget.bounded
        if bounded:
            budget.start()
        inflight: dict[int, _ShardCall] = {}

        def deadline_wall() -> float | None:
            if not bounded:
                return None
            remaining = budget.remaining_ms()
            if remaining == float("inf"):
                return None
            return time.time() + remaining / 1000.0

        # Initial scatter: one request per shard, under a per-shard slice
        # of the remaining budget (the slices run concurrently, so each
        # shard may use the full remaining window).
        for sc in per_shard.values():
            self._scatter_one(sc, query, deadline_wall(), inflight, report)

        hedge_delay = self._latency.hedge_delay_s()
        while any(not sc.done and sc.skipped_reason is None for sc in per_shard.values()):
            pending = [
                sc for sc in per_shard.values()
                if not sc.done and sc.skipped_reason is None
            ]
            if bounded and budget.expired():
                for sc in pending:
                    sc.skipped_reason = "budget expired"
                break
            now = time.monotonic()
            # Pending shards with nothing in flight lost their replica —
            # fail over to the next one (or give up on the shard).
            for sc in pending:
                if not sc.inflight:
                    self._failover(sc, query, deadline_wall(), inflight, report)
            pending = [
                sc for sc in per_shard.values()
                if not sc.done and sc.skipped_reason is None
            ]
            if not pending:
                break

            timeout = 0.05
            if bounded:
                timeout = min(timeout, max(1e-3, budget.remaining_ms() / 1000.0))
            for sc in pending:
                if self.hedge and not sc.hedge_fired and sc.first_sent_at is not None:
                    timeout = min(
                        timeout,
                        max(1e-3, sc.first_sent_at + hedge_delay - now),
                    )
            conns = {
                h.conn: h for h in self._replicas.values() if h.alive() and h.conn
            }
            ready = conn_wait(list(conns), timeout=timeout) if conns else []
            for conn in ready:
                self._pump(conns[conn], inflight, scores, report)

            now = time.monotonic()
            for sc in pending:
                if sc.done or sc.skipped_reason is not None:
                    continue
                # Hung-request backstop: no reply and no death for the
                # whole window — treat the replica as failed.
                timed_out = [
                    req_id
                    for req_id, (_r, sent_at) in sc.inflight.items()
                    if now - sent_at > REQUEST_TIMEOUT_S
                ]
                for req_id in timed_out:
                    replica, _ = sc.inflight.pop(req_id)
                    inflight.pop(req_id, None)
                    self.breaker.record_timeout((sc.shard, replica))
                    report.events.append(
                        f"shard {sc.shard} replica {replica} timed out "
                        f"after {REQUEST_TIMEOUT_S}s"
                    )
                if timed_out and not sc.inflight:
                    self._failover(sc, query, deadline_wall(), inflight, report)
                    continue
                # Hedge: primary outstanding past the hedge delay.
                if (
                    self.hedge
                    and not sc.hedge_fired
                    and sc.inflight
                    and sc.first_sent_at is not None
                    and now - sc.first_sent_at >= hedge_delay
                ):
                    handle = self._pick_replica(sc, report)
                    if handle is not None and self._dispatch(
                        sc, handle, query, deadline_wall(), inflight, True
                    ):
                        report.hedges_fired += 1
                        self._m_hedge_fired.inc()
                        report.events.append(
                            f"hedged shard {sc.shard} to replica {handle.replica} "
                            f"after {hedge_delay * 1000.0:.1f} ms"
                        )

    def _scatter_one(self, sc, query, deadline_wall, inflight, report) -> None:
        """Dispatch a shard call to its first viable replica (or skip)."""
        while sc.skipped_reason is None and not sc.inflight:
            handle = self._pick_replica(sc, report)
            if handle is None:
                sc.skipped_reason = "no live replica (restart budget exhausted)"
                return
            if self._dispatch(sc, handle, query, deadline_wall, inflight, False):
                return

    def _failover(self, sc, query, deadline_wall, inflight, report) -> None:
        """Re-dispatch a shard call after its in-flight replica failed."""
        had = bool(sc.tried)
        self._scatter_one(sc, query, deadline_wall, inflight, report)
        if sc.inflight and had:
            report.failovers += 1
            self._m_failovers.inc()
            sc.degraded = True

    def _fold_replica_delta(self, handle: _Replica, delta) -> None:
        """Fold one replica's metric delta into the parent registry.

        Every reply's telemetry is folded — including hedge losers and
        stale replies — because the worker did that work regardless of
        whether its answer was used; a delta, once received, would
        otherwise be lost (the worker has already moved its baseline).
        """
        if delta:
            merge_into_registry(
                self._registry,
                delta,
                {
                    "process": "worker",
                    "shard": str(handle.shard),
                    "replica": str(handle.replica),
                },
            )

    def _absorb_reply_telemetry(self, handle: _Replica, msg) -> None:
        """Fold metrics and stitch the trace riding on one reply tuple."""
        if len(msg) < 2 or msg[0] not in ("score", "expired", "error", "pong"):
            return  # e.g. a late "ready" handshake drained as stale
        kind, req_id = msg[0], msg[1]
        trace_payload = None
        if kind == "score" and len(msg) > 3 and isinstance(msg[3], dict):
            self._fold_replica_delta(handle, msg[3].get("delta"))
            trace_payload = msg[3].get("trace")
        elif kind == "pong" and len(msg) > 3:
            self._fold_replica_delta(handle, msg[3])
        span = None
        if self._qtrace is not None:
            span = self._qtrace["spans"].pop(req_id, None)
            if span is not None:
                span.finish()
        if span is None:
            # The dispatch's query already ended (a hedge loser finishing
            # late): its span is closed but still stitches the subtree
            # into the session forest — the work was real.
            span = self._trace_pending.pop(req_id, None)
        if span is None:
            return
        if trace_payload:
            child = span_from_payload(trace_payload)
            if child is not None:
                span.children.append(child)

    def _pump(self, handle: _Replica, inflight, scores, report) -> None:
        """Drain every message currently readable on one replica pipe."""
        while True:
            try:
                if not handle.conn.poll(0):
                    return
                msg = handle.conn.recv()
            except (EOFError, OSError):
                # Replica died: fail over every request in flight on it.
                self._mark_dead(handle)
                for req_id, sc in list(inflight.items()):
                    entry = sc.inflight.get(req_id)
                    if entry is None or entry[0] != handle.replica or sc.shard != handle.shard:
                        continue
                    sc.inflight.pop(req_id, None)
                    inflight.pop(req_id, None)
                    report.events.append(
                        f"shard {sc.shard} replica {handle.replica} died mid-query"
                    )
                return
            kind, req_id = msg[0], msg[1]
            # Telemetry is absorbed before the staleness check: a hedge
            # loser's scoring work is real even when its answer is not.
            self._absorb_reply_telemetry(handle, msg)
            sc = inflight.pop(req_id, None)
            if sc is None or sc.done:
                report.stale_responses += 1
                self._m_stale.inc()
                continue
            replica, sent_at = sc.inflight.pop(req_id, (None, None))
            if kind == "score":
                sc.done = True
                if sent_at is not None:
                    elapsed = time.monotonic() - sent_at
                    self._latency.observe(elapsed)
                    self._h_shard.observe(elapsed)
                if replica is not None:
                    self.breaker.record_success((sc.shard, replica))
                for global_idx, value in zip(sc.global_cols, msg[2]):
                    scores[global_idx] = float(value)
                # Hedging is routine tail-tolerance, not degradation —
                # it adjusts hedges accounting but never marks the shard.
                if sc.hedge_fired:
                    if replica == sc.hedge_replica:
                        report.hedges_won += 1
                        self._m_hedge_won.inc()
                    else:
                        report.hedges_wasted += 1
                        self._m_hedge_wasted.inc()
                # Anything still in flight for this shard is now stale.
                for other in list(sc.inflight):
                    inflight.pop(other, None)
                sc.inflight.clear()
            elif kind == "expired":
                sc.skipped_reason = "per-shard budget expired in worker"
            else:  # "error"
                detail = msg[2] if len(msg) > 2 else ""
                if replica is not None:
                    self.breaker.record_timeout((sc.shard, replica))
                report.events.append(
                    f"shard {sc.shard} replica {replica} errored: {detail}"
                )

    def _drain_stale(self, report: ClusterReport) -> None:
        """Discard replies left over from previous queries (hedge losers)."""
        for handle in self._replicas.values():
            if not handle.alive() or handle.conn is None:
                continue
            try:
                while handle.conn.poll(0):
                    msg = handle.conn.recv()
                    if msg:
                        self._absorb_reply_telemetry(handle, msg)
                    report.stale_responses += 1
                    self._m_stale.inc()
            except (EOFError, OSError):
                self._mark_dead(handle)

    # ------------------------------------------------------------------
    # Introspection / health
    # ------------------------------------------------------------------
    def matches_gallery(self, gallery: Sequence) -> bool:
        """Whether this service was built from exactly these objects."""
        return len(gallery) == len(self.gallery) and all(
            a is b for a, b in zip(gallery, self.gallery)
        )

    def health_check(self, timeout_s: float = 2.0) -> dict:
        """Ping every replica; returns per-replica liveness."""
        out: dict = {}
        for key, handle in self._replicas.items():
            label = f"shard{key[0]}-r{key[1]}"
            if not handle.alive():
                out[label] = "dead"
                continue
            req_id = next(self._req_ids)
            try:
                handle.conn.send(("ping", req_id))
                deadline = time.monotonic() + timeout_s
                status = "unresponsive"
                while time.monotonic() < deadline:
                    if not handle.conn.poll(max(0.0, deadline - time.monotonic())):
                        break
                    msg = handle.conn.recv()
                    self._absorb_reply_telemetry(handle, msg)
                    if msg[0] == "pong" and msg[1] == req_id:
                        status = "alive"
                        break
                out[label] = status
            except (BrokenPipeError, EOFError, OSError):
                self._mark_dead(handle)
                out[label] = "dead"
        return out

    def worker_info(self, timeout_s: float = 5.0) -> dict:
        """Introspection payloads from every live replica (for tests)."""
        out: dict = {}
        for key, handle in self._replicas.items():
            label = f"shard{key[0]}-r{key[1]}"
            if not handle.alive():
                continue
            req_id = next(self._req_ids)
            try:
                handle.conn.send(("info", req_id))
                deadline = time.monotonic() + timeout_s
                while time.monotonic() < deadline:
                    if not handle.conn.poll(max(0.0, deadline - time.monotonic())):
                        break
                    msg = handle.conn.recv()
                    self._absorb_reply_telemetry(handle, msg)
                    if msg[0] == "info" and msg[1] == req_id:
                        out[label] = msg[2]
                        break
            except (BrokenPipeError, EOFError, OSError):
                self._mark_dead(handle)
        return out

    def replica_pids(self) -> dict[tuple[int, int], int | None]:
        """Worker pids by (shard, replica) — the chaos harness's kill list."""
        return {
            key: (h.process.pid if h.alive() else None)
            for key, h in self._replicas.items()
        }

    def kill_replica(self, shard: int, replica: int) -> bool:
        """SIGKILL one replica (fault injection; returns False if not alive)."""
        handle = self._replicas.get((shard, replica))
        if handle is None or not handle.alive():
            return False
        handle.process.kill()
        handle.process.join(timeout=5.0)
        return True

    # ------------------------------------------------------------------
    def pairwise(self, queries: Sequence, budget: Budget | None = None):
        """Score matrix ``S[i, j] = measure(queries[i], gallery[j])``.

        The cluster route behind ``STS.pairwise(cluster=...)``: each row
        is one scatter-gathered query.  Entries owned by a skipped shard
        come back NaN (the same partial-result convention as
        deadline-shed chunks in :mod:`repro.parallel`), and the per-row
        :class:`ClusterReport`\\ s are returned alongside the matrix.
        """
        import numpy as np

        out = np.full((len(queries), len(self.gallery)), np.nan)
        reports = []
        for i, row in enumerate(queries):
            scores, report = self.query_scores(row, budget=budget)
            for j, value in scores.items():
                out[i, j] = value
            reports.append(report)
        return out, reports

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker and unlink the shard arenas (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for handle in self._replicas.values():
            if handle.conn is not None:
                try:
                    handle.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for handle in self._replicas.values():
            if handle.process is not None:
                handle.process.join(timeout=2.0)
                if handle.process.is_alive():
                    handle.process.kill()
                    handle.process.join(timeout=2.0)
            if handle.conn is not None:
                try:
                    handle.conn.close()
                except OSError:
                    pass
            handle.process = None
            handle.conn = None
        for arena in self._arenas:
            if arena is not None:
                arena.close()
        self._arenas = [None] * self.plan.n_shards

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{len(self._replicas)} worker(s)"
        return (
            f"<ClusterService {self.plan} gallery={len(self.gallery)} "
            f"{state} fingerprint={self.fingerprint[:8]}>"
        )
