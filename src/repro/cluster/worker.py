"""Shard worker process: serve scoring requests over one shard replica.

Each worker hosts one *replica* of one *shard*: it attaches (read-only)
to the shard's :class:`~repro.parallel.shm.SharedTrajectoryArena`,
rebuilds zero-copy trajectory views, and answers scoring requests over a
duplex :func:`multiprocessing.Pipe`.  A request's columns are scored as
one ``1 × k`` block of the Eq. 10 block kernel
(:func:`~repro.similarity.base.similarity_block`), the same call the
single-process refine makes.  The packed arrays hold the exact float64
values of the parent's trajectories and a kernel entry depends only on
its pair, so every score is bitwise identical to the single-process
path — which is what lets the service treat replicas as interchangeable
and hedge requests freely.

Protocol (parent → worker / worker → parent), all tuples:

* ``("score", req_id, query, local_cols, deadline_wall[, trace_ctx])`` →
  ``("score", req_id, [scores], telemetry)`` — or ``("expired",
  req_id)`` when the wall-clock deadline passed before scoring started,
  or ``("error", req_id, message)`` when scoring raised.  ``trace_ctx``
  is the propagated ``(trace_id, parent_span_id)`` pair; ``telemetry``
  is ``{"pid", "delta", "trace"}`` — the worker's registry delta since
  its last flush plus its span subtree for this request, which the
  parent folds into the fleet-wide registry and stitches into the
  query's trace (see :mod:`repro.obs.aggregate`).  Delta-taking is
  throttled (``REPRO_OBS_DELTA_S``, default 0.25 s): replies inside the
  interval carry ``delta=None`` and the uncredited work rides the next
  flush.
* ``("ping", req_id)`` → ``("pong", req_id, pid, delta)`` — heartbeat,
  piggybacking any telemetry accumulated since the last flush; pings
  always flush, so a health-check drain leaves the parent's folded
  totals exact.
* ``("info", req_id)`` → ``("info", req_id, payload)`` — introspection
  for tests: the worker's resolved ``n_jobs``, how many child processes
  it has (must be zero: shard workers never fork), and ``metrics`` — the
  worker's *cumulative* registry snapshot, the ground truth fleet
  aggregation is verified against.
* ``("stop",)`` — clean shutdown (EOF on the pipe does the same).

The first thing a worker does is :func:`~repro.parallel.pool.
mark_cluster_worker`: any code inside the worker that sizes a pool
through :func:`~repro.parallel.pool.resolve_n_jobs` is clamped to
``n_jobs=1``.  Without the clamp, an N×R cluster whose workers each
open a per-CPU pool would fork N·R·cpus processes.
Workers are also spawned as daemons, so ``multiprocessing`` itself
refuses grandchildren as a second line of defense.

Worker output is structured: one JSON object per line (UTC timestamp,
pid, level, shard/replica ids — see :mod:`repro.obs.logs`), written to
stderr, never into the stdout that carries the parent's results, or,
when ``config["log_path"]`` is set (the ``REPRO_CLUSTER_LOG_DIR``
redirect), to the per-replica log file.
``repro obs logs <dir>`` merges and pretty-prints a directory of them.

Test hooks (the chaos harness's fault injection) ride in the ``config``
dict: ``delay_s`` sleeps before answering each score request (a slow
replica), ``crash_on_score`` SIGKILLs the worker upon *receiving* the
k-th score request — after the request is committed to the pipe but
before any reply, the hardest mid-query death.
"""

from __future__ import annotations

import os
import signal
import sys
import time
import traceback

__all__ = ["worker_main"]


def _child_process_count() -> int:
    """How many live child processes this worker has (Linux procfs)."""
    pid = os.getpid()
    path = f"/proc/{pid}/task/{pid}/children"
    try:
        with open(path) as handle:
            return len(handle.read().split())
    except OSError:
        return 0


def _redirect_output(log_path: str) -> None:
    """Point stdout/stderr at ``log_path`` (append, line-buffered)."""
    handle = open(log_path, "a", buffering=1)
    os.dup2(handle.fileno(), sys.stdout.fileno())
    os.dup2(handle.fileno(), sys.stderr.fileno())


def worker_main(
    conn,
    measure,
    arena_handle,
    fallback_gallery,
    shard: int,
    replica: int,
    config: dict | None = None,
) -> None:
    """Entry point of one shard-replica worker process.

    ``arena_handle`` names the shard's shared-memory arena; when it is
    ``None`` (arena packing failed in the parent) the worker scores the
    pickled/inherited ``fallback_gallery`` instead — slower to start,
    identical results.
    """
    config = config or {}
    if config.get("log_path"):
        _redirect_output(config["log_path"])

    from ..obs import DeltaSource, enabled as obs_enabled, get_registry, get_tracer
    from ..obs import JsonlLogger, merge_snapshots, span_payload
    from ..parallel.pool import mark_cluster_worker, resolve_n_jobs
    from ..similarity.base import similarity_block

    mark_cluster_worker()
    log = JsonlLogger(stream=sys.stderr, shard=shard, replica=replica)

    # Baselines primed at entry: a fork-started worker's registries are
    # fork copies that already carry the parent's pre-fork history, which
    # must never be re-credited as this worker's work.
    registries = [get_registry()]
    measure_registry = getattr(measure, "_registry", None)
    if measure_registry is not None and measure_registry is not registries[0]:
        registries.append(measure_registry)
    delta_sources = [DeltaSource(r, prime=True) for r in registries]

    # Computing a delta means snapshotting the whole registry, whose
    # cost grows with cache-collector count — too dear to pay on every
    # score reply.  Replies inside the interval piggyback None and the
    # uncredited work simply rides the next delta; heartbeat pongs
    # always flush, so a health-check drain still yields exact totals.
    delta_interval_s = float(os.environ.get("REPRO_OBS_DELTA_S", "0.25"))
    last_delta_at = 0.0

    def take_delta(flush: bool = False):
        nonlocal last_delta_at
        now = time.monotonic()
        if not flush and now - last_delta_at < delta_interval_s:
            return None
        last_delta_at = now
        deltas = [d for d in (s.delta() for s in delta_sources) if d]
        if not deltas:
            return None
        merged = deltas[0]
        for delta in deltas[1:]:
            merged = merge_snapshots(merged, delta)
        return merged

    def cumulative_snapshot():
        merged = {}
        for registry in registries:
            snap = registry.snapshot()
            merged = merge_snapshots(merged, snap) if merged else snap
        return merged

    view = None
    if arena_handle is not None:
        from ..parallel.shm import SharedTrajectoryArena

        view = SharedTrajectoryArena.attach(arena_handle)
        gallery = view.gallery
    else:
        gallery = list(fallback_gallery or [])

    def score(query, local_cols):
        """One ``1 × k`` kernel block: the query against its columns."""
        return similarity_block(measure, [query], [gallery[c] for c in local_cols])[0]

    log.info("ready", n=len(gallery), arena=view is not None)

    tracer = get_tracer()
    delay_s = float(config.get("delay_s", 0.0) or 0.0)
    crash_on_score = config.get("crash_on_score")
    scored = 0
    try:
        conn.send(("ready", os.getpid()))
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "stop":
                break
            if kind == "ping":
                conn.send(("pong", msg[1], os.getpid(), take_delta(flush=True)))
                continue
            if kind == "info":
                conn.send(
                    (
                        "info",
                        msg[1],
                        {
                            "pid": os.getpid(),
                            "shard": shard,
                            "replica": replica,
                            "resolved_n_jobs": resolve_n_jobs(-1),
                            "child_processes": _child_process_count(),
                            "gallery_size": len(gallery),
                            "scored": scored,
                            "metrics": cumulative_snapshot(),
                        },
                    )
                )
                continue
            if kind != "score":
                conn.send(("error", msg[1] if len(msg) > 1 else -1, f"unknown request {kind!r}"))
                continue
            req_id, query, local_cols, deadline_wall = msg[1:5]
            trace_ctx = msg[5] if len(msg) > 5 else None
            scored += 1
            if crash_on_score is not None and scored >= int(crash_on_score):
                log.warning("injected crash", score=scored)
                os.kill(os.getpid(), signal.SIGKILL)
            if delay_s > 0.0:
                time.sleep(delay_s)
            if deadline_wall is not None and time.time() > deadline_wall:
                conn.send(("expired", req_id))
                continue
            try:
                if obs_enabled():
                    with tracer.span(
                        "cluster.worker.score",
                        shard=shard,
                        replica=replica,
                        pairs=len(local_cols),
                    ) as span:
                        scores = score(query, local_cols)
                    telemetry = {
                        "pid": os.getpid(),
                        "delta": take_delta(),
                        "trace": span_payload(
                            span,
                            trace_id=trace_ctx[0] if trace_ctx else None,
                            parent_span_id=trace_ctx[1] if trace_ctx else None,
                        ),
                    }
                else:
                    scores = score(query, local_cols)
                    telemetry = None
                conn.send(("score", req_id, [float(s) for s in scores], telemetry))
            except Exception as exc:
                traceback.print_exc()
                log.error("score failed", error=f"{type(exc).__name__}: {exc}")
                conn.send(("error", req_id, f"{type(exc).__name__}: {exc}"))
    finally:
        if view is not None:
            view.close()
        try:
            conn.close()
        except OSError:
            pass
