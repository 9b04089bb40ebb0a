"""Online co-location detection over a stream of location events.

The batch pipeline (trajectories in, STS out) assumes data at rest.  Live
deployments — group monitoring, real-time contact tracing ([6], [7] in the
paper) — instead see an unordered stream of ``(object, x, y, t)`` sighting
events.  :class:`StreamingColocationDetector` maintains a sliding window
of recent observations per object and, on demand, evaluates the STS
machinery over the windows of every concurrently-active pair.

The detector is deliberately windowed: the personalized speed model
(Eq. 6) is re-estimated from each window, so an object whose behaviour
changes (walk → drive) is re-personalized as old samples age out.

Serving hardening (admission control and graceful degradation):

* **Sanitized ingest** — events with non-finite coordinates or
  timestamps are rejected *before* they can touch stream time or a
  window (``on_error="raise"`` raises :class:`MalformedRecordError`,
  ``"skip"``/``"repair"`` drop and count them).
* **Bounded ingest queue** — :meth:`offer` enqueues into a bounded
  buffer instead of applying events inline; when the buffer is full the
  stalest sighting is shed and counted, so a producer outrunning the
  consumer degrades the data, never the memory.
* **Deadline-aware evaluation** — :meth:`evaluate` takes a ``deadline``
  (seconds) or a full :class:`~repro.serving.Budget` and scores pairs
  freshest-first through the :class:`~repro.serving.DeadlineScorer`
  degradation ladder; pairs that miss the cut are shed, and everything
  that happened lands in the :class:`~repro.serving.ServiceHealth`
  exposed as :attr:`last_health`.
* **Per-pair circuit breaker** — a pair that repeatedly fails to finish
  within its slice trips open and is skipped (with capped-backoff
  cooldown) instead of starving every other pair each tick.

Durability (crash-safe streaming):

* **Write-ahead journaling** — attach a
  :class:`~repro.streaming_wal.StreamingWAL` and every mutating command
  (:meth:`offer`, :meth:`ingest`, :meth:`drain`) is journaled *before*
  it touches detector state; shed/malformed/duplicate decisions are
  reproduced deterministically from the command stream on replay.
* **Snapshots** — detector state (windows, pending queue, stream
  clock, admission counters, breaker states, last pair scores) is
  snapshotted every ``snapshot_every`` journaled commands with the
  atomic write-rename idiom, bounding replay length.
* **Recovery** — :meth:`StreamingColocationDetector.recover` rebuilds a
  detector from a WAL directory: newest valid snapshot + deterministic
  replay of the journal tail.  The recovered detector's windows, queue
  and counters are bitwise-identical to an uncrashed run, and so are
  the :class:`PairScore` values it produces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import isfinite
from typing import TYPE_CHECKING, Callable

from time import perf_counter

from .core.grid import Grid
from .core.noise import GaussianNoiseModel, NoiseModel
from .core.sts import STS
from .core.trajectory import Trajectory, TrajectoryPoint
from .errors import MalformedRecordError, ReproError, WALError, validate_policy
from .obs import MetricsRegistry, get_registry, merge_into_registry, trace_span
from .serving.breaker import CircuitBreaker
from .serving.budget import Budget
from .serving.health import ServiceEvent, ServiceHealth
from .serving.ladder import DeadlineScorer

if TYPE_CHECKING:  # pragma: no cover
    from .streaming_wal import RecoveryReport, StreamingWAL

__all__ = ["SightingEvent", "PairScore", "StreamingColocationDetector"]


@dataclass(frozen=True)
class SightingEvent:
    """One stream record: an object seen at a location at a time."""

    object_id: str
    x: float
    y: float
    t: float


@dataclass(frozen=True)
class PairScore:
    """STS of two objects' current windows at evaluation time.

    ``similarity`` is exact when ``completed`` is true; otherwise it is
    the midpoint of the rigorous ``[lower, upper]`` interval produced by
    whichever degradation ``rung`` answered before the deadline.
    """

    object_a: str
    object_b: str
    similarity: float
    lower: float | None = None
    upper: float | None = None
    rung: str = "full"
    completed: bool = True

    def __str__(self) -> str:
        base = f"{self.object_a} ~ {self.object_b}: {self.similarity:.4f}"
        if not self.completed and self.lower is not None:
            base += f" ∈ [{self.lower:.4f}, {self.upper:.4f}] ({self.rung})"
        return base


class StreamingColocationDetector:
    """Sliding-window co-location detection.

    Parameters
    ----------
    grid:
        Spatial partition of the monitored area.
    window:
        Sliding-window length in seconds; observations older than
        ``now - window`` are evicted.
    noise_model:
        Sensing noise; defaults to a Gaussian at the grid cell size.
    min_points:
        Minimum observations a window needs before the object is scored
        (below this the speed model is too degenerate to be meaningful).
    on_error:
        What to do with a malformed sighting (non-finite coordinate or
        timestamp): ``"raise"`` (default) raises
        :class:`MalformedRecordError`; ``"skip"``/``"repair"`` drop it
        and count it in :attr:`malformed_dropped`.
    max_pending:
        Capacity of the :meth:`offer` admission queue (``None`` =
        unbounded).  When full, the stalest sighting is shed and counted
        in :attr:`shed_events`.
    breaker:
        Per-pair :class:`~repro.serving.CircuitBreaker` for deadline
        evaluation; defaults to a fresh one (3 consecutive misses trip,
        capped exponential cooldown).
    measure_factory:
        Zero-argument callable building the per-evaluation measure;
        defaults to ``STS(grid, noise_model=noise_model)``.  An
        injection point for tests and for custom STS configurations.
    wal:
        Optional :class:`~repro.streaming_wal.StreamingWAL` for durable
        ingest (equivalent to calling :meth:`attach_wal` right after
        construction).

    Events may arrive slightly out of order; each object's window is kept
    time-sorted.  Eviction happens on ingest and on evaluation, driven by
    the newest timestamp seen so far ("stream time").

    Out-of-order and duplicate timestamps (pinned policy):

    * an event *older than the window horizon* is dropped outright
      (counted as ``late``), under every ``on_error`` policy;
    * an in-window, out-of-order event is accepted and the window
      re-sorted;
    * an event whose timestamp *exactly equals* an in-window observation
      of the same object is a **duplicate**: ``on_error="raise"``
      rejects it with :class:`MalformedRecordError` (after stream time
      advanced — the timestamp itself is valid), ``"skip"`` drops it
      (:attr:`duplicate_dropped`), ``"repair"`` keeps the *newer*
      sighting, overwriting the stored coordinates
      (:attr:`duplicate_repaired`, last-write-wins).  The decision is a
      pure function of prior state, so it replays identically across a
      crash-recovery boundary.
    """

    def __init__(
        self,
        grid: Grid,
        window: float = 600.0,
        noise_model: NoiseModel | None = None,
        min_points: int = 3,
        on_error: str = "raise",
        max_pending: int | None = None,
        breaker: CircuitBreaker | None = None,
        measure_factory: Callable[[], STS] | None = None,
        registry=None,
        wal: "StreamingWAL | None" = None,
    ):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if min_points < 1:
            raise ValueError(f"min_points must be >= 1, got {min_points}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.grid = grid
        self.window = float(window)
        self.noise_model = noise_model if noise_model is not None else GaussianNoiseModel(grid.cell_size)
        self.min_points = int(min_points)
        self.on_error = validate_policy(on_error)
        self.max_pending = max_pending
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._measure_factory = measure_factory
        self._windows: dict[str, deque[TrajectoryPoint]] = {}
        self._pending: deque[SightingEvent] = deque()
        self._now = float("-inf")
        #: Malformed sightings dropped at ingest (``on_error != "raise"``).
        self.malformed_dropped = 0
        #: Sightings shed by the bounded admission queue.
        self.shed_events = 0
        #: Duplicate-timestamp sightings dropped (``on_error="skip"``).
        self.duplicate_dropped = 0
        #: Duplicate-timestamp sightings that overwrote the stored
        #: observation (``on_error="repair"``, last-write-wins).
        self.duplicate_repaired = 0
        #: :class:`~repro.serving.ServiceHealth` of the last evaluation.
        self.last_health: ServiceHealth | None = None
        #: Scores returned by the last :meth:`evaluate` call (snapshotted
        #: into the WAL, restored by :meth:`recover`).
        self.last_scores: list[PairScore] = []
        #: :class:`~repro.streaming_wal.RecoveryReport` when this
        #: detector was built by :meth:`recover`.
        self.last_recovery: "RecoveryReport | None" = None
        self._wal: "StreamingWAL | None" = None
        self._wal_suspended = 0
        self._init_obs(registry if registry is not None else get_registry())
        if wal is not None:
            self.attach_wal(wal)

    def _init_obs(self, reg) -> None:
        """(Re)bind this detector's instruments to ``reg``.

        Called at construction, and again by :meth:`recover` to swap the
        replay onto a scratch registry and back: replayed commands are
        *recovery* work, not live ingest, so their increments must not
        inflate the live series (they are folded back under
        ``process="recovery"`` instead).
        """
        self._registry = reg
        events_counter = reg.counter(
            "repro_stream_events_total", "Sighting events by ingest outcome"
        )
        self._m_ingested = events_counter.child(outcome="ingested")
        self._m_malformed = events_counter.child(outcome="malformed")
        self._m_evt_shed = events_counter.child(outcome="shed")
        self._m_late = events_counter.child(outcome="late")
        self._m_duplicate = events_counter.child(outcome="duplicate")
        self._h_evaluate = reg.histogram(
            "repro_stream_evaluate_seconds", "Wall seconds per evaluate() call"
        ).child()
        reg.register_collector(self._collect_gauge_samples)

    def _collect_gauge_samples(self):
        """Snapshot-time queue-depth / active-window gauges."""
        active = sum(1 for win in self._windows.values() if win)
        return [
            ("gauge", "repro_stream_queue_depth", {}, len(self._pending)),
            ("gauge", "repro_stream_active_windows", {}, active),
        ]

    # ------------------------------------------------------------------
    # Durability (write-ahead log)
    # ------------------------------------------------------------------
    def attach_wal(self, wal: "StreamingWAL") -> "StreamingColocationDetector":
        """Journal every mutating command to ``wal`` from now on.

        Binds the WAL directory to this detector's configuration
        fingerprint (:class:`~repro.errors.WALError` on mismatch, or if
        the directory already holds history that only :meth:`recover`
        may consume).  Returns ``self`` for chaining.
        """
        if self._wal is not None:
            raise WALError("a WAL is already attached to this detector")
        wal.bind(self._durable_config())
        self._wal = wal
        return self

    @property
    def wal(self) -> "StreamingWAL | None":
        """The attached write-ahead log, if any."""
        return self._wal

    def close(self) -> None:
        """Flush and release the attached WAL (no-op without one)."""
        if self._wal is not None:
            self._wal.close()

    def __enter__(self) -> "StreamingColocationDetector":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _durable_config(self) -> dict:
        """JSON-serializable, RNG-free identity of this configuration.

        Fingerprinted into the WAL directory so recovery refuses to
        splice a journal into a detector with different semantics.
        """
        noise = self.noise_model
        if isinstance(noise, GaussianNoiseModel):
            noise_cfg = {
                "kind": "GaussianNoiseModel",
                "sigma": noise.sigma,
                "truncate": noise.truncate,
                "squared": noise.squared,
            }
        else:
            noise_cfg = {
                "kind": type(noise).__name__,
                "params": {
                    k: v
                    for k, v in sorted(vars(noise).items())
                    if isinstance(v, (int, float, str, bool))
                },
            }
        return {
            "grid": [
                self.grid.min_x,
                self.grid.min_y,
                self.grid.max_x,
                self.grid.max_y,
                self.grid.cell_size,
            ],
            "window": self.window,
            "min_points": self.min_points,
            "on_error": self.on_error,
            "max_pending": self.max_pending,
            "noise": noise_cfg,
            "custom_measure": self._measure_factory is not None,
        }

    def _journal(self, op: tuple) -> None:
        """Append one command to the WAL *before* applying it.

        Raises :class:`~repro.errors.WALWriteError` (and the caller must
        not mutate state) when the journal cannot accept the record.
        Suspended during :meth:`drain`'s internal ingests and during
        replay — those commands are consequences of already-journaled
        ones.
        """
        if self._wal is not None and not self._wal_suspended:
            self._wal.append(op)

    def _maybe_snapshot(self) -> None:
        if (
            self._wal is not None
            and not self._wal_suspended
            and self._wal.should_snapshot()
        ):
            self.snapshot()

    def snapshot(self):
        """Force a durable snapshot of detector state into the WAL."""
        if self._wal is None:
            raise WALError("no WAL attached; nothing to snapshot into")
        return self._wal.write_snapshot(self._state_dict())

    def _state_dict(self) -> dict:
        """Full mutable state, JSON-serializable, bitwise round-trippable.

        Floats survive exactly (JSON emits ``repr``, lossless for IEEE
        754 doubles; non-finite values use Python's ``Infinity``/``NaN``
        extension), so a restored detector is indistinguishable from the
        one that snapshotted.  Windows are stored raw — no eviction or
        normalization — to keep replay after the snapshot bit-exact.
        """
        return {
            "now": self._now,
            "windows": {
                oid: [[p.x, p.y, p.t] for p in win]
                for oid, win in self._windows.items()
            },
            "pending": [[e.object_id, e.x, e.y, e.t] for e in self._pending],
            "malformed_dropped": self.malformed_dropped,
            "shed_events": self.shed_events,
            "duplicate_dropped": self.duplicate_dropped,
            "duplicate_repaired": self.duplicate_repaired,
            "breaker": self.breaker.snapshot_states(),
            "last_scores": [
                [s.object_a, s.object_b, s.similarity, s.lower, s.upper, s.rung,
                 s.completed]
                for s in self.last_scores
            ],
        }

    def _restore_state(self, state: dict) -> None:
        self._now = float(state["now"])
        self._windows = {
            oid: deque(TrajectoryPoint(x, y, t) for x, y, t in points)
            for oid, points in state["windows"].items()
        }
        self._pending = deque(
            SightingEvent(oid, x, y, t) for oid, x, y, t in state["pending"]
        )
        self.malformed_dropped = int(state["malformed_dropped"])
        self.shed_events = int(state["shed_events"])
        self.duplicate_dropped = int(state.get("duplicate_dropped", 0))
        self.duplicate_repaired = int(state.get("duplicate_repaired", 0))
        self.breaker.restore_states(state.get("breaker", []))
        self.last_scores = [
            PairScore(a, b, sim, lower=lo, upper=up, rung=rung, completed=done)
            for a, b, sim, lo, up, rung, done in state.get("last_scores", [])
        ]

    def _apply_op(self, op: tuple) -> None:
        """Re-execute one journaled command during replay."""
        kind = op[0]
        try:
            if kind == "offer":
                self.offer(SightingEvent(op[1], op[2], op[3], op[4]))
            elif kind == "ingest":
                self.ingest(SightingEvent(op[1], op[2], op[3], op[4]))
            elif kind == "drain":
                limit = op[1]
                self.drain(None if limit < 0 else limit)
            else:  # pragma: no cover - load_wal rejects unknown op codes
                raise WALError(f"unknown journaled op {kind!r}")
        except MalformedRecordError:
            # The live run raised at exactly this point too (a malformed
            # or duplicate sighting under on_error="raise"); state had
            # advanced identically before the raise, so replay continues.
            pass

    @classmethod
    def recover(
        cls,
        wal_dir,
        *,
        noise_model: NoiseModel | None = None,
        measure_factory: Callable[[], STS] | None = None,
        breaker: CircuitBreaker | None = None,
        registry=None,
        fsync_every: int = 1,
        segment_max_records: int = 2048,
        snapshot_every: int | None = 512,
        keep_snapshots: int = 2,
    ) -> "StreamingColocationDetector":
        """Rebuild a detector from a WAL directory and resume ingest.

        Restores the newest valid snapshot, replays the journaled
        command tail deterministically (windows, pending queue, stream
        clock and admission counters come back bitwise-identical to an
        uncrashed run), truncates torn tail records (counted in
        ``repro_wal_records_total{outcome="truncated"}`` and in
        :attr:`last_recovery`), re-attaches the WAL at the next LSN and
        takes a fresh snapshot so a second crash replays almost nothing.
        Exactly-once: every command acknowledged durable before the
        crash is applied exactly once, and nothing else.

        Raises :class:`~repro.errors.WALError` when the directory holds
        no journal (or was written by a custom ``noise_model`` /
        ``measure_factory`` that must be passed back in), and
        :class:`~repro.errors.WALCorruptionError` on non-tail damage.
        """
        from .streaming_wal import StreamingWAL, load_wal

        t0 = perf_counter()
        reg = registry if registry is not None else get_registry()
        recovery = load_wal(wal_dir, registry=reg)
        config = recovery.config
        if noise_model is None:
            noise_cfg = config.get("noise", {})
            if noise_cfg.get("kind") != "GaussianNoiseModel":
                raise WALError(
                    f"WAL {wal_dir} was written with a "
                    f"{noise_cfg.get('kind', 'unknown')} noise model; pass "
                    "the same noise_model to recover()"
                )
            noise_model = GaussianNoiseModel(
                noise_cfg["sigma"],
                truncate=noise_cfg["truncate"],
                squared=noise_cfg["squared"],
            )
        if config.get("custom_measure") and measure_factory is None:
            raise WALError(
                f"WAL {wal_dir} was written with a custom measure_factory; "
                "pass the same factory to recover()"
            )
        detector = cls(
            Grid(*config["grid"]),
            window=config["window"],
            noise_model=noise_model,
            min_points=config["min_points"],
            on_error=config["on_error"],
            max_pending=config["max_pending"],
            breaker=breaker,
            measure_factory=measure_factory,
            registry=registry,
        )
        # Replay under a scratch registry: the journaled tail re-runs the
        # ingest path, and crediting those increments to the live series
        # would double-count every event that survived the crash.  The
        # scratch snapshot is folded back under process="recovery" so the
        # replay work stays visible without polluting live ingest series.
        scratch = MetricsRegistry() if getattr(reg, "enabled", False) else None
        if scratch is not None:
            detector._init_obs(scratch)
        if recovery.state is not None:
            detector._restore_state(recovery.state)
        detector._wal_suspended += 1
        try:
            for op in recovery.ops:
                detector._apply_op(op)
        finally:
            detector._wal_suspended -= 1
            if scratch is not None:
                detector._init_obs(reg)
        if scratch is not None:
            merge_into_registry(reg, scratch.snapshot(), {"process": "recovery"})
        wal = StreamingWAL(
            wal_dir,
            fsync_every=fsync_every,
            segment_max_records=segment_max_records,
            snapshot_every=snapshot_every,
            keep_snapshots=keep_snapshots,
            registry=registry,
        )
        wal.resume_at(recovery.next_lsn)
        detector.attach_wal(wal)
        detector.snapshot()
        recovery.report.elapsed_s = perf_counter() - t0
        detector.last_recovery = recovery.report
        reg.gauge(
            "repro_wal_recovery_seconds", "Wall seconds of the last recover()"
        ).set(recovery.report.elapsed_s)
        return detector

    # ------------------------------------------------------------------
    @property
    def stream_time(self) -> float:
        """Newest timestamp ingested so far (-inf before the first event)."""
        return self._now

    @property
    def active_objects(self) -> list[str]:
        """Objects currently holding at least one in-window observation."""
        for oid in self._windows:
            self._evict(oid)
        return sorted(oid for oid, win in self._windows.items() if win)

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Sightings accepted by :meth:`offer` but not yet applied."""
        return len(self._pending)

    @property
    def accepted_through(self) -> float:
        """Newest finite timestamp this detector has taken responsibility for.

        Covers both applied sightings (:attr:`stream_time`) and sightings
        still waiting in the admission queue.  A producer resuming after
        :meth:`recover` should skip everything at or before this mark:
        those events are already journaled, so re-offering them would
        double-apply (and trip the duplicate-timestamp policy).  ``-inf``
        until the first finite sighting is offered or ingested.
        """
        mark = self._now
        for event in self._pending:
            if isfinite(event.t) and event.t > mark:
                mark = event.t
        return mark

    def offer(self, event: SightingEvent) -> bool:
        """Enqueue a sighting without applying it (bounded admission).

        The producer-facing entry point: O(1), never scores anything,
        and never grows past ``max_pending``.  When the queue is full
        the *stalest* sighting — the older of the queue head and the
        incoming event — is shed and counted in :attr:`shed_events`.
        Returns ``True`` when ``event`` itself was admitted.

        With a WAL attached the command is journaled (and, per the
        fsync policy, made durable) before the queue changes; a journal
        failure raises :class:`~repro.errors.WALWriteError` and leaves
        the queue untouched.

        Queued events are applied by :meth:`drain` (called automatically
        at the start of :meth:`evaluate`).
        """
        self._journal(("offer", event.object_id, event.x, event.y, event.t))
        admitted = True
        if self.max_pending is not None and len(self._pending) >= self.max_pending:
            self.shed_events += 1
            self._m_evt_shed.inc()
            if self._pending and self._pending[0].t <= event.t:
                self._pending.popleft()
            else:
                admitted = False  # the incoming event is the stalest: shed it
        if admitted:
            self._pending.append(event)
        self._maybe_snapshot()
        return admitted

    def drain(self, limit: int | None = None) -> int:
        """Apply up to ``limit`` queued sightings (all by default).

        Returns the number applied.  Malformed queued events follow the
        detector's ``on_error`` policy, exactly as direct :meth:`ingest`.

        One ``drain`` journal record covers the whole batch: the queued
        events were journaled when offered, and applying them is a
        deterministic consequence, so replay re-executes the drain
        instead of re-journaling each event (exactly-once).
        """
        if self._pending:
            self._journal(("drain", -1 if limit is None else int(limit)))
        applied = 0
        self._wal_suspended += 1
        try:
            while self._pending and (limit is None or applied < limit):
                self.ingest(self._pending.popleft())
                applied += 1
        finally:
            self._wal_suspended -= 1
        self._maybe_snapshot()
        return applied

    # ------------------------------------------------------------------
    def ingest(self, event: SightingEvent) -> None:
        """Add one sighting; evicts expired observations as time advances.

        Malformed events (non-finite ``x``/``y``/``t``) are rejected
        *before* stream time advances — a single ``t=inf`` sighting must
        not poison the window horizon forever.  Events older than the
        current window lower bound are dropped outright (too late to
        matter).  Duplicate timestamps follow the pinned policy in the
        class docstring.  With a WAL attached, every state-changing
        command is journaled first.
        """
        ok = isfinite(event.x) and isfinite(event.y) and isfinite(event.t)
        if not ok and self.on_error == "raise":
            # Rejected before any mutation: nothing to journal.
            raise MalformedRecordError(
                f"sighting of {event.object_id!r} has non-finite fields: "
                f"x={event.x}, y={event.y}, t={event.t}"
            )
        self._journal(("ingest", event.object_id, event.x, event.y, event.t))
        if not ok:
            self.malformed_dropped += 1
            self._m_malformed.inc()
            return
        self._now = max(self._now, event.t)
        horizon = self._now - self.window
        if event.t < horizon:
            self._m_late.inc()
            self._maybe_snapshot()
            return
        window = self._windows.setdefault(event.object_id, deque())
        if window and event.t <= window[-1].t:
            # Out-of-order arrival: check the pinned duplicate policy.
            # Windows hold unique timestamps (this very check maintains
            # the invariant), so scanning back to the first older point
            # suffices.
            duplicate = None
            for i in range(len(window) - 1, -1, -1):
                if window[i].t == event.t:
                    duplicate = i
                    break
                if window[i].t < event.t:
                    break
            if duplicate is not None:
                if self.on_error == "raise":
                    raise MalformedRecordError(
                        f"duplicate timestamp t={event.t} for "
                        f"{event.object_id!r}: an observation at this instant "
                        "is already in the window"
                    )
                self._m_duplicate.inc()
                if self.on_error == "repair":
                    # Last-write-wins: the fresher sighting supersedes.
                    window[duplicate] = TrajectoryPoint(event.x, event.y, event.t)
                    self.duplicate_repaired += 1
                else:
                    self.duplicate_dropped += 1
                self._evict(event.object_id)
                self._maybe_snapshot()
                return
        self._m_ingested.inc()
        window.append(TrajectoryPoint(event.x, event.y, event.t))
        # Keep the window time-sorted under slight out-of-order arrival.
        if len(window) >= 2 and window[-2].t > window[-1].t:
            ordered = sorted(window, key=lambda p: p.t)
            window.clear()
            window.extend(ordered)
        self._evict(event.object_id)
        self._maybe_snapshot()

    def ingest_many(self, events) -> None:
        """Ingest an iterable of events."""
        for event in events:
            self.ingest(event)

    def _evict(self, object_id: str) -> None:
        horizon = self._now - self.window
        window = self._windows[object_id]
        while window and window[0].t < horizon:
            window.popleft()

    # ------------------------------------------------------------------
    def window_of(self, object_id: str) -> Trajectory:
        """The object's current window as a trajectory (may be empty)."""
        self._windows.setdefault(object_id, deque())
        self._evict(object_id)
        return Trajectory(list(self._windows[object_id]), object_id=object_id)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _make_measure(self) -> STS:
        if self._measure_factory is not None:
            return self._measure_factory()
        return STS(self.grid, noise_model=self.noise_model)

    @staticmethod
    def _resolve_budget(deadline: float | None, budget: Budget | None) -> Budget:
        if deadline is not None and budget is not None:
            raise ValueError("pass either deadline or budget, not both")
        if deadline is not None:
            if deadline < 0:
                raise ValueError(f"deadline must be >= 0 seconds, got {deadline}")
            budget = Budget(deadline_ms=deadline * 1000.0)
        elif budget is None:
            budget = Budget.unbounded()
        return budget.start()

    def _collect_windows(self) -> dict[str, Trajectory]:
        return {oid: self.window_of(oid) for oid in list(self._windows)}

    def _new_health(self, budget: Budget, windows: dict[str, Trajectory]) -> ServiceHealth:
        health = ServiceHealth(deadline_ms=budget.deadline_ms)
        # Lifetime admission counters, snapshotted at evaluation time.
        health.malformed_events = self.malformed_dropped
        health.shed_events = self.shed_events
        for oid, win in sorted(windows.items()):
            if 0 < len(win) < self.min_points:
                health.degenerate_objects += 1
                health.record(
                    ServiceEvent(
                        "degenerate",
                        oid,
                        f"{len(win)} point(s) < min_points={self.min_points}",
                    )
                )
        return health

    @staticmethod
    def _block_values(
        measure, pairs: list[tuple[str, str]], windows: dict[str, Trajectory], target
    ) -> list[float] | None:
        """Every pair's score from one block, or ``None`` to score pair by pair.

        ``target`` (:meth:`companions_of`) is scored as one ``1 × k``
        block against its partners; otherwise every window of ``pairs``
        is scored as one self block.  A block entry is bitwise the 1×1
        call on its pair.  A measure without ``similarity_block``, or a
        block that raises :class:`~repro.errors.ReproError`, returns
        ``None``.
        """
        block = getattr(measure, "similarity_block", None)
        if block is None or not pairs:
            return None
        try:
            if target is not None:
                row = block([windows[target]], [windows[b] for _a, b in pairs])[0]
                return row.tolist()
            objects = sorted({oid for pair in pairs for oid in pair})
            matrix = block([windows[oid] for oid in objects])
        except ReproError:
            return None
        at = {oid: i for i, oid in enumerate(objects)}
        return [float(matrix[at[a], at[b]]) for a, b in pairs]

    def _score_pairs(
        self,
        pairs: list[tuple[str, str]],
        windows: dict[str, Trajectory],
        budget: Budget,
        health: ServiceHealth,
        threshold: float,
        target: str | None = None,
    ) -> list[PairScore]:
        """Score ``pairs`` in order under ``budget``; the shared engine of
        :meth:`evaluate` and :meth:`companions_of`.

        Without a deadline the scores come from one block
        (:meth:`_block_values`); the breaker, the threshold and the health
        accounting are then applied pair by pair, in order, as when each
        pair is scored on its own.  A deadline scores pair by pair through
        the degradation ladder.
        """
        measure = self._make_measure()
        scorer = (
            DeadlineScorer(measure, registry=self._registry) if budget.bounded else None
        )
        values = None if budget.bounded else self._block_values(measure, pairs, windows, target)
        scores: list[PairScore] = []
        for idx, (a, b) in enumerate(pairs):
            if budget.bounded and budget.expired():
                shed = len(pairs) - idx
                health.pairs_shed += shed
                health.deadline_hit = True
                for sa, sb in pairs[idx:]:
                    health.record(
                        ServiceEvent("shed-pair", f"{sa}~{sb}", "deadline expired")
                    )
                break
            key = (a, b)
            if not self.breaker.allow(key):
                health.breaker_skips += 1
                health.record(ServiceEvent("breaker-open", f"{a}~{b}"))
                continue
            try:
                if scorer is not None:
                    # Equal share of what is left for every unscored pair.
                    pair_budget = budget.sub_budget(
                        1.0 / (len(pairs) - idx), max_terms=budget.max_terms
                    )
                    result = scorer.score(
                        windows[a], windows[b],
                        budget=pair_budget, health=health, subject=f"{a}~{b}",
                    )
                    if result.completed:
                        self.breaker.record_success(key)
                    else:
                        health.pairs_partial += 1
                        if self.breaker.record_timeout(key):
                            health.breaker_trips += 1
                            health.record(
                                ServiceEvent(
                                    "breaker-trip", f"{a}~{b}",
                                    f"missed its slice on rung {result.rung}",
                                )
                            )
                    pair_score = PairScore(
                        a, b, result.value,
                        lower=result.lower, upper=result.upper,
                        rung=result.rung, completed=result.completed,
                    )
                else:
                    value = (
                        values[idx] if values is not None
                        else measure.similarity(windows[a], windows[b])
                    )
                    health.take_rung("full", f"{a}~{b}")
                    self.breaker.record_success(key)
                    pair_score = PairScore(a, b, value)
            except ReproError as exc:
                # A window eviction reduced below what STS can score —
                # skip and count, never crash the serving loop.
                health.degenerate_pairs += 1
                health.record(
                    ServiceEvent(
                        "degenerate", f"{a}~{b}", f"{type(exc).__name__}: {exc}"
                    )
                )
                continue
            health.pairs_scored += 1
            if pair_score.similarity > threshold:
                scores.append(pair_score)
        health.elapsed_ms = budget.elapsed_ms()
        if budget.deadline_ms is not None and health.elapsed_ms >= budget.deadline_ms:
            health.deadline_hit = True
        scores.sort(key=lambda s: -s.similarity)
        return scores

    def _freshest_first(
        self, pairs: list[tuple[str, str]], windows: dict[str, Trajectory]
    ) -> list[tuple[str, str]]:
        """Order pairs so the stalest are scored last (and shed first)."""
        return sorted(
            pairs,
            key=lambda ab: (
                -min(windows[ab[0]].end_time, windows[ab[1]].end_time),
                ab,
            ),
        )

    def evaluate(
        self,
        threshold: float = 0.0,
        deadline: float | None = None,
        budget: Budget | None = None,
    ) -> list[PairScore]:
        """STS over every scorable pair of active objects, best first.

        A fresh :class:`STS` instance is built per evaluation so windows
        are re-personalized; only pairs scoring above ``threshold`` are
        returned.

        ``deadline`` (seconds) or ``budget`` bounds the call: pairs are
        scored freshest-first through the degradation ladder, each in an
        equal share of the remaining time; pairs the deadline cannot
        reach are shed (stalest first).  The full account — rungs taken,
        partial bounds, shed pairs, breaker activity — is in
        :attr:`last_health` after the call.
        """
        t0 = perf_counter()
        with trace_span("stream.evaluate"):
            self.drain()
            budget = self._resolve_budget(deadline, budget)
            windows = self._collect_windows()
            health = self._new_health(budget, windows)
            scorable = sorted(
                oid for oid, w in windows.items() if len(w) >= self.min_points
            )
            pairs = [(a, b) for i, a in enumerate(scorable) for b in scorable[i + 1 :]]
            pairs = self._freshest_first(pairs, windows)
            scores = self._score_pairs(pairs, windows, budget, health, threshold)
        self._h_evaluate.observe(perf_counter() - t0)
        if getattr(self._registry, "enabled", False):
            health.metrics = self._registry.snapshot()
        self.last_health = health
        self.last_scores = scores
        return scores

    def companions_of(
        self,
        object_id: str,
        threshold: float = 0.0,
        deadline: float | None = None,
        budget: Budget | None = None,
    ) -> list[PairScore]:
        """Pairs involving ``object_id`` above ``threshold``, best first.

        Accepts the same ``deadline``/``budget`` bounds as
        :meth:`evaluate`.
        """
        self.drain()
        budget = self._resolve_budget(deadline, budget)
        windows = self._collect_windows()
        health = self._new_health(budget, windows)
        target = windows.get(object_id)
        if target is None or len(target) < self.min_points:
            self.last_health = health
            return []
        pairs = [
            (object_id, oid)
            for oid in sorted(windows)
            if oid != object_id and len(windows[oid]) >= self.min_points
        ]
        pairs = self._freshest_first(pairs, windows)
        scores = self._score_pairs(pairs, windows, budget, health, threshold, object_id)
        self.last_health = health
        self.last_scores = scores
        return scores
