"""Structured account of one deadline-aware serving call.

:class:`ServiceHealth` mirrors the batch pipeline's
:class:`~repro.parallel.MatrixHealth`: a clean call has ``ok``
true and no events; everything the serving layer had to absorb to meet
its deadline — degradation rungs, shed pairs, tripped breakers, dropped
or malformed events — is counted here and detailed in ``events``.
Reports are JSON-serializable (:meth:`ServiceHealth.to_dict`) so they
can be logged or exported as service metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ServiceEvent", "ServiceHealth"]


@dataclass(frozen=True)
class ServiceEvent:
    """One serving incident: what the degradation machinery did and why."""

    kind: str  # "rung" | "shed-pair" | "degenerate" | "breaker-open" | "breaker-trip" | "malformed-event" | "queue-shed" | "deadline"
    subject: str  # pair "a~b", object id, or "" for call-level incidents
    detail: str = ""

    def __str__(self) -> str:
        where = f" on {self.subject}" if self.subject else ""
        note = f": {self.detail}" if self.detail else ""
        return f"{self.kind}{where}{note}"


@dataclass
class ServiceHealth:
    """Structured account of one deadline-aware call.

    ``rungs`` names every degradation rung *taken* across the call, in
    order (duplicates preserved: scoring 3 pairs on the coarse grid
    records ``"coarse-2x"`` three times) — the acceptance trail for
    "what accuracy did I trade for this latency?".
    """

    deadline_ms: float | None = None
    elapsed_ms: float = 0.0
    deadline_hit: bool = False
    pairs_scored: int = 0
    pairs_partial: int = 0  # returned with open [lower, upper] bounds
    pairs_shed: int = 0  # never scored: deadline ran out first
    degenerate_objects: int = 0  # windows too thin to score, skipped
    degenerate_pairs: int = 0  # pairs whose scoring raised a typed error
    malformed_events: int = 0  # non-finite sightings dropped at ingest
    shed_events: int = 0  # sightings dropped by the bounded queue
    breaker_skips: int = 0  # pairs skipped because their breaker was open
    breaker_trips: int = 0  # breakers newly tripped during this call
    rungs: list[str] = field(default_factory=list)
    events: list[ServiceEvent] = field(default_factory=list)
    #: Metrics snapshot taken when the call finished (None when obs is off).
    metrics: dict | None = None
    #: SLO burn-rate report (see :class:`repro.obs.slo.SLOTracker`), when
    #: an SLO tracker annotated this call; None otherwise.
    slo: dict | None = None

    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        """True when the call needed no degradation or shedding at all."""
        return not self.events and not self.deadline_hit

    @property
    def degraded(self) -> bool:
        """True when any rung below the full grid was taken."""
        return any(r != "full" for r in self.rungs)

    def record(self, event: ServiceEvent) -> None:
        """Append one serving incident to the account."""
        self.events.append(event)

    def take_rung(self, rung: str, subject: str = "", detail: str = "") -> None:
        """Account one degradation-ladder rung taken for ``subject``."""
        self.rungs.append(rung)
        if rung != "full":
            self.record(ServiceEvent("rung", subject, detail or rung))

    def to_dict(self) -> dict:
        """JSON-serializable form of the report."""
        return {
            "deadline_ms": self.deadline_ms,
            "elapsed_ms": self.elapsed_ms,
            "deadline_hit": self.deadline_hit,
            "pairs_scored": self.pairs_scored,
            "pairs_partial": self.pairs_partial,
            "pairs_shed": self.pairs_shed,
            "degenerate_objects": self.degenerate_objects,
            "degenerate_pairs": self.degenerate_pairs,
            "malformed_events": self.malformed_events,
            "shed_events": self.shed_events,
            "breaker_skips": self.breaker_skips,
            "breaker_trips": self.breaker_trips,
            "rungs": list(self.rungs),
            "events": [
                {"kind": e.kind, "subject": e.subject, "detail": e.detail}
                for e in self.events
            ],
            "metrics": self.metrics,
            "slo": self.slo,
        }

    def summary(self) -> str:
        """One-line human summary of the call's health."""
        if self.ok:
            return f"healthy: {self.pairs_scored} pair(s) scored at full fidelity"
        allowed = "inf" if self.deadline_ms is None else f"{self.deadline_ms:.0f}"
        return (
            f"degraded: {self.pairs_scored} scored "
            f"({self.pairs_partial} partial), {self.pairs_shed} shed, "
            f"{self.degenerate_objects + self.degenerate_pairs} degenerate skipped, "
            f"{self.breaker_skips} breaker-skipped, "
            f"rungs {self.rungs if self.rungs else 'none'}, "
            f"deadline {'HIT' if self.deadline_hit else 'met'} "
            f"({self.elapsed_ms:.0f}/{allowed} ms)"
        )
