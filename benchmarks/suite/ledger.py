"""Outside-in layer ledger: spans the benchmark records around library calls.

A traced operation is re-run through the public entry points one layer
below the top-level API, and every call into a layer is wrapped in a span
recorded here, in memory.  A span's *self time* is its duration minus the
part its child spans cover; the self time of the operation's root span is
the time no layer accounts for (``trace.unattributed``).  Summed over all
layers plus the unattributed rest, self times add up to the operation's
wall time by construction.

Some layers report their own timing instead of being callable from
outside (the shared-memory arena pack inside a parallel run, the replica
scoring inside a cluster query); those are added as *derived* children
with the duration the library reported.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

ROOT = "op"


@dataclass
class Span:
    name: str
    start: float
    op: int
    end: float = 0.0
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)


class Ledger:
    """Spans of every traced operation of one run, kept until exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op = 0

    @contextmanager
    def span(self, name: str):
        span = Span(name, perf_counter(), self.op)
        if self._stack:
            self._stack[-1].children.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()
            self.spans.append(span)

    def derived(self, parent: Span, name: str, seconds: float) -> None:
        """A child of ``parent`` timed by the library, not by a span here."""
        child = Span(name, parent.start, parent.op, parent.start + max(0.0, seconds))
        parent.children.append(child)
        self.spans.append(child)

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.name == ROOT]

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name (the root's is the unattributed rest)."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.self_time
        return totals

    def table(self) -> str:
        """Per-layer self-time table, largest first."""
        roots = self.roots()
        wall = sum(r.duration for r in roots)
        n = max(1, len(roots))
        lines = [f"{'layer':<26}{'self ms/op':>12}{'share':>9}"]
        for name, seconds in sorted(self.self_seconds().items(), key=lambda kv: -kv[1]):
            label = "trace.unattributed" if name == ROOT else name
            share = seconds / wall if wall > 0 else 0.0
            lines.append(f"{label:<26}{1000.0 * seconds / n:>12.3f}{share:>9.1%}")
        lines.append(f"{'(traced op wall)':<26}{1000.0 * wall / n:>12.3f}{1.0:>9.1%}")
        return "\n".join(lines)

    def write_chrome(self, path: str) -> None:
        """Chrome trace-event JSON (load in chrome://tracing or Perfetto)."""
        origin = min((s.start for s in self.spans), default=0.0)
        pid = os.getpid()
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": pid,
                "tid": 0,
                "args": {"op": s.op},
            }
            for s in sorted(self.spans, key=lambda s: (s.start, -s.duration))
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
