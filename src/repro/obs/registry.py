"""Zero-dependency metrics: counters, gauges and fixed-bucket histograms.

The registry is the aggregation point for everything the pipeline counts
and times — similarity calls, stage seconds, cache hits, degradation
rungs.  It is deliberately tiny (no prometheus_client, no OpenTelemetry)
because the scoring hot paths cannot afford import weight or per-sample
allocation:

* instruments are created once (at component construction) and *bound*
  to a label set with :meth:`Counter.child`, so a hot-path increment is
  one lock acquisition and one dict add;
* reading is snapshot-based: :meth:`MetricsRegistry.snapshot` returns a
  plain JSON-able dict, :meth:`MetricsRegistry.to_prometheus` the
  Prometheus text exposition format;
* live objects that already count internally (the LRU caches, the
  streaming admission queue) register *collectors* — callables sampled
  at snapshot time — so their hot paths pay nothing at all.

Instrumentation is on by default and disabled globally with the
``REPRO_OBS=off`` environment variable (or :func:`set_enabled`), in
which case :func:`get_registry` hands out a null registry whose
instruments are shared no-op singletons.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
import threading
import weakref
from typing import Callable, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "enabled",
    "set_enabled",
    "get_registry",
    "set_registry",
]

#: Default histogram buckets for durations in seconds (upper bounds).
DEFAULT_TIME_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: One sample contributed by a collector: (kind, name, labels, value)
#: with kind "counter" or "gauge".  Samples with the same (name, labels)
#: are summed across collectors, so many live objects can feed one metric.
Sample = tuple[str, str, dict, float]

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict) -> LabelKey:
    """Canonical (sorted, stringified) form of a label set."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@functools.lru_cache(maxsize=65536)
def _label_str(key: LabelKey) -> str:
    """The label set as it appears inside Prometheus braces (or '').

    Cached: label sets are low-cardinality by design and every snapshot
    re-renders all of them, so the escape/join work is paid once per
    distinct set, not once per sample per snapshot.
    """
    return ",".join(f'{k}="{_escape(v)}"' for k, v in key)


#: Rendered label strings keyed by a sample's raw ``labels.items()``
#: tuple, *before* canonical sorting — collectors emit label dicts built
#: at a fixed code site, so the insertion-order tuple is a stable key
#: and the sort/stringify in :func:`_label_key` is skipped entirely on
#: the snapshot hot path.  Bounded defensively; cleared on overflow.
_SAMPLE_LABEL_CACHE: dict = {}


def _sample_label_str(labels: dict) -> str:
    if not labels:
        return ""
    try:
        key = tuple(labels.items())
        cached = _SAMPLE_LABEL_CACHE.get(key)
    except TypeError:  # unhashable label value: render uncached
        return _label_str(_label_key(labels))
    if cached is None:
        if len(_SAMPLE_LABEL_CACHE) > 8192:
            _SAMPLE_LABEL_CACHE.clear()
        cached = _label_str(_label_key(labels))
        _SAMPLE_LABEL_CACHE[key] = cached
    return cached


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class BoundCounter:
    """A counter pre-bound to one label set: the hot-path handle.

    The handle holds the series' one-element cell directly, so an
    ``inc`` is a lock round-trip and a list-item add — no label-key
    hashing or dict lookups.  Stage timers fire a dozen of these per
    pair evaluation, which is what pushed the cell design.
    """

    __slots__ = ("_cell", "_lock")

    def __init__(self, cell: list, lock: threading.Lock):
        self._cell = cell
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        lock = self._lock
        lock.acquire()
        try:
            self._cell[0] += amount
        finally:
            lock.release()


class BoundGauge:
    """A gauge pre-bound to one label set."""

    __slots__ = ("_cell", "_lock")

    def __init__(self, cell: list, lock: threading.Lock):
        self._cell = cell
        self._lock = lock

    def set(self, value: float) -> None:
        lock = self._lock
        lock.acquire()
        try:
            self._cell[0] = float(value)
        finally:
            lock.release()

    def inc(self, amount: float = 1.0) -> None:
        lock = self._lock
        lock.acquire()
        try:
            self._cell[0] += amount
        finally:
            lock.release()

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Counter:
    """A monotonically increasing sum, optionally labelled.

    Series are stored as one-element list cells so pre-bound handles
    can add in place without re-hashing the label key per increment.
    """

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._cells: dict[LabelKey, list] = {}

    def _cell(self, key: LabelKey) -> list:
        cell = self._cells.get(key)
        if cell is None:
            with self._lock:
                cell = self._cells.setdefault(key, [0.0])
        return cell

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` to the series selected by ``labels``."""
        cell = self._cell(_label_key(labels))
        with self._lock:
            cell[0] += amount

    def child(self, **labels) -> BoundCounter:
        """A pre-bound handle for hot paths (one lock + cell add per inc)."""
        return BoundCounter(self._cell(_label_key(labels)), self._lock)

    def values(self) -> dict[LabelKey, float]:
        """Current values keyed by canonical label tuple."""
        with self._lock:
            return {key: cell[0] for key, cell in self._cells.items()}


class Gauge:
    """A value that can go up and down (queue depth, cache size)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._cells: dict[LabelKey, list] = {}

    def _cell(self, key: LabelKey) -> list:
        cell = self._cells.get(key)
        if cell is None:
            with self._lock:
                cell = self._cells.setdefault(key, [0.0])
        return cell

    def set(self, value: float, **labels) -> None:
        """Set the series selected by ``labels`` to ``value``."""
        cell = self._cell(_label_key(labels))
        with self._lock:
            cell[0] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` to the series selected by ``labels``."""
        cell = self._cell(_label_key(labels))
        with self._lock:
            cell[0] += amount

    def child(self, **labels) -> BoundGauge:
        """A pre-bound handle for hot paths."""
        return BoundGauge(self._cell(_label_key(labels)), self._lock)

    def values(self) -> dict[LabelKey, float]:
        """Current values keyed by canonical label tuple."""
        with self._lock:
            return {key: cell[0] for key, cell in self._cells.items()}


class _HistogramState:
    __slots__ = ("counts", "total", "sum", "min", "max")

    def __init__(self, n_buckets: int):
        self.counts = [0] * n_buckets
        self.total = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf


class BoundHistogram:
    """A histogram pre-bound to one label set."""

    __slots__ = ("_hist", "_state")

    def __init__(self, hist: "Histogram", state: _HistogramState):
        self._hist = hist
        self._state = state

    def observe(self, value: float) -> None:
        self._hist._observe(self._state, value)


class Histogram:
    """Fixed-bucket histogram with p50/p95/p99 estimation.

    ``buckets`` is an ascending sequence of *upper bounds*; an implicit
    ``+Inf`` bucket catches the overflow.  Quantiles are estimated with
    linear interpolation inside the containing bucket (the same
    assumption ``histogram_quantile`` makes), clamped to the observed
    ``[min, max]`` so degenerate estimates stay inside the data.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "", buckets: Iterable[float] | None = None):
        self.name = name
        self.help = help
        bounds = tuple(float(b) for b in (buckets if buckets is not None else DEFAULT_TIME_BUCKETS))
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"buckets must be non-empty and strictly ascending, got {bounds}")
        self.buckets = bounds
        self._lock = threading.Lock()
        self._states: dict[LabelKey, _HistogramState] = {}

    def _state_for(self, key: LabelKey) -> _HistogramState:
        state = self._states.get(key)
        if state is None:
            with self._lock:
                state = self._states.setdefault(key, _HistogramState(len(self.buckets) + 1))
        return state

    def _observe(self, state: _HistogramState, value: float) -> None:
        value = float(value)
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            state.counts[idx] += 1
            state.total += 1
            state.sum += value
            if value < state.min:
                state.min = value
            if value > state.max:
                state.max = value

    def observe(self, value: float, **labels) -> None:
        """Record one observation in the series selected by ``labels``."""
        self._observe(self._state_for(_label_key(labels)), value)

    def child(self, **labels) -> BoundHistogram:
        """A pre-bound handle for hot paths."""
        return BoundHistogram(self, self._state_for(_label_key(labels)))

    # ------------------------------------------------------------------
    def quantile(self, q: float, **labels) -> float:
        """Estimated ``q``-quantile (NaN with no observations)."""
        state = self._states.get(_label_key(labels))
        if state is None or state.total == 0:
            return math.nan
        return self._quantile_from(state, q)

    def _quantile_from(self, state: _HistogramState, q: float) -> float:
        target = q * state.total
        cumulative = 0
        for idx, count in enumerate(state.counts):
            if count == 0:
                continue
            if cumulative + count >= target:
                lo = self.buckets[idx - 1] if idx > 0 else min(0.0, state.min)
                hi = self.buckets[idx] if idx < len(self.buckets) else state.max
                frac = (target - cumulative) / count
                estimate = lo + frac * (hi - lo)
                return float(min(max(estimate, state.min), state.max))
            cumulative += count
        return float(state.max)

    def merge_stats(self, stats: dict, **labels) -> None:
        """Fold a snapshot-format stats dict into the series for ``labels``.

        ``stats`` is one entry of :meth:`stats` output (``count``/``sum``/
        ``min``/``max``/``buckets``) — typically a delta shipped back from
        a worker process.  The bucket bounds must match this histogram's;
        a mismatch raises :class:`ValueError` rather than silently
        misfiling observations.
        """
        bounds = tuple(float(le) for le, _ in stats["buckets"] if le != "+Inf")
        if bounds != self.buckets:
            raise ValueError(
                f"histogram {self.name!r} has buckets {self.buckets}, "
                f"cannot merge stats with buckets {bounds}"
            )
        counts = [int(c) for _, c in stats["buckets"]]
        state = self._state_for(_label_key(labels))
        with self._lock:
            for idx, count in enumerate(counts):
                state.counts[idx] += count
            state.total += int(stats["count"])
            state.sum += float(stats["sum"])
            if float(stats["min"]) < state.min:
                state.min = float(stats["min"])
            if float(stats["max"]) > state.max:
                state.max = float(stats["max"])

    def stats(self) -> dict[str, dict]:
        """Per-label-set summary: count/sum/min/max/p50/p95/p99/buckets."""
        with self._lock:
            states = dict(self._states)
        out = {}
        for key, state in states.items():
            if state.total == 0:
                continue
            out[_label_str(key)] = {
                "count": state.total,
                "sum": state.sum,
                "min": state.min,
                "max": state.max,
                "p50": self._quantile_from(state, 0.50),
                "p95": self._quantile_from(state, 0.95),
                "p99": self._quantile_from(state, 0.99),
                "buckets": [
                    [("+Inf" if i == len(self.buckets) else self.buckets[i]), state.counts[i]]
                    for i in range(len(state.counts))
                ],
            }
        return out


# ----------------------------------------------------------------------
# Null instruments: the REPRO_OBS=off fast path.
# ----------------------------------------------------------------------
class _NullInstrument:
    """Shared no-op stand-in for every instrument and bound child."""

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels) -> None:
        pass

    def dec(self, amount: float = 1.0, **labels) -> None:
        pass

    def set(self, value: float, **labels) -> None:
        pass

    def observe(self, value: float, **labels) -> None:
        pass

    def merge_stats(self, stats: dict, **labels) -> None:
        pass

    def child(self, **labels) -> "_NullInstrument":
        return self

    def values(self) -> dict:
        return {}

    def stats(self) -> dict:
        return {}

    def quantile(self, q: float, **labels) -> float:
        return math.nan


_NULL = _NullInstrument()


class NullRegistry:
    """Registry handed out when observability is disabled: all no-ops."""

    enabled = False

    def counter(self, name: str, help: str = "") -> _NullInstrument:
        """The shared no-op instrument."""
        return _NULL

    def gauge(self, name: str, help: str = "") -> _NullInstrument:
        """The shared no-op instrument."""
        return _NULL

    def histogram(self, name: str, help: str = "", buckets=None) -> _NullInstrument:
        """The shared no-op instrument."""
        return _NULL

    def register_collector(self, fn: Callable[[], Iterable[Sample]]) -> None:
        """Ignored: null registries never sample collectors."""

    def value(self, name: str) -> dict[str, float]:
        """Always empty."""
        return {}

    def snapshot(self) -> dict:
        """Always empty."""
        return {}

    def to_prometheus(self) -> str:
        """Always empty."""
        return ""

    def reset(self) -> None:
        """Nothing to drop."""


class MetricsRegistry:
    """Thread-safe home for every metric the pipeline emits.

    Instruments are created (or fetched — creation is idempotent) with
    :meth:`counter` / :meth:`gauge` / :meth:`histogram`; live objects
    contribute snapshot-time samples with :meth:`register_collector`.
    Collectors passed as bound methods are held through weak references,
    so registering a per-instance collector does not leak the instance.
    """

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        # key -> zero-arg callable returning the collector (None once its
        # owner died).  A bound method is keyed by (owner id, function):
        # ids are unique among live objects, so a live entry under the
        # same key is the same collector.
        self._collectors: dict = {}
        # (key, ref) of weak collectors whose owner died, appended by the
        # weakref callback (without the lock: the collector may die in a
        # garbage collection run while the lock is held) and dropped on
        # the next register or snapshot.
        self._dead: list = []

    # ------------------------------------------------------------------
    def _instrument(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Create (or fetch) the counter called ``name``."""
        return self._instrument(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Create (or fetch) the gauge called ``name``."""
        return self._instrument(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Iterable[float] | None = None
    ) -> Histogram:
        """Create (or fetch) the histogram called ``name``."""
        return self._instrument(Histogram, name, help, buckets=buckets)

    # ------------------------------------------------------------------
    def register_collector(self, fn: Callable[[], Iterable[Sample]]) -> None:
        """Register a snapshot-time sample source (weakly, if a method).

        Idempotent for bound methods: re-registering the same method (an
        object re-binding its instruments after a registry swap) does not
        duplicate its samples — collector samples are *summed*.  A weak
        collector whose owner dies is dropped in O(1), so registering and
        snapshotting stay linear in the number of *live* collectors.
        """
        if hasattr(fn, "__self__"):
            key = (id(fn.__self__), fn.__func__)
            dead = self._dead
            ref = weakref.WeakMethod(fn, lambda r, key=key: dead.append((key, r)))
            with self._lock:
                self._drop_dead()
                held = self._collectors.get(key)
                if held is not None and held() is not None:
                    return
                self._collectors[key] = ref
        else:
            with self._lock:
                self._drop_dead()
                self._collectors[object()] = lambda: fn

    def _drop_dead(self) -> None:
        """Forget collectors whose owner died (caller holds the lock)."""
        while self._dead:
            key, ref = self._dead.pop()
            if self._collectors.get(key) is ref:
                del self._collectors[key]

    def _collected(self) -> dict[str, dict]:
        """Samples from live collectors, summed by (kind, name, labels)."""
        with self._lock:
            self._drop_dead()
            refs = list(self._collectors.values())
        merged: dict[str, dict] = {"counter": {}, "gauge": {}}
        for ref in refs:
            fn = ref()
            if fn is None:
                continue
            for kind, name, labels, value in fn() or ():
                bucket = merged.setdefault(kind, {})
                series = bucket.setdefault(name, {})
                key = _sample_label_str(labels)
                series[key] = series.get(key, 0.0) + float(value)
        return merged

    # ------------------------------------------------------------------
    def value(self, name: str) -> dict[str, float]:
        """Current values of one counter/gauge, keyed by label string."""
        metric = self._metrics.get(name)
        if metric is None or isinstance(metric, Histogram):
            return {}
        return {_label_str(k): v for k, v in metric.values().items()}

    def snapshot(self) -> dict:
        """Everything, as a JSON-serializable dict (collectors included)."""
        collected = self._collected()
        counters: dict[str, dict] = {}
        gauges: dict[str, dict] = {}
        histograms: dict[str, dict] = {}
        with self._lock:
            metrics = dict(self._metrics)
        for name, metric in sorted(metrics.items()):
            if isinstance(metric, Histogram):
                stats = metric.stats()
                if stats:
                    histograms[name] = stats
            else:
                series = {_label_str(k): v for k, v in metric.values().items()}
                if series:
                    (counters if isinstance(metric, Counter) else gauges)[name] = series
        for target, kind in ((counters, "counter"), (gauges, "gauge")):
            for name, series in collected.get(kind, {}).items():
                merged = target.setdefault(name, {})
                for key, value in series.items():
                    merged[key] = merged.get(key, 0.0) + value
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def to_prometheus(self) -> str:
        """The snapshot in the Prometheus text exposition format."""
        snap = self.snapshot()
        lines: list[str] = []
        helps = {name: m.help for name, m in self._metrics.items()}

        def emit_scalar(kind: str, name: str, series: dict) -> None:
            if helps.get(name):
                lines.append(f"# HELP {name} {helps[name]}")
            lines.append(f"# TYPE {name} {kind}")
            for key in sorted(series):
                label = f"{{{key}}}" if key else ""
                lines.append(f"{name}{label} {_format_value(series[key])}")

        for name in sorted(snap["counters"]):
            emit_scalar("counter", name, snap["counters"][name])
        for name in sorted(snap["gauges"]):
            emit_scalar("gauge", name, snap["gauges"][name])
        for name in sorted(snap["histograms"]):
            if helps.get(name):
                lines.append(f"# HELP {name} {helps[name]}")
            lines.append(f"# TYPE {name} histogram")
            for key in sorted(snap["histograms"][name]):
                stats = snap["histograms"][name][key]
                cumulative = 0
                for le, count in stats["buckets"]:
                    cumulative += count
                    le_str = "+Inf" if le == "+Inf" else f"{le:g}"
                    label = f'{key},le="{le_str}"' if key else f'le="{le_str}"'
                    lines.append(f"{name}_bucket{{{label}}} {cumulative}")
                suffix = f"{{{key}}}" if key else ""
                lines.append(f"{name}_sum{suffix} {_format_value(stats['sum'])}")
                lines.append(f"{name}_count{suffix} {stats['count']}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every metric and collector (tests and demos)."""
        with self._lock:
            self._metrics.clear()
            self._collectors.clear()
            self._dead.clear()

    # A registry crossing a process boundary restarts empty: locks do not
    # pickle, and worker-side metrics flow back explicitly as delta
    # snapshots (see repro.obs.aggregate) rather than by dragging state
    # through pickles.
    def __getstate__(self) -> dict:
        return {}

    def __setstate__(self, state: dict) -> None:
        self.__init__()


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


# ----------------------------------------------------------------------
# Global default registry and the REPRO_OBS switch.
# ----------------------------------------------------------------------
def _env_enabled() -> bool:
    return os.environ.get("REPRO_OBS", "on").strip().lower() not in (
        "off", "0", "false", "no", "disabled",
    )


_ENABLED = _env_enabled()
_DEFAULT = MetricsRegistry()
_NULL_REGISTRY = NullRegistry()


def enabled() -> bool:
    """Whether instrumentation is globally enabled (``REPRO_OBS``)."""
    return _ENABLED


def set_enabled(flag: bool) -> bool:
    """Override the ``REPRO_OBS`` switch; returns the previous value.

    Components capture their instruments at construction, so the switch
    affects objects built *after* the call (tests build fresh measures).
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    return previous


def get_registry() -> MetricsRegistry | NullRegistry:
    """The process-wide default registry (null when disabled)."""
    return _DEFAULT if _ENABLED else _NULL_REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide default registry; returns the previous one."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = registry
    return previous
