"""Bounded LRU caches for the hot evaluation paths.

The S-T probability machinery memoizes several families of intermediate
results (query distributions, FFT kernel stacks, noise-plane transforms,
per-segment candidate geometry).  Unbounded dictionaries would grow with
the number of distinct query timestamps — effectively without limit in a
production matching service — so every memo table is an :class:`LRUCache`
with a configurable capacity.

The cache is thread-safe (a single lock around the ordered dict): a
caller's threads may share one measure instance — and therefore one set
of caches — and so may the metrics exporter's thread, which reads cache
statistics while a run is scoring.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterator

__all__ = ["LRUCache"]

_MISSING = object()


class LRUCache:
    """A bounded mapping evicting the least-recently-used entry.

    Parameters
    ----------
    maxsize:
        Capacity.  ``0`` disables caching entirely (every lookup misses);
        ``None`` means unbounded.  Negative sizes are rejected.
    """

    __slots__ = ("maxsize", "_data", "_lock", "hits", "misses", "evictions")

    def __init__(self, maxsize: int | None = 128):
        if maxsize is not None and maxsize < 0:
            raise ValueError(f"maxsize must be >= 0 or None, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, marking it most-recently-used on a hit."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key``, evicting the oldest entry when over capacity."""
        if self.maxsize == 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            if self.maxsize is not None and len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """``get`` with a fallback factory; the computed value is cached.

        The factory runs outside the lock, so concurrent threads may
        compute the same value redundantly — wasteful but correct, and it
        keeps arbitrary user code (noise/transition models) from running
        under the cache lock.
        """
        value = self.get(key, _MISSING)
        if value is not _MISSING:
            return value
        value = compute()
        self.put(key, value)
        return value

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __iter__(self) -> Iterator[Hashable]:
        with self._lock:
            return iter(list(self._data))

    def clear(self) -> None:
        """Drop every cached entry (capacity and counters are kept)."""
        with self._lock:
            self._data.clear()

    def __eq__(self, other: object) -> bool:
        """Compare contents against a plain mapping (ignoring order)."""
        if isinstance(other, LRUCache):
            return dict(self._data) == dict(other._data)
        if isinstance(other, dict):
            return dict(self._data) == other
        return NotImplemented

    def values(self) -> list[Any]:
        """Snapshot of the cached values (oldest first)."""
        with self._lock:
            return list(self._data.values())

    def counts(self) -> tuple[int, int, int, int]:
        """``(hits, misses, evictions, size)`` without taking the lock.

        Monitoring-grade reads: each field is one atomic load, but the
        four are not mutually consistent under concurrent writes.  Used
        by snapshot collectors that walk many caches per scrape.
        """
        return self.hits, self.misses, self.evictions, len(self._data)

    def stats(self) -> dict[str, int | None]:
        """Size, capacity and lifetime hit/miss/eviction counters."""
        with self._lock:
            return {
                "size": len(self._data),
                "max": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    # Locks don't pickle; a cache crossing a process boundary restarts cold.
    def __getstate__(self) -> dict:
        with self._lock:
            return {"maxsize": self.maxsize}

    def __setstate__(self, state: dict) -> None:
        self.maxsize = state["maxsize"]
        self._data = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __repr__(self) -> str:
        return (
            f"LRUCache(maxsize={self.maxsize}, len={len(self)}, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )
