"""Deterministic fault injectors for the supervision/recovery tests.

:class:`FaultyMeasure` wraps a real similarity measure and injects one
fault — ``"raise"``, ``"crash"`` (kills the worker process), ``"hang"``
or ``"corrupt"`` (returns NaN) — the *first* time a chosen trajectory
pair is scored, whether alone or inside a block, then behaves normally
forever after.  "First time" is
enforced across process boundaries with an ``O_CREAT | O_EXCL`` token
file: whichever worker (or retry attempt) gets there first atomically
claims the token and fires the fault; every later attempt sees the
token and scores cleanly.  That makes each test's fault schedule fully
deterministic regardless of pool size or chunk order.

The wrapper is picklable (it carries only the base measure, plain
strings and numbers), so it travels to process-pool workers the same
way a real measure does.
"""

from __future__ import annotations

import os
import time


class OneShotToken:
    """Cross-process "exactly once" latch backed by an exclusive file."""

    def __init__(self, path):
        self.path = str(path)

    def fire(self) -> bool:
        """Atomically claim the token; True only for the first caller."""
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True

    @property
    def fired(self) -> bool:
        return os.path.exists(self.path)


class FaultyMeasure:
    """Similarity measure that injects one fault on a chosen pair.

    Parameters
    ----------
    base:
        The real measure to wrap (scores delegate to it).
    kind:
        ``"raise"`` — raise ``RuntimeError``;
        ``"crash"`` — ``os._exit(1)`` the scoring process (worker death);
        ``"hang"`` — sleep ``hang_seconds`` (simulated wedge);
        ``"corrupt"`` — return NaN instead of the true score.
    target:
        Unordered pair of ``object_id`` values that triggers the fault.
    token_path:
        File path for the exactly-once latch (use a tmp path per test).
    """

    def __init__(self, base, kind: str, target, token_path, hang_seconds: float = 30.0):
        if kind not in ("raise", "crash", "hang", "corrupt"):
            raise ValueError(f"unknown fault kind {kind!r}")
        self.base = base
        self.kind = kind
        self.target = frozenset(target)
        self.token = OneShotToken(token_path)
        self.hang_seconds = float(hang_seconds)

    @property
    def name(self) -> str:
        return f"faulty-{self.kind}({getattr(self.base, 'name', 'measure')})"

    def _fire(self) -> bool:
        """Inject the fault; True when the score must come back corrupt."""
        if self.kind == "raise":
            raise RuntimeError("injected fault: scoring failure")
        if self.kind == "crash":
            os._exit(1)
        if self.kind == "hang":
            time.sleep(self.hang_seconds)
        return self.kind == "corrupt"

    def similarity(self, tra1, tra2) -> float:
        if {tra1.object_id, tra2.object_id} == self.target and self.token.fire():
            if self._fire():
                return float("nan")
        return self.base.similarity(tra1, tra2)

    def similarity_block(self, rows, cols=None):
        """The base measure's block kernel, faulted when the block holds the target."""
        partners = rows if cols is None else cols
        hits = [
            (a, b)
            for a, r in enumerate(rows)
            for b, c in enumerate(partners)
            if {r.object_id, c.object_id} == self.target
        ]
        corrupt = bool(hits) and self.token.fire() and self._fire()
        out = self.base.similarity_block(rows, cols)
        for a, b in hits if corrupt else ():
            out[a, b] = float("nan")
        return out


class _SlowSTP:
    """STP proxy that sleeps before every (batched) evaluation."""

    def __init__(self, base, delay: float, sleep=time.sleep):
        self._base = base
        self._delay = delay
        self._sleep = sleep

    def stp(self, t):
        self._sleep(self._delay)
        return self._base.stp(t)

    def stp_batch(self, times):
        self._sleep(self._delay)
        return self._base.stp_batch(times)

    def __getattr__(self, name):
        return getattr(self._base, name)


class SlowMeasure:
    """STS wrapper injecting wall-clock latency into every STP evaluation.

    The anytime scorer never calls ``similarity`` — it drives
    ``stp_for(...)`` + the batched co-location path directly — so
    overload has to be injected at the STP layer: every ``stp``/
    ``stp_batch`` call on a trajectory's estimator sleeps ``delay``
    seconds first.  Scores are untouched, so deadline tests can compare
    against the wrapped measure's exact results.

    Note the degradation ladder builds its *coarse* measures fresh from
    ``grid.coarsen(...)`` — those are real, fast STS instances, so a
    ladder over a SlowMeasure exercises exactly the intended scenario:
    the full-fidelity rung is overloaded, the degraded rungs are not.
    """

    def __init__(self, base, delay: float, sleep=time.sleep):
        self.base = base
        self.delay = float(delay)
        self._sleep = sleep

    @property
    def name(self) -> str:
        return f"slow({getattr(self.base, 'name', 'measure')})"

    def stp_for(self, trajectory):
        return _SlowSTP(self.base.stp_for(trajectory), self.delay, self._sleep)

    def similarity(self, tra1, tra2, budget=None) -> float:
        self._sleep(self.delay)
        if budget is not None:
            return self.base.similarity(tra1, tra2, budget=budget)
        return self.base.similarity(tra1, tra2)

    def score(self, tra1, tra2) -> float:
        return self.similarity(tra1, tra2)

    def __getattr__(self, name):
        # grid, noise_model, mode, _transition_factory, stp_cache_size, ...
        return getattr(self.base, name)
