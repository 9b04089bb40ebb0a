"""Co-location event detection (the paper's application layer).

The STS scalar answers "how much did these two trajectories overlap
overall?"; applications like contact tracing and companion detection
(Section I of the paper) also need *when* the overlap happened.  This
module scans the co-location probability ``CP(t)`` over time and extracts
contiguous intervals where it stays above a threshold — co-location
events — with their peak probability and a probability-mass "exposure"
integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .colocation import colocation_batch
from .sts import STS
from .trajectory import Trajectory

__all__ = ["ColocationEvent", "detect_colocation_events", "colocation_timeline"]


@dataclass(frozen=True)
class ColocationEvent:
    """One contiguous interval of probable co-location.

    Attributes
    ----------
    start, end:
        Interval bounds (seconds; inclusive at both ends, on the scan
        lattice).
    peak_probability:
        Maximum co-location probability inside the interval.
    peak_time:
        Time of that maximum.
    exposure:
        Time-integral of the co-location probability over the interval
        (probability-weighted seconds of contact — the quantity a contact
        tracer would threshold on).
    """

    start: float
    end: float
    peak_probability: float
    peak_time: float
    exposure: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __str__(self) -> str:
        return (
            f"co-location [{self.start:.0f}s, {self.end:.0f}s] "
            f"peak={self.peak_probability:.3f}@{self.peak_time:.0f}s "
            f"exposure={self.exposure:.1f}"
        )


def colocation_timeline(
    measure: STS,
    a: Trajectory,
    b: Trajectory,
    time_step: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Co-location probability on a regular time lattice.

    The lattice spans the overlap of the two trajectories' time spans and
    additionally includes every observed timestamp inside the overlap, so
    nothing visible in :meth:`STS.colocation_profile` is missed between
    lattice points.  ``time_step`` defaults to half the corpus's median
    sampling gap.  Returns ``(times, probabilities)``; both empty when the
    spans do not overlap.
    """
    lo = max(a.start_time, b.start_time)
    hi = min(a.end_time, b.end_time)
    if hi < lo:
        return np.empty(0), np.empty(0)
    if hi == lo:
        # the spans touch at a single instant — evaluate just that instant
        times = np.array([float(lo)])
        return times, colocation_batch(measure.stp_for(a), measure.stp_for(b), times)
    if time_step is None:
        gaps = np.concatenate([np.diff(a.timestamps), np.diff(b.timestamps)])
        gaps = gaps[gaps > 0]
        time_step = float(np.median(gaps)) / 2.0 if gaps.size else (hi - lo) / 20.0
    if time_step <= 0:
        raise ValueError(f"time_step must be positive, got {time_step}")
    lattice = np.arange(lo, hi + time_step / 2, time_step)
    observed = np.concatenate([a.timestamps, b.timestamps])
    observed = observed[(observed >= lo) & (observed <= hi)]
    times = np.union1d(lattice, observed)
    return times, colocation_batch(measure.stp_for(a), measure.stp_for(b), times)


def detect_colocation_events(
    measure: STS,
    a: Trajectory,
    b: Trajectory,
    threshold: float = 0.05,
    time_step: float | None = None,
    min_duration: float = 0.0,
) -> list[ColocationEvent]:
    """Contiguous intervals where ``CP(t) >= threshold``.

    Parameters
    ----------
    measure:
        A configured :class:`~repro.core.sts.STS` instance (its grid and
        noise model define what "same place" means).
    threshold:
        Minimum co-location probability.  Note that CP compares two
        distributions over cells, so even perfectly co-located objects
        rarely reach 1.0 under noise — calibrate against
        ``measure.similarity(a, a)``.
    time_step:
        Scan resolution; see :func:`colocation_timeline`.
    min_duration:
        Drop events shorter than this (seconds).
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    times, cps = colocation_timeline(measure, a, b, time_step=time_step)
    if times.size == 0:
        return []
    above = cps >= threshold
    events: list[ColocationEvent] = []
    start_idx: int | None = None
    for k in range(len(times)):
        if above[k] and start_idx is None:
            start_idx = k
        if start_idx is not None and (not above[k] or k == len(times) - 1):
            end_idx = k if above[k] else k - 1
            segment = slice(start_idx, end_idx + 1)
            seg_times = times[segment]
            seg_cps = cps[segment]
            peak = int(np.argmax(seg_cps))
            exposure = float(np.trapezoid(seg_cps, seg_times)) if len(seg_times) > 1 else 0.0
            event = ColocationEvent(
                start=float(seg_times[0]),
                end=float(seg_times[-1]),
                peak_probability=float(seg_cps[peak]),
                peak_time=float(seg_times[peak]),
                exposure=exposure,
            )
            if event.duration >= min_duration:
                events.append(event)
            start_idx = None
    return events
