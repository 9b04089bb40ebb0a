"""Structured error taxonomy for the whole library.

Production runs die for three distinct reasons, and callers need to tell
them apart to react correctly:

* **bad input** — a malformed CSV row, a NaN coordinate, a single-point
  trajectory where two are required.  Recoverable by skipping or
  repairing the offending record (see :mod:`repro.preprocess` and the
  ``on_error`` policy knob).
* **infrastructure failure** — a worker process killed by the OOM
  killer, a hung request, a service that cannot start.  Recoverable by
  restarting, gathering again or scoring in-process (see
  :mod:`repro.parallel.sts` and :mod:`repro.cluster.service`).
* **operator error** — resuming from a checkpoint that belongs to a
  different run.  Not recoverable; fail loudly.

Every exception this library raises deliberately derives from
:class:`ReproError`, so ``except ReproError`` catches exactly the
library's own failures and nothing else.  Input errors additionally
derive from :class:`ValueError` (and infrastructure errors from
:class:`RuntimeError` / :class:`TimeoutError`), so existing callers that
catch the builtin types keep working unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "MalformedRecordError",
    "DegenerateTrajectoryError",
    "WorkerCrashError",
    "ChunkTimeoutError",
    "ScoreCorruptionError",
    "CheckpointError",
    "WALError",
    "WALWriteError",
    "WALCorruptionError",
    "ERROR_POLICIES",
    "validate_policy",
]


class ReproError(Exception):
    """Base class of every error the library raises on purpose."""


class MalformedRecordError(ReproError, ValueError):
    """An input record is unusable: non-finite coordinates, a row that
    does not parse, a missing column.  The record carries no usable
    information and can only be dropped (``on_error="skip"``/``"repair"``)
    or rejected (``on_error="raise"``)."""


class DegenerateTrajectoryError(ReproError, ValueError):
    """A trajectory is structurally valid but too degenerate for the
    requested operation: empty, shorter than a required minimum, or all
    observations at one timestamp where a time span is needed.  Some
    degeneracies are repairable (duplicate timestamps collapse to their
    centroid); others are not (an empty trajectory)."""


class WorkerCrashError(ReproError, RuntimeError):
    """A worker process died (segfault, OOM kill, ``os._exit``) while
    scoring a block, with every recovery option exhausted.  The parallel
    engine restarts dead workers and scores in-process instead of raising
    it; :class:`repro.parallel.MatrixHealth` records each crash."""


class ChunkTimeoutError(ReproError, TimeoutError):
    """A worker made no progress within the request timeout — it is hung
    (deadlock, runaway input).  Like :class:`WorkerCrashError`, surfaced
    only once recovery options are exhausted."""


class ScoreCorruptionError(ReproError, RuntimeError):
    """A block came back with a non-finite similarity score.  STS scores
    are probabilities in ``[0, 1]``; NaN/inf from a worker means its
    state is corrupt and the block must be re-scored, and NaN/inf
    in-process is a deterministic failure."""


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint file is unreadable or belongs to a different run
    (fingerprint mismatch).  Never silently ignored: resuming the wrong
    checkpoint would splice two unrelated result sets together."""


class WALError(ReproError, RuntimeError):
    """Base class of write-ahead-log failures (:mod:`repro.streaming_wal`).

    Raised for misuse of the durable streaming layer: attaching a fresh
    detector to a directory that already holds journaled history,
    recovering against a directory whose configuration fingerprint does
    not match, or recovering a directory with no journal at all."""


class WALWriteError(WALError):
    """An append or fsync failed (disk full, revoked mount, bad fd).

    The contract is journal-before-apply: when an append fails the
    sighting that triggered it was *not* applied to detector state, so
    the producer can retry or shed it.  The partial frame (if any) is
    truncated away immediately, and would otherwise be detected and
    truncated by CRC on recovery."""


class WALCorruptionError(WALError):
    """A *non-tail* WAL record failed its CRC or framing check.

    A torn final record is the expected signature of a crash mid-append
    and is silently truncated (with a metric).  A bad record in the
    middle of the journal — with acknowledged records after it — means
    bit rot or tampering; replaying past it would silently drop
    acknowledged events, so recovery refuses loudly instead."""


#: The valid ``on_error`` policies, in increasing order of leniency.
ERROR_POLICIES = ("raise", "skip", "repair")


def validate_policy(on_error: str) -> str:
    """Check an ``on_error`` knob and return it.

    * ``"raise"`` — propagate the structured error (default everywhere);
    * ``"skip"`` — drop the offending record/trajectory/pair and count it;
    * ``"repair"`` — fix what is fixable (e.g. collapse duplicate
      timestamps), skip what is not.
    """
    if on_error not in ERROR_POLICIES:
        raise ValueError(
            f"on_error must be one of {ERROR_POLICIES}, got {on_error!r}"
        )
    return on_error
