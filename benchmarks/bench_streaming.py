"""Streaming detector throughput: ingest rate, evaluation latency, and
the cost of durability.

Operational reference for the online co-location layer: how many sighting
events per second the sliding window sustains, what one full pairwise
evaluation tick costs at a given number of active devices, and what the
write-ahead log adds on top.

Two ways to run it:

* **pytest-benchmark** (interactive): ``pytest benchmarks/bench_streaming.py``.
* **script mode** (CI / performance tracking):
  ``python benchmarks/bench_streaming.py [--quick]`` measures per-event
  ingest latency (p50/p99) with the WAL off and on across the fsync
  batching knob (``fsync_every`` ∈ {1, 8, 64}), times the full
  streaming pipeline (offer + evaluation tick per traffic epoch) WAL
  off vs on, and writes a bounded-history ``BENCH_streaming.json`` at
  the repository root.  With ``--assert-wal-overhead PCT`` it fails when
  the WAL-on *pipeline* at the default batch size
  (``fsync_every=64``, automatic snapshots on) is more than ``PCT``
  percent slower end-to-end than WAL-off (the CI regression guard; 15%
  by default).  The pipeline is warmed up once, then run WAL off and on
  alternately for :data:`PIPELINE_PAIRS` pairs, and the guard compares
  the medians: the first run of a process pays cold caches and
  allocator growth worth more than the WAL.

  The guard is deliberately end-to-end: a bare in-memory ingest is ~2 µs,
  so *any* durable journaling — encode, buffer, amortized fsync — is
  multiples of it, and a per-ingest percentage budget would be a vanity
  metric tuned to whatever the hardware does.  What operators actually
  pay is the tick loop, where evaluation dominates; there the journal
  must stay in the noise, and 15% is a real budget.  The raw per-event
  numbers (including ``fsync_every=1``, a durability choice rather than
  a regression) are reported alongside, unguarded.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.core.grid import Grid  # noqa: E402
from repro.streaming import SightingEvent, StreamingColocationDetector  # noqa: E402
from repro.streaming_wal import StreamingWAL  # noqa: E402

N_DEVICES = 8
EVENTS_PER_DEVICE = 30
AREA = (100.0, 60.0)  # mall-sized; positions bounce off the walls

#: The fsync batching settings script mode sweeps, and the one the
#: overhead guard pins (bounded staleness of at most 63 tail records).
FSYNC_SWEEP = (1, 8, 64)
DEFAULT_FSYNC_BATCH = 64
#: WAL-off/WAL-on pipeline pairs, alternating which runs first.
PIPELINE_PAIRS = 3


def make_events(seed: int = 5) -> list[SightingEvent]:
    """Reflecting random walks for ``N_DEVICES`` devices, time-sorted."""
    rng = np.random.default_rng(seed)
    events = []
    for d in range(N_DEVICES):
        x, y = rng.uniform(10, AREA[0] - 10), rng.uniform(10, AREA[1] - 10)
        heading = rng.uniform(0, 2 * np.pi)
        t = float(rng.uniform(0, 30))
        for _ in range(EVENTS_PER_DEVICE):
            dt = float(rng.exponential(10.0))
            t += dt
            x += 1.2 * np.cos(heading) * dt + rng.normal(0, 2)
            y += 1.2 * np.sin(heading) * dt + rng.normal(0, 2)
            if not (0 < x < AREA[0] and 0 < y < AREA[1]):
                heading += np.pi / 2 + rng.uniform(0, np.pi / 2)
                x = float(np.clip(x, 1, AREA[0] - 1))
                y = float(np.clip(y, 1, AREA[1] - 1))
            events.append(SightingEvent(f"dev-{d}", float(x), float(y), t))
    events.sort(key=lambda e: e.t)
    return events


def make_grid() -> Grid:
    return Grid(-10, -10, AREA[0] + 10, AREA[1] + 10, cell_size=3.0)


@pytest.fixture(scope="module")
def event_stream():
    return make_events()


@pytest.fixture
def grid():
    return make_grid()


def test_ingest_throughput(benchmark, grid, event_stream):
    def ingest_all():
        detector = StreamingColocationDetector(grid, window=600.0)
        detector.ingest_many(event_stream)
        return len(detector.active_objects)

    active = benchmark(ingest_all)
    assert active > 0


def test_evaluation_tick(benchmark, grid, event_stream):
    detector = StreamingColocationDetector(grid, window=2000.0)
    detector.ingest_many(event_stream)

    scores = benchmark.pedantic(detector.evaluate, rounds=2, iterations=1)
    # all-pairs over the scorable devices
    assert isinstance(scores, list)


def test_wal_pipeline_overhead_bounded(tmp_path):
    """The WAL-on pipeline at the default batch stays within 15% of
    WAL-off end-to-end.

    The same guard script mode enforces with ``--assert-wal-overhead``;
    here it runs on a shorter stream so it rides along with pytest runs
    of this file.  Three attempts absorb scheduler noise — the guard
    must hold at least once.
    """
    epochs = make_epochs(2)
    for attempt in range(3):
        off = pipeline_run(epochs, wal_dir=None)
        on = pipeline_run(epochs, wal_dir=tmp_path / f"wal-{attempt}")
        overhead = 100.0 * (on["total_s"] / off["total_s"] - 1.0)
        if overhead < 15.0:
            return
    pytest.fail(f"WAL pipeline overhead {overhead:.1f}% >= 15% in 3 attempts")


# ----------------------------------------------------------------------
# Script mode: BENCH_streaming.json + the WAL overhead guard
# ----------------------------------------------------------------------
def shifted(events: list[SightingEvent], offset: float) -> list[SightingEvent]:
    return [SightingEvent(e.object_id, e.x, e.y, e.t + offset) for e in events]


def make_epochs(epochs: int) -> list[list[SightingEvent]]:
    """``epochs`` back-to-back copies of the base traffic, time-shifted."""
    base = make_events()
    span = base[-1].t - base[0].t + 30.0
    return [shifted(base, epoch * span) for epoch in range(epochs)]


def make_traffic(epochs: int) -> list[SightingEvent]:
    return [event for epoch in make_epochs(epochs) for event in epoch]


def _percentile_us(latencies_s: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies_s), q) * 1e6)


def ingest_run(
    events: list[SightingEvent],
    wal_dir: Path | None,
    fsync_every: int = DEFAULT_FSYNC_BATCH,
) -> dict:
    """Per-event ingest latency over ``events``, WAL optional."""
    wal = None
    if wal_dir is not None:
        wal = StreamingWAL(
            wal_dir,
            fsync_every=fsync_every,
            snapshot_every=None,  # snapshot cadence is measured separately
            segment_max_records=8192,
        )
    detector = StreamingColocationDetector(
        make_grid(), window=600.0, on_error="skip", wal=wal
    )
    latencies: list[float] = []
    start = perf_counter()
    for event in events:
        t0 = perf_counter()
        detector.ingest(event)
        latencies.append(perf_counter() - t0)
    total = perf_counter() - start
    detector.close()
    return {
        "events": len(events),
        "fsync_every": None if wal_dir is None else fsync_every,
        "total_s": total,
        "events_per_s": len(events) / total,
        "p50_us": _percentile_us(latencies, 50),
        "p99_us": _percentile_us(latencies, 99),
    }


def pipeline_run(
    epochs: list[list[SightingEvent]],
    wal_dir: Path | None,
    fsync_every: int = DEFAULT_FSYNC_BATCH,
) -> dict:
    """The operator's loop: offer one traffic epoch, evaluate, repeat.

    This is the denominator the WAL overhead guard divides by — the
    whole serving tick, not a bare deque append.  Automatic snapshots
    stay on (default cadence) so the guard prices the entire durability
    layer, not just the journal.
    """
    wal = None
    if wal_dir is not None:
        wal = StreamingWAL(wal_dir, fsync_every=fsync_every)
    detector = StreamingColocationDetector(
        make_grid(), window=600.0, on_error="skip", max_pending=4096, wal=wal
    )
    ticks: list[float] = []
    start = perf_counter()
    for epoch in epochs:
        for event in epoch:
            detector.offer(event)
        t0 = perf_counter()
        detector.evaluate()
        ticks.append(perf_counter() - t0)
    total = perf_counter() - start
    detector.close()
    return {
        "ticks": len(ticks),
        "events": sum(len(epoch) for epoch in epochs),
        "fsync_every": None if wal_dir is None else fsync_every,
        "total_s": total,
        "tick_p50_ms": _percentile_us(ticks, 50) / 1000.0,
        "tick_p99_ms": _percentile_us(ticks, 99) / 1000.0,
    }


def main() -> int:
    import argparse

    from jsonbench import write_report

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="short CI-sized run (a few seconds)"
    )
    parser.add_argument(
        "--epochs",
        type=int,
        default=None,
        help="traffic epochs to ingest (default: 8, or 2 with --quick)",
    )
    parser.add_argument(
        "--assert-wal-overhead",
        type=float,
        nargs="?",
        const=15.0,
        default=None,
        metavar="PCT",
        help="fail when the WAL-on pipeline at the default batch size "
        f"(fsync_every={DEFAULT_FSYNC_BATCH}) is more than PCT%% slower "
        "end-to-end than WAL-off (default threshold: 15)",
    )
    args = parser.parse_args()
    epochs_n = args.epochs or (2 if args.quick else 8)

    epochs = make_epochs(epochs_n)
    traffic = [event for epoch in epochs for event in epoch]
    print(f"ingest: {len(traffic)} events, WAL off ...")
    ingest_run(traffic, wal_dir=None)  # warm-up: imports, allocator, cache
    off = ingest_run(traffic, wal_dir=None)
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-wal-") as scratch:
        for batch in FSYNC_SWEEP:
            print(f"ingest: {len(traffic)} events, WAL on, fsync_every={batch} ...")
            runs.append(
                ingest_run(
                    traffic,
                    wal_dir=Path(scratch) / f"fsync-{batch}",
                    fsync_every=batch,
                )
            )
        print(f"pipeline: {epochs_n} epochs (offer + evaluate), warm-up ...")
        pipeline_run(epochs, wal_dir=None)
        pipes: dict[bool, list[dict]] = {False: [], True: []}
        for k in range(PIPELINE_PAIRS):
            for wal_on in (k % 2 == 1, k % 2 == 0):
                print(
                    f"pipeline: {epochs_n} epochs, pair {k + 1}/{PIPELINE_PAIRS}, "
                    + (f"WAL on, fsync_every={DEFAULT_FSYNC_BATCH}, snapshots on ..."
                       if wal_on else "WAL off ...")
                )
                wal_dir = Path(scratch) / f"pipeline-{k}" if wal_on else None
                pipes[wal_on].append(pipeline_run(epochs, wal_dir=wal_dir))
    # The run of median total time on each side (PIPELINE_PAIRS is odd).
    pipe_off, pipe_on = (
        sorted(runs, key=lambda run: run["total_s"])[len(runs) // 2]
        for runs in (pipes[False], pipes[True])
    )
    overhead_pct = 100.0 * (pipe_on["total_s"] / pipe_off["total_s"] - 1.0)

    payload = {
        "benchmark": "streaming",
        "n_devices": N_DEVICES,
        "epochs": epochs_n,
        "ingest_wal_off": off,
        "ingest_wal_on": runs,
        "pipeline_pairs": PIPELINE_PAIRS,
        "pipeline_wal_off": pipe_off,
        "pipeline_wal_on": pipe_on,
        "pipeline_total_s": {
            "wal_off": [run["total_s"] for run in pipes[False]],
            "wal_on": [run["total_s"] for run in pipes[True]],
        },
        "default_fsync_every": DEFAULT_FSYNC_BATCH,
        "wal_pipeline_overhead_pct": overhead_pct,
    }
    path = write_report("BENCH_streaming.json", payload)
    print(f"wrote {path}")
    print(
        f"  ingest, WAL off:             p50 {off['p50_us']:.1f} us  "
        f"p99 {off['p99_us']:.1f} us  ({off['events_per_s']:.0f} ev/s)"
    )
    for run in runs:
        print(
            f"  ingest, WAL fsync_every={run['fsync_every']:>3}: "
            f"p50 {run['p50_us']:.1f} us  p99 {run['p99_us']:.1f} us  "
            f"({run['events_per_s']:.0f} ev/s)"
        )
    print(
        f"  pipeline, WAL off: median {pipe_off['total_s']:.3f} s "
        f"(tick p50 {pipe_off['tick_p50_ms']:.1f} ms) of {PIPELINE_PAIRS}"
    )
    print(
        f"  pipeline, WAL on:  median {pipe_on['total_s']:.3f} s "
        f"(tick p50 {pipe_on['tick_p50_ms']:.1f} ms) of {PIPELINE_PAIRS}"
    )
    print(f"  WAL pipeline overhead: {overhead_pct:+.1f}%")

    if args.assert_wal_overhead is not None and overhead_pct > args.assert_wal_overhead:
        print(
            f"FAIL: WAL pipeline overhead {overhead_pct:.1f}% exceeds the "
            f"{args.assert_wal_overhead:.1f}% budget at "
            f"fsync_every={DEFAULT_FSYNC_BATCH}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
