#!/usr/bin/env python3
"""Seeded benchmark of the STS library: six workloads, one JSON result line.

One workload, the form ``BENCHMARK.json``'s command takes::

    python3 benchmarks/suite/run.py --workload taxi-match --seed 0 --seconds 10 --trace 0

Every workload, each in a fresh subprocess, with a summary table::

    python3 benchmarks/suite/run.py --seed 0 [--out bench-out/set-a.jsonl]

A run generates its inputs from ``--seed``, times the service set-up
several times, discards one warm-up operation, then times operations for
``--seconds`` seconds and checks that every output is correct.  A drift
probe runs between operations, a set-up probe between batches of
set-ups, and every timing is scaled by the probes either side of it to
the speed of a reference machine.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The exit code is
0 only when every check passed; a library that cannot be imported exits
with 2 before printing any result.  Every process a run starts has ended
before it prints its result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Setup repetitions stop once this much time was spent (minimum reps first).
SETUP_BUDGET_S = 1.5
#: Set-ups shorter than this run back to back between two drift probes.
SETUP_BATCH_S = 0.1
#: Peak RSS is read once this many ops are timed (or when timing ends, if
#: sooner): the link workloads' caches grow with every query, so reading
#: it at the end would report more memory on a faster machine.
RSS_AFTER_OPS = 30
#: A workload subprocess still running after this many seconds is killed
#: and counted as a workload without a result.
WORKLOAD_TIMEOUT_S = 600
#: A child still running this long after it was asked to stop is killed.
STOP_GRACE_S = 5.0

#: Self-time share metric -> the span whose self time it reports.
SHARE_SPANS = {
    "core.stprob.build_share": "core.stprob.build",
    "core.stprob.resolve_share": "core.stprob.resolve",
    "core.colocation.inner_share": "core.colocation.inner",
    "core.sts.self_share": "core.sts.similarity",
    "index.filter_share": "index.filter",
    "parallel.pairwise_share": "parallel.pairwise",
    "parallel.arena_pack_share": "parallel.arena_pack",
    "cluster.worker_score_share": "cluster.worker_score",
    "cluster.gather_share": "cluster.query",
    "streaming.offer_share": "streaming.offer",
    "streaming.window_share": "streaming.window",
    "obs.snapshot_share": "obs.snapshot",
}
#: Per-op count metric -> the key a traced operation reports it under.
COUNT_KEYS = {
    "core.stprob.builds": "builds",
    "core.stprob.queries": "queries",
    "core.stprob.plane_ffts": "plane_ffts",
    "core.stprob.result_hit_ratio": "result_hit_ratio",
    "core.colocation.terms": "terms",
    "core.sts.pairs": "pairs",
    "index.survivor_ratio": "survivor_ratio",
    "parallel.cpu_util": "cpu_util",
    "parallel.chunks": "chunks",
    "parallel.retries": "retries",
    "parallel.degradations": "degradations",
    "cluster.hedges_fired": "hedges_fired",
    "cluster.failovers": "failovers",
    "cluster.restarts": "restarts",
    "streaming.shed_events": "shed_events",
}


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def parse_args(argv=None, spec=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, each in a subprocess)")
    parser.add_argument("--seed", type=int, default=0, help="input seed; seed 1 is held out for claims")
    parser.add_argument("--seconds", type=float, default=None, help="timed seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="append each run's full record (JSON lines) to this file")
    parser.add_argument("--trace-out", help="write the traced run's spans as Chrome trace JSON")
    parser.add_argument("--record-line", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"]) if spec else 10.0
    return args


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
@dataclass
class Measured:
    """Everything the timed loop of one run collected."""

    # Timings are at reference speed (``timing.at_reference_speed``);
    # ``raw_*`` keep the seconds as measured.
    setup_s: list[float] = field(default_factory=list)
    raw_setup_s: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    setup_probes: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    completed: int = 0
    outcomes: list = field(default_factory=list)  # untraced, timed
    walls: list[float] = field(default_factory=list)
    raw_walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    traced_counts: list[dict] = field(default_factory=list)
    deviation: float = 0.0
    run_s: float = 0.0
    rss_mib: float = 0.0


def measure(workload, seconds: float, trace: bool, ledger) -> Measured:
    from ledger import ROOT as ROOT_SPAN
    from timing import (
        REF_SETUP_PROBE_S,
        at_reference_speed,
        cpu_seconds,
        drift_probe,
        peak_rss_mib,
        setup_probe,
    )
    from workloads import op_problems

    m = Measured()
    sizes = workload.sizes

    def probe() -> float:
        m.probes.append(drift_probe())
        return m.probes[-1]

    def probe_setup() -> float:
        m.setup_probes.append(setup_probe())
        return m.setup_probes[-1]

    def more_setups() -> bool:
        return len(m.raw_setup_s) < sizes["max_setup_reps"] and (
            len(m.raw_setup_s) < sizes["min_setup_reps"] or perf_counter() - started < SETUP_BUDGET_S
        )

    # A full collection before each rep walks every object of the process
    # (~40 ms), so a 1 ms set-up got only ~30 reps.  Frozen, the objects
    # that outlive the loop are skipped and a collection only frees the
    # previous rep's garbage, so the rep's memory never piles up into the
    # peak RSS.  Tearing down the previous rep's service is not set-up.
    # Short set-ups run in batches between two set-up probes.
    gc.collect()
    gc.freeze()
    started = perf_counter()
    before = probe_setup()
    while more_setups():
        batch: list[float] = []
        batch_started = perf_counter()
        while not batch or (perf_counter() - batch_started < SETUP_BATCH_S and more_setups()):
            workload.close()
            gc.collect()
            t0 = perf_counter()
            workload.setup()
            batch.append(perf_counter() - t0)
            m.raw_setup_s.append(batch[-1])
        after = probe_setup()
        m.setup_s += [at_reference_speed(s, before, after, REF_SETUP_PROBE_S) for s in batch]
        before = after
    gc.unfreeze()
    pids = workload.pids()

    def attempt(k: int, traced: bool):
        job = workload.prepare(k)
        m.attempted += 1
        gc.collect()
        cpu0 = cpu_seconds(pids)
        t0 = perf_counter()
        try:
            if traced:
                ledger.op = k
                with ledger.span(ROOT_SPAN):
                    outcome = workload.traced(job, ledger)
            else:
                outcome = workload.run(job)
        except Exception as exc:  # an operation that raises is a failed operation
            m.failures.append(f"op {k}: {type(exc).__name__}: {exc}")
            return job, None, 0.0, 0.0
        wall = perf_counter() - t0
        cpu = cpu_seconds(pids) - cpu0
        problems = op_problems(outcome)
        m.failures.extend(f"op {k}: {p}" for p in problems)
        if problems:
            return job, None, wall, cpu
        m.completed += 1
        return job, outcome, wall, cpu

    _job, warm, _wall, _cpu = attempt(0, traced=False)
    first = warm.output if warm is not None else None
    k = 1
    started = perf_counter()
    before = probe()
    while workload.available(k):
        if perf_counter() - started >= seconds and m.walls and (m.traced_walls or not trace):
            break
        is_traced = trace and k % 2 == 0
        job, outcome, wall, cpu = attempt(k, is_traced)
        after = probe()
        if outcome is not None and is_traced:
            m.traced_walls.append(at_reference_speed(wall, before, after))
            reference = workload.reference(job, first)
            m.deviation = max(m.deviation, workload.agree(outcome.output, reference))
            m.traced_counts.append(outcome.counts)
        elif outcome is not None:
            m.outcomes.append(outcome)
            m.walls.append(at_reference_speed(wall, before, after))
            m.raw_walls.append(wall)
            m.cpus.append(at_reference_speed(cpu, before, after))
            if len(m.walls) == RSS_AFTER_OPS:
                m.rss_mib = peak_rss_mib(pids)
        before = after if not is_traced else probe()
        k += 1
    m.run_s = perf_counter() - started
    m.rss_mib = m.rss_mib or peak_rss_mib(pids)
    return m


def e2e_metrics(m: Measured, accuracy: float) -> dict[str, tuple[float, int]]:
    from timing import median

    n = len(m.walls)
    pairs = sum(o.pairs for o in m.outcomes)
    return {
        "setup_s": (median(m.setup_s), len(m.setup_s)),
        "pairs_per_s": (median([o.pairs / w for o, w in zip(m.outcomes, m.walls)]), n),
        "latency_p50_ms": (1000.0 * median(m.walls), n),
        "cpu_ms_per_pair": (1000.0 * sum(m.cpus) / pairs, n),
        "peak_rss_mb": (m.rss_mib, 1),
        "top1_accuracy": (accuracy, sum(o.ranked for o in m.outcomes)),
    }


def layer_metrics(m: Measured, ledger) -> dict[str, tuple[float, int]]:
    """Self-time shares of the traced ops plus their per-op counts."""
    from ledger import ROOT as ROOT_SPAN
    from timing import median

    roots = ledger.roots()
    n = len(roots)
    wall = sum(r.duration for r in roots)
    self_s = ledger.self_seconds()
    out = {
        "trace.op_ms": (1000.0 * median([r.duration for r in roots]), n),
        "trace.unattributed_ms": (1000.0 * self_s[ROOT_SPAN] / n, n),
        "trace.unattributed_ratio": (self_s[ROOT_SPAN] / wall, n),
        "trace.overhead_ratio": (median(m.traced_walls) / median(m.walls) - 1.0, n),
        "trace.ops": (n, n),
        "cluster.coverage_min": (min(c.get("coverage_min", 1.0) for c in m.traced_counts), n),
    }
    for name, span in SHARE_SPANS.items():
        out[name] = (self_s.get(span, 0.0) / wall, n)
    for name, key in COUNT_KEYS.items():
        out[name] = (sum(c.get(key, 0.0) for c in m.traced_counts) / len(m.traced_counts), n)
    return out


def run_workload(args, spec: dict) -> dict:
    from ledger import Ledger
    from timing import environment, highest_percentile, iqr, median, percentile
    from workloads import ABSENT, AGREE_ATOL, WORKLOADS, top1

    workload = WORKLOADS[args.workload](args.seed, args.scale)
    ledger = Ledger()
    m = measure(workload, args.seconds, bool(args.trace), ledger)

    checks: dict[str, str | None] = {}
    accuracy = 0.0
    if m.outcomes:
        try:
            checks.update(workload.checks(m.outcomes))
        except Exception as exc:  # a checker that cannot run is a failed check
            checks["checks"] = f"{type(exc).__name__}: {exc}"
        accuracy, checks["top1_floor"] = top1(m.outcomes)
    else:
        checks["timed_ops"] = "no operation completed"
    if args.trace:
        checks["decomposition"] = (
            None if m.deviation <= AGREE_ATOL
            else f"traced ops differ from untraced ones by {m.deviation:.3g}"
        )
    digests = workload.digests(m.outcomes) if m.outcomes else {}
    workload.close()

    values: dict[str, tuple[float, int]] = {}
    if m.outcomes and not args.trace:
        values = e2e_metrics(m, accuracy)
    elif m.outcomes and m.traced_walls:
        values = layer_metrics(m, ledger)
        if args.trace_out:
            ledger.write_chrome(args.trace_out)
    units = {s["name"]: s["unit"] for s in spec["end_to_end"] + spec["per_layer"]}
    wanted = [s["name"] for s in spec["per_layer" if args.trace else "end_to_end"]]
    metrics = {
        name: {"value": float(values[name][0]), "unit": units[name], "n": int(values[name][1])}
        for name in wanted if name in values
    }
    if len(metrics) < len(wanted) and not m.failures:
        checks["metrics"] = "not measured: " + ", ".join(n for n in wanted if n not in metrics)
    failed = m.attempted - m.completed
    correct = failed == 0 and not m.failures and all(v is None for v in checks.values())

    n = len(m.walls)
    p = highest_percentile(n)
    tail = None
    if p is not None and p > 50.0:
        tail = {"percentile": p, "ms": 1000.0 * percentile(m.walls, p), "n": n}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": correct and len(metrics) == len(wanted),
        "attempted": m.attempted,
        "failed": failed,
        "metrics": metrics,
        "latency_tail": tail,
        "checks": {name: ("ok" if v is None else v) for name, v in checks.items()},
        "failures": m.failures[:20],
        "absent_layers": ABSENT,
        "probe_ms": 1000.0 * median(m.probes),
        "probe_n": len(m.probes),
        "setup_probe_ms": 1000.0 * median(m.setup_probes),
        "raw_latency_p50_ms": 1000.0 * median(m.raw_walls) if m.raw_walls else None,
        "raw_setup_s": median(m.raw_setup_s),
        "setup_reps": len(m.setup_s),
        "setup_iqr_s": iqr(m.setup_s),
        "run_s": m.run_s,
        "digests": digests,
        "layer_table": ledger.table() if args.trace else None,
        "env": environment(ROOT),
    }


def result_line(record: dict) -> str:
    """The result line: exactly correct, attempted, failed and metrics."""
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in record["metrics"].items()},
    })


def print_record(record: dict) -> None:
    from timing import REF_PROBE_S

    print(
        f"{record['workload']} seed={record['seed']} scale={record['scale']} trace={record['trace']}: "
        f"{record['attempted']} ops attempted (1 warm-up), {record['failed']} failed, "
        f"{record['run_s']:.1f} s timed"
    )
    for name, m in record["metrics"].items():
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']:<8} n={m['n']}")
    if record["latency_tail"]:
        t = record["latency_tail"]
        print(f"  {'latency_p%g_ms' % t['percentile']:<30} {t['ms']:>14.6g} ms       n={t['n']}")
    print(f"  {'probe_ms':<30} {record['probe_ms']:>14.6g} ms       n={record['probe_n']}")
    if record["raw_latency_p50_ms"] is not None:
        print(f"  {'raw_latency_p50_ms':<30} {record['raw_latency_p50_ms']:>14.6g} ms       "
              f"(times above are at the reference probe time of {1000 * REF_PROBE_S:g} ms)")
    if record["layer_table"]:
        print(record["layer_table"])
    if record["absent_layers"]:
        print(f"  absent layers: {', '.join(record['absent_layers'])}")
    for name, verdict in record["checks"].items():
        print(f"  check {name}: {verdict}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


# ----------------------------------------------------------------------
# Every workload, each in a fresh subprocess
# ----------------------------------------------------------------------
def run_all(args, spec: dict) -> int:
    records = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale, "--record-line",
        ]
        if args.out:
            cmd += ["--out", args.out]
        if args.trace_out:
            stem, ext = os.path.splitext(args.trace_out)
            cmd += ["--trace-out", f"{stem}.{name}{ext or '.json'}"]
        # Its own session, so a workload that hangs is killed together with
        # the pool workers and replicas it started.
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
        )
        try:
            stdout, stderr = proc.communicate(timeout=WORKLOAD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"{name}: no result (timed out after {WORKLOAD_TIMEOUT_S} s)")
            continue
        for line in stdout.splitlines():
            if line.startswith("record: "):
                records[name] = json.loads(line[len("record: "):])
            elif not line.startswith("{"):
                print(line)
        if name not in records:
            print(f"{name}: no result (exit {proc.returncode})\n{stderr[-2000:]}")
    cross = cross_checks(records)
    for check, verdict in cross.items():
        print(f"cross-check {check}: {verdict}")
    print_summary(records, spec, args.trace)
    correct = (
        len(records) == len(spec["workloads"])
        and all(r["correct"] for r in records.values())
        and all(v == "ok" for v in cross.values())
    )
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "workloads": {name: {"correct": r["correct"], "metrics": r["metrics"]} for name, r in records.items()},
    }))
    return 0 if correct else 1


def cross_checks(records: dict) -> dict[str, str]:
    """Outputs that two workloads must share bitwise on one seed."""
    out = {}
    a, b = records.get("taxi-match"), records.get("taxi-match-n2")
    if a and b:
        same = a["digests"].get("matrix") == b["digests"].get("matrix")
        out["match_matrix_serial_vs_n2"] = "ok" if same else "matrices differ"
    a, b = records.get("taxi-link"), records.get("cluster-link")
    if a and b:
        x, y = a["digests"].get("top5", []), b["digests"].get("top5", [])
        common = min(len(x), len(y))
        same = common > 0 and x[:common] == y[:common]
        out["link_top5_local_vs_cluster"] = "ok" if same else f"top-5 differ within the first {common} queries"
    return out


def print_summary(records: dict, spec: dict, trace: int) -> None:
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    width = max(len(n) for n in names) + 2
    print(f"{'metric':<{width}}" + "".join(f"{w:>15}" for w in records))
    for name in names:
        row = f"{name:<{width}}"
        for record in records.values():
            m = record["metrics"].get(name)
            row += f"{m['value']:>15.6g}" if m else f"{'-':>15}"
        print(row)


def _child_pids() -> list[int]:
    """Every process whose parent is this one, not yet reaped (from ``/proc``)."""
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            children.append(int(entry))
    return children


def _reap(pid: int) -> bool:
    """Reap ``pid`` if it has ended; True once it is gone."""
    try:
        done, _status = os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return done == pid


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    The workloads close their pools and replicas, but the first
    shared-memory arena also starts ``multiprocessing``'s resource
    tracker, which would otherwise exit only after this process does.
    Whatever an operation that raised left behind is asked to stop, and
    killed if it is still running ``STOP_GRACE_S`` later.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()  # closes the tracker's pipe and waits for it to exit
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(STOP_GRACE_S)
    deadline = perf_counter() + STOP_GRACE_S
    pids = _child_pids()
    _signal(pids, signal.SIGTERM)
    while pids:
        if perf_counter() > deadline:
            _signal(pids, signal.SIGKILL)  # the resource tracker ignores SIGTERM
        sleep(0.01)
        pids = [pid for pid in pids if not _reap(pid)]


def _signal(pids: list[int], sig: int) -> None:
    for pid in pids:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, sig)


def main(argv=None) -> int:
    # BLAS thread pools would contend with the worker processes on a
    # 2-CPU machine; pin them before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    spec = load_spec()
    args = parse_args(argv, spec)
    for path in (args.out, args.trace_out):
        if path:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
    if args.workload is None:
        return run_all(args, spec)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the library under test from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        record = run_workload(args, spec)
    finally:
        stop_children()
    print_record(record)
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    if args.record_line:
        print("record: " + json.dumps(record))
    print(result_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
