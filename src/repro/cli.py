"""Command-line interface: ``repro-sts`` (or ``python -m repro``).

Subcommands::

    repro-sts list-measures
    repro-sts matching   --dataset taxi --size 30 --seed 0
    repro-sts experiment fig4 --dataset mall --size 20
    repro-sts report     --dataset mall --size 20 --out report.md
    repro-sts generate   --dataset taxi --size 50 --out corpus.csv
    repro-sts link       --queries q.csv --gallery g.csv --cell 3 --sigma 3 --top 3
    repro-sts events     --corpus c.csv --a device-1 --b device-2 --cell 3 --sigma 3
    repro-sts groups     --corpus c.csv --cell 3 --sigma 3
    repro-sts stream     --corpus c.csv --cell 3 --sigma 3 --wal-dir wal/ [--resume]
    repro-sts obs        [demo|slo|logs DIR] [--format text|prom|flame|chrome]
    repro-sts verify     [--paths ...] [--relations ...] [--report-out report.json]
                         [--input snap.json] [--check DUMP]

``experiment`` accepts the figure families of the paper's evaluation:
``fig4`` (= figs 4–5), ``fig6`` (= 6–7), ``fig8`` (= 8–9), ``fig10``,
``fig11`` and ``fig12`` (= 12–14); ``report`` runs them all and writes a
markdown report.  ``link`` and ``events`` operate on trajectory CSVs in
the library's flat ``object_id,x,y,t`` format.

Every subcommand accepts ``--metrics-out FILE`` to dump the metrics
registry when the command finishes (``.json`` → JSON snapshot, anything
else → Prometheus text) and ``--serve-metrics [HOST:]PORT`` to expose
``/metrics``, ``/metrics.json``, ``/healthz`` and ``/slo`` over HTTP
while the command runs.  ``obs`` runs a small instrumented demo, checks
SLO burn rates (``obs slo``), merges structured worker logs (``obs logs
DIR``) or validates an existing dump (``--check`` auto-detects Chrome
traces, JSON snapshots, SLO reports and Prometheus text); ``link
--explain`` prints each query's stitched span-tree latency breakdown.
See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

import numpy as np

from .core.grid import Grid
from .core.noise import GaussianNoiseModel
from .core.sts import STS
from .datasets import (
    load_trajectories_csv_report,
    mall_dataset,
    save_trajectories_csv,
    taxi_dataset,
)
from .errors import ReproError
from .preprocess import sanitize_trajectories
from .eval import (
    ablation_experiment,
    build_matching_pair,
    cross_similarity_experiment,
    default_measures,
    evaluate_matching,
    grid_covering,
    grid_size_experiment,
    heterogeneous_rate_experiment,
    noise_experiment,
    render_markdown,
    run_all_experiments,
    sampling_rate_experiment,
)
from .similarity import available_measures

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    "fig4": sampling_rate_experiment,
    "fig6": heterogeneous_rate_experiment,
    "fig8": noise_experiment,
    "fig10": ablation_experiment,
    "fig11": cross_similarity_experiment,
    "fig12": grid_size_experiment,
}


def _load_dataset(name: str, size: int, seed: int):
    if name == "taxi":
        return taxi_dataset(n_trajectories=size, seed=seed)
    if name == "mall":
        return mall_dataset(n_trajectories=size, seed=seed)
    raise SystemExit(f"unknown dataset {name!r} (expected 'taxi' or 'mall')")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-sts",
        description="STS trajectory similarity (ICDE 2021) experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    obs_out = argparse.ArgumentParser(add_help=False)
    obs_out.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the metrics registry here when the command finishes "
        "(.json → JSON snapshot, anything else → Prometheus text)",
    )
    obs_out.add_argument(
        "--serve-metrics",
        default=None,
        metavar="[HOST:]PORT",
        help="serve /metrics, /metrics.json, /healthz and /slo over HTTP "
        "for the duration of the command (live exporter; default host "
        "127.0.0.1, port 0 picks an ephemeral port)",
    )

    sub.add_parser(
        "list-measures", parents=[obs_out], help="list registered similarity measures"
    )

    common = argparse.ArgumentParser(add_help=False, parents=[obs_out])
    common.add_argument("--dataset", choices=["taxi", "mall"], default="taxi")
    common.add_argument("--size", type=int, default=30, help="number of trajectories")
    common.add_argument("--seed", type=int, default=0)

    perf = argparse.ArgumentParser(add_help=False)
    perf.add_argument(
        "--n-jobs",
        type=int,
        default=None,
        help="parallel workers for score matrices (-1 = all available CPUs; "
        "default: serial)",
    )

    matching = sub.add_parser(
        "matching", parents=[common, perf], help="run the trajectory-matching task"
    )
    matching.add_argument(
        "--methods",
        nargs="*",
        default=None,
        help="subset of methods (default: all seven)",
    )

    experiment = sub.add_parser(
        "experiment", parents=[common], help="reproduce one figure family"
    )
    experiment.add_argument("figure", choices=sorted(_EXPERIMENTS))

    generate = sub.add_parser(
        "generate", parents=[common], help="write a synthetic corpus to CSV"
    )
    generate.add_argument("--out", required=True, help="output CSV path")

    report = sub.add_parser(
        "report",
        parents=[common, perf],
        help="run all experiments, write markdown report",
    )
    report.add_argument("--out", default=None, help="output path (default: stdout)")
    report.add_argument(
        "--only", nargs="*", default=None, help="experiment ids (e.g. fig10 fig11)"
    )
    report.add_argument(
        "--checkpoint-dir",
        default=None,
        help="journal completed experiments here; an interrupted run "
        "pointed at the same directory resumes from the last good state",
    )

    on_error = argparse.ArgumentParser(add_help=False, parents=[obs_out])
    on_error.add_argument(
        "--on-error",
        choices=["raise", "skip", "repair"],
        default="raise",
        help="malformed/degenerate input policy: raise (default), "
        "skip bad records, or repair what is fixable",
    )

    link = sub.add_parser(
        "link",
        parents=[on_error],
        help="link query trajectories to a gallery (STS)",
    )
    link.add_argument("--queries", required=True, help="queries CSV (object_id,x,y,t)")
    link.add_argument("--gallery", required=True, help="gallery CSV (object_id,x,y,t)")
    link.add_argument("--cell", type=float, required=True, help="grid cell size (m)")
    link.add_argument("--sigma", type=float, required=True, help="location noise σ (m)")
    link.add_argument("--top", type=int, default=3, help="candidates to print per query")
    link.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="wall-clock budget per query (ms); degrades/sheds instead of overrunning",
    )
    link.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        help="resident-memory ceiling (MiB); scoring degrades instead of OOMing",
    )
    link.add_argument(
        "--cluster-shards",
        type=int,
        default=None,
        help="serve the gallery from this many supervised shard workers "
        "(scatter-gather with failover + hedged requests; results carry "
        "explicit coverage)",
    )
    link.add_argument(
        "--cluster-replicas",
        type=int,
        default=2,
        help="replica workers per shard (default 2; only with --cluster-shards)",
    )
    link.add_argument(
        "--no-hedge",
        action="store_true",
        help="disable hedged requests on the cluster path (default: hedge "
        "slow shards to a sibling replica)",
    )
    link.add_argument(
        "--explain",
        action="store_true",
        help="print each query's span-tree latency breakdown (filter → "
        "refine; on the cluster path: per-shard fan-out, hedges and the "
        "workers' scoring subtrees) plus per-stage totals",
    )

    events = sub.add_parser(
        "events",
        parents=[on_error],
        help="co-location events between two objects (STS)",
    )
    events.add_argument("--corpus", required=True, help="trajectories CSV (object_id,x,y,t)")
    events.add_argument("--a", required=True, help="first object id")
    events.add_argument("--b", required=True, help="second object id")
    events.add_argument("--cell", type=float, required=True, help="grid cell size (m)")
    events.add_argument("--sigma", type=float, required=True, help="location noise σ (m)")
    events.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="co-location probability threshold (default: 10%% of self level)",
    )

    groups = sub.add_parser(
        "groups", parents=[on_error], help="detect co-moving groups in a corpus (STS)"
    )
    groups.add_argument("--corpus", required=True, help="trajectories CSV (object_id,x,y,t)")
    groups.add_argument("--cell", type=float, required=True, help="grid cell size (m)")
    groups.add_argument("--sigma", type=float, required=True, help="location noise σ (m)")
    groups.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="similarity threshold (default: 20%% of mean self-similarity)",
    )

    stream = sub.add_parser(
        "stream",
        parents=[on_error],
        help="replay a sighting CSV through the streaming detector "
        "(optionally journaled to a crash-safe write-ahead log)",
    )
    stream.add_argument("--corpus", required=True, help="sightings CSV (object_id,x,y,t)")
    stream.add_argument("--cell", type=float, required=True, help="grid cell size (m)")
    stream.add_argument("--sigma", type=float, required=True, help="location noise σ (m)")
    stream.add_argument("--window", type=float, default=600.0, help="sliding window (s)")
    stream.add_argument(
        "--threshold", type=float, default=0.0, help="only report pairs above this STS"
    )
    stream.add_argument(
        "--wal-dir",
        default=None,
        help="journal every accepted sighting to a write-ahead log in this "
        "directory; a crashed run restarted with --resume recovers exactly",
    )
    stream.add_argument(
        "--snapshot-every",
        type=int,
        default=512,
        help="journaled commands between automatic state snapshots (default 512)",
    )
    stream.add_argument(
        "--fsync-every",
        type=int,
        default=1,
        help="records per fsync: 1 (default) = every acknowledged sighting is "
        "durable; N trades <= N-1 tail records of staleness for throughput",
    )
    stream.add_argument(
        "--resume",
        action="store_true",
        help="recover detector state from --wal-dir before streaming: events "
        "at or before the recovered high-water mark (applied or still queued) "
        "are skipped as already seen",
    )

    obs = sub.add_parser(
        "obs",
        parents=[obs_out],
        help="inspect the instrumentation layer (demo run, dump viewer, validator)",
    )
    obs.add_argument(
        "action",
        nargs="?",
        choices=["demo", "slo", "logs"],
        default="demo",
        help="demo (default): run a small instrumented workload and render "
        "it; slo: evaluate the default SLO burn rates (against --input or "
        "a fresh demo run); logs: merge and pretty-print a directory of "
        "structured JSONL worker logs",
    )
    obs.add_argument(
        "path",
        nargs="?",
        default=None,
        help="log directory for the logs action",
    )
    obs.add_argument(
        "--format",
        choices=["text", "prom", "flame", "chrome"],
        default="text",
        help="demo output: rendered snapshot + flamegraph (text, default), "
        "Prometheus text (prom), flamegraph only (flame), or Chrome "
        "trace-event JSON (chrome)",
    )
    obs.add_argument(
        "--input",
        default=None,
        metavar="FILE",
        help="pretty-print an existing JSON metrics snapshot instead of running the demo",
    )
    obs.add_argument(
        "--check",
        default=None,
        metavar="FILE",
        help="validate an observability dump and exit non-zero on format "
        "errors; the format is auto-detected: Chrome trace-event JSON, "
        "JSON metrics snapshot, SLO report JSON, or Prometheus text",
    )

    verify = sub.add_parser(
        "verify",
        parents=[obs_out],
        help="differential verification: every execution path and "
        "metamorphic relation on the committed seed corpus",
    )
    verify.add_argument(
        "--paths",
        nargs="*",
        default=None,
        metavar="PATH",
        help="execution paths to check against the serial baseline "
        "(default: all; pass no names to skip the path matrix)",
    )
    verify.add_argument(
        "--relations",
        nargs="*",
        default=None,
        metavar="RELATION",
        help="metamorphic relations to run (default: all; pass no names "
        "to skip the relation suite)",
    )
    verify.add_argument(
        "--report-out",
        default=None,
        metavar="FILE",
        help="write the report to FILE — JSON for .json paths, "
        "markdown otherwise",
    )
    verify.add_argument(
        "--list",
        action="store_true",
        dest="list_checks",
        help="list available paths and relations, then exit",
    )

    return parser


def _load_corpus(path: str, on_error: str) -> list:
    """Load a CSV corpus through the sanitization gate, reporting skips."""
    trajectories, io_report = load_trajectories_csv_report(path, on_error=on_error)
    trajectories, gate_report = sanitize_trajectories(trajectories, on_error=on_error)
    skipped = io_report.skipped_records + io_report.skipped_trajectories
    if skipped or not gate_report.clean:
        print(
            f"{path}: skipped {io_report.skipped_records} malformed record(s), "
            f"{io_report.skipped_trajectories + gate_report.skipped_trajectories} "
            f"unusable trajectory(ies), repaired {gate_report.repaired}",
            file=sys.stderr,
        )
    return trajectories


def _grid_and_measure(trajectories, cell: float, sigma: float) -> STS:
    points = np.vstack([t.xy for t in trajectories])
    grid = Grid.covering(points, cell, margin=4.0 * sigma)
    return STS(grid, noise_model=GaussianNoiseModel(sigma))


def _run_link(args) -> int:
    from .index import FilteredMatcher

    queries = _load_corpus(args.queries, args.on_error)
    gallery = _load_corpus(args.gallery, args.on_error)
    if not queries or not gallery:
        raise SystemExit("link: queries and gallery must both be non-empty")
    measure = _grid_and_measure(queries + gallery, args.cell, args.sigma)
    service = None
    if getattr(args, "cluster_shards", None) is not None:
        # Cluster serving: the gallery is sharded across supervised
        # replica workers; each query scatter-gathers with failover and
        # (unless --no-hedge) hedged requests.
        from .cluster import ClusterService

        service = ClusterService(
            measure,
            gallery,
            n_shards=args.cluster_shards,
            n_replicas=args.cluster_replicas,
            hedge=not args.no_hedge,
        )
        # Queries must name the service's own gallery list (an identity
        # check guards against scoring a different corpus).
        gallery = service.gallery
        print(
            f"cluster: {service.plan}, fingerprint {service.fingerprint[:12]}, "
            f"hedging {'off' if args.no_hedge else 'on'}",
            file=sys.stderr,
        )
    matcher = FilteredMatcher(
        measure, grid=measure.grid, spatial_slack=8.0 * args.sigma, cluster=service
    )
    bounded = args.deadline_ms is not None or args.max_rss_mb is not None
    # Closing the service stops the shard workers.
    with service if service is not None else nullcontext():
        for query in queries:
            budget = None
            if bounded:
                from .serving import Budget

                budget = Budget(deadline_ms=args.deadline_ms, max_rss_mb=args.max_rss_mb)
            report = matcher.query(query, gallery, k=args.top, budget=budget)
            best = ", ".join(str(m) for m in report.matches) if report.matches else "(no candidates)"
            print(f"{query.object_id}: {best}   [{report}]")
            if getattr(args, "explain", False):
                if report.trace:
                    from .obs import render_trace_breakdown

                    print(render_trace_breakdown(report.trace, indent="    "))
                else:
                    print(
                        "  (no trace recorded — observability is off)",
                        file=sys.stderr,
                    )
            if report.coverage < 1.0:
                print(
                    f"  coverage: {report.coverage:.2%} — "
                    f"{report.cluster.summary() if report.cluster else 'partial result'}",
                    file=sys.stderr,
                )
            if report.health is not None and not report.health.ok:
                print(f"  health: {report.health.summary()}", file=sys.stderr)
    return 0


def _run_events(args) -> int:
    from .core.events import detect_colocation_events

    trajectories = {t.object_id: t for t in _load_corpus(args.corpus, args.on_error)}
    missing = [oid for oid in (args.a, args.b) if oid not in trajectories]
    if missing:
        raise SystemExit(f"events: object id(s) not in corpus: {missing}")
    a, b = trajectories[args.a], trajectories[args.b]
    measure = _grid_and_measure([a, b], args.cell, args.sigma)
    threshold = args.threshold
    if threshold is None:
        threshold = 0.1 * measure.similarity(a, a)
    found = detect_colocation_events(measure, a, b, threshold=threshold)
    print(f"STS({args.a}, {args.b}) = {measure.similarity(a, b):.4f}; threshold = {threshold:.4f}")
    if not found:
        print("no co-location events")
    for event in found:
        print(f"  {event}")
    return 0


def _run_groups(args) -> int:
    import numpy as _np

    from .groups import detect_groups

    trajectories = _load_corpus(args.corpus, args.on_error)
    if len(trajectories) < 2:
        raise SystemExit("groups: need at least two trajectories")
    measure = _grid_and_measure(trajectories, args.cell, args.sigma)
    threshold = args.threshold
    if threshold is None:
        self_levels = [measure.similarity(t, t) for t in trajectories]
        threshold = 0.2 * float(_np.mean(self_levels))
    result = detect_groups(measure, trajectories, threshold=threshold)
    print(
        f"{len(trajectories)} trajectories; scored {result.pairs_scored} pairs; "
        f"threshold {threshold:.4f}"
    )
    if not result.groups:
        print("no co-moving groups")
    for group in result.groups:
        members = ", ".join(trajectories[i].object_id or str(i) for i in group)
        print(f"  group: {{{members}}}")
    return 0


def _load_sightings(path: str):
    """Read a flat ``object_id,x,y,t`` CSV as time-ordered sighting events."""
    import csv

    from .streaming import SightingEvent

    events = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        missing = [c for c in ("object_id", "x", "y", "t") if c not in (reader.fieldnames or [])]
        if missing:
            raise SystemExit(f"stream: {path} is missing column(s) {missing}")
        for row in reader:
            try:
                events.append(
                    SightingEvent(
                        row["object_id"], float(row["x"]), float(row["y"]), float(row["t"])
                    )
                )
            except (TypeError, ValueError):
                # Let the detector's on_error policy judge unparsable rows
                # as non-finite sightings rather than crashing the reader.
                events.append(
                    SightingEvent(row["object_id"] or "?", float("nan"), float("nan"), float("nan"))
                )
    events.sort(key=lambda e: e.t)
    return events


def _run_stream(args) -> int:
    import numpy as _np

    from .streaming import StreamingColocationDetector
    from .streaming_wal import StreamingWAL

    events = _load_sightings(args.corpus)
    if not events:
        raise SystemExit("stream: corpus holds no sightings")
    skip_until = float("-inf")
    if args.resume:
        if args.wal_dir is None:
            raise SystemExit("stream: --resume requires --wal-dir")
        detector = StreamingColocationDetector.recover(
            args.wal_dir,
            fsync_every=args.fsync_every,
            snapshot_every=args.snapshot_every,
        )
        report = detector.last_recovery
        # Skip past everything the WAL already holds — including sightings
        # that were offered but not yet drained when the crash hit; those
        # live in the recovered pending queue, not in stream_time.
        skip_until = detector.accepted_through
        print(
            f"recovered from {args.wal_dir}: {report.summary()} "
            f"({report.elapsed_s * 1000:.1f} ms); resuming after t={skip_until:.1f}",
            file=sys.stderr,
        )
    else:
        points = _np.array([[e.x, e.y] for e in events if np.isfinite(e.x) and np.isfinite(e.y)])
        grid = Grid.covering(points, args.cell, margin=4.0 * args.sigma)
        wal = None
        if args.wal_dir is not None:
            wal = StreamingWAL(
                args.wal_dir,
                fsync_every=args.fsync_every,
                snapshot_every=args.snapshot_every,
            )
        detector = StreamingColocationDetector(
            grid,
            window=args.window,
            noise_model=GaussianNoiseModel(args.sigma),
            on_error=args.on_error,
            wal=wal,
        )
    with detector:
        streamed = 0
        for event in events:
            if event.t <= skip_until:
                continue
            detector.offer(event)
            streamed += 1
        detector.drain()
        scores = detector.evaluate(threshold=args.threshold)
        if args.wal_dir is not None:
            detector.snapshot()
        print(
            f"streamed {streamed} sighting(s); {len(detector.active_objects)} active "
            f"object(s) at stream time {detector.stream_time:.1f}; "
            f"dropped {detector.malformed_dropped} malformed / "
            f"{detector.duplicate_dropped} duplicate"
        )
        if not scores:
            print("no co-located pairs above threshold")
        for score in scores:
            print(f"  {score}")
    return 0


def _write_metrics(path: str) -> None:
    """Dump the default registry to ``path`` (JSON or Prometheus text)."""
    import json

    from .obs import get_registry

    registry = get_registry()
    if path.endswith(".json"):
        text = json.dumps(registry.snapshot(), indent=2, sort_keys=True) + "\n"
    else:
        text = registry.to_prometheus()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote metrics to {path}", file=sys.stderr)


def _check_obs_dump(path: str) -> list[str]:
    """Validate one observability dump, auto-detecting its format.

    Chrome trace-event JSON (a list, or ``{"traceEvents": [...]}``), a
    JSON metrics snapshot (counters/gauges/histograms sections), an SLO
    report (``{"slos": [...]}``) and Prometheus text exposition are all
    recognized; anything that parses as none of them is validated as
    Prometheus text (whose validator will say why it is not).
    """
    import json

    from .obs import (
        validate_chrome_trace,
        validate_metrics_snapshot,
        validate_prometheus_text,
        validate_slo_report,
    )

    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
    except ValueError:
        return validate_prometheus_text(text)
    if isinstance(doc, list) or (isinstance(doc, dict) and "traceEvents" in doc):
        return validate_chrome_trace(doc)
    if isinstance(doc, dict) and "slos" in doc:
        return validate_slo_report(doc)
    if isinstance(doc, dict):
        return validate_metrics_snapshot(doc)
    return [f"unrecognized dump: JSON {type(doc).__name__} is no known format"]


def _obs_demo_workload():
    """A small instrumented run so every metric family has samples.

    Returns the measure: cache collectors are registered weakly, so the
    caller must keep it alive until after the snapshot is taken.
    """
    from .serving import Budget, DeadlineScorer

    dataset = _load_dataset("taxi", 8, seed=0)
    trajectories = dataset.trajectories
    measure = STS(
        grid_covering(trajectories, dataset.cell_size, dataset.margin),
        noise_model=GaussianNoiseModel(dataset.location_error),
    )
    measure.pairwise(trajectories[:4], queries=trajectories[4:6])
    scorer = DeadlineScorer(measure)
    for candidate in trajectories[1:4]:
        scorer.score(trajectories[0], candidate, budget=Budget(deadline_ms=5.0))
    return measure


def _run_obs(args) -> int:
    """The ``obs`` subcommand: validator, dump viewer, SLOs, logs, demo."""
    import json

    from .obs import get_registry, get_tracer, render_snapshot

    if args.check is not None:
        errors = _check_obs_dump(args.check)
        for error in errors:
            print(f"{args.check}: {error}", file=sys.stderr)
        print(f"{args.check}: {'FAILED' if errors else 'OK'}")
        return 1 if errors else 0

    if args.action == "logs":
        from .obs import merge_records, read_log_dir, render_records

        if not args.path:
            raise SystemExit("obs logs: pass the log directory (repro obs logs DIR)")
        records = merge_records(read_log_dir(args.path))
        if not records:
            print(f"{args.path}: no log records")
            return 0
        print(render_records(records))
        return 0

    if args.action == "slo":
        from .obs import SLOTracker, default_slos

        if args.input is not None:
            with open(args.input, encoding="utf-8") as handle:
                snapshot = json.load(handle)
        else:
            measure = _obs_demo_workload()  # noqa: F841 — keeps collectors alive
            registry = get_registry()
            if not getattr(registry, "enabled", False):
                print("observability is disabled (REPRO_OBS=off); nothing to show")
                return 0
            snapshot = registry.snapshot()
        report = SLOTracker.evaluate_snapshot(snapshot, slos=default_slos())
        print(json.dumps(report, indent=2, sort_keys=True))
        breaching = any(s["state"] in ("warn", "page") for s in report["slos"])
        return 1 if breaching else 0

    if args.input is not None:
        with open(args.input, encoding="utf-8") as handle:
            snapshot = json.load(handle)
        print(render_snapshot(snapshot))
        return 0

    measure = _obs_demo_workload()  # noqa: F841 — keeps collectors alive
    registry = get_registry()
    if not getattr(registry, "enabled", False):
        print("observability is disabled (REPRO_OBS=off); nothing to show")
        return 0
    if args.format == "prom":
        print(registry.to_prometheus(), end="")
    elif args.format == "flame":
        print(get_tracer().flamegraph())
    elif args.format == "chrome":
        print(json.dumps(get_tracer().to_chrome_trace()))
    else:
        print(render_snapshot(registry.snapshot()))
        print()
        print("Span flamegraph:")
        print(get_tracer().flamegraph())
    return 0


def _run_verify(args) -> int:
    """The ``verify`` subcommand: differential path × relation matrix."""
    from .verify import PATHS, RELATIONS, run_verification

    if args.list_checks:
        print("paths:")
        for name, spec in PATHS.items():
            tol = "bitwise" if spec.tolerance is None else f"atol {spec.tolerance:g}"
            print(f"  {name:18s} [{tol}] {spec.description}")
        print("relations:")
        for name, rel in RELATIONS.items():
            print(f"  {name:18s} [{rel.equation}] {rel.description}")
        return 0

    try:
        report = run_verification(paths=args.paths, relations=args.relations)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.report_out:
        payload = (report.to_json() if args.report_out.endswith(".json")
                   else report.to_markdown())
        with open(args.report_out, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(f"wrote report to {args.report_out}", file=sys.stderr)
    print(report.to_markdown())
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    Structured input errors (:class:`~repro.errors.ReproError` — malformed
    records, degenerate trajectories, checkpoint mismatches) exit with a
    one-line message instead of a traceback; see ``--on-error`` for the
    skip/repair policies.
    """
    exporter = None
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "serve_metrics", None):
            from .obs import MetricsExporter, SLOTracker, default_slos, get_registry

            exporter = MetricsExporter.from_spec(
                args.serve_metrics,
                slo_tracker=SLOTracker(registry=get_registry(), slos=default_slos()),
            ).start()
            print(f"serving metrics at {exporter.url}", file=sys.stderr)
        code = _dispatch(args)
        if getattr(args, "metrics_out", None):
            _write_metrics(args.metrics_out)
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if exporter is not None:
            exporter.stop()


def _dispatch(args: argparse.Namespace) -> int:

    if args.command == "obs":
        return _run_obs(args)

    if args.command == "verify":
        return _run_verify(args)

    if args.command == "list-measures":
        for name in available_measures():
            print(name)
        return 0

    if args.command == "link":
        return _run_link(args)

    if args.command == "events":
        return _run_events(args)

    if args.command == "groups":
        return _run_groups(args)

    if args.command == "stream":
        return _run_stream(args)

    dataset = _load_dataset(args.dataset, args.size, args.seed)

    if args.command == "generate":
        rows = save_trajectories_csv(dataset.trajectories, args.out)
        print(f"wrote {len(dataset.trajectories)} trajectories ({rows} rows) to {args.out}")
        return 0

    if args.command == "matching":
        d1, d2 = build_matching_pair(dataset.trajectories)
        corpus = d1 + d2
        grid = grid_covering(corpus, dataset.cell_size, dataset.margin)
        measures = default_measures(
            grid, corpus, dataset.location_error, include=args.methods
        )
        print(f"matching task on {dataset.name} (n={len(d1)} queries)")
        for measure in measures.values():
            print(f"  {evaluate_matching(measure, d1, d2, n_jobs=args.n_jobs)}")
        return 0

    if args.command == "experiment":
        result = _EXPERIMENTS[args.figure](dataset)
        for metric in result.metrics:
            print(result.format_table(metric))
            print()
        return 0

    if args.command == "report":
        report = run_all_experiments(
            dataset,
            seed=args.seed,
            only=args.only,
            n_jobs=args.n_jobs,
            checkpoint_dir=args.checkpoint_dir,
        )
        if report.resumed:
            print(
                f"resumed {len(report.resumed)} experiment(s) from checkpoint: "
                f"{', '.join(report.resumed)}",
                file=sys.stderr,
            )
        text = render_markdown(report)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote report to {args.out} ({report.total_runtime:.1f}s of experiments)")
        else:
            print(text)
        return 0

    raise SystemExit(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
