"""Pairwise-similarity throughput of every measure on both corpora.

Not a paper figure — an operational reference: what one similarity call
costs per method, which is what sizes a deployment (the matching task is
``O(n²)`` calls).  Complements Fig. 12's grid-size/running-time sweep.

Run directly (``python benchmarks/bench_throughput.py [--quick]``) this
module benchmarks the full-gallery STS pairwise matrix instead: the
per-timestamp baseline path against the batched serial path and the
parallel path (``parallel_n{k}``, corpus in the shared-memory arena) at
several worker counts — writing mean/p50/p95 wall-clock per
configuration, the resulting speedups, and the measured per-pair
dispatch payload of the arenas against pickling the corpus into the
workers and their requests (``dispatch_payload``) to
``BENCH_throughput.json`` at the repository root.  ``--assert-shm-beats-pickling`` turns the arena's
value proposition into a hard exit code: it must ship >= 10x fewer
serialized bytes per dispatched pair.
"""

import argparse
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.eval import default_measures, grid_covering  # noqa: E402


@pytest.fixture(scope="module")
def pair_setups(request):
    datasets = {
        "mall": request.getfixturevalue("bench_mall"),
        "taxi": request.getfixturevalue("bench_taxi"),
    }
    out = {}
    for name, ds in datasets.items():
        corpus = ds.trajectories
        grid = grid_covering(corpus, ds.cell_size, ds.margin)
        measures = default_measures(grid, corpus, ds.location_error)
        out[name] = (measures, corpus[0], corpus[1])
    return out


@pytest.mark.parametrize("dataset_name", ["mall", "taxi"])
@pytest.mark.parametrize("method", ["STS", "CATS", "SST", "WGM", "APM", "EDwP", "KF"])
def test_similarity_call(benchmark, pair_setups, dataset_name, method):
    measures, a, b = pair_setups[dataset_name]
    measure = measures[method]

    def cold_call():
        # Drop per-trajectory caches so every round measures a cold pair,
        # matching the cost profile of a fresh query against a gallery.
        clear = getattr(measure, "clear_cache", None)
        if clear is not None:
            clear()
        return measure.score(a, b)

    value = benchmark.pedantic(cold_call, rounds=3, iterations=1)
    assert value == value  # finite, not NaN


# ----------------------------------------------------------------------
# Script mode: gallery-scale pairwise throughput -> BENCH_throughput.json
# ----------------------------------------------------------------------
def _per_t_pairwise(measure, gallery):
    """The seed evaluation path: one ``stp(t)`` call per timestamp.

    This reproduces what the repository did before the batched engine:
    every query time resolved individually, every co-location taken with
    a scalar sparse inner product, and the only memoization a per-time
    result dict (the seed's ``TrajectorySTP._cache``) — hand-rolled here
    because the measure it is given has the estimator-level caches
    disabled (the seed had no kernel / plane-FFT / segment caches to
    disable).
    """
    import numpy as np

    def sparse_inner(a, b):
        """The seed's scalar inner product of two sorted sparse distributions."""
        (cells_a, probs_a), (cells_b, probs_b) = a, b
        if cells_a.size == 0 or cells_b.size == 0:
            return 0.0
        if cells_b.size > cells_a.size:
            cells_a, probs_a, cells_b, probs_b = cells_b, probs_b, cells_a, probs_a
        pos = np.searchsorted(cells_a, cells_b)
        pos[pos == cells_a.size] = 0  # out-of-range probes can never match
        mask = cells_a[pos] == cells_b
        return float(np.dot(probs_a[pos[mask]], probs_b[mask])) if mask.any() else 0.0

    n = len(gallery)
    out = np.zeros((n, n))
    memo: dict[int, dict[float, object]] = {}

    def query(stp, t):
        per_stp = memo.setdefault(id(stp), {})
        hit = per_stp.get(t)
        if hit is None:
            hit = per_stp[t] = stp.stp(t)
        return hit

    for i in range(n):
        for j in range(i, n):
            a, b = gallery[i], gallery[j]
            stp1, stp2 = measure.stp_for(a), measure.stp_for(b)
            times = np.concatenate([a.timestamps, b.timestamps])
            total = 0.0
            for t in times:
                total += sparse_inner(query(stp1, float(t)), query(stp2, float(t)))
            out[i, j] = out[j, i] = total / (len(a) + len(b))
    return out


def run_gallery_benchmark(gallery_size: int, repeats: int, n_jobs_list: list[int]) -> dict:
    """Benchmark the pairwise STS matrix on a taxi gallery of given size."""
    import numpy as np

    from jsonbench import time_config
    from repro.core import STS
    from repro.datasets import taxi_dataset

    ds = taxi_dataset(n_trajectories=gallery_size, seed=101, time_window=600.0)
    grid = ds.make_grid()
    gallery = ds.trajectories

    configs: dict[str, dict] = {}
    matrices: dict[str, np.ndarray] = {}

    def run(label, fn, **measure_kwargs):
        def call():
            # A fresh measure per round: every round pays the full
            # estimator build + scoring cost, like a fresh service would.
            measure = STS(grid, cache_size=None, **measure_kwargs)
            matrices[label] = fn(measure)

        configs[label] = time_config(call, repeats=repeats, warmup=1)

    # The baseline disables the estimator-level caches this PR introduced
    # (stp_cache_size=0); _per_t_pairwise re-adds the one memo the seed
    # actually had.  The batched/parallel configs run with defaults.
    run("per_t_serial", lambda m: _per_t_pairwise(m, gallery), stp_cache_size=0)
    run("batched_serial", lambda m: m.pairwise(gallery))
    for n_jobs in n_jobs_list:
        run(f"parallel_n{n_jobs}", lambda m, n=n_jobs: m.pairwise(gallery, n_jobs=n))

    reference = matrices["batched_serial"]
    for label, matrix in matrices.items():
        configs[label]["max_abs_diff_vs_batched"] = float(
            abs(matrix - reference).max()
        )

    base = configs["per_t_serial"]["mean_s"]
    speedups = {
        label: base / stats["mean_s"] for label, stats in configs.items()
    }
    return {
        "benchmark": "throughput",
        "dataset": "taxi",
        "gallery_size": gallery_size,
        "n_pairs": gallery_size * (gallery_size + 1) // 2,
        "configs": configs,
        "speedup_vs_per_t": speedups,
    }


def measure_dispatch_payload(gallery_size: int, n_workers: int = 2) -> dict:
    """Serialized bytes per dispatched pair, pickling vs shared-memory.

    Counts what crosses the process boundary for one self-matrix on the
    transient service of ``n_workers`` shards behind
    ``STS.pairwise(n_jobs=n_workers)``: each worker's start payload (the
    measure and its shard arena's handle, against the measure and the
    shard's trajectories had they been pickled instead) plus each shard's
    one request (the call's row-arena handle and block indices, against
    the rows its blocks read, pickled into the request).  The corpus
    bytes move to the shared segments, not to zero — that one-time cost
    is reported as ``arena_bytes``.
    """
    import pickle

    from repro.cluster.plan import ShardPlan, gallery_keys
    from repro.core import STS
    from repro.datasets import taxi_dataset
    from repro.parallel import SharedTrajectoryArena
    from repro.parallel.sts import _shard_plan

    ds = taxi_dataset(n_trajectories=gallery_size, seed=101, time_window=600.0)
    gallery = ds.trajectories
    measure = STS(ds.make_grid(), cache_size=None)
    n = len(gallery)
    members = ShardPlan(n_workers, 1).assign(gallery_keys(gallery))
    requests: dict = {}
    for shard, rows, cols in _shard_plan(members, n, symmetric=True):
        requests.setdefault(shard, []).append((rows, cols))

    def request_bytes(rows, blocks) -> int:
        return len(pickle.dumps(("score", 0, rows, blocks, None)))

    start = {"pickling": 0, "shm": 0}
    request = {"pickling": 0, "shm": 0}
    with SharedTrajectoryArena.pack(gallery) as arena:
        arena_bytes = arena.nbytes
        for shard, blocks in requests.items():
            shard_gallery = [gallery[g] for g in members[shard]]
            start["pickling"] += len(pickle.dumps((measure, shard_gallery)))
            with SharedTrajectoryArena.pack(shard_gallery) as shard_arena:
                start["shm"] += len(pickle.dumps((measure, shard_arena.handle)))
                arena_bytes += shard_arena.nbytes
            request["shm"] += request_bytes(arena.handle, blocks)
            read = sorted({i for rows, _ in blocks if rows is not None for i in rows})
            at = {i: k for k, i in enumerate(read)}
            request["pickling"] += request_bytes(
                [gallery[i] for i in read],
                [(None if rows is None else tuple(at[i] for i in rows), cols) for rows, cols in blocks],
            )
    n_pairs = n * (n + 1) // 2
    pickling_total = start["pickling"] + request["pickling"]
    shm_total = start["shm"] + request["shm"]
    return {
        "n_workers": n_workers,
        "n_pairs": n_pairs,
        "pickling_start_bytes": start["pickling"],
        "shm_start_bytes": start["shm"],
        "pickling_request_bytes": request["pickling"],
        "shm_request_bytes": request["shm"],
        "arena_bytes": arena_bytes,
        "pickling_bytes_per_pair": pickling_total / n_pairs,
        "shm_bytes_per_pair": shm_total / n_pairs,
        "reduction_x": pickling_total / shm_total,
    }


#: Instrumented / uninstrumented wall-time ratio the guard tolerates.
OBS_OVERHEAD_LIMIT = 1.02


def measure_obs_overhead(gallery_size: int, rounds: int = 3) -> dict:
    """Wall time of the batched pairwise path, instrumented vs obs-off.

    Runs interleave (enabled, disabled, enabled, disabled, ...) and the
    per-mode minimum of ``rounds`` runs is compared, so scheduler noise
    hits both modes alike and the ratio reflects instrumentation cost,
    not machine weather.
    """
    import time

    from repro.core import STS
    from repro.datasets import taxi_dataset
    from repro.obs import set_enabled

    ds = taxi_dataset(n_trajectories=gallery_size, seed=101, time_window=600.0)
    grid = ds.make_grid()
    gallery = ds.trajectories

    def run_once() -> float:
        measure = STS(grid, cache_size=None)
        start = time.perf_counter()
        measure.pairwise(gallery)
        return time.perf_counter() - start

    run_once()  # warmup: FFT plans, KDE tables
    enabled_times: list[float] = []
    disabled_times: list[float] = []
    # min-of-10 floor: at quick-mode workload sizes (~0.2 s per run) the
    # environment shows ±4% noise bands lasting several rounds, so the
    # minimum needs enough rounds to catch a quiet window for both modes.
    for _ in range(max(10, rounds)):
        enabled_times.append(run_once())
        previous = set_enabled(False)
        try:
            disabled_times.append(run_once())
        finally:
            set_enabled(previous)
    enabled_s = min(enabled_times)
    disabled_s = min(disabled_times)
    return {
        "enabled_min_s": enabled_s,
        "disabled_min_s": disabled_s,
        "ratio": enabled_s / disabled_s,
        "limit": OBS_OVERHEAD_LIMIT,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small gallery, single repeat (CI smoke run)",
    )
    parser.add_argument("--gallery-size", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--output", default="BENCH_throughput.json",
        help="output filename (written at the repository root)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="dump the metrics registry when done "
        "(.json → JSON snapshot, anything else → Prometheus text)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="dump the span tracer as Chrome trace-event JSON when done",
    )
    parser.add_argument(
        "--no-overhead-guard", action="store_true",
        help="measure but do not enforce the instrumentation overhead limit",
    )
    parser.add_argument(
        "--assert-shm-beats-pickling", action="store_true",
        help="exit non-zero unless the arena's dispatch payload is at least "
        "10x smaller than pickling the corpus into every worker",
    )
    args = parser.parse_args(argv)

    from jsonbench import write_report

    gallery_size = args.gallery_size or (12 if args.quick else 50)
    repeats = args.repeats or (1 if args.quick else 3)
    n_jobs_list = [2] if args.quick else [2, 4]

    report = run_gallery_benchmark(gallery_size, repeats, n_jobs_list)
    report["quick"] = args.quick
    report["dispatch_payload"] = measure_dispatch_payload(gallery_size)
    overhead = measure_obs_overhead(gallery_size, rounds=repeats)
    if overhead["ratio"] > OBS_OVERHEAD_LIMIT:
        # Noise only ever inflates the ratio; one re-measure separates a
        # loaded machine from a real instrumentation regression.
        retry = measure_obs_overhead(gallery_size, rounds=repeats)
        if retry["ratio"] < overhead["ratio"]:
            overhead = retry
    report["obs_overhead"] = overhead
    path = write_report(args.output, report)

    print(f"wrote {path}")
    for label, stats in report["configs"].items():
        print(
            f"  {label:>16}: mean {stats['mean_s']:.3f}s  p50 {stats['p50_s']:.3f}s  "
            f"p95 {stats['p95_s']:.3f}s  speedup x{report['speedup_vs_per_t'][label]:.2f}"
        )
    overhead = report["obs_overhead"]
    print(
        f"  obs overhead: x{overhead['ratio']:.4f} "
        f"(instrumented {overhead['enabled_min_s']:.3f}s vs "
        f"off {overhead['disabled_min_s']:.3f}s, limit x{OBS_OVERHEAD_LIMIT})"
    )

    if args.metrics_out or args.trace_out:
        import json

        from repro.obs import get_registry, get_tracer

        if args.metrics_out:
            registry = get_registry()
            if args.metrics_out.endswith(".json"):
                text = json.dumps(registry.snapshot(), indent=2, sort_keys=True) + "\n"
            else:
                text = registry.to_prometheus()
            Path(args.metrics_out).write_text(text)
            print(f"wrote metrics to {args.metrics_out}")
        if args.trace_out:
            Path(args.trace_out).write_text(
                json.dumps(get_tracer().to_chrome_trace()) + "\n"
            )
            print(f"wrote trace to {args.trace_out}")

    payload = report["dispatch_payload"]
    print(
        f"  dispatch payload: {payload['pickling_bytes_per_pair']:.0f} B/pair "
        f"pickled vs {payload['shm_bytes_per_pair']:.0f} B/pair via arena "
        f"(x{payload['reduction_x']:.1f} smaller; arena {payload['arena_bytes']} B once)"
    )

    if overhead["ratio"] > OBS_OVERHEAD_LIMIT and not args.no_overhead_guard:
        print(
            f"FAIL: instrumentation overhead x{overhead['ratio']:.4f} exceeds "
            f"the x{OBS_OVERHEAD_LIMIT} limit",
            file=sys.stderr,
        )
        return 1
    if args.assert_shm_beats_pickling:
        # The payload reduction is deterministic — no slack, no skipping.
        if payload["reduction_x"] < 10.0:
            print(
                f"FAIL: dispatch payload shrank only x{payload['reduction_x']:.1f} "
                "(expected >= x10)",
                file=sys.stderr,
            )
            return 1
        print(f"  shm guard OK: payload x{payload['reduction_x']:.1f} smaller")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
