"""The six benchmark workloads.

Each workload builds its service in ``setup`` (timed, repeated), then runs
operations through the top-level public API in ``run``.  ``traced`` runs
the same kind of operation through the public entry points one layer
down, recording a span around each call (see :mod:`ledger`), and returns
the same output so the benchmark can check that the decomposition
reproduces the real operation.

Entry points one layer down are looked up once at import.  When one is
missing (the library dropped or renamed it) the traced run reports that
layer ``absent`` and scores through the layer above instead; the untraced
run only uses ``STS.pairwise``, ``FilteredMatcher.query``,
``ClusterService`` and ``StreamingColocationDetector`` and never depends
on them.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

import repro.core.colocation as _colocation
from repro import STS, Grid, Trajectory, get_registry
from repro.cluster import ClusterService
from repro.core import TrajectorySTP
from repro.eval.matching import build_matching_pair
from repro.index import FilteredMatcher
from repro.streaming import SightingEvent, StreamingColocationDetector
from repro.verify import ORACLE_ATOL, OracleSTS

from inputs import (
    EPOCH_S,
    STREAM_GRID,
    TAXI_GRID,
    TICK_SHIFT_S,
    stream_epoch,
    taxi_fleet,
)
from ledger import Ledger
from timing import cpu_seconds

try:
    from repro.parallel import ParallelSTS
except ImportError:  # pragma: no cover - only when the library drops it
    ParallelSTS = None

#: Entry points below the public API the traced run calls directly.
_colocation_batch = getattr(_colocation, "colocation_batch", None)
ABSENT = sorted(
    layer
    for layer, present in (
        ("core.stprob.build", hasattr(STS, "stp_for")),
        ("core.stprob.resolve", hasattr(TrajectorySTP, "stp_batch")),
        ("core.colocation.inner", _colocation_batch is not None),
        ("parallel.pairwise", ParallelSTS is not None),
        ("index.filter", hasattr(FilteredMatcher, "candidates")),
        ("cluster.query", hasattr(ClusterService, "query_scores")),
    )
    if not present
)
_CORE_CHAIN = not {"core.stprob.build", "core.stprob.resolve", "core.colocation.inner"} & set(ABSENT)

#: A score must lie in [0, 1]; this absorbs float round-off above 1.
SCORE_SLACK = 1e-12
#: Outputs that must agree across paths or ticks may differ by this much.
AGREE_ATOL = 1e-12
TOP1_FLOOR = 0.9
TOP_K = 5

SCALES = {
    "full": dict(
        match_taxis=16, sync_taxis=40, reports=24, match_span=600.0,
        link_taxis=200, link_span=3600.0, stream_pairs=4, stream_sightings=30,
        min_setup_reps=3, max_setup_reps=1000,
    ),
    "smoke": dict(
        match_taxis=6, sync_taxis=8, reports=12, match_span=300.0,
        link_taxis=24, link_span=600.0, stream_pairs=2, stream_sightings=10,
        min_setup_reps=2, max_setup_reps=2,
    ),
}


@dataclass
class Outcome:
    """What one operation produced."""

    pairs: int
    scores: np.ndarray
    hits: int
    ranked: int
    output: object
    problems: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    #: Which input the operation consumed, where inputs differ per op.
    key: int | None = None


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _load(raw) -> list[Trajectory]:
    return [Trajectory.from_arrays(xs, ys, ts, object_id=oid) for oid, xs, ys, ts in raw]


def _copy(traj: Trajectory) -> Trajectory:
    """A new object with the same points: estimator caches key on identity."""
    return Trajectory.from_arrays(traj.xy[:, 0], traj.xy[:, 1], traj.timestamps, traj.object_id)


def _plane_ffts() -> float:
    return sum(get_registry().value("repro_fft_plane_transforms_total").values())


def _histogram_sum(name: str) -> float:
    stats = get_registry().histogram(name).stats()
    return sum(s["sum"] for s in stats.values())


def _result_cache(estimators) -> tuple[int, int]:
    hits = misses = 0
    for stp in estimators:
        stats = stp.cache_stats()["results"]
        hits += stats["hits"]
        misses += stats["misses"]
    return hits, misses


def _cache_counts(before: tuple[int, int], after: tuple[int, int]) -> dict:
    hits, misses = after[0] - before[0], after[1] - before[1]
    total = hits + misses
    return {"queries": misses, "result_hit_ratio": hits / total if total else 0.0}


def op_problems(outcome: Outcome) -> list[str]:
    """Why one operation's output is wrong (empty when it is not)."""
    problems = list(outcome.problems)
    scores = np.asarray(outcome.scores, dtype=float)
    if scores.size and not np.all(np.isfinite(scores)):
        problems.append("non-finite score")
    elif scores.size and (scores.min() < 0.0 or scores.max() > 1.0 + SCORE_SLACK):
        problems.append("score outside [0, 1]")
    return problems


def top1(outcomes: list[Outcome]) -> tuple[float, str | None]:
    """Top-1 accuracy over every ranked query, and a verdict against the floor."""
    accuracy = sum(o.hits for o in outcomes) / sum(o.ranked for o in outcomes)
    if accuracy >= TOP1_FLOOR:
        return accuracy, None
    return accuracy, f"top-1 accuracy {accuracy:.3f} < {TOP1_FLOOR}"


def traced_similarity(ledger: Ledger, measure: STS, a, b, resolve: bool, counts: dict) -> float:
    """STS (Eq. 10) of one pair, split into resolution and co-location spans.

    Mirrors ``STS.similarity``: both estimators, the concatenated
    timestamps, one ``colocation_batch`` and the average.  ``resolve``
    resolves both estimators' STPs first in their own span (cold pairs);
    after a prewarm the co-location span finds them cached.
    """
    with ledger.span("core.sts.similarity"):
        if not _CORE_CHAIN:
            return measure.similarity(a, b)
        stp_a, stp_b = measure.stp_for(a), measure.stp_for(b)
        times = np.concatenate([a.timestamps, b.timestamps])
        if resolve:
            with ledger.span("core.stprob.resolve"):
                stp_a.stp_batch(times)
                stp_b.stp_batch(times)
        with ledger.span("core.colocation.inner"):
            cps = _colocation_batch(stp_a, stp_b, times)
        counts["terms"] = counts.get("terms", 0) + len(times)
        return float(cps.sum()) / (len(a) + len(b))


def _build(ledger: Ledger, measure: STS, trajectories) -> list:
    if "core.stprob.build" in ABSENT:
        return []
    with ledger.span("core.stprob.build"):
        return [measure.stp_for(t) for t in trajectories]


def _snapshot(ledger: Ledger) -> None:
    """The registry snapshot the matcher and detector take once per operation."""
    with ledger.span("obs.snapshot"):
        get_registry().snapshot()


class Workload:
    name = ""

    def __init__(self, seed: int, scale: str):
        self.sizes = SCALES[scale]

    def setup(self) -> None:
        raise NotImplementedError

    def available(self, k: int) -> bool:
        return True

    def prepare(self, k: int):
        return k

    def run(self, job) -> Outcome:
        raise NotImplementedError

    def traced(self, job, ledger: Ledger) -> Outcome:
        raise NotImplementedError

    def reference(self, job, first) -> object:
        """The untraced output a traced op must reproduce (untimed).

        ``first`` is the output of the run's first (warm-up) operation;
        every operation of a workload whose inputs do not change between
        operations must reproduce it.
        """
        return first

    def agree(self, a, b) -> float:
        """Largest difference between two outputs of this workload."""
        return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))

    def pids(self) -> list[int]:
        return []

    def checks(self, outcomes: list[Outcome]) -> dict[str, str | None]:
        return {}

    def digests(self, outcomes: list[Outcome]) -> dict:
        return {}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Matching task (Section VI): one similarity matrix per operation
# ----------------------------------------------------------------------
class MatchWorkload(Workload):
    shared_clock = False
    n_jobs: int | None = None

    def __init__(self, seed: int, scale: str):
        super().__init__(seed, scale)
        n = self.sizes["sync_taxis" if self.shared_clock else "match_taxis"]
        self.raw = taxi_fleet(
            seed, n, self.sizes["reports"], self.sizes["match_span"], self.shared_clock
        )

    def setup(self) -> None:
        self.grid = Grid(*TAXI_GRID)
        self.d1, self.d2 = build_matching_pair(_load(self.raw))

    def _outcome(self, matrix: np.ndarray) -> Outcome:
        hits = int(np.sum(np.argmax(matrix, axis=1) == np.arange(len(self.d1))))
        return Outcome(matrix.size, matrix.ravel(), hits, len(self.d1), matrix)

    def run(self, job) -> Outcome:
        matrix = STS(self.grid).pairwise(self.d2, queries=self.d1, n_jobs=self.n_jobs)
        return self._outcome(np.asarray(matrix))

    def traced(self, job, ledger: Ledger) -> Outcome:
        """``STS.pairwise``: estimator builds, one batched resolution per
        trajectory over every timestamp in play, then the pair loop."""
        counts: dict = {}
        measure = STS(self.grid)
        ffts = _plane_ffts()
        everything = list(self.d2) + list(self.d1)
        estimators = _build(ledger, measure, everything)
        if "core.stprob.resolve" not in ABSENT and estimators:
            with ledger.span("core.stprob.resolve"):
                all_times = np.unique(np.concatenate([t.timestamps for t in everything]))
                for traj, stp in zip(everything, estimators):
                    inside = all_times[
                        (all_times >= traj.start_time) & (all_times <= traj.end_time)
                    ]
                    if inside.size:
                        stp.stp_batch(inside)
        matrix = np.zeros((len(self.d1), len(self.d2)))
        for i, q in enumerate(self.d1):
            for j, g in enumerate(self.d2):
                matrix[i, j] = traced_similarity(ledger, measure, q, g, False, counts)
        counts.update(builds=len(estimators), pairs=matrix.size, plane_ffts=_plane_ffts() - ffts)
        counts.update(_cache_counts((0, 0), _result_cache(estimators)))
        outcome = self._outcome(matrix)
        outcome.counts = counts
        return outcome

    def checks(self, outcomes: list[Outcome]) -> dict[str, str | None]:
        first = outcomes[0].output
        same = all(np.array_equal(o.output, first) for o in outcomes)
        oracle = OracleSTS(self.grid, sigma=self.grid.cell_size).similarity(self.d1[0], self.d2[0])
        gap = abs(oracle - first[0, 0])
        return {
            "repeatable": None if same else "operations on one input returned different matrices",
            "oracle": None if gap <= ORACLE_ATOL else f"|oracle - S[0,0]| = {gap:.3g} > {ORACLE_ATOL}",
        }

    def digests(self, outcomes: list[Outcome]) -> dict:
        return {"matrix": digest(outcomes[0].output)}


class TaxiMatch(MatchWorkload):
    name = "taxi-match"


class SyncMatch(MatchWorkload):
    name = "sync-match"
    shared_clock = True


class TaxiMatchN2(MatchWorkload):
    name = "taxi-match-n2"
    n_jobs = 2

    def traced(self, job, ledger: Ledger) -> Outcome:
        if ParallelSTS is None:
            with ledger.span("parallel.pairwise"):
                return self.run(job)
        engine = ParallelSTS(STS(self.grid), n_jobs=self.n_jobs)
        packed = _histogram_sum("repro_parallel_shm_pack_seconds")
        cpu = cpu_seconds()
        with ledger.span("parallel.pairwise") as span:
            matrix = engine.pairwise(self.d2, self.d1)
        cpu = cpu_seconds() - cpu
        ledger.derived(
            span, "parallel.arena_pack",
            _histogram_sum("repro_parallel_shm_pack_seconds") - packed,
        )
        health = engine.last_health
        outcome = self._outcome(np.asarray(matrix))
        outcome.counts = {
            "pairs": matrix.size,
            "cpu_util": cpu / (span.duration * self.n_jobs),
            "chunks": health.n_chunks if health else 0,
            "retries": health.retries if health else 0,
            "degradations": len(health.degradations) if health else 0,
        }
        return outcome

    def checks(self, outcomes: list[Outcome]) -> dict[str, str | None]:
        out = super().checks(outcomes)
        serial = STS(self.grid).pairwise(self.d2, queries=self.d1)
        out["serial_digest"] = (
            None if digest(serial) == digest(outcomes[0].output)
            else "n_jobs=2 matrix differs from the serial matrix"
        )
        return out


# ----------------------------------------------------------------------
# Linking: one query against a gallery per operation (closed loop, 1 client)
# ----------------------------------------------------------------------
class LinkWorkload(Workload):
    clustered = False

    def __init__(self, seed: int, scale: str):
        super().__init__(seed, scale)
        self.raw = taxi_fleet(
            seed, self.sizes["link_taxis"], self.sizes["reports"], self.sizes["link_span"]
        )
        self.order = spread_order(len(self.raw))
        self.service = None

    def setup(self) -> None:
        self.grid = Grid(*TAXI_GRID)
        self.queries, self.gallery = build_matching_pair(_load(self.raw))
        self.measure = STS(self.grid)
        if self.clustered:
            # One shard: with two, every query waits for the slower of two
            # replicas, and on a 2-CPU machine that raised the run-to-run
            # spread of the latency by half.
            self.service = ClusterService(self.measure, self.gallery, n_shards=1, n_replicas=1)
            self.service.health_check()
            # Replicas score views of their shard's arena, so the parent's
            # estimators cannot warm them: one query that overlaps nothing
            # in time builds every replica's gallery estimators.
            centre = (TAXI_GRID[0] + TAXI_GRID[2]) / 2.0
            probe = Trajectory.from_arrays([centre] * 2, [centre] * 2, [-1e6, -1e6 + 15.0])
            self.service.query_scores(probe, cols=list(range(len(self.gallery))))
        else:
            for g in self.gallery:
                self.measure.stp_for(g)
        self.matcher = _time_filtered(self.measure, self.service)

    def available(self, k: int) -> bool:
        return k < len(self.order)

    def prepare(self, k: int) -> int:
        """The query the ``k``-th operation links (an index into D1)."""
        return self.order[k]

    def _outcome(self, q: int, ranked: list[tuple[int, float]], scored: int, coverage: float) -> Outcome:
        scores = np.array([s for _i, s in ranked])
        problems = [] if coverage >= 1.0 else [f"coverage {coverage:.3f} < 1"]
        if not ranked:
            problems.append("no candidate survived the filters")
        hit = int(bool(ranked) and ranked[0][0] == q)
        return Outcome(scored, scores, hit, 1, ranked, problems, key=q)

    def run(self, q: int) -> Outcome:
        report = self.matcher.query(self.queries[q], self.gallery, k=TOP_K)
        ranked = [(m.index, m.score) for m in report.matches]
        return self._outcome(q, ranked, report.candidates_scored, report.coverage)

    def traced(self, q: int, ledger: Ledger) -> Outcome:
        if {"index.filter", "cluster.query"} & set(ABSENT):
            return self.run(q)
        query = self.queries[q]
        counts: dict = {}
        with ledger.span("index.filter"):
            surviving = [int(i) for i in self.matcher.candidates(query, self.gallery)]
        coverage = 1.0
        if self.clustered:
            with ledger.span("cluster.query") as span:
                by_index, report = self.service.query_scores(query, cols=surviving)
            ledger.derived(span, "cluster.worker_score", _worker_seconds(report.trace))
            kept = [(i, by_index[i]) for i in surviving if i in by_index]
            coverage = report.coverage
            counts.update(
                coverage_min=coverage, hedges_fired=report.hedges_fired,
                failovers=report.failovers, restarts=report.restarts,
            )
        else:
            ffts = _plane_ffts()
            estimators = _build(ledger, self.measure, [query])
            if estimators:
                estimators += [self.measure.stp_for(self.gallery[i]) for i in surviving]
            before = _result_cache(estimators)
            kept = [
                (i, traced_similarity(ledger, self.measure, query, self.gallery[i], True, counts))
                for i in surviving
            ]
            counts.update(_cache_counts(before, _result_cache(estimators)))
            counts.update(builds=1, plane_ffts=_plane_ffts() - ffts)
        ranked = sorted(kept, key=lambda m: -m[1])[:TOP_K]
        _snapshot(ledger)
        counts.update(pairs=len(surviving), survivor_ratio=len(surviving) / len(self.gallery))
        outcome = self._outcome(q, ranked, len(surviving), coverage)
        outcome.counts = counts
        return outcome

    def reference(self, q: int, first) -> object:
        # Each operation links a different query: re-run this one untraced,
        # as a new object so its estimator is built again.
        report = self.matcher.query(_copy(self.queries[q]), self.gallery, k=TOP_K)
        return [(m.index, m.score) for m in report.matches]

    def agree(self, a, b) -> float:
        if [i for i, _s in a] != [i for i, _s in b]:
            return float("inf")
        return max((abs(x - y) for (_i, x), (_j, y) in zip(a, b)), default=0.0)

    def pids(self) -> list[int]:
        if self.service is None:
            return []
        return [pid for pid in self.service.replica_pids().values() if pid is not None]

    def checks(self, outcomes: list[Outcome]) -> dict[str, str | None]:
        # A fresh in-process matcher has cold caches and no cluster, so it
        # must rank the first queries exactly as the run did.
        fresh = _time_filtered(STS(self.grid))
        worst = 0.0
        for outcome in outcomes[:3]:
            report = fresh.query(self.queries[outcome.key], self.gallery, k=TOP_K)
            worst = max(worst, self.agree(outcome.output, [(m.index, m.score) for m in report.matches]))
        return {
            "in_process": None if worst == 0.0
            else f"top-{TOP_K} differs from a fresh in-process matcher by {worst:.3g}",
        }

    def digests(self, outcomes: list[Outcome]) -> dict:
        return {
            "top5": [
                digest(np.array([i for i, _s in o.output]), np.array([s for _i, s in o.output]))[:16]
                for o in outcomes
            ]
        }

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


def spread_order(n: int) -> list[int]:
    """``0 .. n-1`` in golden-ratio stride order.

    Queries near either end of the gallery's time span overlap fewer
    gallery trajectories, so they have fewer survivors and link faster.
    In index order a slow run would time a larger share of them than a
    fast one; in this order every prefix samples the whole span evenly,
    so the op mix does not depend on how many ops fit in the run.
    """
    stride = max(1, round(0.618 * n))
    while math.gcd(stride, n) != 1:
        stride += 1
    return [(i * stride) % n for i in range(n)]


def _time_filtered(measure: STS, cluster=None) -> FilteredMatcher:
    """A matcher that filters candidates by time overlap only.

    The bounding-box and cell-signature filters keep a share of the
    temporal candidates that depends on where the seed's trips happen to
    drive (survivors per query varied by 15 % between seeds); the time
    filter keeps a share fixed by the input structure, so seeds differ in
    geometry but not in work.
    """
    return FilteredMatcher(measure, grid=None, spatial_slack=None, cluster=cluster)


def _worker_seconds(trace_events) -> float:
    """Longest replica scoring span of one scatter-gather (its critical path)."""
    durations = [e["dur"] for e in trace_events or () if e.get("name") == "cluster.worker.score"]
    return max(durations, default=0.0) / 1e6


class TaxiLink(LinkWorkload):
    name = "taxi-link"


class ClusterLink(LinkWorkload):
    name = "cluster-link"
    clustered = True

    def __init__(self, seed: int, scale: str):
        # The replica scores while this process waits for it, and the drift
        # probe runs in this process.  On one CPU (inherited by the replica)
        # the probe times the CPU that does the scoring: over ten seeds that
        # cut the latency's spread from 11-21 % to 5 %.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        super().__init__(seed, scale)


# ----------------------------------------------------------------------
# Streaming co-location: offer one epoch, then evaluate every pair
# ----------------------------------------------------------------------
class StreamTicks(Workload):
    name = "stream-ticks"

    def __init__(self, seed: int, scale: str):
        super().__init__(seed, scale)
        self.epoch = stream_epoch(seed, self.sizes["stream_pairs"], self.sizes["stream_sightings"])
        n = 2 * self.sizes["stream_pairs"]
        self.n_pairs = n * (n - 1) // 2

    def setup(self) -> None:
        self.grid = Grid(*STREAM_GRID)
        self.detector = StreamingColocationDetector(self.grid, window=EPOCH_S)
        for event in self.prepare(-1):
            self.detector.offer(event)
        self.detector.drain()

    def prepare(self, k: int) -> list[SightingEvent]:
        shift = (k + 1) * TICK_SHIFT_S
        return [SightingEvent(oid, x, y, t + shift) for oid, x, y, t in self.epoch]

    def _outcome(self, scores: dict, scored: int, problems: list[str]) -> Outcome:
        best: dict[str, tuple[float, str]] = {}
        for (a, b), value in scores.items():
            for me, other in ((a, b), (b, a)):
                if me not in best or value > best[me][0]:
                    best[me] = (value, other)
        hits = sum(int(me[4:]) // 2 == int(other[4:]) // 2 for me, (_v, other) in best.items())
        values = np.array(list(scores.values()))
        return Outcome(scored, values, hits, 2 * self.sizes["stream_pairs"], scores, problems)

    def run(self, events) -> Outcome:
        for event in events:
            self.detector.offer(event)
        scores = self.detector.evaluate()
        health = self.detector.last_health
        problems = []
        if health.pairs_scored != self.n_pairs:
            problems.append(f"scored {health.pairs_scored} of {self.n_pairs} pairs")
        bad = health.pairs_shed + health.pairs_partial + health.degenerate_pairs
        if bad or health.shed_events:
            problems.append("shed, partial or degenerate pairs")
        return self._outcome(
            {(s.object_a, s.object_b): s.similarity for s in scores}, health.pairs_scored, problems
        )

    def traced(self, events, ledger: Ledger) -> Outcome:
        """``evaluate()``: drain and window, a fresh measure, every pair cold."""
        counts: dict = {}
        detector = self.detector
        with ledger.span("streaming.offer"):
            for event in events:
                detector.offer(event)
        with ledger.span("streaming.window"):
            detector.drain()
            windows = {oid: detector.window_of(oid) for oid in detector.active_objects}
            scorable = sorted(oid for oid, w in windows.items() if len(w) >= detector.min_points)
        measure = STS(self.grid)
        ffts = _plane_ffts()
        estimators = _build(ledger, measure, [windows[oid] for oid in scorable])
        scores = {}
        for i, a in enumerate(scorable):
            for b in scorable[i + 1:]:
                value = traced_similarity(ledger, measure, windows[a], windows[b], True, counts)
                if value > 0.0:
                    scores[(a, b)] = value
        _snapshot(ledger)
        scored = len(scorable) * (len(scorable) - 1) // 2
        counts.update(
            builds=len(estimators), pairs=scored, plane_ffts=_plane_ffts() - ffts,
            shed_events=detector.shed_events,
        )
        counts.update(_cache_counts((0, 0), _result_cache(estimators)))
        outcome = self._outcome(scores, scored, [])
        outcome.counts = counts
        return outcome

    def agree(self, a: dict, b: dict) -> float:
        keys = set(a) | set(b)
        return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys), default=0.0)

    def checks(self, outcomes: list[Outcome]) -> dict[str, str | None]:
        worst = max(self.agree(o.output, outcomes[0].output) for o in outcomes)
        return {
            "ticks_agree": None if worst <= AGREE_ATOL
            else f"ticks differ from the first timed tick by {worst:.3g}",
        }

    def digests(self, outcomes: list[Outcome]) -> dict:
        items = sorted(outcomes[0].output.items())
        return {"scores": digest(np.array([v for _k, v in items]))}


WORKLOADS = {w.name: w for w in (TaxiMatch, SyncMatch, TaxiMatchN2, TaxiLink, ClusterLink, StreamTicks)}
