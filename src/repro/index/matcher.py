"""Filtered gallery matching: pre-filter, then score only the survivors.

:class:`FilteredMatcher` wires the lossless/cheap candidate filters of
:mod:`repro.index.filters` in front of any similarity measure.  For the
trajectory-linking workload (one query against a large gallery) this
replaces ``n`` expensive measure calls with ``n`` cheap interval/box
checks plus ``k ≪ n`` measure calls — the standard filter-and-refine
pattern of spatial databases.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..core.grid import Grid
from ..core.trajectory import Trajectory
from ..eval.queries import RankedMatch
from ..obs import Span, get_registry, spans_to_chrome, trace_span
from ..serving.budget import Budget
from ..serving.health import ServiceEvent, ServiceHealth
from .filters import bounding_box_filter, cell_signature_filter, time_overlap_filter

__all__ = ["FilteredMatcher", "MatchReport"]


@dataclass(frozen=True)
class MatchReport:
    """Outcome of one filtered query: ranked survivors plus filter stats.

    ``health`` is populated only by deadline-bounded queries; it records
    the degradation rungs taken per candidate and any candidates shed
    when the deadline expired (shed candidates are absent from
    ``matches`` and excluded from ``candidates_scored``).
    """

    matches: list[RankedMatch]
    gallery_size: int
    candidates_scored: int
    health: ServiceHealth | None = None
    #: Metrics snapshot taken when the query finished (None when obs is off).
    metrics: dict | None = None
    #: Fraction of the gallery actually consulted.  1.0 on the
    #: single-process path; below 1.0 only when a cluster query had to
    #: skip shards — the skipped candidates are *absent* from ``matches``,
    #: never silently zero-scored.
    coverage: float = 1.0
    #: Cluster shards that could not be consulted at all.
    shards_skipped: tuple[int, ...] = ()
    #: Cluster shards that answered only via failover/hedge/restart.
    shards_degraded: tuple[int, ...] = ()
    #: Full per-query cluster account (None off the cluster path).
    cluster: object | None = None
    #: Chrome ``trace_event`` list for this query (None when obs is off):
    #: the ``matcher.query`` span with its filter/refine children and —
    #: on the cluster path — every replica's stitched scoring subtree.
    trace: list | None = None

    @property
    def filter_rate(self) -> float:
        """Fraction of the gallery discarded before scoring."""
        if self.gallery_size == 0:
            return 0.0
        return 1.0 - self.candidates_scored / self.gallery_size

    @property
    def complete(self) -> bool:
        """Whether every shard of the gallery was consulted."""
        return self.coverage >= 1.0

    def __str__(self) -> str:
        base = (
            f"scored {self.candidates_scored}/{self.gallery_size} candidates "
            f"({self.filter_rate:.0%} filtered)"
        )
        if self.coverage < 1.0:
            base += (
                f"; PARTIAL coverage {self.coverage:.2%}, "
                f"shards skipped {list(self.shards_skipped)}"
            )
        elif self.shards_degraded:
            base += f"; degraded shards {list(self.shards_degraded)}"
        return base


class FilteredMatcher:
    """Filter-and-refine matcher around any trajectory measure.

    Parameters
    ----------
    measure:
        Anything with ``score(a, b)`` oriented higher = more similar
        (e.g. :class:`~repro.core.sts.STS` or any
        :class:`~repro.similarity.base.Measure`).
    grid:
        Optional grid enabling the cell-signature filter (``None``
        disables that stage).
    spatial_slack:
        Bounding-box slack in meters (cover noise support + drift); pass
        ``None`` to disable the bounding-box stage.
    min_time_overlap:
        Minimum shared seconds required by the time filter.
    signature_dilation:
        Dilation (in cells) of the query signature for the cell filter;
        only used when ``grid`` is given.
    cluster:
        Optional :class:`~repro.cluster.ClusterService` built from the
        gallery: survivors are then refined in parallel across its shard
        workers.  Without it, refine runs in-process.
    """

    def __init__(
        self,
        measure,
        grid: Grid | None = None,
        spatial_slack: float | None = 0.0,
        min_time_overlap: float = 0.0,
        signature_dilation: int = 2,
        cluster=None,
        registry=None,
    ):
        self.measure = measure
        self.grid = grid
        self.spatial_slack = spatial_slack
        self.min_time_overlap = float(min_time_overlap)
        self.signature_dilation = int(signature_dilation)
        #: Optional :class:`~repro.cluster.ClusterService` — when set,
        #: survivor refinement is scatter-gathered across its shard
        #: workers (with failover/hedging) instead of scored in-process,
        #: and MatchReports carry the cluster's coverage semantics.
        self.cluster = cluster
        # Share the measure's registry when it has one, so filter and
        # refine metrics land next to the scoring metrics.
        if registry is not None:
            self._registry = registry
        else:
            self._registry = getattr(measure, "_registry", None) or get_registry()
        candidates_counter = self._registry.counter(
            "repro_matcher_candidates_total", "Gallery candidates by filter outcome"
        )
        self._m_considered = candidates_counter.child(stage="considered")
        self._m_survived = candidates_counter.child(stage="survived")
        self._m_scored = candidates_counter.child(stage="scored")
        self._h_query = self._registry.histogram(
            "repro_matcher_query_seconds", "Wall seconds per FilteredMatcher.query call"
        ).child()

    # ------------------------------------------------------------------
    def candidates(self, query: Trajectory, gallery: list[Trajectory]) -> np.ndarray:
        """Indices of gallery entries surviving every enabled filter."""
        surviving = time_overlap_filter(query, gallery, min_overlap=self.min_time_overlap)
        if self.spatial_slack is not None and surviving.size:
            subset = [gallery[i] for i in surviving]
            box_keep = bounding_box_filter(query, subset, slack=self.spatial_slack)
            surviving = surviving[box_keep]
        if self.grid is not None and surviving.size:
            subset = [gallery[i] for i in surviving]
            sig_keep = cell_signature_filter(
                query, subset, self.grid, dilation=self.signature_dilation
            )
            surviving = surviving[sig_keep]
        return surviving

    def query(
        self,
        query: Trajectory,
        gallery: list[Trajectory],
        k: int | None = None,
        deadline: float | None = None,
        budget: Budget | None = None,
    ) -> MatchReport:
        """Rank the surviving candidates; optionally keep only the top ``k``.

        Filtered-out candidates are *omitted* from the result (their score
        is a guaranteed/near-guaranteed zero), so an empty ``matches`` list
        means "nothing in the gallery plausibly overlaps this query".

        ``deadline`` (wall-clock seconds) or ``budget`` bounds the
        refine stage: candidates are scored through the
        :class:`~repro.serving.DeadlineScorer` degradation ladder in an
        equal share of the remaining time each; candidates the deadline
        cannot reach are shed (recorded in the report's ``health``, and
        absent from ``matches``).  The filter stage always runs — it is
        the cheap part and every later rung depends on it.
        """
        if k is not None and k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if deadline is not None and budget is not None:
            raise ValueError("pass either deadline or budget, not both")
        if deadline is not None:
            if deadline < 0:
                raise ValueError(f"deadline must be >= 0 seconds, got {deadline}")
            budget = Budget(deadline_ms=deadline * 1000.0)
        t0 = perf_counter()
        with trace_span("matcher.query", gallery=len(gallery)) as qspan:
            with trace_span("matcher.filter", gallery=len(gallery)) as fspan:
                surviving = self.candidates(query, gallery)
                if isinstance(fspan, Span):
                    fspan.attrs["survivors"] = int(surviving.size)
            self._m_considered.inc(len(gallery))
            self._m_survived.inc(int(surviving.size))
            subset = [gallery[int(i)] for i in surviving]
            health: ServiceHealth | None = None
            creport = None
            with trace_span("matcher.refine", survivors=int(surviving.size)):
                if self.cluster is not None:
                    keep, scores, creport, health = self._score_survivors_cluster(
                        query, gallery, surviving, budget
                    )
                    surviving = surviving[keep]
                    subset = [subset[i] for i in keep]
                elif budget is not None and budget.bounded:
                    budget.start()
                    health = ServiceHealth(deadline_ms=budget.deadline_ms)
                    keep, scores = self._score_survivors_budgeted(query, subset, budget, health)
                    surviving = surviving[keep]
                    subset = [subset[i] for i in keep]
                else:
                    scores = self._score_survivors(query, subset)
            self._m_scored.inc(int(surviving.size))
            matches = [
                RankedMatch(index=int(i), trajectory=traj, score=float(s))
                for i, traj, s in zip(surviving, subset, scores)
            ]
            matches.sort(key=lambda m: -m.score)
            if k is not None:
                matches = matches[:k]
        self._h_query.observe(perf_counter() - t0)
        return MatchReport(
            matches=matches,
            gallery_size=len(gallery),
            candidates_scored=int(surviving.size),
            health=health,
            metrics=(
                self._registry.snapshot()
                if getattr(self._registry, "enabled", False)
                else None
            ),
            coverage=creport.coverage if creport is not None else 1.0,
            shards_skipped=creport.shards_skipped if creport is not None else (),
            shards_degraded=creport.shards_degraded if creport is not None else (),
            cluster=creport,
            trace=(
                spans_to_chrome([qspan]) if isinstance(qspan, Span) else None
            ),
        )

    def _score_survivors(self, query: Trajectory, subset: list[Trajectory]) -> list[float]:
        """Oriented scores of the query against each surviving candidate.

        A measure with a block kernel (STS) scores every survivor as one
        ``1 × k`` block; any other measure falls back to the ``score``
        loop.  Parallel refine is the cluster route (``cluster=``).
        """
        if not subset:
            return []
        kernel = getattr(self.measure, "similarity_block", None)
        if kernel is not None:
            return [float(s) for s in kernel([query], subset)[0]]
        return [float(self.measure.score(query, candidate)) for candidate in subset]

    def _score_survivors_cluster(
        self,
        query: Trajectory,
        gallery: list[Trajectory],
        surviving: np.ndarray,
        budget: Budget | None,
    ):
        """Scatter-gather the survivors across the cluster's shard workers.

        Returns ``(keep_positions, scores, ClusterReport, health)``.
        Candidates on skipped shards are dropped from the result (their
        score is *unknown*, not zero) — the report's ``coverage`` and
        ``shards_skipped`` make the gap explicit.  Kept positions stay in
        ascending gallery order, so with a healthy cluster the assembled
        ``matches`` list is bitwise identical to the single-process path.
        """
        if not self.cluster.matches_gallery(gallery):
            raise ValueError(
                "cluster service was packed from a different gallery than "
                "the one queried; rebuild the ClusterService for this corpus"
            )
        scores_by_index, creport = self.cluster.query_scores(
            query, cols=[int(i) for i in surviving], budget=budget
        )
        keep: list[int] = []
        scores: list[float] = []
        for pos, global_idx in enumerate(int(i) for i in surviving):
            if global_idx in scores_by_index:
                keep.append(pos)
                scores.append(scores_by_index[global_idx])
        health: ServiceHealth | None = None
        if budget is not None and budget.bounded:
            health = ServiceHealth(deadline_ms=budget.deadline_ms)
            health.pairs_scored = len(keep)
            shed = int(surviving.size) - len(keep)
            if shed:
                health.pairs_shed = shed
                health.deadline_hit = any(
                    "budget expired" in e for e in creport.events
                )
                for shard in creport.shards_skipped:
                    health.record(
                        ServiceEvent(
                            "shed-shard", f"shard-{shard}", "cluster shard skipped"
                        )
                    )
            health.elapsed_ms = budget.elapsed_ms()
        return keep, scores, creport, health

    def _score_survivors_budgeted(
        self,
        query: Trajectory,
        subset: list[Trajectory],
        budget: Budget,
        health: ServiceHealth,
    ) -> tuple[list[int], list[float]]:
        """Budgeted refine: positions kept (into ``subset``) and their scores.

        STS-style measures (anything exposing ``stp_for`` and a grid) go
        through the degradation ladder; other measures are scored
        directly until the budget expires.  Either way, candidates left
        when time runs out are shed and counted, never silently zeroed.
        """
        from ..serving.ladder import DeadlineScorer

        scorer = (
            DeadlineScorer(self.measure, registry=self._registry)
            if hasattr(self.measure, "stp_for") and hasattr(self.measure, "grid")
            else None
        )
        keep: list[int] = []
        scores: list[float] = []
        for idx, candidate in enumerate(subset):
            if budget.expired():
                shed = len(subset) - idx
                health.pairs_shed += shed
                health.deadline_hit = True
                for pos in range(idx, len(subset)):
                    subject = getattr(subset[pos], "object_id", None) or f"candidate-{pos}"
                    health.record(
                        ServiceEvent("shed-pair", str(subject), "deadline expired")
                    )
                break
            subject = getattr(candidate, "object_id", None) or f"candidate-{idx}"
            slice_budget = budget.sub_budget(
                1.0 / (len(subset) - idx), max_terms=budget.max_terms
            )
            if scorer is not None:
                result = scorer.score(
                    query, candidate, budget=slice_budget,
                    health=health, subject=str(subject),
                )
                if not result.completed:
                    health.pairs_partial += 1
                score = result.value
            else:
                score = float(self.measure.score(query, candidate))
                health.take_rung("full", str(subject))
            keep.append(idx)
            scores.append(score)
            health.pairs_scored += 1
        health.elapsed_ms = budget.elapsed_ms()
        if budget.deadline_ms is not None and health.elapsed_ms >= budget.deadline_ms:
            health.deadline_hit = True
        return keep, scores
