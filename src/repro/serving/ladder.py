"""The degradation ladder: trade accuracy for latency, rung by rung.

:class:`DeadlineScorer` wraps an exact :class:`~repro.core.sts.STS`
measure and scores pairs under a :class:`~repro.serving.budget.Budget`
by descending a fixed ladder until something finishes in time:

1. ``full`` — anytime evaluation on the configured grid.  Completing
   here is *bitwise* the unbounded ``STS.similarity`` result.
2. ``coarse-2x`` / ``coarse-4x`` — the same measure rebuilt on a
   2×/4×-coarsened grid (:meth:`~repro.core.grid.Grid.coarsen`).
   Quadratically fewer cells make the STP distributions far cheaper, at
   the cost of spatial resolution.
3. ``filter-only`` — no STP machinery at all: the rigorous bound from
   temporal-overlap counting (:func:`~repro.serving.anytime.filter_only_estimate`).

Every rung gets a :meth:`~repro.serving.budget.Budget.sub_budget` slice
of the *remaining* deadline, so one pathological rung cannot eat the
whole call.  Whatever rung answers, the returned
:class:`~repro.serving.anytime.AnytimeScore` carries an interval that
provably contains the exact full-grid score:

* a completed ``full`` run is exact (zero-width interval);
* a partial ``full`` run carries its own evaluated/unevaluated bound;
* coarse-grid scores approximate a *different* discretization, so their
  value is reported as the estimate but their interval falls back to the
  always-valid filter bound ``[0, n_overlap / N]`` (clipping the value
  into it);
* ``filter-only`` is that bound itself.

The per-pair rung taken is recorded through
:meth:`~repro.serving.health.ServiceHealth.take_rung`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Sequence

from ..core.sts import STS
from ..core.trajectory import Trajectory
from ..obs import get_registry, trace_span
from .anytime import AnytimeScore, anytime_similarity, filter_only_estimate
from .budget import Budget
from .health import ServiceHealth

__all__ = ["DeadlineScorer"]

#: Fraction of the remaining deadline granted to each computing rung
#: (full, then one entry per coarse factor).  The trailing rung —
#: filter-only — is effectively free and needs no slice.
DEFAULT_RUNG_FRACTIONS = (0.5, 0.6, 0.8)


class DeadlineScorer:
    """Budgeted STS scoring over a full → coarse → filter-only ladder.

    Parameters
    ----------
    measure:
        The exact :class:`~repro.core.sts.STS` instance; rung 1 scores on
        it directly (sharing its caches with the batch path).
    coarse_factors:
        Cell-merge factors for the intermediate rungs, finest first.
    rung_fractions:
        Per-rung share of the *remaining* deadline, one entry per
        computing rung (``1 + len(coarse_factors)`` of them).
    batch_size:
        Terms per anytime batch; bounds the deadline overshoot.
    registry:
        Metrics registry receiving per-rung counters and scoring-latency
        histograms.  Defaults to the wrapped measure's registry so batch
        and serving metrics land in one place.
    """

    def __init__(
        self,
        measure: STS,
        coarse_factors: Sequence[int] = (2, 4),
        rung_fractions: Sequence[float] | None = None,
        batch_size: int = 32,
        registry=None,
    ):
        if rung_fractions is None:
            rung_fractions = DEFAULT_RUNG_FRACTIONS[: 1 + len(coarse_factors)]
        if len(rung_fractions) != 1 + len(coarse_factors):
            raise ValueError(
                f"need {1 + len(coarse_factors)} rung fractions "
                f"(full + one per coarse factor), got {len(rung_fractions)}"
            )
        for factor in coarse_factors:
            if int(factor) != factor or factor < 2:
                raise ValueError(f"coarse factors must be integers >= 2, got {factor}")
        self.measure = measure
        self.coarse_factors = tuple(int(f) for f in coarse_factors)
        self.rung_fractions = tuple(float(f) for f in rung_fractions)
        self.batch_size = batch_size
        self._coarse: dict[int, STS] = {}
        if registry is not None:
            self._registry = registry
        else:
            self._registry = getattr(measure, "_registry", None) or get_registry()
        rung_counter = self._registry.counter(
            "repro_ladder_rung_total", "Degradation-ladder rungs taken per pair"
        )
        self._m_rung = {
            rung: rung_counter.child(rung=rung) for rung in self.rungs
        }
        self._h_score = self._registry.histogram(
            "repro_serving_score_seconds", "Wall seconds per DeadlineScorer.score call"
        ).child()

    # ------------------------------------------------------------------
    def coarse_measure(self, factor: int) -> STS:
        """The (lazily built, cached) measure on the ``factor``×-merged grid."""
        measure = self._coarse.get(factor)
        if measure is None:
            measure = STS(
                self.measure.grid.coarsen(factor),
                noise_model=self.measure.noise_model,
                transition=self.measure._transition_factory,
                stp_cache_size=self.measure.stp_cache_size,
                registry=self._registry,
            )
            measure.name = f"{self.measure.name}@{factor}x"
            self._coarse[factor] = measure
        return measure

    @property
    def rungs(self) -> tuple[str, ...]:
        """Ladder rung names, best first."""
        return ("full", *(f"coarse-{f}x" for f in self.coarse_factors), "filter-only")

    # ------------------------------------------------------------------
    def score(
        self,
        tra1: Trajectory,
        tra2: Trajectory,
        budget: Budget | None = None,
        health: ServiceHealth | None = None,
        subject: str = "",
    ) -> AnytimeScore:
        """Score one pair within ``budget``, descending rungs as needed."""
        t0 = perf_counter()
        try:
            with trace_span("serving.score"):
                return self._score_inner(tra1, tra2, budget, health, subject)
        finally:
            self._h_score.observe(perf_counter() - t0)

    def _count_rung(self, rung: str) -> None:
        handle = self._m_rung.get(rung)
        if handle is not None:
            handle.inc()

    def _score_inner(
        self,
        tra1: Trajectory,
        tra2: Trajectory,
        budget: Budget | None,
        health: ServiceHealth | None,
        subject: str,
    ) -> AnytimeScore:
        budget = (budget if budget is not None else Budget.unbounded()).start()
        if not budget.bounded:
            result = anytime_similarity(
                self.measure, tra1, tra2, budget=budget, batch_size=self.batch_size
            )
            self._count_rung(result.rung)
            if health is not None:
                health.take_rung(result.rung, subject)
            return result

        best_partial: AnytimeScore | None = None
        ladder = [("full", self.measure)] + [
            (f"coarse-{f}x", self.coarse_measure(f)) for f in self.coarse_factors
        ]
        for (rung, measure), fraction in zip(ladder, self.rung_fractions):
            if budget.expired():
                break
            slice_budget = budget.sub_budget(
                fraction, max_terms=budget.max_terms if rung == "full" else None
            )
            result = anytime_similarity(
                measure, tra1, tra2, budget=slice_budget, batch_size=self.batch_size, rung=rung
            )
            if result.completed:
                if rung != "full":
                    result = self._with_filter_bounds(result, tra1, tra2, budget)
                self._count_rung(rung)
                if health is not None:
                    health.take_rung(rung, subject, f"completed in {result.elapsed_ms:.1f} ms")
                return self._stamped(result, budget)
            if rung == "full":
                # Only the full-grid partial carries a bound on the exact
                # score; coarse partials approximate a different grid.
                best_partial = result

        fallback = filter_only_estimate(tra1, tra2, elapsed_ms=budget.elapsed_ms())
        if best_partial is not None and best_partial.width <= fallback.width:
            chosen = best_partial
        else:
            chosen = fallback
        self._count_rung(chosen.rung)
        if health is not None:
            health.take_rung(
                chosen.rung,
                subject,
                f"partial: {chosen.evaluated_terms}/{chosen.total_terms} terms",
            )
        return self._stamped(chosen, budget)

    # ------------------------------------------------------------------
    def _with_filter_bounds(
        self, result: AnytimeScore, tra1: Trajectory, tra2: Trajectory, budget: Budget
    ) -> AnytimeScore:
        """Re-bound a coarse-grid score with the always-valid filter interval."""
        bound = filter_only_estimate(tra1, tra2)
        value = min(max(result.value, bound.lower), bound.upper)
        return AnytimeScore(
            value=value,
            lower=bound.lower,
            upper=bound.upper,
            evaluated_terms=result.evaluated_terms,
            total_terms=result.total_terms,
            completed=False,
            rung=result.rung,
            elapsed_ms=budget.elapsed_ms(),
        )

    @staticmethod
    def _stamped(result: AnytimeScore, budget: Budget) -> AnytimeScore:
        """The result with ``elapsed_ms`` measured against the call budget."""
        if result.elapsed_ms == budget.elapsed_ms():
            return result
        return AnytimeScore(
            value=result.value,
            lower=result.lower,
            upper=result.upper,
            evaluated_terms=result.evaluated_terms,
            total_terms=result.total_terms,
            completed=result.completed,
            rung=result.rung,
            elapsed_ms=budget.elapsed_ms(),
        )

    def __repr__(self) -> str:
        return (
            f"DeadlineScorer(measure={self.measure.name}, "
            f"rungs={list(self.rungs)!r})"
        )
