"""Anytime evaluation of the STS measure (Eq. 10) under a budget.

``STS(Tra, Tra') = ( Σ_i CP(t_i) + Σ_j CP(t'_j) ) / ( |Tra| + |Tra'| )``
is an average of ``N = |Tra| + |Tra'|`` co-location terms, each in
``[0, 1]``.  That structure makes the measure *anytime-evaluable* with a
rigorous error interval:

* a term at a timestamp outside the overlap of the two observed time
  spans is **exactly 0** (Eq. 5 case 3: one STP distribution is empty) —
  all such terms are resolved instantly, for free;
* every evaluated term contributes its exact value;
* every unevaluated in-overlap term lies in ``[0, 1]``.

So after evaluating a subset, the exact Eq. 10 score provably lies
between the reduction with every outstanding in-overlap term set to 0
and the same reduction with them set to 1.  :func:`anytime_similarity`
evaluates terms in *best-first* order — in-overlap timestamps sorted by
the distance between the two linearly-interpolated positions, closest
first, so the terms most likely to carry co-location mass are resolved
early and the lower bound climbs as fast as possible — in small batches
through the vectorized :func:`~repro.core.colocation.colocation_batch`
path, checking the :class:`~repro.serving.budget.Budget` between batches.

Each term is the canonical Eq. 9 value of the block kernel
(:mod:`repro.core.kernel`): the ascending-cell sum of its two
distributions' products, independent of how terms are batched.  The
score is the kernel's reduction — each trajectory's terms added
sequentially in timestamp order (:func:`~repro.core.kernel.
sequential_sum`), then :func:`~repro.core.kernel.eq10` — so a run whose
budget never expires returns **bitwise** the same score as
:meth:`repro.core.sts.STS.similarity`.  Both bounds come from that same
reduction, and IEEE addition is monotone (``a ≤ b`` implies
``fl(a + c) ≤ fl(b + c)``), so ``lower ≤ exact ≤ upper`` holds for the
rounded values too, not just for the real numbers they approximate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.colocation import colocation_batch
from ..core.kernel import eq10, sequential_sum
from ..core.trajectory import Trajectory
from ..errors import DegenerateTrajectoryError
from .budget import Budget

__all__ = ["AnytimeScore", "anytime_similarity", "filter_only_estimate"]

#: Terms per colocation batch: large enough to amortize the vectorized
#: segment pass, small enough that one batch bounds the deadline overshoot.
DEFAULT_BATCH_SIZE = 32


@dataclass(frozen=True)
class AnytimeScore:
    """A (possibly partial) STS score with a rigorous error interval.

    ``lower <= exact STS <= upper`` always holds; when ``completed`` is
    true the three coincide and ``value`` is bitwise what
    :meth:`~repro.core.sts.STS.similarity` returns.  A partial score's
    ``value`` is the interval midpoint — the minimax estimate given only
    the bound.
    """

    value: float
    lower: float
    upper: float
    evaluated_terms: int
    total_terms: int
    completed: bool
    rung: str = "full"
    elapsed_ms: float = 0.0

    @property
    def bounds(self) -> tuple[float, float]:
        """The rigorous ``(lower, upper)`` interval around the exact score."""
        return (self.lower, self.upper)

    @property
    def width(self) -> float:
        """Interval width — 0 for a completed score."""
        return self.upper - self.lower

    def __float__(self) -> float:
        return self.value

    def __str__(self) -> str:
        if self.completed:
            return f"{self.value:.4f} (exact, rung={self.rung})"
        return (
            f"{self.value:.4f} ∈ [{self.lower:.4f}, {self.upper:.4f}] "
            f"({self.evaluated_terms}/{self.total_terms} terms, rung={self.rung})"
        )


def _best_first_order(
    tra1: Trajectory, tra2: Trajectory, times: np.ndarray
) -> np.ndarray:
    """Indices of in-overlap terms, most-promising first.

    The proxy priority is the distance between the two trajectories'
    linearly-interpolated positions at each timestamp — cheap (one
    ``np.interp`` per axis per trajectory) and monotone enough in the
    true co-location probability to front-load the mass.  Terms outside
    the span overlap are excluded: their CP is exactly 0.
    """
    lo = max(tra1.start_time, tra2.start_time)
    hi = min(tra1.end_time, tra2.end_time)
    if lo > hi:
        return np.empty(0, dtype=int)
    candidates = np.nonzero((times >= lo) & (times <= hi))[0]
    if candidates.size == 0:
        return candidates
    ts = times[candidates]
    t1, xy1 = tra1.timestamps, tra1.xy
    t2, xy2 = tra2.timestamps, tra2.xy
    dx = np.interp(ts, t1, xy1[:, 0]) - np.interp(ts, t2, xy2[:, 0])
    dy = np.interp(ts, t1, xy1[:, 1]) - np.interp(ts, t2, xy2[:, 1])
    gap = np.hypot(dx, dy)
    return candidates[np.argsort(gap, kind="stable")]


def anytime_similarity(
    measure,
    tra1: Trajectory,
    tra2: Trajectory,
    budget: Budget | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    rung: str = "full",
) -> AnytimeScore:
    """Eq. 10 evaluated best-first until ``budget`` expires.

    ``measure`` is any object exposing the STS-style
    ``stp_for(trajectory)`` entry point (its caches are shared, so an
    anytime call warms the same state an exact call would).  With an
    unbounded (or ``None``) budget the result is complete and bitwise
    equal to ``measure.similarity(tra1, tra2)``.
    """
    if len(tra1) == 0 or len(tra2) == 0:
        raise DegenerateTrajectoryError("STS is undefined for empty trajectories")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    budget = (budget if budget is not None else Budget.unbounded()).start()

    stp1 = measure.stp_for(tra1)
    stp2 = measure.stp_for(tra2)
    times = np.concatenate([tra1.timestamps, tra2.timestamps])
    n_terms = times.size
    cps = np.zeros(n_terms)
    order = _best_first_order(tra1, tra2, times)

    evaluated = 0
    while evaluated < order.size:
        if budget.expired(evaluated):
            break
        allowance = budget.terms_allowance(evaluated)
        take = min(batch_size, order.size - evaluated)
        if allowance < take:
            take = int(allowance)
        if take <= 0:
            break
        batch = order[evaluated : evaluated + take]
        cps[batch] = colocation_batch(stp1, stp2, times[batch])
        evaluated += take

    outstanding = int(order.size - evaluated)
    n1 = len(tra1)

    def reduce(terms: np.ndarray) -> float:
        return eq10(
            sequential_sum(terms[:n1]), sequential_sum(terms[n1:]), n1, n_terms - n1
        )

    lower = reduce(cps)
    if outstanding:
        cps[order[evaluated:]] = 1.0
        upper = reduce(cps)
    else:
        upper = lower
    completed = outstanding == 0
    value = lower if completed else 0.5 * (lower + upper)
    return AnytimeScore(
        value=value,
        lower=lower,
        upper=upper,
        evaluated_terms=evaluated,
        total_terms=n_terms,
        completed=completed,
        rung=rung,
        elapsed_ms=budget.elapsed_ms(),
    )


def filter_only_estimate(
    tra1: Trajectory, tra2: Trajectory, elapsed_ms: float = 0.0
) -> AnytimeScore:
    """The last degradation rung: a bound from temporal overlap alone.

    No STP machinery runs at all.  Every Eq. 10 term outside the span
    overlap is exactly 0, so ``STS <= (#terms inside the overlap) / N``
    — a rigorous upper bound computable with two ``searchsorted`` calls.
    With zero overlap the score is *exactly* 0 and the result is
    complete; otherwise the bound is open and ``value`` is its midpoint.
    """
    if len(tra1) == 0 or len(tra2) == 0:
        raise DegenerateTrajectoryError("STS is undefined for empty trajectories")
    n_terms = len(tra1) + len(tra2)
    lo = max(tra1.start_time, tra2.start_time)
    hi = min(tra1.end_time, tra2.end_time)
    inside = 0
    if lo <= hi:
        for tra in (tra1, tra2):
            ts = tra.timestamps
            inside += int(np.searchsorted(ts, hi, side="right") - np.searchsorted(ts, lo, side="left"))
    upper = inside / n_terms
    completed = inside == 0
    return AnytimeScore(
        value=0.0 if completed else 0.5 * upper,
        lower=0.0,
        upper=upper,
        evaluated_terms=0,
        total_terms=n_terms,
        completed=completed,
        rung="filter-only",
        elapsed_ms=elapsed_ms,
    )
