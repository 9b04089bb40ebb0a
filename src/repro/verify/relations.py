"""Executable metamorphic relations for the STS measure.

Each relation is a property the paper guarantees by construction, turned
into a check against the *production* estimator on the committed corpus.
Where the oracle (:mod:`repro.verify.oracle`) answers "does the
optimized code compute the same numbers as the equations", the relations
answer "does it still satisfy the invariants those equations imply" —
two independent nets for the same fish.

Catalogue (equation references are to PAPER.md):

``symmetry``
    STS(Tra, Tra') = STS(Tra', Tra), bitwise.  Eq. 10 is symmetric term
    by term, each term is computed the same way in both orientations, and
    the kernel reduces the two sums separately before adding them — IEEE
    addition commutes, so swapping the pair swaps two exact operands.
``block_invariance``
    Every entry of the corpus matrix is the same number however the
    matrix is cut: each sub-block (1×1 blocks and the transposed
    orientation included) equals the full matrix bitwise, because a
    term's value and the reduction depend only on the pair.
``unit_range``
    0 ≤ STS ≤ 1.  Each CP (Eq. 9) is an inner product of two
    sub-stochastic vectors, hence in [0, 1]; Eq. 10 averages them.
``time_shift``
    Translating *both* trajectories by the same Δt leaves STS unchanged:
    Eqs. 3–10 only consume time differences.  Not bitwise — shifted
    floats round differently — so checked to 1e-9 absolute.
``stp_norm``
    Eq. 5: inside the observed span the STP vector is a distribution
    (non-negative, sums to 1); at an exact observation time it *is* the
    Eq. 3 noise distribution (bitwise); outside the span it is empty.
``zero_overlap``
    Disjoint temporal spans ⇒ every Eq. 10 term is outside the other
    trajectory's span ⇒ STS is exactly 0.0 (bitwise).
``anytime_bounds``
    A budget-truncated evaluation must bracket the exact score
    (``lower ≤ exact ≤ upper``), and an unbounded one must be complete
    and bitwise equal to :meth:`STS.similarity`.
``coarse_rungs``
    Degradation rungs are valid lower-fidelity answers: a coarsened-grid
    score is still a score in [0, 1], and the filter-only interval
    contains the exact full-fidelity score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.trajectory import Trajectory
from ..serving.anytime import anytime_similarity, filter_only_estimate
from ..serving.budget import Budget
from ..serving.ladder import DeadlineScorer
from .corpus import VerificationCorpus, verification_corpus

__all__ = ["RelationResult", "Relation", "RELATIONS", "run_relations"]


@dataclass(frozen=True)
class RelationResult:
    """Outcome of one relation instance on one corpus case."""

    relation: str
    case: str
    passed: bool
    drift: float  #: worst violation magnitude observed (0.0 when clean)
    detail: str = ""


@dataclass(frozen=True)
class Relation:
    name: str
    equation: str  #: PAPER.md equation(s) the relation is derived from
    description: str
    run: Callable[[VerificationCorpus], List[RelationResult]]


def _result(relation: str, case: str, violation: float, tol: float,
            detail: str = "") -> RelationResult:
    violation = float(violation)  # plain float: keeps `passed` JSON-safe
    ok = bool(math.isfinite(violation) and violation <= tol)
    return RelationResult(relation=relation, case=case, passed=ok,
                          drift=violation, detail=detail)


def _all_pairs(corpus: VerificationCorpus):
    everything = corpus.gallery + corpus.queries
    for i, a in enumerate(everything):
        for b in everything[i + 1:]:
            yield a, b


def _shifted(tra: Trajectory, delta: float) -> Trajectory:
    xy = tra.xy
    return Trajectory.from_arrays(xy[:, 0].copy(), xy[:, 1].copy(),
                                  tra.timestamps + delta,
                                  object_id=tra.object_id)


# ----------------------------------------------------------------------
# The relations
# ----------------------------------------------------------------------

def _run_symmetry(corpus: VerificationCorpus) -> List[RelationResult]:
    measure = corpus.measure()
    out = []
    for a, b in _all_pairs(corpus):
        ab = measure.similarity(a, b)
        ba = measure.similarity(b, a)
        out.append(_result("symmetry", f"{a.object_id}~{b.object_id}",
                           abs(ab - ba), 0.0,
                           detail=f"ab={ab!r} ba={ba!r}"))
    return out


def _run_block_invariance(corpus: VerificationCorpus) -> List[RelationResult]:
    everything = corpus.gallery + corpus.queries
    n = len(everything)
    full = corpus.measure().similarity_block(everything)
    # Contiguous, interleaved and single-index cuts of both axes.
    cuts = [list(range(0, n, 2)), list(range(1, n, 2)),
            list(range(n // 2)), list(range(n // 2, n))]
    cuts += [[i] for i in range(n)]
    out = []
    for rows in cuts:
        for cols in cuts:
            measure = corpus.measure()  # cold caches: nothing carried over
            block = measure.similarity_block([everything[i] for i in rows],
                                             [everything[j] for j in cols])
            flipped = measure.similarity_block([everything[j] for j in cols],
                                               [everything[i] for i in rows])
            expect = full[np.ix_(rows, cols)]
            drift = max(float(np.max(np.abs(block - expect))),
                        float(np.max(np.abs(flipped.T - expect))))
            out.append(_result("block_invariance",
                               f"rows{rows}xcols{cols}", drift, 0.0))
    return out


def _run_unit_range(corpus: VerificationCorpus) -> List[RelationResult]:
    measure = corpus.measure()
    everything = corpus.gallery + corpus.queries
    out = []
    for i, a in enumerate(everything):
        for b in everything[i:]:  # include self-similarity
            s = measure.similarity(a, b)
            violation = max(0.0 - s, s - 1.0, 0.0)
            if not math.isfinite(s):
                violation = math.inf
            out.append(_result("unit_range", f"{a.object_id}~{b.object_id}",
                               violation, 0.0, detail=f"score={s!r}"))
    return out


def _run_time_shift(corpus: VerificationCorpus) -> List[RelationResult]:
    measure = corpus.measure()
    delta = 977.0
    out = []
    for a, b in _all_pairs(corpus):
        base = measure.similarity(a, b)
        shifted = measure.similarity(_shifted(a, delta), _shifted(b, delta))
        out.append(_result("time_shift", f"{a.object_id}~{b.object_id}",
                           abs(base - shifted), 1e-9,
                           detail=f"base={base!r} shifted={shifted!r} dt={delta}"))
    return out


def _run_stp_norm(corpus: VerificationCorpus) -> List[RelationResult]:
    measure = corpus.measure()
    out = []
    for tra in corpus.gallery + corpus.queries:
        estimator = measure.stp_for(tra)
        ts = tra.timestamps

        # Interior times: mid-segment plus each observation time.
        probes = list(ts) + [float(lo + hi) / 2.0
                             for lo, hi in zip(ts[:-1], ts[1:])]
        worst_sum = 0.0
        worst_neg = 0.0
        for t in probes:
            cells, probs = estimator.stp(float(t))
            if probs.size:
                worst_sum = max(worst_sum, abs(probs.sum() - 1.0))
                worst_neg = max(worst_neg, float(max(0.0, -probs.min())))
            else:
                worst_sum = math.inf  # empty inside the span
        out.append(_result("stp_norm", f"{tra.object_id}:sum-to-1",
                           worst_sum, 1e-9))
        out.append(_result("stp_norm", f"{tra.object_id}:non-negative",
                           worst_neg, 0.0))

        # Observation branch degenerates to the Eq. 3 noise distribution.
        point = tra[0]
        cells, probs = estimator.stp(float(point.t))
        ref_cells, ref_probs = measure.noise_model.cell_distribution(
            measure.grid, point.x, point.y)
        obs_exact = (np.array_equal(cells, ref_cells)
                     and np.array_equal(probs, ref_probs))
        out.append(_result("stp_norm", f"{tra.object_id}:observation-branch",
                           0.0 if obs_exact else math.inf, 0.0,
                           detail="stp(t_obs) != noise cell_distribution"
                           if not obs_exact else ""))

        # Outside the span: empty support.
        before_cells, before_probs = estimator.stp(float(ts[0]) - 5.0)
        after_cells, after_probs = estimator.stp(float(ts[-1]) + 5.0)
        empty = before_probs.size == 0 and after_probs.size == 0
        out.append(_result("stp_norm", f"{tra.object_id}:outside-span",
                           0.0 if empty else math.inf, 0.0))
    return out


def _run_zero_overlap(corpus: VerificationCorpus) -> List[RelationResult]:
    measure = corpus.measure()
    late = next(t for t in corpus.gallery if t.object_id == "late")
    out = []
    for other in corpus.gallery + corpus.queries:
        if other.object_id == "late":
            continue
        overlap = (min(late.end_time, other.end_time)
                   - max(late.start_time, other.start_time))
        if overlap >= 0:  # corpus invariant: late is disjoint from all
            out.append(RelationResult("zero_overlap",
                                      f"late~{other.object_id}", False,
                                      math.inf, "corpus spans overlap"))
            continue
        s = measure.similarity(late, other)
        out.append(_result("zero_overlap", f"late~{other.object_id}",
                           0.0 if s == 0.0 else math.inf, 0.0,
                           detail=f"score={s!r}"))
    return out


def _run_anytime_bounds(corpus: VerificationCorpus) -> List[RelationResult]:
    out = []
    pairs = [(corpus.queries[0], corpus.gallery[0]),
             (corpus.queries[1], corpus.gallery[2]),
             (corpus.queries[2], corpus.gallery[4])]
    for q, g in pairs:
        case = f"{q.object_id}~{g.object_id}"
        exact = corpus.measure().similarity(q, g)

        # A 3-term budget may still legitimately *complete* when all
        # remaining Eq. 10 terms fall outside the temporal overlap (they
        # are known-zero without evaluation); the invariants are that
        # the interval brackets the exact score and the budget is obeyed.
        partial = anytime_similarity(corpus.measure(), q, g,
                                     budget=Budget(max_terms=3))
        contain = max(partial.lower - exact, exact - partial.upper, 0.0)
        detail = (f"exact={exact!r} in [{partial.lower!r}, {partial.upper!r}] "
                  f"({partial.evaluated_terms}/{partial.total_terms} terms, "
                  f"completed={partial.completed})")
        out.append(_result("anytime_bounds", f"{case}:partial",
                           contain, 0.0, detail=detail))
        out.append(_result("anytime_bounds", f"{case}:budget-obeyed",
                           float(max(0, partial.evaluated_terms - 3)), 0.0,
                           detail=f"evaluated {partial.evaluated_terms} "
                                  f"of max 3"))

        full = anytime_similarity(corpus.measure(), q, g)
        bitwise = full.completed and full.value == exact
        out.append(_result("anytime_bounds", f"{case}:unbounded",
                           0.0 if bitwise else abs(full.value - exact)
                           if math.isfinite(full.value) else math.inf,
                           0.0,
                           detail=f"anytime={full.value!r} exact={exact!r} "
                                  f"completed={full.completed}"))
    return out


def _run_coarse_rungs(corpus: VerificationCorpus) -> List[RelationResult]:
    out = []
    pairs = [(corpus.queries[0], corpus.gallery[0]),
             (corpus.queries[1], corpus.gallery[2])]
    scorer = DeadlineScorer(corpus.measure())
    for q, g in pairs:
        case = f"{q.object_id}~{g.object_id}"
        exact = corpus.measure().similarity(q, g)
        for factor in (2, 4):
            coarse = scorer.coarse_measure(factor).similarity(q, g)
            violation = max(0.0 - coarse, coarse - 1.0, 0.0)
            if not math.isfinite(coarse):
                violation = math.inf
            out.append(_result("coarse_rungs", f"{case}:coarse-{factor}x",
                               violation, 0.0, detail=f"score={coarse!r}"))
        bound = filter_only_estimate(q, g)
        contain = max(bound.lower - exact, exact - bound.upper, 0.0)
        out.append(_result("coarse_rungs", f"{case}:filter-only",
                           contain, 0.0,
                           detail=f"exact={exact!r} in "
                                  f"[{bound.lower!r}, {bound.upper!r}]"))
    return out


RELATIONS: Dict[str, Relation] = {
    rel.name: rel
    for rel in (
        Relation("symmetry", "Eq. 10",
                 "STS(a, b) == STS(b, a) bitwise", _run_symmetry),
        Relation("block_invariance", "Eq. 10",
                 "every sub-block of the matrix, in either orientation, "
                 "equals the full matrix bitwise", _run_block_invariance),
        Relation("unit_range", "Eqs. 9–10",
                 "scores lie in [0, 1]", _run_unit_range),
        Relation("time_shift", "Eqs. 3–10",
                 "joint time translation leaves STS unchanged",
                 _run_time_shift),
        Relation("stp_norm", "Eqs. 3–5",
                 "STP vectors are distributions; observation times "
                 "reduce to the noise model; empty outside the span",
                 _run_stp_norm),
        Relation("zero_overlap", "Eq. 5 case 3",
                 "disjoint spans score exactly zero", _run_zero_overlap),
        Relation("anytime_bounds", "Eq. 10",
                 "anytime intervals bracket the exact score; unbounded "
                 "runs are bitwise exact", _run_anytime_bounds),
        Relation("coarse_rungs", "Eqs. 9–10",
                 "degraded rungs stay valid lower-fidelity answers",
                 _run_coarse_rungs),
    )
}


def run_relations(corpus: Optional[VerificationCorpus] = None,
                  names: Optional[Sequence[str]] = None
                  ) -> List[RelationResult]:
    """Run the selected relations (all by default) on ``corpus``."""
    if corpus is None:
        corpus = verification_corpus()
    if names is None:
        selected = list(RELATIONS)
    else:
        unknown = sorted(set(names) - set(RELATIONS))
        if unknown:
            raise ValueError(
                f"unknown relation(s) {unknown}; "
                f"available: {sorted(RELATIONS)}")
        selected = list(names)
    results: List[RelationResult] = []
    for name in selected:
        results.extend(RELATIONS[name].run(corpus))
    return results
