"""Differential matrix runner: every execution path against every other.

The runner scores the committed corpus's ``queries × gallery`` matrix
through each shipped execution path and compares the results:

* every *production* path (batch, process parallel,
  anytime-unbounded, cluster 2×2) must be **bitwise**
  identical to the serial baseline — that is what their docstrings
  promise, and ulp drift of zero is the only acceptable outcome.  The
  two process paths are two topologies of one engine, the
  :class:`~repro.cluster.ClusterService`: a transient 2-shard ×
  1-replica service behind ``n_jobs=2``, and a caller's 2 × 2 hedged
  service;
* the *oracle* (:mod:`repro.verify.oracle`) is compared within the
  documented :data:`~repro.verify.oracle.ORACLE_ATOL`, since production
  deliberately truncates/sparsifies mass the oracle keeps.

Every path scores the rectangular ``queries × gallery`` matrix through
the one Eq. 10 block kernel (:mod:`repro.core.kernel`) — as 1×1 blocks
(serial), the whole matrix (batch), one block per shard (parallel,
cluster) or term by term with the kernel's reduction (anytime).  A
kernel entry depends only on its pair, so bitwise equality holds by
construction; the ``symmetry`` and ``block_invariance`` relations check
the same property on the self-matrix and on every sub-block.

Results come back as a :class:`VerifyReport` (JSON + markdown) with
per-check pass/fail, max absolute drift and max ulp distance, and are
counted into ``repro_verify_checks_total{path,relation,outcome}``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.service import ClusterService
from ..obs.registry import get_registry
from ..serving.anytime import anytime_similarity
from .corpus import VerificationCorpus, verification_corpus
from .oracle import ORACLE_ATOL, OracleSTS
from .relations import RelationResult, run_relations

__all__ = [
    "PathSpec", "PATHS", "CheckResult", "VerifyReport", "run_verification",
    "ulp_distance",
]


def ulp_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Max distance between two float64 arrays in units of last place.

    Uses the ordered-integer mapping of IEEE-754 doubles (sign-magnitude
    int64 folded so the mapping is monotone and ±0.0 coincide); equal
    arrays give 0, adjacent representable doubles give 1.
    """
    ai = np.asarray(a, dtype=np.float64).view(np.int64)
    bi = np.asarray(b, dtype=np.float64).view(np.int64)
    lo = np.iinfo(np.int64).min
    ai = np.where(ai >= 0, ai, lo - ai)
    bi = np.where(bi >= 0, bi, lo - bi)
    if ai.size == 0:
        return 0
    # uint64 absolute difference avoids int64 overflow across signs.
    diff = np.where(ai >= bi, ai - bi, bi - ai).astype(np.uint64)
    return int(diff.max())


# ----------------------------------------------------------------------
# Execution paths
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PathSpec:
    """One way of computing the corpus score matrix.

    ``tolerance=None`` claims bitwise equality with the serial baseline;
    a float is the documented absolute tolerance.
    """

    name: str
    description: str
    run: Callable[[VerificationCorpus], np.ndarray]
    tolerance: Optional[float] = None


def _run_serial(corpus: VerificationCorpus) -> np.ndarray:
    measure = corpus.measure()
    out = np.zeros((len(corpus.queries), len(corpus.gallery)))
    for i, q in enumerate(corpus.queries):
        for j, g in enumerate(corpus.gallery):
            out[i, j] = measure.similarity(q, g)
    return out


def _run_batch(corpus: VerificationCorpus) -> np.ndarray:
    return corpus.measure().pairwise(list(corpus.gallery),
                                     list(corpus.queries))


def _run_parallel_process(corpus: VerificationCorpus) -> np.ndarray:
    return corpus.measure().pairwise(list(corpus.gallery),
                                     list(corpus.queries), n_jobs=2)


def _run_anytime(corpus: VerificationCorpus) -> np.ndarray:
    measure = corpus.measure()
    out = np.zeros((len(corpus.queries), len(corpus.gallery)))
    for i, q in enumerate(corpus.queries):
        for j, g in enumerate(corpus.gallery):
            score = anytime_similarity(measure, q, g)
            if not score.completed:
                raise AssertionError(
                    f"unbounded anytime run incomplete for "
                    f"({q.object_id}, {g.object_id})")
            out[i, j] = score.value
    return out


def _run_cluster(corpus: VerificationCorpus) -> np.ndarray:
    measure = corpus.measure()
    gallery = list(corpus.gallery)
    with ClusterService(measure, gallery, n_shards=2, n_replicas=2) as svc:
        return measure.pairwise(gallery, list(corpus.queries), cluster=svc)


def _run_oracle(corpus: VerificationCorpus) -> np.ndarray:
    oracle = OracleSTS(corpus.grid, corpus.sigma)
    return oracle.pairwise(corpus.gallery, corpus.queries)


#: The path registry.  A plain dict on purpose: tests monkeypatch broken
#: entries in to prove the runner catches divergence.
PATHS: Dict[str, PathSpec] = {
    spec.name: spec
    for spec in (
        PathSpec("serial", "one similarity() (1x1 block) per cell (baseline)",
                 _run_serial),
        PathSpec("batch", "STS.pairwise, single process", _run_batch),
        PathSpec("parallel-process",
                 "STS.pairwise n_jobs=2: transient 2x1 ClusterService, "
                 "one block per shard",
                 _run_parallel_process),
        PathSpec("anytime", "anytime_similarity with unbounded budget",
                 _run_anytime),
        PathSpec("cluster-2x2",
                 "STS.pairwise cluster=: 2-shard 2-replica hedged "
                 "ClusterService, one block per shard",
                 _run_cluster),
        PathSpec("oracle", "slow dense reference (Eqs. 3-10)",
                 _run_oracle, tolerance=ORACLE_ATOL),
    )
}

BASELINE_PATH = "serial"


# ----------------------------------------------------------------------
# Report types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    """One row of the verification matrix."""

    kind: str  #: "path" (equivalence check) or "relation"
    name: str  #: path name or relation name
    case: str  #: what was compared / which corpus case
    passed: bool
    max_abs_diff: float = 0.0
    max_ulp: Optional[int] = None  #: only meaningful for path checks
    tolerance: Optional[float] = None  #: None means "bitwise"
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    """Machine-readable outcome of one differential verification run."""

    fingerprint: str
    seed: int
    checks: Tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    def to_json(self) -> str:
        """The report as indented JSON (the ``--report-out x.json`` format)."""
        payload = {
            "corpus": {"fingerprint": self.fingerprint, "seed": self.seed},
            "passed": self.passed,
            "n_checks": len(self.checks),
            "n_failed": self.n_failed,
            "checks": [
                {
                    "kind": c.kind,
                    "name": c.name,
                    "case": c.case,
                    "passed": c.passed,
                    "max_abs_diff": c.max_abs_diff,
                    "max_ulp": c.max_ulp,
                    "tolerance": c.tolerance,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }
        return json.dumps(payload, indent=2, allow_nan=True)

    def to_markdown(self) -> str:
        """The report as two markdown tables (paths, then relations)."""
        lines = [
            "# Differential verification report",
            "",
            f"- corpus seed: `{self.seed}`",
            f"- corpus fingerprint: `{self.fingerprint}`",
            f"- checks: {len(self.checks)} total, {self.n_failed} failed",
            f"- verdict: {'**PASS**' if self.passed else '**FAIL**'}",
            "",
            "## Path equivalence (vs serial baseline)",
            "",
            "| path | tolerance | max abs diff | max ulp | result |",
            "|---|---|---|---|---|",
        ]
        for c in self.checks:
            if c.kind != "path":
                continue
            tol = "bitwise" if c.tolerance is None else f"{c.tolerance:g}"
            ulp = "-" if c.max_ulp is None else str(c.max_ulp)
            verdict = "pass" if c.passed else f"**FAIL** {c.detail}".rstrip()
            lines.append(f"| {c.name} | {tol} | {c.max_abs_diff:.3e} "
                         f"| {ulp} | {verdict} |")
        lines += [
            "",
            "## Metamorphic relations",
            "",
            "| relation | case | drift | result |",
            "|---|---|---|---|",
        ]
        for c in self.checks:
            if c.kind != "relation":
                continue
            verdict = "pass" if c.passed else f"**FAIL** {c.detail}".rstrip()
            lines.append(f"| {c.name} | {c.case} | {c.max_abs_diff:.3e} "
                         f"| {verdict} |")
        lines.append("")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------

def _compare(name: str, matrix: np.ndarray, baseline: np.ndarray,
             tolerance: Optional[float]) -> CheckResult:
    case = f"{name} vs {BASELINE_PATH}"
    if matrix is None or np.asarray(matrix).shape != baseline.shape:
        shape = None if matrix is None else np.asarray(matrix).shape
        return CheckResult("path", name, case, False,
                           max_abs_diff=float("inf"),
                           tolerance=tolerance,
                           detail=f"shape {shape} != {baseline.shape}")
    matrix = np.asarray(matrix, dtype=float)
    if not np.isfinite(matrix).all():
        return CheckResult("path", name, case, False,
                           max_abs_diff=float("inf"), tolerance=tolerance,
                           detail="non-finite cells in result")
    diff = float(np.abs(matrix - baseline).max()) if matrix.size else 0.0
    ulp = ulp_distance(matrix, baseline)
    if tolerance is None:
        passed = ulp == 0
        detail = "" if passed else f"max ulp drift {ulp}"
    else:
        passed = diff <= tolerance
        detail = "" if passed else f"abs diff {diff:.3e} > {tolerance:g}"
    return CheckResult("path", name, case, passed, max_abs_diff=diff,
                       max_ulp=ulp, tolerance=tolerance, detail=detail)


def run_verification(paths: Optional[Sequence[str]] = None,
                     relations: Optional[Sequence[str]] = None,
                     corpus: Optional[VerificationCorpus] = None,
                     registry=None) -> VerifyReport:
    """Run the path-equivalence matrix and the metamorphic relations.

    ``paths`` / ``relations`` select subsets by name (``None`` = all;
    an empty sequence skips that half entirely).  Unknown names raise
    :class:`ValueError`.  Every check increments
    ``repro_verify_checks_total{path,relation,outcome}``.
    """
    if corpus is None:
        corpus = verification_corpus()
    if registry is None:
        registry = get_registry()
    counter = registry.counter(
        "repro_verify_checks_total",
        "Differential verification checks by path, relation and outcome.")

    if paths is None:
        selected_paths = [n for n in PATHS if n != BASELINE_PATH]
    else:
        unknown = sorted(set(paths) - set(PATHS))
        if unknown:
            raise ValueError(f"unknown path(s) {unknown}; "
                             f"available: {sorted(PATHS)}")
        selected_paths = [n for n in paths if n != BASELINE_PATH]

    checks: List[CheckResult] = []

    if selected_paths or paths is None:
        baseline = PATHS[BASELINE_PATH].run(corpus)
        for name in selected_paths:
            spec = PATHS[name]
            try:
                matrix = spec.run(corpus)
            except Exception as exc:  # a crashing path is a failing path
                result = CheckResult("path", name,
                                     f"{name} vs {BASELINE_PATH}", False,
                                     max_abs_diff=float("inf"),
                                     tolerance=spec.tolerance,
                                     detail=f"{type(exc).__name__}: {exc}")
            else:
                result = _compare(name, matrix, baseline, spec.tolerance)
            checks.append(result)
            counter.child(path=name, relation="equivalence",
                          outcome="pass" if result.passed else "fail").inc()

    for rel in run_relations(corpus, names=relations):
        result = CheckResult("relation", rel.relation, rel.case, rel.passed,
                             max_abs_diff=rel.drift, detail=rel.detail)
        checks.append(result)
        counter.child(path=BASELINE_PATH, relation=rel.relation,
                      outcome="pass" if rel.passed else "fail").inc()

    return VerifyReport(fingerprint=corpus.fingerprint(), seed=corpus.seed,
                        checks=tuple(checks))
