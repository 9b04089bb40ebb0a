#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

A *set* is the JSON-lines file ``run.py --out`` appends to: one record per
run, any mix of workloads and seeds.  For every end-to-end metric and
workload the report gives each set's median and IQR (first to third
quartile) and a verdict for set B against set A:

* ``agree``      -- B's median is no worse than A's by more than the bound;
* ``regress``    -- B's median is worse by more than the bound;
* ``unresolved`` -- either set's IQR is wider than the bound, so the
  medians cannot be told apart, unless every run of B beats every run
  of A;
* ``machine drift`` -- the two sets' drift-probe medians differ by more
  than 5 %, so the machine changed between them and no verdict is given.

``setup_s`` always agrees when both medians are below 0.05 s.

With one set, the report lists each metric's spread (IQR / median)
against its bound instead.

``--claim metric:workload`` applies the gain rule to runs taken as ABBA
pairs (the i-th run of the workload in A against the i-th in B): at
least 10 pairs, B better in at least 90 % of them (ties count for
neither side) and a median gap larger than A's IQR.

Usage::

    python3 benchmarks/suite/compare.py A.jsonl [B.jsonl] [--claim pairs_per_s:taxi-match]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from timing import iqr

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
DRIFT_LIMIT = 0.05
#: Set-up times below this many seconds on both sides are not judged: a
#: set-up of a millisecond or so swings by more than any bound.
SETUP_FLOOR_S = 0.05
MIN_PAIRS = 10
MIN_WIN_RATE = 0.9


def load_set(path: str) -> dict[str, list[dict]]:
    """Untraced run records of one set, by workload, in file order."""
    runs: dict[str, list[dict]] = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record.get("trace"):
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def values(records: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in records if metric in r["metrics"]]


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (negative: better)."""
    if a == 0:
        return 0.0
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def beats(b: float, a: float, better: str) -> bool:
    return b < a if better == "lower" else b > a


def verdict(a: list[float], b: list[float], metric: dict) -> tuple[str, float]:
    ma, mb = statistics.median(a), statistics.median(b)
    change = worse_by(ma, mb, metric["better"])
    bound = metric["bound"]
    if metric["name"] == "setup_s" and max(ma, mb) < SETUP_FLOOR_S:
        return "agree", change
    spread = max(iqr(a) / abs(ma) if ma else 0.0, iqr(b) / abs(mb) if mb else 0.0)
    if spread > bound:
        if all(beats(y, x, metric["better"]) for x in a for y in b):
            return "agree", change
        return "unresolved", change
    return ("regress" if change > bound else "agree"), change


def probe_median(records: list[dict]) -> float:
    return statistics.median(r["probe_ms"] for r in records)


def report(set_a: dict, set_b: dict | None, spec: dict) -> list[str]:
    lines = []
    for workload in [w["name"] for w in spec["workloads"]]:
        ra = set_a.get(workload, [])
        rb = set_b.get(workload, []) if set_b is not None else None
        if not ra or (rb is not None and not rb):
            lines.append(f"{workload}: no runs in {'A' if not ra else 'B'}")
            continue
        drift = None
        if rb is not None:
            pa, pb = probe_median(ra), probe_median(rb)
            drift = pb / pa - 1.0
            lines.append(
                f"{workload}: {len(ra)} vs {len(rb)} runs, probe {pa:.2f} vs {pb:.2f} ms ({drift:+.1%})"
            )
        else:
            lines.append(f"{workload}: {len(ra)} runs, probe {probe_median(ra):.2f} ms")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = values(ra, name)
            if not a:
                continue
            ma = statistics.median(a)
            spread_a = iqr(a) / abs(ma) if ma else 0.0
            row = f"  {name:<16} A {ma:>12.6g} IQR {spread_a:>6.1%}"
            if rb is None:
                flag = "ok" if spread_a <= metric["bound"] / 3 else (
                    "within bound" if spread_a <= metric["bound"] else "WIDER THAN BOUND"
                )
                lines.append(f"{row}   bound {metric['bound']:.0%}: {flag}")
                continue
            b = values(rb, name)
            mb = statistics.median(b)
            spread_b = iqr(b) / abs(mb) if mb else 0.0
            if abs(drift) > DRIFT_LIMIT:
                result, change = "machine drift", worse_by(ma, mb, metric["better"])
            else:
                result, change = verdict(a, b, metric)
            lines.append(
                f"{row} | B {mb:>12.6g} IQR {spread_b:>6.1%} | worse by {change:+7.1%}"
                f" (bound {metric['bound']:.0%}): {result}"
            )
    return lines


def claim(set_a: dict, set_b: dict, spec: dict, target: str) -> tuple[bool, str]:
    """The gain rule for ``metric:workload`` on ABBA-paired runs."""
    name, _, workload = target.partition(":")
    metric = next((m for m in spec["end_to_end"] if m["name"] == name), None)
    if metric is None or workload not in {w["name"] for w in spec["workloads"]}:
        return False, f"unknown metric or workload in {target!r}"
    a = values(set_a.get(workload, []), name)
    b = values(set_b.get(workload, []), name)
    pairs = list(zip(a, b))
    if len(pairs) < MIN_PAIRS:
        return False, f"{len(pairs)} pairs, need at least {MIN_PAIRS}"
    wins = sum(beats(y, x, metric["better"]) for x, y in pairs)
    rate = wins / len(pairs)
    gap = abs(statistics.median(b) - statistics.median(a))
    spread = iqr(a)
    gain = -worse_by(statistics.median(a), statistics.median(b), metric["better"])
    detail = (
        f"{name} on {workload}: B wins {wins}/{len(pairs)} pairs ({rate:.0%}), "
        f"median gap {gap:.6g} vs parent IQR {spread:.6g}, change {gain:+.1%}"
    )
    ok = rate >= MIN_WIN_RATE and gap > spread and gain > 0
    return ok, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="parent (baseline) set, JSON lines")
    parser.add_argument("b", nargs="?", help="change set, JSON lines")
    parser.add_argument("--claim", action="append", default=[], metavar="METRIC:WORKLOAD")
    args = parser.parse_args(argv)
    with open(SPEC_PATH) as handle:
        spec = json.load(handle)
    set_a = load_set(args.a)
    set_b = load_set(args.b) if args.b else None
    print("\n".join(report(set_a, set_b, spec)))
    status = 0
    for target in args.claim:
        if set_b is None:
            print("--claim needs two sets")
            return 2
        ok, detail = claim(set_a, set_b, spec, target)
        print(f"claim {target}: {'holds' if ok else 'not met'} -- {detail}")
        status |= 0 if ok else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
