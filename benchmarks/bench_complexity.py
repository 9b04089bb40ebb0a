"""Section V-C: computational complexity of the STS measure.

The paper derives ``O(|Tra|·|Tra'|·|R|²)`` for the literal evaluation.
These benchmarks measure how one similarity call scales with the grid
resolution for that literal evaluation (:class:`~repro.verify.OracleSTS`,
Eqs. 3–10 transcribed without pruning, truncation or caching) and for the
production FFT evaluator, and how the FFT evaluator scales with trajectory
length.  The oracle is out of reach below 8 m cells.

Run directly (``python benchmarks/bench_complexity.py [--quick]``) the
same sweep is timed with a plain wall-clock harness and written as
mean/p50/p95 per configuration to ``BENCH_complexity.json`` at the
repository root.
"""

import argparse
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core.grid import Grid  # noqa: E402
from repro.core.noise import GaussianNoiseModel  # noqa: E402
from repro.core.sts import STS  # noqa: E402
from repro.core.trajectory import Trajectory  # noqa: E402
from repro.verify import OracleSTS  # noqa: E402

#: Location noise (Eq. 3's sigma) in meters, for both evaluations.
SIGMA = 3.0


def make_pair(n_points: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.uniform(4, 12, n_points))
    xs = np.cumsum(rng.normal(1.2, 0.4, n_points) * np.diff(np.concatenate([[0], ts])))
    ys = 50 + np.cumsum(rng.normal(0, 2.0, n_points))
    a = Trajectory.from_arrays(xs, ys, ts)
    b = Trajectory.from_arrays(xs + rng.normal(0, 3, n_points), ys + rng.normal(0, 3, n_points), ts + 3.0)
    return a, b


def make_grid(cell: float) -> Grid:
    return Grid(-50, -50, 350, 150, cell_size=cell)


def sts_call(cell: float, n_points: int) -> float:
    a, b = make_pair(n_points)
    measure = STS(make_grid(cell), noise_model=GaussianNoiseModel(SIGMA))
    return measure.similarity(a, b)


def oracle_call(cell: float, n_points: int) -> float:
    a, b = make_pair(n_points)
    return OracleSTS(make_grid(cell), sigma=SIGMA).similarity(a, b)


@pytest.mark.parametrize("cell", [16.0, 8.0], ids=["coarse", "medium"])
def test_oracle_scaling_with_grid(benchmark, cell):
    """The literal evaluation's cost grows steeply as cells shrink (|R|² terms)."""
    value = benchmark.pedantic(oracle_call, args=(cell, 12), rounds=2, iterations=1)
    assert 0.0 <= value <= 1.0


@pytest.mark.parametrize("cell", [16.0, 8.0, 4.0], ids=["coarse", "medium", "fine"])
def test_fft_scaling_with_grid(benchmark, cell):
    """FFT cost grows near-linearly in |R| (n log n convolutions)."""
    value = benchmark.pedantic(sts_call, args=(cell, 12), rounds=2, iterations=1)
    assert 0.0 <= value <= 1.0


@pytest.mark.parametrize("n_points", [8, 16, 32], ids=["short", "medium", "long"])
def test_scaling_with_trajectory_length(benchmark, n_points):
    """Cost grows with |Tra| + |Tra'| timestamps to evaluate."""
    value = benchmark.pedantic(sts_call, args=(4.0, n_points), rounds=2, iterations=1)
    assert 0.0 <= value <= 1.0


# ----------------------------------------------------------------------
# Script mode: the same sweep -> BENCH_complexity.json
# ----------------------------------------------------------------------
def run_complexity_benchmark(repeats: int, quick: bool) -> dict:
    """Time the grid-resolution sweeps (oracle and FFT) and the length sweep."""
    from jsonbench import time_config

    oracle_cells = [16.0] if quick else [16.0, 8.0]
    cells = [16.0, 8.0] if quick else [16.0, 8.0, 4.0]
    lengths = [8, 16] if quick else [8, 16, 32]
    configs: dict[str, dict] = {}
    for cell in oracle_cells:
        # The oracle keeps no cache or FFT plan, so it needs no warmup.
        configs[f"grid_sweep/oracle/cell_{cell:g}m"] = time_config(
            lambda c=cell: oracle_call(c, 12), repeats=repeats
        )
    for cell in cells:
        configs[f"grid_sweep/fft/cell_{cell:g}m"] = time_config(
            lambda c=cell: sts_call(c, 12), repeats=repeats, warmup=1
        )
    for n_points in lengths:
        label = f"length_sweep/fft/n_{n_points}"
        configs[label] = time_config(
            lambda n=n_points: sts_call(4.0, n), repeats=repeats, warmup=1
        )
    return {
        "benchmark": "complexity",
        "configs": configs,
        "quick": quick,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller sweep, single repeat (CI smoke run)",
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--output", default="BENCH_complexity.json",
        help="output filename (written at the repository root)",
    )
    args = parser.parse_args(argv)

    from jsonbench import write_report

    repeats = args.repeats or (1 if args.quick else 3)
    report = run_complexity_benchmark(repeats, args.quick)
    path = write_report(args.output, report)

    print(f"wrote {path}")
    for label, stats in report["configs"].items():
        print(
            f"  {label:>28}: mean {stats['mean_s']:.4f}s  "
            f"p50 {stats['p50_s']:.4f}s  p95 {stats['p95_s']:.4f}s"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
