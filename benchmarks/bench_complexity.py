"""Section V-C: computational complexity of the STS measure.

The paper derives ``O(|Tra|·|Tra'|·|R|²)`` for the literal evaluation.
These benchmarks measure how one similarity call scales with the grid
resolution for that literal evaluation (:class:`~repro.verify.OracleSTS`,
Eqs. 3–10 transcribed without pruning, truncation or caching) and for the
production FFT evaluator, and how the FFT evaluator scales with trajectory
length.  The oracle is out of reach below 8 m cells.

The grid-extent sweep scores the ``taxi-match`` matrix of
``benchmarks/suite`` (seed 0, full scale) on its 25 × 25 grid of 100 m
cells padded with empty cells to 45², 75² and 125²: the same
trajectories and cells, only more empty grid.  Production cost should
follow noise and kernel reach, not the grid's area.

Run directly (``python benchmarks/bench_complexity.py [--quick]``) the
same sweep is timed with a plain wall-clock harness and written as
mean/p50/p95 per configuration to ``BENCH_complexity.json`` at the
repository root.
"""

import argparse
import functools
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

#: Empty cells added on every side of the taxi grid: 25², 45², 75², 125².
EXTENT_PADS = (0, 10, 25, 50)


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


@functools.cache
def taxi_match_inputs() -> tuple[tuple, list, list]:
    """The suite's ``taxi-match`` grid, queries and gallery (seed 0, full scale)."""
    sys.path.insert(0, str(Path(__file__).resolve().parent / "suite"))
    from inputs import TAXI_GRID, taxi_fleet
    from workloads import SCALES

    from repro.eval.matching import build_matching_pair

    sizes = SCALES["full"]
    raw = taxi_fleet(0, sizes["match_taxis"], sizes["reports"], sizes["match_span"])
    fleet = [Trajectory.from_arrays(xs, ys, ts, object_id=oid) for oid, xs, ys, ts in raw]
    return (TAXI_GRID, *build_matching_pair(fleet))


def padded_taxi_grid(pad: int) -> Grid:
    (min_x, min_y, max_x, max_y, cell), _, _ = taxi_match_inputs()
    margin = pad * cell
    return Grid(min_x - margin, min_y - margin, max_x + margin, max_y + margin, cell_size=cell)


def extent_call(pad: int) -> np.ndarray:
    """The ``taxi-match`` matrix on the taxi grid padded by ``pad`` empty cells."""
    _, queries, gallery = taxi_match_inputs()
    return STS(padded_taxi_grid(pad)).pairwise(gallery, queries=queries)


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


@pytest.mark.parametrize("pad", EXTENT_PADS, ids=[f"grid_{25 + 2 * p}" for p in EXTENT_PADS])
def test_fft_scaling_with_grid_extent(benchmark, pad):
    """Empty grid beyond the trajectories' reach costs nothing.

    Once every frame clears the grid's edge, padding changes no score
    bitwise.  On the unpadded grid the edge clips the frames of
    observations near it, so their transforms, and their round-off,
    differ: its matrix agrees to within 1.4e-17.
    """
    matrix = benchmark.pedantic(extent_call, args=(pad,), rounds=2, iterations=1)
    reference = extent_call(EXTENT_PADS[-1])
    if pad:
        assert np.array_equal(matrix, reference)
    else:
        np.testing.assert_allclose(matrix, reference, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("n_points", [8, 16, 32], ids=["short", "medium", "long"])
def test_scaling_with_trajectory_length(benchmark, n_points):
    """Cost grows with |Tra| + |Tra'| timestamps to evaluate."""
    value = benchmark.pedantic(sts_call, args=(4.0, n_points), rounds=2, iterations=1)
    assert 0.0 <= value <= 1.0


# ----------------------------------------------------------------------
# Script mode: the same sweep -> BENCH_complexity.json
# ----------------------------------------------------------------------
def run_complexity_benchmark(repeats: int, quick: bool) -> dict:
    """Time the grid-resolution sweeps (oracle and FFT), the length sweep
    and the grid-extent sweep."""
    from jsonbench import time_config

    oracle_cells = [16.0] if quick else [16.0, 8.0]
    cells = [16.0, 8.0] if quick else [16.0, 8.0, 4.0]
    lengths = [8, 16] if quick else [8, 16, 32]
    pads = (EXTENT_PADS[0], EXTENT_PADS[-1]) if quick else EXTENT_PADS
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
    for pad in pads:
        grid = padded_taxi_grid(pad)
        configs[f"extent_sweep/taxi-match/grid_{grid.n_cols}x{grid.n_rows}"] = time_config(
            lambda p=pad: extent_call(p), repeats=repeats, warmup=1
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
