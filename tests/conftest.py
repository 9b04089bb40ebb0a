"""Shared fixtures: small deterministic trajectories, grids and corpora.

Also the process-wide isolation layer: tests that flip the ``REPRO_*``
environment switches used to leak into whichever test ran next; the
autouse fixture below snapshots and restores them around every test.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.grid import Grid
from repro.core.trajectory import Trajectory, TrajectoryPoint
from repro.datasets import mall_dataset, taxi_dataset

#: Environment switches that alter process-wide behavior when set.
_REPRO_ENV_VARS = (
    "REPRO_OBS",
    "REPRO_OBS_DELTA_S",
    "REPRO_CLUSTER_WORKER",
    "REPRO_CLUSTER_LOG_DIR",
)


@pytest.fixture(autouse=True)
def _isolate_repro_env():
    """Snapshot/restore the ``REPRO_*`` environment switches."""
    saved = {name: os.environ.get(name) for name in _REPRO_ENV_VARS}
    yield
    for name, value in saved.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


@pytest.fixture
def straight_trajectory() -> Trajectory:
    """Ten points walking east at exactly 1 m/s, one sample per second."""
    return Trajectory.from_arrays(
        xs=np.arange(10.0), ys=np.zeros(10), ts=np.arange(10.0), object_id="straight"
    )


@pytest.fixture
def l_shaped_trajectory() -> Trajectory:
    """East for 5 s then north for 5 s, at 2 m/s."""
    xs = [0, 2, 4, 6, 8, 10, 10, 10, 10, 10, 10]
    ys = [0, 0, 0, 0, 0, 0, 2, 4, 6, 8, 10]
    return Trajectory.from_arrays(xs, ys, np.arange(11.0), object_id="l-shape")


@pytest.fixture
def single_point_trajectory() -> Trajectory:
    return Trajectory([TrajectoryPoint(3.0, 4.0, 5.0)], object_id="lonely")


@pytest.fixture
def small_grid() -> Grid:
    """A 10x10 grid of 2 m cells over [0, 20] x [0, 20]."""
    return Grid(0.0, 0.0, 20.0, 20.0, cell_size=2.0)


@pytest.fixture(scope="session")
def tiny_mall_dataset():
    """Session-cached small mall corpus (simulation is the slow part)."""
    return mall_dataset(n_trajectories=6, seed=5)


@pytest.fixture(scope="session")
def tiny_taxi_dataset():
    """Session-cached small taxi corpus."""
    return taxi_dataset(n_trajectories=6, seed=5)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)
