"""Seeded inputs for the benchmark workloads.

Everything a workload consumes is generated here from ``--seed``; the
program under test only ever sees the generated records.  Generation is
untimed and returns *raw* records (plain arrays and tuples): turning them
into library objects is the workload's set-up, which is timed.

The generators fix the *structure* of every input (how many objects, how
many reports each, when each one starts, the grid) and leave only the
geometry to the seed.  The cost of STS depends on that structure (how many
timestamps each estimator must resolve, how many pairs overlap in time),
so a structure that varied with the seed would make two seeds of the same
code look like a performance change.
"""

from __future__ import annotations

import numpy as np

from repro.simulation import RoadNetwork, sample_path, simulate_taxi_path

#: Fixed 100 m grid over the simulated city (a 12 x 12 block Manhattan
#: network of ~150 m blocks) plus a 400 m margin, the taxi corpus default.
TAXI_GRID = (-400.0, -400.0, 2100.0, 2100.0, 100.0)
#: Porto-like reporting interval (Section VI-A).
REPORT_S = 15.0
#: GPS-class location noise of the taxi terminals, in metres.
TAXI_NOISE_M = 10.0

#: Mall-style 3 m grid over the square the stream devices walk in.
STREAM_SIDE_M = 60.0
STREAM_GRID = (-12.0, -12.0, STREAM_SIDE_M + 12.0, STREAM_SIDE_M + 12.0, 3.0)
#: One stream epoch covers this many seconds of sightings ...
EPOCH_S = 300.0
#: ... and consecutive ticks shift it by this much, so the detector's
#: ``EPOCH_S`` window holds exactly one epoch after every tick.
TICK_SHIFT_S = 400.0

CITY_SEED = 2021

RawTrajectory = tuple[str, np.ndarray, np.ndarray, np.ndarray]  # id, xs, ys, ts
RawSighting = tuple[str, float, float, float]  # id, x, y, t


def taxi_fleet(
    seed: int,
    n_taxis: int,
    n_reports: int,
    span_s: float,
    shared_clock: bool = False,
) -> list[RawTrajectory]:
    """``n_taxis`` taxis reporting ``n_reports`` times every 15 s.

    Taxi ``i`` starts at slot ``i * span_s / n_taxis``, so every seed has
    the same temporal overlap between taxis.  Unsynchronised taxis add a
    random phase within one reporting interval, so no two share a
    timestamp; on a shared clock the slot is rounded to the 15 s grid and
    all taxis report at common instants.  Trips too short for
    ``n_reports`` reports are redrawn.
    """
    city = np.random.default_rng(CITY_SEED)
    network = RoadNetwork.manhattan(rng=city)
    hubs = [network.random_node(city) for _ in range(3)]
    rng = np.random.default_rng(seed)
    needed = (n_reports - 1) * REPORT_S
    fleet = []
    for i in range(n_taxis):
        slot = i * span_s / n_taxis
        if shared_clock:
            slot = round(slot / REPORT_S) * REPORT_S
        while True:
            start = slot if shared_clock else slot + float(rng.uniform(0.0, REPORT_S))
            path = simulate_taxi_path(
                network, rng, start_time=start, hubs=hubs, hub_bias=0.6
            )
            if path.end_time - path.start_time >= needed:
                break
        times = start + REPORT_S * np.arange(n_reports)
        traj = sample_path(path, times, noise_std=TAXI_NOISE_M, rng=rng)
        fleet.append((f"taxi-{i:04d}", traj.xy[:, 0].copy(), traj.xy[:, 1].copy(), traj.timestamps.copy()))
    return fleet


def stream_epoch(seed: int, n_pairs: int, sightings: int) -> list[RawSighting]:
    """One epoch of sightings from ``2 * n_pairs`` devices in companion pairs.

    Each pair shares a reflecting random walk (1.5 m/s scale) in the
    ``STREAM_SIDE_M`` square; each device keeps a fixed offset of about a
    metre from the shared walk and is sighted ``sightings`` times at
    random half-second instants with 2 m location noise.  Device ``2k`` and
    ``2k + 1`` are companions, which gives the stream its ground truth.
    Timestamps are multiples of 0.5 s, so shifting an epoch by a whole
    number of seconds changes no time difference and the detector must
    score every tick identically.
    """
    rng = np.random.default_rng(seed)
    steps = int(EPOCH_S / 0.5)
    records: list[RawSighting] = []
    for pair in range(n_pairs):
        pos = rng.uniform(0.0, STREAM_SIDE_M, 2)
        walk = np.empty((steps, 2))
        for k in range(steps):
            pos = pos + rng.normal(0.0, 0.75, 2)
            pos = STREAM_SIDE_M - np.abs(STREAM_SIDE_M - np.abs(pos))
            walk[k] = pos
        for member in range(2):
            offset = rng.normal(0.0, 1.0, 2)
            instants = np.sort(rng.choice(steps, sightings, replace=False))
            for k in instants:
                x, y = walk[k] + offset + rng.normal(0.0, 2.0, 2)
                records.append((f"dev-{2 * pair + member}", float(x), float(y), float(k) * 0.5))
    records.sort(key=lambda r: (r[3], r[0]))
    return records
