"""Committed seed corpus for the differential verification matrix.

The corpus is generated deterministically from :data:`CORPUS_SEED` — the
same coordinates and timestamps on every machine, every run — so that
the verification report is reproducible and the documented tolerances in
``docs/CORRECTNESS.md`` stay meaningful.  It is deliberately tiny (a
10×10 grid, five gallery trajectories, three queries) because the oracle
in :mod:`repro.verify.oracle` is intentionally slow, yet it is shaped to
exercise every branch of the estimator:

* ``walker-a`` / ``walker-b`` — co-movers sharing *exact* timestamps, so
  the observation branch of Eq. 5 fires for both trajectories at once;
* ``sporadic`` — irregular gaps, driving the Markov bridge (Eq. 4) with
  asymmetric ``Δt``;
* ``late`` — a temporal span disjoint from every other trajectory, so
  the zero-outside-overlap case contributes exact zeros;
* ``diagonal`` — a steady mover whose speed samples give a clean
  Silverman bandwidth;
* the queries interleave the gallery's spans (``q-shadow`` offset by one
  second from ``walker-a``; ``q-sporadic`` straddling several gaps;
  ``q-brief`` a short burst inside everyone's span).

All timestamps are integer-valued floats so "shared timestamp" means
*bitwise* float equality — the condition ``Trajectory.index_of_time``
actually tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..core.grid import Grid
from ..core.noise import GaussianNoiseModel
from ..core.sts import STS
from ..core.trajectory import Trajectory

__all__ = ["CORPUS_SEED", "VerificationCorpus", "verification_corpus"]

#: The one committed seed.  Changing it changes every expected score in
#: the verification report — treat it like a file format version.
CORPUS_SEED = 7


@dataclass(frozen=True)
class VerificationCorpus:
    """Frozen bundle of grid, noise scale and trajectories."""

    grid: Grid
    sigma: float
    gallery: Tuple[Trajectory, ...]
    queries: Tuple[Trajectory, ...]
    seed: int = CORPUS_SEED

    def measure(self, registry=None, **options) -> STS:
        """A *fresh* production measure over this corpus.

        A new instance per call keeps differential runs independent —
        no path ever observes another path's warm caches.  ``options``
        go to :class:`STS` (e.g. ``stp_cache_size=0``).
        """
        return STS(self.grid,
                   noise_model=GaussianNoiseModel(self.sigma),
                   registry=registry, **options)

    def fingerprint(self) -> str:
        """Stable sha256 over the corpus geometry and parameters."""
        digest = hashlib.sha256()
        digest.update(f"seed={self.seed};sigma={self.sigma!r};".encode())
        digest.update(
            f"grid={self.grid.min_x!r},{self.grid.min_y!r},"
            f"{self.grid.max_x!r},{self.grid.max_y!r},"
            f"{self.grid.cell_size!r};".encode())
        for label, group in (("gallery", self.gallery), ("queries", self.queries)):
            digest.update(label.encode())
            for tra in group:
                digest.update(np.ascontiguousarray(tra.xy).tobytes())
                digest.update(np.ascontiguousarray(tra.timestamps).tobytes())
        return digest.hexdigest()


def _walk(rng: np.random.Generator, start, step, times, jitter=0.6):
    """A drifting walk: ``start + i*step`` plus seeded Gaussian jitter."""
    times = np.asarray(times, dtype=float)
    n = len(times)
    base = np.asarray(start, dtype=float) + np.outer(np.arange(n), step)
    pts = base + rng.normal(scale=jitter, size=(n, 2))
    # Keep everything strictly inside the grid so cell_of never clamps.
    pts = np.clip(pts, 0.5, 29.5)
    return pts[:, 0].copy(), pts[:, 1].copy(), times


def verification_corpus(seed: int = CORPUS_SEED) -> VerificationCorpus:
    """Build the committed corpus (deterministic for a given ``seed``)."""
    rng = np.random.default_rng(seed)
    grid = Grid(0.0, 0.0, 30.0, 30.0, cell_size=3.0)
    sigma = 3.0

    def tra(object_id, start, step, times, jitter=0.6):
        xs, ys, ts = _walk(rng, start, step, times, jitter)
        return Trajectory.from_arrays(xs, ys, ts, object_id=object_id)

    gallery = (
        tra("walker-a", (4.0, 4.0), (1.1, 0.9), [0.0, 8.0, 16.0, 24.0, 32.0]),
        # Same exact timestamps as walker-a: the co-mover pair.
        tra("walker-b", (5.0, 4.5), (1.0, 1.0), [0.0, 8.0, 16.0, 24.0, 32.0]),
        tra("sporadic", (20.0, 6.0), (-0.8, 1.2), [2.0, 5.0, 21.0, 44.0]),
        # Disjoint temporal span: zero overlap with everything above.
        tra("late", (8.0, 22.0), (1.3, -0.7), [100.0, 110.0, 122.0, 131.0]),
        tra("diagonal", (2.0, 25.0), (1.2, -1.1), [0.0, 10.0, 20.0, 30.0, 40.0]),
    )
    queries = (
        tra("q-shadow", (4.5, 4.2), (1.1, 0.9), [1.0, 9.0, 17.0, 25.0]),
        tra("q-sporadic", (18.0, 8.0), (-0.5, 1.0), [4.0, 18.0, 37.0, 52.0]),
        tra("q-brief", (12.0, 12.0), (0.9, 0.4), [12.0, 15.0, 19.0], jitter=0.3),
    )
    return VerificationCorpus(grid=grid, sigma=sigma,
                              gallery=gallery, queries=queries, seed=seed)
