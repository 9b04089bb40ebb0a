"""Transition probability estimators (Section IV-B of the paper).

A transition model scores ``P(ℓ', t' | ℓ, t)`` — how plausible it is that an
object at location ``ℓ`` at time ``t`` is at ``ℓ'`` at time ``t'``.  STS
proper derives this from the object's *personalized* speed distribution
(Eq. 7, :class:`SpeedTransitionModel` over a
:class:`~repro.core.speed.KDESpeedModel`).  The STS-F ablation instead uses
the frequency-based Markov estimate of prior work ([24], [25], [34] in the
paper): transition probabilities between grid cells counted from historical
trajectories, universal across objects
(:class:`FrequencyTransitionModel`).

All models consume and produce *cell centers* — the paper represents cells
by their centers (Section IV-A) — and evaluate a ``(k, m)`` weight matrix
between ``k`` origin and ``m`` destination locations for a time gap ``dt``.
Weights are relative scores; Algorithm 1's normalization makes the absolute
scale irrelevant.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Iterable

import numpy as np
from scipy import sparse

from .grid import Grid
from .speed import SpeedModel
from .trajectory import Trajectory

__all__ = ["TransitionModel", "SpeedTransitionModel", "FrequencyTransitionModel"]


class TransitionModel(ABC):
    """Scores transitions between locations over a time gap."""

    #: Whether the weight depends on the locations only through their
    #: distance.  Eq. 4 is evaluated by FFT convolution for an isotropic
    #: model and by explicit summation otherwise (see
    #: :mod:`repro.core.stprob`); an isotropic model must implement
    #: :meth:`distance_weights` and :meth:`distance_weights_batch`.
    isotropic: bool = False

    @abstractmethod
    def weights(self, from_xy: np.ndarray, to_xy: np.ndarray, dt: float) -> np.ndarray:
        """``(k, m)`` matrix of transition weights for time gap ``dt >= 0``."""

    def distance_weights(self, distances: np.ndarray, dt: float) -> np.ndarray:
        """Weights as a function of distance alone (isotropic models only)."""
        raise NotImplementedError(f"{type(self).__name__} is not isotropic")

    def distance_weights_batch(self, distances: np.ndarray, dts: np.ndarray) -> np.ndarray:
        """:meth:`distance_weights` of 1-D ``distances`` at each gap of ``dts``.

        Returns ``(len(dts), len(distances))`` weights whose row ``i`` is
        bitwise ``distance_weights(distances, dts[i])`` (isotropic models
        only).
        """
        raise NotImplementedError(f"{type(self).__name__} is not isotropic")

    @abstractmethod
    def reachable_radius(self, dt: float) -> float:
        """Distance beyond which a transition over ``dt`` is negligible.

        Isotropic models also take an array of gaps and return one radius
        per gap.
        """


class SpeedTransitionModel(TransitionModel):
    """Eq. 7: the transition weight is the speed-density score.

    ``P(ℓ', t' | ℓ, t) = h · Q̂(dis(ℓ, ℓ') / |t - t'|)`` — the probability of
    the object moving at the speed the displacement implies, under its own
    speed model.

    A zero time gap is degenerate (the implied speed is infinite unless the
    displacement is zero); we resolve it as "the object cannot move in zero
    time": weight 1 within half a reference distance, else 0.
    """

    isotropic = True

    def __init__(self, speed_model: SpeedModel, zero_dt_tolerance: float = 1e-9):
        self.speed_model = speed_model
        self.zero_dt_tolerance = float(zero_dt_tolerance)

    def weights(self, from_xy: np.ndarray, to_xy: np.ndarray, dt: float) -> np.ndarray:
        src = np.asarray(from_xy, dtype=float).reshape(-1, 2)
        dst = np.asarray(to_xy, dtype=float).reshape(-1, 2)
        diff = src[:, None, :] - dst[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        return self.distance_weights(dist, dt)

    def distance_weights(self, distances: np.ndarray, dt: float) -> np.ndarray:
        distances = np.asarray(distances, dtype=float)
        return self.distance_weights_batch(distances.ravel(), np.array([dt]))[0].reshape(
            distances.shape
        )

    def distance_weights_batch(self, distances: np.ndarray, dts: np.ndarray) -> np.ndarray:
        """One row of weights per gap of ``dts`` over the 1-D ``distances``.

        Each row asks the speed model for ``len(distances)`` speeds, as a
        lone :meth:`distance_weights` call over the same distances does,
        so every row is bitwise that call.
        """
        distances = np.asarray(distances, dtype=float)
        dts = np.asarray(dts, dtype=float)
        if (dts < 0).any():
            raise ValueError(f"time gap must be non-negative, got {dts.min()}")
        zero = dts <= self.zero_dt_tolerance
        # Zero-gap rows are evaluated at a stand-in gap, then replaced.
        out = self.speed_model.transition_weight(distances / np.where(zero, 1.0, dts)[:, None])
        out[zero] = distances <= self.zero_dt_tolerance
        return out

    def reachable_radius(self, dt: float | np.ndarray) -> float | np.ndarray:
        return self.speed_model.max_plausible_speed() * np.maximum(dt, 0.0)

    def __repr__(self) -> str:
        return f"SpeedTransitionModel({self.speed_model!r})"


class FrequencyTransitionModel(TransitionModel):
    """Frequency-based first-order Markov transitions over grid cells (STS-F).

    Fitted from a corpus of trajectories: every pair of consecutive
    observations contributes one count to ``N[cell_i → cell_{i+1}]``.  The
    one-step transition matrix is the row-normalized count matrix with
    Laplace smoothing toward self-transition.  A transition over an
    arbitrary gap ``dt`` uses ``k = round(dt / step_duration)`` steps, i.e.
    the ``k``-th power of the one-step matrix (computed sparsely and cached).

    This reproduces the "universal for all users" estimator the paper
    ablates against: it ignores who is moving and how fast they personally
    move, and it suffers from data sparsity exactly as Section II describes.

    Parameters
    ----------
    grid:
        The spatial partition; transitions are between its cells.
    step_duration:
        Time represented by one Markov step.  Defaults (at fit time) to the
        median inter-observation gap of the corpus.
    max_steps:
        Cap on the matrix power ``k`` — beyond this the chain is close to
        its local stationary behaviour and further powers cost more than
        they inform.
    """

    def __init__(self, grid: Grid, step_duration: float | None = None, max_steps: int = 8):
        if max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
        self.grid = grid
        self.step_duration = step_duration
        self.max_steps = int(max_steps)
        self._one_step: sparse.csr_matrix | None = None
        self._powers: dict[int, sparse.csr_matrix] = {}
        self._max_jump = grid.cell_size  # refined during fit

    # ------------------------------------------------------------------
    def fit(self, trajectories: Iterable[Trajectory]) -> "FrequencyTransitionModel":
        """Count cell-to-cell transitions from the corpus."""
        n = self.grid.n_cells
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        gaps: list[np.ndarray] = []
        max_jump = self.grid.cell_size
        for traj in trajectories:
            if len(traj) < 2:
                continue
            cells = self.grid.cells_of(traj.xy)
            rows.append(cells[:-1])
            cols.append(cells[1:])
            gaps.append(np.diff(traj.timestamps))
            seg = np.diff(traj.xy, axis=0)
            jumps = np.hypot(seg[:, 0], seg[:, 1])
            if jumps.size:
                max_jump = max(max_jump, float(jumps.max()))
        if not rows:
            raise ValueError("cannot fit a frequency transition model from an empty corpus")
        row = np.concatenate(rows)
        col = np.concatenate(cols)
        all_gaps = np.concatenate(gaps)
        if self.step_duration is None:
            positive = all_gaps[all_gaps > 0]
            self.step_duration = float(np.median(positive)) if positive.size else 1.0
        counts = sparse.coo_matrix(
            (np.ones(len(row)), (row, col)), shape=(n, n)
        ).tocsr()
        # Laplace-style smoothing toward self-transition: cells never seen
        # as origins stay put rather than becoming absorbing zero rows.
        counts = counts + sparse.identity(n, format="csr") * 0.5
        row_sums = np.asarray(counts.sum(axis=1)).ravel()
        inv = sparse.diags(1.0 / row_sums)
        self._one_step = (inv @ counts).tocsr()
        self._powers = {1: self._one_step}
        self._max_jump = max_jump
        return self

    @property
    def is_fitted(self) -> bool:
        return self._one_step is not None

    # ------------------------------------------------------------------
    def _steps_for(self, dt: float) -> int:
        assert self.step_duration is not None
        k = int(round(dt / self.step_duration))
        return min(max(k, 1), self.max_steps)

    def _power(self, k: int) -> sparse.csr_matrix:
        if self._one_step is None:
            raise RuntimeError("FrequencyTransitionModel must be fitted before use")
        if k not in self._powers:
            self._powers[k] = (self._power(k - 1) @ self._one_step).tocsr()
        return self._powers[k]

    def weights(self, from_xy: np.ndarray, to_xy: np.ndarray, dt: float) -> np.ndarray:
        if dt < 0:
            raise ValueError(f"time gap must be non-negative, got {dt}")
        if not self.is_fitted:
            raise RuntimeError("FrequencyTransitionModel must be fitted before use")
        src_cells = self.grid.cells_of(np.asarray(from_xy, dtype=float).reshape(-1, 2))
        dst_cells = self.grid.cells_of(np.asarray(to_xy, dtype=float).reshape(-1, 2))
        matrix = self._power(self._steps_for(dt))
        block = matrix[src_cells, :][:, dst_cells]
        return np.asarray(block.todense(), dtype=float)

    def reachable_radius(self, dt: float) -> float:
        # After k steps the chain cannot plausibly have traveled farther
        # than k of the largest observed single-step jumps.
        return self._steps_for(dt) * self._max_jump if self.is_fitted else math.inf

    def __repr__(self) -> str:
        state = "fitted" if self.is_fitted else "unfitted"
        return f"FrequencyTransitionModel(step={self.step_duration}, max_steps={self.max_steps}, {state})"
