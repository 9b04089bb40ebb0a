"""Personalized speed models (Section IV-B, Eq. 6 of the paper).

STS models an object's transition probability through the distribution of
its own speed.  Speeds between consecutive observations form a sample set
``S``; a kernel density estimator with a Gaussian kernel and Silverman's
rule-of-thumb bandwidth

    h = (4 σ̂^5 / (3 |S|))^{1/5}

gives a *personalized*, non-parametric speed density ``Q̂(v)`` per
trajectory — no training data from other objects is needed.

The ablation variants reuse this machinery with different sample sets:

* STS-G pools the speed samples of every trajectory in the dataset into a
  single *global* model (:meth:`KDESpeedModel.from_trajectories`).
* Brownian-bridge interpolation (related work, Section II) corresponds to a
  Gaussian speed law, provided here as :class:`GaussianSpeedModel`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Iterable, Sequence

import numpy as np

from ..errors import MalformedRecordError
from .trajectory import Trajectory

__all__ = [
    "SpeedModel",
    "KDESpeedModel",
    "GaussianSpeedModel",
    "silverman_bandwidth",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

#: :class:`KDESpeedModel` sums its kernels exactly for rows of at most
#: this many speeds and reads longer rows from its interpolation table.
EXACT_ROW_MAX = 64


def silverman_bandwidth(samples: np.ndarray, floor: float = 1e-3) -> float:
    """Silverman's rule-of-thumb bandwidth ``(4 σ̂^5 / (3 n))^{1/5}``.

    ``floor`` guards the degenerate cases the paper does not discuss:
    fewer than two samples, or samples with zero variance (e.g. a perfectly
    steady walker, or a length-2 trajectory).  Without a positive bandwidth
    Eq. 7 would be a Dirac comb and the transition probability ill-defined.
    """
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    if n == 0:
        return floor
    sigma = float(samples.std())
    if n < 2 or sigma == 0.0:
        # Scale the floor with the speed magnitude so fast movers (taxis)
        # do not get an absurdly spiky kernel.
        scale = float(np.abs(samples).mean()) if n else 0.0
        return max(floor, 0.05 * scale)
    return max(floor, (4.0 * sigma**5 / (3.0 * n)) ** 0.2)


class SpeedModel(ABC):
    """A probability model of an object's movement speed (m/s)."""

    @abstractmethod
    def density(self, v: np.ndarray | float) -> np.ndarray | float:
        """Probability density ``Q̂(v)`` of the speed(s) ``v``."""

    @abstractmethod
    def transition_weight(self, v: np.ndarray | float) -> np.ndarray | float:
        """Transition probability term of Eq. 7: ``h · Q̂(v)``.

        This is the quantity STS plugs in for ``P(ℓ', t' | ℓ, t)`` with
        ``v = dis(ℓ, ℓ') / |t - t'|``.  It is a *score* in ``[0, K(0)]``,
        not a normalized probability — Algorithm 1 renormalizes over the
        grid, so only relative weights matter.
        """

    @abstractmethod
    def max_plausible_speed(self) -> float:
        """Speed beyond which the density is negligible (used for pruning)."""


class KDESpeedModel(SpeedModel):
    """Kernel density speed model with a Gaussian kernel (Eq. 6).

    Parameters
    ----------
    samples:
        Speed samples (m/s).  Non-finite and negative values are rejected.
    bandwidth:
        Kernel bandwidth; defaults to Silverman's rule (Eq. 6 in the paper).
    truncate:
        Number of bandwidths beyond the extreme samples at which the density
        is treated as zero when sizing the region Eq. 4 is evaluated over
        (the density itself is never truncated).
    """

    def __init__(
        self,
        samples: Sequence[float] | np.ndarray,
        bandwidth: float | None = None,
        truncate: float = 4.0,
        approx: bool = True,
        table_size: int = 2048,
    ):
        arr = np.asarray(samples, dtype=float).ravel()
        if arr.size and (not np.isfinite(arr).all() or (arr < 0).any()):
            raise MalformedRecordError("speed samples must be finite and non-negative")
        self.samples = arr
        self.bandwidth = float(bandwidth) if bandwidth is not None else silverman_bandwidth(arr)
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        self.truncate = float(truncate)
        # Large batched evaluations (the S-T probability inner loops ask for
        # thousands of speeds at once) go through a precomputed lookup table
        # with linear interpolation instead of the exact O(|S|) sum per
        # query.  The table spans [0, max plausible speed]; beyond it the
        # density is below the truncation level and treated as 0.
        self.approx = bool(approx)
        if table_size < 16:
            raise ValueError(f"table_size must be >= 16, got {table_size}")
        self.table_size = int(table_size)
        self._table: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_trajectory(cls, trajectory: Trajectory, **kwargs) -> "KDESpeedModel":
        """Personalized model from a single trajectory's own speed samples.

        A trajectory with fewer than two (time-separated) points yields no
        samples; the model then degenerates to a point mass at speed 0 with
        the floor bandwidth, i.e. "an object we know nothing about is
        assumed nearly stationary".
        """
        return cls(trajectory.speeds(), **kwargs)

    @classmethod
    def from_trajectories(cls, trajectories: Iterable[Trajectory], **kwargs) -> "KDESpeedModel":
        """Global model pooling samples from many trajectories (STS-G)."""
        pools = [t.speeds() for t in trajectories]
        samples = np.concatenate(pools) if pools else np.empty(0)
        return cls(samples, **kwargs)

    # ------------------------------------------------------------------
    def density(self, v: np.ndarray | float) -> np.ndarray | float:
        """Eq. 6: ``Q̂(v) = (1 / (h |S|)) Σ K((v - v') / h)``."""
        return self._kernel_mean(v) / self.bandwidth

    def transition_weight(self, v: np.ndarray | float) -> np.ndarray | float:
        """Eq. 7: ``h · Q̂(v) = (1 / |S|) Σ K((v - v') / h)``."""
        return self._kernel_mean(v)

    def _kernel_mean(self, v: np.ndarray | float) -> np.ndarray | float:
        """Eq. 7 term of each speed in ``v``, exact or through the table.

        The table serves rows of more than :data:`EXACT_ROW_MAX` speeds.
        The choice is made by the length of the last axis, so each row of
        a stacked call takes the path it would take alone.
        """
        v_arr = np.atleast_1d(np.asarray(v, dtype=float))
        if self.approx and v_arr.shape[-1] > EXACT_ROW_MAX:
            out = self._kernel_mean_interp(v_arr)
        else:
            out = self._kernel_mean_exact(v_arr)
        return float(out[0]) if np.isscalar(v) or np.ndim(v) == 0 else out

    def _kernel_mean_exact(self, v_arr: np.ndarray) -> np.ndarray:
        if self.samples.size == 0:
            # Degenerate model: a single pseudo-sample at 0 m/s.
            z = v_arr / self.bandwidth
            return _INV_SQRT_2PI * np.exp(-0.5 * z * z)
        z = (v_arr[..., None] - self.samples) / self.bandwidth
        return (_INV_SQRT_2PI * np.exp(-0.5 * z * z)).mean(axis=-1)

    def _kernel_mean_interp(self, v_arr: np.ndarray) -> np.ndarray:
        if self._table is None:
            top = self.max_plausible_speed()
            xs = np.linspace(0.0, max(top, self.bandwidth), self.table_size)
            self._table = (xs, self._kernel_mean_exact(xs))
        xs, ys = self._table
        return np.interp(v_arr, xs, ys, left=float(ys[0]), right=0.0)

    def max_plausible_speed(self) -> float:
        top = float(self.samples.max()) if self.samples.size else 0.0
        return top + self.truncate * self.bandwidth

    def __repr__(self) -> str:
        return f"KDESpeedModel(n={self.samples.size}, h={self.bandwidth:.4g})"


class GaussianSpeedModel(SpeedModel):
    """Parametric Gaussian speed law ``v ~ N(mean, std²)``.

    With this model the Eq. 4 interpolation reduces to the Brownian-bridge
    style estimate of the related work (Section II of the paper notes the
    Brownian bridge is the special case of STS where the speed distribution
    is assumed Gaussian).  Also handy as a fixed "universal" speed prior.
    """

    def __init__(self, mean: float, std: float, truncate: float = 4.0):
        if std <= 0:
            raise ValueError(f"std must be positive, got {std}")
        self.mean = float(mean)
        self.std = float(std)
        self.truncate = float(truncate)

    def density(self, v: np.ndarray | float) -> np.ndarray | float:
        z = (np.asarray(v, dtype=float) - self.mean) / self.std
        out = _INV_SQRT_2PI / self.std * np.exp(-0.5 * z * z)
        return float(out) if np.ndim(v) == 0 else out

    def transition_weight(self, v: np.ndarray | float) -> np.ndarray | float:
        # Mirror Eq. 7's h·Q̂(v) with h := std, giving the same [0, K(0)]
        # range as the KDE model.
        z = (np.asarray(v, dtype=float) - self.mean) / self.std
        out = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
        return float(out) if np.ndim(v) == 0 else out

    def max_plausible_speed(self) -> float:
        return self.mean + self.truncate * self.std

    def __repr__(self) -> str:
        return f"GaussianSpeedModel(mean={self.mean}, std={self.std})"
