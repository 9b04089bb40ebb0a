"""Co-location probability (Section V-A, Eq. 8–9, Algorithm 1).

The co-location probability of two objects at time ``t`` is the probability
that both are in the same grid cell at ``t``:

    CP(t | Tra₁, Tra₂) = Σ_{r ∈ R} STP(r, t, Tra₁) · STP(r, t, Tra₂)

i.e. the inner product of the two (normalized) spatial-temporal probability
vectors.  Algorithm 1 of the paper distinguishes three cases — ``t``
observed in both trajectories, in one, or implicitly in neither — but all
three reduce to "normalize both STP distributions and take their inner
product", which is exactly what :class:`TrajectorySTP` already hands us.

:func:`colocation_batch` is the vectorized entry point: it resolves both
objects' distributions for *all* query times in one
:meth:`~repro.core.stprob.TrajectorySTP.stp_batch` call each (amortizing
per-segment kernel and FFT work) and then takes every inner product in one
sparse product through :func:`~repro.core.kernel.colocation_terms` — the
code the Eq. 10 block kernel uses, so a term here is bitwise the term a
similarity matrix adds.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from .kernel import colocation_terms
from .stprob import TrajectorySTP

__all__ = ["colocation_probability", "colocation_batch"]


def colocation_probability(stp_a: TrajectorySTP, stp_b: TrajectorySTP, t: float) -> float:
    """Eq. 9: co-location probability of two trajectories at time ``t``.

    The value lies in ``[0, 1]``: both STP vectors are probability
    distributions over the same grid, so their inner product is at most 1
    (reached only when both are the same point mass).
    """
    return float(colocation_batch(stp_a, stp_b, [t])[0])


def colocation_batch(
    stp_a: TrajectorySTP, stp_b: TrajectorySTP, times: np.ndarray
) -> np.ndarray:
    """Eq. 9 at each of ``times``, resolved through the batched STP path.

    Each object's distributions are computed with one
    :meth:`~repro.core.stprob.TrajectorySTP.stp_batch` call, grouping query
    times by bracketing segment; term ``k`` is the ascending-cell sum of
    the products of the two distributions at ``times[k]``.
    """
    times_arr = np.asarray(times, dtype=float).ravel()
    if times_arr.size == 0:
        return np.empty(0)
    t0 = perf_counter()
    dists_a = stp_a.stp_batch(times_arr)
    dists_b = stp_b.stp_batch(times_arr)
    t1 = perf_counter()
    slots = np.arange(times_arr.size)
    result = colocation_terms(dists_a, slots, [(slots, dists_b)], stp_a.grid.n_cells)[:, 0]
    # Stage handles are prebound on the estimator (see TrajectorySTP._init_obs).
    stp_a._t_coloc_resolve.inc(t1 - t0)
    stp_a._t_coloc_inner.inc(perf_counter() - t1)
    return result
