"""Common protocol for trajectory similarity/distance measures.

The library mixes two conventions: *similarities* (higher = more alike;
STS, CATS, WGM, SST, LCSS) and *distances* (lower = more alike; DTW, EDR,
ERP, EDwP, Fréchet, Hausdorff).  :class:`Measure` records which convention
an implementation uses, and :meth:`Measure.score` exposes a uniform
"higher = more similar" orientation so the evaluation harness can rank
candidates identically for every method.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..core.trajectory import Trajectory

__all__ = [
    "Measure",
    "register_measure",
    "available_measures",
    "get_measure_factory",
    "similarity_block",
]


class Measure(ABC):
    """A pairwise trajectory measure with a known orientation."""

    #: Human-readable name used in experiment reports.
    name: str = "measure"
    #: True when larger raw values mean more similar trajectories.
    higher_is_better: bool = True

    @abstractmethod
    def __call__(self, a: Trajectory, b: Trajectory) -> float:
        """Raw measure value for the pair (native orientation)."""

    def score(self, a: Trajectory, b: Trajectory) -> float:
        """The raw value oriented so that higher always means more similar."""
        value = self(a, b)
        return value if self.higher_is_better else -value

    def pairwise(self, queries, gallery) -> np.ndarray:
        """Matrix of raw values, ``M[i, j] = measure(queries[i], gallery[j])``."""
        out = np.zeros((len(queries), len(gallery)))
        for i, q in enumerate(queries):
            for j, g in enumerate(gallery):
                out[i, j] = self(q, g)
        return out

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


def similarity_block(measure, rows, cols=None) -> np.ndarray:
    """``S[i, j] = measure.similarity(rows[i], cols[j])`` over one block.

    A measure with a block kernel (:meth:`repro.core.STS.similarity_block`)
    scores the whole block in one call.  Any other object with a
    ``similarity(a, b)`` method — a wrapper, a baseline — has no kernel to
    call and is scored entry by entry.  ``cols=None`` scores ``rows``
    against themselves.
    """
    kernel = getattr(measure, "similarity_block", None)
    if kernel is not None:
        return np.asarray(kernel(rows, cols), dtype=float)
    cols = rows if cols is None else cols
    out = np.empty((len(rows), len(cols)))
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            out[i, j] = measure.similarity(a, b)
    return out


_REGISTRY: dict[str, type | object] = {}


def register_measure(name: str, factory) -> None:
    """Register a measure factory under ``name`` (used by the CLI)."""
    key = name.lower()
    if key in _REGISTRY:
        raise ValueError(f"measure {name!r} is already registered")
    _REGISTRY[key] = factory


def available_measures() -> list[str]:
    """Names of all registered measures."""
    return sorted(_REGISTRY)


def get_measure_factory(name: str):
    """Factory registered under ``name`` (case-insensitive)."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown measure {name!r}; available: {', '.join(available_measures())}"
        ) from None
