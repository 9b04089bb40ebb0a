"""Explicit Eq. 4 summation as the tests' reference for the FFT evaluator.

:class:`~repro.core.stprob.TrajectorySTP` evaluates Eq. 4 by FFT
convolution when its transition model is isotropic and by explicit
summation over the model's reachable cells otherwise.  :class:`Summed`
hides a model's isotropy, so the estimator sums that same model
explicitly: over the cells within the model's reachable radius, or over
every grid cell (``reach=False``), which is Eq. 4 exactly as written.
"""

from __future__ import annotations

import math

from repro.core.sts import _personalized_transition
from repro.core.transition import TransitionModel


class Summed(TransitionModel):
    """``model``'s weights, evaluated by explicit summation."""

    isotropic = False

    def __init__(self, model: TransitionModel, reach: bool = True):
        self.model = model
        self.reach = reach

    def weights(self, from_xy, to_xy, dt):
        return self.model.weights(from_xy, to_xy, dt)

    def reachable_radius(self, dt):
        return self.model.reachable_radius(dt) if self.reach else math.inf


def summed_personalized(reach: bool = True):
    """STS's default per-trajectory transition policy, summed explicitly."""
    return lambda trajectory: Summed(_personalized_transition(trajectory), reach)
