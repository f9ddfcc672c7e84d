"""Positively homogeneous lifts of rewards.

A reward r defined on the simplex is lifted to all nonnegative vectors by
``lift(u) = sum(u) * r(u / sum(u))`` with ``lift(0) = 0``; the lift agrees
with r on the simplex, scales linearly along rays and preserves concavity
or convexity. :meth:`ExtendedReward.value` evaluates that definition with
the reward's own ``value``, and :meth:`ExtendedReward.gradient` lifts the
quadratic reward's own derivative for the occupancy LP's tangent cuts.
Polytope rows ``H a <= h`` lift the same way, to ``H u <= sum(u) * h``,
which the occupancy LP writes as ``H u - h d <= 0``. These lifts are
what make the occupancy-measure program convex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    AffineReward,
    QuadraticDeviationReward,
    RewardSpec,
    WeightedL1Reward,
)


@dataclass(frozen=True)
class ExtendedReward:
    """Homogeneous lift of one reward spec.

    ``concave``/``convex`` describe the lift (equivalently the original
    reward); affine rewards are both.
    """

    spec: RewardSpec
    concave: bool
    convex: bool

    def value(self, u) -> float:
        """``sum(u) * r(u / sum(u))``, and 0 where ``sum(u) <= 0``."""
        u = np.asarray(u, dtype=float)
        q = float(u.sum())
        return 0.0 if q <= 0.0 else q * self.spec.value(u / q)

    def gradient(self, u) -> np.ndarray:
        """Gradient of a quadratic reward's lift where ``sum(u) > 0``: by
        Euler's identity, ``r'(a) + (r(a) - r'(a) . a)`` at ``a = u / sum(u)``.

        Used for tangent cuts; by homogeneity, gradient(u) @ u == value(u).
        """
        spec = self.spec
        if not isinstance(spec, QuadraticDeviationReward):
            raise ValueError("gradient available for quadratic rewards only")
        u = np.asarray(u, dtype=float)
        q = float(u.sum())
        if q <= 0:
            raise ValueError("gradient needs sum(u) > 0")
        a = u / q
        slope = spec.gradient(a)
        return slope + (spec.value(a) - float(slope @ a))


def extend_reward(spec: RewardSpec) -> ExtendedReward:
    """Build the homogeneous lift of a reward spec."""
    if isinstance(spec, AffineReward):
        return ExtendedReward(spec, concave=True, convex=True)
    if isinstance(spec, WeightedL1Reward):
        return ExtendedReward(spec, concave=True, convex=False)
    if isinstance(spec, QuadraticDeviationReward):
        return ExtendedReward(spec, concave=not spec.convex, convex=spec.convex)
    raise TypeError(f"unknown reward spec {type(spec).__name__}")
