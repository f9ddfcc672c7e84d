"""Positively homogeneous lifts of rewards.

A reward r defined on the simplex is lifted to all nonnegative vectors by
``lift(u) = sum(u) * r(u / sum(u))`` with ``lift(0) = 0``; the lift agrees
with r on the simplex, scales linearly along rays and preserves concavity
or convexity. Polytope rows ``H a <= h`` lift the same way, to
``H u <= sum(u) * h``, which the occupancy LP writes as ``H u - h d <= 0``.
These lifts are what make the occupancy-measure program convex.
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
    """Closed-form homogeneous lift of one reward spec.

    ``concave``/``convex`` describe the lift (equivalently the original
    reward); affine rewards are both.
    """

    spec: RewardSpec
    concave: bool
    convex: bool

    def value(self, u) -> float:
        u = np.asarray(u, dtype=float)
        q = float(u.sum())
        spec = self.spec
        if isinstance(spec, AffineReward):
            return float(spec.e @ u + q * spec.f)
        if isinstance(spec, WeightedL1Reward):
            dev = u - q * spec.center
            return float(-(spec.weights @ np.abs(dev)))
        if abs(q) < 1e-300:
            return 0.0  # removable singularity of the quadratic lift
        dev = u - q * spec.center
        val = float(spec.weights @ (dev * dev)) / q
        return val if spec.convex else -val

    def gradient(self, u) -> np.ndarray:
        """Gradient of the lift (quadratic variant; defined for sum(u) > 0).

        Used for tangent cuts; by homogeneity, gradient(a) @ a == value(a).
        """
        spec = self.spec
        if isinstance(spec, AffineReward):
            return spec.e + spec.f * np.ones(spec.dim)
        if not isinstance(spec, QuadraticDeviationReward):
            raise ValueError("gradient available for smooth lifts only")
        u = np.asarray(u, dtype=float)
        q = float(u.sum())
        if q <= 0:
            raise ValueError("gradient needs sum(u) > 0")
        dev = u - q * spec.center
        wv = spec.weights * dev
        g = float(spec.weights @ (dev * dev))
        grad = 2.0 * (wv - float(spec.center @ wv)) / q - (g / q**2)
        return grad if spec.convex else -grad


def extend_reward(spec: RewardSpec) -> ExtendedReward:
    """Build the homogeneous lift of a reward spec."""
    if isinstance(spec, AffineReward):
        return ExtendedReward(spec, concave=True, convex=True)
    if isinstance(spec, WeightedL1Reward):
        return ExtendedReward(spec, concave=True, convex=False)
    if isinstance(spec, QuadraticDeviationReward):
        return ExtendedReward(spec, concave=not spec.convex, convex=spec.convex)
    raise TypeError(f"unknown reward spec {type(spec).__name__}")
