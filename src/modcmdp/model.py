"""Problem model for finite-horizon constrained MDPs whose actions pick the
transition distribution itself from a per-state polytope around a base
distribution.

States live in layers, one layer per period; an action at a nonterminal
state is a probability vector over the next layer, constrained to a
polytope ``{a in simplex : H a <= h}`` that must contain the base vector.
Rewards depend on the chosen distribution only, and solution quality is
bounded through caps on expected visitation mass of selected state sets.
Each reward states whether it is ``concave`` and ``convex``, and a
quadratic one gives its tangent plane at an action, which the tangent
cuts and the naive baseline read. Rewards and polytopes evaluate one
action or a batch of rows. A policy is a mixture of actions per state; a
deterministic one has a single atom.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

# Feasibility tolerance for membership checks (actions, policies).
FEAS_TOL = 1e-8
# Normalization tolerance for probability vectors.
NORM_TOL = 1e-9


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


class _Fields:
    """Checks on the fields of an immutable dataclass, and their content
    key, worked out once. Its ``__init__`` takes the fields in order, so
    a pickled or copied one is rebuilt through it with read-only arrays."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @cached_property
    def nonfinite(self) -> tuple[str, ...]:
        """The names of the fields that hold a NaN or an infinity."""
        return tuple(f.name for f in fields(self) if not np.isfinite(getattr(self, f.name)).all())

    @cached_property
    def key(self) -> tuple:
        """Content key: the class name, then the bytes of each field as a
        float array. Equal keys mean equal fields, so two rewards of one
        key give every action the same value, bit for bit."""
        return (type(self).__name__,) + tuple(
            np.asarray(getattr(self, f.name), dtype=float).tobytes() for f in fields(self))


@dataclass(frozen=True)
class LayeredStateSpace:
    """Time-indexed state space: ``layers[t]`` holds the state names of
    period ``t`` (0-based internally; periods run 0..horizon-1).

    State names are globally unique; terminal states are exactly the last
    layer.
    """

    layers: tuple[tuple[str, ...], ...]
    _index: dict[str, tuple[int, int]] = field(
        init=False, repr=False, compare=False, hash=False
    )

    def __init__(self, layers: Sequence[Sequence[str]]):
        lay = tuple(tuple(str(s) for s in layer) for layer in layers)
        if len(lay) < 2:
            raise ValueError("state space needs at least 2 layers")
        if any(len(layer) == 0 for layer in lay):
            raise ValueError("every layer must be nonempty")
        index: dict[str, tuple[int, int]] = {}
        for t, layer in enumerate(lay):
            for i, name in enumerate(layer):
                if name in index:
                    raise ValueError(f"duplicate state name {name!r}")
                index[name] = (t, i)
        object.__setattr__(self, "layers", lay)
        object.__setattr__(self, "_index", index)

    @property
    def horizon(self) -> int:
        return len(self.layers)

    def layer_of(self, state: str) -> int:
        return self._index[state][0]

    def position(self, state: str) -> tuple[int, int]:
        """(layer, index-within-layer) of a state name."""
        return self._index[state]

    def __contains__(self, state: str) -> bool:
        return state in self._index

    def nonterminal(self) -> Iterable[str]:
        for layer in self.layers[:-1]:
            yield from layer

    def all_states(self) -> Iterable[str]:
        for layer in self.layers:
            yield from layer


@dataclass(frozen=True)
class ActionPolytope(_Fields):
    """Feasible transition vectors ``{a in simplex : H a <= h}`` around a
    base distribution ``base`` over the next layer.

    ``H`` may have zero rows, in which case the feasible set is the whole
    simplex. What its rows imply (:attr:`box`, :attr:`implied_nonnegative`)
    is worked out once, on first use.
    """

    base: np.ndarray
    H: np.ndarray
    h: np.ndarray

    def __init__(self, base, H=None, h=None):
        base = _readonly(base)
        if base.ndim != 1 or base.size == 0:
            raise ValueError("base must be a nonempty vector")
        n = base.size
        H = np.zeros((0, n)) if H is None else np.asarray(H, dtype=float)
        h = np.zeros(0) if h is None else np.asarray(h, dtype=float)
        H = H.reshape(-1, n) if H.size else np.zeros((0, n))
        if H.shape[0] != h.size:
            raise ValueError("H and h row counts differ")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "H", _readonly(H))
        object.__setattr__(self, "h", _readonly(h))

    @property
    def dim(self) -> int:
        return self.base.size

    @cached_property
    def box(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(lower, upper)``, lower clipped at 0, when the rows are exactly
        ``[I; -I]``; None otherwise."""
        n, eye = self.dim, np.eye(self.dim)
        if not np.array_equal(self.H, np.vstack([eye, -eye])):
            return None
        return _readonly(np.clip(-self.h[n:], 0.0, None)), self.h[:n]

    @cached_property
    def implied_nonnegative(self) -> np.ndarray:
        """Per coordinate k, whether a row ``-c e_k`` (c > 0) with h <= 0
        forces ``a_k >= 0``, and so ``u_k >= 0`` in the lift H u <= h d."""
        nz = self.H != 0
        k = np.argmax(nz, axis=1)
        lone = (nz.sum(axis=1) == 1) & (self.H[np.arange(k.size), k] < 0)
        out = np.zeros(self.dim, dtype=bool)
        out[k[lone & (self.h <= 0)]] = True
        out.setflags(write=False)
        return out

    @property
    def key(self) -> tuple:
        """Content key: H's shape (joined bytes of two dimensions can
        coincide), then the bytes of base, H and h."""
        return (self.H.shape, self.base.tobytes(), self.H.tobytes(), self.h.tobytes())

    def contains(self, a, tol: float = FEAS_TOL):
        """Whether ``a`` is a distribution in the polytope within ``tol``:
        a bool for one action, a bool per row for a batch of rows."""
        a = np.asarray(a, dtype=float)
        if a.shape[-1:] != (self.dim,):
            return False
        return (
            (a.min(axis=-1, initial=0.0) >= -tol)
            & (abs(a.sum(axis=-1) - 1.0) <= tol)
            & (self.margin(a) <= tol)
        )

    def margin(self, a):
        """Largest violation of the H-rows at ``a`` (<= 0 means inside),
        per row for a batch of rows."""
        a = np.asarray(a, dtype=float)
        if self.H.shape[0] == 0:
            return np.zeros(a.shape[:-1])[()]
        return ((self.H @ a.T).T - self.h).max(axis=-1)


def box_polytope(base, epsilon: float) -> ActionPolytope:
    """Polytope of distributions within ``epsilon`` of ``base`` in each
    coordinate, lower bounds clipped at 0.

    With ``epsilon >= 1`` the feasible set equals the whole simplex.
    """
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be a finite number >= 0, got {epsilon}")
    base = np.asarray(base, dtype=float)
    if base.min(initial=0.0) < -NORM_TOL or abs(base.sum() - 1.0) > NORM_TOL:
        raise ValueError("base must be a probability vector")
    n = base.size
    eye = np.eye(n)
    H = np.vstack([eye, -eye])
    h = np.concatenate([base + epsilon, -np.clip(base - epsilon, 0.0, None)])
    return ActionPolytope(base, H, h)


@dataclass(frozen=True)
class AffineReward(_Fields):
    """r(a) = e . a + f."""

    e: np.ndarray
    f: float
    concave = convex = True

    def __init__(self, e, f: float = 0.0):
        object.__setattr__(self, "e", _readonly(e))
        object.__setattr__(self, "f", float(f))

    @property
    def dim(self) -> int:
        return self.e.size

    def value(self, a):
        return np.asarray(a, dtype=float) @ self.e + self.f


@dataclass(frozen=True)
class WeightedL1Reward(_Fields):
    """r(a) = -sum_k weights[k] * |a[k] - center[k]| (concave, <= 0)."""

    center: np.ndarray
    weights: np.ndarray
    concave, convex = True, False

    def __init__(self, center, weights=None):
        center = _readonly(center)
        w = np.ones(center.size) if weights is None else np.asarray(weights, float)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def dim(self) -> int:
        return self.center.size

    def value(self, a):
        dev = np.asarray(a, dtype=float) - self.center
        return -(np.abs(dev) @ self.weights)


@dataclass(frozen=True)
class QuadraticDeviationReward(_Fields):
    """r(a) = sign * sum_k weights[k] * (a[k] - center[k])^2 with sign -1
    (concave) or +1 (convex). Weights default to all ones, which gives the
    plain squared Euclidean deviation.
    """

    center: np.ndarray
    convex: bool
    weights: np.ndarray

    def __init__(self, center, convex: bool = False, weights=None):
        center = _readonly(center)
        w = np.ones(center.size) if weights is None else np.asarray(weights, float)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "convex", bool(convex))
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def dim(self) -> int:
        return self.center.size

    def value(self, a):
        dev = np.asarray(a, dtype=float) - self.center
        q = (dev * dev) @ self.weights
        return q if self.convex else -q

    @property
    def concave(self) -> bool:
        return not self.convex

    def tangent(self, a) -> AffineReward:
        """The tangent plane at ``a``: slope twice the weighted deviation,
        negated for the concave sign, through ``(a, value(a))``. For ``a``
        on the simplex, ``(e + f) . u`` is the lifted reward's tangent
        plane along the ray of ``a``, by Euler's identity."""
        a = np.asarray(a, dtype=float)
        slope = (2.0 if self.convex else -2.0) * self.weights * (a - self.center)
        return AffineReward(slope, self.value(a) - float(slope @ a))


RewardSpec = Union[AffineReward, WeightedL1Reward, QuadraticDeviationReward]


@dataclass(frozen=True)
class QualityConstraint:
    """Cap on total expected visitation mass of a state set (may span
    layers): sum of visit probabilities over ``states`` <= ``bound``.
    """

    states: frozenset[str]
    bound: float

    def __init__(self, states: Iterable[str], bound: float):
        object.__setattr__(self, "states", frozenset(states))
        object.__setattr__(self, "bound", float(bound))


@dataclass(frozen=True)
class CmdpInstance:
    """A complete problem: layered states, one polytope and one reward per
    nonterminal state, an initial distribution over the first layer and a
    list of visitation-mass constraints.

    Construction is permissive about value-level invariants so that
    :func:`validate` can report them; solvers refuse instances whose
    :attr:`violations` are nonempty. All fields are immutable after
    construction (``polytopes`` and ``rewards`` are read-only mappings)
    and safe to share across threads, so the verdict is decided once.
    """

    states: LayeredStateSpace
    polytopes: Mapping[str, ActionPolytope]
    rewards: Mapping[str, RewardSpec]
    alpha: np.ndarray
    constraints: tuple[QualityConstraint, ...]

    def __init__(self, states, polytopes, rewards, alpha, constraints=()):
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "polytopes", MappingProxyType(dict(polytopes)))
        object.__setattr__(self, "rewards", MappingProxyType(dict(rewards)))
        object.__setattr__(self, "alpha", _readonly(alpha))
        object.__setattr__(self, "constraints", tuple(constraints))

    def __reduce__(self):
        # a mapping proxy cannot be pickled; the copy decides its own verdict
        return type(self), (self.states, dict(self.polytopes), dict(self.rewards),
                            self.alpha, self.constraints)

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """The messages of :func:`validate`, worked out on first use."""
        return tuple(validate(self))

    def next_layer_size(self, state: str) -> int:
        t = self.states.layer_of(state)
        return len(self.states.layers[t + 1])


def require_valid(instance: CmdpInstance) -> None:
    """Raise ValueError naming every one of the instance's violations."""
    if instance.violations:
        raise ValueError("invalid instance: " + "; ".join(instance.violations))


def validate(instance: CmdpInstance) -> list[str]:
    """Check every model invariant and return one message per violation.

    An empty list means the instance satisfies all preconditions of the
    solver modules. Never raises; idempotent and side-effect free.
    """
    out: list[str] = []
    space = instance.states
    alpha = instance.alpha

    if alpha.size != len(space.layers[0]):
        out.append(
            f"alpha has {alpha.size} entries but the first layer has "
            f"{len(space.layers[0])} states"
        )
    elif not np.isfinite(alpha).all():
        out.append("alpha has non-finite entries")
    else:
        s = float(alpha.sum())
        if abs(s - 1.0) > NORM_TOL:
            out.append(f"alpha sums to {s:.6g}")
        if alpha.min(initial=0.0) < -NORM_TOL:
            out.append(f"alpha has a negative entry ({alpha.min():.3g})")

    nonterminal = set(space.nonterminal())
    for s in sorted(nonterminal.symmetric_difference(instance.polytopes)):
        if s in nonterminal:
            out.append(f"state {s!r} has no action polytope")
        else:
            out.append(f"polytope given for non-decision state {s!r}")
    for s in sorted(nonterminal.symmetric_difference(instance.rewards)):
        if s in nonterminal:
            out.append(f"state {s!r} has no reward")
        else:
            out.append(f"reward given for non-decision state {s!r}")

    for s in sorted(nonterminal):
        poly = instance.polytopes.get(s)
        if poly is None:
            continue
        n = instance.next_layer_size(s)
        if poly.nonfinite:
            out.extend(f"{name} of {s!r} has non-finite entries" for name in poly.nonfinite)
        if poly.dim != n:
            out.append(
                f"polytope of {s!r} has dimension {poly.dim}, next layer has {n}"
            )
            continue
        b = poly.base
        bs = float(b.sum())
        if abs(bs - 1.0) > NORM_TOL:
            out.append(f"base of {s!r} sums to {bs:.6g}")
        if b.min() < -NORM_TOL:
            out.append(f"base of {s!r} has a negative entry ({b.min():.3g})")
        margin = poly.margin(b)
        if margin > NORM_TOL:
            out.append(
                f"base action of {s!r} lies outside its own polytope "
                f"(worst row violated by {margin:.3g})"
            )

        rew = instance.rewards.get(s)
        if rew is None:
            continue
        if rew.dim != n:
            out.append(f"reward of {s!r} has dimension {rew.dim}, expected {n}")
        if rew.nonfinite:
            out.append(f"reward of {s!r} has non-finite parameters")
        if isinstance(rew, (WeightedL1Reward, QuadraticDeviationReward)):
            if rew.weights.min(initial=0.0) < 0:
                out.append(f"reward of {s!r} has negative weights")

    for i, qc in enumerate(instance.constraints):
        if not qc.states:
            out.append(f"constraint {i} has an empty state set")
        unknown = sorted(x for x in qc.states if x not in space)
        if unknown:
            out.append(f"constraint {i} references unknown states {unknown}")
        if not np.isfinite(qc.bound):
            out.append(f"constraint {i} has non-finite bound {qc.bound}")
        elif qc.bound < 0:
            out.append(f"constraint {i} has negative bound {qc.bound:.6g}")
    return out


# Mixture weights must sum to 1 within this tolerance.
MIX_TOL = 1e-10


@dataclass(frozen=True)
class RandomizedPolicy:
    """Finite mixture of feasible transition vectors per nonterminal state,
    stored as (weight, action) pairs."""

    mixtures: Mapping[str, tuple[tuple[float, np.ndarray], ...]]

    def __init__(self, mixtures):
        clean = {}
        for s, pairs in mixtures.items():
            clean[s] = tuple((float(w), _readonly(a)) for w, a in pairs)
        object.__setattr__(self, "mixtures", clean)

    def action_marginal(self, state: str) -> np.ndarray:
        return sum(w * a for w, a in self.mixtures[state])

    def expected_reward(self, state: str, reward: RewardSpec) -> float:
        return sum(w * reward.value(a) for w, a in self.mixtures[state])

    def check(self, instance: CmdpInstance, tol: float = FEAS_TOL) -> list[str]:
        out = []
        for s, pairs in self.mixtures.items():
            poly = instance.polytopes.get(s)
            if poly is None:
                out.append(f"policy stores a mixture for non-decision state {s!r}")
                continue
            if not all(np.isfinite(w) for w, _ in pairs):
                out.append(f"mixture weights at {s!r} are not all finite")
            wsum = sum(w for w, _ in pairs)
            if abs(wsum - 1.0) > MIX_TOL:
                out.append(f"mixture weights at {s!r} sum to {wsum:.12g}")
            if any(w < -MIX_TOL for w, _ in pairs):
                out.append(f"negative mixture weight at {s!r}")
            for k, (_, a) in enumerate(pairs):
                if not poly.contains(a, tol):
                    out.append(f"mixture atom {k} at {s!r} is infeasible")
        for s in instance.states.nonterminal():
            if s not in self.mixtures:
                out.append(f"policy missing a mixture for {s!r}")
        return out


@dataclass(frozen=True)
class DeterministicPolicy(RandomizedPolicy):
    """One transition vector per nonterminal state: the randomized policy
    whose every mixture is that action with weight 1."""

    actions: Mapping[str, np.ndarray]

    def __init__(self, actions: Mapping[str, Sequence[float]]):
        super().__init__({s: [(1.0, a)] for s, a in actions.items()})
        actions = {s: pairs[0][1] for s, pairs in self.mixtures.items()}
        object.__setattr__(self, "actions", actions)


Policy = Union[DeterministicPolicy, RandomizedPolicy]
