"""Independent policy evaluation: exact forward recursion and Monte Carlo
simulation.

Both evaluators accept deterministic and randomized policies. For a
randomized policy the transition row is the mixture marginal while the
reward is the mixture average of the atom rewards — the distinction is
what makes randomizing among extreme actions profitable for non-concave
rewards, so the two must never be conflated.

Simulation uses numpy's Philox counter-based generator; a fixed 64-bit
seed reproduces reports bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    CmdpInstance,
    Policy,
    RandomizedPolicy,
    require_valid,
)


@dataclass(frozen=True)
class EvaluationReport:
    """Visitation masses, return, and per-constraint attainment of one
    policy. ``std_error`` and ``trajectories`` are set by simulation only.
    """

    visit_mass: dict[str, float]
    value: float
    constraint_masses: np.ndarray
    constraint_slacks: np.ndarray
    feasible: bool
    std_error: Optional[float] = None
    trajectories: Optional[int] = None


def _require_valid(instance: CmdpInstance, policy: Policy) -> None:
    require_valid(instance)
    bad = policy.check(instance)
    if bad:
        raise ValueError("infeasible policy: " + "; ".join(bad))


def cap_masses(instance: CmdpInstance, visit: dict[str, float]) -> np.ndarray:
    """Total visit mass over each cap's states, in constraint order."""
    return np.array(
        [sum(visit.get(s, 0.0) for s in qc.states) for qc in instance.constraints]
    )


def _constraint_summary(instance, visit):
    masses = cap_masses(instance, visit)
    bounds = np.array([qc.bound for qc in instance.constraints])
    slacks = bounds - masses
    feasible = bool(np.all(masses <= bounds + 1e-8)) if masses.size else True
    return masses, slacks, feasible


def evaluate_exact(instance: CmdpInstance, policy: Policy) -> EvaluationReport:
    """Exact visit masses by forward recursion and the exact return."""
    _require_valid(instance, policy)
    space = instance.states
    visit: dict[str, float] = {}
    cur = np.asarray(instance.alpha, dtype=float).copy()
    total = 0.0
    for t, layer in enumerate(space.layers):
        for i, s in enumerate(layer):
            visit[s] = float(cur[i])
        if t == space.horizon - 1:
            break
        nxt = space.layers[t + 1]
        out = np.zeros(len(nxt))
        for i, s in enumerate(layer):
            if cur[i] == 0.0:
                continue
            total += cur[i] * policy.expected_reward(s, instance.rewards[s])
            out += cur[i] * policy.action_marginal(s)
        cur = out
    masses, slacks, feasible = _constraint_summary(instance, visit)
    return EvaluationReport(visit, float(total), masses, slacks, feasible)


def simulate(
    instance: CmdpInstance,
    policy: Policy,
    trajectories: int,
    seed: int = 0,
) -> EvaluationReport:
    """Monte Carlo estimate of visit masses and return from independent
    trajectories (Philox stream derived from ``seed``). Empirical values
    converge to the exact ones at the usual 1/sqrt(N) rate; the report's
    feasibility flag applies the caps to the empirical masses.
    """
    if trajectories < 1:
        raise ValueError("trajectories must be >= 1")
    _require_valid(instance, policy)
    rng = np.random.Generator(np.random.Philox(seed))
    space = instance.states
    n = trajectories

    cum_alpha = np.cumsum(instance.alpha)
    cur = np.searchsorted(cum_alpha, rng.random(n), side="right")
    cur = np.minimum(cur, len(space.layers[0]) - 1)
    rewards = np.zeros(n)
    visit: dict[str, float] = {}

    for t, layer in enumerate(space.layers):
        counts = np.bincount(cur, minlength=len(layer))
        for i, s in enumerate(layer):
            visit[s] = counts[i] / n
        if t == space.horizon - 1:
            break
        nxt_count = len(space.layers[t + 1])
        nxt = np.zeros(n, dtype=np.int64)
        for i, s in enumerate(layer):
            idx = np.flatnonzero(cur == i)
            if idx.size == 0:
                continue
            # a deterministic action is a one-atom mixture whose atom
            # takes no random draw
            if isinstance(policy, RandomizedPolicy):
                pairs = policy.mixtures[s]
                cum = np.cumsum([w for w, _ in pairs])
                atom = np.minimum(np.searchsorted(cum, rng.random(idx.size), side="right"),
                                  len(pairs) - 1)
            else:
                pairs = ((1.0, policy.actions[s]),)
                atom = np.zeros(idx.size, dtype=np.int64)
            rew = instance.rewards[s]
            for ai, (_, a) in enumerate(pairs):
                sub = idx[atom == ai]
                if sub.size == 0:
                    continue
                rewards[sub] += rew.value(a)
                nxt[sub] = np.minimum(
                    np.searchsorted(np.cumsum(a), rng.random(sub.size), side="right"),
                    nxt_count - 1,
                )
        cur = nxt

    value = float(rewards.mean())
    se = float(rewards.std(ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    masses, slacks, feasible = _constraint_summary(instance, visit)
    return EvaluationReport(
        visit, value, masses, slacks, feasible, std_error=se, trajectories=n
    )
