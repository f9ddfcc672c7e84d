"""Concave-envelope method for convex rewards.

Over a polytope, the tightest concave function dominating a convex reward
is piecewise linear and generated by the reward's values at the polytope
vertices; its value at any point is the best convex combination of vertex
values reproducing that point. So the envelope model is the
finite-action reduction (:class:`modcmdp.vertices.FiniteCmdp`) whose
actions are the polytope vertices, each scored by the convex reward.
Solving the lifted occupancy program with the envelope reward is its LP
over per-vertex masses, and the optimal envelope value is actually
achieved in the original problem by randomizing among the vertices with
the combination weights.
"""

from __future__ import annotations

import numpy as np

from . import lp as lpmod
from .evaluate import evaluate_exact
from .model import (
    AffineReward,
    CmdpInstance,
    DeterministicPolicy,
    QuadraticDeviationReward,
    RandomizedPolicy,
    require_valid,
)
from .occupancy import extract_policy, solve_occupancy
from .vertices import (
    DecompositionError,
    FiniteCmdp,
    VertexSet,
    build_finite_cmdp,
    enumerate_for_instance,
    hull_envelope,
    solve_finite,
)


def build_envelope(
    instance: CmdpInstance,
    vertex_set: VertexSet | None = None,
    deadline: float | None = None,
) -> FiniteCmdp:
    """The envelope model of an instance with convex (quadratic or affine)
    rewards: the finite-action reduction whose actions are the polytope
    vertices, each scored by the convex reward there. Vertices are
    enumerated unless ``vertex_set`` is given, which
    :func:`modcmdp.vertices.build_finite_cmdp` checks; enumeration stops at
    ``deadline`` (a ``time.monotonic()`` reading)."""
    require_valid(instance)
    for s in instance.states.nonterminal():
        if not instance.rewards[s].convex:
            raise ValueError(
                f"reward at {s!r} is not convex; the envelope solver handles "
                "convex quadratic (or affine) rewards — use the occupancy "
                "solver for concave rewards"
            )
    if vertex_set is not None:
        return build_finite_cmdp(instance, vertex_set)
    vertex_set = enumerate_for_instance(instance, method="auto", deadline=deadline)
    return FiniteCmdp(instance, vertex_set.vertices)


def envelope_value(fc: FiniteCmdp, state: str, a) -> tuple[float, np.ndarray]:
    """Envelope value and maximizing weights at one action. The value is
    never below the source reward; equality holds at the vertices.

    Only the vertices on the action's face can carry weight: where the
    action sits at the vertices' least (largest) entry of a coordinate,
    any mixture with a vertex off that extreme would move the mean off
    it. :func:`modcmdp.vertices.hull_envelope` therefore solves its LP
    over those vertices alone, and reads a vertex's own reward with no
    LP when the action is that vertex."""
    try:
        return hull_envelope(fc.vertices[state], fc.rewards[state], a)
    except DecompositionError:
        raise DecompositionError(
            f"action at {state!r} is outside the vertex hull — "
            "vertex enumeration is incomplete"
        )


def solve_with_envelope(
    instance: CmdpInstance, time_limit=None
) -> tuple[float, RandomizedPolicy]:
    """Solve a convex-reward instance to optimality.

    Solves the occupancy LP of the envelope model (mass w(s, i) on each
    vertex with the vertex reward as its objective coefficient — the
    finite embedding of the piecewise-linear envelope) and returns the
    optimal value together with the randomized vertex policy
    w(s, i) / d(s), which achieves that value in the original problem.
    ``time_limit`` covers enumeration and the LP.
    """
    deadline = lpmod.deadline_after(time_limit)
    fc = build_envelope(instance, deadline=deadline)
    return solve_finite(fc, time_limit=lpmod.time_left(deadline))


def naive_linear_baseline(
    instance: CmdpInstance, time_limit=None
) -> tuple[float, DeterministicPolicy]:
    """First-order baseline: replace each reward by its tangent plane at
    the base action, solve the resulting LP, and score the policy under
    the true rewards.

    Ties in the linearized program are broken toward the base policy
    (when it is feasible), matching the natural behaviour of a local
    approximation anchored at the expansion point. Returns the true
    return and the chosen policy. ``time_limit`` bounds the LP.
    """
    deadline = lpmod.deadline_after(time_limit)
    require_valid(instance)
    lin_rewards = {}
    for s in instance.states.nonterminal():
        rew = instance.rewards[s]
        if isinstance(rew, AffineReward):
            lin_rewards[s] = rew
        elif isinstance(rew, QuadraticDeviationReward):
            lin_rewards[s] = rew.tangent(instance.polytopes[s].base)
        else:
            raise ValueError(
                f"reward at {s!r} is not quadratic or affine; the linear "
                "baseline is defined for those families"
            )
    lin_instance = CmdpInstance(
        instance.states,
        instance.polytopes,
        lin_rewards,
        instance.alpha,
        instance.constraints,
    )
    sol = solve_occupancy(lin_instance, time_limit=lpmod.time_left(deadline))
    policy = extract_policy(sol, lin_instance)

    base_policy = DeterministicPolicy(
        {s: instance.polytopes[s].base for s in instance.states.nonterminal()}
    )
    base_lin = evaluate_exact(lin_instance, base_policy)
    if base_lin.feasible and base_lin.value >= sol.objective - 1e-9 * max(
        1.0, abs(sol.objective)
    ):
        policy = base_policy
    true_report = evaluate_exact(instance, policy)
    return true_report.value, policy
