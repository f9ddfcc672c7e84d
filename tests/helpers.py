"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's solver paths: forward
recursion is reimplemented locally, and every oracle LP is its own
formulation (mixtures of whole deterministic policies, per-state
backward induction, the textbook L1 epigraph), solved through scipy's
``linprog`` rather than the package's LP layer. The exception is
``single_lp_finite``, the whole finite-action LP in one checked solve,
which column generation in ``solve_finite`` must reproduce. Both go
through ``modcmdp.lp.Master`` and its phase 1, the package's only one:
the helper's master holds every column from the start, so it checks the
pricing, not the phase 1. That phase 1 is checked against an elastic LP
solved by ``linprog`` in ``test_lp_engine.py``.

It also holds the helpers that only tests use: the homogenized polytope
rows, a randomized concavity check and a visit-mass CSV writer.
"""

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from modcmdp import (
    AffineReward,
    CmdpInstance,
    DecompositionError,
    LayeredStateSpace,
    QualityConstraint,
    WeightedL1Reward,
    box_polytope,
    point_to_mix,
)
from modcmdp.lp import LpProblem, solve_lp


def extend_polytope(poly):
    """Homogenized membership rows: a matrix G with one row per original
    polytope row such that, for sum(a) > 0, ``G @ a <= 0`` iff
    ``a / sum(a)`` satisfies the polytope's H-rows. At a = 0 every row is 0.
    """
    if poly.H.shape[0] == 0:
        return np.zeros((0, poly.dim))
    return poly.H - np.outer(poly.h, np.ones(poly.dim))


@dataclass(frozen=True)
class ConcavityCheck:
    ok: bool
    witness: Optional[tuple[np.ndarray, np.ndarray]] = None

    def __bool__(self) -> bool:
        return self.ok


def check_concavity(ext, dim, samples=200, seed=0, direction="auto"):
    """Randomized midpoint test of a lifted reward (``extend_reward``) on
    pairs drawn from [0, 1]^dim minus the origin. ``direction`` picks the
    inequality: "concave", "convex", or "auto" to follow the lift's own
    variant. Returns a failing pair as witness when the test refutes the
    property.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if samples < 100:
        raise ValueError("samples must be >= 100")
    if direction == "auto":
        direction = "concave" if ext.concave else "convex"
    if direction not in ("concave", "convex"):
        raise ValueError(f"unknown direction {direction!r}")
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        x = rng.uniform(0.0, 1.0, size=dim)
        y = rng.uniform(0.0, 1.0, size=dim)
        if x.sum() < 1e-12 or y.sum() < 1e-12:
            continue
        mid = ext.value((x + y) / 2.0)
        avg = (ext.value(x) + ext.value(y)) / 2.0
        if direction == "concave" and mid < avg - 1e-9:
            return ConcavityCheck(False, (x, y))
        if direction == "convex" and mid > avg + 1e-9:
            return ConcavityCheck(False, (x, y))
    return ConcavityCheck(True)


def visit_mass_csv(instance, visit_mass):
    """Per-state visit masses as CSV text (layer-major order)."""
    lines = ["state,layer,mass"]
    for t, layer in enumerate(instance.states.layers):
        for s in layer:
            lines.append(f"{s},{t + 1},{visit_mass.get(s, 0.0)!r}")
    return "\n".join(lines) + "\n"


def forward_masses(instance, actions):
    """Visit masses for one deterministic action assignment, by a local
    forward recursion (independent of modcmdp.evaluate)."""
    space = instance.states
    masses = {}
    cur = np.asarray(instance.alpha, dtype=float)
    for t, layer in enumerate(space.layers):
        for i, s in enumerate(layer):
            masses[s] = float(cur[i])
        if t == space.horizon - 1:
            break
        nxt = np.zeros(len(space.layers[t + 1]))
        for i, s in enumerate(layer):
            nxt += cur[i] * np.asarray(actions[s], dtype=float)
        cur = nxt
    return masses


def policy_return(instance, actions, masses=None):
    masses = masses or forward_masses(instance, actions)
    return sum(
        masses[s] * instance.rewards[s].value(actions[s])
        for s in instance.states.nonterminal()
    )


def brute_force_mixture_value(instance, vertex_sets):
    """CMDP optimum over mixtures of deterministic vertex policies.

    Enumerates every deterministic assignment of a vertex to each state,
    evaluates return and constraint masses by forward recursion, then
    maximizes the mixture return subject to the caps with scipy. Only for
    tiny instances (the assignment count is a product over states).
    """
    states = list(instance.states.nonterminal())
    choices = [range(vertex_sets[s].shape[0]) for s in states]
    rets, masses = [], []
    for combo in itertools.product(*choices):
        actions = {s: vertex_sets[s][i] for s, i in zip(states, combo)}
        m = forward_masses(instance, actions)
        rets.append(policy_return(instance, actions, m))
        masses.append(
            [sum(m[s] for s in qc.states) for qc in instance.constraints]
        )
    rets = np.array(rets)
    masses = np.array(masses)
    n = rets.size
    a_ub = masses.T if instance.constraints else None
    b_ub = [qc.bound for qc in instance.constraints] or None
    res = linprog(
        -rets,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=np.ones((1, n)),
        b_eq=[1.0],
        bounds=[(0, None)] * n,
        method="highs",
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -res.fun


def backward_induction_value(instance):
    """Unconstrained optimum for affine rewards: per-state maximization of
    e.a + f + a.V over the polytope via scipy, composed backward."""
    space = instance.states
    values = np.zeros(len(space.layers[-1]))
    for t in range(space.horizon - 2, -1, -1):
        layer = space.layers[t]
        new_vals = np.zeros(len(layer))
        for i, s in enumerate(layer):
            poly = instance.polytopes[s]
            rew = instance.rewards[s]
            c = rew.e + values
            res = linprog(
                -c,
                A_ub=poly.H if poly.H.shape[0] else None,
                b_ub=poly.h if poly.H.shape[0] else None,
                A_eq=np.ones((1, poly.dim)),
                b_eq=[1.0],
                bounds=[(0, None)] * poly.dim,
                method="highs",
            )
            assert res.status == 0
            new_vals[i] = -res.fun + rew.f
        values = new_vals
    return float(instance.alpha @ values)


def random_instance(
    rng,
    max_states=4,
    max_horizon=4,
    reward="affine",
    eps_range=(0.08, 0.5),
    constraint_chance=0.8,
):
    """Random layered instance with box polytopes and feasible caps."""
    T = int(rng.integers(2, max_horizon + 1))
    sizes = [int(rng.integers(1, max_states + 1)) for _ in range(T)]
    layers = [[f"s{t}_{i}" for i in range(sizes[t])] for t in range(T)]
    space = LayeredStateSpace(layers)
    polytopes, rewards = {}, {}
    for t in range(T - 1):
        for s in layers[t]:
            dim = sizes[t + 1]
            b = rng.dirichlet(np.ones(dim) * rng.uniform(0.5, 3.0))
            polytopes[s] = box_polytope(b, float(rng.uniform(*eps_range)))
            if reward == "affine":
                rewards[s] = AffineReward(
                    rng.normal(size=dim), float(rng.normal())
                )
            elif reward == "l1":
                rewards[s] = WeightedL1Reward(b, rng.uniform(0.2, 2.0, size=dim))
            else:
                raise ValueError(reward)
    alpha = rng.dirichlet(np.ones(sizes[0]))
    instance = CmdpInstance(space, polytopes, rewards, alpha, [])

    constraints = []
    if rng.random() < constraint_chance:
        base_masses = forward_masses(
            instance, {s: polytopes[s].base for s in space.nonterminal()}
        )
        for _ in range(int(rng.integers(1, 3))):
            later = [s for t in range(1, T) for s in layers[t]]
            k = int(rng.integers(1, min(3, len(later)) + 1))
            members = list(rng.choice(later, size=k, replace=False))
            mass = sum(base_masses[s] for s in members)
            bound = mass * float(rng.uniform(0.8, 1.4)) + 1e-3
            constraints.append(QualityConstraint(members, bound))
    return CmdpInstance(space, polytopes, rewards, alpha, constraints)


def loop_occupancy_lp(instance):
    """Dense occupancy LP for affine and weighted-L1 rewards, assembled
    row by row with the textbook L1 epigraph: one column z_k per
    coordinate and the two rows |u_k - center_k * d| <= z_k. Columns are
    every state's u block, then every d, then the z columns. Returns
    (c, a_eq, b_eq, a_in, b_in) for a maximization with x >= 0."""
    space = instance.states
    u_start, d_index, z_start = {}, {}, {}
    col = 0
    for t in range(space.horizon - 1):
        for s in space.layers[t]:
            u_start[s] = col
            col += len(space.layers[t + 1])
    for s in space.all_states():
        d_index[s] = col
        col += 1
    for s in space.nonterminal():
        if isinstance(instance.rewards[s], WeightedL1Reward):
            z_start[s] = col
            col += instance.rewards[s].dim
    c = np.zeros(col)
    eq, b_eq, ineq, b_in = [], [], [], []

    def row(entries):
        r = np.zeros(col)
        for j, v in entries:
            r[j] += v
        return r

    for i, s in enumerate(space.layers[0]):
        eq.append(row([(d_index[s], 1.0)]))
        b_eq.append(instance.alpha[i])
    for t in range(space.horizon - 1):
        nxt = space.layers[t + 1]
        for s in space.layers[t]:
            eq.append(row([(u_start[s] + j, 1.0) for j in range(len(nxt))]
                          + [(d_index[s], -1.0)]))
            b_eq.append(0.0)
    for t in range(1, space.horizon):
        for j, s2 in enumerate(space.layers[t]):
            eq.append(row([(u_start[s] + j, 1.0) for s in space.layers[t - 1]]
                          + [(d_index[s2], -1.0)]))
            b_eq.append(0.0)
    for qc in instance.constraints:
        ineq.append(row([(d_index[s], 1.0) for s in qc.states]))
        b_in.append(qc.bound)
    for s in space.nonterminal():
        poly = instance.polytopes[s]
        for hrow, hval in zip(poly.H, poly.h):
            ineq.append(row([(u_start[s] + k, v) for k, v in enumerate(hrow)]
                            + [(d_index[s], -hval)]))
            b_in.append(0.0)
    for s in space.nonterminal():
        rew, u0, d = instance.rewards[s], u_start[s], d_index[s]
        if isinstance(rew, AffineReward):
            c[u0 : u0 + rew.dim] += rew.e
            c[d] += rew.f
            continue
        z0 = z_start[s]
        c[z0 : z0 + rew.dim] = -rew.weights
        for k, ck in enumerate(rew.center):
            for sign in (1.0, -1.0):
                ineq.append(row([(u0 + k, sign), (d, -sign * ck), (z0 + k, -1.0)]))
                b_in.append(0.0)
    return c, np.array(eq), np.array(b_eq), np.array(ineq), np.array(b_in)


def loop_occupancy_value(instance):
    """Optimal value of :func:`loop_occupancy_lp` by scipy, or None when
    the caps are infeasible."""
    c, a_eq, b_eq, a_in, b_in = loop_occupancy_lp(instance)
    res = linprog(-c, A_ub=a_in, b_ub=b_in, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * c.size, method="highs")
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -res.fun


def certify_extreme(verts, tol=1e-7):
    """LP check that no vertex is a convex combination of the others."""
    nv = verts.shape[0]
    for i in range(nv):
        others = np.delete(verts, i, axis=0)
        if others.shape[0] == 0:
            continue
        try:
            pairs = point_to_mix(verts[i], others)
        except DecompositionError:
            continue
        mix = sum(w * v for w, v in pairs)
        if np.max(np.abs(mix - verts[i])) <= tol:
            return False
    return True


def loop_finite_lp(fc):
    """The finite-action occupancy LP assembled state by state from the
    vertex arrays, the way the package built it before the occupancy
    assembler took vertex blocks: one column per (state, vertex), then
    every d; rows initial | outgoing | incoming | caps."""
    instance = fc.instance
    space = instance.states
    col = 0
    u_start = {}
    for t in range(space.horizon - 1):
        for s in space.layers[t]:
            u_start[s] = col
            col += fc.vertices[s].shape[0]
    d_index = {}
    for layer in space.layers:
        for s in layer:
            d_index[s] = col
            col += 1
    n = col

    # row order: initial | outgoing per state | incoming per state
    row = 0
    init_row = {s: (row := row + 1) - 1 for s in space.layers[0]}
    out_row = {}
    for t in range(space.horizon - 1):
        for s in space.layers[t]:
            out_row[s] = row
            row += 1
    in_row = {}
    for t in range(1, space.horizon):
        for s in space.layers[t]:
            in_row[s] = row
            row += 1

    c = np.zeros(n)
    b_eq = np.zeros(row)
    rr, cc, vv = [], [], []
    for i, s in enumerate(space.layers[0]):
        rr.append([init_row[s]])
        cc.append([d_index[s]])
        vv.append([1.0])
        b_eq[init_row[s]] = float(instance.alpha[i])
    for t in range(space.horizon - 1):
        nxt = space.layers[t + 1]
        nxt_rows = np.array([in_row[s2] for s2 in nxt])
        for s in space.layers[t]:
            verts = fc.vertices[s]
            nv = verts.shape[0]
            u0 = u_start[s]
            c[u0 : u0 + nv] = fc.rewards[s]
            cols = np.arange(u0, u0 + nv)
            rr.append(np.full(nv + 1, out_row[s]))
            cc.append(np.append(cols, d_index[s]))
            vv.append(np.append(np.ones(nv), -1.0))
            vi, vj = np.nonzero(verts)
            rr.append(nxt_rows[vj])
            cc.append(cols[vi])
            vv.append(verts[vi, vj])
        for s2 in nxt:
            rr.append([in_row[s2]])
            cc.append([d_index[s2]])
            vv.append([-1.0])
    a_eq = sp.csr_matrix(
        (np.concatenate([np.asarray(b, dtype=float) for b in vv]),
         (np.concatenate([np.asarray(b, dtype=np.int64) for b in rr]),
          np.concatenate([np.asarray(b, dtype=np.int64) for b in cc]))),
        shape=(row, n),
    )
    a_in = b_in = None
    if instance.constraints:
        a_in = np.zeros((len(instance.constraints), n))
        for k, qc in enumerate(instance.constraints):
            a_in[k, [d_index[s] for s in qc.states]] = 1.0
        b_in = [qc.bound for qc in instance.constraints]
    return LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_in=a_in, b_in=b_in)


def single_lp_finite(fc):
    """The whole finite-action LP of :func:`loop_finite_lp`, solved in one
    ``solve_lp`` call (a master holding every column, solved once).
    Returns (problem, solution) for the package's checked LP layer, so a
    test can compare objectives or evaluate a certificate against the
    whole LP."""
    problem = loop_finite_lp(fc)
    return problem, solve_lp(problem)
