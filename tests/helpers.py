"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's solver paths: forward
recursion is reimplemented locally, and every oracle LP is its own
formulation (mixtures of whole deterministic policies, per-state
backward induction, the textbook L1 epigraph), solved through scipy's
``linprog`` rather than the package's LP layer. The exceptions are
``single_lp_finite`` and ``single_lp_occupancy``, the whole
finite-action and occupancy LPs each in one checked solve, which column
generation in ``solve_finite`` and ``solve_occupancy`` must reproduce.
``single_lp_occupancy`` solves the occupancy LP as the package wrote it
before its single-entry weighted-L1 rows went on one split column
(``split_occupancy_lp``). They go through ``modcmdp.lp.Master`` and its
phase 1, the package's only one: the helper's master holds every column
from the start, so it checks the pricing, not the phase 1. That phase 1 is checked against an elastic LP
solved by ``linprog`` in ``test_lp_engine.py``.

``loop_box_simplex_vertices`` is the box enumerator as it was before it
wrote its vertex rows in one pass: a Python loop per vertex and numpy's
row-wise ``unique``. ``full_pool_vertices`` is the exhaustive enumerator
as it was before its active-row pool left out the sign rows that the
polytope's own rows imply, and before it built only the bases whose rows
are pairwise non-parallel: every -e_k is in the pool, and every choice
of n - 1 pool rows is solved.
``slice_finite_lp_columns`` is ``FiniteLp.columns`` as it was before it
gathered each row block's entries in one pass: the vertex columns from
triplets, the d columns sliced out of ``d_eq`` and ``d_in``, stacked and
put back in order. ``fresh_hull_envelope`` is the hull LP as
``hull_envelope`` solved it before every hull LP of a thread shared one
HiGHS model: each solve makes a new model and sets its options.
``fresh_face_envelope`` restricts that LP to the query's face, found by
the loop ``loop_face``, as ``hull_envelope`` now does. The package must
reproduce all of these outputs byte for byte.

``frozen_greedy`` is ``greedy_baseline`` as it was before each period
became one LP over its layer's actions: per period a whole sub-instance
from that period on, every later state frozen at its base by an
epsilon-0 box, solved by ``solve_occupancy``. The package's greedy must
give the same objectives to 1e-9, and raise in the same period.

``lift_matrix`` is the map from the occupancy LP's columns to its edge
masses as the LP once built it, a hand-made (n_cols + E) x n_cols CSC
matrix: the identity on the columns, then each edge mass's own column
or the weighted-L1 split p - m + center * d. The layout's column map
must write edge entries over the columns as a product with it does, and
read the same u back.

It also holds the helpers that only tests use: the positively
homogeneous lift of a reward, the homogenized polytope rows, a
randomized concavity check, a visit-mass CSV writer, the
occupancy-solution invariants and per-state vertex counts.
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
    DeterministicPolicy,
    LayeredStateSpace,
    QualityConstraint,
    QualityInfeasibleError,
    QuadraticDeviationReward,
    WeightedL1Reward,
    box_polytope,
    evaluate_exact,
    extract_policy,
    point_to_mix,
    solve_occupancy,
)
from modcmdp import lp as lpmod
from modcmdp.lp import LpProblem, solve_lp
from modcmdp.vertices import DEDUP_TOL, FACE_TOL, VERTEX_FEAS_TOL


@dataclass(frozen=True)
class Lift:
    """The lift of a reward r on the simplex to all nonnegative vectors,
    ``sum(u) * r(u / sum(u))`` and 0 where ``sum(u) <= 0``: it agrees with
    r on the simplex, scales linearly along rays and keeps r's curvature.
    The occupancy LP writes this lift of affine and weighted-L1 rewards."""

    spec: object

    @property
    def concave(self) -> bool:
        return self.spec.concave

    def value(self, u) -> float:
        u = np.asarray(u, dtype=float)
        q = float(u.sum())
        return 0.0 if q <= 0.0 else q * self.spec.value(u / q)


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
    """Randomized midpoint test of a lifted reward (``Lift``) on
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


def sample_specs(rng, dim):
    """One random reward spec of each family and sign over ``dim``
    coordinates."""
    center = rng.dirichlet(np.ones(dim))
    return [
        AffineReward(rng.normal(size=dim), float(rng.normal())),
        WeightedL1Reward(center, rng.uniform(0, 2, size=dim)),
        QuadraticDeviationReward(center, convex=False, weights=rng.uniform(0, 2, dim)),
        QuadraticDeviationReward(center, convex=True, weights=rng.uniform(0, 2, dim)),
    ]


def occupancy_violations(sol, instance, tol=1e-7):
    """Occupancy invariants of an ``OccupancySolution``: initial mass,
    layer sums, edge masses against visit masses, and the caps. One
    message per violation; empty when consistent."""
    out = []
    space = instance.states
    for i, s in enumerate(space.layers[0]):
        if abs(sol.visit_mass[s] - instance.alpha[i]) > tol:
            out.append(f"initial mass at {s!r} != alpha")
    for t, layer in enumerate(space.layers):
        tot = sum(sol.visit_mass[s] for s in layer)
        if abs(tot - 1.0) > tol:
            out.append(f"layer {t} mass sums to {tot:.9f}")
        if t + 1 < len(space.layers):
            nxt = space.layers[t + 1]
            for s in layer:
                row = sum(sol.edge_mass[(s, s2)] for s2 in nxt)
                if abs(row - sol.visit_mass[s]) > tol:
                    out.append(f"outgoing mass at {s!r} != visit mass")
            for s2 in nxt:
                col = sum(sol.edge_mass[(s, s2)] for s in layer)
                if abs(col - sol.visit_mass[s2]) > tol:
                    out.append(f"incoming mass at {s2!r} != visit mass")
    masses = sol.constraint_masses(instance)
    for i, qc in enumerate(instance.constraints):
        if masses[i] > qc.bound + 1e-8:
            out.append(f"constraint {i} violated: {masses[i]:.9f} > {qc.bound}")
    return out


def vertex_counts(vertex_set):
    """Number of vertices per state of a ``VertexSet``."""
    return {s: v.shape[0] for s, v in vertex_set.vertices.items()}


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


def split_occupancy_lp(instance):
    """The occupancy LP of an instance with affine and weighted-L1 rewards
    as the package wrote it before each single-entry row of a weighted-L1
    state went on one split column: every polytope row H u - h d <= 0, and
    a sign row -u_k <= 0 for each k a weighted-L1 state's rows do not
    imply, all written over the edge masses and carried to the columns by
    ``lift_matrix``. Columns as in ``build_occupancy_lp``; rows are the
    flow rows, the caps, every state's polytope rows, then the sign rows."""
    from modcmdp.occupancy import FlowRows

    flow = FlowRows(instance)
    lift = lift_matrix(instance)
    n = lift.shape[1]
    n_ext = lift.shape[0]  # the columns, then one edge mass each
    d_col = n - flow.n_states + np.arange(flow.n_states)
    rewards = [instance.rewards[s] for s in flow.states]
    polys = [instance.polytopes[s] for s in flow.states]
    width = flow.succ_width
    edge_start = np.concatenate([[0], np.cumsum(width)])
    l1 = np.array([isinstance(r, WeightedL1Reward) for r in rewards])
    col_start = np.concatenate([[0], np.cumsum(width * np.where(l1, 2, 1))])

    def lifted(triplets, n_rows):
        rows, cols, vals = (np.concatenate([np.asarray(a, dtype=t) for a in part])
                            for part, t in zip(zip(*triplets), (np.int64, np.int64, float)))
        return sp.csr_matrix((vals, (rows, cols)), shape=(n_rows, n_ext)) @ lift

    rows, d, vals = flow.d_eq
    eq = [(rows, d_col[d], vals)]
    for g in range(len(polys)):
        k = np.arange(width[g])
        edges = n + edge_start[g] + k
        eq += [(np.full(k.size, flow.out_row[g]), edges, np.ones(k.size)),
               (flow.in_start[g] + k, edges, np.ones(k.size))]
    rows, d, vals = flow.d_in
    ineq = [(rows, d_col[d], vals)]
    row = flow.b_in.size
    for g, poly in enumerate(polys):
        r, j = np.nonzero(poly.H)
        ineq += [(row + r, n + edge_start[g] + j, poly.H[r, j]),
                 (row + np.arange(poly.h.size), np.full(poly.h.size, d_col[g]), -poly.h)]
        row += poly.h.size
    for g in np.flatnonzero(l1):
        k = np.flatnonzero(~polys[g].implied_nonnegative)
        ineq.append((row + np.arange(k.size), n + edge_start[g] + k, -np.ones(k.size)))
        row += k.size

    c_ext = np.zeros(n_ext)
    c = np.zeros(n)
    for g, rew in enumerate(rewards):
        if isinstance(rew, AffineReward):
            c_ext[n + edge_start[g] : n + edge_start[g + 1]] = rew.e
            c_ext[d_col[g]] = rew.f
        else:
            c[col_start[g] : col_start[g + 1]] = np.tile(-rew.weights, 2)  # p, then m
    c = c + lift.T @ c_ext
    b_in = np.concatenate([flow.b_in, np.zeros(row - flow.b_in.size)])
    return LpProblem(c=c, a_eq=lifted(eq, flow.b_eq.size), b_eq=flow.b_eq,
                     a_in=lifted(ineq, row), b_in=b_in)


def single_lp_occupancy(instance):
    """The whole occupancy LP of :func:`split_occupancy_lp`, solved in one
    ``solve_lp`` call, as ``single_lp_finite`` does for the finite-action
    LP. Returns (problem, solution); ``solve_occupancy`` must reach its
    objective, or a certificate with its margin."""
    problem = split_occupancy_lp(instance)
    return problem, solve_lp(problem)


def _loop_dedup(points, tol):
    """Drop every point within ``tol`` (L-infinity) of an earlier kept
    one; the first of each cluster wins."""
    _, first = np.unique(points, axis=0, return_index=True)
    points = points[np.sort(first)]
    kept = np.empty_like(points, dtype=float)
    m = 0
    for p in points:
        if m and np.min(np.max(np.abs(kept[:m] - p), axis=1)) <= tol:
            continue
        kept[m] = p
        m += 1
    return kept[:m].copy()


def loop_box_simplex_vertices(lower, upper, dedup_tol=1e-7):
    """All vertices of {a : lower <= a <= upper, sum(a) = 1}, one row at a
    time: each subset S of coordinates raised to their upper bound whose
    gap-sum lies in [R - max(g), R] gives its exact row or one row per
    coordinate that can absorb the residual; rows are then deduplicated
    on their 9-decimal keys (lexicographic order) and, up to 400 rows,
    within ``dedup_tol``."""
    lo = np.asarray(lower, dtype=float)
    up = np.asarray(upper, dtype=float)
    n = lo.size
    tol = 1e-9
    if lo.sum() > 1.0 + tol or up.sum() < 1.0 - tol or np.any(up < lo - tol):
        return np.zeros((0, n))
    g = up - lo
    R = 1.0 - lo.sum()
    movable = np.flatnonzero(g > tol)
    gm = g[movable]
    order = np.argsort(-gm, kind="stable")
    gm = gm[order]
    movable = movable[order]
    suffix = np.concatenate([np.cumsum(gm[::-1])[::-1], [0.0]])
    g_max = gm[0] if gm.size else 0.0
    w_lo = R - g_max - tol

    subsets = []

    def dfs(pos, cur, chosen):
        if cur >= w_lo:
            subsets.append((chosen, cur))
        for k in range(pos, gm.size):
            t2 = cur + gm[k]
            if t2 > R + tol:
                continue
            if t2 + suffix[k + 1] < w_lo:
                break
            dfs(k + 1, t2, chosen + (k,))

    dfs(0, 0.0, ())

    rows = []
    for chosen, gapsum in subsets:
        base = lo.copy()
        for k in chosen:
            base[movable[k]] = up[movable[k]]
        resid = R - gapsum
        if resid <= tol:
            if resid >= -tol:
                rows.append(base)
            continue
        in_s = np.zeros(n, dtype=bool)
        in_s[movable[list(chosen)]] = True
        for f in np.flatnonzero((g >= resid - tol) & ~in_s):
            v = base.copy()
            v[f] = lo[f] + resid
            rows.append(v)
    if not rows:
        return np.zeros((0, n))
    pts = np.clip(np.vstack(rows), 0.0, None)
    pts = pts[np.abs(pts.sum(axis=1) - 1.0) <= 1e-9]
    _, first = np.unique(np.round(pts, 9), axis=0, return_index=True)
    pts = pts[first]
    if pts.shape[0] <= 400:
        pts = _loop_dedup(pts, dedup_tol)
    return pts


def slice_finite_lp_columns(flp, j):
    """Columns ``j`` of the finite-action LP ``flp`` (a
    ``modcmdp.vertices.FiniteLp``), in that order: the vertex columns
    written from triplets, then the d columns sliced from ``flp.d_eq`` and
    ``flp.d_in``, stacked and re-ordered into ``j``'s order."""
    j = np.asarray(j, dtype=np.int64)
    at_v = np.flatnonzero(j < flp.n_vertex)
    g = np.searchsorted(flp.col_start, j[at_v], side="right") - 1
    local = j[at_v] - flp.col_start[g]
    parts = [(flp.out_row[g], np.arange(at_v.size), np.ones(at_v.size))]
    for a in np.unique(flp.array_of[g]):
        k = np.flatnonzero(flp.array_of[g] == a)
        block = flp.vertices[flp.shared[a][0]][local[k]]
        r, c = np.nonzero(block)
        parts.append((flp.in_start[g[k[r]]] + c, k[r], block[r, c]))
    rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
    a_eq = sp.csc_matrix((vals, (rows, cols)), shape=(flp.b_eq.size, at_v.size))
    a_in = sp.csc_matrix((flp.b_in.size, at_v.size))
    if at_v.size < j.size:
        d = j[j >= flp.n_vertex] - flp.n_vertex
        back = np.argsort(np.concatenate([at_v, np.flatnonzero(j >= flp.n_vertex)]),
                          kind="stable")
        a_eq = sp.hstack([a_eq, flp.d_eq[:, d]], format="csc")[:, back]
        a_in = sp.hstack([a_in, flp.d_in[:, d]], format="csc")[:, back]
    a_eq.sort_indices()
    return LpProblem(c=flp.cost[j], a_eq=a_eq, b_eq=flp.b_eq, a_in=a_in, b_in=flp.b_in)


def full_pool_vertices(poly, extra_planes=None):
    """Vertices of ``poly`` by basis enumeration over the pool of its rows,
    every sign row -e_k . a <= 0 and the kink planes a_k = value of
    ``extra_planes``: each choice of n - 1 pool rows, in combination order,
    is solved with the simplex equality, and the feasible solutions are
    deduplicated within ``DEDUP_TOL``, first occurrences kept. Choices
    that hold two parallel rows (a box's upper, lower and sign rows and
    kink plane on one coordinate, say) are built too, and fail the
    determinant test."""
    n = poly.dim
    if n == 1:
        a = np.ones(1)
        ok = poly.contains(a, tol=VERTEX_FEAS_TOL * 10)
        return a.reshape(1, 1) if ok else np.zeros((0, 1))
    eye = np.eye(n)
    rows, rhs = [poly.H, -eye], [poly.h, np.zeros(n)]
    for k, val in extra_planes or []:
        rows.append(eye[k : k + 1])
        rhs.append(np.array([val]))
    pool, pool_rhs = np.vstack(rows), np.concatenate(rhs)
    found = []
    combos = itertools.combinations(range(pool.shape[0]), n - 1)
    while chunk := list(itertools.islice(combos, 1 << 15)):
        idx = np.array(chunk)
        m = np.empty((len(chunk), n, n))
        m[:, 0, :] = 1.0
        m[:, 1:, :] = pool[idx]
        r = np.empty((len(chunk), n))
        r[:, 0] = 1.0
        r[:, 1:] = pool_rhs[idx]
        good = np.abs(np.linalg.det(m)) > 1e-10
        if not np.any(good):
            continue
        sols = np.linalg.solve(m[good], r[good][..., None])[..., 0]
        resid = np.max(np.abs(m[good] @ sols[..., None] - r[good][..., None]), axis=(1, 2))
        cand = sols[resid <= 1e-7]
        found.append(cand[poly.contains(cand, VERTEX_FEAS_TOL)])
    pts = np.vstack(found) if found else np.zeros((0, n))
    return _loop_dedup(pts, DEDUP_TOL) if pts.shape[0] else pts


def fresh_solve_once(problem):
    """``lp.solve_once`` on a HiGHS model made for this one solve, with the
    options every hull LP has: no output, dual simplex, the package's
    iteration limit and a tenth of its feasibility tolerance, no presolve.
    The model is read out by ``lp._solve_highs``, as a master's is."""
    from scipy.optimize._highspy import _core as hs

    p = problem
    h = hs._Highs()
    for key, setting in {"output_flag": False, "simplex_strategy": 1,
                         "simplex_iteration_limit": lpmod.DEFAULT_MAXITER,
                         "primal_feasibility_tolerance": lpmod.FEAS_TOL / 10,
                         "dual_feasibility_tolerance": lpmod.FEAS_TOL / 10,
                         "presolve": "off"}.items():
        assert h.setOptionValue(key, setting) == hs.HighsStatus.kOk
    a = sp.vstack([sp.csc_matrix(p.a_eq), sp.csc_matrix(p.a_in)], format="csc")
    assert h.passModel(
        p.nvars, p.nrows, a.nnz, int(hs.MatrixFormat.kColwise),
        int(hs.ObjSense.kMinimize), 0.0, -p.c, p.lower, p.upper,
        np.concatenate([p.b_eq, np.full(p.b_in.size, -np.inf)]),
        np.concatenate([p.b_eq, p.b_in]),
        a.indptr.astype(np.int32), a.indices.astype(np.int32), a.data,
        np.zeros(p.nvars, dtype=np.int32),
    ) != hs.HighsStatus.kError  # HiGHS warns when it drops a tiny entry
    return lpmod._solve_highs(p, None, h)


def fresh_hull_envelope(points, values, query):
    """The hull LP of ``hull_envelope`` solved by ``fresh_solve_once``:
    (value, weights), or None when the query is outside the hull."""
    pts = np.asarray(points, dtype=float)
    nv = pts.shape[0]
    p = LpProblem(c=values, a_eq=np.vstack([pts.T, np.ones((1, nv))]),
                  b_eq=np.concatenate([np.asarray(query, dtype=float), [1.0]]))
    sol = fresh_solve_once(p)
    if sol.status != "optimal":
        return None
    return float(sol.objective), np.clip(sol.x, 0.0, None)


def loop_face(points, query, tol=FACE_TOL):
    """Indices of the generators on the query's face, one generator and
    one coordinate at a time: where the query lies within ``tol`` of the
    coordinate's smallest (largest) generator entry, a generator stays
    only if its entry lies within ``tol`` of that one."""
    pts = np.asarray(points, dtype=float)
    q = np.asarray(query, dtype=float)
    face = []
    for i in range(pts.shape[0]):
        on = True
        for k in range(pts.shape[1]):
            lo, hi = min(pts[:, k]), max(pts[:, k])
            if abs(q[k] - lo) <= tol and pts[i, k] > lo + tol:
                on = False
            if abs(q[k] - hi) <= tol and pts[i, k] < hi - tol:
                on = False
        if on:
            face.append(i)
    return face


def fresh_face_envelope(points, values, query):
    """``hull_envelope`` on its query's face, worked out apart: the face by
    ``loop_face``; one generator on it is the answer when it reproduces
    the query within ``lp.FEAS_TOL`` times the largest of 1 and the
    query's entries; several go to the hull LP of ``fresh_hull_envelope``
    over their columns, its weights put back at full length; anything
    else, or an infeasible face LP, to that LP over every generator.
    Returns (value, weights), or None when the query is outside."""
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(values, dtype=float)
    q = np.asarray(query, dtype=float)
    face = loop_face(pts, q)
    weights = np.zeros(pts.shape[0])
    if len(face) == 1:
        i = face[0]
        if max(abs(pts[i] - q)) <= lpmod.FEAS_TOL * max(1.0, max(abs(q))):
            weights[i] = 1.0
            return float(vals[i]), weights
    elif 1 < len(face) < pts.shape[0]:
        found = fresh_hull_envelope(pts[face], vals[face], q)
        if found is not None:
            weights[face] = found[1]
            return found[0], weights
    return fresh_hull_envelope(pts, vals, q)


def frozen_greedy(instance):
    """The greedy baseline by frozen sub-instances: (objective, policy).
    Period t solves the occupancy LP of the layers from t on, with period
    t's own polytopes, every later state boxed at its base with epsilon
    0, and each cap cut down to its states after period t and the bound
    left once the mass of periods up to t is accrued."""
    for s in instance.states.nonterminal():
        if not isinstance(instance.rewards[s], WeightedL1Reward):
            raise ValueError("greedy baseline is defined for L1 rewards")
    space = instance.states
    T = space.horizon
    committed = {}
    dist = np.asarray(instance.alpha, dtype=float).copy()
    visited = {}

    for t in range(T - 1):
        for i, s in enumerate(space.layers[t]):
            visited[s] = float(dist[i])
        polys, rews = {}, {}
        for tt in range(t, T - 1):
            for s in space.layers[tt]:
                base = instance.polytopes[s].base
                polys[s] = instance.polytopes[s] if tt == t else box_polytope(base, 0.0)
                rews[s] = instance.rewards[s]
        constraints = []
        for i, qc in enumerate(instance.constraints):
            accrued = sum(visited.get(s, 0.0) for s in qc.states if s in visited)
            remaining = {s for s in qc.states if s not in visited}
            bound = qc.bound - accrued
            if not remaining:
                if bound < -1e-9:
                    raise QualityInfeasibleError(
                        f"greedy period {t + 1}: constraint {i} already "
                        f"violated by {-bound:.3e}"
                    )
                continue
            if bound < 0:
                raise QualityInfeasibleError(
                    f"greedy period {t + 1}: constraint {i} bound exhausted"
                )
            constraints.append(QualityConstraint(remaining, bound))
        sub = CmdpInstance(LayeredStateSpace(space.layers[t:]), polys, rews, dist,
                           constraints)
        try:
            sol = solve_occupancy(sub)
        except QualityInfeasibleError as exc:
            raise QualityInfeasibleError(
                f"greedy period {t + 1}: {exc}",
                certificate=exc.certificate,
                excess=exc.excess,
            ) from exc
        policy = extract_policy(sol, sub)
        nxt = np.zeros(len(space.layers[t + 1]))
        for i, s in enumerate(space.layers[t]):
            committed[s] = policy.actions[s]
            nxt += dist[i] * policy.actions[s]
        dist = nxt

    full = DeterministicPolicy(committed)
    return evaluate_exact(instance, full).value, full


def lift_matrix(instance, tangent_cuts=None):
    """The occupancy LP's lift for ``instance``, laid out as in
    ``build_occupancy_lp``: row k < n_cols is column k, and row n_cols + e
    writes edge e's mass over the columns."""
    from modcmdp.occupancy import FlowRows

    flow = FlowRows(instance)
    rewards = [instance.rewards[s] for s in flow.states]
    width = flow.succ_width
    edge_start = np.concatenate([[0], np.cumsum(width)])
    n_edges = int(edge_start[-1])
    edges = np.arange(n_edges)
    src = np.repeat(np.arange(len(rewards)), width)
    local = edges - edge_start[src]
    l1 = np.array([isinstance(r, WeightedL1Reward) for r in rewards])
    col_start = np.concatenate([[0], np.cumsum(width * np.where(l1, 2, 1))])
    d_col = col_start[-1] + np.arange(flow.n_states)
    n_cuts = sum(bool(tangent_cuts) and isinstance(r, QuadraticDeviationReward)
                 for r in rewards)
    n_cols = int(d_col[-1]) + 1 + n_cuts

    # every block column carries one edge: edge e writes over its own u
    # (or p) column, and a weighted-L1 edge also over its m column (-1)
    # and its state's d column (the center), which come after
    pos = col_start[src] + local
    e1 = np.flatnonzero(l1[src])
    center = np.concatenate([np.zeros(0)] + [rewards[g].center for g in np.flatnonzero(l1)])
    edge = np.empty(col_start[-1], dtype=int)
    val = np.ones(col_start[-1])
    edge[pos] = edges
    edge[pos[e1] + width[src[e1]]] = e1
    val[pos[e1] + width[src[e1]]] = -1.0
    col = np.concatenate([np.arange(col_start[-1]), d_col[src[e1]]])
    edge = np.concatenate([edge, e1])
    val = np.concatenate([val, center])
    # column-compressed directly: each column's identity entry, then its
    # edge entries, which come sorted by column and then edge
    indptr = np.concatenate([[0], np.cumsum(np.bincount(col, minlength=n_cols) + 1)])
    index = np.empty(indptr[-1], dtype=np.int32)
    value = np.ones(indptr[-1])
    index[indptr[:-1]] = np.arange(n_cols)
    at = np.arange(col.size) + col + 1
    index[at] = n_cols + edge
    value[at] = val
    return sp.csc_matrix(
        (value, index, indptr.astype(np.int32)), shape=(n_cols + n_edges, n_cols)
    )
