"""Occupancy-measure convex program over edge masses u(s, s') and visit
masses d(s), and extraction of the deterministic optimal policy.

The program maximizes the homogeneously lifted reward of each state's
outgoing edge-mass vector subject to flow conservation, the initial
distribution, visitation-mass caps, and the lifted polytope rows. For
affine and weighted-L1 rewards it is an exact linear program; concave
quadratic rewards are supported only through an opt-in tangent-cut
relaxation, and convex quadratic rewards belong to the envelope solver.

A weighted-L1 state carries no edge-mass columns of its own. Its edge
masses are split around the lifted center, u = d * center + p - m with
p, m >= 0, and the reward -w . |u - d * center| becomes the linear
objective -w . (p + m) (the absolute-value LP of Bertsimas & Tsitsiklis,
Introduction to Linear Optimization, 1997, section 1.3). The split is
substituted into the flow and polytope rows, so each coordinate costs two
columns and no rows. u >= 0 then needs a row -(center * d + p - m) <= 0,
which is added only for coordinates that no polytope row -e_k . u <= h d
with h <= 0 already bounds below. The solver rebuilds u from p, m and d.

The constraint matrices are assembled from index arrays: edges are
numbered layer-major, the flow, polytope, sign and cut rows are written
as (row, edge, value) triplets over edge masses, and one vectorised
expansion rewrites them over the LP's columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import lp as lpmod
from .model import (
    AffineReward,
    CmdpInstance,
    DeterministicPolicy,
    QuadraticDeviationReward,
    WeightedL1Reward,
    require_valid,
)

# Visit mass below which a state counts as unreachable and the policy
# falls back to the base action.
UNREACHABLE_TOL = 1e-9


class QualityInfeasibleError(RuntimeError):
    """The visitation-mass caps cannot all be met. When an LP proved it,
    ``certificate`` is its Farkas certificate and ``excess`` the smallest
    attainable total cap excess, which is the certificate's margin."""

    def __init__(self, message: str, certificate=None, excess=None):
        super().__init__(message)
        self.certificate = certificate
        self.excess = excess


def raise_for_status(
    problem: lpmod.LpProblem, sol: lpmod.LpSolution, what: str
) -> None:
    """Turn a non-optimal solve of a route's LP into the package's error.

    The flow and polytope rows always hold for the base policy, so an
    infeasible LP means the caps cannot be met; the certificate's margin
    (the phase-1 value) is the smallest total excess over the caps.
    """
    if sol.status == "infeasible":
        excess = lpmod.farkas_gap(problem, sol.certificate)
        raise QualityInfeasibleError(
            "quality constraints unsatisfiable: the smallest attainable "
            f"total cap excess is {excess:.6g}",
            certificate=sol.certificate,
            excess=excess,
        )
    if sol.status == "limit_exceeded":
        raise TimeoutError(f"{what} hit a limit: {sol.message}")
    if sol.status != "optimal":
        raise RuntimeError(f"{what} {sol.status} — formulation bug")


@dataclass(frozen=True)
class OccupancySolution:
    """Optimal masses and objective. ``edge_mass[(s, s2)]`` is the joint
    probability of visiting s and stepping to s2; ``visit_mass[s]`` the
    probability of visiting s. ``bound`` is only set by the tangent-cut
    relaxation, where it carries the (possibly loose) LP upper bound while
    ``objective`` is the extracted policy's true return.
    """

    edge_mass: dict[tuple[str, str], float]
    visit_mass: dict[str, float]
    objective: float
    bound: Optional[float] = None

    def constraint_masses(self, instance: CmdpInstance) -> np.ndarray:
        return np.array(
            [
                sum(self.visit_mass.get(s, 0.0) for s in qc.states)
                for qc in instance.constraints
            ]
        )

    def check(self, instance: CmdpInstance, tol: float = 1e-7) -> list[str]:
        """Verify the occupancy invariants; empty list when consistent."""
        out = []
        space = instance.states
        for i, s in enumerate(space.layers[0]):
            if abs(self.visit_mass[s] - instance.alpha[i]) > tol:
                out.append(f"initial mass at {s!r} != alpha")
        for t, layer in enumerate(space.layers):
            tot = sum(self.visit_mass[s] for s in layer)
            if abs(tot - 1.0) > tol:
                out.append(f"layer {t} mass sums to {tot:.9f}")
            if t + 1 < len(space.layers):
                nxt = space.layers[t + 1]
                for s in layer:
                    row = sum(self.edge_mass[(s, s2)] for s2 in nxt)
                    if abs(row - self.visit_mass[s]) > tol:
                        out.append(f"outgoing mass at {s!r} != visit mass")
                for s2 in nxt:
                    col = sum(self.edge_mass[(s, s2)] for s in layer)
                    if abs(col - self.visit_mass[s2]) > tol:
                        out.append(f"incoming mass at {s2!r} != visit mass")
        masses = self.constraint_masses(instance)
        for i, qc in enumerate(instance.constraints):
            if masses[i] > qc.bound + 1e-8:
                out.append(f"constraint {i} violated: {masses[i]:.9f} > {qc.bound}")
        return out


class _Coo:
    """Accumulates (row, column, value) triplets of a sparse matrix; each
    argument is an array or a scalar repeated to the arrays' length, and
    repeated entries add up."""

    def __init__(self):
        self.parts: list[list[np.ndarray]] = []

    def add(self, rows, cols, vals) -> None:
        part = [np.asarray(a) for a in (rows, cols, vals)]
        size = next(a.size for a in part if a.ndim)
        self.parts.append([a.ravel() if a.ndim else np.full(size, a) for a in part])

    def triplets(self) -> list[np.ndarray]:
        return [
            np.concatenate([p[i] for p in self.parts] or [np.zeros(0, dtype)])
            for i, dtype in enumerate((int, int, float))
        ]

    def csr(self, n_rows: int, n_cols: int) -> sp.csr_matrix:
        rows, cols, vals = self.triplets()
        out = sp.csr_matrix((vals, (rows, cols)), shape=(n_rows, n_cols))
        out.eliminate_zeros()
        return out


@dataclass(frozen=True)
class _Layout:
    """Column layout of the occupancy LP for one instance.

    Edges are numbered layer-major: nonterminal state ``g`` (in
    ``space.nonterminal()`` order) owns edges ``edge_start[g]`` to
    ``edge_start[g + 1] - 1``, one per next-layer state. An edge mass is
    its own ``u`` column, or ``p - m + center * d`` for an edge of a
    weighted-L1 state.
    """

    states: tuple[str, ...]  # nonterminal states
    edge_start: np.ndarray  # (G + 1,)
    edge_src: np.ndarray  # (E,) nonterminal index of each edge's source
    edge_dst: np.ndarray  # (E,) all_states() index of each edge's target
    pos_col: np.ndarray  # (E,) column of u, or of p for an L1 state
    neg_col: np.ndarray  # (E,) column of m for an L1 state, else -1
    center: np.ndarray  # (E,) the L1 center coordinate, else 0
    d_col: np.ndarray  # (S,) column of d, in all_states() order
    aux_col: dict[str, int]  # tangent-cut epigraph column per state
    n_cols: int
    names: list[str]

    def edge_terms(self, rows, edges, vals):
        """Triplets over the LP's columns of the triplets (rows, edges,
        vals) over edge masses."""
        l1 = self.neg_col[edges] >= 0
        r1, e1, v1 = rows[l1], edges[l1], vals[l1]
        return (
            np.concatenate([rows, r1, r1]),
            np.concatenate(
                [self.pos_col[edges], self.neg_col[e1], self.d_col[self.edge_src[e1]]]
            ),
            np.concatenate([vals, -v1, v1 * self.center[e1]]),
        )

    def edge_masses(self, x: np.ndarray) -> np.ndarray:
        u = x[self.pos_col]
        l1 = self.neg_col >= 0
        d = x[self.d_col[self.edge_src[l1]]]
        u[l1] += self.center[l1] * d - x[self.neg_col[l1]]
        return u


def _make_layout(instance: CmdpInstance, cuts: Optional[int]) -> _Layout:
    space = instance.states
    sizes = np.array([len(layer) for layer in space.layers])
    layer_start = np.concatenate([[0], np.cumsum(sizes)])
    states = tuple(space.nonterminal())
    rewards = [instance.rewards[s] for s in states]
    l1 = np.array([isinstance(r, WeightedL1Reward) for r in rewards])
    layer_of = np.repeat(np.arange(space.horizon - 1), sizes[:-1])
    width = sizes[layer_of + 1]

    edge_start = np.concatenate([[0], np.cumsum(width)])
    n_edges = int(edge_start[-1])
    src = np.repeat(np.arange(len(states)), width)
    local = np.arange(n_edges) - edge_start[src]
    dst = layer_start[layer_of[src] + 1] + local

    # each state's edge block (u, or p then m), then every d, then the
    # tangent-cut epigraph columns
    col_start = np.concatenate([[0], np.cumsum(width * np.where(l1, 2, 1))])
    pos = col_start[src] + local
    neg = np.where(l1[src], pos + width[src], -1)
    d_col = col_start[-1] + np.arange(layer_start[-1])
    cut_states = [
        s for s, r in zip(states, rewards)
        if cuts and isinstance(r, QuadraticDeviationReward)
    ]
    aux_col = {s: int(d_col[-1]) + 1 + k for k, s in enumerate(cut_states)}

    names: list[str] = []
    for g, s in enumerate(states):
        nxt = space.layers[layer_of[g] + 1]
        for kind in ("p", "m") if l1[g] else ("u",):
            names.extend(f"{kind}:{s}:{s2}" for s2 in nxt)
    names.extend(f"d:{s}" for s in space.all_states())
    names.extend(f"t:{s}" for s in cut_states)

    center = np.zeros(n_edges)
    for g in np.flatnonzero(l1):
        center[edge_start[g] : edge_start[g + 1]] = rewards[g].center
    return _Layout(
        states, edge_start, src, dst, pos, neg, center, d_col, aux_col,
        len(names), names,
    )


@dataclass
class OccupancyLp(lpmod.LpProblem):
    """The occupancy LP together with the column layout that maps its
    solution back to edge and visit masses."""

    layout: Optional[_Layout] = field(default=None, repr=False, compare=False)


def _cut_points(poly, n_cuts: int, state_ord: int) -> list[np.ndarray]:
    """Deterministic tangent-cut anchor points inside the simplex."""
    pts = [np.asarray(poly.base, dtype=float)]
    rng = np.random.default_rng(1_000_003 * (state_ord + 1))
    while len(pts) < n_cuts:
        p = np.clip(poly.base + rng.uniform(-0.5, 0.5, size=poly.dim), 1e-6, None)
        pts.append(p / p.sum())
    return pts


def _check_rewards(instance: CmdpInstance, tangent_cuts: Optional[int]) -> None:
    for s in instance.states.nonterminal():
        rew = instance.rewards[s]
        if isinstance(rew, QuadraticDeviationReward):
            if rew.convex:
                raise ValueError(
                    f"reward at {s!r} is convex quadratic; the occupancy LP "
                    "cannot represent it — use the envelope solver "
                    "(modcmdp.envelope.solve_with_envelope)"
                )
            if not tangent_cuts:
                raise ValueError(
                    f"reward at {s!r} is concave quadratic, which is not "
                    "LP-representable; pass tangent_cuts=K to accept a "
                    "documented piecewise-linear outer approximation"
                )


def _implied_nonnegative(poly) -> np.ndarray:
    """Coordinates k whose lifted polytope rows already force u_k >= 0:
    a row that is a negative multiple of e_k with h <= 0."""
    nz = poly.H != 0
    k = np.argmax(nz, axis=1)
    lone = (nz.sum(axis=1) == 1) & (poly.H[np.arange(k.size), k] < 0)
    out = np.zeros(poly.dim, dtype=bool)
    out[k[lone & (poly.h <= 0)]] = True
    return out


def build_occupancy_lp(
    instance: CmdpInstance, tangent_cuts: Optional[int] = None
) -> OccupancyLp:
    """Assemble the occupancy LP for an instance with affine or weighted-L1
    rewards (or, with ``tangent_cuts=K``, concave quadratic rewards under a
    K-cut outer approximation whose objective is an upper bound only).

    Raises ValueError on invalid instances or unsupported reward kinds.
    """
    require_valid(instance)
    _check_rewards(instance, tangent_cuts)

    from .extend import extend_reward

    space = instance.states
    lay = _make_layout(instance, tangent_cuts)
    n = lay.n_cols
    n_first = len(space.layers[0])
    n_states = lay.d_col.size
    n_nonterminal = len(lay.states)
    c = np.zeros(n)
    lower = np.zeros(n)

    # each matrix gathers triplets over columns and, apart, over edge
    # masses, which edge_terms rewrites over columns at the end
    eq, eq_edges, ineq, ineq_edges = _Coo(), _Coo(), _Coo(), _Coo()

    # rows: initial distribution, then outgoing mass = d(s) for each
    # nonterminal state, then incoming mass = d(s2) for each later state
    eq.add(np.arange(n_first), lay.d_col[:n_first], 1.0)
    eq.add(n_first + np.arange(n_nonterminal), lay.d_col[:n_nonterminal], -1.0)
    later = np.arange(n_first, n_states)
    eq.add(n_nonterminal + later, lay.d_col[later], -1.0)
    edges = np.arange(lay.edge_src.size)
    eq_edges.add(n_first + lay.edge_src, edges, 1.0)
    eq_edges.add(n_nonterminal + lay.edge_dst, edges, 1.0)
    b_eq = np.concatenate([instance.alpha, np.zeros(n_nonterminal + later.size)])

    index = {s: i for i, s in enumerate(space.all_states())}
    for i, qc in enumerate(instance.constraints):
        ineq.add(i, lay.d_col[sorted(index[s] for s in qc.states)], 1.0)
    # the lifted polytope rows H u - h d <= 0 of every state come first,
    # then each state's sign or tangent-cut rows
    poly_row = len(instance.constraints)
    row = poly_row + sum(instance.polytopes[s].h.size for s in lay.states)
    for g, s in enumerate(lay.states):
        poly = instance.polytopes[s]
        e0 = lay.edge_start[g]
        r, j = np.nonzero(poly.H)
        ineq_edges.add(poly_row + r, e0 + j, poly.H[r, j])
        ineq.add(poly_row + np.arange(poly.h.size), lay.d_col[g], -poly.h)
        poly_row += poly.h.size

        rew = instance.rewards[s]
        if isinstance(rew, AffineReward):
            c[lay.pos_col[e0 : e0 + rew.dim]] += rew.e
            c[lay.d_col[g]] += rew.f
        elif isinstance(rew, WeightedL1Reward):
            # u = center * d + p - m: the objective charges p + m, and
            # u >= 0 needs its own row where the polytope does not imply it
            c[lay.pos_col[e0 : e0 + rew.dim]] = -rew.weights
            c[lay.neg_col[e0 : e0 + rew.dim]] = -rew.weights
            free = np.flatnonzero(~_implied_nonnegative(poly))
            ineq_edges.add(row + np.arange(free.size), e0 + free, -1.0)
            row += free.size
        else:  # concave quadratic under tangent cuts: t - g_k . u <= 0
            tcol = lay.aux_col[s]
            c[tcol] = 1.0
            lower[tcol] = -np.inf
            ext = extend_reward(rew)
            anchors = _cut_points(poly, tangent_cuts, g)
            grads = np.array([ext.gradient(p) for p in anchors])
            k, j = np.indices(grads.shape)
            ineq_edges.add(row + k, e0 + j, -grads)
            ineq.add(row + np.arange(len(grads)), tcol, 1.0)
            row += len(grads)
    eq.add(*lay.edge_terms(*eq_edges.triplets()))
    ineq.add(*lay.edge_terms(*ineq_edges.triplets()))

    b_in = np.zeros(row)
    b_in[: len(instance.constraints)] = [qc.bound for qc in instance.constraints]
    return OccupancyLp(
        c=c, a_eq=eq.csr(b_eq.size, n), b_eq=b_eq, a_in=ineq.csr(row, n), b_in=b_in,
        lower=lower, names=tuple(lay.names), layout=lay,
    )


def solve_occupancy(
    instance: CmdpInstance,
    tangent_cuts: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> OccupancySolution:
    """Solve the occupancy program and return the optimal masses.

    Raises QualityInfeasibleError when the visitation caps are jointly
    unsatisfiable, and RuntimeError on an unbounded program (impossible
    for valid instances; indicates a formulation bug).
    """
    problem = build_occupancy_lp(instance, tangent_cuts)
    sol = lpmod.solve_lp(problem, time_limit=time_limit)
    raise_for_status(problem, sol, "occupancy LP")

    lay = problem.layout
    space = instance.states
    u = np.maximum(lay.edge_masses(sol.x), 0.0)
    keys = [
        (s, s2)
        for t in range(space.horizon - 1)
        for s in space.layers[t]
        for s2 in space.layers[t + 1]
    ]
    edge = dict(zip(keys, u.tolist()))
    visit = dict(zip(space.all_states(), np.maximum(sol.x[lay.d_col], 0.0).tolist()))

    if tangent_cuts:
        # the LP objective only bounds the true (quadratic) return; report
        # the extracted policy's achieved return as the objective
        from .evaluate import evaluate_exact

        tmp = OccupancySolution(edge, visit, objective=float(sol.objective))
        policy = extract_policy(tmp, instance)
        report = evaluate_exact(instance, policy)
        return OccupancySolution(
            edge, visit, objective=report.value, bound=float(sol.objective)
        )
    return OccupancySolution(edge, visit, objective=float(sol.objective))


def extract_policy(
    sol: OccupancySolution, instance: CmdpInstance
) -> DeterministicPolicy:
    """Deterministic policy dividing edge masses by visit mass; states with
    visit mass below 1e-9 fall back to their base action (their choice is
    immaterial and the base is always feasible)."""
    space = instance.states
    actions = {}
    for t in range(space.horizon - 1):
        nxt = space.layers[t + 1]
        for s in space.layers[t]:
            d = sol.visit_mass[s]
            poly = instance.polytopes[s]
            if d <= UNREACHABLE_TOL:
                actions[s] = poly.base
                continue
            a = np.array([sol.edge_mass[(s, s2)] for s2 in nxt]) / d
            a = np.clip(a, 0.0, None)
            a /= a.sum()
            if poly.margin(a) > 1e-7:
                raise RuntimeError(
                    f"extracted action at {s!r} violates its polytope by "
                    f"{poly.margin(a):.3e}"
                )
            actions[s] = a
    return DeterministicPolicy(actions)
