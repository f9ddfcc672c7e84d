"""Occupancy-measure convex program over edge masses u(s, s') and visit
masses d(s), and extraction of the deterministic optimal policy. Its flow
and cap rows and the d columns' entries on them (:class:`FlowRows`) are
shared with the finite-action LP of the extreme-point and envelope routes,
whose other columns are vertex masses (:class:`modcmdp.vertices.FiniteLp`).

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
which is added only where the polytope rows do not already imply it
(``ActionPolytope.implied_nonnegative``). The solver rebuilds u from p, m and d.

The constraint matrices are assembled from index arrays: edges are
numbered layer-major, the rows are written as (row, index, value)
triplets over the LP's columns and the edge masses, and one sparse
product with the layout's lift, which writes each edge mass over the
columns (u = M x), rewrites them over the columns alone; the same map
recovers u from a solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import lp as lpmod
from .evaluate import cap_masses, evaluate_validated
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
    problem, sol: lpmod.LpSolution, what: str, margin=lpmod.farkas_gap
) -> None:
    """Turn a non-optimal solve of a route's LP into the package's error.

    The flow and polytope rows always hold for the base policy, so an
    infeasible LP means the caps cannot be met; the certificate's margin
    ``margin(problem, certificate)`` (the phase-1 value) is the smallest
    total excess over the caps, and a margin that is not positive raises
    LpError. ``problem`` is an :class:`lp.LpProblem`, or whatever
    ``margin`` takes.
    """
    if sol.status == "infeasible":
        excess = margin(problem, sol.certificate)
        if not excess > 0.0:
            raise lpmod.LpError(f"{what}: the certificate does not certify infeasibility")
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
        return cap_masses(instance, self.visit_mass)


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

    def matrix(self, n_rows: int, n_cols: int) -> sp.csc_matrix:
        rows, cols, vals = self.triplets()
        return sp.csc_matrix((vals, (rows, cols)), shape=(n_rows, n_cols))


class FlowRows:
    """The rows every occupancy LP of an instance shares, and the visit
    masses' entries on them; :func:`build_occupancy_lp` and
    :class:`modcmdp.vertices.FiniteLp` both build on it.

    Equality rows: one initial-distribution row per first-layer state,
    then the outgoing mass of each nonterminal state ``g`` (``states``
    order) at ``out_row[g]``, then the incoming mass of each later state.
    Then one cap row each, right-hand side ``b_in``. Mass leaving ``g``
    for its k-th successor, ``space.all_states()`` state
    ``succ_start[g] + k`` (k < ``succ_width[g]``), has a 1 on
    ``out_row[g]`` and on ``in_start[g] + k``. ``d_eq`` and ``d_in`` are
    the (row, state, value) triplets of the visit masses: d is +1 on its
    initial row, -1 on its outgoing and incoming rows, and +1 on every
    cap that holds its state.
    """

    def __init__(self, instance: CmdpInstance):
        space = instance.states
        sizes = np.array([len(layer) for layer in space.layers])
        layer_start = np.concatenate([[0], np.cumsum(sizes)])
        self.states = tuple(space.nonterminal())
        n_first, n_g, self.n_states = int(sizes[0]), len(self.states), int(layer_start[-1])
        layer_of = np.repeat(np.arange(space.horizon - 1), sizes[:-1])
        self.succ_start = layer_start[layer_of + 1]
        self.succ_width = sizes[layer_of + 1]
        self.out_row = n_first + np.arange(n_g)
        self.in_start = n_g + self.succ_start
        self.b_eq = np.concatenate([instance.alpha, np.zeros(n_g + self.n_states - n_first)])
        self.b_in = np.array([qc.bound for qc in instance.constraints], dtype=float)

        later = np.arange(n_first, self.n_states)
        self.d_eq = (
            np.concatenate([np.arange(n_first), self.out_row, n_g + later]),
            np.concatenate([np.arange(n_first), np.arange(n_g), later]),
            np.concatenate([np.ones(n_first), -np.ones(n_g + later.size)]),
        )
        caps = [(i, layer_start[t] + k) for i, qc in enumerate(instance.constraints)
                for t, k in sorted(map(space.position, qc.states))]
        rows, cols = np.array(caps, dtype=np.int64).reshape(-1, 2).T
        self.d_in = (rows, cols, np.ones(rows.size))


@dataclass(frozen=True)
class _Layout:
    """Column layout of the occupancy LP for one instance.

    Edges are numbered layer-major: nonterminal state ``g`` (in
    :class:`FlowRows` order) owns edges ``edge_start[g]`` to
    ``edge_start[g + 1] - 1``, one per successor, and the column block
    ``col_start[g]`` to ``col_start[g + 1] - 1``; every d column follows,
    then the tangent-cut epigraph columns.

    Rows are written over the LP's columns and the edge masses, edge ``e``
    taking index ``n_cols + e``. ``lift`` maps that space onto the
    columns: it is the identity on the columns and u = M x on the edges,
    where a block of M is the state's own u columns or the split
    p - m + center * d of a weighted-L1 state. So rewriting rows over the
    columns is one product with ``lift``, and so is recovering u from a
    solution.
    """

    edge_start: np.ndarray  # (G + 1,)
    edge_src: np.ndarray  # (E,) nonterminal index of each edge's source
    col_start: np.ndarray  # (G + 1,)
    d_col: np.ndarray  # (S,) column of d, in all_states() order
    aux_col: dict[str, int]  # tangent-cut epigraph column per state
    lift: sp.csc_matrix  # (n_cols + E, n_cols)

    @property
    def n_cols(self) -> int:
        return int(self.d_col[-1]) + 1 + len(self.aux_col)


def _make_layout(instance: CmdpInstance, flow: FlowRows, cuts: Optional[int]) -> _Layout:
    rewards = [instance.rewards[s] for s in flow.states]
    width = flow.succ_width
    edge_start = np.concatenate([[0], np.cumsum(width)])
    n_edges = int(edge_start[-1])
    edges = np.arange(n_edges)
    src = np.repeat(np.arange(len(rewards)), width)
    local = edges - edge_start[src]

    # each state's block (u, or p then m), then every d, then the
    # tangent-cut epigraph columns
    l1 = np.array([isinstance(r, WeightedL1Reward) for r in rewards])
    block = width * np.where(l1, 2, 1)
    col_start = np.concatenate([[0], np.cumsum(block)])
    d_col = col_start[-1] + np.arange(flow.n_states)
    cut_states = [
        s for s, r in zip(flow.states, rewards)
        if cuts and isinstance(r, QuadraticDeviationReward)
    ]
    aux_col = {s: int(d_col[-1]) + 1 + k for k, s in enumerate(cut_states)}
    n_cols = int(d_col[-1]) + 1 + len(cut_states)

    # Every block column carries one edge: edge e writes over its own
    # u (or p) column, and a weighted-L1 edge also over its m column
    # (-1) and its state's d column (the center), which come after.
    pos = col_start[src] + local
    e1 = np.flatnonzero(l1[src])
    center = np.concatenate(
        [np.zeros(0)] + [rewards[g].center for g in np.flatnonzero(l1)]
    )
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
    at = np.arange(col.size) + col + 1  # after the identity entries so far
    index[at] = n_cols + edge
    value[at] = val
    lift = sp.csc_matrix(
        (value, index, indptr.astype(np.int32)), shape=(n_cols + n_edges, n_cols)
    )
    return _Layout(edge_start, src, col_start, d_col, aux_col, lift)


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


def _starts(sizes) -> np.ndarray:
    """Start of each block of the given sizes, laid end to end, and the
    end of the last."""
    return np.concatenate([[0], np.cumsum(sizes, dtype=int)])


def _ranges(starts, sizes) -> np.ndarray:
    """``starts[i] + arange(sizes[i])`` for every i, concatenated."""
    sizes = np.asarray(sizes, dtype=int)
    within = np.arange(sizes.sum()) - np.repeat(_starts(sizes)[:-1], sizes)
    return np.repeat(np.asarray(starts, dtype=int), sizes) + within


# Entries of H matrices gathered per pass of _add_polytope_rows (8 MB of
# floats): every box of a horizon-6 loan of up to 47 levels in one pass,
# and no copy of all the boxes at once at 100 levels (80 MB).
_H_CHUNK = 1 << 20


def _add_polytope_rows(coo: _Coo, polys, row_start, col_start) -> None:
    """Add the nonzero entries of each ``polys[g].H``, row r and column j,
    at (``row_start[g] + r``, ``col_start[g] + j``), gathering the
    matrices of many states per pass."""
    sizes = np.array([p.H.size for p in polys], dtype=int)
    cuts = np.searchsorted(np.cumsum(sizes), np.arange(_H_CHUNK, sizes.sum(), _H_CHUNK))
    bounds = np.unique(np.concatenate([[0], cuts, [len(polys)]]))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        flat = np.concatenate([p.H.ravel() for p in polys[lo:hi]])
        at = np.flatnonzero(flat)
        offset = _starts(sizes[lo:hi])
        g = np.searchsorted(offset, at, side="right") - 1
        dim = np.array([p.dim for p in polys[lo:hi]])
        r, j = np.divmod(at - offset[g], dim[g])
        coo.add(row_start[lo + g] + r, col_start[lo + g] + j, flat[at])


def build_occupancy_lp(
    instance: CmdpInstance, tangent_cuts: Optional[int] = None
) -> OccupancyLp:
    """Assemble the occupancy LP for an instance with affine or weighted-L1
    rewards (or, with ``tangent_cuts=K``, concave quadratic rewards under a
    K-cut outer approximation whose objective is an upper bound only).

    The cuts touch each lifted reward at the base and K - 1 fixed points,
    so the bound can be trivial and the LP's policy far from optimal (the
    README's "Tangent cuts": -0.290 and a bound of 0.0 at K = 64 where the
    optimum is near -2.7e-4). ROADMAP item 3 plans the exact route.

    Raises ValueError on invalid instances or unsupported reward kinds.
    """
    from .extend import extend_reward

    require_valid(instance)
    _check_rewards(instance, tangent_cuts)
    flow = FlowRows(instance)
    lay = _make_layout(instance, flow, tangent_cuts)
    n = lay.n_cols
    c = np.zeros(n)
    lower = np.zeros(n)

    # triplets over the columns and the edge masses (edge e at n + e),
    # which the layout's lift rewrites over the columns at the end
    eq, ineq = _Coo(), _Coo()
    for coo, (rows, d, vals) in ((eq, flow.d_eq), (ineq, flow.d_in)):
        coo.add(rows, lay.d_col[d], vals)
    # edge e of state src leaves it for its (e - edge_start[src])-th successor
    e, src = np.arange(lay.edge_src.size), lay.edge_src
    eq.add(flow.out_row[src], n + e, 1.0)
    eq.add(flow.in_start[src] + e - lay.edge_start[src], n + e, 1.0)
    # the lifted polytope rows H u - h d <= 0 of every state come first,
    # then each state's sign or tangent-cut rows, in state order
    polys = [instance.polytopes[s] for s in flow.states]
    rewards = [instance.rewards[s] for s in flow.states]
    states = np.arange(len(polys))
    poly_row = flow.b_in.size + _starts([p.h.size for p in polys])
    _add_polytope_rows(ineq, polys, poly_row, n + lay.edge_start)
    ineq.add(np.arange(poly_row[0], poly_row[-1]),
             lay.d_col[np.repeat(states, np.diff(poly_row))],
             -np.concatenate([np.zeros(0)] + [p.h for p in polys]))

    # an affine state's e on its u columns and f on its d column; a
    # weighted-L1 state's -w on its p and m columns
    def of_kind(kind) -> np.ndarray:
        return np.array([g for g in states if isinstance(rewards[g], kind)], dtype=int)

    affine, l1 = of_kind(AffineReward), of_kind(WeightedL1Reward)
    c[_ranges(lay.col_start[affine], [rewards[g].dim for g in affine])] += np.concatenate(
        [np.zeros(0)] + [rewards[g].e for g in affine])
    c[lay.d_col[affine]] += [rewards[g].f for g in affine]
    dim = lay.edge_start[l1 + 1] - lay.edge_start[l1]
    weights = np.concatenate([np.zeros(0)] + [rewards[g].weights for g in l1])
    for start in (lay.col_start[l1], lay.col_start[l1] + dim):  # p, then m
        c[_ranges(start, dim)] = -weights

    # a weighted-L1 state's u >= 0 needs a row -u_k <= 0 for each k its
    # polytope rows do not imply; a concave quadratic state under tangent
    # cuts has one row t - g_k . u <= 0 per cut
    free = ~np.concatenate([np.zeros(0, bool)] + [polys[g].implied_nonnegative for g in l1])
    owner = np.repeat(l1, dim)[free]
    extra = np.bincount(owner, minlength=len(polys))
    cut = of_kind(QuadraticDeviationReward)
    extra[cut] = tangent_cuts or 0
    extra_row = poly_row[-1] + _starts(extra)
    sign_edge = _ranges(lay.edge_start[l1], dim)[free]
    ineq.add(_ranges(extra_row[l1], extra[l1]), n + sign_edge, -1.0)
    for g in cut:
        row, tcol = extra_row[g], lay.aux_col[flow.states[g]]
        c[tcol] = 1.0
        lower[tcol] = -np.inf
        ext = extend_reward(rewards[g])
        anchors = _cut_points(polys[g], tangent_cuts, g)
        grads = np.array([ext.gradient(p) for p in anchors])
        k, j = np.indices(grads.shape)
        ineq.add(row + k, n + lay.edge_start[g] + j, -grads)
        ineq.add(row + np.arange(len(grads)), tcol, 1.0)
    row = int(extra_row[-1])

    def over_columns(rows: _Coo, n_rows: int) -> sp.csc_matrix:
        out = rows.matrix(n_rows, lay.lift.shape[0]) @ lay.lift
        out.eliminate_zeros()
        out.sort_indices()
        return out

    b_in = np.concatenate([flow.b_in, np.zeros(row - flow.b_in.size)])
    a_eq, a_in = over_columns(eq, flow.b_eq.size), over_columns(ineq, row)
    return OccupancyLp(
        c=c, a_eq=a_eq, b_eq=flow.b_eq, a_in=a_in, b_in=b_in, lower=lower, layout=lay
    )


def solve_occupancy(
    instance: CmdpInstance,
    tangent_cuts: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> OccupancySolution:
    """Solve the occupancy program and return the optimal masses.

    With ``tangent_cuts=K``, ``objective`` is the true return of the
    policy read from :func:`build_occupancy_lp`'s relaxation and ``bound``
    its LP value; neither need be tight.

    Raises QualityInfeasibleError when the visitation caps are jointly
    unsatisfiable, and RuntimeError on an unbounded program (impossible
    for valid instances; indicates a formulation bug).
    """
    problem = build_occupancy_lp(instance, tangent_cuts)
    sol = lpmod.solve_lp(problem, time_limit=time_limit)
    raise_for_status(problem, sol, "occupancy LP")

    lay = problem.layout
    space = instance.states
    u = np.maximum((lay.lift @ sol.x)[lay.n_cols :], 0.0)
    keys = [(s, s2) for layer, nxt in zip(space.layers, space.layers[1:])
            for s in layer for s2 in nxt]
    edge = dict(zip(keys, u.tolist()))
    visit = dict(zip(space.all_states(), np.maximum(sol.x[lay.d_col], 0.0).tolist()))

    if tangent_cuts:
        # the LP objective only bounds the true (quadratic) return; report
        # the extracted policy's achieved return as the objective
        tmp = OccupancySolution(edge, visit, objective=float(sol.objective))
        policy = extract_policy(tmp, instance)
        report = evaluate_validated(instance, policy)
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
    for layer, nxt in zip(space.layers, space.layers[1:]):
        for s in layer:
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
