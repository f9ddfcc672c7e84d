"""Occupancy-measure convex program over edge masses u(s, s') and visit
masses d(s), and extraction of the deterministic optimal policy. Its flow
and cap rows and the d columns' entries on them (:class:`FlowRows`) are
shared with the finite-action LP of the extreme-point and envelope routes,
whose other columns are vertex masses (:class:`modcmdp.vertices.FiniteLp`).

The program maximizes the homogeneously lifted reward of each state's
outgoing edge-mass vector subject to flow conservation, the initial
distribution, visitation-mass caps, and the lifted polytope rows. A
reward r on the simplex lifts to ``d * r(u / d)`` with d = sum(u), and
the program writes each lift itself: e . u + f d for an affine reward,
the split below for a weighted-L1 one, and ``H u - h d <= 0`` for the
polytope rows ``H a <= h``. For affine and weighted-L1 rewards it is an
exact linear program; concave quadratic rewards are supported only
through an opt-in tangent-cut relaxation, whose cut at an anchor a is
the reward's tangent plane e . a + f lifted to (e + f) . u, and convex
quadratic rewards belong to the envelope solver.

A weighted-L1 state carries no edge-mass columns of its own. Its edge
masses are split around the lifted center, u = d * center + p - m with
p, m >= 0, and the reward -w . |u - d * center| becomes the linear
objective -w . (p + m) (the absolute-value LP of Bertsimas & Tsitsiklis,
Introduction to Linear Optimization, 1997, section 1.3). The split is
substituted into the flow and polytope rows, so each coordinate costs two
columns and no rows. u >= 0 then needs a row -(center * d + p - m) <= 0,
which is added only where the polytope rows do not already imply it
(``ActionPolytope.implied_nonnegative``). The solver rebuilds u from p, m
and d. :func:`split_action_lp` writes the split for one action per state:
the greedy baseline's period LP and :func:`extract_policy`'s repair.

The constraint matrices are assembled from index arrays: edges are
numbered layer-major, and each edge has its own column, plus on a
weighted-L1 state its m column and its center on d. An entry on an edge
mass becomes its (row, column, value) triplets through that map, each
matrix is one sparse matrix of triplets, and the same map recovers u
from a solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import lp as lpmod
from .evaluate import cap_masses, evaluate_exact
from .model import (
    FEAS_TOL,
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


def _matrix(parts, n_rows: int, n_cols: int) -> sp.csc_matrix:
    """The (rows, columns, values) triplets of ``parts``, each broadcast
    together, summed into a matrix; entries that sum to 0 are dropped."""
    flat = ([a.ravel() for a in np.broadcast_arrays(*part)] for part in parts)
    rows, cols, vals = (np.concatenate(a) for a in zip(*flat))
    out = sp.csc_matrix((vals, (rows, cols)), shape=(n_rows, n_cols))
    out.eliminate_zeros()
    return out


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

    Edge ``e``'s mass is its own column ``edge_col[e]`` (u, or p on a
    weighted-L1 state), and on a weighted-L1 state also minus the m column
    ``m_off[e]`` further on plus ``center[e]`` times its state's d column;
    ``m_off`` and ``center`` are 0 elsewhere. :meth:`on_edges` writes rows
    over the columns through that map, and :meth:`edge_mass` recovers u.
    """

    edge_start: np.ndarray  # (G + 1,)
    edge_src: np.ndarray  # (E,) nonterminal index of each edge's source
    col_start: np.ndarray  # (G + 1,)
    d_col: np.ndarray  # (S,) column of d, in all_states() order
    aux_col: dict[str, int]  # tangent-cut epigraph column per state
    edge_col: np.ndarray  # (E,) u or p column of each edge
    m_off: np.ndarray  # (E,) offset of its m column, 0 off weighted-L1
    center: np.ndarray  # (E,) its center, 0 off weighted-L1

    @property
    def n_cols(self) -> int:
        return int(self.d_col[-1]) + 1 + len(self.aux_col)

    def on_edges(self, rows, edges, vals) -> tuple[np.ndarray, ...]:
        """The (row, column, value) triplets of entries ``vals`` at
        (``rows``, edge mass ``edges``), written over the columns."""
        rows, edges, vals = (a.ravel() for a in np.broadcast_arrays(rows, edges, vals))
        l1 = self.m_off[edges] > 0
        r, e, v = rows[l1], edges[l1], vals[l1]
        return (
            np.concatenate([rows, r, r]),
            np.concatenate([self.edge_col[edges], self.edge_col[e] + self.m_off[e],
                            self.d_col[self.edge_src[e]]]),
            np.concatenate([vals, -v, self.center[e] * v]),
        )

    def edge_mass(self, x: np.ndarray) -> np.ndarray:
        """Every edge mass u at the column values ``x``."""
        u = x[self.edge_col]
        e = np.flatnonzero(self.m_off)
        d = x[self.d_col[self.edge_src[e]]]
        u[e] = (u[e] - x[self.edge_col[e] + self.m_off[e]]) + self.center[e] * d
        return u


def _make_layout(instance: CmdpInstance, flow: FlowRows, cuts: Optional[int]) -> _Layout:
    rewards = [instance.rewards[s] for s in flow.states]
    width = flow.succ_width
    edge_start = np.concatenate([[0], np.cumsum(width)])
    src = np.repeat(np.arange(len(rewards)), width)

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

    center = np.concatenate([r.center if k else np.zeros(w) for r, k, w in zip(rewards, l1, width)])
    edge_col = col_start[src] + np.arange(src.size) - edge_start[src]
    m_off = np.where(l1, width, 0)[src]
    return _Layout(edge_start, src, col_start, d_col, aux_col, edge_col, m_off, center)


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
        if not rew.concave:
            raise ValueError(
                f"reward at {s!r} is convex quadratic; the occupancy LP "
                "cannot represent it — use the envelope solver "
                "(modcmdp.envelope.solve_with_envelope)"
            )
        if isinstance(rew, QuadraticDeviationReward) and not tangent_cuts:
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


def _add_polytope_rows(parts: list, lay: _Layout, polys, row_start) -> None:
    """Add the nonzero entries of each ``polys[g].H``, row r and column j,
    at row ``row_start[g] + r`` on the edge mass ``lay.edge_start[g] + j``,
    gathering the matrices of many states per pass."""
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
        parts.append(lay.on_edges(row_start[lo + g] + r, lay.edge_start[lo + g] + j, flat[at]))


def build_occupancy_lp(
    instance: CmdpInstance, tangent_cuts: Optional[int] = None
) -> OccupancyLp:
    """Assemble the occupancy LP for an instance with affine or weighted-L1
    rewards (or, with ``tangent_cuts=K``, concave quadratic rewards under a
    K-cut outer approximation whose objective is an upper bound only).

    The cuts touch each lifted reward at the base and K - 1 fixed points,
    so the bound can be trivial and the LP's policy far from optimal (the
    README's "Tangent cuts": -0.300 and a bound of 0.0 at K = 64 where the
    optimum is near -2.7e-4). ROADMAP item 3 plans the exact route.

    Raises ValueError on invalid instances, unsupported reward kinds or a
    ``tangent_cuts`` that is neither None nor a positive integer.
    """
    integral = isinstance(tangent_cuts, (int, np.integer)) and not isinstance(tangent_cuts, bool)
    if tangent_cuts is not None and not (integral and tangent_cuts >= 1):
        raise ValueError(f"tangent_cuts must be None or an integer >= 1, got {tangent_cuts!r}")
    require_valid(instance)
    _check_rewards(instance, tangent_cuts)
    flow = FlowRows(instance)
    lay = _make_layout(instance, flow, tangent_cuts)
    n = lay.n_cols
    c = np.zeros(n)
    lower = np.zeros(n)

    # edge e of state src leaves it for its (e - edge_start[src])-th successor
    e, src = np.arange(lay.edge_src.size), lay.edge_src
    rows, d, vals = flow.d_eq
    a_eq = _matrix([(rows, lay.d_col[d], vals), lay.on_edges(flow.out_row[src], e, 1.0),
                    lay.on_edges(flow.in_start[src] + e - lay.edge_start[src], e, 1.0)],
                   flow.b_eq.size, n)
    rows, d, vals = flow.d_in
    ineq = [(rows, lay.d_col[d], vals)]  # (rows, columns, values) triplets
    # the lifted polytope rows H u - h d <= 0 of every state come first,
    # then each state's sign or tangent-cut rows, in state order
    polys = [instance.polytopes[s] for s in flow.states]
    rewards = [instance.rewards[s] for s in flow.states]
    states = np.arange(len(polys))
    poly_row = flow.b_in.size + _starts([p.h.size for p in polys])
    _add_polytope_rows(ineq, lay, polys, poly_row)
    ineq.append((np.arange(poly_row[0], poly_row[-1]),
                 lay.d_col[np.repeat(states, np.diff(poly_row))],
                 -np.concatenate([np.zeros(0)] + [p.h for p in polys])))

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
    ineq.append(lay.on_edges(_ranges(extra_row[l1], extra[l1]), sign_edge, -1.0))
    for g in cut:
        row, tcol = extra_row[g], lay.aux_col[flow.states[g]]
        c[tcol] = 1.0
        lower[tcol] = -np.inf
        planes = [rewards[g].tangent(p / p.sum()) for p in _cut_points(polys[g], tangent_cuts, g)]
        grads = np.array([t.e + t.f for t in planes])
        k, j = np.indices(grads.shape)
        ineq.append(lay.on_edges(row + k, lay.edge_start[g] + j, -grads))
        ineq.append((row + np.arange(len(grads)), tcol, 1.0))
    row = int(extra_row[-1])

    b_in = np.concatenate([flow.b_in, np.zeros(row - flow.b_in.size)])
    a_in = _matrix(ineq, row, n)
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
    u = np.maximum(lay.edge_mass(sol.x), 0.0)
    keys = [(s, s2) for layer, nxt in zip(space.layers, space.layers[1:])
            for s in layer for s2 in nxt]
    edge = dict(zip(keys, u.tolist()))
    visit = dict(zip(space.all_states(), np.maximum(sol.x[lay.d_col], 0.0).tolist()))

    if tangent_cuts:
        # the LP objective only bounds the true (quadratic) return; report
        # the extracted policy's achieved return as the objective
        tmp = OccupancySolution(edge, visit, objective=float(sol.objective))
        policy = extract_policy(tmp, instance)
        report = evaluate_exact(instance, policy)
        return OccupancySolution(
            edge, visit, objective=report.value, bound=float(sol.objective)
        )
    return OccupancySolution(edge, visit, objective=float(sol.objective))


def split_action_lp(
    polys, centers, weights, dist, value=None, mass=None, rhs=None
) -> lpmod.LpProblem:
    """The LP over one action a_g in each polytope ``polys[g]``, all over
    one next layer, split around its center as in the occupancy LP: a_g =
    centers[g] + p_g - m_g with p_g, m_g >= 0, the columns p then m from
    2 n g on. It maximises sum_g dist_g (a_g . value - weights[g] . (p_g
    + m_g)), up to a constant, subject to sum_g dist_g (a_g . mass_i) <=
    rhs_i per row ``i`` of ``mass`` (``value`` 0 and no rows by default).
    One equality row per action keeps sum(p - m) = 1 - sum(c). A box
    becomes column bounds; any other polytope adds its rows H (p - m) <=
    h - H c and -(p - m)_k <= c_k where its rows do not imply a_k >= 0."""
    k, n = centers.shape
    value = np.zeros(n) if value is None else value
    mass = np.zeros((0, n)) if mass is None else mass
    rhs = np.zeros(0) if rhs is None else rhs
    c = (dist[:, None] * np.hstack([value - weights, -value - weights])).ravel()
    split = np.repeat([1.0, -1.0], n)  # a - c = split @ (p, m)
    a_eq = sp.csc_matrix((np.tile(split, k), (np.repeat(np.arange(k), 2 * n),
                                               np.arange(2 * k * n))), shape=(k, 2 * k * n))
    b_eq = 1.0 - centers.sum(axis=1)
    caps = dist[:, None] * np.tile(mass, 2)[:, None, :] * split
    caps = caps.reshape(rhs.size, 2 * k * n)
    b_in = [rhs - mass @ (centers.T @ dist)]
    bounds = np.zeros((2, k, 2, n))
    bounds[1] = np.inf
    parts = [(np.zeros(0, int), np.zeros(0, int), np.zeros(0))]  # polytope rows
    row = 0
    for g, (poly, cg) in enumerate(zip(polys, centers)):
        if poly.box is not None:
            lo, hi = poly.box
            bounds[:, g] = [[lo - cg, cg - hi], [hi - cg, cg - lo]]
            continue
        free = np.flatnonzero(~poly.implied_nonnegative)
        H = np.vstack([poly.H, -np.eye(n)[free]])
        r, j = np.nonzero(H)
        parts += [(row + r, 2 * n * g + j, H[r, j]), (row + r, 2 * n * g + n + j, -H[r, j])]
        b_in.append(np.concatenate([poly.h, np.zeros(free.size)]) - H @ cg)
        row += H.shape[0]
    a_in = sp.vstack([sp.csc_matrix(caps), _matrix(parts, row, 2 * k * n)], format="csc")
    bounds = np.maximum(bounds, 0.0).reshape(2, -1)
    return lpmod.LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_in=a_in, b_in=np.concatenate(b_in),
                           lower=bounds[0], upper=bounds[1])


def split_actions(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The actions c + p - m of a :func:`split_action_lp` solution ``x``,
    one row per row of ``centers``, clipped at 0 and renormalised."""
    p, m = x.reshape(len(centers), 2, -1).transpose(1, 0, 2)
    a = np.clip(centers + p - m, 0.0, None)
    return a / a.sum(axis=1, keepdims=True)


def _nearest_action(poly, a: np.ndarray) -> np.ndarray:
    """The action of ``poly`` nearest ``a`` in L1 norm: the split LP of
    the one action centred at ``a`` with unit weights."""
    a = a[None]
    sol = lpmod.solve_once(split_action_lp([poly], a, np.ones_like(a), np.ones(1)))
    if sol.status != "optimal":
        raise RuntimeError(f"nearest-action LP {sol.status} — formulation bug")
    return split_actions(sol.x, a)[0]


def extract_policy(
    sol: OccupancySolution, instance: CmdpInstance
) -> DeterministicPolicy:
    """Deterministic policy dividing edge masses by visit mass; states with
    visit mass below 1e-9 fall back to their base action (their choice is
    immaterial and the base is always feasible). The LP meets H u - h d <= 0
    to an absolute tolerance, so u / d may leave the polytope by about that
    over d: past ``FEAS_TOL`` but within ten times the LP's tolerance over
    d, the nearest action inside is taken; a larger violation raises."""
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
            margin = poly.margin(a)
            if margin > 10 * lpmod.FEAS_TOL / d:
                raise RuntimeError(
                    f"extracted action at {s!r} violates its polytope by {margin:.3e}"
                )
            actions[s] = _nearest_action(poly, a) if margin > FEAS_TOL else a
    return DeterministicPolicy(actions)
