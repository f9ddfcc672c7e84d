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
columns and no rows of its own. u >= 0 then needs a row -(center * d + p
- m) <= 0, which is added only where the polytope rows do not already
imply it (``ActionPolytope.implied_nonnegative``). A row with one nonzero
that the center meets is written on p or m alone (:func:`build_occupancy_lp`),
so on a box each split column has exactly one inequality row.
:func:`solve_occupancy` finds such columns in the LP's own columns and,
by delayed column generation, brings each into its restricted master
together with its row. The solver rebuilds u from p, m and d.
:func:`split_action_lp` writes the split for one action per state: the
greedy baseline's period LP and :func:`extract_policy`'s repair.

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
# solve_occupancy solves the whole LP at once when it has at most this
# many lazy columns, and by column generation above. A round of column
# generation costs about 1 ms of model upkeep even on the smallest LPs; on
# L1 loans it began to pay between 1,440 lazy columns (n=12: 9.7 ms against
# 9.5 ms for the whole LP) and 2,250 (n=15: 2.9 ms against 11.4 ms), best
# of 5 on a 2-core host. Column generation on every LP took perfbench's
# extreme-sweep L1 solves (n=5 and 6, 250 and 360 lazy columns) from 6.9
# to 22.4 ms, and from 6.3 to 19.4 ms on a rerun (13 HiGHS runs against
# 2; medians of 15 interleaved passes). And perfbench's TestSpans wants a
# two-state instance solved by one lp.solve_lp call in one HiGHS run.
LAZY_COLUMNS_MIN = 2_000
# solve_occupancy adds at most this many lazy columns per state and round.
# Over 18 L1 loan cells at n=20..100 (2-core host), one per state took
# 1.81 s in all, two 1.98 s and three 2.55 s; COLUMNS_PER_STATE (10) took
# 1.53 s at n=100 and q = m/2 alone, where one per state took 0.31 s.
SPLIT_COLUMNS_PER_ROUND = 1


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


def _polytope_entries(lay: _Layout, polys, row_start) -> tuple[np.ndarray, ...]:
    """The nonzero entries of each ``polys[g].H``, row r and column j, as
    (row ``row_start[g] + r``, edge mass ``lay.edge_start[g] + j``,
    value, whether row r has no other nonzero), reading the nonzeros of
    each distinct ``H`` object once for its states."""
    holders: dict[int, tuple] = {}
    for g, p in enumerate(polys):
        holders.setdefault(id(p.H), (p.H, []))[1].append(g)
    entries = []
    for H, gs in holders.values():
        r, j = np.nonzero(H)
        single = np.bincount(r, minlength=len(H))[r] == 1
        gs = np.array(gs)[:, None]
        entries.append(np.broadcast_arrays(row_start[gs] + r, lay.edge_start[gs] + j,
                                           H[r, j], single))
    return tuple(np.concatenate([a.ravel() for a in e]) for e in zip(*entries))


def build_occupancy_lp(
    instance: CmdpInstance, tangent_cuts: Optional[int] = None
) -> OccupancyLp:
    """Assemble the whole occupancy LP for an instance with affine or
    weighted-L1 rewards (or, with ``tangent_cuts=K``, concave quadratic
    rewards under a K-cut outer approximation whose objective is an upper
    bound only). :func:`solve_occupancy` solves this LP, whole or by
    column generation over its columns, and ``export_lp`` writes it.

    A single-entry row alpha u_k <= h d of a weighted-L1 state, from its
    polytope or a sign row, whose center meets it (alpha c_k <= h) is
    written tight, on one split column: alpha p_k + (alpha c_k - h) d <= 0
    for alpha > 0, |alpha| m_k + (alpha c_k - h) d <= 0 for alpha < 0.
    This leaves the LP's value alone: the weights are nonnegative, so some
    optimum never has p_k and m_k both positive, and there the tight row
    is the row it replaces, or (with the other column positive) holds
    since d >= 0. On a box every split column then has one inequality
    row of its own.

    The cuts touch each lifted reward at the base and K - 1 fixed points,
    so the bound can be trivial and the LP's policy far from optimal (the
    README's "Tangent cuts": -0.300 and a bound of 0.0 at K = 64 where the
    optimum is near -2.7e-4). ROADMAP item 4 plans the exact route.

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
    eq = [(rows, lay.d_col[d], vals), lay.on_edges(flow.out_row[src], e, 1.0),
          lay.on_edges(flow.in_start[src] + e - lay.edge_start[src], e, 1.0)]
    rows, d, vals = flow.d_in
    ineq = [(rows, lay.d_col[d], vals)]  # (rows, columns, values) triplets
    # the lifted polytope rows H u - h d <= 0 of every state come first,
    # then each state's sign or tangent-cut rows, in state order
    polys = [instance.polytopes[s] for s in flow.states]
    rewards = [instance.rewards[s] for s in flow.states]
    states = np.arange(len(polys))
    poly_row = flow.b_in.size + _starts([p.h.size for p in polys])
    h = np.concatenate([np.zeros(0)] + [p.h for p in polys])
    ineq.append((np.arange(poly_row[0], poly_row[-1]),
                 lay.d_col[np.repeat(states, np.diff(poly_row))], -h))

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

    # each single-entry row alpha u_k <= h d of a weighted-L1 state that its
    # center meets (alpha c_k <= h), polytope or sign row, is tight: it
    # goes on p_k alone when alpha > 0 and on m_k alone when alpha < 0
    rows, edges, vals, single = _polytope_entries(lay, polys, poly_row)
    sign_edge = _ranges(lay.edge_start[l1], dim)[free]
    ones = np.ones(sign_edge.size)
    rows, edges, vals, rhs, single = (np.concatenate(a) for a in zip(
        (rows, edges, vals, h[rows - poly_row[0]], single),
        (_ranges(extra_row[l1], extra[l1]), sign_edge, -ones, 0 * ones, ones > 0)))
    tight = single & (lay.m_off[edges] > 0) & (vals * lay.center[edges] <= rhs)
    ineq.append(lay.on_edges(rows[~tight], edges[~tight], vals[~tight]))
    rows, edges, vals = rows[tight], edges[tight], vals[tight]
    ineq.append((rows, lay.edge_col[edges] + np.where(vals < 0, lay.m_off[edges], 0),
                 np.abs(vals)))
    ineq.append((rows, lay.d_col[lay.edge_src[edges]], lay.center[edges] * vals))

    for g in cut:
        row, tcol = extra_row[g], lay.aux_col[flow.states[g]]
        c[tcol] = 1.0
        lower[tcol] = -np.inf
        planes = [rewards[g].tangent(p / p.sum()) for p in _cut_points(polys[g], tangent_cuts, g)]
        grads = np.array([t.e + t.f for t in planes])
        k, j = np.indices(grads.shape)
        ineq.append(lay.on_edges(row + k, lay.edge_start[g] + j, -grads))
        ineq.append((row + np.arange(len(grads)), tcol, 1.0))
    b_in = np.concatenate([flow.b_in, np.zeros(int(extra_row[-1]) - flow.b_in.size)])
    return OccupancyLp(c=c, a_eq=_matrix(eq, flow.b_eq.size, n), b_eq=flow.b_eq,
                       a_in=_matrix(ineq, b_in.size, n), b_in=b_in, lower=lower, layout=lay)


def _lazy_columns(problem: OccupancyLp) -> tuple[np.ndarray, np.ndarray]:
    """The lazy columns of the occupancy LP, in column order and so state
    by state, and the row of each: the split columns whose one ``a_in``
    entry is on a row that holds no other split column, a tight row of
    :func:`build_occupancy_lp`. On a box that is every split column."""
    lay, a_in = problem.layout, problem.a_in
    l1 = lay.m_off > 0
    split = np.zeros(problem.nvars, dtype=bool)
    split[np.concatenate([lay.edge_col[l1], lay.edge_col[l1] + lay.m_off[l1]])] = True
    count = np.diff(a_in.indptr)
    per_row = np.bincount(a_in.indices[np.repeat(split, count)], minlength=problem.b_in.size)
    col = np.flatnonzero(split & (count == 1))
    row = a_in.indices[a_in.indptr[col]]
    own = per_row[row] == 1
    return col[own], row[own]


def _generate(problem: OccupancyLp, lazy, deadline) -> lpmod.LpSolution:
    """The whole LP's solution by column generation over the ``lazy``
    columns and their rows (:func:`_lazy_columns`): the master's x padded
    with zeros, or its certificate padded to the whole LP's rows and
    columns."""
    col, row = lazy
    n, m_in = problem.nvars, problem.b_in.size
    keep = np.ones(n, dtype=bool)
    keep[col] = False
    keep_row = np.ones(m_in, dtype=bool)
    keep_row[row] = False
    n_cols, n_rows = n - col.size, m_in - row.size
    in_keep = problem.a_in[:, keep]  # every inequality row over the master's columns
    master = lpmod.Master(lpmod.LpProblem(
        c=problem.c[keep], a_eq=problem.a_eq[:, keep], b_eq=problem.b_eq,
        a_in=in_keep[keep_row], b_in=problem.b_in[keep_row],
        lower=problem.lower[keep], upper=problem.upper[keep]))

    # a lazy column's entries: its flow rows, alpha on its own row, and the
    # rest of that row over the master's columns (its d entry), the j-th
    # lazy row in the j-th column of ``rest``
    cost, lazy_eq = problem.c[col], problem.a_eq[:, col]
    alpha = problem.a_in.data[problem.a_in.indptr[col]]
    rest = in_keep[row].T.tocsc()
    held = np.zeros(col.size, dtype=bool)

    def price(y_eq, y_in):
        # their own rows, not in the master, have multiplier 0
        return lazy_eq.T @ y_eq

    def write(j):
        # each column added so far brought one row
        k, at, before = j.size, np.arange(j.size), int(held.sum()) - j.size
        m = n_rows + before
        r, c, v = lpmod.column_entries(lazy_eq, j, at)
        a_eq = sp.csc_matrix((v, (r, c)), shape=(problem.b_eq.size, k))
        a_in = sp.csc_matrix((alpha[j], (m + at, at)), shape=(m + k, k))
        r, c, v = lpmod.column_entries(rest, j, at)
        own = sp.csr_matrix((v, (c, r)), shape=(k, n_cols + before))
        return cost[j], a_eq, a_in, (own, np.zeros(k))

    sol, added = lpmod.generate_columns(master, cost, price,
                                        np.searchsorted(col, problem.layout.col_start),
                                        write, held, deadline, SPLIT_COLUMNS_PER_ROUND)
    cols = np.concatenate([np.flatnonzero(keep), col[added]])
    x = cert = None
    if sol.status == "optimal":
        x = np.zeros(n)
        x[cols] = sol.x
    elif sol.status == "infeasible":
        y_in, up = np.zeros(m_in), np.zeros(n)
        y_in[np.concatenate([np.flatnonzero(keep_row), row[added]])] = sol.certificate["in"]
        up[cols] = sol.certificate["up"]
        cert = {"eq": sol.certificate["eq"], "in": y_in, "up": up}
    return lpmod.LpSolution(sol.status, x=x, objective=sol.objective, iterations=sol.iterations,
                            certificate=cert, message=sol.message)


def solve_occupancy(
    instance: CmdpInstance,
    tangent_cuts: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> OccupancySolution:
    """Solve the occupancy program and return the optimal masses.

    The LP is that of :func:`build_occupancy_lp`. Its lazy columns are the
    split columns whose one ``a_in`` entry is on a row that holds no other
    split column, a tight row of their own (on a box, every split column).
    With more than ``LAZY_COLUMNS_MIN`` of them it is solved by delayed
    column generation (:func:`lp.generate_columns`); otherwise whole, by
    :func:`lp.solve_lp`. The first restricted master (:class:`lp.Master`)
    is the LP without the lazy columns and their rows; with every lazy
    column at 0 each state sits at its center, so each point of a master
    is one of the whole LP. Each round prices the lazy columns, read from
    the LP's ``a_eq``, against the flow duals (their own rows, not yet in
    the master, have multiplier 0), and adds per state up to
    ``SPLIT_COLUMNS_PER_ROUND`` of those that enter, each with its row.
    A master that cannot meet the caps runs phase 1 and prices against
    its Farkas certificate. When nothing enters, the master's solution
    with every other lazy column at 0 is the whole LP's optimum, or its
    certificate, padded with zeros, certifies the whole LP.
    ``time_limit`` runs from entry and covers every round.

    With ``tangent_cuts=K``, ``objective`` is the true return of the
    policy read from :func:`build_occupancy_lp`'s relaxation and ``bound``
    its LP value; neither need be tight. Without cuts, ``objective`` is
    the LP value with each weighted-L1 edge counted at -w |p - m|, the
    true L1 reward of its mass, in place of the LP's -w (p + m).

    Raises QualityInfeasibleError when the visitation caps are jointly
    unsatisfiable, TimeoutError when the time runs out, and RuntimeError on
    an unbounded program (impossible for valid instances; indicates a
    formulation bug).
    """
    deadline = lpmod.deadline_after(time_limit)
    problem = build_occupancy_lp(instance, tangent_cuts)
    lazy = _lazy_columns(problem)
    if lazy[0].size > LAZY_COLUMNS_MIN:
        sol = _generate(problem, lazy, deadline)
    else:
        sol = lpmod.solve_lp(problem, time_limit=lpmod.time_left(deadline))
    raise_for_status(problem, sol, "occupancy LP")
    x = sol.x

    lay = problem.layout
    space = instance.states
    u = np.maximum(lay.edge_mass(x), 0.0)
    keys = [(s, s2) for layer, nxt in zip(space.layers, space.layers[1:])
            for s in layer for s2 in nxt]
    edge = dict(zip(keys, u.tolist()))
    visit = dict(zip(space.all_states(), np.maximum(x[lay.d_col], 0.0).tolist()))

    if tangent_cuts:
        # the LP objective only bounds the true (quadratic) return; report
        # the extracted policy's achieved return as the objective
        bound = float(problem.c @ x)
        policy = extract_policy(OccupancySolution(edge, visit, objective=bound), instance)
        report = evaluate_exact(instance, policy)
        return OccupancySolution(edge, visit, objective=report.value, bound=bound)
    # a weighted-L1 edge earns -w |p - m|, the true reward of its mass and
    # the extracted action's; the LP's -w (p + m) overstates it by 2 w |x|
    # for a split column x left below 0 within the solver's tolerance
    e = np.flatnonzero(lay.m_off)
    p, m = lay.edge_col[e], lay.edge_col[e] + lay.m_off[e]
    x[p], x[m] = abs(x[p] - x[m]), 0.0
    return OccupancySolution(edge, visit, objective=float(problem.c @ x))


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
