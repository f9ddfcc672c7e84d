"""Extreme-point machinery: vertex enumeration for the per-state action
polytopes, the finite-action reduction built on those vertices, the
solver of its LP, and conversions between randomized vertex policies and
deterministic interior ones.

The finite-action LP is the occupancy LP, on the same rows and d columns
(:class:`modcmdp.occupancy.FlowRows`), with each state's edge masses
written as u = V^T w over its vertex masses w: one column per (state,
vertex), hundreds of thousands once box polytopes reach ten or more
dimensions, of which a few thousand carry mass; states with one polytope
share one vertex array. So it is never assembled whole: :class:`FiniteLp`
writes a column from the vertex arrays when one is needed and prices
every column by one product per distinct array.
``solve_finite`` solves it by delayed column generation over a restricted
master held in one HiGHS model (:class:`modcmdp.lp.Master`), which
re-solves warm as columns arrive, and proves the master's answer optimal
(or infeasible) for the whole LP by pricing every column.

Vertex enumeration is exhaustive basis enumeration by default: pick n-1
active rows among the polytope rows and the sign rows the polytope's rows
do not imply, solve together with the simplex equality, keep feasible
solutions, dedup. Two parallel rows make a basis singular, so the n-1
rows come from n-1 distinct classes of parallel rows: on a box, whose
rows (and kink planes) are all multiples of some e_k, n 2^(n-1) bases
(n 3^(n-1) with kink planes) where any n-1 rows would make C(2n, n-1)
(C(3n, n-1)). The vertex arrays are, byte for byte, those a solve of
every choice of n-1 rows gives. Its combinatorial cost is intentional
(the benchmark exhibits the blowup); box-shaped polytopes
(``ActionPolytope.box``) additionally get a structured enumerator, which
writes all vertex rows at once and scales to the dimensions the envelope
solver needs.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import lp as lpmod
from .lp import COLUMNS_PER_STATE
from .model import (
    FEAS_TOL,
    ActionPolytope,
    CmdpInstance,
    DeterministicPolicy,
    RandomizedPolicy,
    WeightedL1Reward,
    require_valid,
)
from .occupancy import UNREACHABLE_TOL, FlowRows, raise_for_status

# Two vertices closer than this in L-infinity are considered equal.
DEDUP_TOL = 1e-7
# Feasibility slack accepted when filtering candidate basis solutions.
VERTEX_FEAS_TOL = 1e-9
# A hull query within this of the generators' extreme in a coordinate is
# at that extreme (hull_envelope); far inside lp.FEAS_TOL, so restricting
# to the face moves a solution's rows by much less than the LP may.
FACE_TOL = 1e-12
# Exhaustive enumeration refuses beyond this dimension.
MAX_EXHAUSTIVE_DIM = 25

_BATCH = 1 << 15


class DecompositionError(RuntimeError):
    """Requested point is not in the convex hull of the given vertices."""


@dataclass(frozen=True)
class VertexSet:
    """Per-state vertex arrays, each row one vertex."""

    vertices: dict[str, np.ndarray]

    def total(self) -> int:
        return sum(v.shape[0] for v in self.vertices.values())


def _dedup(points: np.ndarray, tol: float) -> np.ndarray:
    """Drop every point within ``tol`` (L-infinity) of an earlier kept
    one; the first of each cluster wins.

    Two points within ``tol`` project onto a fixed w within ``|w|_1 tol``
    of each other, so the close pairs are the pairs inside that window of
    the sorted projections whose exact L-infinity distance is at most
    ``tol``. A point with no earlier close neighbour is kept; the rest
    are settled in order, each kept unless an earlier kept point is close.
    The weights w_k = 1 / (k + pi) satisfy no rational linear relation,
    so points on a lattice or a face (all summing to one, say) rarely
    share a projection."""
    # a repeat of an earlier point always goes, so only first occurrences
    # (in their order) reach the tolerance test: the first row of each run
    # of equal rows in a stable lexicographic sort
    points = np.asarray(points, dtype=float)
    lex = np.lexsort(points.T[::-1])
    rows = points[lex]
    first = np.ones(lex.size, dtype=bool)
    first[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    points = points[np.sort(lex[first])]
    m, n = points.shape
    w = 1.0 / (np.arange(n) + np.pi)
    proj = points @ w
    # the window also covers the rounding of the projections
    scale = max(1.0, float(np.abs(points).max(initial=0.0)))
    window = w.sum() * (tol + 1e-12 * scale)
    order = np.argsort(proj, kind="stable")
    sorted_proj = proj[order]
    count = np.searchsorted(sorted_proj, sorted_proj + window, side="right") - np.arange(m) - 1
    lead = np.repeat(np.arange(m), count)
    offset = np.arange(lead.size) - np.repeat(np.cumsum(count) - count, count)
    a, b = order[lead], order[lead + 1 + offset]
    close = np.max(np.abs(points[a] - points[b]), axis=1) <= tol
    earlier, later = np.minimum(a[close], b[close]), np.maximum(a[close], b[close])
    keep = np.ones(m, dtype=bool)
    if later.size:
        by_later = np.lexsort((earlier, later))
        earlier, later = earlier[by_later], later[by_later]
        cut = np.flatnonzero(np.diff(later)) + 1
        for j, before in zip(later[np.concatenate([[0], cut])], np.split(earlier, cut)):
            keep[j] = not keep[before].any()
    return points[keep]


def _row_classes(rows: np.ndarray) -> list[list[int]]:
    """Indices of ``rows`` in classes of parallel rows, each class in row
    order and the classes in the order of their first rows.

    Each row is divided by its first entry of largest magnitude, and rows
    that divide to the same floats share a class. Division rounds
    correctly, so a row and an exact nonzero multiple of it always do.
    Zero rows share one class."""
    lead = rows[np.arange(len(rows)), np.abs(rows).argmax(axis=1)]
    lead[lead == 0] = 1.0
    classes: dict = {}
    for i, u in enumerate((rows / lead[:, None]).tolist()):
        classes.setdefault(tuple(u), []).append(i)
    return list(classes.values())


def _exhaustive(
    poly: ActionPolytope,
    extra_planes: list[tuple[int, float]] | None,
    deadline: float | None = None,
) -> np.ndarray:
    n = poly.dim
    if n == 1:
        a = np.ones(1)
        ok = poly.contains(a, tol=VERTEX_FEAS_TOL * 10)
        return a.reshape(1, 1) if ok else np.zeros((0, 1))

    # active-row pool: polytope rows, the sign rows they do not imply,
    # optional reward kink planes (a_k = value). An implied sign row would
    # only repeat bases: the polytope row -c a_k <= h (c > 0, h <= 0) takes
    # the place of -a_k <= 0 in a basis that comes earlier in combination
    # order, and gives the same point (h = 0) or rules a_k = 0 out (h < 0).
    # Parallel rows form one class (a box's u_k and l_k rows and the kink
    # plane a_k = c_k all lie along e_k).
    eye = np.eye(n)
    free = ~poly.implied_nonnegative
    planes = extra_planes or []
    pool = np.concatenate([poly.H, -eye[free], eye[[k for k, _ in planes]]])
    pool_rhs = np.concatenate([poly.h, np.zeros(int(free.sum())), [v for _, v in planes]])

    # a basis holding two rows of one class is singular, so only the bases
    # that take their n-1 rows from n-1 distinct classes are built (on a
    # box with kink planes n 3^(n-1) of the C(3n, n-1) choices), class
    # combination by class combination, each basis's rows in increasing
    # order, at most _BATCH at a time
    classes = _row_classes(pool)
    bases = itertools.chain.from_iterable(
        itertools.product(*(classes[c] for c in combo))
        for combo in itertools.combinations(range(len(classes)), n - 1)
    )
    flat = itertools.chain.from_iterable(bases)  # n-1 row indices per basis
    found, found_rows = [], []
    while (idx := np.fromiter(itertools.islice(flat, _BATCH * (n - 1)), np.intp)).size:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("vertex enumeration exceeded its time budget")
        idx = idx.reshape(-1, n - 1)
        idx.sort(axis=1)
        m = np.empty((len(idx), n, n))
        m[:, 0, :] = 1.0
        m[:, 1:, :] = pool[idx]
        r = np.empty((len(idx), n))
        r[:, 0] = 1.0
        r[:, 1:] = pool_rhs[idx]
        dets = np.linalg.det(m)
        good = np.abs(dets) > 1e-10
        if not np.any(good):
            continue
        m, r = m[good], r[good][..., None]
        sols = np.linalg.solve(m, r)[..., 0]
        resid = np.max(np.abs(m @ sols[..., None] - r), axis=(1, 2))
        solved = resid <= 1e-7
        cand = sols[solved]
        feas = poly.contains(cand, VERTEX_FEAS_TOL)
        if np.any(feas):
            found.append(cand[feas])
            found_rows.append(idx[good][solved][feas])
    if not found:
        return np.zeros((0, n))
    # back in the combination order of the basis rows, the order a walk
    # over every choice of n-1 pool rows meets them, so _dedup keeps the
    # same first point of each cluster
    rows = np.concatenate(found_rows)
    return _dedup(np.concatenate(found)[np.lexsort(rows.T[::-1])], DEDUP_TOL)


def box_simplex_vertices(lower, upper) -> np.ndarray:
    """All vertices of {a : lower <= a <= upper, sum(a) = 1}.

    A vertex fixes every coordinate at a bound except at most one free
    coordinate absorbing the residual. Writing g = upper - lower and
    R = 1 - sum(lower), the coordinates raised to their upper bound form
    a subset S with gap-sum in [R - max(g), R]; those subsets are walked
    once with window pruning into a membership matrix, from which every
    vertex row is written at once, so the cost is close to linear in the
    output size. Rows come out in the lexicographic order of their
    coordinates rounded to 9 decimals, one per rounded key.
    """
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

    subsets: list[tuple[int, ...]] = []
    gapsums: list[float] = []

    def dfs(pos: int, cur: float, chosen: tuple[int, ...]):
        if cur >= w_lo:
            subsets.append(chosen)
            gapsums.append(cur)
        for k in range(pos, gm.size):
            t2 = cur + gm[k]
            if t2 > R + tol:
                continue  # gaps are sorted desc; later ones may still fit
            if t2 + suffix[k + 1] < w_lo:
                break  # even taking the whole suffix cannot reach the window
            dfs(k + 1, t2, chosen + (k,))

    dfs(0, 0.0, ())

    sizes = [len(c) for c in subsets]
    member = np.zeros((len(subsets), n), dtype=bool)
    member[np.repeat(np.arange(len(subsets)), sizes),
           movable[list(itertools.chain.from_iterable(subsets))]] = True
    resid = R - np.array(gapsums)  # extra mass the free coordinate must absorb
    # per subset, its exact row (slot 0) or a row per free coordinate f
    # (slot f + 1); nonzero reads them subset by subset, slot by slot
    slots = np.empty((len(subsets), n + 1), dtype=bool)
    slots[:, 0] = np.abs(resid) <= tol
    slots[:, 1:] = ~member & (g >= resid[:, None] - tol) & (resid[:, None] > tol)
    sub, slot = np.nonzero(slots)
    if sub.size == 0:
        return np.zeros((0, n))
    pts = np.where(member[sub], up, lo)
    row = np.flatnonzero(slot)
    free = slot[row] - 1
    pts[row, free] = lo[free] + resid[sub[row]]
    # rows that sit apart by more than DEDUP_TOL in some coordinate: a
    # gap, or a free value off both of its bounds (read before any clip)
    apart = (lo.min(initial=0.0) >= 0.0 and np.all(gm > DEDUP_TOL)
             and np.all(np.abs(pts[row, free] - lo[free]) > DEDUP_TOL)
             and np.all(np.abs(pts[row, free] - up[free]) > DEDUP_TOL))
    pts = np.clip(pts, 0.0, None)
    pts = pts[np.abs(pts.sum(axis=1) - 1.0) <= 1e-9]
    # bound arithmetic is exact, so duplicates (free coord landing on a
    # bound) collapse under rounding; the first of each rounded key stays,
    # unrounded, in the lexicographic order of the keys
    key = np.round(pts, 9)
    order = np.lexsort(key.T[::-1])
    key = key[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(key[1:] != key[:-1], axis=1)
    pts = pts[order[first]]
    # two rows with different bound patterns differ by a gap or by a free
    # value's distance to a bound, so when all of those exceed DEDUP_TOL
    # the tolerance pass has nothing to merge
    if pts.shape[0] <= 400 and not apart:
        pts = _dedup(pts, DEDUP_TOL)
    return pts


def enumerate_vertices(
    poly: ActionPolytope,
    method: str = "exhaustive",
    extra_planes: list[tuple[int, float]] | None = None,
    deadline: float | None = None,
) -> np.ndarray:
    """Vertices of one action polytope, one per row.

    method "exhaustive" is the basis enumeration described above and
    refuses dimensions past ``MAX_EXHAUSTIVE_DIM`` (use the occupancy
    solver there); "auto" writes a box's vertices with
    :func:`box_simplex_vertices` when no kink planes are requested, and
    enumerates exhaustively otherwise.
    """
    if method not in ("exhaustive", "auto"):
        raise ValueError(f"unknown enumeration method {method!r}")
    if method == "auto" and poly.box is not None and not extra_planes:
        verts = box_simplex_vertices(*poly.box)
    elif poly.dim > MAX_EXHAUSTIVE_DIM:
        raise ValueError(
            f"dimension {poly.dim} exceeds the exhaustive enumeration "
            f"limit {MAX_EXHAUSTIVE_DIM}; use the occupancy solver instead"
        )
    else:
        verts = _exhaustive(poly, extra_planes, deadline)
    if verts.shape[0] == 0:
        raise ValueError("polytope has no vertices (empty feasible set)")
    return verts


def enumerate_for_instance(
    instance: CmdpInstance,
    method: str = "exhaustive",
    kink_planes: bool = False,
    deadline: float | None = None,
) -> VertexSet:
    """Enumerate per-state vertex sets, reusing work across states that
    share one polytope. With ``kink_planes`` the weighted-L1 reward kinks
    are added to the active-row pool, so the point set supports an exact
    finite-action reduction for those rewards.
    """
    cache: dict[tuple, np.ndarray] = {}
    out = {}
    for s in instance.states.nonterminal():
        poly = instance.polytopes[s]
        planes = None
        if kink_planes:
            rew = instance.rewards[s]
            if isinstance(rew, WeightedL1Reward):
                planes = [(k, float(c)) for k, c in enumerate(rew.center)]
        key = (poly.key, repr(planes))
        if key not in cache:
            # the box enumerator does not watch the deadline itself
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError("vertex enumeration exceeded its time budget")
            cache[key] = enumerate_vertices(
                poly, method=method, extra_planes=planes, deadline=deadline,
            )
        out[s] = cache[key]
    return VertexSet(out)


@dataclass(frozen=True)
class FiniteCmdp:
    """Finite-action reduction: per state, the actions are the rows of its
    vertex array, which double as transition vectors, and ``rewards``
    holds the source reward at each vertex. For a convex reward these
    vertex rewards generate its concave envelope, so this is also the
    envelope model (:func:`modcmdp.envelope.build_envelope`). An invalid
    instance raises ValueError; the vertices must lie in their polytopes,
    as :func:`build_finite_cmdp` checks.

    States that share one vertex array and a reward of one content key
    (``key``) share one rewards array, scored once."""

    instance: CmdpInstance
    vertices: dict[str, np.ndarray]
    rewards: dict[str, np.ndarray]

    def __init__(self, instance: CmdpInstance, vertices):
        require_valid(instance)
        vertices = {s: np.asarray(v, dtype=float) for s, v in vertices.items()}
        scored: dict[tuple, np.ndarray] = {}
        rewards = {}
        for s in instance.states.nonterminal():
            reward = instance.rewards[s]
            pair = (id(vertices[s]), reward.key)
            if pair not in scored:
                scored[pair] = reward.value(vertices[s])
            rewards[s] = scored[pair]
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "rewards", rewards)


def build_finite_cmdp(instance: CmdpInstance, vertex_set: VertexSet) -> FiniteCmdp:
    """The finite-action reduction of a valid instance over ``vertex_set``;
    raises ValueError naming every violation of an invalid instance, or
    the first state whose vertices :func:`check_vertex_set` rejects."""
    require_valid(instance)
    check_vertex_set(instance, vertex_set)
    return FiniteCmdp(instance, vertex_set.vertices)


def check_vertex_set(instance: CmdpInstance, vertex_set: VertexSet) -> None:
    """Raise ValueError naming the first nonterminal state whose vertex
    array is missing, empty, not finite, not of rows over its next layer,
    or has a row that is not a distribution in the state's polytope
    within ``FEAS_TOL``, tested once per vertex array and polytope key."""
    checked = set()
    for s in instance.states.nonterminal():
        if s not in vertex_set.vertices:
            raise ValueError(f"vertex set has no vertices for state {s!r}")
        v = np.asarray(vertex_set.vertices[s], dtype=float)
        n = instance.next_layer_size(s)
        if v.ndim != 2 or v.shape[1] != n or v.shape[0] == 0:
            raise ValueError(f"vertices of state {s!r} have shape {v.shape}, "
                             f"expected one or more rows of width {n}")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"vertices of state {s!r} are not all finite")
        poly = instance.polytopes[s]
        pair = (id(vertex_set.vertices[s]), poly.key)
        if pair in checked:
            continue
        bad = ~poly.contains(v, FEAS_TOL)
        if bad.any():
            raise ValueError(f"vertex {int(np.argmax(bad))} of state {s!r} is not "
                             "a distribution in its polytope")
        checked.add(pair)


def _atoms(weights, vertices) -> list[tuple[float, np.ndarray]]:
    """(weight, vertex) pairs of the weights above 1e-12, renormalised."""
    keep = np.flatnonzero(weights > 1e-12)
    weights = weights[keep] / weights[keep].sum()
    return [(float(w), vertices[i]) for w, i in zip(weights, keep)]


class FiniteLp:
    """The occupancy LP of a finite-action reduction, never assembled
    whole: the restricted master's columns are written from the vertex
    arrays as it takes them, and every column is priced from those arrays.

    Its rows and d columns are the instance's
    :class:`modcmdp.occupancy.FlowRows`, as in the occupancy LP. Columns:
    one mass w per (state, vertex), state ``g`` (in ``FlowRows.states``
    order) owning ``col_start[g]`` to ``col_start[g + 1] - 1`` in the
    order of its vertex rows, then the d columns; all lie in [0, inf).
    The column of vertex v at state g costs the vertex reward
    r_g(v) and has a 1 on ``out_row[g]`` (each vertex sums to one), the
    entries of v from ``in_start[g]`` on, and nothing else: there are no
    polytope rows, since every mixture of vertices lies in the polytope.
    """

    def __init__(self, fc: FiniteCmdp):
        flow = FlowRows(fc.instance)
        self.states, self.out_row, self.in_start = flow.states, flow.out_row, flow.in_start
        self.succ_start, self.b_eq, self.b_in = flow.succ_start, flow.b_eq, flow.b_in
        self.vertices = [fc.vertices[s] for s in self.states]
        self.col_start = np.concatenate(
            [[0], np.cumsum([v.shape[0] for v in self.vertices])]).astype(np.int64)
        self.n_vertex = int(self.col_start[-1])
        self.nvars = self.n_vertex + flow.n_states
        self.cost = np.concatenate([fc.rewards[s] for s in self.states]
                                   + [np.zeros(flow.n_states)])
        # the d columns, compressed for slicing and pricing
        self.d_eq, self.d_in = (
            sp.csc_matrix((vals, (rows, d)), shape=(b.size, flow.n_states))
            for (rows, d, vals), b in ((flow.d_eq, self.b_eq), (flow.d_in, self.b_in)))
        for m in (self.d_eq, self.d_in):
            m.sort_indices()

        # states that share one vertex array are priced by one product
        shared: dict[int, list[int]] = {}
        for g, v in enumerate(self.vertices):
            shared.setdefault(id(v), []).append(g)
        self.shared = [np.array(gs) for gs in shared.values()]
        self.array_of = np.empty(len(self.states), dtype=np.int64)  # index into shared
        for a, gs in enumerate(self.shared):
            self.array_of[gs] = a

    def columns(self, j) -> lpmod.LpProblem:
        """Columns ``j`` of the LP, in that order, over all of its rows."""
        j = np.asarray(j, dtype=np.int64)
        at_v = np.flatnonzero(j < self.n_vertex)
        g = np.searchsorted(self.col_start, j[at_v], side="right") - 1
        local = j[at_v] - self.col_start[g]
        parts = [(self.out_row[g], at_v, np.ones(at_v.size))]
        for a in np.unique(self.array_of[g]):
            k = np.flatnonzero(self.array_of[g] == a)
            block = self.vertices[self.shared[a][0]][local[k]]
            r, c = np.nonzero(block)
            parts.append((self.in_start[g[k[r]]] + c, at_v[k[r]], block[r, c]))
        at_d = np.flatnonzero(j >= self.n_vertex)
        d = j[at_d] - self.n_vertex
        parts.append(lpmod.column_entries(self.d_eq, d, at_d))
        rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
        a_eq = sp.csc_matrix((vals, (rows, cols)), shape=(self.b_eq.size, j.size))
        rows, cols, vals = lpmod.column_entries(self.d_in, d, at_d)
        a_in = sp.csc_matrix((vals, (rows, cols)), shape=(self.b_in.size, j.size))
        return lpmod.LpProblem(c=self.cost[j], a_eq=a_eq, b_eq=self.b_eq,
                               a_in=a_in, b_in=self.b_in)

    def price(self, y_eq, y_in) -> np.ndarray:
        """``a_j @ y`` of every column j for row multipliers ``y``."""
        out = np.empty(self.nvars)
        for gs in self.shared:
            v = self.vertices[gs[0]]
            # one row of next-layer multipliers per state using v
            y_next = y_eq[self.in_start[gs][:, None] + np.arange(v.shape[1])]
            p = y_next @ v.T
            p += y_eq[self.out_row[gs]][:, None]
            for g, row in zip(gs, p):
                out[self.col_start[g] : self.col_start[g + 1]] = row
        out[self.n_vertex :] = self.d_eq.T @ y_eq + self.d_in.T @ y_in
        return out

    def cap_mass(self) -> np.ndarray:
        """Per vertex column, the least capped mass its choice leads to:
        the mass the vertex sends into capped states (a state counting
        once per cap that holds it) plus the least that can follow from
        there, by backward recursion over the layers."""
        to_go = np.asarray(self.d_in.sum(axis=0), dtype=float).ravel()
        out = np.empty(self.n_vertex)
        for g in reversed(range(len(self.states))):
            v = self.vertices[g]
            nxt = self.succ_start[g]
            mass = v @ to_go[nxt : nxt + v.shape[1]]
            out[self.col_start[g] : self.col_start[g + 1]] = mass
            to_go[g] += mass.min()
        return out

    def farkas_gap(self, cert) -> float:
        """:func:`lp.farkas_gap` of the whole LP: every column lies in
        [0, inf), so the margin is -inf when some column has
        ``a_j @ y + up_j < -DUAL_TOL`` and ``-(b_eq @ y_eq + b_in @ y_in)``
        otherwise."""
        g = self.price(cert["eq"], cert["in"]) + cert["up"]
        if np.any(g < -lpmod.DUAL_TOL):
            return -np.inf
        return -float(self.b_eq @ cert["eq"] + self.b_in @ cert["in"])


def solve_finite(fc: FiniteCmdp, time_limit=None) -> tuple[float, RandomizedPolicy]:
    """Occupancy LP of the finite-action reduction (:class:`FiniteLp`):
    one mass w(s, i) per (state, vertex), flow conservation, initial
    distribution and the visitation caps. Returns the optimal value and
    the randomized vertex policy w(s, i) / d(s).

    The LP is solved by delayed column generation
    (:func:`lp.generate_columns`) and never assembled whole. The
    restricted master holds every d column and, per state, the
    ``COLUMNS_PER_STATE`` vertices of highest reward and as many that
    lead to the least capped mass (:meth:`FiniteLp.cap_mass`), so that
    the first master tends to meet the caps. It lives in one HiGHS model
    (:class:`lp.Master`): each round prices every vertex column against
    the master's duals, one product per distinct vertex array, and adds
    the columns that enter, written from the vertex arrays; a master that
    cannot meet the caps runs phase 1 and prices against its Farkas
    certificate. When no column enters, the master's checked optimum is
    the whole LP's, or its certificate certifies the whole LP, whose
    :func:`lp.farkas_gap` is :meth:`FiniteLp.farkas_gap`: the smallest
    total row violation. ``time_limit`` runs from entry and covers the
    column setup and all rounds.
    """
    deadline = lpmod.deadline_after(time_limit)
    flp = FiniteLp(fc)
    n_u = flp.n_vertex

    held = np.zeros(n_u, dtype=bool)
    every = np.ones(n_u, dtype=bool)
    held[lpmod.top_per_state(flp.cost, every, flp.col_start, COLUMNS_PER_STATE)] = True
    # and those that lead to the least capped mass, where the vertices differ
    mass = flp.cap_mass()
    starts = flp.col_start[:-1]
    varies = np.repeat(np.maximum.reduceat(mass, starts) > np.minimum.reduceat(mass, starts),
                       np.diff(flp.col_start))
    held[lpmod.top_per_state(-mass, varies, flp.col_start, COLUMNS_PER_STATE)] = True
    cols = np.concatenate([np.flatnonzero(held), np.arange(n_u, flp.nvars)])

    def write(j):
        p = flp.columns(j)
        return p.c, p.a_eq, p.a_in

    sol, added = lpmod.generate_columns(
        lpmod.Master(flp.columns(cols)), flp.cost[:n_u],
        lambda y_eq, y_in: flp.price(y_eq, y_in)[:n_u], flp.col_start, write, held, deadline)
    cols = np.concatenate([cols, added])
    if sol.status == "infeasible":
        up = np.zeros(flp.nvars)
        up[cols] = sol.certificate["up"]
        sol = lpmod.LpSolution("infeasible", certificate=dict(sol.certificate, up=up),
                               message=sol.message)
    raise_for_status(flp, sol, "finite-action LP", margin=FiniteLp.farkas_gap)

    x = np.zeros(flp.nvars)
    x[cols] = sol.x
    mixtures = {}
    for g, s in enumerate(flp.states):
        verts = flp.vertices[g]
        d = float(x[n_u + g])
        if d <= UNREACHABLE_TOL:
            mixtures[s] = [(1.0, verts[0])]
            continue
        lam = np.clip(x[flp.col_start[g] : flp.col_start[g + 1]], 0.0, None) / d
        mixtures[s] = _atoms(lam, verts)
    return float(flp.cost @ x), RandomizedPolicy(mixtures)


def mix_to_point(policy: RandomizedPolicy) -> DeterministicPolicy:
    """Collapse each state's mixture to its mean action. Transition
    probabilities are unchanged, and for concave rewards the per-state
    reward can only improve."""
    return DeterministicPolicy(
        {s: policy.action_marginal(s) for s in policy.mixtures}
    )


def _on_face(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Mask of the generators on the query's face: for each coordinate
    where ``query`` lies within ``FACE_TOL`` of the generators' minimum
    (maximum), only the generators within ``FACE_TOL`` of that minimum
    (maximum) stay. Coordinates where the query is at neither extreme
    keep every generator."""
    lo, hi = points.min(axis=0), points.max(axis=0)
    off = (((np.abs(query - lo) <= FACE_TOL) & (points > lo + FACE_TOL))
           | ((np.abs(query - hi) <= FACE_TOL) & (points < hi - FACE_TOL)))
    return ~off.any(axis=1)


def _hull_lp(points: np.ndarray, values: np.ndarray, query: np.ndarray):
    """(value, weights) of the hull LP over ``points``, or None when
    :func:`lp.solve_once` finds no optimum (the query is outside)."""
    nv = points.shape[0]
    a_eq = np.vstack([points.T, np.ones((1, nv))])
    sol = lpmod.solve_once(lpmod.LpProblem(c=values, a_eq=a_eq, b_eq=np.append(query, 1.0)))
    # the hull LP is bounded, so a non-optimal status means the query is
    # outside the hull, and that needs no phase-1 certificate
    if sol.status != "optimal":
        return None
    return float(sol.objective), np.clip(sol.x, 0.0, None)


def hull_envelope(points, values, query) -> tuple[float, np.ndarray]:
    """Envelope of arbitrary generators: the largest convex combination of
    ``values`` whose combination of ``points`` equals ``query``. Returns
    (value, weight vector); raises DecompositionError outside the hull.

    The query's face decides which generators can carry weight. Where the
    query equals the generators' minimum in some coordinate, every
    combination that reproduces it puts all its weight on generators at
    that minimum, since the others would lift the coordinate's mean above
    it; the same holds at a maximum. So the generators within
    ``FACE_TOL`` of every extreme the query sits at (:func:`_on_face`)
    carry all the weight, and restricting the LP to them loses no
    solution: its optimum is the whole LP's. One generator on the face
    is the answer with no LP at all, once it reproduces the query within
    the primal bound of :func:`lp.check_optimal` (``FEAS_TOL`` times the
    largest of 1 and the query's entries). Several go to the LP over
    their columns alone, whose weights are scattered back to full length.
    A face that does not reproduce the query, or whose LP is infeasible,
    is not trusted to reject it: the LP over every generator is solved
    before DecompositionError is raised, so the reduction rejects no
    query the whole LP accepts.

    The LP (one row per coordinate and a convexity row, one column per
    generator) goes to :func:`lp.solve_once`, which runs the simplex
    without HiGHS's presolve, in the one HiGHS model its thread keeps for
    such LPs: at this size presolve, or making a model, costs about as
    much as the simplex run, and callers solve one such LP per action
    they convert.
    """
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(values, dtype=float)
    q = np.asarray(query, dtype=float)
    if (pts.ndim != 2 or pts.shape[0] == 0 or q.shape != pts.shape[1:]
            or vals.shape != pts.shape[:1]):
        raise ValueError(f"generators of shape {pts.shape}, values of shape "
                         f"{vals.shape} and a query of shape {q.shape} do not match")
    face = np.flatnonzero(_on_face(pts, q))
    weights = np.zeros(pts.shape[0])
    if face.size == 1:
        i = face[0]
        if np.abs(pts[i] - q).max() <= lpmod.FEAS_TOL * max(1.0, float(np.abs(q).max())):
            weights[i] = 1.0
            return float(vals[i]), weights
    elif 1 < face.size < pts.shape[0]:
        found = _hull_lp(pts[face], vals[face], q)
        if found is not None:
            weights[face] = found[1]
            return found[0], weights
    found = _hull_lp(pts, vals, q)
    if found is None:
        raise DecompositionError("query point is outside the generator hull")
    return found


def point_to_mix(a, vertices) -> list[tuple[float, np.ndarray]]:
    """Express ``a`` as a convex combination of the given vertices: the
    hull envelope of zero values, so the LP of :func:`hull_envelope` runs
    over the vertices of ``a``'s face alone, and not at all when ``a`` is
    one of them. Returns (weight, vertex) pairs with at most dim(a)
    nonzero weights; raises DecompositionError outside the hull.
    """
    verts = np.asarray(vertices, dtype=float)
    _, lam = hull_envelope(verts, np.zeros(verts.shape[0]), a)
    return _atoms(lam, verts)
