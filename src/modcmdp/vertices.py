"""Extreme-point machinery: vertex enumeration for the per-state action
polytopes, the finite-action reduction built on those vertices, the
solver of its LP, and conversions between randomized vertex policies and
deterministic interior ones.

The finite-action LP is the occupancy LP with each state's edge masses
written as u = V^T w over its vertex masses w; the occupancy module's
assembler builds it. It has one column per (state, vertex), hundreds of
thousands once box polytopes reach ten or more dimensions, of which a few
thousand carry mass. ``solve_finite`` therefore solves it by delayed
column generation over a restricted master held in one HiGHS model
(:class:`modcmdp.lp.Master`), which re-solves warm as columns arrive,
and proves the master's answer optimal (or infeasible) for the whole LP
by pricing every column.

Vertex enumeration is exhaustive basis enumeration by default: pick n-1
active rows among the polytope rows and the nonnegativity bounds, solve
together with the simplex equality, keep feasible solutions, dedup. Its
combinatorial cost is intentional (the benchmark exhibits the blowup);
box-shaped polytopes additionally get a structured enumerator that scales
to the dimensions the envelope solver needs.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import lp as lpmod
from .model import (
    FEAS_TOL,
    ActionPolytope,
    CmdpInstance,
    DeterministicPolicy,
    RandomizedPolicy,
    require_valid,
)
from .occupancy import UNREACHABLE_TOL, assemble_lp, raise_for_status

# Two vertices closer than this in L-infinity are considered equal.
DEDUP_TOL = 1e-7
# Feasibility slack accepted when filtering candidate basis solutions.
VERTEX_FEAS_TOL = 1e-9
# Exhaustive enumeration refuses beyond this dimension.
MAX_EXHAUSTIVE_DIM = 25

_BATCH = 1 << 15
# Column generation in solve_finite: vertex columns per state in the first
# restricted master, and the most added per state in one pricing round.
COLUMNS_PER_STATE = 10


class DecompositionError(RuntimeError):
    """Requested point is not in the convex hull of the given vertices."""


@dataclass(frozen=True)
class VertexSet:
    """Per-state vertex arrays, each row one vertex."""

    vertices: dict[str, np.ndarray]

    def counts(self) -> dict[str, int]:
        return {s: v.shape[0] for s, v in self.vertices.items()}

    def total(self) -> int:
        return sum(v.shape[0] for v in self.vertices.values())


def _dedup(points: np.ndarray, tol: float) -> np.ndarray:
    """Drop every point within ``tol`` (L-infinity) of an earlier kept
    one; the first of each cluster wins."""
    # a repeat of an earlier point always goes, so only first occurrences
    # (in their order) reach the tolerance loop
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

    # active-row pool: polytope rows, nonnegativity bounds, optional
    # reward kink planes (a_k = value)
    rows = [poly.H]
    rhs = [poly.h]
    eye = np.eye(n)
    rows.append(-eye)
    rhs.append(np.zeros(n))
    for k, val in extra_planes or []:
        rows.append(eye[k : k + 1])
        rhs.append(np.array([val]))
    pool = np.vstack(rows)
    pool_rhs = np.concatenate(rhs)
    npool = pool.shape[0]

    found = []
    combos = itertools.combinations(range(npool), n - 1)
    while True:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("vertex enumeration exceeded its time budget")
        chunk = list(itertools.islice(combos, _BATCH))
        if not chunk:
            break
        idx = np.array(chunk)
        m = np.empty((len(chunk), n, n))
        m[:, 0, :] = 1.0
        m[:, 1:, :] = pool[idx]
        r = np.empty((len(chunk), n))
        r[:, 0] = 1.0
        r[:, 1:] = pool_rhs[idx]
        dets = np.linalg.det(m)
        good = np.abs(dets) > 1e-10
        if not np.any(good):
            continue
        sols = np.linalg.solve(m[good], r[good][..., None])[..., 0]
        resid = np.max(np.abs(m[good] @ sols[..., None] - r[good][..., None]), axis=(1, 2))
        cand = sols[resid <= 1e-7]
        feas = (
            (cand.min(axis=1) >= -VERTEX_FEAS_TOL)
            & (np.abs(cand.sum(axis=1) - 1.0) <= VERTEX_FEAS_TOL)
        )
        if poly.H.shape[0]:
            feas &= np.all(cand @ poly.H.T - poly.h <= VERTEX_FEAS_TOL, axis=1)
        if np.any(feas):
            found.append(cand[feas])
    if not found:
        return np.zeros((0, n))
    return _dedup(np.vstack(found), DEDUP_TOL)


def box_bounds(poly: ActionPolytope):
    """Recover per-coordinate bounds when the polytope rows form the
    box pattern [I; -I]; returns (lower, upper) or None."""
    n = poly.dim
    if poly.H.shape != (2 * n, n):
        return None
    if not (np.array_equal(poly.H[:n], np.eye(n))
            and np.array_equal(poly.H[n:], -np.eye(n))):
        return None
    return np.clip(-poly.h[n:], 0.0, None), poly.h[:n]


def box_simplex_vertices(lower, upper) -> np.ndarray:
    """All vertices of {a : lower <= a <= upper, sum(a) = 1}.

    A vertex fixes every coordinate at a bound except at most one free
    coordinate absorbing the residual. Writing g = upper - lower and
    R = 1 - sum(lower), the coordinates raised to their upper bound form
    a subset S with gap-sum in [R - max(g), R]; those subsets are walked
    once with window pruning, then the free coordinate is vectorized, so
    the cost is close to linear in the output size.
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

    subsets: list[tuple[tuple[int, ...], float]] = []

    def dfs(pos: int, cur: float, chosen: tuple[int, ...]):
        if cur >= w_lo:
            subsets.append((chosen, cur))
        for k in range(pos, gm.size):
            t2 = cur + gm[k]
            if t2 > R + tol:
                continue  # gaps are sorted desc; later ones may still fit
            if t2 + suffix[k + 1] < w_lo:
                break  # even taking the whole suffix cannot reach the window
            dfs(k + 1, t2, chosen + (k,))

    dfs(0, 0.0, ())

    rows: list[np.ndarray] = []
    for chosen, gapsum in subsets:
        base = lo.copy()
        for k in chosen:
            base[movable[k]] = up[movable[k]]
        resid = R - gapsum  # extra mass the free coordinate must absorb
        if resid <= tol:
            if resid >= -tol:
                rows.append(base)
            continue
        in_s = np.zeros(n, dtype=bool)
        in_s[movable[list(chosen)]] = True
        ok = np.flatnonzero((g >= resid - tol) & ~in_s)
        for f in ok:
            v = base.copy()
            v[f] = lo[f] + resid
            rows.append(v)
    if not rows:
        return np.zeros((0, n))
    pts = np.clip(np.vstack(rows), 0.0, None)
    pts = pts[np.abs(pts.sum(axis=1) - 1.0) <= 1e-9]
    # bound arithmetic is exact, so duplicates (free coord landing on a
    # bound) collapse under rounding; the kept vertices stay unrounded, in
    # the lexicographic order of their rounded keys
    _, first = np.unique(np.round(pts, 9), axis=0, return_index=True)
    pts = pts[first]
    if pts.shape[0] <= 400:
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
    solver there); "box" requires the [I; -I] row pattern; "auto" picks
    "box" when the pattern matches (and no kink planes are requested),
    falling back to "exhaustive".
    """
    if method not in ("exhaustive", "box", "auto"):
        raise ValueError(f"unknown enumeration method {method!r}")
    if method == "auto":
        method = "box" if (box_bounds(poly) and not extra_planes) else "exhaustive"
    if method == "box":
        bounds = box_bounds(poly)
        if bounds is None:
            raise ValueError("polytope rows are not in box form")
        if extra_planes:
            raise ValueError("kink planes need method='exhaustive'")
        verts = box_simplex_vertices(*bounds)
    else:
        if poly.dim > MAX_EXHAUSTIVE_DIM:
            raise ValueError(
                f"dimension {poly.dim} exceeds the exhaustive enumeration "
                f"limit {MAX_EXHAUSTIVE_DIM}; use the occupancy solver instead"
            )
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
    from .model import WeightedL1Reward

    cache: dict[tuple, np.ndarray] = {}
    out = {}
    for s in instance.states.nonterminal():
        poly = instance.polytopes[s]
        planes = None
        if kink_planes:
            rew = instance.rewards[s]
            if isinstance(rew, WeightedL1Reward):
                planes = [(k, float(c)) for k, c in enumerate(rew.center)]
        # the parts stay apart and carry their shapes: concatenated bytes
        # of polytopes of different dimensions can coincide
        key = (poly.H.shape, poly.base.tobytes(), poly.H.tobytes(),
               poly.h.tobytes(), repr(planes))
        if key not in cache:
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
    envelope model (:func:`modcmdp.envelope.build_envelope`)."""

    instance: CmdpInstance
    vertices: dict[str, np.ndarray]
    rewards: dict[str, np.ndarray]


def build_finite_cmdp(instance: CmdpInstance, vertex_set: VertexSet) -> FiniteCmdp:
    """The finite-action reduction of a valid instance over ``vertex_set``;
    raises ValueError naming every violation of an invalid instance, or
    the first state whose vertices :func:`_check_vertex_set` rejects."""
    require_valid(instance)
    _check_vertex_set(instance, vertex_set)
    return _finite_cmdp(instance, vertex_set)


def _check_vertex_set(instance: CmdpInstance, vertex_set: VertexSet) -> None:
    """Raise ValueError naming the first nonterminal state whose vertex
    array is missing, empty, not finite, not of rows over its next layer,
    or has a row that is not a distribution in the state's polytope
    within ``FEAS_TOL``."""
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
        bad = (v.min(axis=1) < -FEAS_TOL) | (np.abs(v.sum(axis=1) - 1.0) > FEAS_TOL)
        if poly.H.shape[0]:
            bad |= (poly.H @ v.T - poly.h[:, None]).max(axis=0) > FEAS_TOL
        if bad.any():
            raise ValueError(f"vertex {int(np.argmax(bad))} of state {s!r} is not "
                             "a distribution in its polytope")


def _finite_cmdp(instance: CmdpInstance, vertex_set: VertexSet) -> FiniteCmdp:
    """:func:`build_finite_cmdp` of an instance already validated, with
    vertex sets already checked."""
    from .model import reward_values

    vertices = {s: np.asarray(v, dtype=float) for s, v in vertex_set.vertices.items()}
    rewards = {
        s: reward_values(instance.rewards[s], vertices[s])
        for s in instance.states.nonterminal()
    }
    return FiniteCmdp(instance, vertices, rewards)


def _top_per_state(score, mask, col_start, k: int) -> np.ndarray:
    """Indices of the (at most) ``k`` highest scores per state among the
    vertex columns where ``mask`` holds, state by state, best first; ties
    keep column order. State ``g`` owns columns ``col_start[g]`` to
    ``col_start[g + 1] - 1``."""
    # one short sort per state: a single sort of every column by (state,
    # score) took three times as long on the 1.24M columns of quad n=30
    out = []
    for lo, hi in zip(col_start[:-1], col_start[1:]):
        idx = lo + np.flatnonzero(mask[lo:hi])
        out.append(idx[np.argsort(-score[idx], kind="stable")[:k]])
    return np.concatenate(out)


def solve_finite(fc: FiniteCmdp, time_limit=None) -> tuple[float, RandomizedPolicy]:
    """Occupancy LP of the finite-action reduction, assembled by
    :func:`occupancy.assemble_lp` with vertex blocks: one mass w(s, i) per
    (state, vertex), flow conservation, initial distribution and the
    visitation caps. Returns the optimal value and the randomized vertex
    policy w(s, i) / d(s).

    The LP is solved by delayed column generation (Dantzig & Wolfe 1960).
    The restricted master holds every d column and, per state, the
    ``COLUMNS_PER_STATE`` vertices of highest reward; when no state has
    more vertices than that, the master is the whole LP and one solve
    settles it. The master lives in one HiGHS model (:class:`lp.Master`):
    each round adds columns to it and re-solves from the last basis, and
    every master optimum passes :func:`lp.check_optimal`. Each round
    prices every vertex column against the master's duals and adds, per
    state, up to ``COLUMNS_PER_STATE`` columns of largest positive reduced
    cost. A master that cannot meet the caps runs phase 1 in the same
    model; its duals form a Farkas certificate, and each round adds per
    state up to as many of the columns that break it most (Farkas
    pricing) until phase 1 meets every row and the costs return. The loop
    stops when nothing is added; the master's solution, zero-padded, then
    passes :func:`lp.check_optimal` on the whole LP, and a certificate no
    column breaks is a certificate for the whole LP, its margin the whole
    LP's smallest total row violation. ``time_limit`` covers all rounds.
    """
    problem = assemble_lp(fc.instance, finite=fc)
    lay = problem.layout
    n = problem.nvars
    n_u = int(lay.col_start[-1])
    price_tol = lpmod.DUAL_TOL * max(1.0, float(np.abs(problem.c).max()))
    deadline = lpmod.deadline_after(time_limit)

    in_master = np.zeros(n, dtype=bool)
    in_master[n_u:] = True
    in_master[_top_per_state(problem.c, np.ones(n_u, dtype=bool), lay.col_start,
                             COLUMNS_PER_STATE)] = True
    cols = np.flatnonzero(in_master)
    whole = cols.size == n  # else the master's columns come in their own order
    master = lpmod.Master(problem if whole else lpmod.LpProblem(
        c=problem.c[cols], a_eq=problem.a_eq[:, cols], b_eq=problem.b_eq,
        a_in=problem.a_in[:, cols], b_in=problem.b_in,
    ))
    while True:
        left = None if deadline is None else deadline - time.monotonic()
        sol = master.solve(time_limit=left)
        if sol.status == "optimal":
            y_eq, y_in = sol.dual_eq, sol.dual_in
        elif sol.status == "infeasible":
            y_eq, y_in = sol.certificate["eq"], sol.certificate["in"]
        else:
            raise_for_status(master.lp, sol, "finite-action LP")
        if whole:
            break
        priced = problem.a_eq.T @ y_eq + problem.a_in.T @ y_in
        if sol.status == "optimal":
            rc = problem.c - priced
            score, add = rc[:n_u], rc[:n_u] > price_tol
        else:
            # a column j breaks the certificate when a_j @ y < 0
            score, add = -priced[:n_u], priced[:n_u] < -lpmod.DUAL_TOL
        new = _top_per_state(score, add & ~in_master[:n_u], lay.col_start,
                             COLUMNS_PER_STATE)
        if new.size == 0:
            break
        in_master[new] = True
        cols = np.concatenate([cols, new])
        master.add_columns(problem.c[new], problem.a_eq[:, new], problem.a_in[:, new])
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("finite-action LP exceeded its time budget")

    if sol.status == "optimal" and not whole:
        x = np.zeros(n)
        x[cols] = sol.x
        sol = lpmod.LpSolution(
            "optimal", x=x, objective=float(problem.c @ x),
            dual_eq=y_eq, dual_in=y_in, reduced_costs=rc,
        )
        lpmod.check_optimal(problem, sol)
    elif sol.status == "infeasible":
        up = np.zeros(n)
        up[cols] = sol.certificate["up"]
        cert = {"eq": y_eq, "in": y_in, "up": up}
        if not lpmod.farkas_gap(problem, cert) > 0.0:
            raise lpmod.LpError("master certificate does not carry over")
        sol = lpmod.LpSolution("infeasible", certificate=cert,
                               message=sol.message)
    raise_for_status(problem, sol, "finite-action LP")

    mixtures = {}
    for g, s in enumerate(lay.states):
        verts = fc.vertices[s]
        d = float(sol.x[lay.d_col[g]])
        if d <= UNREACHABLE_TOL:
            mixtures[s] = [(1.0, verts[0])]
            continue
        lam = np.clip(sol.x[lay.col_start[g] : lay.col_start[g + 1]], 0.0, None) / d
        keep = np.flatnonzero(lam > 1e-12)
        lam = lam[keep] / lam[keep].sum()
        mixtures[s] = [(float(w), verts[i]) for w, i in zip(lam, keep)]
    return float(sol.objective), RandomizedPolicy(mixtures)


def mix_to_point(policy: RandomizedPolicy) -> DeterministicPolicy:
    """Collapse each state's mixture to its mean action. Transition
    probabilities are unchanged, and for concave rewards the per-state
    reward can only improve."""
    return DeterministicPolicy(
        {s: policy.action_marginal(s) for s in policy.mixtures}
    )


def hull_envelope(points, values, query) -> tuple[float, np.ndarray]:
    """Envelope of arbitrary generators: the largest convex combination of
    ``values`` whose combination of ``points`` equals ``query``. Returns
    (value, weight vector); raises DecompositionError outside the hull.
    """
    pts = np.asarray(points, dtype=float)
    q = np.asarray(query, dtype=float)
    nv = pts.shape[0]
    a_eq = np.vstack([pts.T, np.ones((1, nv))])
    b_eq = np.concatenate([q, [1.0]])
    problem = lpmod.LpProblem(c=values, a_eq=a_eq, b_eq=b_eq)
    # one checked HiGHS call and no phase-1 certificate: the hull LP is
    # bounded, so a non-optimal status means the query is outside the hull
    sol = lpmod._solve_highs(problem, None)
    if sol.status != "optimal":
        raise DecompositionError("query point is outside the generator hull")
    return float(sol.objective), np.clip(sol.x, 0.0, None)


def point_to_mix(a, vertices) -> list[tuple[float, np.ndarray]]:
    """Express ``a`` as a convex combination of the given vertices: the
    hull envelope of zero values. Returns (weight, vertex) pairs with at
    most dim(a) nonzero weights; raises DecompositionError outside the
    hull.
    """
    verts = np.asarray(vertices, dtype=float)
    _, lam = hull_envelope(verts, np.zeros(verts.shape[0]), a)
    keep = np.flatnonzero(lam > 1e-12)
    lam = lam[keep] / lam[keep].sum()
    return [(float(w), verts[i]) for w, i in zip(lam, keep)]
