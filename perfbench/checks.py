"""The benchmark's own correctness checks.

None of these calls a modcmdp solver or evaluator. Rewards are recomputed
from the reward specs' fields, policies are evaluated by a local forward
recursion, optimal values are bounded by a Lagrangian dual computed by
backward induction, affine instances are re-solved by backward induction
with scipy, and small instances by a brute-force mixture oracle over
locally enumerated vertices. Every check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog, minimize_scalar

from modcmdp import AffineReward, DeterministicPolicy, QuadraticDeviationReward, WeightedL1Reward

# An action may leave its box by this much (extract_policy accepts 1e-7).
BOX_TOL = 2e-7
# Mixture weights must sum to 1 within this.
SUM_TOL = 1e-9
# Actions must sum to 1 within this: the package's own feasibility
# tolerance (model.FEAS_TOL). Box vertices rounded to 9 decimals miss the
# simplex by up to 1e-9.
SIMPLEX_TOL = 1e-8
# Solver objective vs. the local forward recursion.
VALUE_TOL = 1e-6
# Visit mass may exceed a cap by this much.
CAP_TOL = 1e-7
# Largest number of deterministic vertex policies the mixture oracle enumerates.
ORACLE_MAX_POLICIES = 20_000


def close(a: float, b: float, tol: float = VALUE_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def box_of(poly) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) of a polytope whose rows are [I; -I]."""
    n = poly.dim
    H, h = np.asarray(poly.H), np.asarray(poly.h)
    eye = np.eye(n)
    if H.shape != (2 * n, n) or not (
        np.array_equal(H[:n], eye) and np.array_equal(H[n:], -eye)
    ):
        raise ValueError("polytope is not a box")
    return np.maximum(-h[n:], 0.0), h[:n].copy()


def reward_at(spec, actions) -> np.ndarray:
    """Reward of each row of ``actions`` under a reward spec."""
    a = np.atleast_2d(np.asarray(actions, dtype=float))
    if isinstance(spec, AffineReward):
        return a @ np.asarray(spec.e) + spec.f
    dev = a - np.asarray(spec.center)
    w = np.asarray(spec.weights)
    if isinstance(spec, WeightedL1Reward):
        return -(np.abs(dev) @ w)
    if isinstance(spec, QuadraticDeviationReward):
        q = (dev * dev) @ w
        return q if spec.convex else -q
    raise TypeError(f"unknown reward spec {type(spec).__name__}")


def atoms(policy, state) -> list[tuple[float, np.ndarray]]:
    """(weight, action) pairs of a deterministic or randomized policy."""
    if hasattr(policy, "mixtures"):
        return [(float(w), np.asarray(a, dtype=float)) for w, a in policy.mixtures[state]]
    return [(1.0, np.asarray(policy.actions[state], dtype=float))]


def forward(instance, policy) -> tuple[float, dict[str, float]]:
    """Return and visit masses by forward recursion. A randomized policy
    moves by its marginal and earns the weighted average of its atoms'
    rewards."""
    layers = instance.states.layers
    cur = np.asarray(instance.alpha, dtype=float).copy()
    visit: dict[str, float] = {}
    total = 0.0
    for t, layer in enumerate(layers):
        for i, s in enumerate(layer):
            visit[s] = float(cur[i])
        if t == len(layers) - 1:
            break
        nxt = np.zeros(len(layers[t + 1]))
        for i, s in enumerate(layer):
            pairs = atoms(policy, s)
            w = np.array([p[0] for p in pairs])
            acts = np.array([p[1] for p in pairs])
            total += cur[i] * float(w @ reward_at(instance.rewards[s], acts))
            nxt += cur[i] * (w @ acts)
        cur = nxt
    return total, visit


def cap_masses(instance, visit: dict[str, float]) -> list[float]:
    return [sum(visit[s] for s in qc.states) for qc in instance.constraints]


def check_policy(instance, policy, objective: float, label: str) -> list[str]:
    """Atoms in their boxes and on the simplex, weights a distribution,
    forward-recursion return equal to ``objective``, every cap met."""
    out = []
    for s in instance.states.nonterminal():
        lo, up = box_of(instance.polytopes[s])
        pairs = atoms(policy, s)
        wsum = sum(w for w, _ in pairs)
        if min(w for w, _ in pairs) < -1e-12 or abs(wsum - 1.0) > SUM_TOL:
            out.append(f"{label}: mixture weights at {s} sum to {wsum!r}")
        for w, a in pairs:
            if abs(a.sum() - 1.0) > SIMPLEX_TOL or a.min() < -BOX_TOL:
                out.append(f"{label}: action at {s} is off the simplex")
            elif np.any(a < lo - BOX_TOL) or np.any(a > up + BOX_TOL):
                viol = max(float(np.max(lo - a)), float(np.max(a - up)))
                out.append(f"{label}: action at {s} leaves its box by {viol:.3g}")
    if out:
        return out
    value, visit = forward(instance, policy)
    if not close(value, objective, VALUE_TOL):
        out.append(f"{label}: objective {objective!r} but forward recursion gives {value!r}")
    for qc, m in zip(instance.constraints, cap_masses(instance, visit)):
        if m > qc.bound + CAP_TOL:
            out.append(f"{label}: cap {qc.bound!r} exceeded by visit mass {m!r}")
    return out


def base_policy_mass(instance) -> list[float]:
    """Cap masses of the policy that keeps every base row."""
    layers = instance.states.layers
    cur = np.asarray(instance.alpha, dtype=float).copy()
    visit = {}
    for t, layer in enumerate(layers):
        for i, s in enumerate(layer):
            visit[s] = float(cur[i])
        if t == len(layers) - 1:
            break
        cur = sum(cur[i] * np.asarray(instance.polytopes[s].base) for i, s in enumerate(layer))
    return cap_masses(instance, visit)


def nondecreasing_and_rising(values: list[float], tol: float = 1e-9) -> list[str]:
    """A cap sweep's objectives must never fall and must rise at least once."""
    out = []
    for a, b in zip(values, values[1:]):
        if b < a - tol:
            out.append(f"objective fell along the cap sweep: {a!r} -> {b!r}")
    if not any(b > a + tol for a, b in zip(values, values[1:])):
        out.append("objective never rose along the cap sweep")
    return out


def strictly_growing(counts: list[float], label: str) -> list[str]:
    out = []
    for a, b in zip(counts, counts[1:]):
        if not b > a:
            out.append(f"{label} stopped growing: {a!r} -> {b!r}")
    return out


# ---------------------------------------------------------------------------
# Lagrangian upper bound for weighted-L1 rewards with one cap


def l1_best_response(v, center, weights, lower, upper) -> float:
    """max over lower <= a <= upper, sum(a) = 1 of v.a - sum w|a - c|,
    where c is a feasible point of the box.

    Starting from a = c, moving mass into coordinate j earns v_j - w_j per
    unit and taking it from i costs v_i + w_i; the objective is separable
    and concave, so matching the best receivers with the cheapest donors
    while the gain is positive is optimal.
    """
    value = float(v @ center)
    gain_up = v - weights
    cost_down = v + weights
    recv = np.argsort(-gain_up, kind="stable")
    dono = np.argsort(cost_down, kind="stable")
    room = upper - center
    give = center - lower
    i = j = 0
    while i < recv.size and j < dono.size:
        r, d = recv[i], dono[j]
        gain = gain_up[r] - cost_down[d]
        if gain <= 0:
            break
        amt = min(room[r], give[d])
        value += gain * amt
        room[r] -= amt
        give[d] -= amt
        if room[r] <= 0:
            i += 1
        if give[d] <= 0:
            j += 1
    return value


def lagrangian_value(instance, lam: float) -> float:
    """g(lam) = lam * q + max over policies of E[reward - lam * (visits of
    the capped set)], by backward induction. Every lam >= 0 gives an upper
    bound on the capped optimum (weak duality)."""
    (qc,) = instance.constraints
    layers = instance.states.layers
    v = np.array([-lam if s in qc.states else 0.0 for s in layers[-1]])
    for t in range(len(layers) - 2, -1, -1):
        new = np.empty(len(layers[t]))
        for i, s in enumerate(layers[t]):
            rew = instance.rewards[s]
            lo, up = box_of(instance.polytopes[s])
            new[i] = l1_best_response(
                v, np.asarray(rew.center), np.asarray(rew.weights), lo, up
            ) - (lam if s in qc.states else 0.0)
        v = new
    return lam * qc.bound + float(np.asarray(instance.alpha) @ v)


def lagrangian_bound(instance) -> float:
    """min over lam >= 0 of the Lagrangian value: a coarse log grid, then
    scipy's bounded scalar minimizer between the grid neighbours of the
    best point. g is convex in lam, so this approaches the capped optimum
    (strong duality holds for the convex occupancy program)."""
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 36)])
    vals = [lagrangian_value(instance, lam) for lam in grid]
    k = int(np.argmin(vals))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    res = minimize_scalar(
        lambda lam: lagrangian_value(instance, lam),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-12 * max(1.0, hi)},
    )
    return float(min(min(vals), res.fun))


def check_bound(objective: float, bound: float, label: str, gap_tol: float = 1e-6) -> list[str]:
    """The objective may not exceed the dual bound, and the bound must be
    tight (the programs are convex)."""
    if objective > bound + VALUE_TOL:
        return [f"{label}: objective {objective!r} above the Lagrangian bound {bound!r}"]
    if bound - objective > gap_tol * max(1.0, abs(objective)):
        return [f"{label}: objective {objective!r} below the Lagrangian bound {bound!r}"]
    return []


# ---------------------------------------------------------------------------
# affine rewards: backward induction without the cap


def affine_backward_induction(instance) -> tuple[float, dict[str, np.ndarray]]:
    """Unconstrained optimum and an optimal deterministic policy for
    affine rewards, one scipy LP per state."""
    layers = instance.states.layers
    v = np.zeros(len(layers[-1]))
    actions = {}
    for t in range(len(layers) - 2, -1, -1):
        new = np.empty(len(layers[t]))
        for i, s in enumerate(layers[t]):
            rew = instance.rewards[s]
            lo, up = box_of(instance.polytopes[s])
            res = linprog(
                -(np.asarray(rew.e) + v),
                A_eq=np.ones((1, lo.size)),
                b_eq=[1.0],
                bounds=list(zip(lo, up)),
                method="highs",
            )
            if res.status != 0:
                raise RuntimeError(f"backward induction LP at {s}: {res.message}")
            actions[s] = np.asarray(res.x)
            new[i] = -res.fun + rew.f
        v = new
    return float(np.asarray(instance.alpha) @ v), actions


def check_affine_dp(instance, objective: float, label: str) -> list[str]:
    """Where the unconstrained optimal policy meets every cap, the capped
    optimum must equal its value."""
    value, actions = affine_backward_induction(instance)
    _, visit = forward(instance, DeterministicPolicy(actions))
    if any(m > qc.bound + 1e-9 for qc, m in zip(instance.constraints, cap_masses(instance, visit))):
        return []
    if not close(value, objective, VALUE_TOL):
        return [f"{label}: objective {objective!r} but backward induction gives {value!r}"]
    return []


# ---------------------------------------------------------------------------
# brute-force mixture oracle


def local_vertices(lower, upper, center=None) -> np.ndarray:
    """Vertices of {lower <= a <= upper, sum(a) = 1}, refined by the planes
    a_k = center_k when ``center`` is given: every coordinate but one sits
    at one of its levels and the free one absorbs the rest."""
    n = lower.size
    levels = [
        sorted({lower[k], upper[k]} | ({center[k]} if center is not None else set()))
        for k in range(n)
    ]
    pts = []
    for free in range(n):
        others = [levels[k] for k in range(n) if k != free]
        for combo in itertools.product(*others):
            rest = 1.0 - sum(combo)
            if lower[free] - 1e-12 <= rest <= upper[free] + 1e-12:
                v = np.array(combo[:free] + (rest,) + combo[free:])
                pts.append(v)
    return np.unique(np.round(np.array(pts), 12), axis=0)


def mixture_oracle(instance):
    """Capped optimum over mixtures of deterministic vertex policies, or
    None when there are more than ORACLE_MAX_POLICIES of them. Exact for
    affine rewards over box vertices and for weighted-L1 rewards over the
    kink-refined vertices."""
    states = list(instance.states.nonterminal())
    verts = {}
    for s in states:
        lo, up = box_of(instance.polytopes[s])
        rew = instance.rewards[s]
        center = np.asarray(rew.center) if isinstance(rew, WeightedL1Reward) else None
        verts[s] = local_vertices(lo, up, center)
    count = 1
    for s in states:
        count *= verts[s].shape[0]
        if count > ORACLE_MAX_POLICIES:
            return None
    combos = np.array(list(itertools.product(*(range(verts[s].shape[0]) for s in states))))
    col = {s: k for k, s in enumerate(states)}
    layers = instance.states.layers
    cur = np.tile(np.asarray(instance.alpha, dtype=float), (combos.shape[0], 1))
    ret = np.zeros(combos.shape[0])
    caps = np.zeros((combos.shape[0], len(instance.constraints)))
    for t, layer in enumerate(layers):
        for i, s in enumerate(layer):
            for k, qc in enumerate(instance.constraints):
                if s in qc.states:
                    caps[:, k] += cur[:, i]
        if t == len(layers) - 1:
            break
        nxt = np.zeros((combos.shape[0], len(layers[t + 1])))
        for i, s in enumerate(layer):
            idx = combos[:, col[s]]
            nxt += cur[:, i, None] * verts[s][idx]
            ret += cur[:, i] * reward_at(instance.rewards[s], verts[s])[idx]
        cur = nxt
    res = linprog(
        -ret,
        A_ub=caps.T if instance.constraints else None,
        b_ub=[qc.bound for qc in instance.constraints] or None,
        A_eq=np.ones((1, ret.size)),
        b_eq=[1.0],
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"mixture oracle LP: {res.message}")
    return -float(res.fun)


# ---------------------------------------------------------------------------
# conversions


def check_mixture(pairs, action, lower, upper, label: str) -> list[str]:
    """point_to_mix output: nonnegative weights summing to 1 over points of
    the box that reproduce the action."""
    w = np.array([p[0] for p in pairs])
    pts = np.array([p[1] for p in pairs])
    out = []
    if w.min() < -1e-12 or abs(w.sum() - 1.0) > SUM_TOL:
        out.append(f"{label}: weights {w.tolist()} are not a distribution")
    if np.any(pts < lower - BOX_TOL) or np.any(pts > upper + BOX_TOL):
        out.append(f"{label}: a mixture atom leaves the box")
    err = float(np.max(np.abs(w @ pts - action)))
    if err > 1e-7:
        out.append(f"{label}: mixture misses the action by {err:.3g}")
    return out


def in_hull(point, vertices) -> bool:
    """Whether scipy finds ``point`` in the convex hull of ``vertices``."""
    v = np.asarray(vertices, dtype=float)
    res = linprog(
        np.zeros(v.shape[0]),
        A_eq=np.vstack([v.T, np.ones((1, v.shape[0]))]),
        b_eq=np.append(point, 1.0),
        bounds=(0, None),
        method="highs",
    )
    return res.status == 0
