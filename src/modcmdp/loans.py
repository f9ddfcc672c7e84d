"""Synthetic loan-delinquency problem generator and benchmark harness.

The generator produces a layered chain of ordered delinquency levels
(first = current, last = absorbing default) with a fixed per-level base
row reused across periods: the total worsening mass grows
logarithmically with the current level, worsening spreads over all more
delinquent levels with harmonically decaying weights, improving mass is
uniform over the less delinquent levels, and the stay probability is
0.1 (the residual at level 1). These formulas are this package's own
instantiation of the qualitative description they implement; absolute
benchmark numbers therefore reproduce shapes, not published decimals.

:func:`solve` runs any solution method; the harness times the methods
over a range of state counts or caps and writes one CSV row per cell:
``method,n_states,horizon,epsilon,q,objective,wall_ms,status,vertices_total,error``.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .envelope import build_envelope, naive_linear_baseline
from .evaluate import evaluate_validated
from .lp import deadline_after, time_left
from .model import (
    AffineReward,
    CmdpInstance,
    DeterministicPolicy,
    LayeredStateSpace,
    Policy,
    QualityConstraint,
    QuadraticDeviationReward,
    WeightedL1Reward,
    box_polytope,
    require_valid,
)
from .occupancy import QualityInfeasibleError, extract_policy, solve_occupancy
from .vertices import FiniteCmdp, enumerate_for_instance, solve_finite

REWARD_KINDS = ("l1", "quad_convex", "affine")

# The solution methods, each with the loan reward kinds it accepts.
_LOAN_REWARDS = {
    "convex": ("l1", "affine"),
    "extreme": ("l1", "affine"),
    "extreme-restricted": ("l1", "affine"),
    "envelope": ("quad_convex", "affine"),
    "greedy": ("l1",),
    "naive-linear": ("quad_convex", "affine"),
}
METHODS = tuple(_LOAN_REWARDS)

CSV_FIELDS = (
    "method",
    "n_states",
    "horizon",
    "epsilon",
    "q",
    "objective",
    "wall_ms",
    "status",
    "vertices_total",
    "error",
)


@dataclass(frozen=True)
class LoanConfig:
    """Generator knobs; the defaults give the reference setup (horizon 6,
    modulation radius 0.4, default-probability cap 0.04, 8 levels)."""

    n_states: int = 8
    horizon: int = 6
    epsilon: float = 0.4
    q_default: float = 0.04
    reward_kind: str = "l1"


def state_name(t: int, level: int) -> str:
    """Name of the level-``level`` state in period ``t`` (both 1-based)."""
    return f"t{t}_l{level}"


def base_rows(n: int) -> np.ndarray:
    """Per-level base transition rows shared by every period.

    Row k (1-based): total worsening mass 0.9 * log(1+k) / log(n), spread
    over levels k+1..n with weights proportional to 1/(j-k)^2 (nearby
    levels likelier, the absorbing default reachable but rare); stay mass
    0.1 (the residual at level 1); improving mass uniform over 1..k-1;
    the last level absorbs.
    """
    if n < 3:
        raise ValueError("need at least 3 delinquency levels")
    c = 0.9 * math.log(1 + n) / math.log(n)
    rows = np.zeros((n, n))
    for k in range(1, n + 1):
        i = k - 1
        if k == n:
            rows[i, i] = 1.0
            continue
        p_up = c * math.log(1 + k) / math.log(1 + n)
        if k == 1:
            stay = 1.0 - p_up
            improve = 0.0
        else:
            stay = 0.1
            improve = 1.0 - stay - p_up
        if min(p_up, stay, improve) < -1e-12:
            raise ValueError(
                f"level {k}: invalid base row (p_up={p_up:.4f}, "
                f"stay={stay:.4f}, improve={improve:.4f})"
            )
        rows[i, i] = stay
        if k > 1:
            rows[i, : k - 1] = improve / (k - 1)
        w = np.array([1.0 / (j - k) ** 2 for j in range(k + 1, n + 1)])
        rows[i, k:] = p_up * w / w.sum()
        rows[i] /= rows[i].sum()
    return rows


def _affine_surrogate(n: int) -> AffineReward:
    # reward decreases linearly with the delinquency of the landing level
    e = -np.arange(n, dtype=float) / (n - 1)
    return AffineReward(e, 0.0)


def generate_loan_instance(cfg: LoanConfig) -> CmdpInstance:
    """Deterministic instance for a config: same config, same instance."""
    if cfg.reward_kind not in REWARD_KINDS:
        raise ValueError(f"reward_kind must be one of {REWARD_KINDS}")
    n, T = cfg.n_states, cfg.horizon
    if T < 2:
        raise ValueError("horizon must be at least 2")
    rows = base_rows(n)
    layers = [[state_name(t, k) for k in range(1, n + 1)] for t in range(1, T + 1)]
    space = LayeredStateSpace(layers)
    polytopes, rewards = {}, {}
    for t in range(1, T):
        for k in range(1, n + 1):
            s = state_name(t, k)
            b = rows[k - 1]
            polytopes[s] = box_polytope(b, cfg.epsilon)
            if cfg.reward_kind == "l1":
                rewards[s] = WeightedL1Reward(b)
            elif cfg.reward_kind == "quad_convex":
                rewards[s] = QuadraticDeviationReward(b, convex=True)
            else:
                rewards[s] = _affine_surrogate(n)
    alpha = np.zeros(n)
    alpha[0] = 1.0
    constraint = QualityConstraint({state_name(T, n)}, cfg.q_default)
    return CmdpInstance(space, polytopes, rewards, alpha, [constraint])


# ---------------------------------------------------------------------------
# greedy baseline


def greedy_baseline(
    instance: CmdpInstance, time_limit=None
) -> tuple[float, DeterministicPolicy]:
    """Period-by-period myopic baseline: at each period, optimize that
    period's modulation assuming every later period keeps its base row,
    commit, and advance. Raises QualityInfeasibleError when some period's
    subproblem cannot meet the (remaining) caps on its own — the global
    method may still be feasible there. ``time_limit`` covers every
    period's LP.
    """
    deadline = deadline_after(time_limit)
    require_valid(instance)
    for s in instance.states.nonterminal():
        if not isinstance(instance.rewards[s], WeightedL1Reward):
            raise ValueError("greedy baseline is defined for L1 rewards")
    space = instance.states
    T = space.horizon
    committed: dict[str, np.ndarray] = {}
    dist = np.asarray(instance.alpha, dtype=float).copy()
    visited: dict[str, float] = {}

    for t in range(T - 1):
        for i, s in enumerate(space.layers[t]):
            visited[s] = float(dist[i])
        sub_layers = space.layers[t:]
        sub_space = LayeredStateSpace(sub_layers)
        polys, rews = {}, {}
        for tt in range(t, T - 1):
            for s in space.layers[tt]:
                base = instance.polytopes[s].base
                if tt == t:
                    polys[s] = instance.polytopes[s]
                else:
                    polys[s] = box_polytope(base, 0.0)  # frozen at base
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
        sub = CmdpInstance(sub_space, polys, rews, dist, constraints)
        try:
            sol = solve_occupancy(sub, time_limit=time_left(deadline))
        except QualityInfeasibleError as exc:
            raise QualityInfeasibleError(
                f"greedy period {t + 1}: {exc}",
                certificate=exc.certificate,
                excess=exc.excess,
            ) from exc
        policy = extract_policy(sol, sub)
        nxt = np.zeros(len(space.layers[t + 1]))
        for i, s in enumerate(space.layers[t]):
            a = policy.actions[s]
            committed[s] = a
            nxt += dist[i] * a
        dist = nxt

    full = DeterministicPolicy(committed)
    report = evaluate_validated(instance, full)
    return report.value, full


# ---------------------------------------------------------------------------
# one entry point for every method


@dataclass(frozen=True)
class SolveResult:
    """What :func:`solve` returns. ``visit_mass`` comes from the occupancy
    LP for "convex" and from :func:`evaluate_exact` of ``policy`` for the
    other methods; ``bound`` is the LP's upper bound, set only under
    tangent cuts; ``vertices`` is the number of enumerated vertices over
    all states, 0 for the routes that enumerate none."""

    objective: float
    policy: Policy
    visit_mass: dict[str, float]
    bound: Optional[float] = None
    vertices: int = 0


def solve(
    instance: CmdpInstance,
    method: str,
    time_limit: Optional[float] = None,
    tangent_cuts: Optional[int] = None,
) -> SolveResult:
    """Solve ``instance`` by one of :data:`METHODS`. "extreme" adds the
    L1 reward kink planes to the vertex pool and is exact there;
    "extreme-restricted" takes the vertices alone, a lower bound.

    ``time_limit`` (seconds) is one budget for every stage: each stage
    gets the time left, and TimeoutError is raised once it has run out.
    ``tangent_cuts`` applies to "convex" only.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if tangent_cuts and method != "convex":
        raise ValueError("tangent cuts apply to the convex method only")
    deadline = deadline_after(time_limit)
    if method == "convex":
        sol = solve_occupancy(instance, tangent_cuts, time_left(deadline))
        policy = extract_policy(sol, instance)
        return SolveResult(sol.objective, policy, sol.visit_mass, sol.bound)
    vertices = 0
    if method == "greedy":
        objective, policy = greedy_baseline(instance, time_left(deadline))
    elif method == "naive-linear":
        objective, policy = naive_linear_baseline(instance, time_left(deadline))
    else:
        if method == "envelope":
            fc = build_envelope(instance, deadline=deadline)
        else:
            require_valid(instance)
            vs = enumerate_for_instance(
                instance, kink_planes=method == "extreme", deadline=deadline
            )
            # an enumerated vertex set needs no check of its own
            fc = FiniteCmdp(instance, vs.vertices)
        objective, policy = solve_finite(fc, time_limit=time_left(deadline))
        vertices = sum(v.shape[0] for v in fc.vertices.values())
    visit = evaluate_validated(instance, policy).visit_mass
    return SolveResult(objective, policy, visit, vertices=vertices)


# ---------------------------------------------------------------------------
# benchmark harness


@dataclass(frozen=True)
class BenchmarkRecord:
    method: str
    n_states: int
    horizon: int
    epsilon: float
    q: float
    objective: Optional[float]
    wall_ms: float
    status: str
    vertices_total: int
    error: str = ""


def run_benchmark(
    state_range: Sequence[int],
    methods: Sequence[str],
    cfg: LoanConfig = LoanConfig(),
    q_values: Optional[Sequence[float]] = None,
    timeout: Optional[float] = 300.0,
) -> list[BenchmarkRecord]:
    """Time each method over the state counts (or, when ``q_values`` is
    given, over cap values at the config's state count). Failures are
    recorded per cell — "timeout", "infeasible", "unsupported" or
    "error", with the exception's type and message — never raised.
    """
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
    cells: list[tuple[int, float]] = (
        [(cfg.n_states, q) for q in q_values]
        if q_values is not None
        else [(n, cfg.q_default) for n in state_range]
    )
    records = []
    for n, q in cells:
        cell_cfg = replace(cfg, n_states=n, q_default=q)
        instance = generate_loan_instance(cell_cfg)
        for method in methods:
            objective, wall_ms, vertices_total, error = None, 0.0, 0, ""
            if cfg.reward_kind not in _LOAN_REWARDS[method]:
                status = "unsupported"
            else:
                t0 = time.perf_counter()
                try:
                    res = solve(instance, method, time_limit=timeout)
                    objective, vertices_total = res.objective, res.vertices
                    status = "optimal"
                except Exception as exc:
                    status = ("infeasible" if isinstance(exc, QualityInfeasibleError)
                              else "timeout" if isinstance(exc, TimeoutError)
                              else "error")
                    error = f"{type(exc).__name__}: {exc}"
                wall_ms = (time.perf_counter() - t0) * 1000.0
            records.append(
                BenchmarkRecord(
                    method, n, cfg.horizon, cfg.epsilon, q,
                    objective, wall_ms, status, vertices_total, error,
                )
            )
    return records


def write_benchmark_csv(records: Iterable[BenchmarkRecord], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_FIELDS)
        for r in records:
            w.writerow(
                [
                    r.method,
                    r.n_states,
                    r.horizon,
                    repr(r.epsilon),
                    repr(r.q),
                    "" if r.objective is None else repr(r.objective),
                    f"{r.wall_ms:.3f}",
                    r.status,
                    r.vertices_total,
                    r.error,
                ]
            )
