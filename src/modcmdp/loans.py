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

:func:`greedy_baseline` is the month-by-month myopic baseline the global
optimum is compared with: each period solves one small LP over its own
layer's actions, the later periods priced by the base policy's
value-to-go and capped mass-to-go.

:func:`solve` runs any solution method; the harness times the methods
over a range of state counts or caps and writes one CSV row per cell:
``method,n_states,horizon,epsilon,q,objective,wall_ms,status,vertices_total,error``.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, fields, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from . import lp as lpmod
from .envelope import build_envelope, naive_linear_baseline
from .evaluate import evaluate_exact
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
from .occupancy import (
    UNREACHABLE_TOL,
    QualityInfeasibleError,
    extract_policy,
    raise_for_status,
    solve_occupancy,
    split_action_lp,
    split_actions,
)
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
            if abs(improve) <= 1e-12:
                # level n-1 has p_up = 0.9 exactly: no float residue may
                # spread over the levels below as tiny or negative mass
                improve = 0.0
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
    """Deterministic instance for a config: same config, same instance.
    Each level's box and reward are built once and held in every period."""
    if cfg.reward_kind not in REWARD_KINDS:
        raise ValueError(f"reward_kind must be one of {REWARD_KINDS}")
    n, T = cfg.n_states, cfg.horizon
    if T < 2:
        raise ValueError("horizon must be at least 2")
    rows = base_rows(n)
    layers = [[state_name(t, k) for k in range(1, n + 1)] for t in range(1, T + 1)]
    space = LayeredStateSpace(layers)
    if cfg.reward_kind == "l1":
        level_rewards = [WeightedL1Reward(b) for b in rows]
    elif cfg.reward_kind == "quad_convex":
        level_rewards = [QuadraticDeviationReward(b, convex=True) for b in rows]
    else:
        level_rewards = [_affine_surrogate(n) for _ in rows]
    level_boxes = [box_polytope(b, cfg.epsilon) for b in rows]
    states = [state_name(t, k) for t in range(1, T) for k in range(1, n + 1)]
    polytopes = dict(zip(states, level_boxes * (T - 1)))
    rewards = dict(zip(states, level_rewards * (T - 1)))
    alpha = np.zeros(n)
    alpha[0] = 1.0
    constraint = QualityConstraint({state_name(T, n)}, cfg.q_default)
    return CmdpInstance(space, polytopes, rewards, alpha, [constraint])


# ---------------------------------------------------------------------------
# greedy baseline


def _base_to_go(instance: CmdpInstance, member: list[np.ndarray]):
    """Per layer t >= 1, the value-to-go ``V[t]`` of each state and its
    capped mass-to-go ``M[t]`` (one row per cap, ``member[t]`` marking the
    cap's states in the layer) when every state from layer t on keeps its
    base action. The terminal layer counts its own cap membership."""
    space = instance.states
    V = [np.zeros(len(layer)) for layer in space.layers]
    M = list(member)
    for t in range(space.horizon - 2, 0, -1):
        layer = space.layers[t]
        base = np.array([instance.polytopes[s].base for s in layer])
        reward = [instance.rewards[s].value(b) for s, b in zip(layer, base)]
        V[t] = reward + base @ V[t + 1]
        M[t] = member[t] + M[t + 1] @ base.T
    return V, M


def greedy_baseline(
    instance: CmdpInstance, time_limit=None
) -> tuple[float, DeterministicPolicy]:
    """Period-by-period myopic baseline: at each period, optimize that
    period's modulation assuming every later period keeps its base row,
    commit, and advance. Returns the committed policy's exact return.

    With the later periods frozen, the future is linear in this period's
    actions: one backward recursion under the base policy gives each
    state's value-to-go V and, per cap, its capped mass-to-go M. Period t
    is then one LP over its layer's actions, each split around its L1
    center (:func:`modcmdp.occupancy.split_action_lp`):
    maximise sum_s dist_s (r_s(a_s) + a_s . V_{t+1}) subject to
    sum_s dist_s (a_s . M_{t+1,i}) <= bound_i - accrued_i for each cap
    with states after period t, where dist is the committed visit mass
    of period t and accrued_i the cap mass of periods up to t. A state of
    visit mass at most ``UNREACHABLE_TOL`` keeps its base action.

    Raises QualityInfeasibleError when some period cannot meet the
    (remaining) caps on its own; the global method may still be feasible
    there. When that period's LP proved it, ``certificate`` is its Farkas
    certificate and ``excess`` its phase-1 value, the smallest total
    violation of its rows, which is not in general the excess of a
    whole-horizon occupancy LP frozen after period t. ``time_limit``
    covers every period's LP.
    """
    deadline = deadline_after(time_limit)
    require_valid(instance)
    for s in instance.states.nonterminal():
        if not isinstance(instance.rewards[s], WeightedL1Reward):
            raise ValueError("greedy baseline is defined for L1 rewards")
    space = instance.states
    T = space.horizon
    member = [np.zeros((len(instance.constraints), len(layer))) for layer in space.layers]
    last = np.zeros(len(instance.constraints), dtype=int)  # each cap's last period
    for i, qc in enumerate(instance.constraints):
        for s in qc.states:
            t, j = space.position(s)
            member[t][i, j] = 1.0
            last[i] = max(last[i], t)
    bound = np.array([qc.bound for qc in instance.constraints])
    V, M = _base_to_go(instance, member)
    committed: dict[str, np.ndarray] = {}
    dist = np.asarray(instance.alpha, dtype=float).copy()
    accrued = np.zeros(bound.size)

    for t in range(T - 1):
        accrued += member[t] @ dist
        left = bound - accrued
        for i in range(bound.size):
            if last[i] <= t:
                if left[i] < -1e-9:
                    raise QualityInfeasibleError(
                        f"greedy period {t + 1}: constraint {i} already "
                        f"violated by {-left[i]:.3e}"
                    )
            elif left[i] < 0:
                raise QualityInfeasibleError(
                    f"greedy period {t + 1}: constraint {i} bound exhausted"
                )
        layer = space.layers[t]
        actions = np.array([instance.polytopes[s].base for s in layer])
        live = dist > UNREACHABLE_TOL
        states = [s for s, keep in zip(layer, live) if keep]
        caps = last > t
        mass = M[t + 1][caps]
        rhs = left[caps] - mass @ (actions[~live].T @ dist[~live])
        center = np.array([instance.rewards[s].center for s in states])
        weights = np.array([instance.rewards[s].weights for s in states])
        problem = split_action_lp([instance.polytopes[s] for s in states], center, weights,
                                  dist[live], V[t + 1], mass, rhs)
        sol = lpmod.solve_lp(problem, time_limit=time_left(deadline))
        try:
            raise_for_status(problem, sol, f"greedy period {t + 1} LP")
        except QualityInfeasibleError as exc:
            raise QualityInfeasibleError(
                f"greedy period {t + 1}: {exc}",
                certificate=exc.certificate,
                excess=exc.excess,
            ) from exc
        actions[live] = split_actions(sol.x, center)
        committed.update(zip(layer, actions))
        dist = dist @ actions

    full = DeterministicPolicy(committed)
    report = evaluate_exact(instance, full)
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
    visit = evaluate_exact(instance, policy).visit_mass
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


CSV_FIELDS = tuple(f.name for f in fields(BenchmarkRecord))


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
    "error", with the exception's type and message — never raised. An
    unknown method or a NaN ``timeout`` raises ValueError before any cell.
    """
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
    deadline_after(timeout)  # raises on a NaN budget
    # load HiGHS before the first timer starts, so no cell's time holds it
    lpmod.solve_lp(lpmod.LpProblem(c=[1.0], a_eq=[[1.0]], b_eq=[1.0]))
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
