"""Linear programs: one HiGHS model per problem (:class:`Master`), which
column generation grows and re-solves warm and :func:`solve_lp` solves
once; :func:`export_lp` writes the same model as MPS with HiGHS's writer.

Every LP goes to HiGHS (Huangfu & Hall 2018, "Parallelizing the dual
revised simplex method") through scipy's vendored bindings, solved by the
dual simplex method; a :class:`Master` re-solves by the primal simplex
from its last basis. Each optimal solve is then checked for primal
feasibility, dual sign and stationarity, duality gap and complementary
slackness; a failed check raises :class:`LpError`. There is one phase 1,
the master's: when the rows cannot be met, the same model gains elastic
columns on every row and minimises the total row violation, and the
duals of that optimum are a Farkas certificate, which
:func:`farkas_gap` validates.

Conventions: maximize ``c @ x`` subject to ``a_eq @ x == b_eq``,
``a_in @ x <= b_in`` and ``lower <= x <= upper`` (lower defaults to 0,
upper to +inf). Duals are reported per original row in the max
convention, so at an optimum

    objective == b_eq @ dual_eq + b_in @ dual_in + bound terms,

with ``dual_in >= 0``; the bound terms are the reduced costs
``c - a_eq.T @ dual_eq - a_in.T @ dual_in`` times the bound each one
presses against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

# Primal feasibility tolerance (scaled by the largest right-hand side).
FEAS_TOL = 1e-8
# Tolerance of the dual conditions: sign, stationarity, duality gap and
# complementary slackness.
DUAL_TOL = 1e-7

DEFAULT_MAXITER = 1_000_000


class LpError(ValueError):
    """Malformed problem (dimension mismatch, non-finite data), or a solve
    whose result fails its optimality or certificate check."""


def _as_matrix(a, ncols: int):
    if a is None:
        return np.zeros((0, ncols))
    if sp.issparse(a):
        # CSC stays CSC: column slices and the HiGHS load want it
        return a if a.format in ("csr", "csc") else a.tocsr()
    arr = np.asarray(a, dtype=float)
    if arr.size == 0:
        return np.zeros((0, ncols))
    return np.atleast_2d(arr)


@dataclass
class LpProblem:
    """maximize c @ x  s.t.  a_eq x = b_eq,  a_in x <= b_in,
    lower <= x <= upper.

    Matrices may be dense ndarrays or scipy.sparse.
    """

    c: np.ndarray
    a_eq: object = None
    b_eq: np.ndarray = None
    a_in: object = None
    b_in: np.ndarray = None
    lower: np.ndarray = None
    upper: np.ndarray = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        n = self.c.size
        if n == 0:
            raise LpError("problem has no variables")
        self.a_eq = _as_matrix(self.a_eq, n)
        self.a_in = _as_matrix(self.a_in, n)
        self.b_eq = (
            np.zeros(self.a_eq.shape[0])
            if self.b_eq is None
            else np.asarray(self.b_eq, dtype=float).ravel()
        )
        self.b_in = (
            np.zeros(self.a_in.shape[0])
            if self.b_in is None
            else np.asarray(self.b_in, dtype=float).ravel()
        )
        if self.a_eq.shape != (self.b_eq.size, n):
            raise LpError(
                f"a_eq is {self.a_eq.shape}, expected ({self.b_eq.size}, {n})"
            )
        if self.a_in.shape != (self.b_in.size, n):
            raise LpError(
                f"a_in is {self.a_in.shape}, expected ({self.b_in.size}, {n})"
            )
        self.lower = (
            np.zeros(n)
            if self.lower is None
            else np.asarray(self.lower, dtype=float).ravel()
        )
        self.upper = (
            np.full(n, np.inf)
            if self.upper is None
            else np.asarray(self.upper, dtype=float).ravel()
        )
        if self.lower.size != n or self.upper.size != n:
            raise LpError("bound vectors must match the variable count")
        if not np.all(np.isfinite(self.c)):
            raise LpError("objective has non-finite coefficients")
        for m in (self.a_eq, self.a_in):
            data = m.data if sp.issparse(m) else m
            if not np.all(np.isfinite(data)):
                raise LpError("constraint matrix has non-finite coefficients")
        if not (np.all(np.isfinite(self.b_eq)) and np.all(np.isfinite(self.b_in))):
            raise LpError("rhs has non-finite entries")
        if np.any(self.lower == np.inf) or np.any(self.upper == -np.inf):
            raise LpError("bounds wrong-signed infinity")

    @property
    def nvars(self) -> int:
        return self.c.size

    @property
    def nrows(self) -> int:
        return self.b_eq.size + self.b_in.size


@dataclass
class LpSolution:
    """Outcome of a solve.

    status is one of "optimal", "infeasible", "unbounded",
    "limit_exceeded". An optimal solution carries the max-convention row
    duals and the reduced costs ``c - a_eq.T @ dual_eq - a_in.T @ dual_in``;
    an infeasible one carries a Farkas certificate ``{"eq", "in", "up"}``
    (see :func:`farkas_gap`).
    """

    status: str
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    dual_eq: Optional[np.ndarray] = None
    dual_in: Optional[np.ndarray] = None
    reduced_costs: Optional[np.ndarray] = None
    iterations: int = 0
    certificate: object = None
    message: str = ""


def farkas_gap(problem: LpProblem, cert: dict) -> float:
    """Contradiction margin of an infeasibility certificate.

    The certificate provides multipliers y_eq (free), y_in >= 0 and
    y_up >= 0 (for finite upper bounds) such that every x in the bound
    box satisfying the rows would obey g @ x <= rhs, yet the box minimum
    of g @ x exceeds rhs. Returns that strictly positive margin.
    """
    y_eq = np.asarray(cert["eq"], dtype=float)
    y_in = np.asarray(cert["in"], dtype=float)
    y_up = np.asarray(cert["up"], dtype=float)
    g = problem.a_eq.T @ y_eq + problem.a_in.T @ y_in + y_up
    g = np.asarray(g).ravel()
    rhs = float(
        problem.b_eq @ y_eq
        + problem.b_in @ y_in
        + np.where(np.isfinite(problem.upper), problem.upper, 0.0) @ y_up
    )
    # min of g @ x over x >= lower: -inf when a negative g_j lets x_j grow
    # without bound, or a positive g_j sits on a coordinate with no lower
    # bound (certificate invalid)
    lo = problem.lower
    finite = np.isfinite(lo)
    if np.any(g < -1e-7) or np.any(g[~finite] > 1e-9):
        return -np.inf
    g = np.clip(g, 0.0, None)
    return float(g[finite] @ lo[finite]) - rhs


def _rhs_scale(p: LpProblem) -> float:
    """Scale of the primal feasibility tolerance: the largest |rhs|, >= 1."""
    return max(1.0, float(np.abs(p.b_eq).max(initial=0.0)),
               float(np.abs(p.b_in).max(initial=0.0)))


def check_optimal(problem: LpProblem, sol: LpSolution) -> None:
    """Raise LpError unless ``sol`` meets the optimality conditions of
    ``problem``: primal residual, ``dual_in >= 0``, stationarity of the
    reduced costs, duality gap with the bound terms taken from the reduced
    costs, and complementary slackness of rows and bounds."""
    p = problem
    x, y_eq, y_in, rc = sol.x, sol.dual_eq, sol.dual_in, sol.reduced_costs
    dscale = max(1.0, float(np.abs(p.c).max()))
    oscale = max(1.0, abs(sol.objective))

    r_eq = p.a_eq @ x - p.b_eq
    slack = p.b_in - p.a_in @ x
    primal = max(
        float(np.abs(r_eq).max(initial=0.0)),
        float((-slack).max(initial=0.0)),
        float((p.lower - x).max(initial=0.0)),
        float((x - p.upper).max(initial=0.0)),
    )
    if primal > FEAS_TOL * _rhs_scale(p):
        raise LpError(f"primal residual {primal:.3e}")
    if y_in.min(initial=0.0) < -DUAL_TOL * dscale:
        raise LpError(f"inequality dual {y_in.min():.3e} below zero")
    grad = np.asarray(p.a_eq.T @ y_eq + p.a_in.T @ y_in).ravel() + rc
    stat = float(np.abs(p.c - grad).max())
    if stat > DUAL_TOL * dscale:
        raise LpError(f"reduced costs off by {stat:.3e}")

    # each reduced cost presses against the bound its sign points to; one
    # pointing at an infinite bound must vanish (the dual is infeasible)
    bound = np.where(rc > 0, p.upper, p.lower)
    open_side = ~np.isfinite(bound)
    wrong = float(np.abs(rc[open_side]).max(initial=0.0))
    if wrong > DUAL_TOL * dscale:
        raise LpError(f"reduced cost {wrong:.3e} against an infinite bound")
    bound = np.where(open_side, x, bound)
    dual_obj = float(p.b_eq @ y_eq + p.b_in @ y_in + rc @ bound)
    gap = abs(dual_obj - sol.objective)
    if gap > DUAL_TOL * oscale:
        raise LpError(f"duality gap {gap:.3e}")
    cs = max(float(np.abs(y_in * slack).max(initial=0.0)),
             float(np.abs(rc * (bound - x)).max(initial=0.0)))
    if cs > DUAL_TOL * oscale:
        raise LpError(f"complementary slackness {cs:.3e}")


def _columns(p: LpProblem):
    """The stacked rows [a_eq; a_in] column-wise, as HiGHS takes them:
    (start, index, value)."""
    if sp.issparse(p.a_eq) or sp.issparse(p.a_in):
        a = sp.vstack([sp.csc_matrix(p.a_eq), sp.csc_matrix(p.a_in)], format="csc")
        return a.indptr, a.indices, a.data
    at = np.vstack([p.a_eq, p.a_in]).T
    col, row = np.nonzero(at)
    return np.searchsorted(col, np.arange(p.nvars + 1)), row, at[col, row]


def _check_highs(status, what: str) -> None:
    from scipy.optimize._highspy import _core as hs

    # a warning (HiGHS drops matrix entries below 1e-9, say) still loads
    if status == hs.HighsStatus.kError:
        raise LpError(f"HiGHS could not {what}")


def _load_highs(p: LpProblem):
    """A HiGHS model holding ``p`` as the minimization of ``-c``, set to
    the dual simplex and ``DEFAULT_MAXITER`` iterations per run."""
    from scipy.optimize._highspy import _core as hs

    start, index, value = _columns(p)
    h = hs._Highs()
    options = {"output_flag": False, "simplex_strategy": 1,
               "simplex_iteration_limit": DEFAULT_MAXITER}
    for key, setting in options.items():
        if h.setOptionValue(key, setting) != hs.HighsStatus.kOk:
            raise LpError(f"HiGHS rejected option {key}={setting!r}")
    _check_highs(h.passModel(
        p.nvars, p.nrows, value.size, int(hs.MatrixFormat.kColwise),
        int(hs.ObjSense.kMinimize), 0.0, -p.c, p.lower, p.upper,
        np.concatenate([p.b_eq, np.full(p.b_in.size, -np.inf)]),
        np.concatenate([p.b_eq, p.b_in]),
        start.astype(np.int32), index.astype(np.int32), value,
        np.zeros(p.nvars, dtype=np.int32),  # every column continuous
    ), "load the problem")
    return h


def _solve_highs(problem: LpProblem, time_limit, highs=None) -> LpSolution:
    """One HiGHS solve of ``problem``, posed as the minimization of
    ``-c``; an optimal result passes :func:`check_optimal`. HiGHS's
    presolve may find a problem infeasible or unbounded without telling
    which; :meth:`Master.solve` settles that status.

    Without ``highs``, ``problem`` is loaded into a new model by
    :func:`_load_highs`. ``highs`` is a model that already holds
    ``problem`` (a :class:`Master`'s), re-run from the basis its last run
    left with the simplex variant and iteration limit it was given."""
    from scipy.optimize._highspy import _core as hs

    p = problem
    m_eq = p.b_eq.size
    h = _load_highs(p) if highs is None else highs
    # HiGHS holds a model's time limit against the total time of its runs
    limit = np.inf if time_limit is None else h.getRunTime() + max(float(time_limit), 0.0)
    if h.setOptionValue("time_limit", limit) != hs.HighsStatus.kOk:
        raise LpError(f"HiGHS rejected option time_limit={limit!r}")
    h.run()
    status = h.getModelStatus()
    iterations = int(h.getInfo().simplex_iteration_count)
    message = h.modelStatusToString(status)
    S = hs.HighsModelStatus
    if status == S.kInfeasible:
        return LpSolution("infeasible", iterations=iterations, message=message)
    if status == S.kUnboundedOrInfeasible:
        return LpSolution("infeasible_or_unbounded", iterations=iterations,
                          message=message)
    if status == S.kUnbounded:
        return LpSolution("unbounded", iterations=iterations, message=message)
    if status in (S.kTimeLimit, S.kIterationLimit):
        return LpSolution("limit_exceeded", iterations=iterations, message=message)
    if status != S.kOptimal:
        raise LpError(f"HiGHS stopped with model status {message!r}")
    res = h.getSolution()
    x = np.array(res.col_value)
    # HiGHS duals belong to the minimization of -c; negate for max
    y = -np.array(res.row_dual)
    sol = LpSolution(
        "optimal",
        x=x,
        objective=float(p.c @ x),
        dual_eq=y[:m_eq],
        dual_in=y[m_eq:],
        reduced_costs=-np.array(res.col_dual),
        iterations=iterations,
    )
    check_optimal(p, sol)
    return sol


def deadline_after(time_limit: Optional[float]) -> Optional[float]:
    """The ``time.monotonic()`` reading ``time_limit`` seconds on, or None."""
    return None if time_limit is None else time.monotonic() + time_limit


def time_left(deadline: Optional[float]) -> Optional[float]:
    """Seconds until ``deadline`` (None for none); raises TimeoutError
    once it has passed, so a spent budget fails the same way whatever
    the next stage would do with a zero limit."""
    if deadline is None:
        return None
    left = deadline - time.monotonic()
    if left <= 0.0:
        raise TimeoutError("time budget exhausted")
    return left


def solve_lp(
    problem: LpProblem,
    backend: str = "auto",
    time_limit: Optional[float] = None,
) -> LpSolution:
    """Solve a linear program with HiGHS and check the result: a
    :class:`Master` holding the whole problem, solved once.

    The model is loaded once and run by the dual simplex. An optimal
    solution passes :func:`check_optimal`. When HiGHS finds the rows
    infeasible, the same model runs the master's phase 1: the outcome
    carries a Farkas certificate taken from the phase-1 duals, whose
    optimal value (the smallest attainable total row violation) is stated
    in ``message`` and equals the certificate's :func:`farkas_gap`.

    HiGHS is the only engine. ``backend`` stays only because the
    benchmark's warm-up (``perfbench/run.py``) still passes
    ``backend="dense"``, and the benchmark changes on its own schedule:
    "auto", "dense" and "highs" all solve with HiGHS, and any other value
    raises LpError. The keyword goes with the next benchmark change.
    """
    if backend not in ("auto", "dense", "highs"):
        raise LpError(f"unknown backend {backend!r}")
    p = problem
    if np.any(p.lower > p.upper):
        # the upper-bound multiplier of the worst variable alone certifies
        j = int(np.argmax(p.lower - p.upper))
        y_up = np.zeros(p.nvars)
        y_up[j] = 1.0
        cert = {"eq": np.zeros(p.b_eq.size), "in": np.zeros(p.b_in.size), "up": y_up}
        return LpSolution(
            status="infeasible",
            certificate=cert,
            message=f"variable {j} has lower > upper",
        )
    sol = Master(p).solve(time_limit)
    if sol.status == "infeasible" and not farkas_gap(p, sol.certificate) > 0.0:
        raise LpError("phase-1 duals do not certify infeasibility")
    return sol


class Master:
    """The restricted master of delayed column generation: one LP held in
    one HiGHS model while columns are added to it, each solve starting
    from the basis the previous one left (the revised simplex's basis
    reuse, Dantzig & Wolfe 1960).

    :meth:`solve` returns the optimum of the columns so far, checked by
    :func:`check_optimal`, or, when they cannot meet the rows, an
    infeasible outcome whose certificate comes from an exact phase 1 in
    the same model, the package's only one. Phase 1 gives every equality
    row a surplus and a slack column and every inequality row a slack
    column (the elastic columns), and costs them alone, so its value is
    the smallest total row violation of the columns so far and its duals
    price new columns against that violation (Farkas pricing). Columns
    added during phase 1 enter at cost 0. Once phase 1 meets every row,
    the elastic columns are fixed at 0, the costs restored, and the model
    re-solved; a problem HiGHS found infeasible or unbounded is then
    reported unbounded.

    Solutions and certificates cover the caller's columns only, in the
    order they were loaded and added.
    """

    def __init__(self, problem: LpProblem):
        self.cost = problem.c  # the caller's costs, restored by phase 2
        # the LP the model holds, elastic columns and phase costs included;
        # every change builds a new one, so ``problem`` stays as it is
        self.lp = problem
        self.elastic = np.zeros(0, dtype=np.int32)  # their model columns
        self.phase1 = False
        self.highs = _load_highs(problem)

    def add_columns(self, c, a_eq, a_in) -> None:
        """Append columns with costs ``c`` and rows ``a_eq``, ``a_in`` (one
        matrix column per entry of ``c``), bounded below by 0."""
        new = LpProblem(c=c, a_eq=sp.csc_matrix(a_eq), b_eq=self.lp.b_eq,
                        a_in=sp.csc_matrix(a_in), b_in=self.lp.b_in)
        self.cost = np.concatenate([self.cost, new.c])
        cost = np.zeros(new.nvars) if self.phase1 else new.c
        self._append(cost, new.a_eq, new.a_in, new.upper)

    def _append(self, c, a_eq, a_in, upper) -> None:
        a = sp.vstack([a_eq, a_in], format="csc")
        lower = np.zeros(c.size)
        _check_highs(self.highs.addCols(
            c.size, -c, lower, upper, a.nnz, a.indptr[:-1].astype(np.int32),
            a.indices.astype(np.int32), a.data,
        ), "add the columns")
        p = self.lp
        self.lp = LpProblem(
            c=np.concatenate([p.c, c]),
            a_eq=sp.hstack([p.a_eq, a_eq], format="csc"), b_eq=p.b_eq,
            a_in=sp.hstack([p.a_in, a_in], format="csc"), b_in=p.b_in,
            lower=np.concatenate([p.lower, lower]),
            upper=np.concatenate([p.upper, upper]),
        )

    def _set_costs(self, c) -> None:
        n = c.size
        _check_highs(self.highs.changeColsCost(n, np.arange(n, dtype=np.int32), -c),
                     "change the costs")
        self.lp.c = c

    def _own(self) -> np.ndarray:
        own = np.ones(self.lp.nvars, dtype=bool)
        own[self.elastic] = False
        return own

    def _begin_phase1(self) -> None:
        m_eq, m_in = self.lp.b_eq.size, self.lp.b_in.size
        i_eq, i_in = sp.identity(m_eq, format="csc"), sp.identity(m_in, format="csc")
        k = 2 * m_eq + m_in
        n = self.lp.nvars
        self._append(
            -np.ones(k),
            sp.hstack([i_eq, -i_eq, sp.csc_matrix((m_eq, m_in))], format="csc"),
            sp.hstack([sp.csc_matrix((m_in, 2 * m_eq)), -i_in], format="csc"),
            np.full(k, np.inf),
        )
        self._set_costs(np.concatenate([np.zeros(n), -np.ones(k)]))
        self.elastic = np.arange(n, n + k, dtype=np.int32)
        self.phase1 = True

    def _end_phase1(self) -> None:
        k = self.elastic.size
        _check_highs(self.highs.changeColsBounds(k, self.elastic, np.zeros(k),
                                                 np.zeros(k)), "fix the elastic columns")
        self.lp.upper[self.elastic] = 0.0
        c = np.zeros(self.lp.nvars)
        c[self._own()] = self.cost
        self._set_costs(c)
        self.phase1 = False

    def solve(self, time_limit: Optional[float] = None) -> LpSolution:
        """Re-solve the model as it stands; ``time_limit`` covers every
        HiGHS run this takes."""
        deadline = deadline_after(time_limit)
        iterations = 0
        while True:
            left = None if deadline is None else deadline - time.monotonic()
            sol = _solve_highs(self.lp, left, self.highs)
            iterations += sol.iterations
            # Later runs start from the basis this one left. Columns enter
            # at 0 and new costs move no point, so that basis stays primal
            # feasible (unless this run found the rows infeasible), and
            # the primal simplex (strategy 4) keeps it.
            _check_highs(self.highs.setOptionValue("simplex_strategy", 4),
                         "switch to the primal simplex")
            if self.phase1:
                if sol.status == "limit_exceeded":
                    return LpSolution("limit_exceeded", iterations=iterations,
                                      message=f"phase-1 LP: {sol.message}")
                if sol.status != "optimal":
                    raise LpError(f"phase-1 LP {sol.status}: {sol.message}")
                violation = -sol.objective
                if violation > FEAS_TOL * _rhs_scale(self.lp):
                    # the phase-1 duals, on the caller's columns, certify
                    own = self._own()
                    rc, upper = sol.reduced_costs[own], self.lp.upper[own]
                    cert = {
                        "eq": sol.dual_eq,
                        "in": np.maximum(sol.dual_in, 0.0),
                        "up": np.where(np.isfinite(upper), np.maximum(rc, 0.0), 0.0),
                    }
                    return LpSolution(
                        "infeasible", iterations=iterations, certificate=cert,
                        message=f"smallest total row violation {violation:.6g}",
                    )
                self._end_phase1()
            elif (sol.status in ("infeasible", "infeasible_or_unbounded")
                  and not self.elastic.size):
                self._begin_phase1()
            else:
                break
        if sol.status == "infeasible":
            raise LpError("HiGHS reported infeasible, yet phase 1 met every row")
        if sol.status == "infeasible_or_unbounded":
            sol.status = "unbounded"  # phase 1 met every row
        sol.iterations = iterations
        if sol.status == "optimal" and self.elastic.size:
            own = self._own()
            sol.x, sol.reduced_costs = sol.x[own], sol.reduced_costs[own]
        return sol


def export_lp(problem: LpProblem, path) -> None:
    """Write the problem as MPS through HiGHS's own writer, the model
    :func:`solve_lp` would solve, declared as a maximization (``OBJSENSE``
    ``MAX`` with costs ``c``). Rows and columns keep their construction
    order under HiGHS's names ``r0, r1, ...`` and ``c0, c1, ...``; values
    carry 15 significant digits, and matrix entries below 1e-9 are dropped
    as in every solve. Output is deterministic byte for byte.

    HiGHS picks the format from the file name, so ``path`` must end in
    ``.mps`` (a ValueError otherwise); a file that cannot be written
    raises OSError."""
    from scipy.optimize._highspy import _core as hs

    if not str(path).lower().endswith(".mps"):
        raise ValueError(f"MPS file name {str(path)!r} does not end in .mps")
    p = problem
    h = _load_highs(p)
    _check_highs(h.changeObjectiveSense(hs.ObjSense.kMaximize), "set the sense")
    _check_highs(h.changeColsCost(p.nvars, np.arange(p.nvars, dtype=np.int32), p.c),
                 "set the costs")
    if h.writeModel(str(path)) == hs.HighsStatus.kError:
        raise OSError(f"cannot write MPS file {path}")
