"""Linear programs: one HiGHS model per problem (:class:`Master`), which
:func:`solve_lp` solves once and column generation (:func:`generate_columns`
over the candidates of a :class:`ListPricer`, the loop of the occupancy and
finite-action routes) grows and re-solves warm; :func:`export_lp` writes
the same model as MPS with HiGHS's writer. The small hull LPs of
:func:`solve_once` instead share one HiGHS model per thread, made on the
thread's first such solve and emptied after every one.

Every LP goes to HiGHS (Huangfu & Hall 2018, "Parallelizing the dual
revised simplex method") through scipy's vendored bindings, solved by the
dual simplex method; a :class:`Master` re-solves by the primal simplex
from its last basis. A master's LP is presolved first (Andersen &
Andersen 1995), which pays off at its size; the hull LPs are not, since
there presolve costs about as much as the simplex run it would save.
Each optimal solve is then checked for primal
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

import math
import threading
import time
from dataclasses import dataclass, replace
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


def _as_vector(v, size: int, default: float) -> np.ndarray:
    """``v`` as a flat float array, or ``size`` copies of ``default``."""
    if v is None:
        return np.full(size, default)
    return np.asarray(v, dtype=float).ravel()


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
        self.b_eq = _as_vector(self.b_eq, self.a_eq.shape[0], 0.0)
        self.b_in = _as_vector(self.b_in, self.a_in.shape[0], 0.0)
        if self.a_eq.shape != (self.b_eq.size, n):
            raise LpError(
                f"a_eq is {self.a_eq.shape}, expected ({self.b_eq.size}, {n})"
            )
        if self.a_in.shape != (self.b_in.size, n):
            raise LpError(
                f"a_in is {self.a_in.shape}, expected ({self.b_in.size}, {n})"
            )
        self.lower = _as_vector(self.lower, n, 0.0)
        self.upper = _as_vector(self.upper, n, np.inf)
        if self.lower.size != n or self.upper.size != n:
            raise LpError("bound vectors must match the variable count")
        if not np.isfinite(self.c).all():
            raise LpError("objective has non-finite coefficients")
        for m in (self.a_eq, self.a_in):
            data = m.data if sp.issparse(m) else m
            if data.size and not np.isfinite(data).all():
                raise LpError("constraint matrix has non-finite coefficients")
        if not (np.isfinite(self.b_eq).all() and np.isfinite(self.b_in).all()):
            raise LpError("rhs has non-finite entries")
        if (self.lower == np.inf).any() or (self.upper == -np.inf).any():
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
    if np.any(g < -DUAL_TOL) or np.any(g[~finite] > 1e-9):
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


def _new_highs(presolve: bool):
    """An empty HiGHS model set to the dual simplex and
    ``DEFAULT_MAXITER`` iterations per run, with HiGHS's presolve left to
    HiGHS or, without ``presolve``, off."""
    from scipy.optimize._highspy import _core as hs

    h = hs._Highs()
    # feasibility a tenth inside FEAS_TOL, so that HiGHS's "optimal" passes
    # check_optimal; at its 1e-7 default, tight-cap L1 loans at n >= 62 failed
    options = {"output_flag": False, "simplex_strategy": 1,
               "simplex_iteration_limit": DEFAULT_MAXITER,
               "primal_feasibility_tolerance": FEAS_TOL / 10,
               "dual_feasibility_tolerance": FEAS_TOL / 10}
    if not presolve:
        options["presolve"] = "off"
    for key, setting in options.items():
        if h.setOptionValue(key, setting) != hs.HighsStatus.kOk:
            raise LpError(f"HiGHS rejected option {key}={setting!r}")
    return h


def _pass_problem(h, p: LpProblem) -> None:
    """Load ``p`` into the HiGHS model ``h`` as the minimization of ``-c``,
    replacing what ``h`` held."""
    from scipy.optimize._highspy import _core as hs

    start, index, value = _columns(p)
    _check_highs(h.passModel(
        p.nvars, p.nrows, value.size, int(hs.MatrixFormat.kColwise),
        int(hs.ObjSense.kMinimize), 0.0, -p.c, p.lower, p.upper,
        np.concatenate([p.b_eq, np.full(p.b_in.size, -np.inf)]),
        np.concatenate([p.b_eq, p.b_in]),
        start.astype(np.int32), index.astype(np.int32), value,
        np.zeros(p.nvars, dtype=np.int32),  # every column continuous
    ), "load the problem")


def _load_highs(p: LpProblem):
    """A new HiGHS model holding ``p``, presolve left to HiGHS."""
    h = _new_highs(presolve=True)
    _pass_problem(h, p)
    return h


# The HiGHS model of a thread's solve_once calls, made on the thread's first
# call and emptied after each one; one per thread, so that no call needs a
# lock and none can run in a model another thread is using.
_hull = threading.local()


def _hull_highs():
    h = getattr(_hull, "highs", None)
    if h is None:
        h = _hull.highs = _new_highs(presolve=False)
    return h


def _solve_highs(problem: LpProblem, time_limit, highs=None) -> LpSolution:
    """One HiGHS solve of ``problem``, posed as the minimization of
    ``-c``; an optimal result passes :func:`check_optimal`. HiGHS's
    presolve may find a problem infeasible or unbounded without telling
    which; :meth:`Master.solve` settles that status.

    ``highs`` is a model that already holds ``problem`` (a
    :class:`Master`'s), re-run from the basis its last run left with the
    options it was given. Without it, ``problem`` is loaded into this
    thread's hull model, without presolve, and the model is emptied
    again once the solve is over, whatever its outcome."""
    if highs is not None:
        return _run_highs(problem, time_limit, highs)
    h = _hull_highs()
    try:
        _pass_problem(h, problem)
        return _run_highs(problem, time_limit, h)
    finally:
        h.clearModel()


def _run_highs(p: LpProblem, time_limit, h) -> LpSolution:
    """Run the model ``h``, which holds ``p``, and read its outcome."""
    from scipy.optimize._highspy import _core as hs

    m_eq = p.b_eq.size
    # HiGHS holds a model's time limit against the total time of its runs
    limit = np.inf if time_limit is None else h.getRunTime() + max(float(time_limit), 0.0)
    if h.setOptionValue("time_limit", limit) != hs.HighsStatus.kOk:
        raise LpError(f"HiGHS rejected option time_limit={limit!r}")
    h.run()
    # the status first: a run that failed (a 'Solve error', say) may leave
    # no iteration count, and the error must name what HiGHS reported
    status = h.getModelStatus()
    message = h.modelStatusToString(status)
    S = hs.HighsModelStatus
    if status not in (S.kOptimal, S.kInfeasible, S.kUnboundedOrInfeasible,
                      S.kUnbounded, S.kTimeLimit, S.kIterationLimit):
        raise LpError(f"HiGHS stopped with model status {message!r}")
    info, iterations = h.getInfoValue("simplex_iteration_count")
    if info != hs.HighsStatus.kOk:
        raise LpError(f"HiGHS has no iteration count for its run (model status {message!r})")
    if status == S.kInfeasible:
        return LpSolution("infeasible", iterations=iterations, message=message)
    if status == S.kUnboundedOrInfeasible:
        return LpSolution("infeasible_or_unbounded", iterations=iterations,
                          message=message)
    if status == S.kUnbounded:
        return LpSolution("unbounded", iterations=iterations, message=message)
    if status in (S.kTimeLimit, S.kIterationLimit):
        return LpSolution("limit_exceeded", iterations=iterations, message=message)
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


def solve_once(problem: LpProblem, time_limit: Optional[float] = None) -> LpSolution:
    """One checked HiGHS solve of ``problem``, without presolve and
    without phase 1: an optimal result passes :func:`check_optimal`, and
    rows that cannot be met give "infeasible" or "infeasible_or_unbounded"
    with no certificate. For a small LP known to be bounded whose
    infeasibility needs no proof, such as a query outside a hull.

    The calls of a thread share one HiGHS model, made and set up on the
    thread's first call. Each call loads its LP into that model and
    empties it once the solution is read, whatever the outcome, so
    nothing of one call reaches the next and no LP stays in memory after
    its call. Making and setting up a model for each call cost more than
    its simplex run: a hull query over the 20 vertices of a 6-coordinate
    box took 0.51 ms with a new model per call and 0.21 ms with the
    shared one (medians of 5 alternating runs, 2-core host, HiGHS as
    vendored by scipy 1.17.1).

    Presolve is off because on those LPs (a few rows, tens of columns) it
    costs about as much as the simplex run it saves: a hull query over
    the 15 vertices of a 6-coordinate box, each on a new model, took
    0.47 ms without it and 0.85 ms with it. It stays on in
    :class:`Master`, whose LPs are large: without it, the first masters
    of the 10-, 14- and 16-level quadratic loan envelopes took 538, 886
    and 888 simplex iterations, not 174, 190 and 226."""
    return _solve_highs(problem, time_limit)


def deadline_after(time_limit: Optional[float]) -> Optional[float]:
    """The ``time.monotonic()`` reading ``time_limit`` seconds on, or None.
    A NaN budget raises ValueError: its deadline would never pass."""
    if time_limit is None:
        return None
    if math.isnan(time_limit):
        raise ValueError(f"time budget must be a number of seconds, got {time_limit!r}")
    return time.monotonic() + time_limit


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


def _triplets(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (row, column, value) triplets of the nonzero entries of ``a``."""
    a = sp.coo_matrix(a)
    return a.row.astype(np.int64), a.col.astype(np.int64), a.data


def _from_triplets(parts, n_rows: int, n_cols: int) -> sp.csc_matrix:
    """The matrix whose entries are the triplets of ``parts``, summed."""
    rows, cols, vals = (np.concatenate(a) for a in zip(*parts))
    return sp.csc_matrix((vals, (rows, cols)), shape=(n_rows, n_cols))


def column_entries(m: sp.csc_matrix, cols, at):
    """(row, column, value) triplets of the entries of ``m``'s columns
    ``cols``, those of ``cols[i]`` placed in column ``at[i]``."""
    start = m.indptr[cols]
    count = m.indptr[cols + 1] - start
    # the entries of each column, one column after the other
    pos = np.arange(count.sum()) + np.repeat(start - (np.cumsum(count) - count), count)
    return m.indices[pos], np.repeat(at, count), m.data[pos]


class Master:
    """The restricted master of delayed column generation: one LP held in
    one HiGHS model while columns, and inequality rows of their own, are
    added to it, each solve starting from the basis the previous one left
    (the revised simplex's basis reuse, Dantzig & Wolfe 1960); the loop
    is :func:`generate_columns`. ``lp`` is the LP the model holds, read
    from its entries when a solve needs it, and every solve is checked
    against it.

    :meth:`solve` returns the optimum of the columns so far, checked by
    :func:`check_optimal`, or, when they cannot meet the rows, an
    infeasible outcome whose certificate comes from an exact phase 1 in
    the same model, the package's only one. Phase 1 gives every equality
    row a surplus and a slack column and every inequality row a slack
    column (the elastic columns), and costs them alone, so its value is
    the smallest total row violation of the columns so far and its duals
    price new columns against that violation (Farkas pricing). Columns
    added during phase 1 enter at cost 0, and rows added with them get
    elastic columns too, so that phase 1 stays the whole LP's, restricted
    to the columns so far. Once phase 1 meets every row,
    the elastic columns are fixed at 0, the costs restored, and the model
    re-solved; a problem HiGHS found infeasible or unbounded is then
    reported unbounded.

    Solutions and certificates cover the caller's columns, in the order
    loaded and added; :func:`generate_columns` pads them to the whole LP.
    """

    def __init__(self, problem: LpProblem):
        self.cost = problem.c  # the caller's costs, restored by phase 2
        self.elastic = np.zeros(0, dtype=np.int32)  # their model columns
        self.phase1 = False
        self.highs = _load_highs(problem)
        # what the model holds, elastic columns and phase costs included:
        # from the first change on, its matrices are (row, column, value)
        # triplets, read into ``lp`` when a solve needs it; no change
        # touches ``problem``
        self._c, self._lower, self._upper = problem.c, problem.lower, problem.upper
        self._b_eq, self._b_in = problem.b_eq, problem.b_in
        self._eq = self._in = None
        self._lp = problem

    @property
    def lp(self) -> LpProblem:
        """The LP the model holds, elastic columns and phase costs
        included."""
        if self._lp is None:
            n = self._c.size
            self._lp = LpProblem(
                c=self._c, a_eq=_from_triplets(self._eq, self._b_eq.size, n), b_eq=self._b_eq,
                a_in=_from_triplets(self._in, self._b_in.size, n), b_in=self._b_in,
                lower=self._lower, upper=self._upper,
            )
        return self._lp

    def _change(self) -> None:
        """Let ``lp`` be read again at the next solve."""
        if self._eq is None:
            self._eq, self._in = [_triplets(self._lp.a_eq)], [_triplets(self._lp.a_in)]
        self._lp = None

    def add_columns(self, c, a_eq, a_in, rows=None) -> None:
        """Append columns with costs ``c`` and rows ``a_eq``, ``a_in`` (one
        matrix column per entry of ``c``), bounded below by 0.

        ``rows``, when given, is a pair ``(a, b)`` of new inequality rows
        ``a x <= b`` over the columns held so far, added first, so that
        ``a_in`` covers the old inequality rows and then these. During
        phase 1 each new row gets an elastic column of its own."""
        if rows is not None:
            self._add_rows(*rows)
        c = np.asarray(c, dtype=float).ravel()
        m_eq, m_in = self._b_eq.size, self._b_in.size
        eq, ineq = sp.coo_matrix(a_eq), sp.coo_matrix(a_in)
        if eq.shape != (m_eq, c.size) or ineq.shape != (m_in, c.size):
            raise LpError(f"new columns are {eq.shape} and {ineq.shape}, expected "
                          f"({m_eq}, {c.size}) and ({m_in}, {c.size})")
        self.cost = np.concatenate([self.cost, c])
        self._append(np.zeros(c.size) if self.phase1 else c,
                     np.concatenate([eq.row, m_eq + ineq.row]).astype(np.int64),
                     np.concatenate([eq.col, ineq.col]).astype(np.int64),
                     np.concatenate([eq.data, ineq.data]))

    def _add_rows(self, a, b) -> None:
        b = np.asarray(b, dtype=float).ravel()
        k, n, m_in = b.size, self._c.size, self._b_in.size
        row, col, val = _triplets(a)
        # the caller's columns sit among the elastic ones in the model
        col = np.flatnonzero(self._own())[col]
        a = sp.csr_matrix((val, (row, col)), shape=(k, n))
        self._change()
        _check_highs(self.highs.addRows(
            k, np.full(k, -np.inf), b, a.nnz, a.indptr[:-1].astype(np.int32),
            a.indices.astype(np.int32), a.data,
        ), "add the rows")
        self._in.append((m_in + row, col, val))
        self._b_in = np.concatenate([self._b_in, b])
        if self.phase1:
            at = np.arange(k)
            self._append(-np.ones(k), self._b_eq.size + m_in + at, at, -np.ones(k))
            self.elastic = np.concatenate([self.elastic, np.arange(n, n + k, dtype=np.int32)])

    def _append(self, c, rows, cols, vals) -> None:
        """Add columns with model costs ``c``, in [0, inf), whose entries
        are the triplets (``rows`` of the stacked [eq; in] rows, ``cols``
        counted from the first new column, ``vals``)."""
        m_eq, n, k = self._b_eq.size, self._c.size, c.size
        a = sp.csc_matrix((vals, (rows, cols)), shape=(m_eq + self._b_in.size, k))
        _check_highs(self.highs.addCols(
            k, -c, np.zeros(k), np.full(k, np.inf), a.nnz, a.indptr[:-1].astype(np.int32),
            a.indices.astype(np.int32), a.data,
        ), "add the columns")
        self._change()
        on_eq = rows < m_eq
        self._eq.append((rows[on_eq], n + cols[on_eq], vals[on_eq]))
        self._in.append((rows[~on_eq] - m_eq, n + cols[~on_eq], vals[~on_eq]))
        self._c = np.concatenate([self._c, c])
        self._lower = np.concatenate([self._lower, np.zeros(k)])
        self._upper = np.concatenate([self._upper, np.full(k, np.inf)])

    def _set_costs(self, c) -> None:
        n = c.size
        _check_highs(self.highs.changeColsCost(n, np.arange(n, dtype=np.int32), -c),
                     "change the costs")
        self._change()
        self._c = c

    def _own(self) -> np.ndarray:
        own = np.ones(self._c.size, dtype=bool)
        own[self.elastic] = False
        return own

    def _begin_phase1(self) -> None:
        m_eq, m_in = self._b_eq.size, self._b_in.size
        n, k = self._c.size, 2 * m_eq + m_in
        # a surplus and a slack column per equality row, a slack per inequality row
        rows = np.concatenate([np.arange(m_eq), np.arange(m_eq + m_in)])
        self._append(-np.ones(k), rows, np.arange(k),
                     np.concatenate([np.ones(m_eq), -np.ones(m_eq + m_in)]))
        self._set_costs(np.concatenate([np.zeros(n), -np.ones(k)]))
        self.elastic = np.arange(n, n + k, dtype=np.int32)
        self.phase1 = True

    def _end_phase1(self) -> None:
        k = self.elastic.size
        _check_highs(self.highs.changeColsBounds(k, self.elastic, np.zeros(k),
                                                 np.zeros(k)), "fix the elastic columns")
        self._change()
        self._upper = self._upper.copy()
        self._upper[self.elastic] = 0.0
        c = np.zeros(self._c.size)
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


def top_per_state(score, mask, col_start, k: int) -> np.ndarray:
    """Indices of the (at most) ``k`` highest scores per state among the
    columns where ``mask`` holds, state by state, best first; ties keep
    column order. State ``g`` owns columns ``col_start[g]`` to
    ``col_start[g + 1] - 1``."""
    if not mask.any():
        return np.zeros(0, dtype=np.int64)
    keep = mask.copy()
    # A state with more than k candidates keeps those above its k-th
    # highest score and the first of those tied with it, in column order;
    # the states of one block size are done at once, one per row.
    size = np.diff(col_start)
    # (counted by prefix sums: a state may own no columns)
    count = np.diff(np.concatenate([[0], np.cumsum(mask, dtype=np.int64)])[col_start])
    crowded = np.flatnonzero(count > k)
    for nv in np.unique(size[crowded]):
        at = col_start[crowded[size[crowded] == nv], None] + np.arange(nv)
        s = np.where(mask[at], score[at], -np.inf)
        kth = np.partition(s, nv - k, axis=1)[:, nv - k, None]
        above, tied = s > kth, s == kth
        room = k - above.sum(axis=1, keepdims=True)
        keep[at] = above | (tied & (np.cumsum(tied, axis=1) <= room))
    idx = np.flatnonzero(keep)
    state = np.searchsorted(col_start, idx, side="right") - 1
    # one stable sort by state, then score: equal scores keep column order
    return idx[np.lexsort((-score[idx], state))]


def _scatter(values, at, size: int) -> np.ndarray:
    out = np.zeros(size)
    out[at] = values
    return out


class ListPricer:
    """The candidates of :func:`generate_columns`: a numbered list of the
    whole LP's columns, all priced in every round.

    Candidate j is column ``cols[j]`` of the whole LP, costs ``cost[j]``,
    lies in [0, inf) and has no entry on the first master's inequality
    rows; ``price(y_eq, y_in)[j] == a_j @ y`` at row multipliers y (rows
    the master lacks at 0), and ``write(j)`` gives the ``a_eq`` columns
    of candidates ``j``. State ``g`` owns candidates ``col_start[g]`` to
    ``col_start[g + 1] - 1``; a round adds up to ``per_state`` per state.
    ``master_cols`` and ``master_rows`` are the whole LP's columns and
    inequality rows in the master, in its order; ``held`` marks the
    candidates in it and ``added`` lists those added, round by round.
    With ``own_rows = (rows, alpha, rest)``, candidate j brings its own
    inequality row, row ``rows[j]`` of the whole LP, with right-hand side
    0, entry ``alpha[j]`` on the candidate, column j of the CSC matrix
    ``rest`` on the first master's columns, and nothing else. The whole
    LP is the first master with every other candidate and its row.
    """

    def __init__(self, cost, price, col_start, write, per_state: int, cols,
                 master_cols, master_rows, own_rows=None):
        self.cost, self.price, self.col_start, self.write, self.per_state = (
            cost, price, col_start, write, per_state)
        self.cols, self.master_cols, self.master_rows = cols, master_cols, master_rows
        self.rows, self.alpha, self.rest = own_rows or (None, None, None)
        first = np.zeros(cols.size + master_cols.size, dtype=bool)  # by whole-LP column
        first[master_cols] = True
        self.held = first[cols]
        self.added: list[np.ndarray] = []
        outside = int((~self.held).sum())
        self.nvars = master_cols.size + outside
        self.n_in = master_rows.size + (0 if self.rows is None else outside)
        self.reduced_costs = None  # of every candidate, at the last optimal master

    def __call__(self, sol: LpSolution, scale: float):
        """The arguments of :meth:`Master.add_columns` for the candidates
        outside the master that enter it at its solution ``sol``, best
        first, or None when none enters. At an optimal master candidate j
        enters when its reduced cost ``cost[j] - a_j @ y`` exceeds
        ``DUAL_TOL * scale``; at an infeasible one, when it breaks the
        Farkas certificate, ``-a_j @ y > DUAL_TOL`` (Farkas pricing)."""
        if sol.status == "optimal":
            score = self.reduced_costs = self.cost - self.price(sol.dual_eq, sol.dual_in)
            tol = DUAL_TOL * scale
        else:
            score = -self.price(sol.certificate["eq"], sol.certificate["in"])
            tol = DUAL_TOL
        j = top_per_state(score, (score > tol) & ~self.held, self.col_start, self.per_state)
        if j.size == 0:
            return None
        self.held[j] = True
        self.added.append(j)
        n, m, k, at = self.master_cols.size, self.master_rows.size, j.size, np.arange(j.size)
        self.master_cols = np.concatenate([self.master_cols, self.cols[j]])
        if self.rows is None:
            return self.cost[j], self.write(j), sp.csc_matrix((m, k))
        self.master_rows = np.concatenate([self.master_rows, self.rows[j]])
        r, c, v = column_entries(self.rest, j, at)
        return (self.cost[j], self.write(j),
                sp.csc_matrix((self.alpha[j], (m + at, at)), shape=(m + k, k)),
                (sp.csr_matrix((v, (c, r)), shape=(k, n)), np.zeros(k)))


def generate_columns(master: Master, pricer: ListPricer, deadline) -> LpSolution:
    """Delayed column generation (Dantzig & Wolfe 1960): solve ``master``,
    add the candidates ``pricer`` finds entering, and repeat until none
    enters, or return the master's solution as it is once it is neither
    optimal nor infeasible. ``deadline`` (:func:`deadline_after`) covers
    every round.

    The result is the whole LP's: the master's solution with every
    candidate outside it at 0 and every row outside it at multiplier 0,
    ``x``, ``dual_in``, ``reduced_costs`` and the certificate's ``in``
    and ``up`` padded to the whole LP's rows and columns. It is the whole
    LP's optimum: the master's solve passed :func:`check_optimal`, and
    every candidate outside has a reduced cost of at most ``DUAL_TOL``
    times the whole LP's cost scale, the one condition the whole LP's
    check adds for a column at 0. An infeasible master's certificate
    breaks on no column, so it certifies the whole LP with its margin."""
    scale = max(1.0, float(np.abs(master.cost).max(initial=0.0)),
                float(np.abs(pricer.cost).max(initial=0.0)))
    while True:
        sol = master.solve(time_limit=time_left(deadline))
        if sol.status not in ("optimal", "infeasible"):
            return sol
        new = pricer(sol, scale)
        if new is None:
            break
        master.add_columns(*new)
    p = pricer
    if sol.status == "infeasible":
        cert = sol.certificate
        return replace(sol, certificate={"eq": cert["eq"],
                                         "in": _scatter(cert["in"], p.master_rows, p.n_in),
                                         "up": _scatter(cert["up"], p.master_cols, p.nvars)})
    rc = _scatter(sol.reduced_costs, p.master_cols, p.nvars)
    rc[p.cols[~p.held]] = p.reduced_costs[~p.held]
    return replace(sol, x=_scatter(sol.x, p.master_cols, p.nvars), reduced_costs=rc,
                   dual_in=_scatter(sol.dual_in, p.master_rows, p.n_in))


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
