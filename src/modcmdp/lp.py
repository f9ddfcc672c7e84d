"""Linear programs: one checked HiGHS solve per problem, and an MPS exporter.

Every LP goes to HiGHS (Huangfu & Hall 2018, "Parallelizing the dual
revised simplex method") through scipy's vendored bindings, solved by the
dual simplex method. Each optimal solve is then checked for primal
feasibility, dual sign and stationarity, duality gap and complementary
slackness; a failed check raises :class:`LpError`. An infeasible problem
gets a Farkas certificate from the duals of an elastic phase-1 LP that
minimises the total row violation; :func:`farkas_gap` validates it.

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
    names: tuple[str, ...] = None

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
        if self.names is not None:
            self.names = tuple(self.names)
            if len(self.names) != n:
                raise LpError("name table must match the variable count")

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


def _solve_highs(problem: LpProblem, maxiter: int, time_limit) -> LpSolution:
    """One HiGHS dual-simplex solve of ``problem``, posed as the
    minimization of ``-c``; an optimal result passes :func:`check_optimal`.
    HiGHS's presolve may find a problem infeasible or unbounded without
    telling which; :func:`solve_lp` settles that status."""
    from scipy.optimize._highspy import _core as hs

    p = problem
    m_eq = p.b_eq.size
    start, index, value = _columns(p)
    h = hs._Highs()
    options = {"output_flag": False, "simplex_strategy": 1,
               "simplex_iteration_limit": int(maxiter)}
    if time_limit is not None:
        options["time_limit"] = max(float(time_limit), 0.0)
    for key, setting in options.items():
        if h.setOptionValue(key, setting) != hs.HighsStatus.kOk:
            raise LpError(f"HiGHS rejected option {key}={setting!r}")
    loaded = h.passModel(
        p.nvars, p.nrows, value.size, int(hs.MatrixFormat.kColwise),
        int(hs.ObjSense.kMinimize), 0.0, -p.c, p.lower, p.upper,
        np.concatenate([p.b_eq, np.full(p.b_in.size, -np.inf)]),
        np.concatenate([p.b_eq, p.b_in]),
        start.astype(np.int32), index.astype(np.int32), value,
        np.zeros(p.nvars, dtype=np.int32),  # every column continuous
    )
    if loaded == hs.HighsStatus.kError:
        raise LpError("HiGHS could not load the problem")
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


def _elastic(p: LpProblem) -> LpProblem:
    """Phase-1 LP: maximize -(sum(s_plus + s_minus) + sum(t)) subject to
    a_eq x + s_plus - s_minus = b_eq and a_in x - t <= b_in, with the
    original bounds on x. It is feasible whenever the bounds are."""
    m_eq, m_in = p.b_eq.size, p.b_in.size
    i_eq, i_in = sp.identity(m_eq), sp.identity(m_in)
    a_eq = sp.hstack(
        [sp.csr_matrix(p.a_eq), i_eq, -i_eq, sp.csr_matrix((m_eq, m_in))]
    )
    a_in = sp.hstack(
        [sp.csr_matrix(p.a_in), sp.csr_matrix((m_in, 2 * m_eq)), -i_in]
    )
    k = 2 * m_eq + m_in
    return LpProblem(
        c=np.concatenate([np.zeros(p.nvars), -np.ones(k)]),
        a_eq=a_eq, b_eq=p.b_eq, a_in=a_in, b_in=p.b_in,
        lower=np.concatenate([p.lower, np.zeros(k)]),
        upper=np.concatenate([p.upper, np.full(k, np.inf)]),
    )


def solve_lp(
    problem: LpProblem,
    backend: str = "auto",
    maxiter: int = DEFAULT_MAXITER,
    time_limit: Optional[float] = None,
) -> LpSolution:
    """Solve a linear program with HiGHS and check the result.

    An optimal solution passes :func:`check_optimal`. An infeasible one
    carries a Farkas certificate taken from the duals of the elastic
    phase-1 LP, whose optimal value (the smallest attainable total row
    violation) is stated in ``message`` and equals the certificate's
    :func:`farkas_gap`.

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
    deadline = None if time_limit is None else time.monotonic() + time_limit
    sol = _solve_highs(p, maxiter, time_limit)
    if sol.status not in ("infeasible", "infeasible_or_unbounded"):
        return sol

    left = None if deadline is None else deadline - time.monotonic()
    ph = _solve_highs(_elastic(p), maxiter, left)
    iterations = sol.iterations + ph.iterations
    if ph.status != "optimal":
        return LpSolution("limit_exceeded", iterations=iterations,
                          message=f"phase-1 LP: {ph.message}")
    violation = -ph.objective
    if violation <= FEAS_TOL * _rhs_scale(p):
        if sol.status == "infeasible":
            raise LpError(f"HiGHS reported infeasible, yet phase 1 meets "
                          f"every row to {violation:.3e}")
        return LpSolution("unbounded", iterations=iterations, message=sol.message)
    rc = ph.reduced_costs[: p.nvars]
    cert = {
        "eq": ph.dual_eq,
        "in": np.maximum(ph.dual_in, 0.0),
        "up": np.where(np.isfinite(p.upper), np.maximum(rc, 0.0), 0.0),
    }
    if not farkas_gap(p, cert) > 0.0:
        raise LpError("phase-1 duals do not certify infeasibility")
    return LpSolution(
        status="infeasible",
        iterations=iterations,
        certificate=cert,
        message=f"smallest total row violation {violation:.6g}",
    )


# ---------------------------------------------------------------------------
# MPS fixed-format export


def _mps_num(v: float) -> str:
    for fmt in (".10G", ".8G", ".6G"):
        s = format(v, fmt)
        if len(s) <= 12:
            return s
    return format(v, ".4G")


def export_lp(problem: LpProblem, path) -> None:
    """Write the problem in MPS fixed format (maximization declared via an
    OBJSENSE section). Output is deterministic byte-for-byte for a given
    problem; rows and columns keep their construction order under
    generated 8-character names.
    """
    p = problem
    n = p.nvars
    m_eq, m_in = p.b_eq.size, p.b_in.size

    a_eq = sp.csc_matrix(p.a_eq) if not sp.issparse(p.a_eq) else p.a_eq.tocsc()
    a_in = sp.csc_matrix(p.a_in) if not sp.issparse(p.a_in) else p.a_in.tocsc()

    def rname(i: int) -> str:
        return f"R{i + 1:07d}"

    def cname(j: int) -> str:
        return f"C{j + 1:07d}"

    lines = []
    lines.append(f"NAME          {'MODCMDP':<8s}")
    lines.append("OBJSENSE")
    lines.append("    MAX")
    lines.append("ROWS")
    lines.append(" N  OBJ")
    for i in range(m_eq):
        lines.append(f" E  {rname(i)}")
    for i in range(m_in):
        lines.append(f" L  {rname(m_eq + i)}")
    lines.append("COLUMNS")
    for j in range(n):
        col = cname(j)
        if p.c[j] != 0.0:
            lines.append(f"    {col:<8s}  {'OBJ':<8s}  {_mps_num(p.c[j]):>12s}")
        for mat, off in ((a_eq, 0), (a_in, m_eq)):
            if mat.shape[0] == 0:
                continue
            start, end = mat.indptr[j], mat.indptr[j + 1]
            order = np.argsort(mat.indices[start:end], kind="stable")
            for k in order:
                i = mat.indices[start + k]
                v = mat.data[start + k]
                if v != 0.0:
                    lines.append(
                        f"    {col:<8s}  {rname(off + i):<8s}  {_mps_num(v):>12s}"
                    )
    lines.append("RHS")
    for i in range(m_eq):
        if p.b_eq[i] != 0.0:
            lines.append(
                f"    {'RHS':<8s}  {rname(i):<8s}  {_mps_num(p.b_eq[i]):>12s}"
            )
    for i in range(m_in):
        if p.b_in[i] != 0.0:
            lines.append(
                f"    {'RHS':<8s}  {rname(m_eq + i):<8s}  "
                f"{_mps_num(p.b_in[i]):>12s}"
            )
    lines.append("BOUNDS")
    for j in range(n):
        lo, up = p.lower[j], p.upper[j]
        col = cname(j)
        if not np.isfinite(lo):
            lines.append(f" MI {'BND':<8s}  {col:<8s}")
        elif lo != 0.0:
            lines.append(f" LO {'BND':<8s}  {col:<8s}  {_mps_num(lo):>12s}")
        if np.isfinite(up):
            lines.append(f" UP {'BND':<8s}  {col:<8s}  {_mps_num(up):>12s}")
    lines.append("ENDATA")
    text = "\n".join(lines) + "\n"
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        raise OSError(f"cannot write MPS file {path}: {exc}") from exc
