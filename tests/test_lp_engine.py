import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from helpers import fresh_solve_once, loop_finite_lp

import modcmdp.lp as lpmod
from modcmdp import (
    LoanConfig,
    LpProblem,
    build_finite_cmdp,
    build_occupancy_lp,
    enumerate_for_instance,
    export_lp,
    farkas_gap,
    generate_loan_instance,
    solve_lp,
    solve_occupancy,
)


def random_feasible_problem(rng, with_upper=False):
    m_eq = int(rng.integers(0, 3))
    m_in = int(rng.integers(1, 6))
    n = int(rng.integers(2, 8))
    a_eq = rng.normal(size=(m_eq, n))
    a_in = rng.normal(size=(m_in, n))
    x0 = rng.uniform(0, 1, size=n)
    b_eq = a_eq @ x0
    b_in = a_in @ x0 + rng.uniform(0, 1, size=m_in)
    upper = None
    if with_upper:
        upper = np.where(rng.random(n) < 0.6, rng.uniform(1, 3, size=n), np.inf)
    return LpProblem(
        c=rng.normal(size=n), a_eq=a_eq, b_eq=b_eq, a_in=a_in, b_in=b_in,
        upper=upper,
    )


class TestBudgets:
    def test_nan_budget_raises(self, rng):
        assert lpmod.deadline_after(None) is None
        with pytest.raises(ValueError, match="got nan"):
            lpmod.deadline_after(float("nan"))
        with pytest.raises(ValueError, match="got nan"):
            solve_lp(random_feasible_problem(rng), time_limit=float("nan"))

    def test_nan_budget_raises_in_every_method(self):
        from modcmdp import METHODS, run_benchmark, solve

        for method in METHODS:
            quad = method in ("envelope", "naive-linear")
            inst = generate_loan_instance(
                LoanConfig(n_states=4, reward_kind="quad_convex" if quad else "l1"))
            with pytest.raises(ValueError, match="got nan"):
                solve(inst, method, time_limit=float("nan"))
        with pytest.raises(ValueError, match="got nan"):
            run_benchmark([4], ["convex"], timeout=float("nan"))


class TestSolveBasics:
    def test_single_bound(self):
        sol = solve_lp(LpProblem(c=[1.0], a_in=[[1.0]], b_in=[3.0]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert sol.x[0] == pytest.approx(3.0, abs=1e-9)

    def test_degenerate_objective(self):
        sol = solve_lp(
            LpProblem(c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
        )
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_with_certificate(self):
        p = LpProblem(c=[1.0], a_in=[[1.0]], b_in=[-1.0])
        sol = solve_lp(p)
        assert sol.status == "infeasible"
        assert farkas_gap(p, sol.certificate) > 1e-9

    def test_unbounded_with_ray(self):
        p = LpProblem(c=[1.0, -1.0], a_in=[[0.0, 1.0]], b_in=[1.0])
        sol = solve_lp(p)
        assert sol.status == "unbounded"

    def test_empty_problem_rejected(self):
        with pytest.raises(lpmod.LpError, match="no variables"):
            LpProblem(c=[])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(lpmod.LpError):
            LpProblem(c=[1.0, 2.0], a_eq=[[1.0]], b_eq=[1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(lpmod.LpError):
            LpProblem(c=[np.inf])

    @pytest.mark.parametrize("kwargs, message", [
        ({"a_eq": [[1.0, 2.0, 3.0]], "b_eq": [1.0]},
         r"a_eq is \(1, 3\), expected \(1, 2\)"),
        ({"a_in": [[1.0, 2.0]], "b_in": [1.0, 2.0]},
         r"a_in is \(1, 2\), expected \(2, 2\)"),
        ({"lower": [0.0]}, "bound vectors must match the variable count"),
        ({"upper": [1.0, 1.0, 1.0]}, "bound vectors must match the variable count"),
        ({"c": [1.0, np.nan]}, "objective has non-finite coefficients"),
        ({"a_eq": [[1.0, np.inf]], "b_eq": [1.0]},
         "constraint matrix has non-finite coefficients"),
        ({"a_in": sp.csr_matrix([[np.nan, 1.0]]), "b_in": [1.0]},
         "constraint matrix has non-finite coefficients"),
        ({"a_eq": [[1.0, 1.0]], "b_eq": [np.inf]}, "rhs has non-finite entries"),
        ({"a_eq": [[1.0, 1.0]], "b_eq": [1.0], "a_in": [[1.0, 0.0]],
          "b_in": [np.nan]}, "rhs has non-finite entries"),
        ({"lower": [0.0, np.inf]}, "bounds wrong-signed infinity"),
        ({"upper": [-np.inf, 1.0]}, "bounds wrong-signed infinity"),
    ])
    def test_malformed_problem_messages(self, kwargs, message):
        kwargs = {"c": [1.0, 2.0], **kwargs}
        with pytest.raises(lpmod.LpError, match=f"^{message}$"):
            LpProblem(**kwargs)

    def test_first_failed_check_is_reported(self):
        # the checks run in a fixed order: shapes, bound sizes, objective,
        # matrices, rhs, bound signs
        with pytest.raises(lpmod.LpError, match="bound vectors"):
            LpProblem(c=[np.nan, 1.0], lower=[0.0])
        with pytest.raises(lpmod.LpError, match="objective"):
            LpProblem(c=[np.nan, 1.0], a_eq=[[np.inf, 1.0]], b_eq=[1.0])
        with pytest.raises(lpmod.LpError, match="constraint matrix"):
            LpProblem(c=[1.0, 1.0], a_eq=[[np.inf, 1.0]], b_eq=[np.nan],
                      upper=[-np.inf, 1.0])
        with pytest.raises(lpmod.LpError, match="rhs"):
            LpProblem(c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[np.nan],
                      upper=[-np.inf, 1.0])

    def test_iteration_limit_status(self, rng):
        p = random_feasible_problem(rng)
        highs = lpmod._load_highs(p)
        highs.setOptionValue("simplex_iteration_limit", 1)
        sol = lpmod._solve_highs(p, None, highs)
        assert sol.status == "limit_exceeded"

    def test_bound_inversion_is_infeasible(self):
        p = LpProblem(c=[1.0], lower=[2.0], upper=[1.0])
        assert solve_lp(p).status == "infeasible"


class TestSharedOnceModel:
    """solve_once runs every LP of a thread in one HiGHS model, emptied
    after each solve: a limit, a failure or an LP of one call must not
    reach the next."""

    @staticmethod
    def assert_fresh(p, sol):
        want = fresh_solve_once(p)
        assert (sol.status, sol.iterations) == (want.status, want.iterations)
        if want.status == "optimal":
            assert sol.x.tobytes() == want.x.tobytes()

    def test_random_lps_match_fresh_models(self, rng):
        statuses = set()
        for _ in range(40):
            p = random_feasible_problem(rng, with_upper=bool(rng.integers(2)))
            sol = lpmod.solve_once(p)
            statuses.add(sol.status)
            self.assert_fresh(p, sol)
        assert statuses == {"optimal", "unbounded"}

    @staticmethod
    def bounded(rng):
        """A random LP that has an optimum: every column at most 3, and
        the point that made its rows feasible lies below 1."""
        p = random_feasible_problem(rng)
        return LpProblem(c=p.c, a_eq=p.a_eq, b_eq=p.b_eq, a_in=p.a_in,
                         b_in=p.b_in, upper=np.full(p.nvars, 3.0))

    def test_time_limit_does_not_carry_over(self, rng):
        for _ in range(5):
            p = self.bounded(rng)
            assert lpmod.solve_once(p, time_limit=0).status == "limit_exceeded"
            sol = lpmod.solve_once(p)
            assert sol.status == "optimal"
            self.assert_fresh(p, sol)

    def test_model_is_emptied_after_a_failed_solve(self, rng, monkeypatch):
        p = self.bounded(rng)

        def failing(problem, sol):
            raise lpmod.LpError("rejected")

        monkeypatch.setattr(lpmod, "check_optimal", failing)
        with pytest.raises(lpmod.LpError, match="rejected"):
            lpmod.solve_once(p)
        assert lpmod._hull_highs().getNumCol() == 0
        monkeypatch.undo()
        q = self.bounded(rng)
        self.assert_fresh(q, lpmod.solve_once(q))
        assert lpmod._hull_highs().getNumCol() == 0


class TestFailedRun:
    """A HiGHS run that ends in an error status is reported by that
    status, whatever else the model can still tell."""

    class SolveErrorModel:
        """A model whose run ends in 'Solve error' and leaves no
        iteration count, the way a failed HiGHS run can."""

        def __init__(self):
            from scipy.optimize._highspy import _core as hs

            self.hs, self.real = hs, hs._Highs()

        def getRunTime(self):
            return 0.0

        def setOptionValue(self, key, value):
            return self.hs.HighsStatus.kOk

        def run(self):
            return self.hs.HighsStatus.kError

        def getModelStatus(self):
            return self.hs.HighsModelStatus.kSolveError

        def modelStatusToString(self, status):
            return self.real.modelStatusToString(status)

        def getInfoValue(self, name):
            return self.hs.HighsStatus.kError, 0

    def test_error_names_the_model_status(self):
        p = LpProblem(c=[1.0, 1.0], a_in=[[1.0, 1.0]], b_in=[1.0])
        with pytest.raises(lpmod.LpError, match="model status 'Solve error'"):
            lpmod._run_highs(p, None, self.SolveErrorModel())


class TestOptimalityCheck:
    """check_optimal runs on every optimal solve; here it is handed
    solutions that were damaged after the solve."""

    def solved(self):
        # max x0 + 2 x1  s.t.  x0 + x1 = 1,  x1 <= 0.6: both rows bind
        p = LpProblem(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0],
                      a_in=[[0.0, 1.0]], b_in=[0.6])
        sol = solve_lp(p)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [0.4, 0.6], atol=1e-12)
        assert sol.dual_in[0] == pytest.approx(1.0, abs=1e-12)
        lpmod.check_optimal(p, sol)
        return p, sol

    def test_perturbed_x_raises(self):
        p, sol = self.solved()
        sol.x = sol.x + np.array([1e-4, 0.0])
        with pytest.raises(lpmod.LpError, match="primal residual"):
            lpmod.check_optimal(p, sol)

    def test_flipped_inequality_dual_raises(self):
        p, sol = self.solved()
        sol.dual_in = -sol.dual_in
        with pytest.raises(lpmod.LpError, match="below zero"):
            lpmod.check_optimal(p, sol)


class TestBland:
    def test_beale_cycling_instance_terminates(self):
        # classic example that cycles under Dantzig's rule (max form)
        c = np.array([0.75, -150.0, 0.02, -6.0])
        a_in = np.array(
            [
                [0.25, -60.0, -0.04, 9.0],
                [0.5, -90.0, -0.02, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        b_in = np.array([0.0, 0.0, 1.0])
        sol = solve_lp(LpProblem(c=c, a_in=a_in, b_in=b_in))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.05, abs=1e-9)

    def test_scaling_invariance(self, rng):
        for _ in range(20):
            p = random_feasible_problem(rng, with_upper=True)
            s1 = solve_lp(p)
            if s1.status != "optimal":
                continue
            gamma = 7.25
            p2 = LpProblem(
                c=gamma * p.c, a_eq=p.a_eq, b_eq=p.b_eq, a_in=p.a_in,
                b_in=p.b_in, upper=p.upper,
            )
            s2 = solve_lp(p2)
            assert s2.status == "optimal"
            assert s2.objective == pytest.approx(gamma * s1.objective, rel=1e-9)
            # random data make the optimal vertex unique, and scaling the
            # objective does not move it
            np.testing.assert_allclose(s2.x, s1.x, atol=1e-9)

    def test_determinism(self, rng):
        p = random_feasible_problem(rng)
        a = solve_lp(p)
        b = solve_lp(p)
        assert a.iterations == b.iterations
        np.testing.assert_array_equal(a.x, b.x)


def scipy_linprog(c, a_eq, b_eq, a_in, b_in, lower, upper):
    """``linprog`` minimising ``c @ x`` over the given rows and bounds,
    dense or sparse, with empty row blocks left out."""
    return linprog(
        c,
        A_ub=a_in if b_in.size else None,
        b_ub=b_in if b_in.size else None,
        A_eq=a_eq if b_eq.size else None,
        b_eq=b_eq if b_eq.size else None,
        bounds=[(lo, up if np.isfinite(up) else None)
                for lo, up in zip(lower, upper)],
        method="highs",
    )


def reference(p):
    """``p`` (a maximisation) solved by ``linprog``."""
    return scipy_linprog(-p.c, p.a_eq, p.b_eq, p.a_in, p.b_in, p.lower, p.upper)


def elastic_value(p):
    """Smallest total row violation of ``p`` by ``linprog``: the elastic
    LP  min 1 @ (s_plus + s_minus + t)  s.t.  a_eq x + s_plus - s_minus =
    b_eq,  a_in x - t <= b_in, with ``p``'s bounds on x and the elastic
    columns nonnegative."""
    m_eq, m_in, n = p.b_eq.size, p.b_in.size, p.nvars
    k = 2 * m_eq + m_in
    i_eq, i_in = np.eye(m_eq), np.eye(m_in)
    a_eq = np.hstack([np.asarray(p.a_eq), i_eq, -i_eq, np.zeros((m_eq, m_in))])
    a_in = np.hstack([np.asarray(p.a_in), np.zeros((m_in, 2 * m_eq)), -i_in])
    res = scipy_linprog(
        np.concatenate([np.zeros(n), np.ones(k)]), a_eq, p.b_eq, a_in, p.b_in,
        np.concatenate([p.lower, np.zeros(k)]),
        np.concatenate([p.upper, np.full(k, np.inf)]),
    )
    assert res.status == 0, res.message
    return res.fun


class TestAgainstScipy:
    def test_objectives_match(self, rng):
        hits = 0
        for _ in range(80):
            p = random_feasible_problem(rng, with_upper=bool(rng.integers(2)))
            mine = solve_lp(p)
            ref = reference(p)
            if ref.status == 0:
                hits += 1
                assert mine.status == "optimal"
                assert mine.objective == pytest.approx(-ref.fun, abs=1e-7, rel=1e-7)
            elif ref.status == 3:
                assert mine.status == "unbounded"
        assert hits > 30

    def test_backend_duals_agree_in_convention(self, rng):
        for _ in range(20):
            p = random_feasible_problem(rng)
            s = solve_lp(p)
            if s.status != "optimal":
                continue
            assert s.dual_in.min(initial=0.0) > -1e-8
            dual_obj = p.b_eq @ s.dual_eq + p.b_in @ s.dual_in
            assert dual_obj == pytest.approx(s.objective, abs=1e-6, rel=1e-6)


def random_column_lp(rng, n=24, support=1.0):
    """A bounded LP over ``n`` nonnegative columns, its first inequality
    row capping their sum. A point whose support is a random ``support``
    share of the columns meets every row."""
    m_eq, m_in = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    a_eq = rng.uniform(0, 1, size=(m_eq, n))
    a_in = np.vstack([np.ones(n), rng.normal(size=(m_in, n))])
    x0 = rng.uniform(0, 1, size=n) * (rng.random(n) < support)
    return LpProblem(c=rng.normal(size=n), a_eq=a_eq, b_eq=a_eq @ x0, a_in=a_in,
                     b_in=a_in @ x0 + rng.uniform(0, 1, size=m_in + 1))


def column_subset(p, cols):
    return LpProblem(c=p.c[cols], a_eq=p.a_eq[:, cols], b_eq=p.b_eq,
                     a_in=p.a_in[:, cols], b_in=p.b_in)


def grow_master(rng, p, batches=3):
    """Load a random part of ``p``'s columns into a Master, add the rest
    in ``batches`` batches, and yield (columns so far, solution) after
    each solve."""
    order = rng.permutation(p.nvars)
    parts = np.array_split(order, batches + 1)
    master = lpmod.Master(column_subset(p, parts[0]))
    cols = parts[0]
    yield cols, master.solve()
    for part in parts[1:]:
        master.add_columns(p.c[part], p.a_eq[:, part], p.a_in[:, part])
        cols = np.concatenate([cols, part])
        yield cols, master.solve()


class TestMaster:
    """The incremental master re-solves warm in one model; every solve
    must agree with ``linprog`` on the same columns."""

    def test_each_resolve_matches_a_cold_solve(self, rng):
        seen = {"optimal": 0, "infeasible": 0}
        for _ in range(30):
            p = random_column_lp(rng, support=float(rng.uniform(0.3, 1.0)))
            for cols, sol in grow_master(rng, p, int(rng.integers(3, 5))):
                sub = column_subset(p, cols)
                cold = reference(sub)
                assert sol.status == {0: "optimal", 2: "infeasible"}[cold.status]
                seen[sol.status] += 1
                if sol.status == "optimal":
                    assert sol.objective == pytest.approx(-cold.fun, abs=1e-9)
                    lpmod.check_optimal(sub, sol)
                else:
                    assert farkas_gap(sub, sol.certificate) == pytest.approx(
                        elastic_value(sub), abs=1e-9)
        assert seen["optimal"] > 50 and seen["infeasible"] > 10

    def test_infeasible_start_reaches_feasibility(self):
        # max x0 + 2 x1  s.t.  x0 + x1 = 1,  x0 <= 0.5: x0 alone misses by 0.5
        p = LpProblem(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0],
                      a_in=[[1.0, 0.0]], b_in=[0.5])
        master = lpmod.Master(column_subset(p, [0]))
        first = master.solve()
        assert first.status == "infeasible"
        assert farkas_gap(column_subset(p, [0]), first.certificate) == pytest.approx(
            0.5, abs=1e-12)
        master.add_columns([2.0], [[1.0]], [[0.0]])
        sol = master.solve()
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(sol.x, [0.0, 1.0], atol=1e-12)
        lpmod.check_optimal(p, sol)

    def test_infeasible_lp_certificate_is_the_phase1_value(self, rng):
        for _ in range(20):
            p = random_column_lp(rng)
            # no equality coefficient exceeds 1, so sum(x) >= max(b_eq)
            p.b_in[0] = p.b_eq.max() - rng.uniform(0.1, 1.0)
            for cols, sol in grow_master(rng, p):
                assert sol.status == "infeasible"
            gap = farkas_gap(p, sol.certificate)
            assert gap > 0.0
            assert gap == pytest.approx(elastic_value(p), abs=1e-9)

    def test_infeasible_solve_lp_loads_one_model(self, rng, monkeypatch):
        # solve_lp is a Master solved once: phase 1 runs in the model the
        # first run used, not in a second, elastic one
        loads = []
        load = lpmod._load_highs

        def counted(*args):
            loads.append(args)
            return load(*args)

        monkeypatch.setattr(lpmod, "_load_highs", counted)
        for _ in range(20):
            p = random_column_lp(rng)
            p.b_in[0] = p.b_eq.max() - rng.uniform(0.1, 1.0)
            loads.clear()
            sol = solve_lp(p)
            assert sol.status == "infeasible"
            assert len(loads) == 1
            gap = farkas_gap(p, sol.certificate)
            assert gap > 0.0
            assert gap == pytest.approx(elastic_value(p), abs=1e-9)


# --------------------------------------------------------------------------
# independent MPS reader used to cross-check the exporter


def parse_mps(path):
    sense = "min"
    rows = {}
    obj_name = None
    order = []
    cols = {}
    rhs = {}
    bounds = {}
    section = None
    with open(path) as f:
        for raw in f:
            line = raw.rstrip("\n")
            if not line or line.startswith("*"):
                continue
            if not line[0].isspace():
                section = line.split()[0]
                continue
            parts = line.split()
            if section == "OBJSENSE":
                sense = parts[0].lower()
            elif section == "ROWS":
                kind, name = parts
                if kind == "N":
                    obj_name = name
                else:
                    rows[name] = kind
                    order.append(name)
            elif section == "COLUMNS":
                col, row, val = parts
                cols.setdefault(col, {})[row] = float(val)
            elif section == "RHS":
                _, row, val = parts
                rhs[row] = float(val)
            elif section == "BOUNDS":
                if parts[0] in ("MI", "FR"):
                    bounds[parts[2]] = (None, bounds.get(parts[2], (0, None))[1])
                elif parts[0] == "UP":
                    lo = bounds.get(parts[2], (0, None))[0]
                    bounds[parts[2]] = (lo, float(parts[3]))
                elif parts[0] == "LO":
                    up = bounds.get(parts[2], (0, None))[1]
                    bounds[parts[2]] = (float(parts[3]), up)
    col_names = sorted(cols)
    n = len(col_names)
    c = np.array([cols[cn].get(obj_name, 0.0) for cn in col_names])
    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    for rn in order:
        coefs = [cols[cn].get(rn, 0.0) for cn in col_names]
        target = rhs.get(rn, 0.0)
        if rows[rn] == "E":
            a_eq.append(coefs)
            b_eq.append(target)
        elif rows[rn] == "L":
            a_ub.append(coefs)
            b_ub.append(target)
        else:  # G
            a_ub.append([-x for x in coefs])
            b_ub.append(-target)
    bnds = [bounds.get(cn, (0, None)) for cn in col_names]
    return sense, c, a_eq, b_eq, a_ub, b_ub, bnds


def solve_mps_external(path):
    sense, c, a_eq, b_eq, a_ub, b_ub, bnds = parse_mps(path)
    obj = -np.array(c) if sense == "max" else np.array(c)
    res = linprog(
        obj,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bnds,
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun if sense == "max" else res.fun


class TestMpsExport:
    def test_tiny_problem_structure(self, tmp_path):
        p = LpProblem(c=[1.0], a_in=[[1.0]], b_in=[3.0])
        path = tmp_path / "tiny.mps"
        export_lp(p, path)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0].startswith("NAME")
        assert lines[lines.index("OBJSENSE") + 1].split() == ["MAX"]
        rows = [r.split()[0] for r in lines[lines.index("ROWS") + 1:lines.index("COLUMNS")]]
        assert sorted(rows) == ["L", "N"]  # the objective and one L row
        columns = lines[lines.index("COLUMNS") + 1:lines.index("RHS")]
        assert [c.split()[0] for c in columns] == ["c0", "c0"]  # objective + row
        assert text.endswith("ENDATA\n")

    def test_file_name_must_end_in_mps(self, tmp_path):
        # HiGHS would write a ".lp" name in LP format
        p = LpProblem(c=[1.0], a_in=[[1.0]], b_in=[3.0])
        with pytest.raises(ValueError, match="end in .mps"):
            export_lp(p, tmp_path / "x.lp")
        assert not (tmp_path / "x.lp").exists()

    def test_loan_lps_read_back_into_highs(self, tmp_path):
        from scipy.optimize._highspy import _core as hs

        l1 = generate_loan_instance(LoanConfig(n_states=10))
        quad = generate_loan_instance(LoanConfig(n_states=6, reward_kind="quad_convex"))
        fc = build_finite_cmdp(quad, enumerate_for_instance(quad, method="auto"))
        for name, p in (("l1", build_occupancy_lp(l1)),
                        ("finite", loop_finite_lp(fc))):
            path = tmp_path / f"{name}.mps"
            export_lp(p, path)
            h = hs._Highs()
            h.setOptionValue("output_flag", False)
            assert h.readModel(str(path)) == hs.HighsStatus.kOk
            assert (h.getNumCol(), h.getNumRow()) == (p.nvars, p.nrows)
            h.run()
            assert h.getModelStatus() == hs.HighsModelStatus.kOptimal
            want = solve_lp(p).objective
            assert want != 0.0
            assert h.getInfo().objective_function_value == pytest.approx(want, abs=1e-9)

    def test_l1_loan_writes_the_whole_tight_lp(self, tmp_path):
        # solve_occupancy solves this loan by column generation; the file
        # holds every column and row, each split column on one row of its own
        from scipy.optimize._highspy import _core as hs

        inst = generate_loan_instance(LoanConfig(n_states=20, q_default=0.002))
        p = build_occupancy_lp(inst)
        split = np.arange(p.layout.d_col[0])
        a_in = p.a_in.tocsc()[:, split]
        assert (np.diff(a_in.indptr) == 1).all()
        assert np.bincount(a_in.indices, minlength=p.b_in.size).max() == 1
        path = tmp_path / "l1.mps"
        export_lp(p, path)
        h = hs._Highs()
        h.setOptionValue("output_flag", False)
        assert h.readModel(str(path)) == hs.HighsStatus.kOk
        kept = sum(int((abs(a.data) >= 1e-9).sum()) for a in (p.a_eq, p.a_in))
        assert (h.getNumCol(), h.getNumRow(), h.getNumNz()) == (p.nvars, p.nrows, kept)
        h.run()
        assert h.getModelStatus() == hs.HighsModelStatus.kOptimal
        want = solve_occupancy(inst).objective
        assert want < -1e-3
        assert h.getInfo().objective_function_value == pytest.approx(want, abs=1e-9)

    def test_deterministic_bytes(self, tmp_path, rng):
        p = random_feasible_problem(rng)
        a, b = tmp_path / "a.mps", tmp_path / "b.mps"
        export_lp(p, a)
        export_lp(p, b)
        assert a.read_bytes() == b.read_bytes()

    def test_roundtrip_against_external_solver(self, tmp_path, rng):
        for k in range(25):
            p = random_feasible_problem(rng, with_upper=bool(rng.integers(2)))
            mine = solve_lp(p)
            if mine.status != "optimal":
                continue
            path = tmp_path / f"rt{k}.mps"
            export_lp(p, path)
            external = solve_mps_external(path)
            assert external == pytest.approx(mine.objective, abs=1e-6, rel=1e-6)

    def test_unwritable_path_raises(self, tmp_path):
        p = LpProblem(c=[1.0], a_in=[[1.0]], b_in=[3.0])
        with pytest.raises(OSError, match="cannot write"):
            export_lp(p, tmp_path / "nodir" / "x.mps")
