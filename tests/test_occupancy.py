import numpy as np
import pytest
import scipy.sparse as sp

from helpers import (
    backward_induction_value,
    lift_matrix,
    loop_occupancy_lp,
    loop_occupancy_value,
    occupancy_violations,
    random_instance,
)

from modcmdp import (
    ActionPolytope,
    AffineReward,
    CmdpInstance,
    LayeredStateSpace,
    LoanConfig,
    OccupancySolution,
    QualityConstraint,
    QualityInfeasibleError,
    QuadraticDeviationReward,
    WeightedL1Reward,
    box_polytope,
    build_finite_cmdp,
    build_occupancy_lp,
    enumerate_for_instance,
    evaluate_exact,
    extract_policy,
    farkas_gap,
    generate_loan_instance,
    solve,
    solve_finite,
    solve_occupancy,
)
from modcmdp.vertices import FiniteLp


def l1_instance(bound=0.2, eps=0.4):
    space = LayeredStateSpace([["s"], ["ok", "bad"]])
    poly = box_polytope([0.5, 0.5], eps)
    return CmdpInstance(
        space,
        {"s": poly},
        {"s": WeightedL1Reward([0.5, 0.5])},
        [1.0],
        [QualityConstraint({"bad"}, bound)],
    )


def grid_oracle_l1(bound):
    """Best -|a2-0.5|*2 over a2 in [0.1, 0.9] with a2 <= bound, by grid."""
    best = -np.inf
    for a2 in np.arange(0.1, 0.9 + 1e-12, 1e-4):
        if a2 <= bound + 1e-12:
            best = max(best, -(abs(a2 - 0.5) + abs((1 - a2) - 0.5)))
    return best


class TestBuild:
    def test_variable_census(self):
        prob = build_occupancy_lp(l1_instance())
        # the L1 state's 2 edge masses are u = center * d + p - m: 2 upward
        # and 2 downward deviations, plus 3 visit masses
        assert prob.nvars == 7
        lay = prob.layout
        assert lay.col_start.tolist() == [0, 4]
        assert lay.d_col.tolist() == [4, 5, 6]
        assert lay.aux_col == {}
        # columns p(ok), p(bad), m(ok), m(bad), d(s), d(ok), d(bad); the
        # edge masses u(s, ok) and u(s, bad) are p - m + 0.5 * d(s)
        assert lay.edge_col.tolist() == [0, 1]
        assert lay.m_off.tolist() == [2, 2]
        assert lay.center.tolist() == [0.5, 0.5]
        assert lay.d_col[lay.edge_src].tolist() == [4, 4]
        # rows: 1 initial + 1 outgoing + 2 incoming flow rows, 1 cap and
        # the 4 box rows; the box's lower rows already imply u >= 0
        assert prob.b_eq.size == 4
        assert prob.b_in.size == 1 + 4

    def test_invalid_instance_rejected(self):
        inst = l1_instance()
        broken = CmdpInstance(
            inst.states, inst.polytopes, inst.rewards, [0.6, 0.6], []
        )
        with pytest.raises(ValueError, match="invalid instance"):
            build_occupancy_lp(broken)

    def test_convex_quadratic_points_to_envelope(self):
        inst = l1_instance()
        quad = CmdpInstance(
            inst.states,
            inst.polytopes,
            {"s": QuadraticDeviationReward([0.5, 0.5], convex=True)},
            inst.alpha,
            inst.constraints,
        )
        with pytest.raises(ValueError, match="envelope"):
            build_occupancy_lp(quad)

    def test_concave_quadratic_points_to_tangent_cuts(self):
        inst = l1_instance()
        quad = CmdpInstance(
            inst.states,
            inst.polytopes,
            {"s": QuadraticDeviationReward([0.5, 0.5], convex=False)},
            inst.alpha,
            inst.constraints,
        )
        with pytest.raises(ValueError, match="tangent_cuts"):
            build_occupancy_lp(quad)


class TestSolve:
    def test_binding_cap_matches_grid_oracle(self):
        sol = solve_occupancy(l1_instance(0.2))
        assert sol.objective == pytest.approx(grid_oracle_l1(0.2), abs=1e-9)
        assert sol.objective == pytest.approx(-0.6, abs=1e-9)
        pol = extract_policy(sol, l1_instance(0.2))
        np.testing.assert_allclose(pol.actions["s"], [0.8, 0.2], atol=1e-8)

    def test_slack_cap_is_free(self):
        sol = solve_occupancy(l1_instance(0.5))
        assert sol.objective == pytest.approx(0.0, abs=1e-10)

    def test_unreachable_cap_is_infeasible(self):
        with pytest.raises(QualityInfeasibleError):
            solve_occupancy(l1_instance(0.05))

    def test_infeasible_cap_states_the_smallest_excess(self):
        # the box keeps at least 0.1 of the mass on "bad", 0.05 over the cap
        inst = l1_instance(0.05)
        with pytest.raises(QualityInfeasibleError) as occupancy:
            solve_occupancy(inst)
        cert = occupancy.value.certificate
        gap = farkas_gap(build_occupancy_lp(inst), cert)
        assert gap == pytest.approx(0.05, abs=1e-9)
        vs = enumerate_for_instance(inst)
        with pytest.raises(QualityInfeasibleError) as finite:
            solve_finite(build_finite_cmdp(inst, vs))
        for exc in (occupancy.value, finite.value):
            assert exc.excess == pytest.approx(0.05, abs=1e-9)
            assert "total cap excess is 0.05" in str(exc)

    def test_degenerate_box_forces_base(self):
        inst = l1_instance(bound=0.6, eps=0.0)
        sol = solve_occupancy(inst)
        assert sol.edge_mass[("s", "ok")] == pytest.approx(0.5, abs=1e-9)
        assert sol.edge_mass[("s", "bad")] == pytest.approx(0.5, abs=1e-9)

    def test_solution_invariants(self, rng):
        for _ in range(15):
            inst = random_instance(rng, reward="l1")
            try:
                sol = solve_occupancy(inst)
            except QualityInfeasibleError:
                continue
            assert occupancy_violations(sol, inst) == []

    def test_round_trip_with_evaluator(self, rng):
        for _ in range(15):
            inst = random_instance(rng, reward=["affine", "l1"][int(rng.integers(2))])
            try:
                sol = solve_occupancy(inst)
            except QualityInfeasibleError:
                continue
            policy = extract_policy(sol, inst)
            report = evaluate_exact(inst, policy)
            assert report.value == pytest.approx(sol.objective, abs=1e-7)
            np.testing.assert_allclose(
                report.constraint_masses,
                sol.constraint_masses(inst),
                atol=1e-7,
            )

    def test_relaxation_monotonicity(self):
        objs = [
            solve_occupancy(l1_instance(b)).objective
            for b in (0.12, 0.2, 0.3, 0.45, 0.6)
        ]
        assert all(b >= a - 1e-10 for a, b in zip(objs, objs[1:]))

    def test_unconstrained_affine_matches_backward_induction(self, rng):
        for _ in range(10):
            inst = random_instance(rng, reward="affine", constraint_chance=0.0)
            sol = solve_occupancy(inst)
            assert sol.objective == pytest.approx(
                backward_induction_value(inst), abs=1e-7
            )


class TestAgainstLoopAssembly:
    def test_affine_lp_is_unchanged(self, rng):
        for _ in range(10):
            inst = random_instance(rng, reward="affine")
            prob = build_occupancy_lp(inst)
            c, a_eq, b_eq, a_in, b_in = loop_occupancy_lp(inst)
            np.testing.assert_array_equal(prob.c, c)
            np.testing.assert_array_equal(prob.a_eq.toarray(), a_eq)
            np.testing.assert_array_equal(prob.b_eq, b_eq)
            np.testing.assert_array_equal(prob.a_in.toarray(), a_in)
            np.testing.assert_array_equal(prob.b_in, b_in)

    def test_l1_and_mixed_values_match_the_epigraph_lp(self, rng):
        for k in range(20):
            inst = random_instance(rng, reward="l1")
            if k % 2:
                rewards = dict(inst.rewards)
                for s in list(rewards)[::2]:
                    rewards[s] = AffineReward(rng.normal(size=rewards[s].dim))
                inst = CmdpInstance(
                    inst.states, inst.polytopes, rewards, inst.alpha, inst.constraints
                )
            want = loop_occupancy_value(inst)
            if want is None:
                with pytest.raises(QualityInfeasibleError):
                    solve_occupancy(inst)
                continue
            got = solve_occupancy(inst).objective
            assert got == pytest.approx(want, abs=1e-7)


def _column_map_cases():
    """Loans and random draws for the column-map check: (name, instance,
    tangent_cuts). The concave-quadratic draws put the quadratic on every
    other state and keep L1 on the rest."""
    cases = [(f"loan-{kind}-{n}", generate_loan_instance(LoanConfig(n_states=n, reward_kind=kind)), None)
             for kind in ("l1", "affine") for n in (5, 20)]
    rng = np.random.default_rng(11)
    for k in range(30):
        kind = ("l1", "affine", "quad")[k % 3]
        inst = random_instance(rng, reward="affine" if kind == "affine" else "l1")
        if kind == "quad":
            rewards = dict(inst.rewards)
            for s in sorted(rewards)[::2]:
                rewards[s] = QuadraticDeviationReward(inst.polytopes[s].base)
            inst = CmdpInstance(inst.states, inst.polytopes, rewards, inst.alpha, inst.constraints)
        cases.append((f"random-{k}-{kind}", inst, 4 if kind == "quad" else None))
    return [pytest.param(*case, id=case[0]) for case in cases]


class TestColumnMap:
    """The layout's edge-to-column map against the lift matrix it
    replaced (``helpers.lift_matrix``): entries on edge masses written
    over the columns equal the same entries times the lift, and u read
    back from a solution equals the lift's product."""

    @pytest.mark.parametrize("name, inst, cuts", _column_map_cases())
    def test_map_matches_the_lift(self, name, inst, cuts):
        lay = build_occupancy_lp(inst, cuts).layout
        lift = lift_matrix(inst, cuts)
        n, n_edges = lay.n_cols, lay.edge_col.size
        assert lift.shape == (n + n_edges, n)
        rng = np.random.default_rng(len(name))
        for n_rows in (n_edges, 3):  # sparse rows, then many repeats
            rows = rng.integers(n_rows, size=2 * n_edges)
            edges = rng.integers(n_edges, size=rows.size)
            vals = rng.uniform(-1.0, 1.0, size=rows.size)
            r, c, v = lay.on_edges(rows, edges, vals)
            got = sp.csc_matrix((v, (r, c)), shape=(n_rows, n)).toarray()
            want = (sp.csc_matrix((vals, (rows, n + edges)), shape=(n_rows, n + n_edges))
                    @ lift).toarray()
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        for _ in range(3):
            x = rng.uniform(0.0, 1.0, size=n)
            np.testing.assert_allclose(lay.edge_mass(x), (lift @ x)[n:], rtol=0, atol=1e-15)


class TestSharedSkeleton:
    """The occupancy LP and the finite-action LP of one instance build on
    one occupancy.FlowRows: the same b_eq, the same cap right-hand sides
    and the same d columns, byte for byte. The one difference is the L1
    split u = center * d + p - m, which puts center terms on a weighted-L1
    state's own d column, on its outgoing row and on its successors'
    incoming rows; those entries are checked against the split."""

    @staticmethod
    def assert_shared(inst, vs):
        prob = build_occupancy_lp(inst)
        flp = FiniteLp(build_finite_cmdp(inst, vs))
        fin = flp.columns(np.arange(flp.n_vertex, flp.nvars))
        d_col, n_caps = prob.layout.d_col, flp.b_in.size
        for got, want in ((prob.b_eq, fin.b_eq), (prob.b_in[:n_caps], fin.b_in)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

        split = np.zeros(fin.a_eq.shape, dtype=bool)
        for g, s in enumerate(flp.states):
            rew = inst.rewards[s]
            if isinstance(rew, WeightedL1Reward):
                rows = np.concatenate([[flp.out_row[g]], flp.in_start[g] + np.arange(rew.dim)])
                split[rows, g] = True
                col = prob.a_eq[:, d_col[g]].toarray().ravel()
                np.testing.assert_allclose(col[rows], np.concatenate(
                    [[rew.center.sum() - 1.0], rew.center]), rtol=0, atol=1e-15)

        def entries(m, keep):
            """Row, column and value of each kept entry, column by column."""
            m = m.tocoo()
            k = keep[m.row, m.col]
            return [a[k].astype(t).tobytes()
                    for a, t in ((m.row, np.int64), (m.col, np.int64), (m.data, float))]

        caps = np.ones(fin.a_in.shape, dtype=bool)
        assert entries(prob.a_eq[:, d_col], ~split) == entries(fin.a_eq, ~split)
        assert entries(prob.a_in[:n_caps][:, d_col], caps) == entries(fin.a_in, caps)
        return split.any()

    @pytest.mark.parametrize("n", [5, 6])
    def test_l1_loans_with_kink_planes(self, n):
        inst = generate_loan_instance(LoanConfig(n_states=n, reward_kind="l1"))
        assert self.assert_shared(inst, enumerate_for_instance(inst, kink_planes=True))

    @pytest.mark.parametrize("n", [5, 20])
    def test_affine_loans(self, n):
        inst = generate_loan_instance(LoanConfig(n_states=n, reward_kind="affine"))
        assert not self.assert_shared(inst, enumerate_for_instance(inst, method="auto"))

    def test_random_instances_with_caps_across_layers(self, rng):
        spanning = 0
        for k in range(30):
            reward = ("affine", "l1")[k % 2]
            inst = random_instance(rng, max_states=5, max_horizon=5, reward=reward,
                                   constraint_chance=1.0)
            self.assert_shared(inst, enumerate_for_instance(inst, kink_planes=reward == "l1"))
            layer_of = inst.states.layer_of
            spanning += any(len({layer_of(s) for s in qc.states}) > 1
                            for qc in inst.constraints)
        assert spanning >= 5


class TestSignRows:
    """L1 states whose polytope rows do not imply u >= 0 get explicit
    nonnegativity rows. Here a cheap deviation at s1 would push its mass
    to "c" below zero, with s2's mass keeping d("c") nonnegative. The
    halfspace a - b <= 0 binds at the optimum (-0.5525 against -0.3025
    without it)."""

    BASES = {"s1": [0.45, 0.5, 0.05], "s2": [0.2, 0.3, 0.5]}
    WEIGHTS = {"s1": [1.0, 10.0, 0.1], "s2": [1.0, 20.0, 20.0]}
    BOUND = 0.625  # on the mass of {b, c}; the base policy puts 0.675 there

    def make(self, H=None, h=None):
        space = LayeredStateSpace([["s1", "s2"], ["a", "b", "c"]])
        polys = {s: ActionPolytope(b, H, h) for s, b in self.BASES.items()}
        rews = {s: WeightedL1Reward(b, self.WEIGHTS[s]) for s, b in self.BASES.items()}
        caps = [QualityConstraint({"b", "c"}, self.BOUND)]
        return CmdpInstance(space, polys, rews, [0.5, 0.5], caps)

    def grid_oracle(self, H=None, h=None, step=0.025):
        """Best return over pairs of grid actions for s1 and s2."""
        ticks = np.arange(0.0, 1.0 + 1e-12, step)
        a, b = np.meshgrid(ticks, ticks, indexing="ij")
        pts = np.stack([a.ravel(), b.ravel(), 1.0 - a.ravel() - b.ravel()], axis=1)
        pts = pts[pts[:, 2] >= -1e-12]
        if H is not None:
            pts = pts[np.all(pts @ np.atleast_2d(H).T <= np.asarray(h) + 1e-12, axis=1)]
        ret, mass = [], []
        for s, base in self.BASES.items():
            w = np.array(self.WEIGHTS[s])
            ret.append(-0.5 * (np.abs(pts - base) @ w))
            mass.append(0.5 * (pts[:, 1] + pts[:, 2]))
        total = ret[0][:, None] + ret[1][None, :]
        ok = mass[0][:, None] + mass[1][None, :] <= self.BOUND + 1e-12
        return float(np.max(np.where(ok, total, -np.inf)))

    def extreme_value(self, inst):
        vs = enumerate_for_instance(inst, method="exhaustive", kink_planes=True)
        return solve_finite(build_finite_cmdp(inst, vs))[0]

    @pytest.mark.parametrize(
        "H, h",
        [(None, None), ([[1.0, -1.0, 0.0]], [0.0])],
        ids=["no-rows", "one-halfspace"],
    )
    def test_objective_matches_extreme_route_and_grid(self, H, h):
        inst = self.make(H, h)
        prob = build_occupancy_lp(inst)
        # 3 sign rows per L1 state, beyond the cap and the H rows
        n_h = 0 if H is None else 1
        assert prob.b_in.size == 1 + 2 * n_h + 2 * 3
        sol = solve_occupancy(inst)
        assert sol.objective == pytest.approx(self.extreme_value(inst), abs=1e-9)
        assert sol.objective == pytest.approx(self.grid_oracle(H, h), abs=1e-9)
        assert min(sol.edge_mass.values()) >= 0.0
        assert occupancy_violations(sol, inst) == []
        policy = extract_policy(sol, inst)
        assert policy.check(inst) == []
        assert evaluate_exact(inst, policy).value == pytest.approx(
            sol.objective, abs=1e-7
        )


class TestExtractPolicy:
    def test_unit_mass(self):
        inst = l1_instance()
        sol = OccupancySolution(
            {("s", "ok"): 0.8, ("s", "bad"): 0.2},
            {"s": 1.0, "ok": 0.8, "bad": 0.2},
            objective=0.0,
        )
        pol = extract_policy(sol, inst)
        np.testing.assert_allclose(pol.actions["s"], [0.8, 0.2], atol=1e-12)

    def test_rescaling(self):
        space = LayeredStateSpace([["a", "b"], ["ok", "bad"]])
        poly = box_polytope([0.5, 0.5], 0.4)
        inst = CmdpInstance(
            space,
            {"a": poly, "b": poly},
            {"a": WeightedL1Reward([0.5, 0.5]), "b": WeightedL1Reward([0.5, 0.5])},
            [0.5, 0.5],
            [],
        )
        sol = OccupancySolution(
            {("a", "ok"): 0.4, ("a", "bad"): 0.1,
             ("b", "ok"): 0.25, ("b", "bad"): 0.25},
            {"a": 0.5, "b": 0.5, "ok": 0.65, "bad": 0.35},
            objective=0.0,
        )
        pol = extract_policy(sol, inst)
        np.testing.assert_allclose(pol.actions["a"], [0.8, 0.2], atol=1e-12)

    def test_unreachable_state_gets_base(self):
        space = LayeredStateSpace([["a", "b"], ["ok", "bad"]])
        poly = box_polytope([0.5, 0.5], 0.4)
        inst = CmdpInstance(
            space,
            {"a": poly, "b": poly},
            {"a": WeightedL1Reward([0.5, 0.5]), "b": WeightedL1Reward([0.5, 0.5])},
            [1.0, 0.0],
            [],
        )
        sol = OccupancySolution(
            {("a", "ok"): 0.9, ("a", "bad"): 0.1,
             ("b", "ok"): 0.0, ("b", "bad"): 0.0},
            {"a": 1.0, "b": 0.0, "ok": 0.9, "bad": 0.1},
            objective=0.0,
        )
        pol = extract_policy(sol, inst)
        np.testing.assert_allclose(pol.actions["b"], [0.5, 0.5], atol=1e-12)

    def test_small_visit_mass_gets_the_nearest_feasible_action(self):
        # HiGHS meets b's lifted rows to an absolute tolerance, so at a
        # visit mass of 1e-8 u / d leaves b's box by 0.046
        space = LayeredStateSpace([["a", "b"], ["x", "y", "z"]])
        inst = CmdpInstance(
            space,
            {"a": box_polytope([0.13, 0.712, 0.158], 0.25),
             "b": box_polytope([0.06, 0.47, 0.47], 0.25)},
            {"a": AffineReward([0.47, 0.88, 0.26]),
             "b": AffineReward([-2.25, -0.14, 0.03])},
            [1 - 1e-8, 1e-8],
            [QualityConstraint({"z"}, 0.1)],
        )
        convex = solve(inst, "convex")
        assert convex.objective == pytest.approx(solve(inst, "extreme").objective, abs=1e-9)
        assert convex.policy.check(inst) == []
        report = evaluate_exact(inst, convex.policy)
        assert report.value == pytest.approx(convex.objective, abs=1e-7)

    def test_small_visit_masses_on_random_draws(self):
        rng = np.random.default_rng(0)
        solved = 0
        for k in range(300):
            inst = random_instance(rng, reward=("affine", "l1")[k % 2])
            alpha = np.full(inst.alpha.size, 1e-8)
            alpha[0] = 1.0 - alpha[1:].sum()
            inst = CmdpInstance(inst.states, inst.polytopes, inst.rewards, alpha, inst.constraints)
            try:
                sol = solve_occupancy(inst)
            except QualityInfeasibleError:
                continue
            policy = extract_policy(sol, inst)
            assert policy.check(inst) == []
            assert evaluate_exact(inst, policy).value == pytest.approx(sol.objective, abs=1e-7)
            solved += 1
        assert solved == 259

    @pytest.mark.parametrize("d, raises", [(1e-8, False), (1.0, True)])
    def test_violation_allowed_scales_with_one_over_visit_mass(self, d, raises):
        # the box is [0.1, 0.9] per coordinate, and (0.95, 0.05) leaves it by 0.05
        inst = l1_instance(bound=1.0)
        sol = OccupancySolution(
            {("s", "ok"): 0.95 * d, ("s", "bad"): 0.05 * d},
            {"s": d, "ok": 0.95 * d, "bad": 0.05 * d},
            objective=0.0,
        )
        if raises:
            with pytest.raises(RuntimeError, match="violates its polytope by 5.000e-02"):
                extract_policy(sol, inst)
        else:
            pol = extract_policy(sol, inst)
            np.testing.assert_allclose(pol.actions["s"], [0.9, 0.1], atol=1e-9)


class TestTangentCuts:
    def make(self, bound=0.2):
        inst = l1_instance(bound)
        return CmdpInstance(
            inst.states,
            inst.polytopes,
            {"s": QuadraticDeviationReward([0.5, 0.5], convex=False)},
            inst.alpha,
            inst.constraints,
        )

    def test_objective_is_true_return_with_upper_bound(self):
        inst = self.make()
        sol = solve_occupancy(inst, tangent_cuts=16)
        assert sol.bound is not None
        assert sol.objective <= sol.bound + 1e-9
        policy = extract_policy(sol, inst)
        report = evaluate_exact(inst, policy)
        assert report.value == pytest.approx(sol.objective, abs=1e-9)
        assert report.feasible
        # exact optimum: minimize (a2-0.5)^2*2 s.t. a2 <= 0.2 -> a2 = 0.2
        exact = -((0.2 - 0.5) ** 2 + (0.8 - 0.5) ** 2)
        assert sol.bound >= exact - 1e-9

    @pytest.mark.parametrize("cuts", [-3, 0, 2.5, True, "4"])
    def test_malformed_cut_count_rejected(self, cuts):
        for inst in (self.make(), l1_instance()):
            for call in (build_occupancy_lp, solve_occupancy):
                with pytest.raises(ValueError, match="tangent_cuts must be None or an integer >= 1"):
                    call(inst, cuts)
        with pytest.raises(ValueError, match="tangent_cuts"):
            solve(self.make(), "convex", tangent_cuts=cuts)

    def test_more_cuts_tighten_the_bound(self):
        inst = self.make()
        b4 = solve_occupancy(inst, tangent_cuts=4).bound
        b32 = solve_occupancy(inst, tangent_cuts=32).bound
        assert b32 <= b4 + 1e-9
