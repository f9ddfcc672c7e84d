from dataclasses import replace

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
    single_lp_occupancy,
)
from test_loans import base_mass, general_l1_instance, with_cap

import modcmdp.lp as lpmod
import modcmdp.occupancy as occupancy

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


class TestSharedPolytopes:
    """States that hold one polytope object give the LP that per-state
    copies of it give, byte for byte: the rows of each distinct H are
    read once, and each state's entries keep their order."""

    @staticmethod
    def assert_same_lp(a, b):
        pa, pb = build_occupancy_lp(a), build_occupancy_lp(b)
        for name in ("c", "b_eq", "b_in", "lower", "upper"):
            x, y = getattr(pa, name), getattr(pb, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        for x, y in ((pa.a_eq, pb.a_eq), (pa.a_in, pb.a_in)):
            assert x.shape == y.shape
            for name in ("data", "indices", "indptr"):
                u, v = getattr(x, name), getattr(y, name)
                assert u.dtype == v.dtype and u.tobytes() == v.tobytes(), name

    @staticmethod
    def with_polytopes(inst, polytopes):
        return CmdpInstance(inst.states, polytopes, inst.rewards, inst.alpha, inst.constraints)

    def test_l1_loan_against_boxes_with_rows_of_their_own(self, monkeypatch):
        import modcmdp.model as model

        inst = generate_loan_instance(LoanConfig(n_states=12, q_default=0.002))
        assert len({id(p) for p in inst.polytopes.values()}) == 12
        with monkeypatch.context() as m:  # a fresh [I; -I] for every box
            fresh = model._box_rows.__wrapped__
            m.setattr(model, "_box_rows", fresh)
            copies = {s: ActionPolytope(p.base, p.H, p.h) for s, p in inst.polytopes.items()}
        assert len({id(p.H) for p in copies.values()}) == len(copies)
        self.assert_same_lp(inst, self.with_polytopes(inst, copies))

    def test_general_polytopes_shared_across_a_layer(self, rng):
        # two polytopes per layer, held by alternate states, so the states
        # of one H are not consecutive
        for k in range(20):
            inst = random_instance(rng, max_states=5, max_horizon=5,
                                   reward=("l1", "affine")[k % 2], constraint_chance=1.0)
            shared, copies = {}, {}
            for t, layer in enumerate(inst.states.layers[:-1]):
                n = len(inst.states.layers[t + 1])
                polys = []
                for _ in range(2):
                    base = rng.dirichlet(np.ones(n))
                    H = rng.normal(size=(int(rng.integers(1, 2 * n + 1)), n))
                    H[rng.random(H.shape) < 0.3] = 0.0
                    polys.append(ActionPolytope(base, H, H @ base + rng.uniform(0.0, 0.3, len(H))))
                for i, s in enumerate(layer):
                    poly = polys[i % 2]
                    shared[s] = poly
                    copies[s] = ActionPolytope(poly.base, poly.H.copy(), poly.h)
            assert len({id(p.H) for p in copies.values()}) == len(copies)
            self.assert_same_lp(self.with_polytopes(inst, shared),
                                self.with_polytopes(inst, copies))


class TestL1Objective:
    """The reported objective counts each weighted-L1 edge at its true
    reward -w |u - d center|, which is what the extracted policy earns,
    not at the LP's -w (p + m)."""

    @pytest.mark.parametrize("make", [
        lambda: generate_loan_instance(LoanConfig(n_states=6, q_default=0.002)),
        lambda: l1_instance(0.2),
    ], ids=["loan", "tiny"])
    def test_split_columns_below_zero_do_not_count(self, make, monkeypatch):
        import modcmdp.lp as lpmod

        real = lpmod.solve_lp

        def lowered(problem, *args, **kwargs):
            # both split columns of one L1 edge 1e-10 lower: u and every
            # row are unchanged, the LP's -w (p + m) rises by 2 w 1e-10
            sol = real(problem, *args, **kwargs)
            lay = problem.layout
            e = np.flatnonzero(lay.m_off)[0]
            sol.x = sol.x.copy()
            sol.x[[lay.edge_col[e], lay.edge_col[e] + lay.m_off[e]]] -= 1e-10
            sol.objective = float(problem.c @ sol.x)
            return sol

        inst = make()
        monkeypatch.setattr(lpmod, "solve_lp", lowered)
        sol = solve_occupancy(inst)
        space = inst.states
        true = sum(
            -w * abs(sol.edge_mass[(s, s2)] - sol.visit_mass[s] * c)
            for layer, nxt in zip(space.layers, space.layers[1:]) for s in layer
            for s2, c, w in zip(nxt, inst.rewards[s].center, inst.rewards[s].weights))
        assert abs(sol.objective - true) <= 1e-15
        value = evaluate_exact(inst, extract_policy(sol, inst)).value
        assert abs(sol.objective - value) <= 1e-12


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


@pytest.fixture
def by_columns(monkeypatch):
    """solve_occupancy generates columns whenever it has lazy columns, and
    each run of lp.generate_columns is recorded with its arguments and
    outcome."""
    monkeypatch.setattr(occupancy, "LAZY_COLUMNS_MIN", 0)
    runs = []
    loop = lpmod.generate_columns

    def spy(master, pricer, deadline):
        sol = loop(master, pricer, deadline)
        # a copy of x: solve_occupancy folds each split pair of it in place
        runs.append(dict(pricer=pricer, held=pricer.held,
                         sol=replace(sol, x=None if sol.x is None else sol.x.copy()),
                         added=np.concatenate([np.zeros(0, dtype=int)] + pricer.added)))
        return sol

    monkeypatch.setattr(lpmod, "generate_columns", spy)
    return runs


def assert_matches_single_lp(inst) -> str:
    """solve_occupancy reaches the objective of the LP as it was written
    before its tight rows (helpers.single_lp_occupancy), solved whole, to
    1e-9 relative, and the extracted policy earns it; or it raises with a
    certificate whose margin on the whole LP is its excess and the
    reference's phase-1 value. Returns the reference's status."""
    problem, oracle = single_lp_occupancy(inst)
    if oracle.status == "infeasible":
        with pytest.raises(QualityInfeasibleError) as err:
            solve_occupancy(inst)
        excess = err.value.excess
        assert excess == farkas_gap(build_occupancy_lp(inst), err.value.certificate) > 0.0
        assert excess == pytest.approx(farkas_gap(problem, oracle.certificate), abs=1e-9)
        return oracle.status
    assert oracle.status == "optimal"
    sol = solve_occupancy(inst)
    assert abs(sol.objective - oracle.objective) <= 1e-9 * max(1.0, abs(oracle.objective))
    value = evaluate_exact(inst, extract_policy(sol, inst)).value
    assert abs(value - sol.objective) <= 1e-9 * max(1.0, abs(sol.objective))
    return oracle.status


class TestColumnGeneration:
    """solve_occupancy prices lazy split columns into a restricted master
    and must reach the whole LP's optimum, or certify it infeasible."""

    @pytest.mark.parametrize("n", [5, 20, 25, 50])
    def test_l1_loans_match_single_lp(self, by_columns, n):
        inst = generate_loan_instance(LoanConfig(n_states=n))
        m = base_mass(inst)
        for q in (0.04, 0.5 * m, 0.1 * m):
            del by_columns[:]
            assert assert_matches_single_lp(with_cap(inst, q)) == "optimal"
            (run,), binding = by_columns, q < m
            assert run["held"].size == 10 * n * n  # every split column of every box
            assert (run["added"].size > 0) == binding

    def test_random_draws_match_single_lp(self, by_columns, rng):
        # boxes and general polytopes, one and two caps, zero weights, and
        # reward centers outside a polytope row
        seen = dict(infeasible=0, optimal=0, two_caps=0, general=0, zero_weight=0,
                    off_center=0)
        for k in range(48):
            inst = general_l1_instance(rng) if k % 2 else random_instance(rng, reward="l1")
            rewards = dict(inst.rewards)
            if k % 3 == 0:
                for s, r in rewards.items():
                    rewards[s] = WeightedL1Reward(r.center, r.weights * (rng.random(r.dim) < 0.6))
            inst = CmdpInstance(inst.states, inst.polytopes, rewards, inst.alpha,
                                inst.constraints)
            seen[assert_matches_single_lp(inst)] += 1
            polys = [(inst.polytopes[s], r) for s, r in rewards.items()]
            seen["two_caps"] += len(inst.constraints) >= 2
            seen["general"] += any(p.box is None for p, _ in polys)
            seen["zero_weight"] += any((r.weights == 0).any() for _, r in polys)
            seen["off_center"] += any((p.H @ r.center > p.h).any() for p, r in polys)
        assert min(seen.values()) >= 2, seen
        assert len(by_columns) >= 40

    def test_infeasible_cap_certifies_the_whole_lp(self, by_columns):
        # every path passes layer 2, so half its mass is always in excess
        inst = generate_loan_instance(LoanConfig(n_states=20))
        cap = QualityConstraint(set(inst.states.layers[2]), 0.5)
        inst = CmdpInstance(inst.states, inst.polytopes, inst.rewards, inst.alpha, [cap])
        assert assert_matches_single_lp(inst) == "infeasible"
        with pytest.raises(QualityInfeasibleError) as err:
            solve_occupancy(inst)
        assert err.value.excess == pytest.approx(0.5, abs=1e-9)
        assert by_columns[-1]["sol"].status == "infeasible"

    def test_phase_one_relaxes_the_rows_it_adds(self, by_columns):
        # u_bad >= 0.4 written as -0.5 u_bad <= -0.2 d, cap u_bad <= 0.1: the
        # whole LP's phase 1 gives up 0.15 on that row to move 0.3 of mass
        # off "bad", a total violation of 0.15, not the cap's 0.3
        space = LayeredStateSpace([["s"], ["ok", "bad"]])
        inst = CmdpInstance(space, {"s": ActionPolytope([0.5, 0.5], [[0.0, -0.5]], [-0.2])},
                            {"s": WeightedL1Reward([0.5, 0.5])}, [1.0],
                            [QualityConstraint({"bad"}, 0.1)])
        assert assert_matches_single_lp(inst) == "infeasible"
        with pytest.raises(QualityInfeasibleError) as err:
            solve_occupancy(inst)
        assert err.value.excess == pytest.approx(0.15, abs=1e-12)
        assert by_columns[-1]["added"].size > 0

    def test_zero_padded_solution_is_the_whole_optimum(self, by_columns):
        inst = generate_loan_instance(LoanConfig(n_states=20))
        inst = with_cap(inst, 0.5 * base_mass(inst))
        solve_occupancy(inst)
        (run,) = by_columns
        sol, pricer = run["sol"], run["pricer"]
        whole = build_occupancy_lp(inst)
        col = occupancy._lazy_columns(whole)[0]
        lpmod.check_optimal(whole, sol)

        def priced():
            rc = whole.c - (whole.a_eq.T @ sol.dual_eq + whole.a_in.T @ sol.dual_in)
            return replace(sol, reduced_costs=rc)

        lpmod.check_optimal(whole, priced())
        scale = max(1.0, float(np.abs(whole.c).max()))
        assert pricer(sol, scale) is None
        # the lazy column outside the master that prices best, made to earn 1
        out = np.flatnonzero(~run["held"])
        rc = priced().reduced_costs[col[out]]
        j = out[np.argmax(rc)]
        whole.c[col[j]] += 1.0 - rc.max()
        pricer.cost[j] = whole.c[col[j]]
        with pytest.raises(lpmod.LpError, match="against an infinite bound"):
            lpmod.check_optimal(whole, priced())
        assert pricer(sol, scale) is not None
        assert pricer.added[-1].tolist() == [j]

    @pytest.mark.parametrize("n", [20, 25])
    def test_both_sides_of_the_fork_agree(self, monkeypatch, n):
        # the default route generates columns; at most LAZY_COLUMNS_MIN lazy
        # columns, the same LP is solved whole
        runs = []
        loop = lpmod.generate_columns
        monkeypatch.setattr(lpmod, "generate_columns", lambda *a: runs.append(1) or loop(*a))
        inst = generate_loan_instance(LoanConfig(n_states=n))
        m = base_mass(inst)
        for q in (0.04, 0.5 * m, 0.1 * m):
            cell = with_cap(inst, q)
            lazy = occupancy._lazy_columns(build_occupancy_lp(cell))[0].size
            assert lazy > occupancy.LAZY_COLUMNS_MIN
            by_columns = solve_occupancy(cell)
            with monkeypatch.context() as patch:
                patch.setattr(occupancy, "LAZY_COLUMNS_MIN", lazy)
                whole = solve_occupancy(cell)
            assert len(runs) == 1
            del runs[:]
            scale = max(1.0, abs(whole.objective))
            assert abs(by_columns.objective - whole.objective) <= 1e-12 * scale
            got, want = extract_policy(by_columns, cell), extract_policy(whole, cell)
            if q > m:  # every state at its center, the one optimum
                for s in cell.states.nonterminal():
                    np.testing.assert_allclose(got.actions[s], want.actions[s], rtol=0, atol=1e-9)
            # a binding cap leaves ties, where the two routes may pick
            # different optima (actions 0.4 apart at n=25): both earn it
            for policy in (got, want):
                report = evaluate_exact(cell, policy)
                assert report.feasible
                assert abs(report.value - whole.objective) <= 1e-12 * scale

    def test_lazy_columns_leave_out_shared_and_violated_rows(self):
        # a split column stays in the first master when its row holds the
        # other split column of its edge (a single-entry row the center
        # violates) or another edge's (a row with more nonzeros)
        rng = np.random.default_rng(4321)
        seen = dict(violated=0, shared=0, lazy=0)
        for _ in range(40):
            inst = general_l1_instance(rng)
            problem = build_occupancy_lp(inst)
            lay = problem.layout
            col, row = occupancy._lazy_columns(problem)
            lazy = set(col.tolist())
            for g, s in enumerate(occupancy.FlowRows(inst).states):
                poly, center = inst.polytopes[s], inst.rewards[s].center
                edges = np.arange(lay.edge_start[g], lay.edge_start[g + 1])
                split = np.stack([lay.edge_col[edges], lay.edge_col[edges] + lay.m_off[edges]])
                for h_row, h in zip(poly.H, poly.h):
                    (k,) = np.nonzero(h_row)
                    if k.size == 1 and h_row[k[0]] * center[k[0]] <= h:
                        continue
                    out = split[:, k].ravel().tolist()
                    assert lazy.isdisjoint(out), (s, h_row, h)
                    seen["violated" if k.size == 1 else "shared"] += 1
            # every lazy column is its row's one split column and its one entry
            a_in = problem.a_in.tocsr()
            for j, r in zip(col, row):
                assert problem.a_in[:, j].nnz == 1
                assert set(a_in.indices[a_in.indptr[r] : a_in.indptr[r + 1]]) <= {
                    j, *lay.d_col.tolist()}
            seen["lazy"] += col.size
        assert min(seen.values()) >= 5, seen

    @pytest.mark.parametrize("make", [
        lambda: with_cap(generate_loan_instance(LoanConfig(n_states=20)), 0.002),
        lambda: l1_instance(0.2),
    ], ids=["columns", "whole"])
    def test_zero_budget_times_out(self, make):
        with pytest.raises(TimeoutError):
            solve_occupancy(make(), time_limit=0)
