import itertools

import numpy as np
import pytest

from helpers import (
    brute_force_mixture_value,
    certify_extreme,
    loop_finite_lp,
    random_instance,
    single_lp_finite,
    vertex_counts,
)

import modcmdp.lp as lpmod
from modcmdp import (
    ActionPolytope,
    AffineReward,
    CmdpInstance,
    DecompositionError,
    LayeredStateSpace,
    LoanConfig,
    QualityConstraint,
    QualityInfeasibleError,
    RandomizedPolicy,
    WeightedL1Reward,
    box_polytope,
    build_finite_cmdp,
    enumerate_for_instance,
    enumerate_vertices,
    evaluate_exact,
    farkas_gap,
    generate_loan_instance,
    mix_to_point,
    point_to_mix,
    solve,
    solve_finite,
    solve_occupancy,
    solve_with_envelope,
)
from modcmdp.occupancy import assemble_lp
from modcmdp.vertices import (
    COLUMNS_PER_STATE,
    VertexSet,
    box_bounds,
    box_simplex_vertices,
)


def brute_vertices(poly):
    """Independent vertex oracle: try every subset of candidate equalities
    (polytope rows tight, coordinates at zero) plus the simplex equality,
    solve with lstsq, keep well-determined feasible points."""
    n = poly.dim
    cands = [(row, rhs) for row, rhs in zip(poly.H, poly.h)]
    cands += [(-(np.eye(n)[k]), 0.0) for k in range(n)]
    found = []
    for subset in itertools.combinations(range(len(cands)), n - 1):
        mat = np.vstack([np.ones(n)] + [-cands[i][0] for i in subset])
        rhs = np.array([1.0] + [-cands[i][1] for i in subset])
        if np.linalg.matrix_rank(mat, tol=1e-9) < n:
            continue
        a, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
        if np.max(np.abs(mat @ a - rhs)) > 1e-8:
            continue
        if a.min() < -1e-9 or poly.margin(a) > 1e-9:
            continue
        if not any(np.max(np.abs(a - b)) < 1e-7 for b in found):
            found.append(a)
    return sorted(map(tuple, np.round(found, 9)))


def as_set(verts):
    return sorted(map(tuple, np.round(verts, 9)))


def l1_instance(bound=0.2):
    space = LayeredStateSpace([["s"], ["ok", "bad"]])
    return CmdpInstance(
        space,
        {"s": box_polytope([0.5, 0.5], 0.4)},
        {"s": WeightedL1Reward([0.5, 0.5])},
        [1.0],
        [QualityConstraint({"bad"}, bound)],
    )


class TestEnumerate:
    def test_segment_endpoints(self):
        v = enumerate_vertices(box_polytope([0.5, 0.5], 0.4))
        assert as_set(v) == [(0.1, 0.9), (0.9, 0.1)]

    def test_full_simplex_unit_vectors(self):
        v = enumerate_vertices(ActionPolytope([1 / 3, 1 / 3, 1 / 3]))
        assert as_set(v) == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]

    def test_three_dim_box_matches_brute_oracle(self):
        poly = box_polytope([1 / 3, 1 / 3, 1 / 3], 0.4)
        mine = as_set(enumerate_vertices(poly))
        oracle = brute_vertices(poly)
        assert mine == oracle
        tops = [v for v in mine if any(abs(x - (1 / 3 + 0.4)) < 1e-9 for x in v)]
        zeros = [v for v in mine if any(abs(x) < 1e-12 for x in v)]
        assert tops and zeros

    def test_random_polytopes_match_brute_oracle(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 5))
            b = rng.dirichlet(np.ones(n))
            poly = box_polytope(b, float(rng.uniform(0.05, 0.7)))
            assert as_set(enumerate_vertices(poly)) == brute_vertices(poly)

    def test_extra_rows_polytope(self):
        # box plus a diagonal cut
        poly = ActionPolytope(
            [0.5, 0.5],
            H=[[1.0, 0.0], [-1.0, 0.0], [1.0, -1.0]],
            h=[0.9, -0.1, 0.5],
        )
        mine = as_set(enumerate_vertices(poly))
        assert mine == brute_vertices(poly)
        assert (0.75, 0.25) in mine  # where the cut meets the simplex

    def test_vertices_are_extreme_and_separated(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            poly = box_polytope(rng.dirichlet(np.ones(n)), 0.3)
            v = enumerate_vertices(poly)
            assert certify_extreme(v)
            for i in range(len(v)):
                for j in range(i + 1, len(v)):
                    assert np.max(np.abs(v[i] - v[j])) > 1e-7

    def test_dimension_limit(self):
        poly = ActionPolytope(np.ones(30) / 30)
        with pytest.raises(ValueError, match="occupancy"):
            enumerate_vertices(poly)

    def test_empty_polytope_errors(self):
        poly = ActionPolytope([0.5, 0.5], H=[[1.0, 1.0]], h=[0.5])
        with pytest.raises(ValueError, match="no vertices"):
            enumerate_vertices(poly)

    def test_degenerate_box_single_vertex(self):
        v = enumerate_vertices(box_polytope([0.3, 0.7], 0.0))
        assert as_set(v) == [(0.3, 0.7)]

    def test_box_method_matches_exhaustive(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 6))
            poly = box_polytope(
                rng.dirichlet(np.ones(n)), float(rng.uniform(0.05, 0.9))
            )
            ex = as_set(enumerate_vertices(poly, method="exhaustive"))
            bx = as_set(enumerate_vertices(poly, method="box"))
            assert ex == bx

    def test_box_method_requires_box_rows(self):
        poly = ActionPolytope([0.5, 0.5], H=[[1.0, 1.0]], h=[1.5])
        with pytest.raises(ValueError, match="box form"):
            enumerate_vertices(poly, method="box")

    def test_box_simplex_direct(self):
        v = box_simplex_vertices([0.0, 0.0], [1.0, 1.0])
        assert as_set(v) == [(0.0, 1.0), (1.0, 0.0)]
        assert box_simplex_vertices([0.6, 0.6], [0.7, 0.7]).shape[0] == 0


class TestFiniteCmdp:
    def test_l1_vertex_rewards(self):
        inst = l1_instance()
        vs = enumerate_for_instance(inst)
        fc = build_finite_cmdp(inst, vs)
        np.testing.assert_allclose(fc.rewards["s"], [-0.8, -0.8], atol=1e-12)

    def test_affine_vertex_rewards(self):
        inst = l1_instance()
        affine = CmdpInstance(
            inst.states, inst.polytopes,
            {"s": AffineReward([2.0, -1.0], 0.5)}, inst.alpha, inst.constraints,
        )
        vs = enumerate_for_instance(affine)
        fc = build_finite_cmdp(affine, vs)
        expected = sorted(2 * v[0] - v[1] + 0.5 for v in vs.vertices["s"])
        assert sorted(fc.rewards["s"]) == pytest.approx(expected)

    def test_vertex_width_must_match_the_next_layer(self):
        inst = l1_instance()
        # one-wide rows would broadcast through the L1 reward unnoticed
        narrow = VertexSet({"s": np.array([[0.1], [0.9]])})
        with pytest.raises(ValueError, match="state 's'"):
            build_finite_cmdp(inst, narrow)

    @pytest.mark.parametrize("vertices, message", [
        # rows summing to 1 that leave the box [0.1, 0.9]^2 (the second
        # the simplex too); this set used to solve to -2.28
        ({"s": [[0, 1], [5, -4]]}, "vertex 0 of state 's' is not"),
        # inside the box, but the masses sum to 0.8
        ({"s": [[0.1, 0.9], [0.4, 0.4]]}, "vertex 1 of state 's' is not"),
        ({}, "no vertices for state 's'"),
        ({"s": np.zeros((0, 2))}, "state 's' have shape"),
        ({"s": [[0.1, 0.9], [np.nan, 0.5]]}, "state 's' are not all finite"),
    ])
    def test_bad_vertex_sets_are_rejected(self, vertices, message):
        with pytest.raises(ValueError, match=message):
            build_finite_cmdp(l1_instance(), VertexSet(vertices))

    def test_vertex_lists_are_accepted(self):
        inst = l1_instance()
        listed = VertexSet({"s": [[0.1, 0.9], [0.9, 0.1]]})
        value, _ = solve_finite(build_finite_cmdp(inst, listed))
        want, _ = solve_finite(build_finite_cmdp(inst, enumerate_for_instance(inst)))
        assert value == pytest.approx(want, abs=1e-9)

    def test_shared_vertex_cache_tells_shapes_apart(self):
        # s0's polytope (2-D) and s1's (1-D) hold the same numbers in a
        # row: base, H and h flattened read 1, 0, 0.5, 0.2, 0.7 for both
        space = LayeredStateSpace([["s0"], ["s1", "s2"], ["s3"]])
        inst = CmdpInstance(
            space,
            {"s0": ActionPolytope([1, 0], [[0.5, 0.2]], [0.7]),
             "s1": ActionPolytope([1], [[0], [0.5]], [0.2, 0.7]),
             "s2": ActionPolytope([1])},
            {"s0": AffineReward([1.0, 0.0]), "s1": AffineReward([1.0]),
             "s2": AffineReward([1.0])},
            [1.0],
        )
        vs = enumerate_for_instance(inst)
        assert vs.vertices["s0"].shape[1] == 2
        assert vs.vertices["s1"].shape == (1, 1)
        convex = solve(inst, "convex").objective
        assert convex == pytest.approx(2.0, abs=1e-9)
        assert solve(inst, "extreme").objective == pytest.approx(convex, abs=1e-9)

    def test_degenerate_box_single_action(self):
        space = LayeredStateSpace([["s"], ["ok", "bad"]])
        inst = CmdpInstance(
            space,
            {"s": box_polytope([0.5, 0.5], 0.0)},
            {"s": WeightedL1Reward([0.5, 0.5])},
            [1.0],
            [],
        )
        vs = enumerate_for_instance(inst)
        fc = build_finite_cmdp(inst, vs)
        assert fc.vertices["s"].shape == (1, 2)
        assert fc.rewards["s"][0] == pytest.approx(0.0)


class TestSolveFinite:
    def test_l1_vertex_only_value(self):
        # vertex-restricted treatment of the concave L1 reward: both
        # vertices cost 0.8, so the optimum is -0.8 (below the continuous
        # optimum -0.6, which needs the kink refinement)
        inst = l1_instance(0.2)
        obj, pol = solve_finite(
            build_finite_cmdp(inst, enumerate_for_instance(inst))
        )
        assert obj == pytest.approx(-0.8, abs=1e-9)
        report = evaluate_exact(inst, pol)
        assert report.constraint_masses[0] <= 0.2 + 1e-9

    def test_l1_kink_refinement_recovers_continuum(self):
        inst = l1_instance(0.2)
        vs = enumerate_for_instance(inst, kink_planes=True)
        obj, _ = solve_finite(build_finite_cmdp(inst, vs))
        assert obj == pytest.approx(-0.6, abs=1e-9)

    def test_affine_extreme_equals_convex(self):
        # maximize -a2 with the bad-mass cap slack at the box's lower edge
        inst = l1_instance(0.2)
        affine = CmdpInstance(
            inst.states, inst.polytopes,
            {"s": AffineReward([0.0, -1.0], 0.0)}, inst.alpha, inst.constraints,
        )
        obj_f, _ = solve_finite(
            build_finite_cmdp(affine, enumerate_for_instance(affine)),
        )
        obj_c = solve_occupancy(affine).objective
        oracle = brute_force_mixture_value(
            affine, enumerate_for_instance(affine).vertices
        )
        assert obj_f == pytest.approx(-0.1, abs=1e-9)
        assert obj_c == pytest.approx(-0.1, abs=1e-9)
        assert oracle == pytest.approx(-0.1, abs=1e-9)

    def test_slack_bound_gives_deterministic_vertex_policy(self):
        inst = l1_instance(0.95)
        affine = CmdpInstance(
            inst.states, inst.polytopes,
            {"s": AffineReward([1.0, 0.0], 0.0)}, inst.alpha, inst.constraints,
        )
        obj, pol = solve_finite(
            build_finite_cmdp(affine, enumerate_for_instance(affine)),
        )
        assert obj == pytest.approx(0.9, abs=1e-9)
        assert len(pol.mixtures["s"]) == 1
        np.testing.assert_allclose(pol.mixtures["s"][0][1], [0.9, 0.1], atol=1e-9)

    def test_infeasible_cap(self):
        inst = l1_instance(0.05)
        with pytest.raises(QualityInfeasibleError):
            solve_finite(
                build_finite_cmdp(inst, enumerate_for_instance(inst)),
            )

    def test_policy_satisfies_mass_ratio_identity(self):
        inst = l1_instance(0.2)
        obj, pol = solve_finite(
            build_finite_cmdp(inst, enumerate_for_instance(inst))
        )
        report = evaluate_exact(inst, pol)
        assert report.value == pytest.approx(obj, abs=1e-9)

    def test_equivalence_against_convex_and_oracle(self, rng):
        # affine rewards: finite reduction == occupancy LP == mixture oracle
        done = 0
        while done < 8:
            inst = random_instance(rng, max_states=3, reward="affine")
            vs = enumerate_for_instance(inst)
            if np.prod([v.shape[0] for v in vs.vertices.values()]) > 3000:
                continue
            try:
                convex = solve_occupancy(inst).objective
            except QualityInfeasibleError:
                continue
            finite, _ = solve_finite(build_finite_cmdp(inst, vs))
            oracle = brute_force_mixture_value(inst, vs.vertices)
            assert finite == pytest.approx(convex, abs=1e-6)
            assert oracle == pytest.approx(convex, abs=1e-6)
            done += 1

    def test_kinked_l1_equivalence_random(self, rng):
        done = 0
        while done < 6:
            inst = random_instance(rng, max_states=3, max_horizon=3, reward="l1")
            try:
                convex = solve_occupancy(inst).objective
            except QualityInfeasibleError:
                continue
            vs = enumerate_for_instance(inst, kink_planes=True)
            finite, _ = solve_finite(build_finite_cmdp(inst, vs))
            assert finite == pytest.approx(convex, abs=1e-6)
            done += 1


class TestColumnGeneration:
    """solve_finite prices columns into a restricted master; it must land
    on the optimum of the whole LP, or prove the whole LP infeasible."""

    @staticmethod
    def assert_matches_single_lp(inst, vs):
        fc = build_finite_cmdp(inst, vs)
        problem, oracle = single_lp_finite(fc)
        if oracle.status == "infeasible":
            with pytest.raises(QualityInfeasibleError) as err:
                solve_finite(fc)
            excess = farkas_gap(problem, err.value.certificate)
            assert excess > 0.0
            assert excess == pytest.approx(err.value.excess, abs=1e-12)
            assert excess == pytest.approx(farkas_gap(problem, oracle.certificate),
                                           abs=1e-9)
            return
        obj, pol = solve_finite(fc)
        assert obj == pytest.approx(oracle.objective, abs=1e-9)
        assert evaluate_exact(inst, pol).value == pytest.approx(obj, abs=1e-9)

    @pytest.mark.parametrize("n", [10, 14, 20])
    def test_quadratic_loans_match_single_lp(self, n):
        inst = generate_loan_instance(LoanConfig(n_states=n, reward_kind="quad_convex"))
        vs = enumerate_for_instance(inst, method="auto")
        assert max(vertex_counts(vs).values()) > COLUMNS_PER_STATE
        self.assert_matches_single_lp(inst, vs)

    def test_master_grown_to_every_column(self):
        # 11 actions, the one that avoids the capped state paying least:
        # the seeded top 10 miss the cap, pricing adds the last one, and
        # the master ends up holding every column, in its own order
        inst = CmdpInstance(
            LayeredStateSpace([["s0"], ["t0", "t1"]]),
            {"s0": box_polytope([0.5, 0.5], 0.5)},
            {"s0": AffineReward([10.0, 0.0], 1.0)},
            np.array([1.0]),
            [QualityConstraint({"t0"}, 0.05)],
        )
        j = np.arange(COLUMNS_PER_STATE + 1) / COLUMNS_PER_STATE
        self.assert_matches_single_lp(inst, VertexSet({"s0": np.column_stack([j, 1 - j])}))

    def test_l1_loan_with_kink_planes_matches_single_lp(self):
        inst = generate_loan_instance(LoanConfig(n_states=5, reward_kind="l1"))
        vs = enumerate_for_instance(inst, kink_planes=True)
        assert max(vertex_counts(vs).values()) > COLUMNS_PER_STATE
        self.assert_matches_single_lp(inst, vs)

    def test_random_instances_match_single_lp(self, rng):
        priced = 0
        for _ in range(24):
            inst = random_instance(rng, max_states=6, reward="affine")
            vs = enumerate_for_instance(inst)
            priced += max(vertex_counts(vs).values()) > COLUMNS_PER_STATE
            self.assert_matches_single_lp(inst, vs)
        assert priced >= 8

    def test_infeasible_cap_certifies_the_whole_lp(self):
        inst = generate_loan_instance(LoanConfig(n_states=10, reward_kind="quad_convex"))
        # every path passes layer 2, so half its mass is always in excess
        cap = QualityConstraint(set(inst.states.layers[2]), 0.5)
        inst = CmdpInstance(inst.states, inst.polytopes, inst.rewards,
                            inst.alpha, [cap])
        fc = build_finite_cmdp(inst, enumerate_for_instance(inst, method="auto"))
        problem, _ = single_lp_finite(fc)
        for route in (lambda: solve_finite(fc), lambda: solve_with_envelope(inst)):
            with pytest.raises(QualityInfeasibleError) as err:
                route()
            assert err.value.excess == pytest.approx(0.5, abs=1e-9)
            assert farkas_gap(problem, err.value.certificate) == pytest.approx(
                0.5, abs=1e-9)

    def test_zero_time_limit_times_out(self):
        inst = generate_loan_instance(LoanConfig(n_states=16, reward_kind="quad_convex"))
        fc = build_finite_cmdp(inst, enumerate_for_instance(inst, method="auto"))
        with pytest.raises(TimeoutError):
            solve_finite(fc, time_limit=0)


class TestAgainstLoopAssembly:
    """The occupancy assembler, given vertex blocks, builds the same
    finite-action LP as the state-by-state assembly of the vertex arrays."""

    @staticmethod
    def assert_same_lp(inst, vs):
        fc = build_finite_cmdp(inst, vs)
        got, want = assemble_lp(inst, finite=fc), loop_finite_lp(fc)
        for name in ("a_eq", "a_in"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape
            np.testing.assert_allclose(a.toarray(), np.asarray(
                b.toarray() if hasattr(b, "toarray") else b), rtol=0, atol=1e-12)
        for name in ("c", "b_eq", "b_in"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_quadratic_loan(self):
        inst = generate_loan_instance(LoanConfig(n_states=10, reward_kind="quad_convex"))
        self.assert_same_lp(inst, enumerate_for_instance(inst, method="auto"))

    def test_l1_loan_with_kink_planes(self):
        inst = generate_loan_instance(LoanConfig(n_states=5, reward_kind="l1"))
        self.assert_same_lp(inst, enumerate_for_instance(inst, kink_planes=True))

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_affine_loans(self, n):
        inst = generate_loan_instance(LoanConfig(n_states=n, reward_kind="affine"))
        self.assert_same_lp(inst, enumerate_for_instance(inst))

    def test_random_instances(self, rng):
        for _ in range(24):
            inst = random_instance(rng, max_states=6, reward="affine")
            self.assert_same_lp(inst, enumerate_for_instance(inst))


class TestConversions:
    def test_mix_to_point_example(self):
        pol = RandomizedPolicy({"s": [(0.6, [1.0, 0.0]), (0.4, [0.0, 1.0])]})
        det = mix_to_point(pol)
        np.testing.assert_allclose(det.actions["s"], [0.6, 0.4], atol=1e-12)

    def test_single_atom_identity(self):
        pol = RandomizedPolicy({"s": [(1.0, [0.3, 0.7])]})
        np.testing.assert_allclose(mix_to_point(pol).actions["s"], [0.3, 0.7])

    def test_centroid_of_unit_vectors(self):
        pol = RandomizedPolicy(
            {"s": [(1 / 3, np.eye(3)[k]) for k in range(3)]}
        )
        np.testing.assert_allclose(
            mix_to_point(pol).actions["s"], [1 / 3] * 3, atol=1e-12
        )

    def test_point_to_mix_examples(self):
        pairs = point_to_mix([0.6, 0.4], [[1.0, 0.0], [0.0, 1.0]])
        weights = {tuple(v): w for w, v in pairs}
        assert weights[(1.0, 0.0)] == pytest.approx(0.6, abs=1e-9)
        assert weights[(0.0, 1.0)] == pytest.approx(0.4, abs=1e-9)

        pairs = point_to_mix([0.9, 0.1], [[0.9, 0.1], [0.1, 0.9]])
        assert len(pairs) == 1 and pairs[0][0] == pytest.approx(1.0)

        pairs = point_to_mix([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]])
        assert sorted(w for w, _ in pairs) == pytest.approx([0.5, 0.5])

    def test_point_outside_hull_raises(self, monkeypatch):
        calls = []
        solve_highs = lpmod._solve_highs

        def counted(*args):
            calls.append(args)
            return solve_highs(*args)

        monkeypatch.setattr(lpmod, "_solve_highs", counted)
        with pytest.raises(DecompositionError):
            point_to_mix([0.0, 1.0], [[0.9, 0.1], [0.5, 0.5]])
        # the rejection needs no phase-1 certificate solve
        assert len(calls) == 1

    def test_roundtrip_identity(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            poly = box_polytope(rng.dirichlet(np.ones(n)), 0.3)
            verts = enumerate_vertices(poly)
            lam = rng.dirichlet(np.ones(len(verts)))
            a = lam @ verts
            pairs = point_to_mix(a, verts)
            assert len(pairs) <= n
            back = sum(w * v for w, v in pairs)
            np.testing.assert_allclose(back, a, atol=1e-8)
