import numpy as np
import pytest

from helpers import random_instance

from modcmdp import (
    ActionPolytope,
    AffineReward,
    CmdpInstance,
    DecompositionError,
    DeterministicPolicy,
    LayeredStateSpace,
    QualityConstraint,
    QuadraticDeviationReward,
    WeightedL1Reward,
    box_polytope,
    build_envelope,
    enumerate_for_instance,
    envelope_value,
    evaluate_exact,
    hull_envelope,
    mix_to_point,
    naive_linear_baseline,
    solve_finite,
    build_finite_cmdp,
    solve_occupancy,
    solve_with_envelope,
    VertexSet,
)


def square_reward_instance(bound=None):
    """One decision state, full 2-simplex actions, reward = (mass on the
    second terminal state)^2."""
    space = LayeredStateSpace([["s"], ["s1", "s2"]])
    constraints = [] if bound is None else [QualityConstraint({"s2"}, bound)]
    return CmdpInstance(
        space,
        {"s": ActionPolytope([1.0, 0.0])},
        {"s": QuadraticDeviationReward([0.0, 0.0], convex=True, weights=[0.0, 1.0])},
        [1.0],
        constraints,
    )


class TestEnvelopeValue:
    def test_square_reward_at_interior_point(self):
        inst = square_reward_instance()
        model = build_envelope(inst)
        value, lam = envelope_value(model, "s", [0.6, 0.4])
        assert value == pytest.approx(0.4, abs=1e-9)
        weights = {tuple(np.round(v, 9)): w
                   for v, w in zip(model.vertices["s"], lam)}
        assert weights[(0.0, 1.0)] == pytest.approx(0.4, abs=1e-9)
        assert weights[(1.0, 0.0)] == pytest.approx(0.6, abs=1e-9)
        # the direct reward is dominated
        assert inst.rewards["s"].value([0.6, 0.4]) == pytest.approx(0.16)

    def test_given_vertex_set_is_checked(self):
        inst = square_reward_instance()
        with pytest.raises(ValueError, match="vertex 1 of state 's'"):
            build_envelope(inst, VertexSet({"s": [[0, 1], [5, -4]]}))
        with pytest.raises(ValueError, match="no vertices for state 's'"):
            build_envelope(inst, VertexSet({}))

    def test_vertex_gives_source_reward(self):
        inst = square_reward_instance()
        model = build_envelope(inst)
        value, lam = envelope_value(model, "s", [0.0, 1.0])
        assert value == pytest.approx(1.0, abs=1e-9)
        assert np.max(lam) == pytest.approx(1.0, abs=1e-9)

    def test_dominance_and_concavity(self, rng):
        inst = square_reward_instance()
        model = build_envelope(inst)
        rew = inst.rewards["s"]
        points = [np.array([x, 1 - x]) for x in rng.uniform(0, 1, size=12)]
        vals = {}
        for a in points:
            v, _ = envelope_value(model, "s", a)
            assert v >= rew.value(a) - 1e-9
            vals[tuple(a)] = v
        for a in points[:6]:
            for b in points[6:]:
                mid = (a + b) / 2
                vmid, _ = envelope_value(model, "s", mid)
                assert vmid >= (vals[tuple(a)] + vals[tuple(b)]) / 2 - 1e-9

    def test_outside_hull_raises(self):
        inst = square_reward_instance()
        model = build_envelope(inst)
        with pytest.raises(DecompositionError):
            envelope_value(model, "s", [1.5, -0.5])

    def test_unit_square_envelope_grid(self):
        # f(x, y) = x^2 + 2 y^2 - x y + 2 - x - y over the unit square has
        # the piecewise-linear envelope min(y + 2, -x + 3) generated by the
        # four corners
        def f(x, y):
            return x * x + 2 * y * y - x * y + 2 - x - y

        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        values = np.array([f(x, y) for x, y in corners])
        for x in np.linspace(0, 1, 21):
            for y in np.linspace(0, 1, 21):
                got, _ = hull_envelope(corners, values, [x, y])
                assert got == pytest.approx(min(y + 2, -x + 3), abs=1e-6)


class TestSolveWithEnvelope:
    def test_capped_square_reward(self):
        inst = square_reward_instance(bound=0.4)
        obj, pol = solve_with_envelope(inst)
        assert obj == pytest.approx(0.4, abs=1e-9)
        weights = {tuple(np.round(a, 9)): w for w, a in pol.mixtures["s"]}
        assert weights[(0.0, 1.0)] == pytest.approx(0.4, abs=1e-9)
        assert weights[(1.0, 0.0)] == pytest.approx(0.6, abs=1e-9)

    def test_uncapped_square_reward_goes_to_vertex(self):
        inst = square_reward_instance()
        obj, pol = solve_with_envelope(inst)
        assert obj == pytest.approx(1.0, abs=1e-9)
        assert len(pol.mixtures["s"]) == 1
        np.testing.assert_allclose(pol.mixtures["s"][0][1], [0.0, 1.0], atol=1e-9)

    def test_affine_reward_matches_finite_solver(self, rng):
        for _ in range(5):
            inst = random_instance(rng, max_states=3, reward="affine")
            try:
                obj_env, _ = solve_with_envelope(inst)
            except Exception:
                continue
            vs = enumerate_for_instance(inst)
            obj_fin, _ = solve_finite(build_finite_cmdp(inst, vs))
            assert obj_env == pytest.approx(obj_fin, abs=1e-8)

    def test_concave_rewards_rejected(self):
        inst = square_reward_instance()
        bad = CmdpInstance(
            inst.states, inst.polytopes,
            {"s": WeightedL1Reward([0.5, 0.5])}, inst.alpha, inst.constraints,
        )
        with pytest.raises(ValueError, match="convex"):
            solve_with_envelope(bad)

    def test_transition_consistency_with_exact_evaluator(self):
        inst = square_reward_instance(bound=0.4)
        obj, pol = solve_with_envelope(inst)
        report = evaluate_exact(inst, pol)
        # the randomized policy achieves the envelope value in the original
        # problem, and its marginal transitions match the envelope LP's
        assert report.value == pytest.approx(obj, abs=1e-8)
        marginal = mix_to_point(pol)
        rep2 = evaluate_exact(inst, marginal)
        np.testing.assert_allclose(
            [rep2.visit_mass[s] for s in ("s1", "s2")],
            [report.visit_mass[s] for s in ("s1", "s2")],
            atol=1e-8,
        )


class TestNaiveLinearBaseline:
    def test_quadratic_centered_at_base_returns_zero(self):
        space = LayeredStateSpace([["s"], ["ok", "bad"]])
        poly = box_polytope([0.5, 0.5], 0.4)
        inst = CmdpInstance(
            space,
            {"s": poly},
            {"s": QuadraticDeviationReward([0.5, 0.5], convex=True)},
            [1.0],
            [QualityConstraint({"bad"}, 0.6)],
        )
        obj, pol = naive_linear_baseline(inst)
        assert obj == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(pol.actions["s"], [0.5, 0.5], atol=1e-12)

    def test_affine_baseline_is_exact(self, rng):
        for _ in range(5):
            inst = random_instance(rng, max_states=3, reward="affine")
            try:
                exact = solve_occupancy(inst).objective
            except Exception:
                continue
            obj, _ = naive_linear_baseline(inst)
            assert obj == pytest.approx(exact, abs=1e-8)

    def test_zero_time_limit_times_out(self):
        with pytest.raises(TimeoutError):
            naive_linear_baseline(square_reward_instance(bound=0.4), time_limit=0)

    def test_envelope_dominates_baseline(self):
        inst = square_reward_instance(bound=0.4)
        env_obj, _ = solve_with_envelope(inst)
        naive_obj, _ = naive_linear_baseline(inst)
        assert env_obj >= naive_obj - 1e-12


class TestRandomizedVsDeterministicGap:
    def test_example_gap(self):
        inst = square_reward_instance(bound=0.4)
        _, pol = solve_with_envelope(inst)
        randomized = evaluate_exact(inst, pol).value
        deterministic = evaluate_exact(
            inst, DeterministicPolicy({"s": pol.action_marginal("s")})
        ).value
        assert randomized == pytest.approx(0.4, abs=1e-9)
        assert deterministic == pytest.approx(0.16, abs=1e-9)
