import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import sample_specs

from modcmdp import (
    ActionPolytope,
    AffineReward,
    CmdpInstance,
    DeterministicPolicy,
    LayeredStateSpace,
    LoanConfig,
    QualityConstraint,
    QuadraticDeviationReward,
    RandomizedPolicy,
    WeightedL1Reward,
    box_polytope,
    enumerate_vertices,
    generate_loan_instance,
    solve,
    validate,
)
from modcmdp.model import FEAS_TOL
from modcmdp.vertices import VERTEX_FEAS_TOL


def tiny_instance(bound=0.2, eps=0.4):
    space = LayeredStateSpace([["s"], ["ok", "bad"]])
    poly = box_polytope([0.5, 0.5], eps)
    return CmdpInstance(
        space,
        {"s": poly},
        {"s": WeightedL1Reward([0.5, 0.5])},
        [1.0],
        [QualityConstraint({"bad"}, bound)],
    )


class TestLayeredStateSpace:
    def test_positions(self):
        space = LayeredStateSpace([["a"], ["b", "c"], ["d"]])
        assert space.horizon == 3
        assert space.position("c") == (1, 1)
        assert list(space.nonterminal()) == ["a", "b", "c"]
        assert "d" in space and "zz" not in space

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            LayeredStateSpace([["a"], ["a"]])

    def test_empty_layer_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            LayeredStateSpace([["a"], []])

    def test_single_layer_rejected(self):
        with pytest.raises(ValueError, match="2 layers"):
            LayeredStateSpace([["a"]])


class TestBoxPolytope:
    def test_degenerate_box_only_contains_base(self):
        poly = box_polytope([0.5, 0.5], 0.0)
        assert poly.contains([0.5, 0.5])
        assert not poly.contains([0.51, 0.49])

    def test_two_dim_interval(self):
        poly = box_polytope([0.5, 0.5], 0.4)
        assert poly.contains([0.1, 0.9]) and poly.contains([0.9, 0.1])
        assert not poly.contains([0.05, 0.95])
        assert not poly.contains([0.95, 0.05])

    def test_lower_bound_clipped_at_zero(self):
        poly = box_polytope([1 / 3, 1 / 3, 1 / 3], 0.4)
        # upper bounds 1/3 + 0.4, lower bounds clipped to 0
        assert np.allclose(poly.h[:3], 1 / 3 + 0.4)
        assert np.allclose(poly.h[3:], 0.0)
        assert poly.contains([0.0, 1 / 3 + 0.4, 1 - 1 / 3 - 0.4])

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            box_polytope([0.5, 0.5], -0.1)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_epsilon_rejected(self, eps):
        with pytest.raises(ValueError, match="epsilon must be a finite number >= 0"):
            box_polytope([0.5, 0.5], eps)

    def test_non_distribution_base_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            box_polytope([0.6, 0.6], 0.1)

    @given(st.integers(2, 6), st.floats(1.0, 3.0), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_wide_box_equals_simplex(self, n, eps, seed):
        rng = np.random.default_rng(seed)
        base = rng.dirichlet(np.ones(n))
        poly = box_polytope(base, eps)
        for _ in range(10):
            a = rng.dirichlet(np.ones(n))
            assert poly.contains(a)

    def test_base_always_feasible(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 8))
            base = rng.dirichlet(np.ones(n))
            eps = float(rng.uniform(0, 1))
            poly = box_polytope(base, eps)
            assert poly.contains(poly.base)

    def test_box_reads_box_rows_only(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 8))
            base, eps = rng.dirichlet(np.ones(n)), float(rng.uniform(0, 1))
            poly = box_polytope(base, eps)
            lo, up = poly.box
            assert poly.box is poly.box
            np.testing.assert_array_equal(lo, np.clip(-poly.h[n:], 0.0, None))
            np.testing.assert_array_equal(up, poly.h[:n])
            np.testing.assert_array_equal(lo, np.clip(base - eps, 0.0, None))
            assert poly.implied_nonnegative.all()
        eye = np.eye(2)
        for H in (None, [[1.0, 1.0]], np.vstack([-eye, eye]),
                  np.vstack([eye, -2 * eye]), np.vstack([eye, -eye, -eye])):
            H = None if H is None else np.asarray(H)
            h = None if H is None else np.ones(H.shape[0])
            assert ActionPolytope([0.5, 0.5], H, h).box is None

    def test_implied_nonnegative_needs_a_lone_negative_row_with_h_at_most_0(self):
        poly = ActionPolytope([0.5, 0.5, 0.0], [[1, 1, 0], [-2, 0, 0], [0, -1, 0], [0, 0, 3],
                                                [0, 0, -1]], [1.5, 0.0, 0.1, 1.0, -0.0])
        np.testing.assert_array_equal(poly.implied_nonnegative, [True, False, True])
        assert not ActionPolytope([1.0]).implied_nonnegative.any()

    def test_key_is_the_content(self):
        a, b = box_polytope([0.5, 0.5], 0.1), box_polytope([0.5, 0.5], 0.1)
        assert a is not b and a.key == b.key
        assert a.key != box_polytope([0.5, 0.5], 0.2).key

    def test_arrays_immutable(self):
        poly = box_polytope([0.5, 0.5], 0.1)
        with pytest.raises(ValueError):
            poly.base[0] = 1.0
        with pytest.raises(ValueError):
            poly.H[0, 0] = 2.0


def probe_rows(rng, poly, k=40):
    """Rows in, on and around a polytope: its base and vertices, the
    vertices nudged along the simplex by about the tolerances, simplex
    points and rows off the simplex."""
    n = poly.dim
    verts = enumerate_vertices(poly, method="auto")
    step = rng.choice([-2e-8, -5e-9, -5e-10, 0.0, 5e-10, 5e-9, 2e-8], size=(k, n))
    nudged = verts[rng.integers(0, len(verts), k)] + step - step.mean(axis=1, keepdims=True)
    return np.vstack([
        poly.base,
        verts,
        nudged,
        rng.dirichlet(np.ones(n), size=k),
        rng.uniform(-0.2, 1.0, size=(k, n)),
    ])


def random_general_polytope(rng, n):
    """A polytope of random rows H a <= h whose slack at the base is drawn
    at random, so the base stays inside."""
    base = rng.dirichlet(np.ones(n))
    H = rng.normal(size=(int(rng.integers(1, 2 * n + 1)), n))
    return ActionPolytope(base, H, H @ base + rng.uniform(0.0, 0.3, size=H.shape[0]))


class TestRewardKeys:
    def test_key_is_the_content(self):
        c, w = [0.25, 0.75], [1.0, 2.0]
        for make in (lambda c: AffineReward(c, 0.5), lambda c: WeightedL1Reward(c, w),
                     lambda c: QuadraticDeviationReward(c, True, w)):
            a, b = make(c), make(list(c))
            assert a is not b and a.key == b.key
            assert make([0.75, 0.25]).key != a.key
        # the class is part of the key, and so is every field
        assert WeightedL1Reward(c, w).key != QuadraticDeviationReward(c, False, w).key
        assert (QuadraticDeviationReward(c, False, w).key
                != QuadraticDeviationReward(c, True, w).key)
        assert AffineReward(c, 0.0).key != AffineReward(c, -0.0).key


class TestBatches:
    def test_reward_value_of_a_batch_is_the_value_of_each_row(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            rows = rng.uniform(-0.5, 1.5, size=(int(rng.integers(1, 9)), n))
            for spec in sample_specs(rng, n):
                batch = spec.value(rows)
                assert batch.shape == (rows.shape[0],)
                one_by_one = [spec.value(a) for a in rows]
                assert all(isinstance(v, float) for v in one_by_one)
                np.testing.assert_allclose(batch, one_by_one, rtol=1e-13, atol=1e-13)

    def test_contains_and_margin_of_a_batch_match_each_row(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            base = rng.dirichlet(np.ones(n))
            for poly in (
                box_polytope(base, float(rng.uniform(0.05, 0.6))),
                random_general_polytope(rng, n),
                ActionPolytope(base),
            ):
                rows = probe_rows(rng, poly)
                np.testing.assert_allclose(
                    poly.margin(rows), [poly.margin(a) for a in rows],
                    rtol=0.0, atol=1e-15,
                )
                for tol in (FEAS_TOL, VERTEX_FEAS_TOL):
                    inside = poly.contains(rows, tol)
                    assert inside.dtype == bool and inside.shape == (rows.shape[0],)
                    assert inside.tolist() == [poly.contains(a, tol) for a in rows]
                    assert 0 < inside.sum() < rows.shape[0]

    def test_quadratic_gradient_matches_central_differences(self, rng):
        h = 1e-6
        for convex in (False, True):
            for _ in range(10):
                n = int(rng.integers(2, 6))
                spec = QuadraticDeviationReward(
                    rng.dirichlet(np.ones(n)), convex=convex,
                    weights=rng.uniform(0.1, 2.0, size=n),
                )
                a = rng.dirichlet(np.ones(n))
                fd = [(spec.value(a + e) - spec.value(a - e)) / (2 * h)
                      for e in np.eye(n) * h]
                t = spec.tangent(a)
                np.testing.assert_allclose(t.e, fd, rtol=0.0, atol=1e-7)
                assert t.value(a) == pytest.approx(spec.value(a), abs=1e-12)


class TestValidate:
    def test_valid_instance_passes(self):
        assert validate(tiny_instance()) == []

    def test_alpha_normalization_failure(self):
        space = LayeredStateSpace([["a", "b"], ["c"]])
        inst = CmdpInstance(
            space,
            {"a": ActionPolytope([1.0]), "b": ActionPolytope([1.0])},
            {"a": AffineReward([0.0]), "b": AffineReward([0.0])},
            [0.6, 0.6],
            [],
        )
        report = validate(inst)
        assert any("alpha sums to 1.2" in v for v in report)

    def test_base_outside_own_polytope(self):
        # box centered away from the base distribution
        base = np.array([0.5, 0.5])
        eye = np.eye(2)
        H = np.vstack([eye, -eye])
        h = np.concatenate([[0.2 + 0.05, 0.8 + 0.05], [-(0.2 - 0.05), -(0.8 - 0.05)]])
        poly = ActionPolytope(base, H, h)
        space = LayeredStateSpace([["s"], ["ok", "bad"]])
        inst = CmdpInstance(
            space, {"s": poly}, {"s": AffineReward([0.0, 0.0])}, [1.0], []
        )
        report = validate(inst)
        assert any("outside its own polytope" in v for v in report)

    def test_missing_polytope_and_reward(self):
        space = LayeredStateSpace([["s"], ["t"]])
        inst = CmdpInstance(space, {}, {}, [1.0], [])
        report = validate(inst)
        assert any("no action polytope" in v for v in report)
        assert any("no reward" in v for v in report)

    def test_constraint_checks(self):
        inst = tiny_instance()
        bad = CmdpInstance(
            inst.states,
            inst.polytopes,
            inst.rewards,
            inst.alpha,
            [QualityConstraint({"nope"}, -0.5)],
        )
        report = validate(bad)
        assert any("unknown states" in v for v in report)
        assert any("negative bound" in v for v in report)

    def test_idempotent(self):
        inst = tiny_instance()
        assert validate(inst) == validate(inst) == []

    NAN, INF = float("nan"), float("inf")

    @pytest.mark.parametrize("change, message", [
        pytest.param({"alpha": [NAN]}, "alpha has non-finite entries", id="alpha"),
        pytest.param({"poly": ActionPolytope([NAN, 0.5])},
                     "base of 's' has non-finite entries", id="base"),
        pytest.param({"poly": ActionPolytope([0.5, 0.5], [[NAN, 0.0]], [1.0])},
                     "H of 's' has non-finite entries", id="H"),
        pytest.param({"poly": ActionPolytope([0.5, 0.5], [[1.0, 0.0]], [INF])},
                     "h of 's' has non-finite entries", id="h"),
        pytest.param({"reward": WeightedL1Reward([0.5, 0.5], [NAN, 1.0])},
                     "reward of 's' has non-finite parameters", id="l1-weights"),
        pytest.param({"reward": WeightedL1Reward([NAN, 0.5])},
                     "reward of 's' has non-finite parameters", id="l1-center"),
        pytest.param({"reward": AffineReward([INF, 0.0])},
                     "reward of 's' has non-finite parameters", id="affine-e"),
        pytest.param({"reward": AffineReward([0.0, 0.0], NAN)},
                     "reward of 's' has non-finite parameters", id="affine-f"),
        pytest.param({"reward": QuadraticDeviationReward([0.5, 0.5], weights=[1.0, INF])},
                     "reward of 's' has non-finite parameters", id="quadratic-weights"),
        pytest.param({"bound": NAN}, "constraint 0 has non-finite bound nan", id="cap-nan"),
        pytest.param({"bound": INF}, "constraint 0 has non-finite bound inf", id="cap-inf"),
    ])
    def test_non_finite_data_is_named(self, change, message):
        inst = tiny_instance()
        bad = CmdpInstance(
            inst.states,
            {"s": change.get("poly", inst.polytopes["s"])},
            {"s": change.get("reward", inst.rewards["s"])},
            change.get("alpha", inst.alpha),
            [QualityConstraint({"bad"}, change.get("bound", 0.2))],
        )
        assert validate(bad) == [message]


class TestFrozenInstance:
    """An instance cannot change after construction, so its verdict is
    decided once; a pickled or copied one is rebuilt and decides its own."""

    def test_mappings_are_read_only(self):
        polytopes = {"s": box_polytope([0.5, 0.5], 0.4)}
        inst = CmdpInstance(LayeredStateSpace([["s"], ["ok", "bad"]]), polytopes,
                            {"s": WeightedL1Reward([0.5, 0.5])}, [1.0])
        with pytest.raises(TypeError):
            inst.polytopes["s"] = box_polytope([0.5, 0.5], 0.1)
        with pytest.raises(TypeError):
            inst.rewards["s"] = AffineReward([0.0, 0.0])
        polytopes.clear()  # the instance keeps its own copy
        assert inst.violations == () and set(inst.polytopes) == {"s"}

    def test_violations_name_every_message(self):
        inst = tiny_instance()
        bad = CmdpInstance(inst.states, inst.polytopes, inst.rewards, inst.alpha,
                           [QualityConstraint({"nope"}, -0.5)])
        assert bad.violations == tuple(validate(bad))
        assert len(bad.violations) == 2

    # the objectives of the original loans, pinned
    @pytest.mark.parametrize("kind, method, q, objective", [
        ("l1", "convex", 0.02, -1.2282808974775676),
        ("quad_convex", "envelope", 0.04, 1.9560360295522905),
    ])
    @pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_copies_solve_alike(self, kind, method, q, objective, clone):
        inst = generate_loan_instance(LoanConfig(n_states=5, q_default=q, reward_kind=kind))
        assert inst.violations == ()
        twin = clone(inst)
        assert "violations" not in vars(twin)
        assert not twin.polytopes["t1_l1"].base.flags.writeable
        with pytest.raises(TypeError):
            twin.rewards["t1_l1"] = None
        assert solve(twin, method).objective == pytest.approx(objective, abs=1e-9)
        assert solve(inst, method).objective == pytest.approx(objective, abs=1e-9)


class TestPolicies:
    def test_deterministic_check(self):
        inst = tiny_instance()
        good = DeterministicPolicy({"s": [0.8, 0.2]})
        assert good.check(inst) == []
        bad = DeterministicPolicy({"s": [0.05, 0.95]})
        assert any("infeasible" in v for v in bad.check(inst))
        missing = DeterministicPolicy({})
        assert any("missing" in v for v in missing.check(inst))

    def test_randomized_check_and_marginal(self):
        inst = tiny_instance()
        pol = RandomizedPolicy({"s": [(0.5, [0.9, 0.1]), (0.5, [0.1, 0.9])]})
        assert pol.check(inst) == []
        assert np.allclose(pol.action_marginal("s"), [0.5, 0.5])
        lopsided = RandomizedPolicy({"s": [(0.7, [0.9, 0.1]), (0.5, [0.1, 0.9])]})
        assert any("sum to" in v for v in lopsided.check(inst))

    def test_expected_reward_is_mixture_average(self):
        rew = WeightedL1Reward([0.5, 0.5])
        pol = RandomizedPolicy({"s": [(0.5, [0.9, 0.1]), (0.5, [0.1, 0.9])]})
        # each atom costs 0.8, the marginal (0.5, 0.5) costs 0
        assert pol.expected_reward("s", rew) == pytest.approx(-0.8)
        det = DeterministicPolicy({"s": pol.action_marginal("s")})
        assert det.expected_reward("s", rew) == pytest.approx(0.0)

    @pytest.mark.parametrize("actions", [
        {"s": [0.8, 0.2]},
        {"s": [0.05, 0.95]},
        {"s": [0.6, 0.3]},
        {},
        {"s": [0.5, 0.5], "ok": [1.0]},
    ])
    def test_deterministic_is_the_one_atom_mixture(self, actions):
        inst = tiny_instance()
        det = DeterministicPolicy(actions)
        mix = RandomizedPolicy({s: [(1.0, a)] for s, a in actions.items()})
        assert isinstance(det, RandomizedPolicy)
        assert det.check(inst) == mix.check(inst)
        for s in actions:
            np.testing.assert_array_equal(det.actions[s], actions[s])
            np.testing.assert_array_equal(det.action_marginal(s), mix.action_marginal(s))
            if s in inst.rewards:
                rew = inst.rewards[s]
                assert det.expected_reward(s, rew) == mix.expected_reward(s, rew)
