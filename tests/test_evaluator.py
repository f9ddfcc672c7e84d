import numpy as np
import pytest

from helpers import random_instance

import modcmdp.model as model
from modcmdp import (
    METHODS,
    ActionPolytope,
    CmdpInstance,
    DeterministicPolicy,
    LayeredStateSpace,
    LoanConfig,
    QualityConstraint,
    QuadraticDeviationReward,
    RandomizedPolicy,
    WeightedL1Reward,
    box_polytope,
    evaluate_exact,
    extract_policy,
    generate_loan_instance,
    mix_to_point,
    simulate,
    solve,
    solve_occupancy,
)
from modcmdp.cli import main
from modcmdp.fileio import dump_json, problem_to_json


def chain_instance():
    """Three layers of two states; the policy walks a deterministic chain
    a -> c -> f with probability one."""
    space = LayeredStateSpace([["a", "b"], ["c", "d"], ["e", "f"]])
    poly = ActionPolytope([0.5, 0.5])
    inst = CmdpInstance(
        space,
        {s: poly for s in ("a", "b", "c", "d")},
        {s: WeightedL1Reward([0.5, 0.5]) for s in ("a", "b", "c", "d")},
        [1.0, 0.0],
        [],
    )
    policy = DeterministicPolicy(
        {"a": [1.0, 0.0], "b": [1.0, 0.0], "c": [0.0, 1.0], "d": [0.0, 1.0]}
    )
    return inst, policy


def square_instance():
    space = LayeredStateSpace([["s"], ["s1", "s2"]])
    return CmdpInstance(
        space,
        {"s": ActionPolytope([1.0, 0.0])},
        {"s": QuadraticDeviationReward([0.0, 0.0], convex=True, weights=[0.0, 1.0])},
        [1.0],
        [],
    )


class TestExact:
    def test_indicator_chain(self):
        inst, policy = chain_instance()
        report = evaluate_exact(inst, policy)
        assert report.visit_mass == pytest.approx(
            {"a": 1.0, "b": 0.0, "c": 1.0, "d": 0.0, "e": 0.0, "f": 1.0}
        )

    def test_base_policy_l1_return_is_zero(self):
        space = LayeredStateSpace([["s"], ["ok", "bad"]])
        poly = box_polytope([0.7, 0.3], 0.2)
        inst = CmdpInstance(
            space, {"s": poly}, {"s": WeightedL1Reward([0.7, 0.3])}, [1.0], []
        )
        report = evaluate_exact(inst, DeterministicPolicy({"s": [0.7, 0.3]}))
        assert report.value == 0.0

    def test_randomized_reward_is_mixture_average(self):
        inst = square_instance()
        randomized = RandomizedPolicy(
            {"s": [(0.6, [1.0, 0.0]), (0.4, [0.0, 1.0])]}
        )
        assert evaluate_exact(inst, randomized).value == pytest.approx(0.4)
        merged = DeterministicPolicy({"s": [0.6, 0.4]})
        assert evaluate_exact(inst, merged).value == pytest.approx(0.16)

    def test_constraint_reporting(self):
        space = LayeredStateSpace([["s"], ["ok", "bad"]])
        poly = box_polytope([0.5, 0.5], 0.4)
        inst = CmdpInstance(
            space, {"s": poly}, {"s": WeightedL1Reward([0.5, 0.5])}, [1.0],
            [QualityConstraint({"bad"}, 0.3)],
        )
        good = evaluate_exact(inst, DeterministicPolicy({"s": [0.8, 0.2]}))
        assert good.feasible
        assert good.constraint_slacks[0] == pytest.approx(0.1)
        bad = evaluate_exact(inst, DeterministicPolicy({"s": [0.6, 0.4]}))
        assert not bad.feasible

    def test_infeasible_policy_rejected(self):
        inst, _ = chain_instance()
        with pytest.raises(ValueError, match="infeasible policy"):
            evaluate_exact(inst, DeterministicPolicy({"a": [2.0, -1.0]}))

    def test_layer_masses_sum_to_one(self, rng):
        for _ in range(10):
            inst = random_instance(rng, reward="l1", constraint_chance=0.0)
            policy = DeterministicPolicy(
                {s: inst.polytopes[s].base for s in inst.states.nonterminal()}
            )
            report = evaluate_exact(inst, policy)
            for layer in inst.states.layers:
                total = sum(report.visit_mass[s] for s in layer)
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_jensen_direction(self, rng):
        # concave rewards: merging a mixture into its mean action can only
        # help; convex rewards: it can only hurt
        inst = square_instance()
        mix = RandomizedPolicy({"s": [(0.5, [0.9, 0.1]), (0.5, [0.1, 0.9])]})
        det = mix_to_point(mix)
        assert (
            evaluate_exact(inst, det).value
            <= evaluate_exact(inst, mix).value + 1e-12
        )
        concave = CmdpInstance(
            inst.states, inst.polytopes,
            {"s": WeightedL1Reward([0.5, 0.5])}, inst.alpha, [],
        )
        assert (
            evaluate_exact(concave, det).value
            >= evaluate_exact(concave, mix).value - 1e-12
        )


class TestSimulate:
    def test_chain_has_zero_variance(self):
        inst, policy = chain_instance()
        report = simulate(inst, policy, trajectories=2000, seed=7)
        assert report.visit_mass["f"] == 1.0
        assert report.visit_mass["e"] == 0.0
        assert report.std_error == 0.0

    def test_seed_determinism_bit_identical(self):
        import json

        from modcmdp.fileio import report_to_json

        inst = square_instance()
        policy = RandomizedPolicy({"s": [(0.6, [1.0, 0.0]), (0.4, [0.0, 1.0])]})
        a = simulate(inst, policy, trajectories=5000, seed=123)
        b = simulate(inst, policy, trajectories=5000, seed=123)
        assert json.dumps(report_to_json(a)) == json.dumps(report_to_json(b))

    def test_different_seeds_differ(self):
        inst = square_instance()
        policy = RandomizedPolicy({"s": [(0.6, [1.0, 0.0]), (0.4, [0.0, 1.0])]})
        a = simulate(inst, policy, trajectories=5000, seed=1)
        b = simulate(inst, policy, trajectories=5000, seed=2)
        assert a.value != b.value

    def test_converges_to_exact(self):
        inst = square_instance()
        policy = RandomizedPolicy({"s": [(0.6, [1.0, 0.0]), (0.4, [0.0, 1.0])]})
        report = simulate(inst, policy, trajectories=100_000, seed=42)
        assert abs(report.value - 0.4) <= 3 * report.std_error

    def test_deterministic_policy_visit_masses(self, rng):
        inst, _ = chain_instance()
        policy = DeterministicPolicy(
            {s: [0.6, 0.4] for s in inst.states.nonterminal()}
        )
        exact = evaluate_exact(inst, policy)
        emp = simulate(inst, policy, trajectories=200_000, seed=5)
        for s, m in exact.visit_mass.items():
            se = np.sqrt(max(m * (1 - m), 1e-12) / 200_000)
            assert abs(emp.visit_mass[s] - m) <= 4 * se + 1e-9

    def test_trajectory_count_validated(self):
        inst, policy = chain_instance()
        with pytest.raises(ValueError, match="trajectories"):
            simulate(inst, policy, trajectories=0)


class TestOracleAgreement:
    def test_solver_objective_matches_evaluator(self, rng):
        for _ in range(8):
            inst = random_instance(rng, reward="l1")
            try:
                sol = solve_occupancy(inst)
            except Exception:
                continue
            policy = extract_policy(sol, inst)
            report = evaluate_exact(inst, policy)
            assert report.value == pytest.approx(sol.objective, abs=1e-7)


class TestValidation:
    """Each solver validates the instance it was given once and evaluates
    its policy without validating it again; evaluate_exact validates."""

    @staticmethod
    def count_validate(monkeypatch):
        calls = []
        validate = model.validate

        def counted(instance):
            calls.append(instance)
            return validate(instance)

        monkeypatch.setattr(model, "validate", counted)
        return calls

    @pytest.mark.parametrize("method, reward_kind, calls", [
        ("convex", "l1", 1),
        ("extreme", "l1", 1),
        ("envelope", "quad_convex", 1),
        # the instance, then the linearized one by its occupancy LP
        ("naive-linear", "quad_convex", 2),
        # one LP per period, none of them an instance of its own
        ("greedy", "l1", 1),
    ])
    def test_solve_validates_once_per_instance(self, monkeypatch, method, reward_kind, calls):
        inst = generate_loan_instance(LoanConfig(n_states=5, q_default=0.5,
                                                 reward_kind=reward_kind))
        seen = self.count_validate(monkeypatch)
        res = solve(inst, method)
        assert len(seen) == calls
        assert seen[0] is inst
        if method != "convex":  # its visit masses come from the LP
            assert res.visit_mass == evaluate_exact(inst, res.policy).visit_mass

    def test_evaluate_exact_validates(self, monkeypatch):
        inst, policy = chain_instance()
        seen = self.count_validate(monkeypatch)
        report = evaluate_exact(inst, policy)
        assert seen == [inst]
        again = evaluate_exact(inst, policy)
        assert (again.visit_mass, again.value) == (report.visit_mass, report.value)
        assert len(seen) == 1
        broken = CmdpInstance(inst.states, inst.polytopes, inst.rewards, [0.5, 0.4], [])
        with pytest.raises(ValueError, match="alpha"):
            evaluate_exact(broken, policy)

    def test_evaluate_exact_checks_the_policy(self):
        # the instance's verdict is cached; the policy is still checked
        inst, policy = chain_instance()
        evaluate_exact(inst, policy)
        with pytest.raises(ValueError, match="infeasible policy"):
            evaluate_exact(inst, DeterministicPolicy({"a": [2.0, -1.0]}))

    @pytest.mark.parametrize("method", METHODS)
    def test_a_second_call_validates_nothing(self, monkeypatch, method):
        kind = "quad_convex" if method in ("envelope", "naive-linear") else "l1"
        inst = generate_loan_instance(LoanConfig(n_states=5, q_default=0.5, reward_kind=kind))
        first = solve(inst, method)
        seen = self.count_validate(monkeypatch)
        again = solve(inst, method)
        evaluate_exact(inst, again.policy)
        simulate(inst, again.policy, 100)
        assert again.objective == first.objective
        # naive-linear builds a fresh linearized instance on every call
        assert inst not in seen
        assert len(seen) == (method == "naive-linear")

    def test_cli_solve_validates_once(self, monkeypatch, tmp_path):
        prob = tmp_path / "p.json"
        dump_json(problem_to_json(generate_loan_instance(LoanConfig(n_states=4, q_default=0.7))),
                  prob)
        seen = self.count_validate(monkeypatch)
        assert main(["solve", str(prob), "--method", "convex", "--out",
                     str(tmp_path / "s.json")]) == 0
        assert len(seen) == 1

    def test_an_invalid_instance_raises_on_every_call(self, monkeypatch):
        inst = generate_loan_instance(LoanConfig(n_states=4, reward_kind="affine"))
        broken = CmdpInstance(inst.states, inst.polytopes, inst.rewards,
                              [0.5] + [0.0] * 3, inst.constraints)
        base = DeterministicPolicy({s: p.base for s, p in inst.polytopes.items()})
        seen = self.count_validate(monkeypatch)
        calls = [lambda m=m: solve(broken, m) for m in METHODS]
        calls += [lambda: evaluate_exact(broken, base), lambda: simulate(broken, base, 10)]
        for call in calls * 2:
            with pytest.raises(ValueError, match="invalid instance: alpha sums to 0.5"):
                call()
        assert seen == [broken]
