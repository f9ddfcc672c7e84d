import csv
import time

import numpy as np
import pytest

from helpers import frozen_greedy, random_instance

from modcmdp import (
    METHODS,
    ActionPolytope,
    CmdpInstance,
    DeterministicPolicy,
    LayeredStateSpace,
    QualityConstraint,
    QualityInfeasibleError,
    QuadraticDeviationReward,
    WeightedL1Reward,
    box_polytope,
    evaluate_exact,
    generate_loan_instance,
    greedy_baseline,
    run_benchmark,
    solve,
    solve_occupancy,
    validate,
    write_benchmark_csv,
)
from modcmdp.loans import CSV_FIELDS, LoanConfig, base_rows


class TestGenerator:
    def test_default_config_is_valid(self):
        inst = generate_loan_instance(LoanConfig(n_states=3))
        assert validate(inst) == []

    def test_eight_levels(self):
        inst = generate_loan_instance(LoanConfig(n_states=8))
        assert all(len(layer) == 8 for layer in inst.states.layers)
        assert inst.states.horizon == 6

    def test_deterministic(self):
        a = generate_loan_instance(LoanConfig(n_states=6))
        b = generate_loan_instance(LoanConfig(n_states=6))
        for s in a.states.nonterminal():
            np.testing.assert_array_equal(a.polytopes[s].base, b.polytopes[s].base)

    def test_rows_are_distributions(self):
        for n in (3, 5, 11, 40):
            rows = base_rows(n)
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
            assert rows.min() >= 0.0

    def test_rows_carry_no_float_residue(self):
        # level n-1's improving mass is 0 in exact arithmetic; its float
        # residue once came out as entries like -7.9e-18 (n=16) or 1e-17
        for n in range(3, 401):
            rows = base_rows(n)
            assert rows.min() >= 0.0, n
            assert not ((rows > 0) & (rows < 1e-12)).any(), n

    def test_monotone_hazard(self):
        for n in (4, 9, 25):
            rows = base_rows(n)
            p_up = [rows[k - 1, k:].sum() for k in range(1, n)]
            assert all(b >= a - 1e-12 for a, b in zip(p_up, p_up[1:]))

    def test_last_level_absorbs(self):
        rows = base_rows(7)
        assert rows[6, 6] == 1.0

    def test_too_few_levels_rejected(self):
        with pytest.raises(ValueError, match="3"):
            generate_loan_instance(LoanConfig(n_states=2))

    def test_unknown_reward_kind_rejected(self):
        with pytest.raises(ValueError, match="reward_kind"):
            generate_loan_instance(LoanConfig(reward_kind="huh"))

    def test_reward_kinds(self):
        for kind in ("l1", "quad_convex", "affine"):
            inst = generate_loan_instance(LoanConfig(n_states=4, reward_kind=kind))
            assert validate(inst) == []


def adversarial_gap_instance():
    """Two controllable periods; period-1 deviations cost 10x period-2
    ones, and the cap can be met from period 2 alone. A myopic planner
    must act in period 1 (it assumes no future modulation) and overpays.
    """
    space = LayeredStateSpace([["g1"], ["g2", "b2"], ["g3", "b3"]])
    polys = {
        "g1": box_polytope([0.5, 0.5], 0.4),
        "g2": box_polytope([0.5, 0.5], 0.4),
        "b2": box_polytope([0.0, 1.0], 0.0),
    }
    rewards = {
        "g1": WeightedL1Reward([0.5, 0.5], [10.0, 10.0]),
        "g2": WeightedL1Reward([0.5, 0.5], [1.0, 1.0]),
        "b2": WeightedL1Reward([0.0, 1.0], [1.0, 1.0]),
    }
    return CmdpInstance(
        space, polys, rewards, [1.0], [QualityConstraint({"b3"}, 0.55)]
    )


def grid_oracle_gap_instance():
    """Global optimum of the adversarial instance over its two free
    parameters (mass sent to b2 and b3) by plain grid search."""
    best = -np.inf
    for a_b2 in np.arange(0.1, 0.9 + 1e-12, 1e-3):
        for a_b3 in np.arange(0.1, 0.9 + 1e-12, 1e-3):
            mass_b3 = a_b2 * 1.0 + (1 - a_b2) * a_b3
            if mass_b3 > 0.55 + 1e-12:
                continue
            cost = 10.0 * 2 * abs(a_b2 - 0.5) + (1 - a_b2) * 2 * abs(a_b3 - 0.5)
            best = max(best, -cost)
    return best


def greedy_infeasible_instance():
    """The cap needs coordinated modulation across both periods; period 1
    alone (frozen future) cannot reach it."""
    space = LayeredStateSpace([["g1"], ["g2", "b2"], ["g3", "b3"]])
    polys = {
        "g1": box_polytope([0.5, 0.5], 0.4),
        "g2": box_polytope([0.5, 0.5], 0.4),
        "b2": box_polytope([0.0, 1.0], 0.0),
    }
    rewards = {s: WeightedL1Reward(polys[s].base) for s in polys}
    return CmdpInstance(
        space, polys, rewards, [1.0], [QualityConstraint({"b3"}, 0.2)]
    )


class TestGreedy:
    def test_base_feasible_instance_returns_zero(self):
        cfg = LoanConfig(n_states=5, q_default=0.95)
        inst = generate_loan_instance(cfg)
        obj, policy = greedy_baseline(inst)
        assert obj == pytest.approx(0.0, abs=1e-10)
        for s in inst.states.nonterminal():
            np.testing.assert_allclose(
                policy.actions[s], inst.polytopes[s].base, atol=1e-8
            )

    def test_greedy_strictly_below_global(self):
        inst = adversarial_gap_instance()
        greedy_obj, greedy_pol = greedy_baseline(inst)
        global_obj = solve_occupancy(inst).objective
        oracle = grid_oracle_gap_instance()
        # the optimum leaves period 1 alone and corrects in period 2,
        # where deviations are cheap and weighted by the 0.5 visit mass
        assert global_obj == pytest.approx(oracle, abs=1e-9)
        assert global_obj == pytest.approx(-0.4, abs=1e-9)
        assert greedy_obj == pytest.approx(-8.0, abs=1e-9)
        assert greedy_obj < global_obj - 5.0
        assert evaluate_exact(inst, greedy_pol).feasible

    def test_greedy_infeasible_but_global_feasible(self):
        inst = greedy_infeasible_instance()
        with pytest.raises(QualityInfeasibleError, match="greedy period 1"):
            greedy_baseline(inst)
        sol = solve_occupancy(inst)
        assert sol.constraint_masses(inst)[0] <= 0.2 + 1e-9

    def test_greedy_never_beats_global(self, rng):
        done = 0
        while done < 5:
            from helpers import random_instance

            inst = random_instance(rng, max_states=3, reward="l1")
            try:
                g, _ = greedy_baseline(inst)
                o = solve_occupancy(inst).objective
            except QualityInfeasibleError:
                continue
            assert g <= o + 1e-7
            done += 1

    def test_zero_time_limit_times_out(self):
        inst = generate_loan_instance(LoanConfig(n_states=5))
        with pytest.raises(TimeoutError):
            greedy_baseline(inst, time_limit=0)

    def test_requires_l1_rewards(self):
        inst = generate_loan_instance(LoanConfig(n_states=4, reward_kind="affine"))
        with pytest.raises(ValueError, match="L1"):
            greedy_baseline(inst)


class TestSolve:
    @pytest.mark.parametrize("method", METHODS)
    def test_invalid_instance_is_reported_as_such(self, method):
        space = LayeredStateSpace([["s"], ["ok", "bad"]])
        inst = CmdpInstance(space, {}, {"s": WeightedL1Reward([0.5, 0.5])}, [1.0],
                            [QualityConstraint({"bad"}, 0.5)])
        with pytest.raises(ValueError, match="state 's' has no action polytope"):
            solve(inst, method)

    def test_envelope_keeps_its_time_budget(self):
        # box enumeration at n=30 alone takes seconds
        inst = generate_loan_instance(LoanConfig(n_states=30, reward_kind="quad_convex"))
        t0 = time.monotonic()
        with pytest.raises(TimeoutError):
            solve(inst, "envelope", time_limit=0.3)
        assert time.monotonic() - t0 < 1.5

    def test_tight_cap_l1_loan_passes_its_check(self):
        # the smallest loan that reproduced: at HiGHS's default feasibility
        # tolerance (1e-7) its "optimal" point missed a row by 5e-8, and
        # check_optimal allows 1e-8
        inst = generate_loan_instance(LoanConfig(n_states=62))
        base = DeterministicPolicy({s: inst.polytopes[s].base
                                    for s in inst.states.nonterminal()})
        mass = evaluate_exact(inst, base).constraint_masses[0]
        cap = QualityConstraint(inst.constraints[0].states, mass / 2)
        tight = CmdpInstance(inst.states, inst.polytopes, inst.rewards, inst.alpha, [cap])
        result = solve(tight, "convex")
        assert result.objective == pytest.approx(-6.596066e-04, rel=1e-6)
        assert evaluate_exact(tight, result.policy).feasible


def base_mass(inst) -> float:
    """The base policy's mass on the loan's single cap."""
    base = DeterministicPolicy({s: inst.polytopes[s].base for s in inst.states.nonterminal()})
    return float(evaluate_exact(inst, base).constraint_masses[0])


def with_cap(inst, q):
    cap = QualityConstraint(inst.constraints[0].states, q)
    return CmdpInstance(inst.states, inst.polytopes, inst.rewards, inst.alpha, [cap])


def concave_loan(n=10, q=0.0409):
    """The L1 loan with every reward replaced by the concave quadratic
    around the same center (README, "Tangent cuts")."""
    inst = generate_loan_instance(LoanConfig(n_states=n, q_default=q))
    rewards = {s: QuadraticDeviationReward(r.center) for s, r in inst.rewards.items()}
    return CmdpInstance(inst.states, inst.polytopes, rewards, inst.alpha, inst.constraints)


def _policy_cells():
    cells = [(f"l1-n{n}-q{q}-{m}", LoanConfig(n_states=n, q_default=q), m)
             for n in (6, 8) for q in (0.002, 0.01, 0.04)
             for m in ("convex", "extreme", "extreme-restricted")]
    cells += [(f"affine-n{n}-{m}", LoanConfig(n_states=n, reward_kind="affine"), m)
              for n in (4, 6) for m in METHODS if m != "greedy"]
    cells += [(f"quad-convex-n10-{m}", LoanConfig(n_states=10, reward_kind="quad_convex"), m)
              for m in ("envelope", "naive-linear")]
    cells.append(("l1-n20-q0.01-greedy", LoanConfig(n_states=20, q_default=0.01), "greedy"))
    return [pytest.param(cfg, m, id=name) for name, cfg, m in cells]


class TestAnalyticGates:
    """Gates that need no second solver (ROADMAP item 2)."""

    @pytest.mark.parametrize("n", [20, 50, 100])
    def test_l1_value_is_closed_form_above_the_bend(self, n):
        # moving one unit of mass off the capped default level in the last
        # transition costs 2 (one unit leaves a coordinate, one enters
        # another), so down to half the base mass m the value is -2 (m - q)
        inst = generate_loan_instance(LoanConfig(n_states=n))
        m = base_mass(inst)
        for q in (m, 0.5 * m):
            got = solve(with_cap(inst, q), "convex").objective
            assert abs(got - (-2.0 * max(0.0, m - q))) <= 1e-12, (q, got)

    @pytest.mark.parametrize("cfg, method", _policy_cells())
    def test_objective_is_the_policy_value(self, cfg, method):
        inst = generate_loan_instance(cfg)
        result = solve(inst, method)
        value = evaluate_exact(inst, result.policy).value
        assert abs(value - result.objective) <= 1e-9 * max(1.0, abs(result.objective))

    def test_tangent_cut_objective_is_the_policy_value(self):
        inst = concave_loan()
        result = solve(inst, "convex", tangent_cuts=4)
        value = evaluate_exact(inst, result.policy).value
        assert abs(value - result.objective) <= 1e-9 * max(1.0, abs(result.objective))
        assert result.objective <= result.bound


class TestBenchmark:
    def test_affine_sweep_extreme_matches_convex(self, tmp_path):
        cfg = LoanConfig(reward_kind="affine", q_default=0.9)
        records = run_benchmark([3, 4], ["convex", "extreme"], cfg=cfg, timeout=120)
        by_cell = {(r.method, r.n_states): r for r in records}
        for n in (3, 4):
            conv = by_cell[("convex", n)]
            extr = by_cell[("extreme", n)]
            assert conv.status == extr.status == "optimal"
            assert extr.objective == pytest.approx(conv.objective, abs=1e-6)
            assert extr.vertices_total > 0 and conv.vertices_total == 0
        out = tmp_path / "bench.csv"
        write_benchmark_csv(records, out)
        with open(out) as f:
            rows = list(csv.reader(f))
        assert rows[0] == list(CSV_FIELDS)
        assert len(rows) == 1 + len(records)

    def test_q_sweep_mode_monotone(self):
        cfg = LoanConfig(n_states=5, reward_kind="l1")
        records = run_benchmark(
            [5], ["convex"], cfg=cfg, q_values=[0.05, 0.1, 0.2, 0.4], timeout=120
        )
        objs = [r.objective for r in records if r.status == "optimal"]
        assert len(objs) >= 2
        assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))

    def test_unsupported_combination_recorded(self):
        cfg = LoanConfig(reward_kind="l1")
        records = run_benchmark([3], ["envelope"], cfg=cfg)
        assert records[0].status == "unsupported"

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_benchmark([3], ["simplex-magic"])

    def test_error_cell_keeps_its_reason(self, tmp_path):
        records = run_benchmark([26], ["extreme"], cfg=LoanConfig(reward_kind="affine"))
        assert records[0].status == "error"
        assert records[0].error.startswith("ValueError: dimension 26 exceeds")
        out = tmp_path / "bench.csv"
        write_benchmark_csv(records, out)
        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert rows[0]["error"] == records[0].error

    def test_greedy_cell(self):
        cfg = LoanConfig(n_states=4, q_default=0.7, reward_kind="l1")
        records = run_benchmark([4], ["greedy", "convex"], cfg=cfg)
        by = {r.method: r for r in records}
        assert by["greedy"].status == "optimal"
        assert by["greedy"].error == ""
        assert by["greedy"].objective <= by["convex"].objective + 1e-7


def general_l1_instance(rng):
    """``random_instance`` with L1 rewards, remade with some polytopes
    that are not boxes (extra cuts, free rows, the whole simplex, a sign
    row of its own), some reward centers off the base, and up to four
    caps over states of any period, the first included. The weights stay
    positive: a zero weight can tie a period's LP, and greedy then
    commits to whichever optimum its solver returns."""
    inst = random_instance(rng, max_states=4, max_horizon=5, reward="l1")
    polys, rewards = {}, {}
    for s in inst.states.nonterminal():
        box, n = inst.polytopes[s], inst.polytopes[s].dim
        base, kind = box.base, int(rng.integers(5))
        if kind == 0:
            polys[s] = box
        elif kind == 1:  # the box, cut by one more row through a point near the base
            row = rng.normal(size=n)
            polys[s] = ActionPolytope(base, np.vstack([box.H, row]),
                                      np.append(box.h, row @ base + rng.uniform(0, 0.1)))
        elif kind == 2:  # rows that imply no sign
            rows = rng.normal(size=(int(rng.integers(1, 4)), n))
            polys[s] = ActionPolytope(base, rows, rows @ base + rng.uniform(0.01, 0.3, len(rows)))
        elif kind == 3:
            polys[s] = ActionPolytope(base)
        else:  # one lone sign row, and an upper bound on another coordinate
            k, j = rng.integers(n, size=2)
            H = np.zeros((2, n))
            H[0, k], H[1, j] = -1.0, 1.0
            polys[s] = ActionPolytope(base, H, [0.0, min(1.0, base[j] + 0.2)])
        center = base if rng.random() < 0.5 else rng.dirichlet(np.ones(n))
        rewards[s] = WeightedL1Reward(center, inst.rewards[s].weights)
    caps = list(inst.constraints)
    states = list(inst.states.all_states())
    base = evaluate_exact(inst, DeterministicPolicy(
        {s: inst.polytopes[s].base for s in inst.states.nonterminal()})).visit_mass
    for _ in range(int(rng.integers(0, 3))):
        members = rng.choice(states, size=min(len(states), int(rng.integers(1, 4))),
                             replace=False)
        mass = sum(base[s] for s in members)
        caps.append(QualityConstraint(members, mass * rng.uniform(0.7, 1.3) + 1e-3))
    return CmdpInstance(inst.states, polys, rewards, inst.alpha, caps)


def greedy_outcomes(inst):
    """(package greedy, frozen-sub-instance greedy): each an objective or
    the QualityInfeasibleError it raised."""
    out = []
    for run in (greedy_baseline, frozen_greedy):
        try:
            out.append(run(inst)[0])
        except QualityInfeasibleError as exc:
            out.append(exc)
    return out


class TestGreedyAgainstFrozenSubInstances:
    """Each greedy period as one LP over its layer's actions gives what the
    whole frozen sub-instance gave: the same objectives where both are
    feasible, and an infeasibility in the same period where one is not."""

    @staticmethod
    def check(inst, counts):
        new, old = greedy_outcomes(inst)
        if isinstance(old, QualityInfeasibleError):
            assert isinstance(new, QualityInfeasibleError), (new, old)
            period = str(old).split(":")[0]
            assert str(new).split(":")[0] == period
            if old.excess is not None:
                assert new.excess is not None and new.excess > 0.0
                assert new.certificate is not None
                assert "smallest attainable total cap excess" in str(new)
            else:
                assert str(new) == str(old)
            counts["infeasible"] += 1
        else:
            assert not isinstance(new, Exception), (new, old)
            assert new == pytest.approx(old, abs=1e-9)
            counts["feasible"] += 1

    def test_random_box_instances(self):
        rng = np.random.default_rng(5)
        counts = {"feasible": 0, "infeasible": 0}
        for _ in range(60):
            self.check(random_instance(rng, max_states=5, max_horizon=5, reward="l1"), counts)
        assert min(counts.values()) >= 5, counts

    def test_general_polytopes_and_several_caps(self):
        rng = np.random.default_rng(6)
        counts = {"feasible": 0, "infeasible": 0}
        for _ in range(60):
            self.check(general_l1_instance(rng), counts)
        assert min(counts.values()) >= 5, counts

    def test_fixed_instances(self):
        counts = {"feasible": 0, "infeasible": 0}
        for inst in (adversarial_gap_instance(), greedy_infeasible_instance(),
                     generate_loan_instance(LoanConfig(n_states=6, q_default=0.25)),
                     generate_loan_instance(LoanConfig(n_states=8, q_default=0.12)),
                     generate_loan_instance(LoanConfig(n_states=8))):
            self.check(inst, counts)
        assert counts == {"feasible": 3, "infeasible": 2}

    def test_cap_spent_before_its_last_period(self):
        # the cap covers g1 (mass 1) and b3; nothing is left for b3
        inst = adversarial_gap_instance()
        inst = CmdpInstance(inst.states, inst.polytopes, inst.rewards, inst.alpha,
                            [QualityConstraint({"g1", "b3"}, 0.9)])
        new, old = greedy_outcomes(inst)
        assert str(new) == str(old) == "greedy period 1: constraint 0 bound exhausted"
        # a cap over g1 alone is checked once its only period is over
        inst = CmdpInstance(inst.states, inst.polytopes, inst.rewards, inst.alpha,
                            [QualityConstraint({"g1"}, 0.5)])
        new, old = greedy_outcomes(inst)
        message = "greedy period 1: constraint 0 already violated by 5.000e-01"
        assert str(new) == str(old) == message


class TestGreedyStructure:
    def test_one_lp_per_period_and_one_validation(self, monkeypatch):
        import modcmdp.loans as loans
        import modcmdp.lp as lpmod
        import modcmdp.model as model
        import modcmdp.occupancy as occupancy

        inst = generate_loan_instance(LoanConfig(n_states=6, q_default=0.25))
        calls = {}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((lpmod, "solve_lp"), (model, "validate"),
                             (occupancy, "solve_occupancy"), (loans, "solve_occupancy"),
                             (occupancy, "build_occupancy_lp"), (loans, "box_polytope")):
            counted(module, name)
        greedy_baseline(inst)
        assert calls == {"solve_lp": inst.states.horizon - 1, "validate": 1}

    def test_l1_loan_at_100_levels(self):
        # the frozen sub-instance of period 2 ended in a HiGHS 'Solve error'
        inst = generate_loan_instance(LoanConfig(n_states=100))
        objective, policy = greedy_baseline(inst)
        report = evaluate_exact(inst, policy)
        assert report.feasible
        assert report.value == objective
        assert objective <= solve(inst, "convex").objective + 1e-9
