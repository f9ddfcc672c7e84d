"""Tests of the benchmark's own checks and span arithmetic.

    python3 -m pytest perfbench -q

Every check must pass a correct output and reject a deliberately
corrupted one.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import modcmdp as mc  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402


def two_state_instance(bound=0.2):
    """One decision state choosing (ok, bad) within 0.4 of (0.5, 0.5),
    L1 reward around the base, cap on bad: optimum -0.6 at (0.8, 0.2)."""
    space = mc.LayeredStateSpace([["s"], ["ok", "bad"]])
    return mc.CmdpInstance(
        space,
        {"s": mc.box_polytope([0.5, 0.5], 0.4)},
        {"s": mc.WeightedL1Reward([0.5, 0.5])},
        [1.0],
        [mc.QualityConstraint({"bad"}, bound)],
    )


def loan(n=5, q=0.2, kind="l1"):
    return mc.generate_loan_instance(mc.LoanConfig(n_states=n, reward_kind=kind, q_default=q))


class TestPolicyCheck:
    def test_accepts_the_optimum(self):
        inst = two_state_instance()
        pol = mc.DeterministicPolicy({"s": [0.8, 0.2]})
        assert checks.check_policy(inst, pol, -0.6, "x") == []

    def test_rejects_a_perturbed_objective(self):
        inst = two_state_instance()
        pol = mc.DeterministicPolicy({"s": [0.8, 0.2]})
        assert checks.check_policy(inst, pol, -0.6 + 1e-4, "x")

    def test_rejects_an_action_outside_its_box(self):
        inst = two_state_instance(bound=1.0)
        pol = mc.DeterministicPolicy({"s": [0.95, 0.05]})
        (problem,) = checks.check_policy(inst, pol, -0.9, "x")
        assert "leaves its box" in problem

    def test_rejects_weights_that_do_not_sum_to_one(self):
        inst = two_state_instance()
        pol = mc.RandomizedPolicy({"s": [(0.5, [0.9, 0.1]), (0.49, [0.7, 0.3])]})
        assert any("weights" in p for p in checks.check_policy(inst, pol, -0.6, "x"))

    def test_rejects_a_broken_cap(self):
        inst = two_state_instance(bound=0.1)
        pol = mc.DeterministicPolicy({"s": [0.8, 0.2]})
        assert any("cap" in p for p in checks.check_policy(inst, pol, -0.6, "x"))

    def test_randomized_policy_earns_the_atom_average(self):
        # reward (mass on s2)^2 over the whole simplex, s2 capped at 0.4:
        # randomizing between the two vertices earns 0.4, their mean 0.16
        space = mc.LayeredStateSpace([["s"], ["s1", "s2"]])
        inst = mc.CmdpInstance(
            space,
            {"s": mc.box_polytope([0.5, 0.5], 1.0)},
            {"s": mc.QuadraticDeviationReward([0.0, 0.0], convex=True, weights=[0.0, 1.0])},
            [1.0],
            [mc.QualityConstraint({"s2"}, 0.4)],
        )
        value, pol = mc.solve_with_envelope(inst)
        assert value == pytest.approx(0.4)
        assert checks.check_policy(inst, pol, value, "x") == []
        assert checks.check_policy(inst, mc.mix_to_point(pol), value, "x")

    def test_solver_output_passes_and_its_perturbation_fails(self):
        inst = loan(6, 0.15)
        sol = mc.solve_occupancy(inst)
        pol = mc.extract_policy(sol, inst)
        assert checks.check_policy(inst, pol, sol.objective, "x") == []
        assert checks.check_policy(inst, pol, sol.objective * (1 + 1e-4), "x")


class TestSequences:
    def test_vertex_count_that_stops_growing(self):
        assert checks.strictly_growing([45.0, 91.25, 190.0], "v") == []
        assert checks.strictly_growing([45.0, 91.25, 91.25, 190.0], "v")

    def test_cap_sweep(self):
        assert checks.nondecreasing_and_rising([-0.02, -0.01, 0.0, 0.0]) == []
        assert checks.nondecreasing_and_rising([-0.02, -0.03, 0.0])
        assert checks.nondecreasing_and_rising([0.0, 0.0, 0.0])


class TestLagrangianBound:
    def test_best_response_matches_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            c = rng.dirichlet(np.ones(n))
            eps = rng.uniform(0.05, 0.5)
            lo, up = np.maximum(c - eps, 0.0), c + eps
            v, w = rng.normal(size=n), rng.uniform(0.0, 2.0, size=n)
            # max v.a - w.t  s.t.  t >= |a - c|, box, simplex
            res = linprog(
                np.concatenate([-v, w]),
                A_ub=np.block([[np.eye(n), -np.eye(n)], [-np.eye(n), -np.eye(n)]]),
                b_ub=np.concatenate([c, -c]),
                A_eq=np.concatenate([np.ones(n), np.zeros(n)])[None, :],
                b_eq=[1.0],
                bounds=list(zip(lo, up)) + [(0, None)] * n,
                method="highs",
            )
            got = checks.l1_best_response(v, c, w, lo, up)
            assert got == pytest.approx(-res.fun, abs=1e-9)

    def test_bound_is_tight_on_the_two_state_instance(self):
        assert checks.lagrangian_bound(two_state_instance()) == pytest.approx(-0.6, abs=1e-7)

    def test_bound_rejects_objectives_off_the_optimum(self):
        inst = loan(6, 0.15)
        obj = mc.solve_occupancy(inst).objective
        bound = checks.lagrangian_bound(inst)
        assert checks.check_bound(obj, bound, "x") == []
        assert checks.check_bound(obj + 1e-4, bound, "x")
        assert checks.check_bound(obj - 1e-4, bound, "x")


class TestOracles:
    def test_mixture_oracle_on_the_two_state_instance(self):
        assert checks.mixture_oracle(two_state_instance()) == pytest.approx(-0.6, abs=1e-9)

    def test_local_vertices_match_the_package(self):
        lo, up = np.array([0.0, 0.1, 0.2]), np.array([0.5, 0.6, 0.7])
        mine = checks.local_vertices(lo, up)
        theirs = mc.box_simplex_vertices(lo, up)
        assert sorted(map(tuple, np.round(mine, 9))) == sorted(map(tuple, np.round(theirs, 9)))

    def test_affine_backward_induction_agrees_with_the_solver(self):
        inst = loan(5, 0.9, "affine")
        assert checks.check_affine_dp(inst, mc.solve_occupancy(inst).objective, "x") == []
        assert checks.check_affine_dp(inst, 0.5, "x")

    def test_mixture_reproduces_the_action(self):
        lo, up = np.array([0.1, 0.1]), np.array([0.9, 0.9])
        pairs = [(0.25, np.array([0.9, 0.1])), (0.75, np.array([0.1, 0.9]))]
        assert checks.check_mixture(pairs, np.array([0.3, 0.7]), lo, up, "x") == []
        assert checks.check_mixture(pairs, np.array([0.31, 0.69]), lo, up, "x")
        bad = [(0.3, pairs[0][1]), (0.75, pairs[1][1])]
        assert checks.check_mixture(bad, np.array([0.3, 0.7]), lo, up, "x")


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class TestSpans:
    def test_self_times_of_a_synthetic_tree(self):
        # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
        tr = spans.Tracer(FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
        with tr.span("root"):
            with tr.span("a"):
                with tr.span("b"):
                    pass
            with tr.span("c"):
                pass
        st = spans.self_times(tr.spans)
        assert [st[s.id] for s in tr.spans] == [3, 2, 1, 4]
        assert sum(st.values()) == 10
        assert spans.accounting_gap(tr.spans) == 0

    def test_overlapping_children_are_counted_once(self):
        s = [
            spans.Span(0, "root", None, 0.0, 10.0),
            spans.Span(1, "x", 0, 1.0, 6.0),
            spans.Span(2, "y", 0, 4.0, 12.0),
        ]
        assert spans.self_times(s)[0] == pytest.approx(1.0)

    def test_instrument_wraps_every_binding_and_restores(self):
        original = mc.occupancy.solve_occupancy
        tr = spans.Tracer()
        inst = two_state_instance()
        with spans.instrument(tr), tr.span("bench.pass"):
            assert mc.solve_occupancy is not original
            assert mc.envelope.solve_occupancy is not original
            mc.solve_occupancy(inst)
        assert mc.solve_occupancy is original
        assert mc.envelope.solve_occupancy is original
        m = spans.pass_metrics(tr.spans)
        assert m["model.validate_calls"] == 1
        assert m["lp.dense_calls"] + m["lp.highs_calls"] == 1
        assert m["lp.cols"] > 0 and m["lp.rows"] > 0
        assert spans.accounting_gap(tr.spans) == pytest.approx(0.0, abs=1e-12)
