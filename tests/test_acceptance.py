"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The timing-sensitive
criteria (3, 6, 8) measure wall time on the current host; their asserted
budgets are generous because absolute speed is hardware-dependent — the
shape claims (monotone growth, crossover) are the real content.
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import Lift, brute_force_mixture_value, forward_masses, random_instance

import modcmdp.lp as lpmod
from modcmdp import (
    ActionPolytope,
    AffineReward,
    CmdpInstance,
    DeterministicPolicy,
    LayeredStateSpace,
    QualityConstraint,
    QualityInfeasibleError,
    QuadraticDeviationReward,
    RandomizedPolicy,
    WeightedL1Reward,
    box_polytope,
    build_envelope,
    build_finite_cmdp,
    enumerate_for_instance,
    evaluate_exact,
    extract_policy,
    generate_loan_instance,
    greedy_baseline,
    hull_envelope,
    mix_to_point,
    naive_linear_baseline,
    run_benchmark,
    simulate,
    solve_finite,
    solve_occupancy,
    solve_with_envelope,
    write_benchmark_csv,
)
from modcmdp.loans import LoanConfig

from test_loans import (
    adversarial_gap_instance,
    greedy_infeasible_instance,
    grid_oracle_gap_instance,
)


def ok(n, text):
    print(f"\nACCEPTANCE PASS criterion {n}: {text}")


def square_reward_instance(bound=None):
    space = LayeredStateSpace([["s"], ["s1", "s2"]])
    constraints = [] if bound is None else [QualityConstraint({"s2"}, bound)]
    return CmdpInstance(
        space,
        {"s": ActionPolytope([1.0, 0.0])},
        {"s": QuadraticDeviationReward([0.0, 0.0], convex=True, weights=[0.0, 1.0])},
        [1.0],
        constraints,
    )


def test_criterion_1_randomized_envelope_example():
    t0 = time.perf_counter()
    inst = square_reward_instance(bound=0.4)
    obj, policy = solve_with_envelope(inst)
    assert obj == pytest.approx(0.4, abs=1e-8)
    weights = {tuple(np.round(a, 9)): w for w, a in policy.mixtures["s"]}
    assert weights[(1.0, 0.0)] == pytest.approx(0.6, abs=1e-8)
    assert weights[(0.0, 1.0)] == pytest.approx(0.4, abs=1e-8)
    direct = evaluate_exact(
        inst, DeterministicPolicy({"s": [0.6, 0.4]})
    ).value
    assert direct == pytest.approx(0.16, abs=1e-8)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    ok(1, f"envelope 0.4 vs direct 0.16 with the 0.6/0.4 mixture "
          f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_unit_square_envelope():
    t0 = time.perf_counter()

    def f(x, y):
        return x * x + 2 * y * y - x * y + 2 - x - y

    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    values = np.array([f(x, y) for x, y in corners])
    worst = 0.0
    for x in np.linspace(0, 1, 21):
        for y in np.linspace(0, 1, 21):
            got, _ = hull_envelope(corners, values, [x, y])
            worst = max(worst, abs(got - min(y + 2, -x + 3)))
    assert worst <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    ok(2, f"21x21 grid matches min(y+2, -x+3), worst gap {worst:.2e} "
          f"({elapsed * 1000:.0f} ms)")


def _bounded_instance(rng):
    """Random affine instance small enough for the mixture oracle."""
    while True:
        inst = random_instance(rng, max_states=8, max_horizon=4, reward="affine")
        dims = [inst.polytopes[s].dim for s in inst.states.nonterminal()]
        if max(dims) > 8:
            continue
        # keep exhaustive enumeration and policy enumeration affordable
        cost = sum(
            math.comb(3 * d, d - 1) if d > 1 else 1
            for d in dims
        )
        if cost > 120_000:
            continue
        vs = enumerate_for_instance(inst)
        product = 1
        for v in vs.vertices.values():
            product *= v.shape[0]
            if product > 4000:
                break
        if product > 4000:
            continue
        return inst, vs


def test_criterion_3_extreme_point_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    done = 0
    while done < 50:
        inst, vs = _bounded_instance(rng)
        try:
            convex = solve_occupancy(inst).objective
        except QualityInfeasibleError:
            continue
        finite, _ = solve_finite(build_finite_cmdp(inst, vs))
        oracle = brute_force_mixture_value(inst, vs.vertices)
        assert finite == pytest.approx(convex, abs=1e-6), done
        assert oracle is not None
        assert oracle == pytest.approx(convex, abs=1e-6), done
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    ok(3, f"50 random instances: extreme == convex == mixture oracle "
          f"({elapsed:.1f} s)")


def test_criterion_4_round_trip_all_paths():
    rng = np.random.default_rng(4)
    checked = []

    def check(label, inst, objective, policy, masses=None):
        report = evaluate_exact(inst, policy)
        assert report.value == pytest.approx(objective, abs=1e-7), label
        if masses is not None:
            np.testing.assert_allclose(
                report.constraint_masses, masses, atol=1e-7, err_msg=label
            )
        checked.append(label)

    for k in range(6):
        inst = random_instance(rng, reward=("affine", "l1")[k % 2])
        try:
            sol = solve_occupancy(inst)
        except QualityInfeasibleError:
            continue
        check(f"convex#{k}", inst, sol.objective,
              extract_policy(sol, inst), sol.constraint_masses(inst))
        vs = enumerate_for_instance(inst, kink_planes=(k % 2 == 1))
        obj_f, pol_f = solve_finite(build_finite_cmdp(inst, vs))
        check(f"extreme#{k}", inst, obj_f, pol_f)

    env_inst = square_reward_instance(bound=0.4)
    obj_e, pol_e = solve_with_envelope(env_inst)
    check("envelope", env_inst, obj_e, pol_e)

    loan_quad = generate_loan_instance(
        LoanConfig(n_states=6, reward_kind="quad_convex", q_default=0.9)
    )
    obj_env, pol_env = solve_with_envelope(loan_quad)
    check("envelope-loan", loan_quad, obj_env, pol_env)
    obj_n, pol_n = naive_linear_baseline(loan_quad)
    check("naive-linear", loan_quad, obj_n, pol_n)

    loan_l1 = generate_loan_instance(
        LoanConfig(n_states=5, reward_kind="l1", q_default=0.6)
    )
    obj_g, pol_g = greedy_baseline(loan_l1)
    check("greedy", loan_l1, obj_g, pol_g)

    quad_inst = CmdpInstance(
        env_inst.states,
        {"s": box_polytope([0.5, 0.5], 0.4)},
        {"s": QuadraticDeviationReward([0.5, 0.5], convex=False)},
        env_inst.alpha,
        [QualityConstraint({"s2"}, 0.2)],
    )
    sol_t = solve_occupancy(quad_inst, tangent_cuts=16)
    check("tangent-cuts", quad_inst, sol_t.objective,
          extract_policy(sol_t, quad_inst), sol_t.constraint_masses(quad_inst))

    assert len(checked) >= 10
    ok(4, f"evaluator reproduces solver objectives on {len(checked)} "
          f"solver-path runs")


def test_criterion_5_extended_function_laws():
    rng = np.random.default_rng(5)
    families = {
        "affine": lambda d: AffineReward(rng.normal(size=d), float(rng.normal())),
        "l1": lambda d: WeightedL1Reward(
            rng.dirichlet(np.ones(d)), rng.uniform(0, 2, size=d)
        ),
        "quad-concave": lambda d: QuadraticDeviationReward(
            rng.dirichlet(np.ones(d)), convex=False
        ),
        "quad-convex": lambda d: QuadraticDeviationReward(
            rng.dirichlet(np.ones(d)), convex=True
        ),
    }
    for name, make in families.items():
        for _ in range(1000):
            d = int(rng.integers(2, 6))
            spec = make(d)
            ext = Lift(spec)
            assert ext.value(np.zeros(d)) == 0.0
            a = rng.uniform(0, 1, size=d)
            va = ext.value(a)
            q = float(rng.choice([0.1, 0.5, 2.0, 10.0]))
            assert abs(ext.value(q * a) - q * va) <= 1e-9 * max(1.0, abs(va))
            p = rng.dirichlet(np.ones(d))
            assert ext.value(p) == pytest.approx(spec.value(p), abs=1e-12)
            b = rng.uniform(0, 1, size=d)
            mid = ext.value((a + b) / 2)
            avg = (va + ext.value(b)) / 2
            if ext.concave:
                assert mid >= avg - 1e-9
            else:
                assert mid <= avg + 1e-9
    ok(5, "homogeneity, simplex restriction, curvature and zero-at-origin "
          "hold on 1000 samples x 4 families")


def test_criterion_6_method_scaling_shape(tmp_path):
    cfg = LoanConfig(reward_kind="affine", q_default=0.9)
    big = generate_loan_instance(LoanConfig(
        n_states=100, reward_kind="affine", q_default=0.9))
    t0 = time.perf_counter()
    sol = solve_occupancy(big, time_limit=120)
    convex_big = time.perf_counter() - t0
    assert convex_big < 60.0
    assert np.isfinite(sol.objective)

    sweep = [4, 5, 6, 7, 8]
    records = run_benchmark(sweep, ["convex", "extreme"], cfg=cfg, timeout=280)
    csv_path = tmp_path / "fig3.csv"
    write_benchmark_csv(records, csv_path)
    by = {(r.method, r.n_states): r for r in records}
    # the extreme cells take a few ms to a few hundred, so host drift can
    # reorder one sweep's times: each is timed as its best of three sweeps
    best = {n: by[("extreme", n)].wall_ms for n in sweep}
    for _ in range(2):
        for r in run_benchmark(sweep, ["extreme"], cfg=cfg, timeout=280):
            assert r.status == "optimal"
            best[r.n_states] = min(best[r.n_states], r.wall_ms)
    extreme_ms = [best[n] for n in sweep]
    convex_ms = [by[("convex", n)].wall_ms for n in sweep]
    verts = [by[("extreme", n)].vertices_total for n in sweep]
    for n in sweep:
        assert by[("extreme", n)].status == "optimal"
        assert by[("convex", n)].status == "optimal"
        assert by[("extreme", n)].objective == pytest.approx(
            by[("convex", n)].objective, abs=1e-6
        )
    assert all(b > a for a, b in zip(extreme_ms, extreme_ms[1:])), extreme_ms
    crossover = [
        n for n, e, c in zip(sweep, extreme_ms, convex_ms) if e > 10 * c
    ]
    assert crossover and min(crossover) <= 30
    per_state = [v / n for v, n in zip(verts, sweep)]
    assert all(b > a for a, b in zip(per_state, per_state[1:])), verts
    # the emitted CSV carries the evidence
    text = csv_path.read_text()
    assert text.count("extreme") == len(sweep)
    ok(6, f"convex n=100 in {convex_big:.1f} s; extreme grows "
          f"{extreme_ms[0]:.0f} -> {extreme_ms[-1]:.0f} ms, crossover at "
          f"n={min(crossover)}; vertices {verts[0]} -> {verts[-1]}")


def test_criterion_7_cap_sweep_shape():
    cfg = LoanConfig(n_states=20, reward_kind="l1")
    qs = [0.002, 0.004, 0.006, 0.008, 0.010, 0.012, 0.02]
    records = run_benchmark([20], ["convex"], cfg=cfg, q_values=qs, timeout=280)
    objs = [r.objective for r in records]
    assert all(r.status == "optimal" for r in records)
    assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))
    assert max(b - a for a, b in zip(objs, objs[1:])) > 1e-6
    ok(7, f"cap sweep objectives non-decreasing with strict increases: "
          f"{objs[0]:.4f} -> {objs[-1]:.4f}")


def test_criterion_8_envelope_beats_naive_at_30_states():
    cfg = LoanConfig(n_states=30, reward_kind="quad_convex")
    inst = generate_loan_instance(cfg)
    naive_obj, _ = naive_linear_baseline(inst)
    assert naive_obj == pytest.approx(0.0, abs=1e-9)
    t0 = time.perf_counter()
    env_obj, _ = solve_with_envelope(inst)
    elapsed = time.perf_counter() - t0
    assert env_obj > naive_obj + 1e-6
    ok(8, f"n=30 quadratic: envelope {env_obj:.3f} > naive 0.0 "
          f"({elapsed:.0f} s)")


def test_criterion_9_greedy_baseline_gaps():
    inst = adversarial_gap_instance()
    greedy_obj, _ = greedy_baseline(inst)
    global_obj = solve_occupancy(inst).objective
    oracle = grid_oracle_gap_instance()
    assert global_obj == pytest.approx(oracle, abs=1e-9)
    assert greedy_obj < global_obj - 5.0

    hard = greedy_infeasible_instance()
    with pytest.raises(QualityInfeasibleError):
        greedy_baseline(hard)
    sol = solve_occupancy(hard)
    assert sol.constraint_masses(hard)[0] <= 0.2 + 1e-9
    ok(9, f"greedy {greedy_obj:.1f} < global {global_obj:.1f} "
          f"(oracle-verified); greedy-infeasible instance solved globally")


def test_criterion_10_monte_carlo_consistency():
    inst = square_reward_instance(bound=0.4)
    policy = RandomizedPolicy({"s": [(0.6, [1.0, 0.0]), (0.4, [0.0, 1.0])]})
    rep = simulate(inst, policy, trajectories=100_000, seed=2024)
    assert abs(rep.value - 0.4) <= 3 * rep.std_error
    from modcmdp.fileio import report_to_json

    again = simulate(inst, policy, trajectories=100_000, seed=2024)
    assert json.dumps(report_to_json(rep)) == json.dumps(report_to_json(again))
    ok(10, f"simulated return {rep.value:.4f} within 3 SE of 0.4; "
           f"fixed seed reproduces the report bit for bit")
