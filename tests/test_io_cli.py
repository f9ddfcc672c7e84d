import json

import numpy as np
import pytest
import scipy

from helpers import visit_mass_csv

from modcmdp import (
    METHODS,
    DeterministicPolicy,
    RandomizedPolicy,
    evaluate_exact,
    generate_loan_instance,
    run_benchmark,
    solve,
    validate,
)
from modcmdp.cli import main
from modcmdp.fileio import (
    SchemaError,
    dump_json,
    load_json,
    policy_from_json,
    policy_to_json,
    problem_from_json,
    problem_to_json,
    report_to_json,
)
from modcmdp.loans import LoanConfig


def small_problem_dict():
    return {
        "horizon": 2,
        "layers": [["s"], ["ok", "bad"]],
        "alpha": [1.0],
        "states": {
            "s": {
                "base": [0.5, 0.5],
                "epsilon": 0.4,
                "reward": {"type": "l1"},
            }
        },
        "constraints": [{"states": ["bad"], "bound": 0.2}],
    }


class TestProblemFiles:
    def test_loan_roundtrip_lossless(self):
        inst = generate_loan_instance(LoanConfig(n_states=5))
        back = problem_from_json(problem_to_json(inst))
        assert validate(back) == []
        assert back.states.layers == inst.states.layers
        np.testing.assert_array_equal(back.alpha, inst.alpha)
        for s in inst.states.nonterminal():
            np.testing.assert_array_equal(
                back.polytopes[s].base, inst.polytopes[s].base
            )
            np.testing.assert_array_equal(back.polytopes[s].H, inst.polytopes[s].H)
            np.testing.assert_array_equal(
                back.rewards[s].center, inst.rewards[s].center
            )
        assert back.constraints == inst.constraints

    def test_epsilon_shorthand(self):
        inst = problem_from_json(small_problem_dict())
        assert validate(inst) == []
        assert inst.polytopes["s"].H.shape == (4, 2)

    def test_unknown_top_level_field_rejected(self):
        d = small_problem_dict()
        d["discount"] = 0.9
        with pytest.raises(SchemaError, match="unknown fields"):
            problem_from_json(d)

    def test_unknown_state_field_rejected(self):
        d = small_problem_dict()
        d["states"]["s"]["flavor"] = "spicy"
        with pytest.raises(SchemaError, match="unknown fields"):
            problem_from_json(d)

    def test_unknown_reward_field_rejected(self):
        d = small_problem_dict()
        d["states"]["s"]["reward"]["slope"] = 2
        with pytest.raises(SchemaError, match="unknown fields"):
            problem_from_json(d)

    def test_both_epsilon_and_rows_rejected(self):
        d = small_problem_dict()
        d["states"]["s"]["H"] = [[1.0, 0.0]]
        d["states"]["s"]["h"] = [0.9]
        with pytest.raises(SchemaError, match="either epsilon or H/h"):
            problem_from_json(d)

    def test_missing_state_entry_rejected(self):
        d = small_problem_dict()
        del d["states"]["s"]
        with pytest.raises(SchemaError, match="no entry"):
            problem_from_json(d)

    def test_horizon_layer_mismatch_rejected(self):
        d = small_problem_dict()
        d["horizon"] = 3
        with pytest.raises(SchemaError, match="horizon"):
            problem_from_json(d)


class TestPolicyFiles:
    def test_deterministic_roundtrip(self):
        pol = DeterministicPolicy({"s": [0.8, 0.2]})
        back = policy_from_json(policy_to_json(pol))
        assert isinstance(back, DeterministicPolicy)
        np.testing.assert_allclose(back.actions["s"], [0.8, 0.2])

    def test_randomized_roundtrip(self):
        pol = RandomizedPolicy({"s": [(0.6, [1.0, 0.0]), (0.4, [0.0, 1.0])]})
        back = policy_from_json(policy_to_json(pol))
        assert isinstance(back, RandomizedPolicy)
        assert back.mixtures["s"][0][0] == 0.6

    def test_unknown_policy_type_rejected(self):
        with pytest.raises(SchemaError, match="unknown type"):
            policy_from_json({"type": "quantum"})

    @pytest.mark.parametrize("obj, what", [
        ({"type": ["deterministic"]}, "unknown type"),
        ({"type": "deterministic"}, "missing fields"),
        ({"type": "randomized"}, "missing fields"),
        ({"type": "deterministic", "mixtures": {}}, "unknown fields"),
        ({"type": "randomized", "actions": {}}, "unknown fields"),
        ({"type": "deterministic", "actions": [[0.8, 0.2]]}, "object keyed by state"),
        ({"type": "randomized", "mixtures": {"s": [[1.0]]}}, "pairs"),
        ({"type": "randomized", "mixtures": {"s": [[0.5, [1, 0], 3]]}}, "pairs"),
        ({"type": "randomized", "mixtures": {"s": [0.5, [1, 0]]}}, "pairs"),
        ({"type": "randomized", "mixtures": {"s": 1.0}}, "pairs"),
    ])
    def test_malformed_policy_rejected(self, obj, what):
        with pytest.raises(SchemaError, match=what):
            policy_from_json(obj)


class TestReportsAndCsv:
    def test_report_serialization(self):
        inst = problem_from_json(small_problem_dict())
        rep = evaluate_exact(inst, DeterministicPolicy({"s": [0.8, 0.2]}))
        blob = report_to_json(rep)
        assert blob["feasible"] is True
        assert blob["value"] == pytest.approx(-0.6)
        csv_text = visit_mass_csv(inst, rep.visit_mass)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "state,layer,mass"
        assert len(lines) == 4


class TestCli:
    def run_cli(self, *args):
        return main([str(a) for a in args])

    def test_generate_solve_evaluate_pipeline(self, tmp_path):
        prob = tmp_path / "loan.json"
        assert self.run_cli(
            "generate", "loan", "--states", 4, "--qbound", 0.7, "--out", prob
        ) == 0
        assert prob.exists()
        manifest = load_json(str(prob) + ".manifest.json")
        assert manifest["command"] == "generate"

        sol_path = tmp_path / "sol.json"
        assert self.run_cli(
            "solve", prob, "--method", "convex", "--out", sol_path
        ) == 0
        sol = load_json(sol_path)
        assert sol["objective"] <= 1e-9
        assert sol["constraints"][0]["slack"] >= -1e-8

        pol_path = tmp_path / "pol.json"
        dump_json(sol["policy"], pol_path)
        rep_path = tmp_path / "rep.json"
        assert self.run_cli(
            "evaluate", prob, pol_path, "--simulate", 2000, "--seed", 7,
            "--out", rep_path,
        ) == 0
        rep = load_json(rep_path)
        assert rep["exact"]["value"] == pytest.approx(sol["objective"], abs=1e-7)
        assert rep["simulated"]["trajectories"] == 2000

    def test_solve_deterministic_output(self, tmp_path):
        prob = tmp_path / "p.json"
        dump_json(small_problem_dict(), prob)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert self.run_cli("solve", prob, "--method", "convex", "--out", a) == 0
        assert self.run_cli("solve", prob, "--method", "convex", "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_infeasible_exit_code(self, tmp_path, capsys):
        d = small_problem_dict()
        d["constraints"][0]["bound"] = 0.05
        prob = tmp_path / "p.json"
        dump_json(d, prob)
        code = self.run_cli(
            "solve", prob, "--method", "convex", "--out", tmp_path / "s.json"
        )
        assert code == 2
        # the box keeps 0.1 of the mass on "bad", 0.05 over the cap
        assert "smallest attainable total cap excess is 0.05" in capsys.readouterr().err

    def test_method_mismatch_exit_code(self, tmp_path):
        d = small_problem_dict()
        d["states"]["s"]["reward"] = {"type": "quadratic", "convex": True}
        prob = tmp_path / "p.json"
        dump_json(d, prob)
        code = self.run_cli(
            "solve", prob, "--method", "convex", "--out", tmp_path / "s.json"
        )
        assert code == 1
        # tangent cuts belong to the occupancy LP alone
        code = self.run_cli(
            "solve", prob, "--method", "envelope", "--tangent-cuts", 4,
            "--out", tmp_path / "s.json",
        )
        assert code == 1

    @pytest.mark.parametrize("cuts", [-3, 0])
    def test_malformed_tangent_cuts(self, tmp_path, capsys, cuts):
        prob = tmp_path / "p.json"
        dump_json(small_problem_dict(), prob)
        out = tmp_path / "s.json"
        code = self.run_cli(
            "solve", prob, "--method", "convex", "--tangent-cuts", cuts, "--out", out
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: tangent_cuts must be None or an integer >= 1, got {cuts}\n"
        )
        assert not out.exists()

    def test_malformed_timeout_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MODCMDP_TIMEOUT", "abc")
        prob = tmp_path / "loan.json"
        assert self.run_cli("generate", "loan", "--out", prob) == 1
        assert capsys.readouterr().err == (
            "error: MODCMDP_TIMEOUT must be a number of seconds, got 'abc'\n"
        )
        assert not prob.exists()
        monkeypatch.setenv("MODCMDP_TIMEOUT", "30")
        assert self.run_cli("generate", "loan", "--out", prob) == 0

    def test_envelope_method_on_quadratic(self, tmp_path):
        d = small_problem_dict()
        d["states"]["s"]["reward"] = {"type": "quadratic", "convex": True}
        d["constraints"][0]["bound"] = 0.4
        prob = tmp_path / "p.json"
        dump_json(d, prob)
        out = tmp_path / "s.json"
        assert self.run_cli("solve", prob, "--method", "envelope", "--out", out) == 0
        sol = load_json(out)
        assert sol["policy"]["type"] == "randomized"
        for method in ("envelope", "naive-linear"):
            assert self.run_cli("solve", prob, "--method", method, "--out", out) == 0
            objective = solve(problem_from_json(d), method).objective
            assert load_json(out)["objective"] == objective

    def test_extreme_and_greedy_methods(self, tmp_path):
        prob = tmp_path / "p.json"
        dump_json(small_problem_dict(), prob)
        out1 = tmp_path / "x.json"
        assert self.run_cli("solve", prob, "--method", "extreme", "--out", out1) == 0
        assert load_json(out1)["objective"] == pytest.approx(-0.6, abs=1e-8)
        out2 = tmp_path / "g.json"
        assert self.run_cli("solve", prob, "--method", "greedy", "--out", out2) == 0
        inst = problem_from_json(small_problem_dict())
        for method in ("convex", "extreme", "extreme-restricted", "greedy"):
            assert self.run_cli("solve", prob, "--method", method, "--out", out2) == 0
            assert load_json(out2)["objective"] == solve(inst, method).objective

    @pytest.mark.parametrize("method", METHODS)
    def test_zero_budget_times_out(self, tmp_path, method):
        quad = method in ("envelope", "naive-linear")
        prob = tmp_path / "loan.json"
        assert self.run_cli(
            "generate", "loan", "--states", 4, "--reward", "quad" if quad else "l1",
            "--out", prob,
        ) == 0
        assert self.run_cli(
            "solve", prob, "--method", method, "--timeout", 0,
            "--out", tmp_path / "s.json",
        ) == 3
        cfg = LoanConfig(reward_kind="quad_convex" if quad else "l1")
        records = run_benchmark([4], [method], cfg=cfg, timeout=0)
        assert records[0].status == "timeout"

    def test_schema_error_exit_code(self, tmp_path):
        prob = tmp_path / "p.json"
        d = small_problem_dict()
        d["bogus"] = 1
        dump_json(d, prob)
        assert self.run_cli(
            "solve", prob, "--method", "convex", "--out", tmp_path / "o.json"
        ) == 1

    @pytest.mark.parametrize("policy", [
        {"type": "deterministic"},
        {"type": "randomized", "mixtures": {"s": [[1.0]]}},
    ])
    def test_malformed_policy_file_is_a_schema_error(self, tmp_path, capsys, policy):
        prob, pol = tmp_path / "p.json", tmp_path / "pol.json"
        dump_json(small_problem_dict(), prob)
        dump_json(policy, pol)
        assert self.run_cli("evaluate", prob, pol, "--out", tmp_path / "r.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("schema error: ") and "Traceback" not in err

    def test_generate_affine_loan_then_solve(self, tmp_path):
        prob, out = tmp_path / "loan.json", tmp_path / "s.json"
        assert self.run_cli("generate", "loan", "--states", 4, "--reward", "affine",
                            "--qbound", 0.7, "--out", prob) == 0
        cfg = LoanConfig(n_states=4, q_default=0.7, reward_kind="affine")
        assert problem_to_json(problem_from_json(load_json(prob))) == \
            problem_to_json(generate_loan_instance(cfg))
        assert self.run_cli("solve", prob, "--method", "convex", "--out", out) == 0
        want = solve(generate_loan_instance(cfg), "convex").objective
        assert load_json(out)["objective"] == want

    def test_missing_file_exit_code(self, tmp_path):
        assert self.run_cli(
            "solve", tmp_path / "nope.json", "--method", "convex",
            "--out", tmp_path / "o.json",
        ) == 1

    def test_usage_error_exits_1(self, tmp_path, capsys):
        prob = tmp_path / "p.json"
        dump_json(small_problem_dict(), prob)
        out = tmp_path / "s.json"
        # 2 is the code of an infeasible cap
        assert self.run_cli("solve", prob, "--method", "bogus", "--out", out) == 1
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert not out.exists()
        assert self.run_cli("--help") == 0
        assert self.run_cli("--version") == 0
        assert self.run_cli("solve", "--help") == 0

    def test_generate_takes_no_seed(self, tmp_path):
        prob = tmp_path / "loan.json"
        # the generator draws nothing at random
        assert self.run_cli("generate", "loan", "--states", 4, "--seed", 3,
                            "--out", prob) == 1
        assert self.run_cli("generate", "loan", "--states", 4, "--out", prob) == 0
        assert load_json(str(prob) + ".manifest.json")["seed"] is None

    def test_manifest_records_the_library_versions(self, tmp_path):
        prob = tmp_path / "loan.json"
        assert self.run_cli("generate", "loan", "--states", 4, "--out", prob) == 0
        manifest = load_json(str(prob) + ".manifest.json")
        assert manifest["numpy_version"] == np.__version__
        assert manifest["scipy_version"] == scipy.__version__

    def test_benchmark_command(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = self.run_cli(
            "benchmark", "--states", "3,4", "--methods", "convex,greedy",
            "--reward", "l1", "--qbound", 0.7, "--out", out,
        )
        assert code == 0
        text = out.read_text().splitlines()
        assert text[0].startswith("method,n_states")
        assert len(text) == 5
        assert load_json(tmp_path / "bench.csv.manifest.json")["seed"] is None

    def test_benchmark_q_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = self.run_cli(
            "benchmark", "--states", "4", "--methods", "convex",
            "--q-sweep", "0.3:0.7:0.2", "--out", out,
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 4  # header + 3 cells

    @pytest.mark.parametrize("extra, what", [
        (("--states", "5..3", "--methods", "convex"), "--states '5..3'"),
        (("--states", "4", "--methods", "convex", "--q-sweep", "0.1:0.05:0.01"),
         "--q-sweep '0.1:0.05:0.01'"),
        (("--states", "4", "--methods", ","), "--methods ','"),
    ])
    def test_benchmark_empty_range_is_an_error(self, tmp_path, capsys, extra, what):
        out = tmp_path / "empty.csv"
        code = self.run_cli("benchmark", "--out", out, *extra)
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {what}")
        assert not out.exists()
