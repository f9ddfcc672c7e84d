"""Command-line entry point: solve problem files, generate loan
instances, evaluate policies, and run the benchmark harness.

Every command writes a ``<out>.manifest.json`` next to its output with
the argv, input hashes, seed (``evaluate``'s; null for the others),
package version, numpy and scipy versions (scipy vendors the HiGHS
solver) and wall time, so any published number can be regenerated from
one command line. Exit codes: 0 optimal/success, 2
infeasible, 3 timeout, 1 any other error, usage errors included. The
environment variable MODCMDP_TIMEOUT sets the default time budget in
seconds, which bounds every method.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time

import numpy
import scipy

from . import __version__, fileio
from .evaluate import evaluate_exact, simulate
from .loans import (
    METHODS,
    LoanConfig,
    generate_loan_instance,
    run_benchmark,
    solve,
    write_benchmark_csv,
)
from .model import validate
from .occupancy import QualityInfeasibleError

EXIT_OK, EXIT_ERROR, EXIT_INFEASIBLE, EXIT_TIMEOUT = 0, 1, 2, 3

# How a command's failure is reported: the first matching type wins.
_FAILURES = (
    (fileio.SchemaError, "schema error", EXIT_ERROR),
    (FileNotFoundError, "file not found", EXIT_ERROR),
    (QualityInfeasibleError, "infeasible", EXIT_INFEASIBLE),
    (TimeoutError, "timeout", EXIT_TIMEOUT),
    (ValueError, "error", EXIT_ERROR),
)


def _hash_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def _manifest(command, args_dict, inputs, outputs, seed, wall):
    args = {}
    for k, v in args_dict.items():
        if k in ("func", "states_list") or v is None:
            continue
        args[k] = v if isinstance(v, (bool, int, float, str)) else str(v)
    return {
        "command": command,
        "arguments": args,
        "input_hashes": {str(p): _hash_file(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "seed": seed,
        "version": __version__,
        "numpy_version": numpy.__version__,
        "scipy_version": scipy.__version__,
        "wall_time_s": wall,
    }


def _write_with_manifest(payload, out, manifest):
    fileio.dump_json(payload, out)
    fileio.dump_json(manifest, str(out) + ".manifest.json")


def _default_timeout():
    v = os.environ.get("MODCMDP_TIMEOUT")
    if not v:
        return None
    try:
        return float(v)
    except ValueError:
        raise ValueError(f"MODCMDP_TIMEOUT must be a number of seconds, got {v!r}") from None


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    instance = fileio.problem_from_json(fileio.load_json(args.problem))
    bad = validate(instance)
    if bad:
        print("problem file failed validation:", file=sys.stderr)
        for line in bad:
            print("  -", line, file=sys.stderr)
        return EXIT_ERROR

    res = solve(instance, args.method, time_limit=args.timeout,
                tangent_cuts=args.tangent_cuts)
    wall = time.perf_counter() - t0
    _write_with_manifest(
        fileio.solution_to_json(instance, res), args.out,
        _manifest("solve", vars(args), [args.problem], [args.out], None, wall),
    )
    print(f"objective {res.objective:.9g} written to {args.out}")
    return EXIT_OK


# the loan reward kind each --reward value names
_REWARDS = {"l1": "l1", "quad": "quad_convex", "affine": "affine"}


def _loan_config(args, n_states: int) -> LoanConfig:
    return LoanConfig(n_states=n_states, horizon=args.horizon,
                      epsilon=args.epsilon, q_default=args.qbound,
                      reward_kind=_REWARDS[args.reward])


def cmd_generate(args) -> int:
    t0 = time.perf_counter()
    instance = generate_loan_instance(_loan_config(args, args.states))
    payload = fileio.problem_to_json(instance)
    wall = time.perf_counter() - t0
    _write_with_manifest(
        payload, args.out,
        _manifest("generate", vars(args), [], [args.out], None, wall),
    )
    print(f"{args.states}-level loan problem written to {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    t0 = time.perf_counter()
    instance = fileio.problem_from_json(fileio.load_json(args.problem))
    policy = fileio.policy_from_json(fileio.load_json(args.policy))
    report = evaluate_exact(instance, policy)
    payload = {"exact": fileio.report_to_json(report)}
    if args.simulate:
        emp = simulate(instance, policy, args.simulate, seed=args.seed)
        payload["simulated"] = fileio.report_to_json(emp)
    wall = time.perf_counter() - t0
    _write_with_manifest(
        payload, args.out,
        _manifest("evaluate", vars(args), [args.problem, args.policy],
                  [args.out], args.seed, wall),
    )
    print(f"exact return {report.value:.9g} written to {args.out}")
    return EXIT_OK


def _parse_states(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        out = list(range(int(lo), int(hi) + 1))
    else:
        out = [int(x) for x in text.split(",") if x]
    if not out:
        raise ValueError(f"--states {text!r} names no state count")
    return out


def _parse_sweep(text: str) -> list[float]:
    lo, hi, step = (float(x) for x in text.split(":"))
    if step <= 0:
        raise ValueError("sweep step must be positive")
    out = []
    v = lo
    while v <= hi + 1e-12:
        out.append(round(v, 12))
        v += step
    if not out:
        raise ValueError(f"--q-sweep {text!r} names no cap")
    return out


def cmd_benchmark(args) -> int:
    t0 = time.perf_counter()
    methods = [m for m in args.methods.split(",") if m]
    if not methods:
        raise ValueError(f"--methods {args.methods!r} names no method")
    cfg = _loan_config(args, args.states_list[0])
    q_values = _parse_sweep(args.q_sweep) if args.q_sweep else None
    records = run_benchmark(
        args.states_list, methods, cfg=cfg, q_values=q_values, timeout=args.timeout
    )
    write_benchmark_csv(records, args.out)
    wall = time.perf_counter() - t0
    fileio.dump_json(
        _manifest("benchmark", vars(args), [], [args.out], None, wall),
        str(args.out) + ".manifest.json",
    )
    worst = {r.status for r in records}
    print(f"{len(records)} cells -> {args.out} (statuses: {sorted(worst)})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="modcmdp",
        description="solvers for constrained MDPs with transition-probability "
        "modulation",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    sv = sub.add_parser("solve", help="solve a problem file")
    sv.add_argument("problem")
    sv.add_argument("--method", required=True, choices=METHODS,
                    help="extreme-restricted skips the L1 reward kink "
                    "planes (a lower bound)")
    sv.add_argument("--out", required=True)
    sv.add_argument("--tangent-cuts", type=int, default=None,
                    help="opt-in K-cut outer approximation for concave "
                    "quadratic rewards: reports the extracted policy's true "
                    "return, which can be far from optimal, and the LP "
                    "value as an upper bound, which can be trivial")
    sv.add_argument("--timeout", type=float, default=_default_timeout())
    sv.set_defaults(func=cmd_solve)

    loan_opts = argparse.ArgumentParser(add_help=False)
    loan_opts.add_argument("--horizon", type=int, default=6)
    loan_opts.add_argument("--epsilon", type=float, default=0.4)
    loan_opts.add_argument("--qbound", type=float, default=0.04)
    loan_opts.add_argument("--reward", default="l1", choices=list(_REWARDS))

    gen = sub.add_parser("generate", help="generate a synthetic problem file")
    gsub = gen.add_subparsers(dest="family", required=True)
    loan = gsub.add_parser("loan", help="loan-delinquency chain", parents=[loan_opts])
    loan.add_argument("--states", type=int, default=8)
    loan.add_argument("--out", required=True)
    loan.set_defaults(func=cmd_generate)

    ev = sub.add_parser("evaluate", help="evaluate a policy file")
    ev.add_argument("problem")
    ev.add_argument("policy")
    ev.add_argument("--simulate", type=int, default=0,
                    help="also report a Monte Carlo estimate from N "
                    "trajectories")
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_evaluate)

    bm = sub.add_parser("benchmark", help="timing/quality sweeps to CSV",
                        parents=[loan_opts])
    bm.add_argument("--states", required=True,
                    help="range a..b or comma list")
    bm.add_argument("--methods", required=True,
                    help="comma list from " + ",".join(METHODS))
    bm.add_argument("--q-sweep", default=None,
                    help="lo:hi:step cap sweep at the first state count")
    bm.add_argument("--timeout", type=float,
                    default=_default_timeout() or 300.0)
    bm.add_argument("--out", required=True)
    bm.set_defaults(func=cmd_benchmark)
    return ap


def main(argv=None) -> int:
    try:
        # building the parser reads MODCMDP_TIMEOUT, which may be malformed
        args = build_parser().parse_args(argv)
        if args.cmd == "benchmark":
            args.states_list = _parse_states(args.states)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of "infeasible" here;
        # --help and --version exit 0
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    except tuple(kind for kind, _, _ in _FAILURES) as exc:
        prefix, code = next((p, c) for k, p, c in _FAILURES if isinstance(exc, k))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
