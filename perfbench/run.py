"""Run one benchmark workload against the modcmdp source in this checkout
and print its result as the last line of standard output.

    python3 perfbench/run.py --workload l1-occupancy --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

One process runs one workload as a closed loop: a single caller, each
operation starting when the previous one returns. The run repeats whole
passes of the workload while another pass fits in ``--seconds`` (and
until at least three untraced passes, or two untraced and two traced
ones, have run), checks every pass's outputs, and reports medians over
passes. Operation latency percentiles are taken within each pass, whose
operations are the same every time, so they do not depend on how many
passes fitted. Peak memory is read after the first pass, before any check runs:
the allocator's high-water mark creeps up over repeated passes, so a
later reading would depend on how many passes fitted.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate in pairs and the
result holds the per-layer metrics of the traced ones. Set-up is timed in fresh
interpreters, several times, and reported as the median. A full record
of the run (environment, every pass, every failed operation, every
failed check) goes to ``perfbench/out/``. ``--workload all`` runs every
workload, each in its own process, and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 3
MIN_PASSES = 3  # untraced passes with --trace 0; each kind with --trace 1: 2
CHILD_TIMEOUT_S = 170

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms", "op_p90_ms": "ms"}


def _unit(metric: str) -> str:
    if metric in E2E_UNITS:
        return E2E_UNITS[metric]
    if metric.endswith("_per_s"):
        return "1/s"
    return "s" if metric.endswith("_s") else "count"


def _use_checkout_source() -> None:
    """Import modcmdp from this checkout's src/, never from elsewhere."""
    if not (SRC / "modcmdp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no modcmdp source under {SRC}")
    sys.path.insert(0, str(SRC))
    import modcmdp

    if SRC.resolve() not in Path(modcmdp.__file__).resolve().parents:
        sys.exit(f"perfbench: modcmdp was imported from {modcmdp.__file__}, not {SRC}")


def _git_revision() -> str | None:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_revision": _git_revision(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


def _probe_setup(workload: str, seed: int) -> None:
    """Child process: time importing modcmdp and building the inputs."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import modcmdp  # noqa: F401

    t1 = time.perf_counter()
    import workloads

    t2 = time.perf_counter()
    workloads.WORKLOADS[workload].build(seed)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t3 - t2}))


def _measure_setup(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        res = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        rec = json.loads(res.stdout.strip().splitlines()[-1])
        samples.append(rec["import_s"] + rec["build_s"])
    return samples


def _warm_up() -> None:
    """Load the solver back ends before the first timed pass."""
    import modcmdp as mc

    p = mc.LpProblem(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    mc.solve_lp(p, backend="dense")
    mc.solve_lp(p, backend="highs")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    _use_checkout_source()
    import spans
    import workloads

    if name not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)} or 'all'")
    w = workloads.WORKLOADS[name]
    setup_samples = _measure_setup(name, seed)

    setup_layers = {}
    if trace:
        tracer = spans.Tracer()
        with spans.instrument(tracer), tracer.span("bench.setup"):
            inputs = w.build(seed)
        selfs = spans.self_times(tracer.spans)
        setup_layers["loans.generate_s"] = float(
            sum(selfs[s.id] for s in tracer.spans if s.name == "loans.generate")
        )
    else:
        inputs = w.build(seed)
    _warm_up()

    passes, failures, problems = [], [], []
    memo: dict = {}
    start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 4 in (1, 2)  # untraced, traced, traced, untraced, ...
        tracer = spans.Tracer() if traced else None
        rec = workloads.Recorder(name, k, tracer)
        entry = {"index": k, "traced": traced}
        if traced:
            with spans.instrument(tracer), tracer.span("bench.pass"):
                out = w.run(inputs, rec)
            entry["layers"] = spans.pass_metrics(tracer.spans)
            gap = spans.accounting_gap(tracer.spans)
            if abs(gap) > 1e-9 * entry["layers"]["trace.wall_s"]:
                problems.append(f"pass {k}: span self times miss the traced wall time by {gap!r} s")
        else:
            out = w.run(inputs, rec)
            ms = [1000.0 * x for x in rec.latencies]
            entry.update(op_p50_ms=statistics.median(ms), op_p90_ms=statistics.quantiles(ms, n=10)[8])
        entry.update(wall_s=sum(rec.latencies), ops=len(rec.latencies), failed=len(rec.failures))
        passes.append(entry)
        failures += rec.failures
        if k == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems += [f"pass {k}: {p}" for p in w.check(inputs, out, memo)]
        k += 1
        untraced = [p for p in passes if not p["traced"]]
        enough = len(untraced) >= (2 if trace else MIN_PASSES) and len(passes) - len(untraced) >= (2 if trace else 0)
        # stop before a pass that would end past the run length
        typical = statistics.median(p["wall_s"] for p in passes)
        if enough and time.perf_counter() - start + typical >= seconds:
            break

    untraced = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in untraced]
    if trace:
        layer_passes = [p["layers"] for p in passes if p["traced"]]
        metrics = {m: statistics.median(lp[m] for lp in layer_passes) for m in layer_passes[0]}
        metrics.update(setup_layers)
        traced_walls = [p["wall_s"] for p in passes if p["traced"]]
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb,
            "op_p50_ms": statistics.median(p["op_p50_ms"] for p in untraced),
            "op_p90_ms": statistics.median(p["op_p90_ms"] for p in untraced),
        }
    result = {
        "correct": not problems,
        "attempted": sum(p["ops"] for p in passes),
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": _unit(m)} for m, v in sorted(metrics.items())},
    }
    record = {
        "workload": name,
        "seconds": seconds,
        "trace": trace,
        "environment": _environment(seed),
        "setup_samples_s": setup_samples,
        "passes": passes,
        "failures": failures,
        "problems": problems,
        **result,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    for p in problems[:20]:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    for f in failures[: len(failures) // max(len(passes), 1)]:
        print(f"op failed: {f['operation']} on {f['cell']}: {f['type']}: {f['message']}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; a table of every metric."""
    _use_checkout_source()
    import workloads

    status, combined = 0, {}
    for name in workloads.WORKLOADS:
        res = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60,
        )
        sys.stderr.write(res.stderr)
        if res.returncode != 0 and not res.stdout.strip():
            print(f"{name}: exit code {res.returncode}, no result")
            status = 1
            continue
        status = max(status, res.returncode)
        r = json.loads(res.stdout.strip().splitlines()[-1])
        combined[name] = r
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for m, v in r["metrics"].items():
            print(f"  {m:32s} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe_setup:
        _probe_setup(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
