"""Generate synthetic delinquency-management problems and run a small
benchmark sweep: exact occupancy solves across state counts, the
extreme-point route for comparison, a greedy month-by-month baseline,
and a sweep over the default-probability cap.

Writes loan_bench.csv next to this script, or to the path given as the
first argument (``python demos/04_loan_benchmark.py out.csv``). Larger
sweeps are one command away:
``modcmdp benchmark --states 4..8 --methods convex,extreme --out f.csv``.
"""

import sys
from pathlib import Path

from modcmdp import (
    LoanConfig,
    generate_loan_instance,
    greedy_baseline,
    run_benchmark,
    solve_occupancy,
    write_benchmark_csv,
)

cfg = LoanConfig(n_states=6, q_default=0.5)
instance = generate_loan_instance(cfg)
sol = solve_occupancy(instance)
print(f"6-level instance, cap 0.5: optimal cost {-sol.objective:.4f}")

greedy_obj, _ = greedy_baseline(instance)
print(f"greedy month-by-month baseline cost:   {-greedy_obj:.4f} "
      f"(never below the optimum)")

print("\ntiming sweep (affine surrogate rewards):")
records = run_benchmark(
    [4, 5, 6],
    ["convex", "extreme"],
    cfg=LoanConfig(reward_kind="affine", q_default=0.9),
    timeout=120,
)
for r in records:
    print(f"  {r.method:8s} n={r.n_states}  {r.wall_ms:9.1f} ms  "
          f"status={r.status}  vertices={r.vertices_total}")

print("\ncap sweep at n=8 (objective rises as the cap relaxes):")
sweep = run_benchmark(
    [8],
    ["convex"],
    cfg=LoanConfig(n_states=8),
    q_values=[0.05, 0.10, 0.15, 0.20, 0.30],
    timeout=120,
)
for r in sweep:
    obj = "infeasible" if r.objective is None else f"{r.objective:.4f}"
    print(f"  cap={r.q:<5g} objective={obj}")

default = Path(__file__).with_name("loan_bench.csv")
out = Path(sys.argv[1]) if len(sys.argv) > 1 else default
write_benchmark_csv(records + sweep, out)
print(f"\nwrote {out}")
