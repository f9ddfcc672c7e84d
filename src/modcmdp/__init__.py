"""Finite-horizon constrained MDPs whose actions continuously modulate
transition probabilities within per-state polytopes: exact occupancy-LP
solver, extreme-point reduction, concave-envelope method for convex
rewards, policy evaluators and a synthetic loan-delinquency benchmark.
"""

from .model import (
    ActionPolytope,
    AffineReward,
    CmdpInstance,
    DeterministicPolicy,
    LayeredStateSpace,
    Policy,
    QualityConstraint,
    QuadraticDeviationReward,
    RandomizedPolicy,
    RewardSpec,
    WeightedL1Reward,
    box_polytope,
    validate,
)
from .lp import LpProblem, LpSolution, export_lp, farkas_gap, solve_lp
from .extend import ExtendedReward, extend_reward
from .occupancy import (
    OccupancySolution,
    QualityInfeasibleError,
    build_occupancy_lp,
    extract_policy,
    solve_occupancy,
)
from .vertices import (
    DecompositionError,
    FiniteCmdp,
    VertexSet,
    build_finite_cmdp,
    box_simplex_vertices,
    enumerate_for_instance,
    enumerate_vertices,
    mix_to_point,
    point_to_mix,
    solve_finite,
)
from .envelope import (
    build_envelope,
    envelope_value,
    hull_envelope,
    naive_linear_baseline,
    solve_with_envelope,
)
from .evaluate import EvaluationReport, evaluate_exact, simulate
from .loans import (
    METHODS,
    BenchmarkRecord,
    LoanConfig,
    SolveResult,
    generate_loan_instance,
    greedy_baseline,
    run_benchmark,
    solve,
    write_benchmark_csv,
)

__version__ = "0.1.0"

__all__ = [
    "METHODS",
    "ActionPolytope",
    "AffineReward",
    "BenchmarkRecord",
    "CmdpInstance",
    "DecompositionError",
    "DeterministicPolicy",
    "EvaluationReport",
    "ExtendedReward",
    "FiniteCmdp",
    "LayeredStateSpace",
    "LoanConfig",
    "LpProblem",
    "LpSolution",
    "OccupancySolution",
    "Policy",
    "QualityConstraint",
    "QualityInfeasibleError",
    "QuadraticDeviationReward",
    "RandomizedPolicy",
    "RewardSpec",
    "SolveResult",
    "VertexSet",
    "WeightedL1Reward",
    "box_polytope",
    "box_simplex_vertices",
    "build_envelope",
    "build_finite_cmdp",
    "build_occupancy_lp",
    "enumerate_for_instance",
    "enumerate_vertices",
    "envelope_value",
    "evaluate_exact",
    "export_lp",
    "extend_reward",
    "extract_policy",
    "farkas_gap",
    "generate_loan_instance",
    "greedy_baseline",
    "hull_envelope",
    "mix_to_point",
    "naive_linear_baseline",
    "point_to_mix",
    "run_benchmark",
    "simulate",
    "solve",
    "solve_finite",
    "solve_lp",
    "solve_occupancy",
    "solve_with_envelope",
    "validate",
    "write_benchmark_csv",
]
