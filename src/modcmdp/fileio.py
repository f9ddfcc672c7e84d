"""JSON file formats: problem files, policies, solutions and
evaluation reports.

The problem schema (all fields required unless noted):

.. code-block:: json

    {
      "horizon": 2,
      "layers": [["s"], ["ok", "bad"]],
      "alpha": [1.0],
      "states": {
        "s": {
          "base": [0.5, 0.5],
          "epsilon": 0.4,
          "reward": {"type": "l1", "center": [0.5, 0.5], "weights": [1, 1]}
        }
      },
      "constraints": [{"states": ["bad"], "bound": 0.2}]
    }

Per-state entries exist for nonterminal states only and carry either
``epsilon`` (a box around the base) or explicit ``H``/``h`` rows. Reward
types: "affine" (fields e, f), "l1" (optional center — default base —
and weights), "quadratic" (optional center/weights plus convex flag).
Unknown fields anywhere are rejected. Writing then parsing a problem
reproduces it exactly.
"""

from __future__ import annotations

import json

import numpy as np

from .evaluate import EvaluationReport, cap_masses
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
    WeightedL1Reward,
    box_polytope,
)


class SchemaError(ValueError):
    """Problem/policy file violates its documented schema."""


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise SchemaError(f"{where}: missing fields {sorted(missing)}")


def reward_to_json(rew) -> dict:
    if isinstance(rew, AffineReward):
        return {"type": "affine", "e": rew.e.tolist(), "f": rew.f}
    if isinstance(rew, WeightedL1Reward):
        return {
            "type": "l1",
            "center": rew.center.tolist(),
            "weights": rew.weights.tolist(),
        }
    if isinstance(rew, QuadraticDeviationReward):
        return {
            "type": "quadratic",
            "center": rew.center.tolist(),
            "convex": rew.convex,
            "weights": rew.weights.tolist(),
        }
    raise TypeError(f"unknown reward {type(rew).__name__}")


def reward_from_json(obj: dict, base: np.ndarray, where: str):
    if not isinstance(obj, dict) or "type" not in obj:
        raise SchemaError(f"{where}: reward must be an object with a 'type'")
    kind = obj["type"]
    if kind == "affine":
        _require_keys(obj, {"type", "e", "f"}, {"type", "e"}, where)
        return AffineReward(obj["e"], obj.get("f", 0.0))
    if kind == "l1":
        _require_keys(obj, {"type", "center", "weights"}, {"type"}, where)
        return WeightedL1Reward(obj.get("center", base), obj.get("weights"))
    if kind == "quadratic":
        _require_keys(obj, {"type", "center", "weights", "convex"}, {"type"}, where)
        return QuadraticDeviationReward(
            obj.get("center", base),
            convex=bool(obj.get("convex", False)),
            weights=obj.get("weights"),
        )
    raise SchemaError(f"{where}: unknown reward type {kind!r}")


def problem_to_json(instance: CmdpInstance) -> dict:
    states = {}
    for s in instance.states.nonterminal():
        poly = instance.polytopes[s]
        entry = {
            "base": poly.base.tolist(),
            "H": poly.H.tolist(),
            "h": poly.h.tolist(),
            "reward": reward_to_json(instance.rewards[s]),
        }
        states[s] = entry
    return {
        "horizon": instance.states.horizon,
        "layers": [list(layer) for layer in instance.states.layers],
        "alpha": instance.alpha.tolist(),
        "states": states,
        "constraints": [
            {"states": sorted(qc.states), "bound": qc.bound}
            for qc in instance.constraints
        ],
    }


def problem_from_json(obj: dict) -> CmdpInstance:
    _require_keys(
        obj,
        {"horizon", "layers", "alpha", "states", "constraints"},
        {"horizon", "layers", "alpha", "states"},
        "problem",
    )
    layers = obj["layers"]
    if len(layers) != obj["horizon"]:
        raise SchemaError("problem: horizon does not match the layer count")
    space = LayeredStateSpace(layers)
    polytopes, rewards = {}, {}
    entries = obj["states"]
    for s in space.nonterminal():
        if s not in entries:
            raise SchemaError(f"problem: state {s!r} has no entry")
        e = entries[s]
        _require_keys(
            e,
            {"base", "epsilon", "H", "h", "reward"},
            {"base", "reward"},
            f"state {s!r}",
        )
        base = np.asarray(e["base"], dtype=float)
        if "epsilon" in e:
            if "H" in e or "h" in e:
                raise SchemaError(f"state {s!r}: give either epsilon or H/h")
            polytopes[s] = box_polytope(base, float(e["epsilon"]))
        elif "H" in e or "h" in e:
            if not ("H" in e and "h" in e):
                raise SchemaError(f"state {s!r}: H and h must come together")
            polytopes[s] = ActionPolytope(base, e["H"], e["h"])
        else:
            raise SchemaError(f"state {s!r}: no action polytope given")
        rewards[s] = reward_from_json(e["reward"], base, f"state {s!r}")
    extra = set(entries) - set(space.nonterminal())
    if extra:
        raise SchemaError(f"problem: entries for unknown/terminal states {sorted(extra)}")
    constraints = []
    for i, c in enumerate(obj.get("constraints", [])):
        _require_keys(c, {"states", "bound"}, {"states", "bound"}, f"constraint {i}")
        constraints.append(QualityConstraint(c["states"], c["bound"]))
    return CmdpInstance(space, polytopes, rewards, obj["alpha"], constraints)


def policy_to_json(policy: Policy) -> dict:
    if isinstance(policy, DeterministicPolicy):
        return {
            "type": "deterministic",
            "actions": {s: a.tolist() for s, a in policy.actions.items()},
        }
    return {
        "type": "randomized",
        "mixtures": {
            s: [[w, a.tolist()] for w, a in pairs]
            for s, pairs in policy.mixtures.items()
        },
    }


def policy_from_json(obj: dict) -> Policy:
    _require_keys(obj, {"type", "actions", "mixtures"}, {"type"}, "policy")
    kind = obj["type"]
    if kind not in ("deterministic", "randomized"):
        raise SchemaError(f"policy: unknown type {kind!r}")
    field = "actions" if kind == "deterministic" else "mixtures"
    _require_keys(obj, {"type", field}, {"type", field}, f"{kind} policy")
    entries = obj[field]
    if not isinstance(entries, dict):
        raise SchemaError(f"{kind} policy: {field} must be an object keyed by state")
    if kind == "deterministic":
        return DeterministicPolicy(entries)
    for s, pairs in entries.items():
        if not (isinstance(pairs, list)
                and all(isinstance(p, list) and len(p) == 2 for p in pairs)):
            raise SchemaError(f"randomized policy: the mixture of {s!r} is not a "
                              "list of [weight, action] pairs")
    return RandomizedPolicy(
        {s: [(w, np.asarray(a)) for w, a in pairs] for s, pairs in entries.items()})


def solution_to_json(instance: CmdpInstance, result) -> dict:
    """The solution file of a :func:`modcmdp.solve` result."""
    visit_mass = result.visit_mass
    out = {
        "objective": result.objective,
        "visit_mass": visit_mass,
        "policy": policy_to_json(result.policy),
        "constraints": [
            {
                "states": sorted(qc.states),
                "bound": qc.bound,
                "mass": m,
                "slack": qc.bound - m,
            }
            for qc, m in zip(
                instance.constraints, cap_masses(instance, visit_mass).tolist()
            )
        ],
    }
    if result.bound is not None:
        out["relaxation_bound"] = result.bound
    return out


def report_to_json(report: EvaluationReport) -> dict:
    out = {
        "visit_mass": report.visit_mass,
        "value": report.value,
        "constraint_masses": report.constraint_masses.tolist(),
        "constraint_slacks": report.constraint_slacks.tolist(),
        "feasible": report.feasible,
    }
    if report.trajectories is not None:
        out["trajectories"] = report.trajectories
        out["std_error"] = report.std_error
    return out


def dump_json(obj: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def load_json(path) -> dict:
    with open(path) as f:
        return json.load(f)
