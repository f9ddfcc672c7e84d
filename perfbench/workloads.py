"""The four workloads: their seeded inputs, one pass of timed operations,
and the checks on each pass's outputs.

Every call into the package goes through the ``mc`` module attribute at
call time, so the traced run's wrappers see it. A pass runs the same
operations in the same order whatever the seed; the seed only changes
numbers inside the inputs (reward weights, caps, random instances).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import modcmdp as mc

import checks

# Monte Carlo trajectories per simulated policy on quad-envelope.
TRAJECTORIES = 20_000


@dataclass
class Cell:
    name: str
    instance: object
    info: dict = field(default_factory=dict)


class Recorder:
    """Times each operation of one pass and records each failure with its
    exception type and message."""

    def __init__(self, workload: str, pass_index: int, tracer=None):
        self.workload = workload
        self.pass_index = pass_index
        self.tracer = tracer
        self.latencies: list[float] = []
        self.failures: list[dict] = []

    def op(self, name: str, cell: str, fn, *args, **kwargs):
        """Run one operation; returns its result, or None when it raised."""
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                return fn(*args, **kwargs)
            with self.tracer.span("bench.op", op=name, cell=cell):
                return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(
                {
                    "workload": self.workload,
                    "pass": self.pass_index,
                    "operation": name,
                    "cell": cell,
                    "type": type(exc).__name__,
                    "message": str(exc),
                }
            )
            return None
        finally:
            self.latencies.append(time.perf_counter() - t0)


# Seeded perturbations stay within this share, so the work of a pass
# varies little from seed to seed.
JITTER = 0.03


def _jitter(rng, size=None):
    return rng.uniform(1.0 - JITTER, 1.0 + JITTER, size=size)


def _loan(n: int, kind: str, q: float, rewards_of=None):
    """A loan instance from the package's generator, with its rewards
    replaced by ``rewards_of(state, reward)`` when given."""
    inst = mc.generate_loan_instance(mc.LoanConfig(n_states=n, reward_kind=kind, q_default=q))
    if rewards_of is None:
        return inst
    rewards = {s: rewards_of(s, r) for s, r in inst.rewards.items()}
    return mc.CmdpInstance(inst.states, inst.polytopes, rewards, inst.alpha, inst.constraints)


def _l1_weights(rng):
    return lambda s, r: mc.WeightedL1Reward(r.center, _jitter(rng, r.dim))


# ---------------------------------------------------------------------------


class L1Occupancy:
    """Loan L1 rewards by the occupancy program: a cap sweep, a degenerate
    LP whose base policy is optimal, a binding tight cap, and greedy."""

    name = "l1-occupancy"
    SWEEP_N = 20
    SWEEP_Q = (0.002, 0.006, 0.010, 0.014)
    GREEDY_AT = 2  # greedy runs on the sweep cell with cap 0.010
    BIG_N = 25
    BIG_Q = (0.04, 0.0005)

    def build(self, seed: int) -> list[Cell]:
        rng = np.random.default_rng(seed)
        w20 = {}  # one weight table for the whole sweep, so caps alone differ

        def sweep_weights(s, r):
            if s not in w20:
                w20[s] = _jitter(rng, r.dim)
            return mc.WeightedL1Reward(r.center, w20[s])

        cells = [
            Cell(f"n{self.SWEEP_N}-q{q:g}", _loan(self.SWEEP_N, "l1", q * _jitter(rng), sweep_weights), {"sweep": True})
            for q in self.SWEEP_Q
        ]
        cells += [
            Cell(f"n{self.BIG_N}-q{q:g}", _loan(self.BIG_N, "l1", q * _jitter(rng), _l1_weights(rng)))
            for q in self.BIG_Q
        ]
        return cells

    def run(self, cells, rec: Recorder) -> dict:
        out = {}
        for c in cells:
            sol = rec.op("solve_occupancy", c.name, mc.solve_occupancy, c.instance)
            pol = sol and rec.op("extract_policy", c.name, mc.extract_policy, sol, c.instance)
            rep = pol and rec.op("evaluate_exact", c.name, mc.evaluate_exact, c.instance, pol)
            out[c.name] = (sol, pol, rep)
        g = cells[self.GREEDY_AT]
        out["greedy"] = rec.op("greedy_baseline", g.name, mc.greedy_baseline, g.instance)
        return out

    def check(self, cells, out, memo) -> list[str]:
        problems = []
        sweep = []
        for c in cells:
            sol, pol, rep = out[c.name]
            if rep is None:
                continue
            inst, obj = c.instance, sol.objective
            problems += checks.check_policy(inst, pol, obj, c.name)
            if not checks.close(rep.value, obj):
                problems.append(f"{c.name}: evaluate_exact gives {rep.value!r}, solver {obj!r}")
            if obj > 1e-9:
                problems.append(f"{c.name}: L1 objective {obj!r} is positive")
            (q,) = [qc.bound for qc in inst.constraints]
            if checks.base_policy_mass(inst)[0] <= q and abs(obj) > 1e-9:
                problems.append(f"{c.name}: base policy meets the cap but objective is {obj!r}")
            key = (c.name, "bound")
            if key not in memo:
                memo[key] = checks.lagrangian_bound(inst)
            problems += checks.check_bound(obj, memo[key], c.name)
            if c.info.get("sweep"):
                sweep.append(obj)
        if len(sweep) == len(self.SWEEP_Q):
            problems += checks.nondecreasing_and_rising(sweep)
        g, glob = out["greedy"], out[cells[self.GREEDY_AT].name][0]
        if g is not None and glob is not None:
            inst = cells[self.GREEDY_AT].instance
            problems += checks.check_policy(inst, g[1], g[0], "greedy")
            if g[0] > glob.objective + 1e-9:
                problems.append(f"greedy {g[0]!r} beats the global optimum {glob.objective!r}")
        return problems


class QuadEnvelope:
    """Convex-quadratic loans by the concave envelope, against the naive
    linear baseline, with exact and Monte Carlo evaluation."""

    name = "quad-envelope"
    SIZES = (10, 14, 16)

    def build(self, seed: int) -> list[Cell]:
        rng = np.random.default_rng(seed)

        def weights(s, r):
            return mc.QuadraticDeviationReward(r.center, convex=True, weights=_jitter(rng, r.dim))

        return [
            Cell(f"n{n}", _loan(n, "quad_convex", 0.04, weights), {"sim_seed": seed * 1000 + n})
            for n in self.SIZES
        ]

    def run(self, cells, rec: Recorder) -> dict:
        out = {}
        for c in cells:
            env = rec.op("solve_with_envelope", c.name, mc.solve_with_envelope, c.instance)
            naive = rec.op("naive_linear_baseline", c.name, mc.naive_linear_baseline, c.instance)
            rep = sim = None
            if env is not None:
                rep = rec.op("evaluate_exact", c.name, mc.evaluate_exact, c.instance, env[1])
                sim = rec.op(
                    "simulate", c.name, mc.simulate, c.instance, env[1], TRAJECTORIES, seed=c.info["sim_seed"]
                )
            out[c.name] = (env, naive, rep, sim)
        return out

    def check(self, cells, out, memo) -> list[str]:
        problems = []
        for k, c in enumerate(cells):
            env, naive, rep, sim = out[c.name]
            if env is not None:
                problems += checks.check_policy(c.instance, env[1], env[0], f"{c.name} envelope")
            if naive is not None:
                problems += checks.check_policy(c.instance, naive[1], naive[0], f"{c.name} naive")
            if rep is not None and not checks.close(rep.value, env[0]):
                problems.append(f"{c.name}: evaluate_exact gives {rep.value!r}, envelope {env[0]!r}")
            if sim is not None and abs(sim.value - env[0]) > 4 * sim.std_error:
                problems.append(
                    f"{c.name}: Monte Carlo {sim.value!r} is more than 4 SE ({sim.std_error!r}) from {env[0]!r}"
                )
            if env is not None and naive is not None:
                if naive[0] > env[0] + 1e-7:
                    problems.append(f"{c.name}: naive {naive[0]!r} beats the envelope {env[0]!r}")
                if k == len(cells) - 1 and not env[0] > naive[0] + 1e-6:
                    problems.append(f"{c.name}: envelope {env[0]!r} does not beat naive {naive[0]!r}")
        return problems


class ExtremeSweep:
    """The extreme-point route by exhaustive vertex enumeration against
    the occupancy program: affine loans at a loose cap, L1 loans with kink
    planes at a binding cap."""

    name = "extreme-sweep"
    AFFINE_N = (4, 5, 6, 7)
    AFFINE_Q = 0.9
    L1_N = (5, 6)

    def build(self, seed: int) -> list[Cell]:
        rng = np.random.default_rng(seed)

        def affine(s, r):
            return mc.AffineReward(np.asarray(r.e) * _jitter(rng, r.dim), r.f)

        cells = [
            Cell(f"affine-n{n}", _loan(n, "affine", self.AFFINE_Q, affine), {"kind": "affine"})
            for n in self.AFFINE_N
        ]
        for n in self.L1_N:
            inst = _loan(n, "l1", 1.0, _l1_weights(rng))
            (qc,) = inst.constraints
            cap = mc.QualityConstraint(qc.states, 0.5 * checks.base_policy_mass(inst)[0] * _jitter(rng))
            inst = mc.CmdpInstance(inst.states, inst.polytopes, inst.rewards, inst.alpha, [cap])
            cells.append(Cell(f"l1-n{n}", inst, {"kind": "l1"}))
        return cells

    def run(self, cells, rec: Recorder) -> dict:
        out = {}
        for c in cells:
            inst = c.instance
            sol = rec.op("solve_occupancy", c.name, mc.solve_occupancy, inst)
            pol = sol and rec.op("extract_policy", c.name, mc.extract_policy, sol, inst)
            vs = rec.op(
                "enumerate_for_instance", c.name, mc.enumerate_for_instance, inst,
                method="exhaustive", kink_planes=c.info["kind"] == "l1",
            )
            fc = vs and rec.op("build_finite_cmdp", c.name, mc.build_finite_cmdp, inst, vs)
            fin = fc and rec.op("solve_finite", c.name, mc.solve_finite, fc)
            out[c.name] = (sol, pol, vs, fin)
        return out

    def check(self, cells, out, memo) -> list[str]:
        problems = []
        per_state = {"affine": [], "l1": []}
        for c in cells:
            sol, pol, vs, fin = out[c.name]
            inst = c.instance
            if pol is not None:
                problems += checks.check_policy(inst, pol, sol.objective, f"{c.name} occupancy")
            if fin is not None:
                problems += checks.check_policy(inst, fin[1], fin[0], f"{c.name} extreme")
            if pol is not None and fin is not None and not checks.close(sol.objective, fin[0], 1e-7):
                problems.append(f"{c.name}: occupancy {sol.objective!r} != extreme {fin[0]!r}")
            if vs is not None:
                per_state[c.info["kind"]].append(vs.total() / len(vs.vertices))
            if sol is None:
                continue
            key = (c.name, "oracle")
            if c.info["kind"] == "affine":
                if key not in memo:
                    memo[key] = checks.check_affine_dp(inst, sol.objective, c.name)
            elif key not in memo:
                memo[key] = checks.check_bound(sol.objective, checks.lagrangian_bound(inst), c.name)
            problems += memo[key]
        for kind, counts in per_state.items():
            problems += checks.strictly_growing(counts, f"{kind} vertices per state")
        return problems


class SmallInstances:
    """About a hundred seeded random layered instances small enough for
    the embedded dense simplex, plus one fixed input that the package
    falsely rejects."""

    name = "small-instances"
    COUNT = 100
    # Fixes each instance's shape (horizon, layer sizes, reward family,
    # capped states), so every seed runs the same operations.
    SHAPE_SEED = 20130926
    # Base rows, radii and the initial distribution are multiples of
    # 1/GRID, so every box vertex is exact in binary and at 9 decimals.
    GRID = 64
    # The n=10 convex-quadratic loan: its naive-linear action at this state
    # lies in its box, yet envelope_value rejects it.
    REPRO_N = 10
    REPRO_STATE = "t3_l6"

    def _instance(self, k: int, seed: int):
        shape = np.random.default_rng([self.SHAPE_SEED, k])
        rng = np.random.default_rng([seed, k])
        T = int(shape.integers(2, 5))
        sizes = [int(shape.integers(1, 4))] + [int(shape.integers(1, 7)) for _ in range(T - 1)]
        family = "affine" if k % 2 == 0 else "l1"
        layers = [[f"s{t}_{i}" for i in range(sizes[t])] for t in range(T)]
        later = [s for layer in layers[1:] for s in layer]
        n_caps = int(shape.integers(1, 3))
        members = [
            list(shape.choice(later, size=min(len(later), int(shape.integers(1, 3))), replace=False))
            for _ in range(n_caps)
        ]

        def grid_dist(dim):
            return rng.multinomial(self.GRID, rng.dirichlet(np.full(dim, 2.0))) / self.GRID

        polytopes, rewards = {}, {}
        for t in range(T - 1):
            for s in layers[t]:
                dim = sizes[t + 1]
                base = grid_dist(dim)
                polytopes[s] = mc.box_polytope(base, int(rng.integers(5, 33)) / self.GRID)
                if family == "affine":
                    rewards[s] = mc.AffineReward(rng.normal(size=dim), float(rng.normal()))
                else:
                    rewards[s] = mc.WeightedL1Reward(base, rng.uniform(0.2, 2.0, size=dim))
        space = mc.LayeredStateSpace(layers)
        alpha = grid_dist(sizes[0])
        free = mc.CmdpInstance(space, polytopes, rewards, alpha, [mc.QualityConstraint(m, 1.0) for m in members])
        caps = [
            mc.QualityConstraint(m, mass * float(rng.uniform(1.0, 1.5)) + 1e-3)
            for m, mass in zip(members, checks.base_policy_mass(free))
        ]
        return Cell(f"i{k:03d}", mc.CmdpInstance(space, polytopes, rewards, alpha, caps), {"kind": family})

    def build(self, seed: int) -> dict:
        cells = [self._instance(k, seed) for k in range(self.COUNT)]
        inst = mc.generate_loan_instance(mc.LoanConfig(n_states=self.REPRO_N, reward_kind="quad_convex"))
        _, naive = mc.naive_linear_baseline(inst)
        model = mc.build_envelope(inst)
        repro = Cell(
            f"loan-quad-n{self.REPRO_N}/{self.REPRO_STATE}",
            inst,
            {"model": model, "action": naive.actions[self.REPRO_STATE]},
        )
        return {"cells": cells, "repro": repro}

    def run(self, inputs, rec: Recorder) -> dict:
        out = {}
        for c in inputs["cells"]:
            inst = c.instance
            sol = rec.op("solve_occupancy", c.name, mc.solve_occupancy, inst)
            pol = sol and rec.op("extract_policy", c.name, mc.extract_policy, sol, inst)
            vs = rec.op("enumerate_for_instance", c.name, mc.enumerate_for_instance, inst, method="auto")
            fin = model = None
            if c.info["kind"] == "affine" and vs is not None:
                fin = rec.op("solve_finite", c.name, _solve_finite, inst, vs)
                model = rec.op("build_envelope", c.name, mc.build_envelope, inst, vs)
            mixes, values = {}, {}
            if pol is not None and vs is not None:
                for s, a in pol.actions.items():
                    mixes[s] = rec.op("point_to_mix", f"{c.name}/{s}", mc.point_to_mix, a, vs.vertices[s])
                    if model is not None:
                        values[s] = rec.op("envelope_value", f"{c.name}/{s}", mc.envelope_value, model, s, a)
            out[c.name] = (sol, pol, fin, mixes, values)
        r = inputs["repro"]
        out["repro"] = rec.op(
            "envelope_value", r.name, mc.envelope_value, r.info["model"], self.REPRO_STATE, r.info["action"]
        )
        return out

    def check(self, inputs, out, memo) -> list[str]:
        problems = []
        for c in inputs["cells"]:
            sol, pol, fin, mixes, values = out[c.name]
            inst = c.instance
            if pol is None:
                continue
            problems += checks.check_policy(inst, pol, sol.objective, f"{c.name} occupancy")
            if fin is not None:
                problems += checks.check_policy(inst, fin[1], fin[0], f"{c.name} extreme")
                if not checks.close(sol.objective, fin[0], 1e-7):
                    problems.append(f"{c.name}: occupancy {sol.objective!r} != extreme {fin[0]!r}")
            for s, pairs in mixes.items():
                if pairs is not None:
                    lo, up = checks.box_of(inst.polytopes[s])
                    problems += checks.check_mixture(pairs, pol.actions[s], lo, up, f"{c.name}/{s}")
            for s, got in values.items():
                if got is not None:
                    want = float(checks.reward_at(inst.rewards[s], pol.actions[s])[0])
                    if not checks.close(got[0], want, 1e-7):
                        problems.append(f"{c.name}/{s}: envelope_value {got[0]!r} != affine reward {want!r}")
            key = (c.name, "oracle")
            if key not in memo:
                memo[key] = checks.mixture_oracle(inst)
            if memo[key] is not None and not checks.close(memo[key], sol.objective):
                problems.append(f"{c.name}: objective {sol.objective!r} but the mixture oracle gives {memo[key]!r}")
        problems += self._check_repro(inputs["repro"], out["repro"], memo)
        return problems

    def _check_repro(self, r, got, memo) -> list[str]:
        """The fixed input must lie in its box and in the vertex hull (by
        scipy), whether or not the package accepts it."""
        s = self.REPRO_STATE
        a = r.info["action"]
        if "repro" not in memo:
            lo, up = checks.box_of(r.instance.polytopes[s])
            inside = bool(np.all(a >= lo - 1e-12) and np.all(a <= up + 1e-12))
            memo["repro"] = inside and checks.in_hull(a, r.info["model"].vertices[s])
        if not memo["repro"]:
            return [f"{r.name}: the fixed action is not in its polytope; the input is wrong"]
        if got is not None:
            floor = float(checks.reward_at(r.instance.rewards[s], a)[0])
            if got[0] < floor - 1e-9:
                return [f"{r.name}: envelope value {got[0]!r} below the reward {floor!r}"]
        return []


def _solve_finite(instance, vertex_set):
    return mc.solve_finite(mc.build_finite_cmdp(instance, vertex_set))


WORKLOADS = {w.name: w for w in (L1Occupancy(), QuadEnvelope(), ExtremeSweep(), SmallInstances())}
