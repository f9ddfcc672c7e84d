"""Span recorder and the wrappers that time modcmdp's layers from outside
the package.

A span is (id, name, start, end, parent). Spans are kept in memory; the
benchmark turns them into per-layer self times and counts at the end of
each traced pass. A span's self time is its duration minus the part of
its interval that its child spans cover, so the self times of a span tree
add up to the duration of its root.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

# The layers are the package's modules. extend, fileio and cli are thin on
# the benchmarked paths and are not wrapped.
LAYERS = ("loans", "model", "occupancy", "lp", "vertices", "envelope", "evaluate")

# (span name, module, function). The layer of a span is the part of its
# name before the dot. lp._solve_dense / lp._solve_highs are the two
# backends behind lp.solve_lp; a missing function (say, after a backend
# is removed) is skipped and its metrics read 0.
TRACED = (
    ("loans.generate", "loans", "generate_loan_instance"),
    ("loans.greedy", "loans", "greedy_baseline"),
    ("model.validate", "model", "validate"),
    ("occupancy.build", "occupancy", "build_occupancy_lp"),
    ("occupancy.solve", "occupancy", "solve_occupancy"),
    ("occupancy.extract", "occupancy", "extract_policy"),
    ("lp.solve", "lp", "solve_lp"),
    ("lp.dense", "lp", "_solve_dense"),
    ("lp.highs", "lp", "_solve_highs"),
    ("vertices.enumerate", "vertices", "enumerate_for_instance"),
    ("vertices.build_finite", "vertices", "build_finite_cmdp"),
    ("vertices.finite_solve", "vertices", "solve_finite"),
    ("vertices.point_to_mix", "vertices", "point_to_mix"),
    ("envelope.build", "envelope", "build_envelope"),
    ("envelope.solve", "envelope", "solve_with_envelope"),
    ("envelope.naive", "envelope", "naive_linear_baseline"),
    ("envelope.value", "envelope", "envelope_value"),
    ("evaluate.exact", "evaluate", "evaluate_exact"),
    ("evaluate.simulate", "evaluate", "simulate"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans of one thread in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._clock = clock

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        parent = self._open[-1].id if self._open else None
        sp = Span(len(self.spans), name, parent, self._clock(), attrs=dict(attrs))
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.attrs["error"] = type(exc).__name__
            raise
        finally:
            sp.end = self._clock()
            self._open.pop()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to its own interval."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


# ---------------------------------------------------------------------------
# wrappers


def _nnz(m) -> int:
    return int(m.nnz) if hasattr(m, "nnz") else int(np.count_nonzero(m))


def _annotate(name: str, sp: Span, args, kwargs, result) -> None:
    if name == "lp.solve":
        p = args[0] if args else kwargs["problem"]
        sp.attrs.update(rows=p.nrows, cols=p.nvars, nnz=_nnz(p.a_eq) + _nnz(p.a_in))
    elif name in ("lp.dense", "lp.highs"):
        sp.attrs["iterations"] = int(result.iterations)
    elif name == "vertices.enumerate":
        sp.attrs["count"] = int(result.total())
    elif name == "evaluate.simulate":
        n = args[2] if len(args) > 2 else kwargs["trajectories"]
        sp.attrs["trajectories"] = int(n)


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
            _annotate(name, sp, args, kwargs, result)
            return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind every reference to a traced function, in the package and in
    each of its modules, to a span-recording wrapper; restore on exit.

    Modules import each other's functions by name (``from .occupancy
    import solve_occupancy``), so patching only the defining module would
    miss those calls.
    """
    import modcmdp

    wrappers = {}
    for name, mod_name, fn_name in TRACED:
        fn = getattr(importlib.import_module(f"modcmdp.{mod_name}"), fn_name, None)
        if fn is not None:
            wrappers[id(fn)] = (fn, _wrap(tracer, name, fn))
    modules = [modcmdp] + [
        importlib.import_module(f"modcmdp.{m}")
        for m in LAYERS + ("extend", "fileio", "cli")
    ]
    patched = []
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, val))
    try:
        yield
    finally:
        for mod, attr, val in patched:
            setattr(mod, attr, val)


# ---------------------------------------------------------------------------
# per-layer metrics

# metric name -> (span name, what to take): "self" sums self seconds,
# "calls" counts spans, any other key sums that span attribute.
SPAN_METRICS = {
    "loans.greedy_s": ("loans.greedy", "self"),
    "model.validate_s": ("model.validate", "self"),
    "model.validate_calls": ("model.validate", "calls"),
    "occupancy.build_s": ("occupancy.build", "self"),
    "occupancy.solve_s": ("occupancy.solve", "self"),
    "occupancy.extract_s": ("occupancy.extract", "self"),
    "lp.highs_s": ("lp.highs", "self"),
    "lp.highs_calls": ("lp.highs", "calls"),
    "lp.highs_iterations": ("lp.highs", "iterations"),
    "lp.dense_s": ("lp.dense", "self"),
    "lp.dense_calls": ("lp.dense", "calls"),
    "lp.dense_iterations": ("lp.dense", "iterations"),
    "lp.rows": ("lp.solve", "rows"),
    "lp.cols": ("lp.solve", "cols"),
    "lp.nnz": ("lp.solve", "nnz"),
    "vertices.enumerate_s": ("vertices.enumerate", "self"),
    "vertices.count": ("vertices.enumerate", "count"),
    "vertices.finite_solve_s": ("vertices.finite_solve", "self"),
    "vertices.point_to_mix_s": ("vertices.point_to_mix", "self"),
    "vertices.point_to_mix_calls": ("vertices.point_to_mix", "calls"),
    "envelope.solve_s": ("envelope.solve", "self"),
    "envelope.naive_s": ("envelope.naive", "self"),
    "envelope.value_s": ("envelope.value", "self"),
    "evaluate.exact_s": ("evaluate.exact", "self"),
    "evaluate.simulate_s": ("evaluate.simulate", "self"),
}


def pass_metrics(tree: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, whose spans all descend from
    the first one. Spans named ``bench.*`` are the benchmark's own."""
    selfs = self_times(tree)
    out = {}
    for metric, (span_name, what) in SPAN_METRICS.items():
        hits = [s for s in tree if s.name == span_name]
        if what == "self":
            out[metric] = float(sum(selfs[s.id] for s in hits))
        elif what == "calls":
            out[metric] = len(hits)
        else:
            out[metric] = int(sum(s.attrs.get(what, 0) for s in hits))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(
            sum(selfs[s.id] for s in tree if s.name.split(".")[0] == layer)
        )
    sims = [s for s in tree if s.name == "evaluate.simulate"]
    sim_time = sum(s.end - s.start for s in sims)
    out["evaluate.trajectories_per_s"] = (
        sum(s.attrs.get("trajectories", 0) for s in sims) / sim_time
        if sim_time > 0
        else 0.0
    )
    out["bench.self_s"] = float(
        sum(selfs[s.id] for s in tree if s.name.startswith("bench."))
    )
    out["trace.wall_s"] = tree[0].end - tree[0].start
    return out


def accounting_gap(tree: list[Span]) -> float:
    """Duration of the first (root) span minus the self times of the whole
    tree: zero up to rounding when the spans nest properly."""
    return (tree[0].end - tree[0].start) - sum(self_times(tree).values())
