"""Points inside a box polytope decompose over its enumerated vertices.

Box vertices used to be returned rounded to 9 decimals; the rounding
moved them off the simplex and the box by ~1e-9, and the former dense
simplex's phase 1 then declared some in-box points outside the vertex hull.
"""

import numpy as np
import pytest

from modcmdp import (
    LoanConfig,
    box_polytope,
    build_envelope,
    envelope_value,
    generate_loan_instance,
    naive_linear_baseline,
    point_to_mix,
)
from modcmdp.vertices import box_simplex_vertices


@pytest.fixture(scope="module")
def quad_loan():
    inst = generate_loan_instance(LoanConfig(n_states=10, reward_kind="quad_convex"))
    _, policy = naive_linear_baseline(inst)
    return inst, policy, build_envelope(inst)


def reproduces(a, pairs, tol=1e-7):
    weights = np.array([w for w, _ in pairs])
    mix = sum(w * v for w, v in pairs)
    return abs(weights.sum() - 1.0) <= 1e-9 and np.max(np.abs(mix - a)) <= tol


def test_every_naive_action_of_the_quad_loan_decomposes(quad_loan):
    _, policy, model = quad_loan
    for s, a in policy.actions.items():
        assert reproduces(a, point_to_mix(a, model.vertices[s])), s


def test_envelope_value_at_the_reported_state(quad_loan):
    inst, policy, model = quad_loan
    a = policy.actions["t3_l6"]
    value, _ = envelope_value(model, "t3_l6", a)
    assert value >= inst.rewards["t3_l6"].value(a) - 1e-9


def in_box_point(rng, base, lo, up):
    """A point of {lo <= a <= up, sum(a) = 1} on a random zero-sum ray
    from the base, drawn without reference to any vertex."""
    d = rng.normal(size=base.size)
    d -= d.mean()
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.where(d > 0, (up - base) / d, (lo - base) / d)
    steps[d == 0] = np.inf
    return base + rng.uniform(0.0, 1.0) * max(float(np.min(steps)), 0.0) * d


def test_off_grid_boxes_decompose_in_box_points():
    rng = np.random.default_rng(20131026)
    for _ in range(40):
        dim = int(rng.integers(3, 8))
        base = rng.dirichlet(np.full(dim, 1.5))
        lo, up = box_polytope(base, float(rng.uniform(0.05, 0.5))).box
        verts = box_simplex_vertices(lo, up)
        for _ in range(10):
            a = in_box_point(rng, base, lo, up)
            assert reproduces(a, point_to_mix(a, verts))
