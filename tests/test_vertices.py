import itertools
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from helpers import (
    _loop_dedup,
    brute_force_mixture_value,
    certify_extreme,
    fresh_face_envelope,
    fresh_hull_envelope,
    full_pool_vertices,
    loop_box_simplex_vertices,
    loop_face,
    loop_finite_lp,
    random_instance,
    single_lp_finite,
    slice_finite_lp_columns,
    vertex_counts,
)

import modcmdp.lp as lpmod
import modcmdp.vertices as vmod
from modcmdp import (
    ActionPolytope,
    AffineReward,
    CmdpInstance,
    DecompositionError,
    LayeredStateSpace,
    LoanConfig,
    QualityConstraint,
    QualityInfeasibleError,
    QuadraticDeviationReward,
    RandomizedPolicy,
    WeightedL1Reward,
    box_polytope,
    build_envelope,
    build_finite_cmdp,
    enumerate_for_instance,
    enumerate_vertices,
    envelope_value,
    evaluate_exact,
    farkas_gap,
    generate_loan_instance,
    hull_envelope,
    mix_to_point,
    point_to_mix,
    solve,
    solve_finite,
    solve_occupancy,
    solve_with_envelope,
)
from modcmdp.vertices import (
    COLUMNS_PER_STATE,
    DEDUP_TOL,
    FiniteLp,
    VertexSet,
    _dedup,
    box_simplex_vertices,
    check_vertex_set,
)


def brute_vertices(poly):
    """Independent vertex oracle: try every subset of candidate equalities
    (polytope rows tight, coordinates at zero) plus the simplex equality,
    solve with lstsq, keep well-determined feasible points."""
    n = poly.dim
    cands = [(row, rhs) for row, rhs in zip(poly.H, poly.h)]
    cands += [(-(np.eye(n)[k]), 0.0) for k in range(n)]
    found = []
    for subset in itertools.combinations(range(len(cands)), n - 1):
        mat = np.vstack([np.ones(n)] + [-cands[i][0] for i in subset])
        rhs = np.array([1.0] + [-cands[i][1] for i in subset])
        if np.linalg.matrix_rank(mat, tol=1e-9) < n:
            continue
        a, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
        if np.max(np.abs(mat @ a - rhs)) > 1e-8:
            continue
        if a.min() < -1e-9 or poly.margin(a) > 1e-9:
            continue
        if not any(np.max(np.abs(a - b)) < 1e-7 for b in found):
            found.append(a)
    return sorted(map(tuple, np.round(found, 9)))


def as_set(verts):
    return sorted(map(tuple, np.round(verts, 9)))


def random_box(rng, n, grid=False):
    """Bounds of a random box around a random distribution over ``n``
    coordinates; with ``grid``, widened to multiples of 1/64."""
    b = rng.dirichlet(np.ones(n) * rng.uniform(0.5, 3.0))
    eps = rng.uniform(0.02 if n <= 8 else 0.2, 0.6)
    lo, up = np.clip(b - eps, 0.0, None), np.minimum(b + eps, 1.0)
    if grid:
        lo, up = np.floor(lo * 64) / 64, np.ceil(up * 64) / 64
    return lo, up


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def passes(check, *args) -> bool:
    """Whether ``check(*args)`` returns without LpError."""
    try:
        check(*args)
    except lpmod.LpError:
        return False
    return True


def column_generation_verdict(flp, cols, sol):
    """The verdict lp.generate_columns reaches on solve_finite's master
    over ``cols`` at ``sol``: the master's lp.check_optimal, then a
    pricing round (lp.ListPricer) in which no vertex column enters."""
    lpmod.check_optimal(flp.columns(cols), sol)
    n_u = flp.n_vertex
    pricer = lpmod.ListPricer(flp.cost[:n_u], lambda y_eq, y_in: flp.price(y_eq, y_in)[:n_u],
                              flp.col_start, lambda j: flp.columns(j).a_eq, COLUMNS_PER_STATE,
                              np.arange(n_u), cols, np.arange(flp.b_in.size))
    scale = max(1.0, float(np.abs(flp.cost).max()))
    if pricer(sol, scale) is not None:
        raise lpmod.LpError(f"{pricer.added[-1].size} columns enter")


def assert_optimal_verdicts_agree(flp, problem, cols, sol):
    """The column-generation verdict on a master solution over ``cols``
    says what lp.check_optimal of the whole LP ``problem`` says of it,
    zero-padded, with every reduced cost priced: both accept it, both
    reject it once the duals are perturbed, and both reject it once a
    column outside the master costs enough to price out."""

    def whole(s):
        x = np.zeros(problem.nvars)
        x[cols] = s.x
        rc = problem.c - (problem.a_eq.T @ s.dual_eq + problem.a_in.T @ s.dual_in)
        return passes(lpmod.check_optimal, problem, lpmod.LpSolution(
            "optimal", x=x, objective=s.objective, dual_eq=s.dual_eq,
            dual_in=s.dual_in, reduced_costs=rc))

    assert whole(sol) and passes(column_generation_verdict, flp, cols, sol)
    # the first state's outgoing row: every vertex column of that state,
    # and its visit mass, price 0.01 off
    y_eq = sol.dual_eq.copy()
    y_eq[flp.out_row[0]] -= 1e-2
    master = flp.columns(cols)
    rc = master.c - (master.a_eq.T @ y_eq + master.a_in.T @ sol.dual_in)
    off = lpmod.LpSolution("optimal", x=sol.x, objective=sol.objective, dual_eq=y_eq,
                           dual_in=sol.dual_in, reduced_costs=rc)
    assert not whole(off) and not passes(column_generation_verdict, flp, cols, off)
    out = np.setdiff1d(np.arange(flp.n_vertex), cols)
    if out.size:
        # the outside column that prices best gets a reduced cost of 1
        rc = problem.c - (problem.a_eq.T @ sol.dual_eq + problem.a_in.T @ sol.dual_in)
        j = out[np.argmax(rc[out])]
        flp.cost[j] = problem.c[j] = problem.c[j] + 1.0 - rc[j]
        assert not whole(sol) and not passes(column_generation_verdict, flp, cols, sol)


def assert_certificate_verdicts_agree(flp, problem, cert):
    """FiniteLp.farkas_gap equals lp.farkas_gap of the whole LP, on the
    certificate and on one a column breaks."""
    assert flp.farkas_gap(cert) == farkas_gap(problem, cert) > 0.0
    broken = dict(cert, eq=cert["eq"].copy())
    broken["eq"][flp.out_row[0]] -= 1.0
    assert flp.farkas_gap(broken) == farkas_gap(problem, broken) == -np.inf


def l1_instance(bound=0.2):
    space = LayeredStateSpace([["s"], ["ok", "bad"]])
    return CmdpInstance(
        space,
        {"s": box_polytope([0.5, 0.5], 0.4)},
        {"s": WeightedL1Reward([0.5, 0.5])},
        [1.0],
        [QualityConstraint({"bad"}, bound)],
    )


class TestEnumerate:
    def test_segment_endpoints(self):
        v = enumerate_vertices(box_polytope([0.5, 0.5], 0.4))
        assert as_set(v) == [(0.1, 0.9), (0.9, 0.1)]

    def test_full_simplex_unit_vectors(self):
        v = enumerate_vertices(ActionPolytope([1 / 3, 1 / 3, 1 / 3]))
        assert as_set(v) == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]

    def test_three_dim_box_matches_brute_oracle(self):
        poly = box_polytope([1 / 3, 1 / 3, 1 / 3], 0.4)
        mine = as_set(enumerate_vertices(poly))
        oracle = brute_vertices(poly)
        assert mine == oracle
        tops = [v for v in mine if any(abs(x - (1 / 3 + 0.4)) < 1e-9 for x in v)]
        zeros = [v for v in mine if any(abs(x) < 1e-12 for x in v)]
        assert tops and zeros

    def test_random_polytopes_match_brute_oracle(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 5))
            b = rng.dirichlet(np.ones(n))
            poly = box_polytope(b, float(rng.uniform(0.05, 0.7)))
            assert as_set(enumerate_vertices(poly)) == brute_vertices(poly)

    def test_extra_rows_polytope(self):
        # box plus a diagonal cut
        poly = ActionPolytope(
            [0.5, 0.5],
            H=[[1.0, 0.0], [-1.0, 0.0], [1.0, -1.0]],
            h=[0.9, -0.1, 0.5],
        )
        mine = as_set(enumerate_vertices(poly))
        assert mine == brute_vertices(poly)
        assert (0.75, 0.25) in mine  # where the cut meets the simplex

    def test_vertices_are_extreme_and_separated(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            poly = box_polytope(rng.dirichlet(np.ones(n)), 0.3)
            v = enumerate_vertices(poly)
            assert certify_extreme(v)
            for i in range(len(v)):
                for j in range(i + 1, len(v)):
                    assert np.max(np.abs(v[i] - v[j])) > 1e-7

    def test_dimension_limit(self):
        poly = ActionPolytope(np.ones(30) / 30)
        with pytest.raises(ValueError, match="occupancy"):
            enumerate_vertices(poly)

    def test_empty_polytope_errors(self):
        poly = ActionPolytope([0.5, 0.5], H=[[1.0, 1.0]], h=[0.5])
        with pytest.raises(ValueError, match="no vertices"):
            enumerate_vertices(poly)

    def test_degenerate_box_single_vertex(self):
        v = enumerate_vertices(box_polytope([0.3, 0.7], 0.0))
        assert as_set(v) == [(0.3, 0.7)]

    def test_box_method_matches_exhaustive(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 6))
            poly = box_polytope(
                rng.dirichlet(np.ones(n)), float(rng.uniform(0.05, 0.9))
            )
            ex = as_set(enumerate_vertices(poly, method="exhaustive"))
            bx = as_set(enumerate_vertices(poly, method="auto"))
            assert ex == bx

    def test_box_enumerator_matches_the_loop_oracle(self, rng):
        # continuous and 1/64-grid boxes in 2 to 16 dimensions, and the 16
        # boxes of the 16-level loan (14,586 vertices)
        boxes = [random_box(rng, 2 + k % 15, grid=bool(k % 2)) for k in range(150)]
        inst = generate_loan_instance(LoanConfig(n_states=16, reward_kind="quad_convex"))
        boxes += [inst.polytopes[s].box for s in inst.states.layers[0]]
        for lo, up in boxes:
            assert_same_bytes(box_simplex_vertices(lo, up), loop_box_simplex_vertices(lo, up))

    def test_tolerance_pass_matches_the_loop_oracle(self, rng):
        # a gap, or the residual a free coordinate absorbs, below DEDUP_TOL:
        # rows closer than the tolerance, which only the tolerance pass merges
        merged = 0
        for k in range(60):
            n = int(rng.integers(2, 9))
            tiny = rng.uniform(2e-9, 0.9 * DEDUP_TOL)
            if k % 2:
                lo, up = random_box(rng, n)
                j = int(rng.integers(n))
                up[j] = lo[j] + tiny
            else:
                lo = rng.dirichlet(np.ones(n)) * (1.0 - tiny)
                up = lo + rng.uniform(0.0, 0.5, size=n)
            want = loop_box_simplex_vertices(lo, up)
            assert_same_bytes(box_simplex_vertices(lo, up), want)
            merged += loop_box_simplex_vertices(lo, up, dedup_tol=0.0).shape[0] > want.shape[0]
        assert merged >= 30

    def test_dedup_matches_the_loop_oracle(self, rng):
        # clusters of points spread by 1e-9 to 1e-6 around random centers,
        # some repeated exactly or rounded to 7 decimals
        chained = 0
        for _ in range(300):
            m, n = int(rng.integers(0, 200)), int(rng.integers(1, 8))
            centers = rng.random((max(1, m // 5), n))
            spread = rng.normal(scale=10 ** rng.uniform(-9, -6), size=(m, n))
            moved = spread * (rng.random((m, 1)) < 0.7)
            pts = centers[rng.integers(0, centers.shape[0], m)] + moved
            if rng.random() < 0.3:
                pts = np.round(pts, 7)
            want = _loop_dedup(pts, DEDUP_TOL)
            assert_same_bytes(_dedup(pts, DEDUP_TOL), want)
            # a chain: some point close only to dropped ones is kept, so
            # keeping the points with no earlier close one would differ
            distinct = pts[np.sort(np.unique(pts, axis=0, return_index=True)[1])]
            near = np.abs(distinct[:, None] - distinct[None]).max(axis=2) <= DEDUP_TOL
            chained += want.shape[0] != np.sum(~np.tril(near, -1).any(axis=1))
        assert chained >= 30

    def test_dedup_of_the_sweep_candidates(self, monkeypatch):
        # every candidate array that exhaustive enumeration dedups on the
        # affine loans n=4..7 and the L1 loans n=5, 6 with kink planes
        seen = []

        def checked(points, tol):
            got = _dedup(points, tol)
            assert_same_bytes(got, _loop_dedup(points, tol))
            seen.append(points.shape[0] - got.shape[0])
            return got

        monkeypatch.setattr(vmod, "_dedup", checked)
        for n in (4, 5, 6, 7):
            inst = generate_loan_instance(LoanConfig(n_states=n, reward_kind="affine"))
            enumerate_for_instance(inst)
        for n in (5, 6):
            inst = generate_loan_instance(LoanConfig(n_states=n, reward_kind="l1"))
            enumerate_for_instance(inst, kink_planes=True)
        assert len(seen) >= 20 and sum(seen) > 0

    def test_box_simplex_direct(self):
        v = box_simplex_vertices([0.0, 0.0], [1.0, 1.0])
        assert as_set(v) == [(0.0, 1.0), (1.0, 0.0)]
        assert box_simplex_vertices([0.6, 0.6], [0.7, 0.7]).shape[0] == 0


def pool_polytope(rng, kind, n):
    """A random polytope over ``n`` coordinates that holds its base: a box
    ("box"), random rows ("rows"), or random rows plus lone rows
    -c e_k . a <= h with h = 0 or h < 0, which imply a_k >= 0 ("implying")."""
    base = rng.dirichlet(np.ones(n))
    if kind == "box":
        return box_polytope(base, float(rng.uniform(0.05, 0.9)))
    H = rng.normal(size=(int(rng.integers(1, n + 1)), n))
    h = H @ base + rng.uniform(0.0, 0.3, size=H.shape[0])
    if kind == "implying":
        k = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        c = rng.choice([1.0, 2.5], size=k.size)
        at = np.where(rng.random(k.size) < 0.5, 0.0, rng.uniform(0.0, 1.0, k.size) * base[k])
        order = rng.permutation(H.shape[0] + k.size)
        H = np.vstack([H, -c[:, None] * np.eye(n)[k]])[order]
        h = np.concatenate([h, -c * at])[order]
    return ActionPolytope(base, H, h)


class TestExhaustivePool:
    """The pool leaves out the sign rows the polytope's rows imply, and the
    vertex arrays stay those of the full pool, byte for byte."""

    @pytest.mark.parametrize("reward_kind, sizes", [("affine", (4, 5, 6, 7, 8)),
                                                     ("l1", (5, 6))])
    def test_loan_boxes_match_the_full_pool(self, reward_kind, sizes):
        for n in sizes:
            inst = generate_loan_instance(LoanConfig(n_states=n, reward_kind=reward_kind))
            for s in inst.states.layers[0]:
                poly, rew = inst.polytopes[s], inst.rewards[s]
                assert poly.implied_nonnegative.all()
                planes = None
                if reward_kind == "l1":
                    planes = [(k, float(c)) for k, c in enumerate(rew.center)]
                got = enumerate_vertices(poly, extra_planes=planes)
                assert_same_bytes(got, full_pool_vertices(poly, planes))

    def test_random_polytopes_match_the_full_pool(self):
        rng = np.random.default_rng(7)
        implied = 0
        for i in range(400):
            n = int(rng.integers(2, 7))
            poly = pool_polytope(rng, ("box", "rows", "implying")[i % 3], n)
            planes = None
            if i % 2:
                planes = [(k, float(c)) for k, c in enumerate(rng.dirichlet(np.ones(n)))]
            implied += int(poly.implied_nonnegative.sum())
            want = full_pool_vertices(poly, planes)
            if want.shape[0] == 0:
                with pytest.raises(ValueError, match="no vertices"):
                    enumerate_vertices(poly, extra_planes=planes)
                continue
            assert_same_bytes(enumerate_vertices(poly, extra_planes=planes), want)
        assert implied > 400

    def test_l1_kink_boxes_at_seven_states_match_the_full_pool(self):
        inst = generate_loan_instance(LoanConfig(n_states=7, reward_kind="l1"))
        vs = enumerate_for_instance(inst, kink_planes=True)
        want = {}
        for s in inst.states.nonterminal():
            poly = inst.polytopes[s]
            planes = [(k, float(c)) for k, c in enumerate(inst.rewards[s].center)]
            key = (poly.key, repr(planes))
            if key not in want:
                want[key] = full_pool_vertices(poly, planes)
            assert_same_bytes(vs.vertices[s], want[key])
        assert len(want) == 7

    @pytest.mark.parametrize("grid", [True, False])
    def test_parallel_rows_match_the_full_pool(self, grid):
        # rows r, -r and 2.5 r around the base: r and -r always share a
        # class, and on the 1/64 grid 2.5 r is an exact multiple of r too
        rng = np.random.default_rng(11)
        for i in range(60):
            n = int(rng.integers(3, 7))
            base = rng.dirichlet(np.ones(n))
            r = rng.normal(size=(int(rng.integers(1, 3)), n))
            if grid:
                r = np.round(r * 64) / 64
            H = np.vstack([r, -r, 2.5 * r, rng.normal(size=(int(rng.integers(0, 3)), n))])
            H = H[rng.permutation(H.shape[0])]
            h = H @ base + rng.uniform(0.0, 0.3, size=H.shape[0])
            if i % 3 == 0:
                # a 2.5 r row on the hyperplane of its r row
                j = np.flatnonzero((H == 2.5 * r[0]).all(axis=1))[0]
                h[j] = 2.5 * (r[0] @ base + 0.1)
                h[np.flatnonzero((H == r[0]).all(axis=1))[0]] = r[0] @ base + 0.1
            poly = ActionPolytope(base, H, h)
            planes = None
            if i % 2:
                planes = [(k, float(c)) for k, c in enumerate(rng.dirichlet(np.ones(n)))]
            sizes = [len(c) for c in vmod._row_classes(H)]
            assert sum(size >= (3 if grid else 2) for size in sizes) == len(r)
            want = full_pool_vertices(poly, planes)
            assert want.shape[0] > 0
            assert_same_bytes(enumerate_vertices(poly, extra_planes=planes), want)

    def test_near_parallel_rows_stay_apart(self):
        # q is r with each entry moved by about 1e-6 of itself, and both
        # rows are tight at one point, so a basis holding both can give a
        # vertex: the two rows must not share a class
        rng = np.random.default_rng(5)
        on_both = 0
        for _ in range(40):
            n = int(rng.integers(3, 6))
            base = rng.dirichlet(np.ones(n))
            r = rng.normal(size=n)
            q = r * (1.0 + 1e-6 * rng.normal(size=n))
            d = rng.normal(size=n)
            d -= d.mean()
            d *= np.sign(r @ d)
            p = base + 0.1 / (r @ d) * d
            H = np.vstack([r, q, rng.normal(size=(2, n))])
            h = np.concatenate([[r @ p, q @ p], H[2:] @ base + 0.2])
            assert len(vmod._row_classes(H)) == 4
            poly = ActionPolytope(base, H, h)
            want = full_pool_vertices(poly)
            assert_same_bytes(enumerate_vertices(poly), want)
            on_both += int(np.sum((np.abs(want @ H[:2].T - h[:2]) <= 1e-9).all(axis=1)))
        assert on_both > 0

    @pytest.mark.parametrize("n", [4, 6])
    def test_kink_box_solves_one_basis_per_class_choice(self, n, monkeypatch):
        # u_k, l_k and the kink c_k lie on one class per coordinate, so the
        # bases are n choices of n - 1 coordinates times 3 rows for each,
        # all nonsingular, against C(3n, n - 1) choices of pool rows
        built, solved = [], []
        det, solve_ = np.linalg.det, np.linalg.solve
        monkeypatch.setattr(np.linalg, "det", lambda m: built.append(len(m)) or det(m))
        monkeypatch.setattr(np.linalg, "solve", lambda m, r: solved.append(len(m)) or solve_(m, r))
        poly = box_polytope(np.full(n, 1.0 / n), 0.5 / n)
        planes = [(k, 0.9 / n) for k in range(n)]
        got = enumerate_vertices(poly, extra_planes=planes)
        assert sum(built) == sum(solved) == n * 3 ** (n - 1)
        monkeypatch.undo()
        assert_same_bytes(got, full_pool_vertices(poly, planes))

    def test_deadline_stops_before_every_basis_is_built(self, monkeypatch):
        # a dim-25 box with kink planes has 25 * 3^24 bases, far past any
        # budget; a spent deadline stops at the first chunk
        built = []
        det = np.linalg.det
        monkeypatch.setattr(np.linalg, "det", lambda m: built.append(len(m)) or det(m))
        poly = box_polytope(np.full(25, 0.04), 0.02)
        planes = [(k, 0.05) for k in range(25)]
        t0 = time.perf_counter()
        with pytest.raises(TimeoutError, match="time budget"):
            enumerate_vertices(poly, extra_planes=planes, deadline=time.monotonic())
        assert time.perf_counter() - t0 < 5.0
        assert built == []


class TestFiniteCmdp:
    def test_shared_arrays_are_scored_once(self, monkeypatch):
        inst = generate_loan_instance(LoanConfig(n_states=8, reward_kind="quad_convex"))
        vs = enumerate_for_instance(inst, method="auto")
        want = {s: inst.rewards[s].value(vs.vertices[s]) for s in vs.vertices}
        scored = []
        value = QuadraticDeviationReward.value

        def counted(self, a):
            scored.append(id(a))
            return value(self, a)

        monkeypatch.setattr(QuadraticDeviationReward, "value", counted)
        fc = build_finite_cmdp(inst, vs)
        arrays = {id(v) for v in vs.vertices.values()}
        assert len(scored) == len(arrays) < len(want)
        for s, r in want.items():
            assert_same_bytes(fc.rewards[s], r)

    def test_states_with_other_rewards_are_scored_apart(self):
        # one vertex array, two states: equal rewards share a score,
        # a different offset (even -0.0 against 0.0) does not
        poly = box_polytope([0.5, 0.5], 0.4)
        verts = enumerate_vertices(poly)
        space = LayeredStateSpace([["a"], ["b", "c"], ["x", "y"]])
        for other, shared in ((AffineReward([1.0, -2.0], 0.0), True),
                              (AffineReward([1.0, -2.0], -0.0), False),
                              (AffineReward([1.0, -2.0], 0.5), False)):
            inst = CmdpInstance(space, dict.fromkeys("abc", poly),
                                {"a": AffineReward([1.0, -2.0], 0.0), "b": other,
                                 "c": AffineReward([1.0, -2.0], 0.0)}, [1.0], [])
            fc = build_finite_cmdp(inst, VertexSet(dict.fromkeys("abc", verts)))
            assert fc.rewards["a"] is fc.rewards["c"]
            assert (fc.rewards["b"] is fc.rewards["a"]) == shared
            for s in "abc":
                assert_same_bytes(fc.rewards[s], inst.rewards[s].value(verts))

    def test_l1_vertex_rewards(self):
        inst = l1_instance()
        vs = enumerate_for_instance(inst)
        fc = build_finite_cmdp(inst, vs)
        np.testing.assert_allclose(fc.rewards["s"], [-0.8, -0.8], atol=1e-12)

    def test_affine_vertex_rewards(self):
        inst = l1_instance()
        affine = CmdpInstance(
            inst.states, inst.polytopes,
            {"s": AffineReward([2.0, -1.0], 0.5)}, inst.alpha, inst.constraints,
        )
        vs = enumerate_for_instance(affine)
        fc = build_finite_cmdp(affine, vs)
        expected = sorted(2 * v[0] - v[1] + 0.5 for v in vs.vertices["s"])
        assert sorted(fc.rewards["s"]) == pytest.approx(expected)

    def test_vertex_width_must_match_the_next_layer(self):
        inst = l1_instance()
        # one-wide rows would broadcast through the L1 reward unnoticed
        narrow = VertexSet({"s": np.array([[0.1], [0.9]])})
        with pytest.raises(ValueError, match="state 's'"):
            build_finite_cmdp(inst, narrow)

    @pytest.mark.parametrize("vertices, message", [
        # rows summing to 1 that leave the box [0.1, 0.9]^2 (the second
        # the simplex too); this set used to solve to -2.28
        ({"s": [[0, 1], [5, -4]]}, "vertex 0 of state 's' is not"),
        # inside the box, but the masses sum to 0.8
        ({"s": [[0.1, 0.9], [0.4, 0.4]]}, "vertex 1 of state 's' is not"),
        ({}, "no vertices for state 's'"),
        ({"s": np.zeros((0, 2))}, "state 's' have shape"),
        ({"s": [[0.1, 0.9], [np.nan, 0.5]]}, "state 's' are not all finite"),
    ])
    def test_bad_vertex_sets_are_rejected(self, vertices, message):
        with pytest.raises(ValueError, match=message):
            build_finite_cmdp(l1_instance(), VertexSet(vertices))

    def test_shared_array_names_the_first_bad_state(self):
        # s0 and s1 share one array and hold equal polytopes in two
        # objects; s2's polytope is narrower, so the array fails there first
        space = LayeredStateSpace([["s0", "s1", "s2"], ["ok", "bad"]])
        polys = {"s0": box_polytope([0.5, 0.5], 0.4),
                 "s1": box_polytope([0.5, 0.5], 0.4),
                 "s2": box_polytope([0.5, 0.5], 0.2)}
        inst = CmdpInstance(space, polys, {s: WeightedL1Reward([0.5, 0.5]) for s in polys},
                            [0.2, 0.3, 0.5])
        shared = np.array([[0.1, 0.9], [0.9, 0.1]])
        check_vertex_set(inst, VertexSet({"s0": shared, "s1": shared,
                                          "s2": np.array([[0.3, 0.7], [0.7, 0.3]])}))
        with pytest.raises(ValueError, match="vertex 0 of state 's2'"):
            check_vertex_set(inst, VertexSet(dict.fromkeys(polys, shared)))
        bad = np.array([[0.1, 0.9], [0.95, 0.05]])
        with pytest.raises(ValueError, match="vertex 1 of state 's0'"):
            check_vertex_set(inst, VertexSet(dict.fromkeys(polys, bad)))

    def test_vertex_lists_are_accepted(self):
        inst = l1_instance()
        listed = VertexSet({"s": [[0.1, 0.9], [0.9, 0.1]]})
        value, _ = solve_finite(build_finite_cmdp(inst, listed))
        want, _ = solve_finite(build_finite_cmdp(inst, enumerate_for_instance(inst)))
        assert value == pytest.approx(want, abs=1e-9)

    def test_shared_vertex_cache_tells_shapes_apart(self):
        # s0's polytope (2-D) and s1's (1-D) hold the same numbers in a
        # row: base, H and h flattened read 1, 0, 0.5, 0.2, 0.7 for both
        space = LayeredStateSpace([["s0"], ["s1", "s2"], ["s3"]])
        inst = CmdpInstance(
            space,
            {"s0": ActionPolytope([1, 0], [[0.5, 0.2]], [0.7]),
             "s1": ActionPolytope([1], [[0], [0.5]], [0.2, 0.7]),
             "s2": ActionPolytope([1])},
            {"s0": AffineReward([1.0, 0.0]), "s1": AffineReward([1.0]),
             "s2": AffineReward([1.0])},
            [1.0],
        )
        vs = enumerate_for_instance(inst)
        assert vs.vertices["s0"].shape[1] == 2
        assert vs.vertices["s1"].shape == (1, 1)
        convex = solve(inst, "convex").objective
        assert convex == pytest.approx(2.0, abs=1e-9)
        assert solve(inst, "extreme").objective == pytest.approx(convex, abs=1e-9)

    def test_degenerate_box_single_action(self):
        space = LayeredStateSpace([["s"], ["ok", "bad"]])
        inst = CmdpInstance(
            space,
            {"s": box_polytope([0.5, 0.5], 0.0)},
            {"s": WeightedL1Reward([0.5, 0.5])},
            [1.0],
            [],
        )
        vs = enumerate_for_instance(inst)
        fc = build_finite_cmdp(inst, vs)
        assert fc.vertices["s"].shape == (1, 2)
        assert fc.rewards["s"][0] == pytest.approx(0.0)


class TestSolveFinite:
    def test_l1_vertex_only_value(self):
        # vertex-restricted treatment of the concave L1 reward: both
        # vertices cost 0.8, so the optimum is -0.8 (below the continuous
        # optimum -0.6, which needs the kink refinement)
        inst = l1_instance(0.2)
        obj, pol = solve_finite(
            build_finite_cmdp(inst, enumerate_for_instance(inst))
        )
        assert obj == pytest.approx(-0.8, abs=1e-9)
        report = evaluate_exact(inst, pol)
        assert report.constraint_masses[0] <= 0.2 + 1e-9

    def test_l1_kink_refinement_recovers_continuum(self):
        inst = l1_instance(0.2)
        vs = enumerate_for_instance(inst, kink_planes=True)
        obj, _ = solve_finite(build_finite_cmdp(inst, vs))
        assert obj == pytest.approx(-0.6, abs=1e-9)

    def test_affine_extreme_equals_convex(self):
        # maximize -a2 with the bad-mass cap slack at the box's lower edge
        inst = l1_instance(0.2)
        affine = CmdpInstance(
            inst.states, inst.polytopes,
            {"s": AffineReward([0.0, -1.0], 0.0)}, inst.alpha, inst.constraints,
        )
        obj_f, _ = solve_finite(
            build_finite_cmdp(affine, enumerate_for_instance(affine)),
        )
        obj_c = solve_occupancy(affine).objective
        oracle = brute_force_mixture_value(
            affine, enumerate_for_instance(affine).vertices
        )
        assert obj_f == pytest.approx(-0.1, abs=1e-9)
        assert obj_c == pytest.approx(-0.1, abs=1e-9)
        assert oracle == pytest.approx(-0.1, abs=1e-9)

    def test_slack_bound_gives_deterministic_vertex_policy(self):
        inst = l1_instance(0.95)
        affine = CmdpInstance(
            inst.states, inst.polytopes,
            {"s": AffineReward([1.0, 0.0], 0.0)}, inst.alpha, inst.constraints,
        )
        obj, pol = solve_finite(
            build_finite_cmdp(affine, enumerate_for_instance(affine)),
        )
        assert obj == pytest.approx(0.9, abs=1e-9)
        assert len(pol.mixtures["s"]) == 1
        np.testing.assert_allclose(pol.mixtures["s"][0][1], [0.9, 0.1], atol=1e-9)

    def test_infeasible_cap(self):
        inst = l1_instance(0.05)
        with pytest.raises(QualityInfeasibleError):
            solve_finite(
                build_finite_cmdp(inst, enumerate_for_instance(inst)),
            )

    def test_policy_satisfies_mass_ratio_identity(self):
        inst = l1_instance(0.2)
        obj, pol = solve_finite(
            build_finite_cmdp(inst, enumerate_for_instance(inst))
        )
        report = evaluate_exact(inst, pol)
        assert report.value == pytest.approx(obj, abs=1e-9)

    def test_equivalence_against_convex_and_oracle(self, rng):
        # affine rewards: finite reduction == occupancy LP == mixture oracle
        done = 0
        while done < 8:
            inst = random_instance(rng, max_states=3, reward="affine")
            vs = enumerate_for_instance(inst)
            if np.prod([v.shape[0] for v in vs.vertices.values()]) > 3000:
                continue
            try:
                convex = solve_occupancy(inst).objective
            except QualityInfeasibleError:
                continue
            finite, _ = solve_finite(build_finite_cmdp(inst, vs))
            oracle = brute_force_mixture_value(inst, vs.vertices)
            assert finite == pytest.approx(convex, abs=1e-6)
            assert oracle == pytest.approx(convex, abs=1e-6)
            done += 1

    def test_kinked_l1_equivalence_random(self, rng):
        done = 0
        while done < 6:
            inst = random_instance(rng, max_states=3, max_horizon=3, reward="l1")
            try:
                convex = solve_occupancy(inst).objective
            except QualityInfeasibleError:
                continue
            vs = enumerate_for_instance(inst, kink_planes=True)
            finite, _ = solve_finite(build_finite_cmdp(inst, vs))
            assert finite == pytest.approx(convex, abs=1e-6)
            done += 1


class TestColumnGeneration:
    """solve_finite prices columns into a restricted master; it must land
    on the optimum of the whole LP, or prove the whole LP infeasible."""

    @staticmethod
    def assert_matches_single_lp(monkeypatch, inst, vs):
        """solve_finite reaches the whole LP's optimum or certificate, and
        its own verdicts on them are those of the whole LP's checks."""
        fc = build_finite_cmdp(inst, vs)
        problem, oracle = single_lp_finite(fc)
        if oracle.status == "infeasible":
            with pytest.raises(QualityInfeasibleError) as err:
                solve_finite(fc)
            excess = farkas_gap(problem, err.value.certificate)
            assert excess > 0.0
            assert excess == pytest.approx(err.value.excess, abs=1e-12)
            assert excess == pytest.approx(farkas_gap(problem, oracle.certificate),
                                           abs=1e-9)
            assert_certificate_verdicts_agree(FiniteLp(fc), problem, err.value.certificate)
            return
        seen = []
        loop = lpmod.generate_columns

        def spy(master, pricer, deadline):
            # the master's columns: the seeded vertices, every d, then those added
            first = np.flatnonzero(pricer.held)
            sol = loop(master, pricer, deadline)
            seen.append((first, sol, np.concatenate([first[:0]] + pricer.added)))
            return sol

        monkeypatch.setattr(lpmod, "generate_columns", spy)
        obj, pol = solve_finite(fc)
        monkeypatch.undo()
        assert obj == pytest.approx(oracle.objective, abs=1e-9)
        assert evaluate_exact(inst, pol).value == pytest.approx(obj, abs=1e-9)
        (first, sol, added), = seen
        # the whole LP's solution, and the master's within it
        lpmod.check_optimal(problem, sol)
        flp = FiniteLp(fc)
        cols = np.concatenate([first, np.arange(flp.n_vertex, flp.nvars), added])
        sol = replace(sol, x=sol.x[cols], reduced_costs=sol.reduced_costs[cols])
        assert_optimal_verdicts_agree(flp, problem, cols, sol)

    @pytest.mark.parametrize("n", [10, 14, 20])
    def test_quadratic_loans_match_single_lp(self, monkeypatch, n):
        inst = generate_loan_instance(LoanConfig(n_states=n, reward_kind="quad_convex"))
        vs = enumerate_for_instance(inst, method="auto")
        assert max(vertex_counts(vs).values()) > COLUMNS_PER_STATE
        self.assert_matches_single_lp(monkeypatch, inst, vs)

    def test_master_grown_to_every_column(self, monkeypatch):
        # 11 actions, the one that avoids the capped state paying least:
        # the seeded top 10 miss the cap, pricing adds the last one, and
        # the master ends up holding every column, in its own order
        inst = CmdpInstance(
            LayeredStateSpace([["s0"], ["t0", "t1"]]),
            {"s0": box_polytope([0.5, 0.5], 0.5)},
            {"s0": AffineReward([10.0, 0.0], 1.0)},
            np.array([1.0]),
            [QualityConstraint({"t0"}, 0.05)],
        )
        j = np.arange(COLUMNS_PER_STATE + 1) / COLUMNS_PER_STATE
        self.assert_matches_single_lp(
            monkeypatch, inst, VertexSet({"s0": np.column_stack([j, 1 - j])}))

    def test_l1_loan_with_kink_planes_matches_single_lp(self, monkeypatch):
        inst = generate_loan_instance(LoanConfig(n_states=5, reward_kind="l1"))
        vs = enumerate_for_instance(inst, kink_planes=True)
        assert max(vertex_counts(vs).values()) > COLUMNS_PER_STATE
        self.assert_matches_single_lp(monkeypatch, inst, vs)

    def test_random_instances_match_single_lp(self, monkeypatch, rng):
        priced = infeasible = 0
        for _ in range(24):
            inst = random_instance(rng, max_states=6, reward="affine")
            vs = enumerate_for_instance(inst)
            priced += max(vertex_counts(vs).values()) > COLUMNS_PER_STATE
            infeasible += single_lp_finite(build_finite_cmdp(inst, vs))[1].status == "infeasible"
            self.assert_matches_single_lp(monkeypatch, inst, vs)
        assert priced >= 8 and infeasible >= 1

    def test_infeasible_cap_certifies_the_whole_lp(self):
        inst = generate_loan_instance(LoanConfig(n_states=10, reward_kind="quad_convex"))
        # every path passes layer 2, so half its mass is always in excess
        cap = QualityConstraint(set(inst.states.layers[2]), 0.5)
        inst = CmdpInstance(inst.states, inst.polytopes, inst.rewards,
                            inst.alpha, [cap])
        fc = build_finite_cmdp(inst, enumerate_for_instance(inst, method="auto"))
        problem, _ = single_lp_finite(fc)
        for route in (lambda: solve_finite(fc), lambda: solve_with_envelope(inst)):
            with pytest.raises(QualityInfeasibleError) as err:
                route()
            assert err.value.excess == pytest.approx(0.5, abs=1e-9)
            assert farkas_gap(problem, err.value.certificate) == pytest.approx(
                0.5, abs=1e-9)
            assert_certificate_verdicts_agree(FiniteLp(fc), problem, err.value.certificate)

    def test_top_per_state_is_a_stable_sort_per_state(self, rng):
        # blocks of equal and unequal sizes, scores with many ties
        for _ in range(200):
            sizes = rng.integers(1, 40, size=int(rng.integers(1, 30)))
            col_start = np.concatenate([[0], np.cumsum(sizes)])
            score = np.round(rng.normal(size=col_start[-1]), 1)
            mask = rng.random(col_start[-1]) < rng.uniform(0.1, 1.0)
            k = int(rng.integers(1, 12))
            want = [lo + np.flatnonzero(mask[lo:hi]) for lo, hi in zip(col_start, col_start[1:])]
            want = [i[np.argsort(-score[i], kind="stable")[:k]] for i in want]
            got = lpmod.top_per_state(score, mask, col_start, k)
            np.testing.assert_array_equal(got, np.concatenate(want))

    def test_zero_time_limit_times_out(self):
        inst = generate_loan_instance(LoanConfig(n_states=16, reward_kind="quad_convex"))
        fc = build_finite_cmdp(inst, enumerate_for_instance(inst, method="auto"))
        with pytest.raises(TimeoutError):
            solve_finite(fc, time_limit=0)

    def test_time_limit_covers_the_column_setup(self):
        # the budget runs from entry: half the time of the setup before the
        # first master solve. Building the whole 25-level LP took 0.36 s
        # before the clock started, and the budget ran out 0.3 s late.
        inst = generate_loan_instance(LoanConfig(n_states=25, reward_kind="quad_convex"))
        fc = build_finite_cmdp(inst, enumerate_for_instance(inst, method="auto"))
        solve_finite(build_finite_cmdp(l1_instance(), enumerate_for_instance(l1_instance())))
        start = time.monotonic()  # HiGHS is loaded now
        FiniteLp(fc).cap_mass()
        budget = (time.monotonic() - start) / 2
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            solve_finite(fc, time_limit=budget)
        assert time.monotonic() - start <= budget + 0.25

    def test_memory_stays_near_the_vertex_data(self):
        # the 20-level LP's 21 distinct vertex arrays take 6.1 MB; the
        # whole LP, assembled, peaked at 68 MB
        inst = generate_loan_instance(LoanConfig(n_states=20, reward_kind="quad_convex"))
        fc = build_finite_cmdp(inst, enumerate_for_instance(inst, method="auto"))
        tracemalloc.start()
        try:
            solve_finite(fc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 25e6


class TestAgainstLoopAssembly:
    """The finite-action LP written column by column from the vertex arrays
    is the state-by-state loop assembly of that LP, and every column a
    master of solve_finite holds is one of its columns."""

    @staticmethod
    def assert_same_lp(monkeypatch, inst, vs):
        fc = build_finite_cmdp(inst, vs)
        want = loop_finite_lp(fc)
        flp = FiniteLp(fc)
        got = flp.columns(np.arange(flp.nvars))
        for name in ("a_eq", "a_in"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape
            np.testing.assert_array_equal(
                a.toarray(), b.toarray() if hasattr(b, "toarray") else b)
        for name in ("c", "b_eq", "b_in"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

        def dense(p):
            """One row per column: its cost, then its row entries."""
            rows = [p.c[None, :]] + [m.toarray() if hasattr(m, "toarray") else m
                                     for m in (p.a_eq, p.a_in)]
            return np.vstack(rows).T

        index = {col.tobytes(): j for j, col in enumerate(dense(want))}
        held = []

        class Recording(lpmod.Master):
            def __init__(self, problem):
                super().__init__(problem)
                held.append(problem)

            def add_columns(self, c, a_eq, a_in):
                super().add_columns(c, a_eq, a_in)
                held.append(lpmod.LpProblem(c=c, a_eq=a_eq, b_eq=want.b_eq,
                                            a_in=a_in, b_in=want.b_in))

        monkeypatch.setattr(lpmod, "Master", Recording)
        try:
            solve_finite(fc)
        except QualityInfeasibleError:
            pass
        monkeypatch.undo()
        assert held
        cols = [index.get(col.tobytes()) for p in held for col in dense(p)]
        assert None not in cols  # each is a column of the loop LP
        assert len(set(cols)) == len(cols)

    def test_quadratic_loan(self, monkeypatch):
        inst = generate_loan_instance(LoanConfig(n_states=10, reward_kind="quad_convex"))
        self.assert_same_lp(monkeypatch, inst, enumerate_for_instance(inst, method="auto"))

    def test_l1_loan_with_kink_planes(self, monkeypatch):
        inst = generate_loan_instance(LoanConfig(n_states=5, reward_kind="l1"))
        self.assert_same_lp(monkeypatch, inst, enumerate_for_instance(inst, kink_planes=True))

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_affine_loans(self, monkeypatch, n):
        inst = generate_loan_instance(LoanConfig(n_states=n, reward_kind="affine"))
        self.assert_same_lp(monkeypatch, inst, enumerate_for_instance(inst))

    def test_random_instances(self, monkeypatch, rng):
        for _ in range(24):
            inst = random_instance(rng, max_states=6, reward="affine")
            self.assert_same_lp(monkeypatch, inst, enumerate_for_instance(inst))


class TestColumnsAgainstSliceOracle:
    """FiniteLp.columns gathers each row block's entries in one pass, and
    its matrices are those of the slice-and-stack oracle, byte for byte."""

    @staticmethod
    def assert_same_columns(flp, j):
        got, want = flp.columns(j), slice_finite_lp_columns(flp, j)
        assert_same_bytes(got.c, want.c)
        for name in ("a_eq", "a_in"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.format == b.format == "csc" and a.shape == b.shape
            for part in ("indptr", "indices", "data"):
                assert_same_bytes(getattr(a, part), getattr(b, part))

    @classmethod
    def assert_subsets(cls, rng, inst, vs, draws=30):
        """Every column in order, then unsorted subsets mixing vertex and d
        columns, vertex columns alone and d columns alone."""
        flp = FiniteLp(build_finite_cmdp(inst, vs))
        cls.assert_same_columns(flp, np.arange(flp.nvars))
        for _ in range(draws):
            size = int(rng.integers(1, flp.nvars + 1))
            cls.assert_same_columns(flp, rng.choice(flp.nvars, size=size, replace=False))
        for lo, hi in ((0, flp.n_vertex), (flp.n_vertex, flp.nvars)):
            cls.assert_same_columns(flp, rng.permutation(np.arange(lo, hi)))
        return flp

    def test_quadratic_loan(self, rng):
        inst = generate_loan_instance(LoanConfig(n_states=10, reward_kind="quad_convex"))
        flp = self.assert_subsets(rng, inst, enumerate_for_instance(inst, method="auto"))
        assert max(len(gs) for gs in flp.shared) > 1  # states share an array
        assert flp.b_in.size == 1

    def test_l1_loan_with_kink_planes(self, rng):
        inst = generate_loan_instance(LoanConfig(n_states=5, reward_kind="l1"))
        self.assert_subsets(rng, inst, enumerate_for_instance(inst, kink_planes=True))

    def test_random_instances_with_caps(self, rng):
        caps = 0
        for _ in range(24):
            inst = random_instance(rng, max_states=6, reward="affine", constraint_chance=1.0)
            caps += len(inst.constraints)
            self.assert_subsets(rng, inst, enumerate_for_instance(inst), draws=10)
        assert caps > 24


def linprog_hull(points, values, query):
    """The LP of :func:`hull_envelope` solved by scipy's linprog with HiGHS
    and its default presolve: (status, value), status 0 optimal and 2
    infeasible."""
    pts = np.asarray(points, dtype=float)
    a_eq = np.vstack([pts.T, np.ones((1, pts.shape[0]))])
    res = linprog(-np.asarray(values, dtype=float), A_eq=a_eq,
                  b_eq=np.append(query, 1.0), bounds=(0, None), method="highs")
    return res.status, (-res.fun if res.status == 0 else None)


class TestHullAgainstLinprog:
    """hull_envelope, point_to_mix and envelope_value, whose LPs run without
    presolve, against linprog with presolve on the same LP: random box and
    general polytopes, queried at vertices, on faces, inside and outside."""

    @staticmethod
    def queries(rng, poly, verts):
        """(query, kind) pairs: up to four vertices, points on up to four
        faces of the polytope's rows and sign rows, interior mixtures, and
        points outside: past a vertex (away from the centroid), or off the
        simplex."""
        out = [(v, "vertex") for v in verts[rng.permutation(verts.shape[0])[:4]]]
        rows = np.vstack([poly.H, -np.eye(poly.dim)])
        rhs = np.concatenate([poly.h, np.zeros(poly.dim)])
        for i in rng.permutation(rhs.size):
            tight = verts[np.abs(verts @ rows[i] - rhs[i]) <= 1e-9]
            if tight.shape[0] >= 2 and len(out) < 8:
                out.append((rng.dirichlet(np.ones(tight.shape[0])) @ tight, "face"))
        out += [(rng.dirichlet(np.ones(verts.shape[0])) @ verts, "interior")
                for _ in range(2)]
        if verts.shape[0] > 1:
            center = verts.mean(axis=0)
            out += [(center + 1.5 * (v - center), "outside") for v in verts[:2]]
        out.append((verts[0] + 0.01, "outside"))
        return out

    @staticmethod
    def polytopes(rng):
        """(polytope, vertices): boxes by box_simplex_vertices, general
        polytopes by exhaustive enumeration."""
        for i in range(40):
            n = int(rng.integers(2, 7))
            poly = pool_polytope(rng, ("box", "rows", "implying")[i % 3], n)
            if poly.box is not None:
                yield poly, box_simplex_vertices(*poly.box)
            else:
                yield poly, enumerate_vertices(poly)

    @staticmethod
    def assert_value(got, want):
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    @staticmethod
    def assert_reproduces(weights, verts, query):
        assert weights.min() >= 0.0
        assert weights.sum() == pytest.approx(1.0, abs=1e-8)
        np.testing.assert_allclose(weights @ verts, query, rtol=0.0, atol=1e-8)

    def test_values_and_weights_match_the_oracle(self):
        rng = np.random.default_rng(13)
        seen = dict.fromkeys(("vertex", "face", "interior", "outside"), 0)
        for poly, verts in self.polytopes(rng):
            n = poly.dim
            inst = CmdpInstance(
                LayeredStateSpace([["s"], [f"t{k}" for k in range(n)]]), {"s": poly},
                {"s": QuadraticDeviationReward(poly.base, convex=True,
                                               weights=rng.uniform(0.5, 2.0, n))},
                np.array([1.0]), [],
            )
            fc = build_envelope(inst, VertexSet({"s": verts}))
            values = rng.normal(size=verts.shape[0])
            for q, kind in self.queries(rng, poly, verts):
                seen[kind] += 1
                inside = kind != "outside"
                for vals, route in (
                    (values, lambda: hull_envelope(verts, values, q)),
                    (fc.rewards["s"], lambda: envelope_value(fc, "s", q)),
                ):
                    status, want = linprog_hull(verts, vals, q)
                    assert status == (0 if inside else 2)
                    if not inside:
                        with pytest.raises(DecompositionError):
                            route()
                        continue
                    got, weights = route()
                    self.assert_value(got, want)
                    self.assert_value(float(weights @ vals), want)
                    self.assert_reproduces(weights, verts, q)
                if not inside:
                    with pytest.raises(DecompositionError):
                        point_to_mix(q, verts)
                    continue
                pairs = point_to_mix(q, verts)
                assert len(pairs) <= n
                weights = np.array([w for w, _ in pairs])
                self.assert_reproduces(weights, np.array([v for _, v in pairs]), q)
        assert min(seen.values()) >= 60, seen

    def test_hull_lps_run_without_presolve(self):
        # presolve alone solves this LP; the hull solve runs the simplex
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = lpmod.LpProblem(c=np.zeros(2), a_eq=np.vstack([pts.T, np.ones((1, 2))]),
                            b_eq=[0.6, 0.4, 1.0])
        assert lpmod.solve_lp(p).iterations == 0
        sol = lpmod.solve_once(p)
        assert sol.iterations > 0
        np.testing.assert_allclose(sol.x, [0.6, 0.4], rtol=0.0, atol=1e-12)


class TestHullFace:
    """hull_envelope restricted to the query's face: near-face queries,
    repeated and non-extreme generators, and the LPs it runs."""

    @staticmethod
    def count_solves(monkeypatch):
        calls = []
        solve_highs = lpmod._solve_highs

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_highs(*args, **kwargs)

        monkeypatch.setattr(lpmod, "_solve_highs", counted)
        return calls

    def test_near_face_queries_match_the_oracle(self, rng):
        sizes = {"one": 0, "some": 0, "all": 0}
        exact = cases = 0
        for k in range(16):
            poly = pool_polytope(rng, ("box", "rows", "implying")[k % 3], int(rng.integers(2, 7)))
            verts = (box_simplex_vertices(*poly.box) if poly.box is not None
                     else enumerate_vertices(poly))
            # points inside the hull as generators of their own and, on every
            # other polytope, each vertex again, moved by far less than FACE_TOL
            gens = np.vstack([verts, rng.dirichlet(np.ones(verts.shape[0]), size=3) @ verts]
                             + [verts[::-1] + 1e-14] * (k % 2))
            center = verts.mean(axis=0)
            extreme = ((np.abs(verts - verts.min(axis=0)) <= 1e-9)
                       | (np.abs(verts - verts.max(axis=0)) <= 1e-9))
            for values in (rng.normal(size=gens.shape[0]), np.zeros(gens.shape[0])):
                for i in rng.permutation(verts.shape[0])[:2]:
                    # a vertex, and a point of the face its extremes span
                    v, ext = verts[i], extreme[i]
                    face = verts[np.all(np.abs(verts[:, ext] - v[ext]) <= 1e-9, axis=1)]
                    for start in (v, rng.dirichlet(np.ones(face.shape[0])) @ face):
                        step = center - start
                        if not np.abs(step).max():
                            continue
                        for delta in (0.0, 1e-12, 1e-10, 1e-8):
                            q = start + delta * step / np.abs(step).max()
                            size = len(loop_face(gens, q))
                            sizes["one" if size == 1 else "all" if size == gens.shape[0]
                                  else "some"] += 1
                            status, want = linprog_hull(gens, values, q)
                            assert status == 0
                            got, weights = hull_envelope(gens, values, q)
                            TestHullAgainstLinprog.assert_reproduces(weights, gens, q)
                            # 1e-8 inside a vertex, the LP over every generator
                            # may itself miss linprog by more than 1e-9 (its rows
                            # hold to 1e-9 only); the face may add no more
                            whole = fresh_hull_envelope(gens, values, q)[0]
                            scale = 1e-9 * max(1.0, abs(want))
                            assert abs(got - want) <= abs(whole - want) + scale
                            exact += abs(got - want) <= scale
                            cases += 1
        assert min(sizes.values()) >= 80, sizes
        assert exact >= 0.8 * cases

    def test_lp_count_by_face(self, monkeypatch):
        verts = box_simplex_vertices(*box_polytope([0.5, 0.3, 0.2], 0.1).box)
        calls = self.count_solves(monkeypatch)
        for v in verts:
            pairs = point_to_mix(v, verts)
            assert len(pairs) == 1 and pairs[0][1].tobytes() == v.tobytes()
        assert len(calls) == 0
        point_to_mix(verts.mean(axis=0), verts)
        assert len(calls) == 1
        # a repeated vertex leaves two generators on the face: one LP over them
        doubled = np.vstack([verts, verts[:1]])
        weights = hull_envelope(doubled, np.arange(doubled.shape[0], dtype=float), verts[0])[1]
        assert len(calls) == 2 and calls[-1][0].nvars == 2
        assert weights.sum() == pytest.approx(1.0) and weights[1:-1].max() == 0.0

    def test_face_that_misses_the_query_falls_back(self, monkeypatch):
        # at the minimum of the first coordinate, off the face in the second:
        # the face LP is infeasible, and only the whole LP may reject
        verts = np.array([[0.1, 0.9], [0.1, 0.8], [0.5, 0.5], [0.9, 0.1]])
        calls = self.count_solves(monkeypatch)
        with pytest.raises(DecompositionError):
            point_to_mix([0.1, 0.7], verts)
        assert [c[0].nvars for c in calls] == [2, 4]
        # one generator on the face that is not the query
        with pytest.raises(DecompositionError):
            point_to_mix([0.1, 0.9], verts[1:])
        assert [c[0].nvars for c in calls[2:]] == [3]

    def test_shapes_must_match(self):
        # a one-entry query would broadcast against every generator
        verts = np.array([[0.5, 0.5], [1.0, 0.0]])
        for points, values, query in ((verts, np.zeros(2), [0.5]),
                                      (verts, np.zeros(3), [0.5, 0.5]),
                                      (np.zeros((0, 2)), np.zeros(0), [0.5, 0.5])):
            with pytest.raises(ValueError, match="do not match"):
                hull_envelope(points, values, query)

    def test_loan_naive_action_is_accepted(self):
        inst = generate_loan_instance(LoanConfig(n_states=10, reward_kind="quad_convex"))
        fc = build_envelope(inst)
        a = solve(inst, "naive-linear").policy.actions["t3_l6"]
        value, weights = envelope_value(fc, "t3_l6", a)
        # the envelope dominates the convex reward
        assert value >= float(inst.rewards["t3_l6"].value(a)) - 1e-12
        TestHullAgainstLinprog.assert_reproduces(weights, fc.vertices["t3_l6"], a)


class TestSharedHullModel:
    """Every hull LP of a thread runs in one HiGHS model, emptied after
    each solve: no answer may depend on what the model solved before."""

    @staticmethod
    def box(center, radius):
        poly = box_polytope(np.asarray(center, dtype=float), radius)
        return box_simplex_vertices(*poly.box)

    def test_answers_match_fresh_models_byte_for_byte(self):
        # the oracle solves the same face LP as hull_envelope, on a new model
        rng = np.random.default_rng(29)
        outside = 0
        faces = {"one": 0, "some": 0, "all": 0}
        for poly, verts in TestHullAgainstLinprog.polytopes(rng):
            values = rng.normal(size=verts.shape[0])
            for q, kind in TestHullAgainstLinprog.queries(rng, poly, verts):
                size = len(loop_face(verts, q))
                faces["one" if size == 1 else "all" if size == verts.shape[0] else "some"] += 1
                for vals in (values, np.zeros(verts.shape[0])):
                    want = fresh_face_envelope(verts, vals, q)
                    if want is None:
                        assert kind == "outside"
                        outside += 1
                        with pytest.raises(DecompositionError):
                            hull_envelope(verts, vals, q)
                        continue
                    value, weights = hull_envelope(verts, vals, q)
                    assert value == want[0]
                    assert weights.tobytes() == want[1].tobytes()
        assert outside >= 100
        assert min(faces.values()) >= 50, faces

    def test_query_after_an_outside_one(self):
        verts = self.box([0.5, 0.3, 0.2], 0.1)
        zeros = np.zeros(verts.shape[0])
        inside = np.array([0.45, 0.35, 0.2])
        want = fresh_hull_envelope(verts, zeros, inside)[1]
        for _ in range(3):
            with pytest.raises(DecompositionError):
                point_to_mix([0.9, 0.05, 0.05], verts)
            assert hull_envelope(verts, zeros, inside)[1].tobytes() == want.tobytes()
            pairs = point_to_mix(inside, verts)
            np.testing.assert_allclose(sum(w * v for w, v in pairs), inside,
                                       rtol=0.0, atol=1e-9)

    def test_one_model_per_thread(self, monkeypatch):
        from scipy.optimize._highspy import _core as hs

        made = []
        highs = hs._Highs

        def counted():
            made.append(threading.current_thread().name)
            return highs()

        monkeypatch.setattr(hs, "_Highs", counted)
        rng = np.random.default_rng(31)
        verts = self.box([0.25, 0.25, 0.25, 0.25], 0.2)
        converted = []

        def convert():
            for _ in range(50):
                a = rng.dirichlet(np.ones(verts.shape[0])) @ verts
                converted.append(point_to_mix(a, verts))

        worker = threading.Thread(target=convert, name="hull-worker")
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert len(converted) == 50
        assert made == ["hull-worker"]

    def test_threads_convert_at_once(self):
        # more threads than cores, switching often, each on its own box
        boxes = [self.box([0.5, 0.3, 0.2], 0.15),
                 self.box([0.1, 0.2, 0.3, 0.4], 0.08),
                 self.box([0.2, 0.2, 0.2, 0.2, 0.2], 0.1),
                 self.box([0.7, 0.3], 0.2)]
        start = threading.Barrier(len(boxes))
        errors, done = [], []

        def convert(k, verts):
            rng = np.random.default_rng(k)
            try:
                start.wait(timeout=30)
                for _ in range(100):
                    a = rng.dirichlet(np.ones(verts.shape[0])) @ verts
                    pairs = point_to_mix(a, verts)
                    assert len(pairs) <= verts.shape[1]
                    np.testing.assert_allclose(sum(w * v for w, v in pairs), a,
                                               rtol=0.0, atol=1e-8)
                done.append(k)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=convert, args=(k, v))
                   for k, v in enumerate(boxes)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert sorted(done) == list(range(len(boxes)))


class TestConversions:
    def test_mix_to_point_example(self):
        pol = RandomizedPolicy({"s": [(0.6, [1.0, 0.0]), (0.4, [0.0, 1.0])]})
        det = mix_to_point(pol)
        np.testing.assert_allclose(det.actions["s"], [0.6, 0.4], atol=1e-12)

    def test_single_atom_identity(self):
        pol = RandomizedPolicy({"s": [(1.0, [0.3, 0.7])]})
        np.testing.assert_allclose(mix_to_point(pol).actions["s"], [0.3, 0.7])

    def test_centroid_of_unit_vectors(self):
        pol = RandomizedPolicy(
            {"s": [(1 / 3, np.eye(3)[k]) for k in range(3)]}
        )
        np.testing.assert_allclose(
            mix_to_point(pol).actions["s"], [1 / 3] * 3, atol=1e-12
        )

    def test_point_to_mix_examples(self):
        pairs = point_to_mix([0.6, 0.4], [[1.0, 0.0], [0.0, 1.0]])
        weights = {tuple(v): w for w, v in pairs}
        assert weights[(1.0, 0.0)] == pytest.approx(0.6, abs=1e-9)
        assert weights[(0.0, 1.0)] == pytest.approx(0.4, abs=1e-9)

        pairs = point_to_mix([0.9, 0.1], [[0.9, 0.1], [0.1, 0.9]])
        assert len(pairs) == 1 and pairs[0][0] == pytest.approx(1.0)

        pairs = point_to_mix([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]])
        assert sorted(w for w, _ in pairs) == pytest.approx([0.5, 0.5])

    def test_point_outside_hull_raises(self, monkeypatch):
        calls = []
        solve_highs = lpmod._solve_highs

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_highs(*args, **kwargs)

        monkeypatch.setattr(lpmod, "_solve_highs", counted)
        with pytest.raises(DecompositionError):
            point_to_mix([0.0, 1.0], [[0.9, 0.1], [0.5, 0.5]])
        # the rejection needs no phase-1 certificate solve
        assert len(calls) == 1

    def test_roundtrip_identity(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            poly = box_polytope(rng.dirichlet(np.ones(n)), 0.3)
            verts = enumerate_vertices(poly)
            lam = rng.dirichlet(np.ones(len(verts)))
            a = lam @ verts
            pairs = point_to_mix(a, verts)
            assert len(pairs) <= n
            back = sum(w * v for w, v in pairs)
            np.testing.assert_allclose(back, a, atol=1e-8)
