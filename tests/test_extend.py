import numpy as np
import pytest

from helpers import check_concavity, extend_polytope, sample_specs

from modcmdp import (
    AffineReward,
    QuadraticDeviationReward,
    WeightedL1Reward,
    box_polytope,
    extend_reward,
)


class TestExtendReward:
    def test_affine_example(self):
        ext = extend_reward(AffineReward([1.0, 2.0], 3.0))
        assert ext.value([1.0, 1.0]) == pytest.approx(9.0, abs=1e-12)

    def test_l1_example(self):
        ext = extend_reward(WeightedL1Reward([0.5, 0.5], [1.0, 1.0]))
        # at (1,1) the scaled center is (1,1): zero deviation
        assert ext.value([1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_zero_everywhere(self, rng):
        for spec in sample_specs(rng, 3):
            assert extend_reward(spec).value(np.zeros(3)) == 0.0

    def test_simplex_restriction(self, rng):
        for _ in range(25):
            dim = int(rng.integers(2, 7))
            for spec in sample_specs(rng, dim):
                ext = extend_reward(spec)
                a = rng.dirichlet(np.ones(dim))
                assert ext.value(a) == pytest.approx(spec.value(a), abs=1e-12)

    def test_positive_homogeneity(self, rng):
        for _ in range(25):
            dim = int(rng.integers(2, 7))
            for spec in sample_specs(rng, dim):
                ext = extend_reward(spec)
                a = rng.uniform(0, 1, size=dim)
                base = ext.value(a)
                for q in (0.1, 1.0, 2.0, 10.0):
                    scaled = ext.value(q * a)
                    assert abs(scaled - q * base) <= 1e-9 * max(1.0, abs(base))

    def test_quadratic_gradient_matches_finite_differences(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 6))
            spec = QuadraticDeviationReward(
                rng.dirichlet(np.ones(dim)),
                convex=bool(rng.integers(2)),
                weights=rng.uniform(0.1, 2, size=dim),
            )
            ext = extend_reward(spec)
            a = rng.uniform(0.2, 1.0, size=dim)
            grad = ext.gradient(a)
            h = 1e-6
            for k in range(dim):
                e = np.zeros(dim)
                e[k] = h
                fd = (ext.value(a + e) - ext.value(a - e)) / (2 * h)
                assert grad[k] == pytest.approx(fd, abs=1e-5)
            # Euler identity for positively homogeneous functions
            assert grad @ a == pytest.approx(ext.value(a), rel=1e-9)


class TestExtendPolytope:
    def test_scaled_boundary_point(self):
        poly = box_polytope([0.5, 0.5], 0.4)
        rows = extend_polytope(poly)
        a = np.array([0.45, 0.05])  # a / sum(a) = (0.9, 0.1), on the box edge
        assert np.max(rows @ a) <= 1e-12

    def test_scaled_infeasible_point(self):
        poly = box_polytope([0.5, 0.5], 0.4)
        rows = extend_polytope(poly)
        a = np.array([0.5, 0.0])  # a / sum(a) = (1, 0) violates the 0.9 cap
        assert np.max(rows @ a) > 1e-9

    def test_zero_vector(self):
        poly = box_polytope([0.5, 0.5], 0.4)
        rows = extend_polytope(poly)
        assert np.all(rows @ np.zeros(2) == 0.0)

    def test_rows_vanish_on_base_ray(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 6))
            b = rng.dirichlet(np.ones(dim))
            poly = box_polytope(b, float(rng.uniform(0.05, 0.5)))
            rows = extend_polytope(poly)
            for q in (0.0, 0.3, 1.0, 4.0):
                assert np.max(rows @ (q * b), initial=-np.inf) <= 1e-9 * max(1, q)

    def test_membership_equivalence(self, rng):
        # G @ a <= 0 iff a/sum(a) in the polytope, for sum(a) > 0
        for _ in range(40):
            dim = int(rng.integers(2, 6))
            b = rng.dirichlet(np.ones(dim))
            poly = box_polytope(b, float(rng.uniform(0.05, 0.5)))
            rows = extend_polytope(poly)
            u = rng.uniform(0, 1, size=dim)
            scaled = u / u.sum()
            lifted_ok = np.max(rows @ u) <= 1e-9
            member = poly.margin(scaled) <= 1e-9
            assert lifted_ok == member

    def test_simplex_polytope_has_no_rows(self):
        from modcmdp import ActionPolytope

        rows = extend_polytope(ActionPolytope([0.5, 0.5]))
        assert rows.shape == (0, 2)


class TestCheckConcavity:
    def test_affine_is_both(self):
        ext = extend_reward(AffineReward([1.0, -2.0], 0.5))
        assert check_concavity(ext, dim=2, samples=300)
        assert check_concavity(ext, dim=2, samples=300, direction="convex")

    def test_l1_is_concave(self):
        ext = extend_reward(WeightedL1Reward([0.3, 0.7], [1.0, 2.0]))
        assert check_concavity(ext, dim=2, samples=500)

    def test_convex_quadratic_fails_concavity_with_witness(self):
        ext = extend_reward(
            QuadraticDeviationReward([0.5, 0.5], convex=True)
        )
        res = check_concavity(ext, dim=2, samples=500, direction="concave")
        assert not res
        x, y = res.witness
        mid = ext.value((x + y) / 2)
        avg = (ext.value(x) + ext.value(y)) / 2
        assert mid < avg - 1e-9

    def test_quadratic_variants_pass_their_own_direction(self):
        conc = extend_reward(QuadraticDeviationReward([0.5, 0.5], convex=False))
        conv = extend_reward(QuadraticDeviationReward([0.5, 0.5], convex=True))
        assert check_concavity(conc, dim=2, samples=500)
        assert check_concavity(conv, dim=2, samples=500)

    def test_parameter_validation(self):
        ext = extend_reward(AffineReward([1.0, 1.0], 0.0))
        with pytest.raises(ValueError):
            check_concavity(ext, dim=1)
        with pytest.raises(ValueError):
            check_concavity(ext, dim=2, samples=50)
