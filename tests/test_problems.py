"""Benchmark catalog: constraint builder, gradients, and the quadratic oracle."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from eqflow import (
    DimensionError,
    SingularKkt,
    UnknownProblem,
    factor,
    get_problem,
    quadratic_form,
    quadratic_oracle,
    restore_feasibility,
)
from eqflow.problems import (
    CONVEX_PROBLEMS,
    NONCONVEX_PROBLEMS,
    build_constraints,
)
from helpers import central_diff_gradient, feasible_points


QUADRATIC_PROBLEMS = (
    "sphere", "sum_squares", "trid", "rotated_hyper_ellipsoid", "booth", "matyas"
)


def small_instance(name):
    """The problem at a small dimension compatible with its structure."""
    default = get_problem(name)
    if default.n == 2:
        return default
    return get_problem(name, n=12)  # even and divisible by 4


class TestConstraintBuilder:
    def test_two_dim_single_row(self):
        cs = build_constraints(2)
        assert np.array_equal(cs.a, [[2.0, 1.0]])
        assert np.array_equal(cs.b, [2.0])

    def test_six_dim_three_rows(self):
        cs = build_constraints(6, 3)
        left = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        right = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [1.0, 1.0, 1.0]])
        assert np.array_equal(cs.a[:, :3], left)
        assert np.array_equal(cs.a[:, 3:], right)
        assert np.array_equal(cs.b, [2.0, 2.0, 2.0])

    def test_dense_block_rows_alternate(self):
        cs = build_constraints(8)  # m defaults to n // 2
        assert cs.m == 4
        dense = cs.a[:, 4:]
        assert np.array_equal(dense[0], np.ones(4))
        assert np.array_equal(dense[1], 2.0 * np.ones(4))
        assert np.array_equal(dense[2], np.ones(4))
        assert np.array_equal(dense[3], 2.0 * np.ones(4))

    def test_full_row_rank_across_shapes(self):
        for n, m in [(4, 2), (10, 5), (12, 4), (12, 8), (30, 15)]:
            cs = build_constraints(n, m)
            assert factor(cs).rank == m

    def test_odd_dimension_rejected(self):
        with pytest.raises(DimensionError):
            build_constraints(7)
        # One is odd too, and below the smallest system.
        with pytest.raises(DimensionError, match="need n >= 2, got n=1"):
            build_constraints(1)

    def test_bad_row_count_rejected(self):
        with pytest.raises(DimensionError):
            build_constraints(6, 0)
        with pytest.raises(DimensionError):
            build_constraints(6, 7)


class TestSharedSystems:
    def test_equal_shapes_share_one_system(self):
        sphere, trid = get_problem("sphere", n=12), get_problem("trid", n=12)
        assert sphere.cs is trid.cs is build_constraints(12, 6)
        assert get_problem("sphere", n=12, m=4).cs is not sphere.cs

    def test_default_split_is_validated_before_sharing(self):
        three_rows = get_problem("sphere", n=7, m=3)
        assert three_rows.cs.m == 3
        with pytest.raises(DimensionError, match="even n"):
            get_problem("sphere", n=7)

    def test_system_is_freed_once_no_instance_holds_it(self):
        problems = [get_problem(name, n=22, m=9) for name in ("sphere", "levy")]
        factor(problems[0].cs)
        ref = weakref.ref(problems[0].cs)
        del problems
        gc.collect()
        assert ref() is None

    def test_threads_get_one_system_per_shape(self):
        workers, shapes = 8, range(1, 40)
        barrier = threading.Barrier(workers)
        seen = []

        def build():
            barrier.wait(timeout=10)
            seen.extend(build_constraints(40, m) for m in shapes)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == workers * len(shapes)
        assert len({id(cs) for cs in seen}) == len(shapes)


class TestCatalog:
    def test_has_twenty_problems(self):
        assert len(CONVEX_PROBLEMS + NONCONVEX_PROBLEMS) >= 20
        assert not set(CONVEX_PROBLEMS) & set(NONCONVEX_PROBLEMS)

    def test_constructors_build_instances(self):
        for name in CONVEX_PROBLEMS + NONCONVEX_PROBLEMS:
            problem = get_problem(name)
            assert problem.name == name
            assert problem.x0.shape == (problem.n,)
            assert np.isfinite(problem.f(problem.x0))
            assert problem.hess is None

    def test_unknown_name(self):
        with pytest.raises(UnknownProblem):
            get_problem("nosuch")

    def test_fixed_dimension_cannot_be_overridden(self):
        with pytest.raises(DimensionError):
            get_problem("booth", n=10)

    def test_powell_needs_multiples_of_four(self):
        with pytest.raises(DimensionError):
            get_problem("powell", n=10)
        assert get_problem("powell", n=8).n == 8

    def test_known_optima(self):
        assert get_problem("booth").known_fstar == 9.0
        assert get_problem("matyas").known_fstar == pytest.approx(
            0.017699115044247787, abs=1e-15
        )


class TestGradients:
    @pytest.mark.parametrize("name", sorted(CONVEX_PROBLEMS + NONCONVEX_PROBLEMS))
    def test_matches_central_differences(self, name):
        problem = small_instance(name)
        for x in feasible_points(problem.cs, count=5, seed=hash(name) % 2**32):
            g = np.asarray(problem.grad(x), dtype=float)
            g_ref = central_diff_gradient(problem.f, x)
            err = np.max(np.abs(g - g_ref))
            scale = max(1.0, float(np.max(np.abs(g_ref))))
            assert err <= 1e-5 * scale, f"{name}: {err / scale:.2e}"

    def test_rosenbrock_gradient_vanishes_at_ones(self):
        problem = get_problem("rosenbrock", n=10)
        assert np.max(np.abs(problem.grad(np.ones(10)))) == 0.0

    def test_analytic_hessians_match_differenced_gradients(self):
        # Each quadratic entry's Q against central differences of grad along
        # random directions, which also see the off-diagonal entries.
        rng = np.random.default_rng(11)
        for name in QUADRATIC_PROBLEMS:
            problem = small_instance(name)
            q = quadratic_form(name, problem.n)[0]
            for x in feasible_points(problem.cs, count=2, seed=3):
                v = rng.standard_normal(problem.n)
                g_plus = np.asarray(problem.grad(x + 1e-6 * v), dtype=float)
                g_minus = np.asarray(problem.grad(x - 1e-6 * v), dtype=float)
                hv_ref = (g_plus - g_minus) / 2e-6
                assert np.allclose(q @ v, hv_ref, rtol=0.0, atol=1e-6 * max(
                    1.0, float(np.max(np.abs(hv_ref)))
                )), name


class TestQuadraticForms:
    @pytest.mark.parametrize("name", QUADRATIC_PROBLEMS)
    def test_matches_objective(self, name):
        problem = small_instance(name)
        q, c, const = quadratic_form(name, problem.n)
        rng = np.random.default_rng(19)
        for _ in range(5):
            x = rng.uniform(-3.0, 3.0, size=problem.n)
            expected = 0.5 * float(x @ q @ x) + float(c @ x) + const
            assert problem.f(x) == pytest.approx(expected, rel=1e-12, abs=1e-10)

    def test_unknown_form(self):
        with pytest.raises(UnknownProblem):
            quadratic_form("rosenbrock", 4)


class TestQuadraticOracle:
    def test_two_dim_closed_form(self):
        problem = get_problem("booth")
        q, c, const = quadratic_form("booth", 2)
        x_star, f_star = quadratic_oracle(problem.cs, q, c)
        assert np.allclose(x_star, [-1.0, 4.0], atol=1e-10)
        assert problem.f(x_star) == pytest.approx(9.0, abs=1e-10)

    def test_identity_curvature_restores_negated_slope(self):
        # min 0.5 x.x + c.x over the line: x* is the feasible point closest
        # to -c.
        cs = build_constraints(2)
        c = np.array([0.3, -1.1])
        x_star, _ = quadratic_oracle(cs, np.eye(2), c)
        basis = factor(cs)
        assert np.allclose(x_star, restore_feasibility(basis, -c), atol=1e-12)

    def test_least_norm_solution_for_pure_sphere(self):
        cs = build_constraints(40)
        q, c, _ = quadratic_form("sphere", 40)
        x_star, _ = quadratic_oracle(cs, q, c)
        lstsq = np.linalg.lstsq(cs.a, cs.b, rcond=None)[0]
        assert np.allclose(x_star, lstsq, atol=1e-9)

    def test_stationarity_and_feasibility(self):
        for name, n in [("sum_squares", 30), ("trid", 30)]:
            cs = build_constraints(n)
            q, c, _ = quadratic_form(name, n)
            x_star, _ = quadratic_oracle(cs, q, c)
            basis = factor(cs)
            g = q @ x_star + c
            from eqflow import project_gradient

            assert np.max(np.abs(cs.a @ x_star - cs.b)) < 1e-10
            assert np.max(np.abs(project_gradient(basis, g))) < 1e-8

    def test_singular_reduced_curvature_raises(self):
        cs = build_constraints(4)
        with pytest.raises(SingularKkt):
            quadratic_oracle(cs, np.zeros((4, 4)), np.ones(4))
        # lu_factor rejects a matrix holding NaN.
        with pytest.raises(SingularKkt, match="infs or NaNs"):
            quadratic_oracle(cs, np.full((4, 4), np.nan), np.ones(4))
