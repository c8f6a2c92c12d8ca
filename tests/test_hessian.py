"""Finite-difference tangent-space curvature and the shifted factorization."""

import numpy as np
import pytest

from eqflow import (
    ConstraintSystem,
    NonFiniteGradient,
    ProjectedHessian,
    SingularFactor,
    build_and_factor,
    factor,
    fd_projected_hessian,
    get_problem,
    project_gradient,
    solve_shifted,
)
from eqflow.problems import build_constraints
from helpers import dense_projector, rosenbrock_dense_hessian


def quadratic_grad(q_mat, c):
    return lambda x: q_mat @ x + c


def make_basis(n, m=None, seed=0):
    cs = build_constraints(n, m)
    return cs, factor(cs)


class TestExactOnQuadratics:
    def test_matches_projected_matrix(self):
        rng = np.random.default_rng(5)
        for n in (4, 10, 24, 50):
            cs, basis = make_basis(n)
            q_raw = rng.standard_normal((n, n))
            q_mat = q_raw + q_raw.T
            c = rng.standard_normal(n)
            x = rng.standard_normal(n)
            hess = fd_projected_hessian(quadratic_grad(q_mat, c), basis, x)
            p = dense_projector(basis)
            target = p @ q_mat @ p
            err = np.linalg.norm(hess.matrix - target)
            assert err <= 1e-6 * max(1.0, np.linalg.norm(target))

    def test_two_dim_quadratic_hand_value(self):
        # f(u,v) = (u + 2v - 7)^2 + (2u + v - 5)^2 has constant curvature
        # [[10, 8], [8, 10]]; the evaluated matrix is its two-sided projection.
        problem = get_problem("booth")
        basis = factor(problem.cs)
        hess = fd_projected_hessian(problem.grad, basis, problem.x0)
        p = dense_projector(basis)
        target = p @ np.array([[10.0, 8.0], [8.0, 10.0]]) @ p
        assert np.linalg.norm(hess.matrix - target) < 1e-6

    def test_linear_objective_gives_zero_matrix(self):
        _, basis = make_basis(8)
        c = np.arange(1.0, 9.0)
        hess = fd_projected_hessian(lambda x: c, basis, np.ones(8))
        assert np.max(np.abs(hess.matrix)) <= 1e-12


class TestStructuralInvariants:
    def test_asymmetry_bounded_by_fd_error(self):
        rng = np.random.default_rng(6)
        for n in (6, 20):
            cs, basis = make_basis(n)
            problem = get_problem("rosenbrock", n=n)
            x = rng.standard_normal(n)
            hess = fd_projected_hessian(problem.grad, basis, x, fd_eps=1e-6)
            scale = max(1.0, float(np.linalg.norm(hess.matrix)))
            assert np.linalg.norm(hess.matrix - hess.matrix.T) <= 10 * 1e-6 * scale

    def test_columns_stay_in_null_space(self):
        # The assembled matrix is left-projected, so its range must lie in the
        # constraint null space to projection accuracy regardless of the
        # objective's nonlinearity.
        n = 12
        cs, basis = make_basis(n)
        problem = get_problem("levy", n=n)
        hess = fd_projected_hessian(problem.grad, basis, problem.x0)
        v = np.random.default_rng(7).standard_normal(n)
        assert np.max(np.abs(cs.a @ (hess.matrix @ v))) < 1e-9 * max(
            1.0, float(np.linalg.norm(hess.matrix @ v))
        )

    def test_row_space_projected_for_quadratics(self):
        # Probing along projected directions right-projects the matrix too,
        # but only up to finite-difference truncation error; on a quadratic
        # the truncation term vanishes and the row space is clean.
        n = 10
        cs, basis = make_basis(n)
        rng = np.random.default_rng(17)
        raw = rng.standard_normal((n, n))
        q_mat = raw + raw.T
        hess = fd_projected_hessian(
            quadratic_grad(q_mat, rng.standard_normal(n)), basis, rng.standard_normal(n)
        )
        scale = max(1.0, float(np.linalg.norm(hess.matrix)))
        assert np.max(np.abs(hess.matrix @ cs.a.T)) < 1e-8 * scale

    def test_probe_count_and_order(self):
        n = 6
        _, basis = make_basis(n)
        seen = []

        def grad(x):
            seen.append(np.array(x))
            return 2.0 * x

        x0 = np.ones(n)
        fd_projected_hessian(grad, basis, x0, fd_eps=1e-6)
        assert len(seen) == n + 1
        directions = project_gradient(basis, np.eye(n))
        assert np.array_equal(seen[0], x0)
        for i in range(n):
            assert np.allclose(seen[i + 1], x0 + 1e-6 * directions[:, i], atol=0.0)

    def test_halving_step_halves_error(self):
        # Second-order objective curvature error of one-sided differences
        # scales linearly in the step; halving it should halve the error.
        n = 6
        cs, basis = make_basis(n)
        problem = get_problem("rosenbrock", n=n)
        x = problem.x0 + 0.1
        p = dense_projector(basis)
        target = p @ rosenbrock_dense_hessian(x) @ p
        errs = []
        for eps in (1e-4, 5e-5):
            hess = fd_projected_hessian(problem.grad, basis, x, fd_eps=eps)
            errs.append(np.linalg.norm(hess.matrix - target))
        ratio = errs[0] / errs[1]
        assert 1.4 <= ratio <= 2.6

    def test_non_finite_probe_raises(self):
        n = 4
        _, basis = make_basis(n)
        calls = {"count": 0}

        def grad(x):
            calls["count"] += 1
            g = 2.0 * x
            if calls["count"] > 2:
                g[0] = np.nan
            return g

        with pytest.raises(NonFiniteGradient):
            fd_projected_hessian(grad, basis, np.ones(n))


class TestShiftedFactorization:
    def test_zero_curvature_is_exact_scaling(self):
        n = 5
        hess = ProjectedHessian(matrix=np.zeros((n, n)), fd_eps=1e-6, eval_index=0)
        fac = build_and_factor(hess, shift=1.0, dt=0.1)  # shift/dt = 10
        rhs = np.array([1.0, -2.0, 3.0, 0.0, 5.0])
        d = solve_shifted(fac, rhs)
        assert np.array_equal(d, rhs / 10.0)

    def test_residuals_small_over_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 25))
            raw = rng.standard_normal((n, n))
            mat = raw + raw.T
            hess = ProjectedHessian(matrix=mat, fd_eps=1e-6, eval_index=0)
            shift = float(rng.uniform(1e-6, 1.0))
            dt = float(rng.uniform(1e-6, 1.0))
            b = mat + (shift / dt) * np.eye(n)
            if np.min(np.abs(np.linalg.eigvalsh((b + b.T) / 2))) < 1e-8:
                continue  # skip accidentally singular draws
            fac = build_and_factor(hess, shift=shift, dt=dt)
            rhs = rng.standard_normal(n)
            d = solve_shifted(fac, rhs)
            res = np.linalg.norm(b @ d - rhs)
            assert res <= 1e-8 * max(1.0, np.linalg.norm(rhs), np.linalg.norm(d))

    def test_indefinite_curvature_is_factorizable(self):
        mat = np.diag([-5.0, 0.0, 3.0])
        hess = ProjectedHessian(matrix=mat, fd_eps=1e-6, eval_index=0)
        fac = build_and_factor(hess, shift=1.0, dt=1.0)  # B = diag(-4, 1, 4)
        d = solve_shifted(fac, np.array([4.0, 1.0, 4.0]))
        assert np.allclose(d, [-1.0, 1.0, 1.0], atol=1e-12)

    def test_singular_shift_raises(self):
        mat = -np.eye(3)
        hess = ProjectedHessian(matrix=mat, fd_eps=1e-6, eval_index=0)
        with pytest.raises(SingularFactor):
            build_and_factor(hess, shift=1.0, dt=1.0)  # B = 0

    def test_nonpositive_parameters_rejected(self):
        hess = ProjectedHessian(matrix=np.eye(2), fd_eps=1e-6, eval_index=0)
        with pytest.raises(ValueError):
            build_and_factor(hess, shift=0.0, dt=1.0)
        with pytest.raises(ValueError):
            build_and_factor(hess, shift=1.0, dt=-0.5)

    def test_zero_rhs_gives_zero_direction(self):
        hess = ProjectedHessian(
            matrix=np.array([[2.0, 1.0], [1.0, 2.0]]), fd_eps=1e-6, eval_index=0
        )
        fac = build_and_factor(hess, shift=1e-4, dt=1e-2)
        assert np.array_equal(solve_shifted(fac, np.zeros(2)), np.zeros(2))

    def test_descent_direction_under_strong_shift(self):
        # With shift/dt exceeding the curvature norm, B is positive definite
        # and the solved direction makes an obtuse angle with the gradient.
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            raw = rng.standard_normal((n, n))
            mat = raw + raw.T
            dt = 0.4 / max(1.0, float(np.linalg.norm(mat, 2)))
            hess = ProjectedHessian(matrix=mat, fd_eps=1e-6, eval_index=0)
            fac = build_and_factor(hess, shift=1.0, dt=dt)
            pg = rng.standard_normal(n)
            d = solve_shifted(fac, -pg)
            assert float(pg @ d) < 0.0

    def test_residuals_small_for_nonsymmetric_curvature(self):
        # The factored matrix is the raw, unsymmetrized H; the solve must be
        # backward stable for any nonsymmetric draw up to the stiff size.
        rng = np.random.default_rng(10)
        for n in [2, 300] + [int(k) for k in rng.integers(2, 301, size=40)]:
            mat = rng.standard_normal((n, n)) / np.sqrt(n)
            hess = ProjectedHessian(matrix=mat, fd_eps=1e-6, eval_index=0)
            shift = float(rng.uniform(1e-6, 1.0))
            dt = float(rng.uniform(1e-6, 1.0))
            fac = build_and_factor(hess, shift=shift, dt=dt)
            rhs = rng.standard_normal(n)
            d = solve_shifted(fac, rhs)
            res = np.linalg.norm(mat @ d + (shift / dt) * d - rhs)
            assert res <= 1e-12 * max(1.0, np.linalg.norm(rhs), np.linalg.norm(d))

    def test_exact_zero_pivot_raises(self):
        # B = [[0, 1], [0, 1]] has a zero first column, so elimination meets an
        # exact zero pivot although ||B|| is not zero.
        mat = np.array([[-1.0, 1.0], [0.0, 0.0]])
        hess = ProjectedHessian(matrix=mat, fd_eps=1e-6, eval_index=0)
        with pytest.raises(SingularFactor):
            build_and_factor(hess, shift=1.0, dt=1.0)

    def test_factor_holds_pivoted_lu_of_shifted_matrix(self):
        rng = np.random.default_rng(11)
        n = 6
        mat = rng.standard_normal((n, n))
        hess = ProjectedHessian(matrix=mat, fd_eps=1e-6, eval_index=3)
        fac = build_and_factor(hess, shift=1e-4, dt=0.25)
        lower = np.tril(fac.lu, -1) + np.eye(n)
        upper = np.triu(fac.lu)
        permuted = mat + 4e-4 * np.eye(n)
        for i, p in enumerate(fac.piv):  # LAPACK row interchanges, in order
            permuted[[i, p]] = permuted[[p, i]]
        assert np.allclose(lower @ upper, permuted, rtol=0.0, atol=1e-13)
        assert np.array_equal(hess.matrix, mat)  # the input is left untouched
