"""Finite-difference tangent-space curvature and the shifted factorization."""

import dataclasses
import sys
import threading

import numpy as np
import pytest
import scipy.linalg.lapack

import eqflow.hessian
import eqflow.projection
from eqflow import (
    ConstraintSystem,
    NonFiniteGradient,
    SingularFactor,
    factor,
    get_problem,
    project_gradient,
)
from eqflow.hessian import build_and_factor, fd_projected_hessian, solve_shifted
from eqflow.problems import build_constraints
from eqflow.projection import tangent_projector
from helpers import dense_projector, planted_rank_system, rosenbrock_dense_hessian


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
            err = np.linalg.norm(hess - target)
            assert err <= 1e-6 * max(1.0, np.linalg.norm(target))

    def test_two_dim_quadratic_hand_value(self):
        # f(u,v) = (u + 2v - 7)^2 + (2u + v - 5)^2 has constant curvature
        # [[10, 8], [8, 10]]; the evaluated matrix is its two-sided projection.
        problem = get_problem("booth")
        basis = factor(problem.cs)
        hess = fd_projected_hessian(problem.grad, basis, problem.x0)
        p = dense_projector(basis)
        target = p @ np.array([[10.0, 8.0], [8.0, 10.0]]) @ p
        assert np.linalg.norm(hess - target) < 1e-6

    def test_linear_objective_gives_zero_matrix(self):
        _, basis = make_basis(8)
        c = np.arange(1.0, 9.0)
        hess = fd_projected_hessian(lambda x: c, basis, np.ones(8))
        assert np.max(np.abs(hess)) <= 1e-12


class TestStructuralInvariants:
    def test_asymmetry_bounded_by_fd_error(self):
        rng = np.random.default_rng(6)
        for n in (6, 20):
            cs, basis = make_basis(n)
            problem = get_problem("rosenbrock", n=n)
            x = rng.standard_normal(n)
            hess = fd_projected_hessian(problem.grad, basis, x, fd_eps=1e-6)
            scale = max(1.0, float(np.linalg.norm(hess)))
            assert np.linalg.norm(hess - hess.T) <= 10 * 1e-6 * scale

    def test_columns_stay_in_null_space(self):
        # The assembled matrix is left-projected, so its range must lie in the
        # constraint null space to projection accuracy regardless of the
        # objective's nonlinearity.
        n = 12
        cs, basis = make_basis(n)
        problem = get_problem("levy", n=n)
        hess = fd_projected_hessian(problem.grad, basis, problem.x0)
        v = np.random.default_rng(7).standard_normal(n)
        assert np.max(np.abs(cs.a @ (hess @ v))) < 1e-9 * max(
            1.0, float(np.linalg.norm(hess @ v))
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
        scale = max(1.0, float(np.linalg.norm(hess)))
        assert np.max(np.abs(hess @ cs.a.T)) < 1e-8 * scale

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
            errs.append(np.linalg.norm(hess - target))
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


def fd_hessian_by_columns(grad, basis, x, fd_eps=1e-6):
    """The curvature matrix as it was computed before the projector was kept:
    directions projected on every call, probes stored by column."""
    n = x.shape[0]
    g0 = np.asarray(grad(x), dtype=float)
    directions = project_gradient(basis, np.eye(n))
    probes = np.empty((n, n))
    for i in range(n):
        probes[:, i] = grad(x + fd_eps * directions[:, i])
    return project_gradient(basis, (probes - g0[:, None]) / fd_eps)


def fresh_system(cs):
    """A new system with the data of ``cs``, so nothing is kept on it yet."""
    return ConstraintSystem(a=cs.a, b=cs.b)


class TestKeptProjector:
    @pytest.mark.parametrize(
        "make_cs",
        [
            lambda: fresh_system(build_constraints(40, 8)),  # r < n/2
            lambda: fresh_system(build_constraints(40, 30)),  # r >= n/2
            lambda: planted_rank_system(np.random.default_rng(12), 40, 24, 15),
        ],
        ids=["thin-q1", "thin-q2", "rank-deficient"],
    )
    def test_built_once_per_basis_and_bit_identical(self, monkeypatch, make_cs):
        cs = make_cs()
        basis = factor(cs)
        problem = get_problem("rosenbrock", n=cs.n)
        rng = np.random.default_rng(13)
        points = [rng.standard_normal(cs.n) for _ in range(3)]
        expected = [fd_hessian_by_columns(problem.grad, basis, x) for x in points]

        calls = []
        original = project_gradient

        def spy(*args):
            calls.append(1)
            return original(*args)

        # The hessian module projects through its own name; the projector is
        # built through the projection module's.
        monkeypatch.setattr(eqflow.hessian, "project_gradient", spy)
        monkeypatch.setattr(eqflow.projection, "project_gradient", spy)
        counts = []
        for x, want in zip(points, expected):
            before = len(calls)
            got = fd_projected_hessian(problem.grad, basis, x)
            counts.append(len(calls) - before)
            assert np.array_equal(got, want)
            # solve's norm sums in memory order, so the layout must match too.
            assert float(np.linalg.norm(got)) == float(np.linalg.norm(want))
        assert counts == [2, 1, 1]

    def test_kept_array_is_read_only_and_matches_projection(self):
        basis = factor(fresh_system(build_constraints(12)))
        p = tangent_projector(basis)
        assert tangent_projector(basis) is p
        assert p.flags.f_contiguous
        assert np.array_equal(p, project_gradient(basis, np.eye(12)))
        with pytest.raises(ValueError):
            p[0, 0] = 1.0

    def test_threads_racing_to_build_all_get_the_same_values(self):
        # Threads that find no projector may each build one; the values are
        # the same bit for bit, and the last one stored is kept.
        basis = factor(fresh_system(build_constraints(60, 20)))
        reference = project_gradient(basis, np.eye(60))
        start = threading.Barrier(6)
        results = []

        def build():
            start.wait(timeout=10)
            results.append(tangent_projector(basis))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 6
        assert all(np.array_equal(p, reference) for p in results)
        assert any(tangent_projector(basis) is p for p in results)

    def test_replaced_system_gets_its_own_projector(self):
        cs = fresh_system(build_constraints(12))
        p = tangent_projector(factor(cs))
        other = dataclasses.replace(cs)
        q = tangent_projector(factor(other))
        assert q is not p
        assert np.array_equal(q, p)
        assert tangent_projector(factor(cs)) is p


class TestShiftedFactorization:
    def test_zero_curvature_is_exact_scaling(self):
        n = 5
        fac = build_and_factor(np.zeros((n, n)), shift=1.0, dt=0.1)  # shift/dt = 10
        rhs = np.array([1.0, -2.0, 3.0, 0.0, 5.0])
        d = solve_shifted(fac, rhs)
        assert np.array_equal(d, rhs / 10.0)

    def test_residuals_small_over_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 25))
            raw = rng.standard_normal((n, n))
            mat = raw + raw.T
            shift = float(rng.uniform(1e-6, 1.0))
            dt = float(rng.uniform(1e-6, 1.0))
            b = mat + (shift / dt) * np.eye(n)
            if np.min(np.abs(np.linalg.eigvalsh((b + b.T) / 2))) < 1e-8:
                continue  # skip accidentally singular draws
            fac = build_and_factor(mat, shift=shift, dt=dt)
            rhs = rng.standard_normal(n)
            d = solve_shifted(fac, rhs)
            res = np.linalg.norm(b @ d - rhs)
            assert res <= 1e-8 * max(1.0, np.linalg.norm(rhs), np.linalg.norm(d))

    def test_indefinite_curvature_is_factorizable(self):
        mat = np.diag([-5.0, 0.0, 3.0])
        fac = build_and_factor(mat, shift=1.0, dt=1.0)  # B = diag(-4, 1, 4)
        d = solve_shifted(fac, np.array([4.0, 1.0, 4.0]))
        assert np.allclose(d, [-1.0, 1.0, 1.0], atol=1e-12)

    def test_singular_shift_raises(self):
        mat = -np.eye(3)
        with pytest.raises(SingularFactor):
            build_and_factor(mat, shift=1.0, dt=1.0)  # B = 0

    def test_nonpositive_parameters_rejected(self):
        with pytest.raises(ValueError):
            build_and_factor(np.eye(2), shift=0.0, dt=1.0)
        with pytest.raises(ValueError):
            build_and_factor(np.eye(2), shift=1.0, dt=-0.5)

    def test_zero_rhs_gives_zero_direction(self):
        mat = np.array([[2.0, 1.0], [1.0, 2.0]])
        fac = build_and_factor(mat, shift=1e-4, dt=1e-2)
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
            fac = build_and_factor(mat, shift=1.0, dt=dt)
            pg = rng.standard_normal(n)
            d = solve_shifted(fac, -pg)
            assert float(pg @ d) < 0.0

    def test_residuals_small_for_nonsymmetric_curvature(self):
        # The factored matrix is the raw, unsymmetrized H; the solve must be
        # backward stable for any nonsymmetric draw up to the stiff size.
        rng = np.random.default_rng(10)
        for n in [2, 300] + [int(k) for k in rng.integers(2, 301, size=40)]:
            mat = rng.standard_normal((n, n)) / np.sqrt(n)
            shift = float(rng.uniform(1e-6, 1.0))
            dt = float(rng.uniform(1e-6, 1.0))
            fac = build_and_factor(mat, shift=shift, dt=dt)
            rhs = rng.standard_normal(n)
            d = solve_shifted(fac, rhs)
            res = np.linalg.norm(mat @ d + (shift / dt) * d - rhs)
            assert res <= 1e-12 * max(1.0, np.linalg.norm(rhs), np.linalg.norm(d))

    def test_exact_zero_pivot_raises(self):
        # B = [[0, 1], [0, 1]] has a zero first column, so elimination meets an
        # exact zero pivot although ||B|| is not zero.
        mat = np.array([[-1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(SingularFactor):
            build_and_factor(mat, shift=1.0, dt=1.0)

    def test_factor_holds_pivoted_lu_of_shifted_matrix(self):
        rng = np.random.default_rng(11)
        n = 6
        mat = rng.standard_normal((n, n))
        original = mat.copy()
        lu, piv = build_and_factor(mat, shift=1e-4, dt=0.25)
        lower = np.tril(lu, -1) + np.eye(n)
        upper = np.triu(lu)
        permuted = mat + 4e-4 * np.eye(n)
        for i, p in enumerate(piv):  # LAPACK row interchanges, in order
            permuted[[i, p]] = permuted[[p, i]]
        assert np.allclose(lower @ upper, permuted, rtol=0.0, atol=1e-13)
        assert np.array_equal(mat, original)  # the input is left untouched

    def test_memory_order_of_the_input_changes_nothing(self):
        rng = np.random.default_rng(14)
        for n in (3, 40, 300):
            mat = rng.standard_normal((n, n))
            fortran = np.asfortranarray(mat)
            c_copy, f_copy = mat.copy(), fortran.copy(order="A")
            c_lu, c_piv = build_and_factor(mat, shift=1e-4, dt=0.25)
            f_lu, f_piv = build_and_factor(fortran, shift=1e-4, dt=0.25)
            assert np.array_equal(c_lu, f_lu)
            assert np.array_equal(c_piv, f_piv)
            # Bit for bit the factors of the explicitly shifted matrix: adding
            # zero off the diagonal is exact.
            shifted = np.asfortranarray(mat + 4e-4 * np.eye(n))
            lu, piv, _ = scipy.linalg.lapack.dgetrf(shifted)
            assert np.array_equal(f_lu, lu) and np.array_equal(f_piv, piv)
            assert np.array_equal(mat, c_copy) and mat.flags.c_contiguous
            assert np.array_equal(fortran, f_copy) and fortran.flags.f_contiguous
