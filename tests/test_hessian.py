"""Finite-difference curvature in the tangent basis, and the shifted solve."""

import dataclasses
import sys
import threading

import numpy as np
import pytest
import scipy.linalg.lapack

import eqflow.hessian
import eqflow.solver as solver_module
from eqflow import (
    ConstraintSystem,
    SolverConfig,
    baseline_sqp,
    factor,
    get_problem,
    project_gradient,
    solve,
)
from eqflow.hessian import build_and_factor, fd_projected_hessian, solve_shifted
from eqflow.problems import build_constraints
from eqflow.projection import tangent_basis
from helpers import dense_projector, planted_rank_system, rosenbrock_dense_hessian


def quadratic_grad(q_mat, c):
    return lambda x: q_mat @ x + c


def make_basis(n, m=None):
    cs = build_constraints(n, m)
    return cs, factor(cs)


def reduced(grad, basis, x):
    """The reduced curvature at ``x`` and the tangent basis it is held in."""
    q2 = tangent_basis(basis)
    return fd_projected_hessian(grad, q2, x, grad(x)), q2


def eigen(mat):
    """The curvature ``(W, lam)`` of a symmetric matrix, held in the full
    space: ``W`` is its orthogonal eigenvector matrix."""
    lam, v = np.linalg.eigh(mat)
    return v, lam


def fresh_system(cs):
    """A new system with the data of ``cs``, so nothing is kept on it yet."""
    return ConstraintSystem(a=cs.a, b=cs.b)


# (n, m) of a catalog-family system on each side of the tie 2r = n.
SIDES = {"2r<n": (40, 8), "2r=n": (40, 20), "2r>n": (40, 30)}


class TestExactOnQuadratics:
    def test_matches_projected_matrix(self):
        rng = np.random.default_rng(5)
        for n in (4, 10, 24, 50):
            for m in (n // 4 or 1, n // 2, 3 * n // 4):
                cs, basis = make_basis(n, m)
                q_raw = rng.standard_normal((n, n))
                q_mat = q_raw + q_raw.T
                grad = quadratic_grad(q_mat, rng.standard_normal(n))
                hr, q2 = reduced(grad, basis, rng.standard_normal(n))
                p = dense_projector(basis)
                target = p @ q_mat @ p
                err = np.linalg.norm(q2 @ hr @ q2.T - target)
                assert err <= 1e-6 * max(1.0, np.linalg.norm(target)), (n, m)

    def test_two_dim_quadratic_hand_value(self):
        # f(u,v) = (u + 2v - 7)^2 + (2u + v - 5)^2 has constant curvature
        # [[10, 8], [8, 10]]; one tangent direction q, so Hr = q^T H q.
        problem = get_problem("booth")
        hr, q2 = reduced(problem.grad, factor(problem.cs), problem.x0)
        assert hr.shape == (1, 1)
        q = q2[:, 0]
        assert abs(hr[0, 0] - q @ np.array([[10.0, 8.0], [8.0, 10.0]]) @ q) < 1e-6

    def test_linear_objective_gives_zero_matrix(self):
        _, basis = make_basis(8)
        c = np.arange(1.0, 9.0)
        hr = fd_projected_hessian(lambda x: c, tangent_basis(basis), np.ones(8), c)
        assert not hr.any()


class TestStructuralInvariants:
    def test_asymmetry_bounded_by_fd_error(self):
        # Hr is the symmetric part of Q2^T G, so its asymmetry is zero.
        rng = np.random.default_rng(6)
        for n in (6, 20):
            _, basis = make_basis(n)
            hr, _ = reduced(get_problem("rosenbrock", n=n).grad, basis, rng.standard_normal(n))
            assert np.array_equal(hr, hr.T)

    def test_columns_stay_in_null_space(self):
        # d = W (W^T rhs / (shift/dt + lam)) combines the columns of
        # W = Q2 V, so it lies in null(A) whatever the objective and the
        # shift, on both sides of the tie and at it.
        for n, m in SIDES.values():
            cs, basis = make_basis(n, m)
            problem = get_problem("levy", n=n)
            x = np.random.default_rng(7).standard_normal(n)
            hr, q2 = reduced(problem.grad, basis, x)
            lam, v = np.linalg.eigh(hr)
            pg = project_gradient(basis, problem.grad(x))
            norm_a = float(np.max(np.sum(np.abs(cs.a), axis=1)))
            for dt in (1e-8, 1e-3, 1.0, 1e3):
                d = solve_shifted(build_and_factor((q2 @ v, lam), 1e-4, dt), -pg)
                assert np.max(np.abs(cs.a @ d)) <= 1e-13 * norm_a * np.max(np.abs(d)), (m, dt)

    def test_row_space_projected_for_quadratics(self):
        # Expanded as Q2 Hr Q2^T, the curvature annihilates the row space of
        # A on both sides: Q2^T A^T = 0 up to roundoff.
        n = 10
        cs, basis = make_basis(n)
        rng = np.random.default_rng(17)
        raw = rng.standard_normal((n, n))
        grad = quadratic_grad(raw + raw.T, rng.standard_normal(n))
        hr, q2 = reduced(grad, basis, rng.standard_normal(n))
        full = q2 @ hr @ q2.T
        scale = max(1.0, float(np.linalg.norm(full)))
        assert np.max(np.abs(full @ cs.a.T)) < 1e-12 * scale
        assert np.max(np.abs(cs.a @ full)) < 1e-12 * scale

    def test_probe_count_and_order(self):
        for n, m in SIDES.values():
            _, basis = make_basis(n, m)
            q2 = tangent_basis(basis)
            seen = []

            def grad(x):
                seen.append(np.array(x))
                return 2.0 * x

            x0 = np.linspace(-1.0, 1.0, n)
            fd_projected_hessian(grad, q2, x0, 2.0 * x0)
            # Exactly the n - r probe points, in column order: the base
            # point's gradient is given, so it is not evaluated.
            assert len(seen) == n - basis.rank == q2.shape[1]
            for j, point in enumerate(seen):
                assert np.array_equal(point, x0 + 1e-6 * q2[:, j])

    def test_halving_step_halves_error(self, monkeypatch):
        # Second-order objective curvature error of one-sided differences
        # scales linearly in the step; halving it should halve the error.
        n = 6
        _, basis = make_basis(n)
        problem = get_problem("rosenbrock", n=n)
        x = problem.x0 + 0.1
        q2 = tangent_basis(basis)
        target = q2.T @ rosenbrock_dense_hessian(x) @ q2
        errs = []
        for eps in (1e-4, 5e-5):
            monkeypatch.setattr(eqflow.hessian, "_FD_EPS", eps)
            hr, _ = reduced(problem.grad, basis, x)
            errs.append(np.linalg.norm(hr - target))
        ratio = errs[0] / errs[1]
        assert 1.4 <= ratio <= 2.6


class TestTangentBasis:
    @pytest.mark.parametrize(
        "make_cs",
        [
            lambda: fresh_system(build_constraints(40, 8)),
            lambda: planted_rank_system(np.random.default_rng(12), 40, 24, 15),
        ],
        ids=["2r<n", "rank-deficient"],
    )
    def test_built_once_per_basis(self, monkeypatch, make_cs):
        cs = make_cs()
        basis = factor(cs)
        assert basis.q2 is None
        calls = []
        original = scipy.linalg.lapack.dgeqrf

        def counted(*args, **kwargs):
            if kwargs.get("lwork") != -1:
                calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dgeqrf", counted)
        q2 = tangent_basis(basis)
        assert tangent_basis(basis) is q2 and len(calls) == 1
        n, r = cs.n, basis.rank
        assert q2.shape == (n, n - r)
        assert q2.flags.f_contiguous and not q2.flags.writeable
        assert np.linalg.norm(q2.T @ q2 - np.eye(n - r)) <= 1e-13 * n
        assert np.linalg.norm(cs.a @ q2) <= 1e-12 * np.linalg.norm(cs.a)
        assert np.linalg.norm(q2 @ q2.T - dense_projector(basis)) <= 1e-13 * n

    def test_kept_array_is_read_only_and_matches_projection(self):
        basis = factor(fresh_system(build_constraints(12, 3)))
        q2 = tangent_basis(basis)
        assert q2.flags.f_contiguous and not q2.flags.writeable
        with pytest.raises(ValueError):
            q2[0, 0] = 1.0
        assert np.allclose(q2 @ q2.T, dense_projector(basis), rtol=0.0, atol=1e-14)

    def test_held_block_is_returned_as_it_is(self):
        for m in (20, 30):  # the tie and 2r > n
            basis = factor(fresh_system(build_constraints(40, m)))
            assert tangent_basis(basis) is basis.q2

    def test_shared_by_the_curvature_phase_and_sqp(self, monkeypatch):
        # A 2r < n system: the first solve that probes curvature forms Q2,
        # and baseline_sqp then runs on the same array.
        problem = dataclasses.replace(
            get_problem("sum_squares", n=30, m=5), cs=fresh_system(build_constraints(30, 5))
        )
        formed = []
        original = solver_module.tangent_basis

        def spy(basis):
            formed.append(original(basis))
            return formed[-1]

        monkeypatch.setattr(solver_module, "tangent_basis", spy)
        report = solve(problem, SolverConfig(dt0=1e-4))
        assert report.hessian_evals >= 1
        baseline_sqp(problem)
        assert len(formed) == report.hessian_evals + 1
        assert all(q2 is formed[0] for q2 in formed)
        assert getattr(factor(problem.cs), "_q2") is formed[0]

    def test_threads_racing_to_build_all_get_the_same_values(self):
        # Threads that find no Q2 may each build one; the values are the same
        # bit for bit, and the last one stored is kept.
        cs = build_constraints(60, 20)
        reference = tangent_basis(factor(fresh_system(cs)))
        basis = factor(fresh_system(cs))
        start = threading.Barrier(6)
        results = []

        def build():
            start.wait(timeout=10)
            results.append(tangent_basis(basis))

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
        assert all(np.array_equal(q2, reference) for q2 in results)
        assert any(tangent_basis(basis) is q2 for q2 in results)

    def test_replaced_system_gets_its_own_basis(self):
        cs = fresh_system(build_constraints(12, 3))
        q2 = tangent_basis(factor(cs))
        other = tangent_basis(factor(dataclasses.replace(cs)))
        assert other is not q2
        assert np.array_equal(other, q2)
        assert tangent_basis(factor(cs)) is q2


class TestShiftedFactorization:
    def test_zero_curvature_is_exact_scaling(self):
        n = 5
        shifted = build_and_factor((np.eye(n), np.zeros(n)), shift=1.0, dt=0.1)
        rhs = np.array([1.0, -2.0, 3.0, 0.0, 5.0])
        assert np.array_equal(solve_shifted(shifted, rhs), rhs / 10.0)

    def test_residuals_small_over_random_instances(self):
        # The system solved is (shift/dt) I + V max(lam, 0) V^T, positive
        # definite for every symmetric curvature, indefinite ones included.
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 25))
            raw = rng.standard_normal((n, n))
            mat = raw + raw.T
            shift = float(rng.uniform(1e-6, 1.0))
            dt = float(rng.uniform(1e-6, 1.0))
            w, lam = eigen(mat)
            b = (w * np.maximum(lam, 0.0)) @ w.T + (shift / dt) * np.eye(n)
            rhs = rng.standard_normal(n)
            d = solve_shifted(build_and_factor((w, lam), shift=shift, dt=dt), rhs)
            res = np.linalg.norm(b @ d - rhs)
            assert res <= 1e-8 * max(1.0, np.linalg.norm(rhs), np.linalg.norm(d))

    def test_shifted_values_are_the_clipped_eigenvalues_plus_the_shift(self):
        rng = np.random.default_rng(10)
        w = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        lam = np.array([-7.0, -1e-300, -0.0, 0.0, 0.5, 3.0])
        out_w, shifted = build_and_factor((w, lam), shift=1e-4, dt=1e-3)
        assert out_w is w
        assert np.array_equal(shifted, 1e-4 / 1e-3 + np.maximum(lam, 0.0))
        assert np.all(shifted >= 1e-4 / 1e-3)

    def test_indefinite_curvature_is_clipped(self):
        shifted = build_and_factor(eigen(np.diag([-5.0, 0.0, 3.0])), shift=1.0, dt=1.0)
        d = solve_shifted(shifted, np.array([4.0, 1.0, 4.0]))  # B = diag(1, 1, 4)
        assert np.allclose(d, [4.0, 1.0, 1.0], atol=1e-12)

    def test_shift_that_cancels_the_curvature_is_solved(self):
        # -I + (shift/dt) I is zero, and diag(-1 + 1e-15, 0) nearly so; with
        # the clip both are the identity, and the solve returns rhs.
        rhs = np.array([2.0, -3.0, 5.0])
        assert np.array_equal(
            solve_shifted(build_and_factor((np.eye(3), -np.ones(3)), 1.0, 1.0), rhs), rhs
        )
        shifted = build_and_factor((np.eye(2), np.array([-1.0 + 1e-15, 0.0])), 1.0, 1.0)
        assert np.array_equal(shifted[1], [1.0, 1.0])

    def test_zero_and_negative_eigenvalues_are_solved(self):
        # B = diag(0, 1) before the clip: its zero pivot and the negative
        # eigenvalue under it both become the shift.
        shifted = build_and_factor((np.eye(2), np.array([-1.0, 0.0])), shift=0.5, dt=1.0)
        assert np.array_equal(shifted[1], [0.5, 0.5])
        assert np.array_equal(solve_shifted(shifted, np.array([1.0, -2.0])), [2.0, -4.0])

    def test_zero_rhs_gives_zero_direction(self):
        shifted = build_and_factor(eigen(np.array([[2.0, 1.0], [1.0, 2.0]])), 1e-4, 1e-2)
        assert np.array_equal(solve_shifted(shifted, np.zeros(2)), np.zeros(2))

    def test_descent_direction_under_any_shift(self):
        # The clipped B is positive definite for every dt, so the solved
        # direction makes an obtuse angle with the gradient, also where the
        # shift is far below the largest negative eigenvalue.
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            raw = rng.standard_normal((n, n))
            mat = raw + raw.T
            dt = float(10.0 ** rng.uniform(-3.0, 3.0))
            pg = rng.standard_normal(n)
            d = solve_shifted(build_and_factor(eigen(mat), shift=1.0, dt=dt), -pg)
            assert float(pg @ d) < 0.0

    def test_curvature_is_left_unchanged(self):
        w, lam = eigen(np.diag([1.0, 2.0]))
        w_copy, lam_copy = w.copy(), lam.copy()
        build_and_factor((w, lam), shift=1e-4, dt=0.25)
        assert np.array_equal(w, w_copy) and np.array_equal(lam, lam_copy)
