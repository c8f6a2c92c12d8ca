"""Constraint factorization, tangent-space projection, and feasibility
restoration."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg

from eqflow import (
    ConstraintSystem,
    DimensionError,
    InconsistentConstraints,
    RankZero,
    build_constraints,
    factor,
    get_problem,
    project_gradient,
    restore_feasibility,
    solve,
)
from helpers import (
    assert_reports_equal,
    dense_projector,
    random_constraints,
    rank_deficient_constraints,
    svd_rank,
)


def hand_line():
    """Single constraint 2*x0 + x1 = 2."""
    return factor(ConstraintSystem(a=np.array([[2.0, 1.0]]), b=np.array([2.0])))


class TestHandWorkedLine:
    def test_rank_and_shapes(self):
        basis = hand_line()
        assert basis.rank == 1
        assert basis.q1.shape == (2, 1)
        assert basis.q2.shape == (2, 1)

    def test_normal_direction(self):
        basis = hand_line()
        expected = np.array([2.0, 1.0]) / np.sqrt(5.0)
        # Column sign is not pinned down by the factorization.
        assert min(
            np.linalg.norm(basis.q1[:, 0] - expected),
            np.linalg.norm(basis.q1[:, 0] + expected),
        ) < 1e-14

    def test_projected_gradient_value(self):
        basis = hand_line()
        pg = project_gradient(basis, np.array([1.0, 0.0]))
        assert np.allclose(pg, [0.2, -0.4], atol=1e-14)

    def test_restore_nearest_point(self):
        basis = hand_line()
        x = restore_feasibility(basis, np.array([1.0, 1.0]))
        assert np.allclose(x, [0.6, 0.8], atol=1e-14)

    def test_restore_origin_gives_least_norm_solution(self):
        basis = hand_line()
        x = restore_feasibility(basis, np.zeros(2))
        assert np.allclose(x, [0.8, 0.4], atol=1e-14)

    def test_residuals_at_feasible_stationary_point(self):
        basis = hand_line()
        x = restore_feasibility(basis, np.zeros(2))
        cs = ConstraintSystem(a=np.array([[2.0, 1.0]]), b=np.array([2.0]))
        assert np.max(np.abs(cs.a @ x - cs.b)) < 1e-14
        # 2x, the gradient of ||x||^2, is normal to the constraint at the
        # least-norm point.
        assert np.max(np.abs(project_gradient(basis, 2.0 * x))) < 1e-13


class TestFullRankSquare:
    def test_identity_constraints_pin_every_coordinate(self):
        n = 5
        cs = ConstraintSystem(a=np.eye(n), b=np.arange(1.0, n + 1.0))
        basis = factor(cs)
        assert basis.rank == n
        assert basis.q2.shape == (n, 0)
        p = dense_projector(basis)
        assert np.linalg.norm(p) < 1e-12
        x = restore_feasibility(basis, np.zeros(n))
        assert np.allclose(x, cs.b, atol=1e-12)


class TestProjectorAlgebra:
    def test_idempotent_symmetric_annihilating(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            cs = random_constraints(rng)
            basis = factor(cs)
            p = dense_projector(basis)
            scale = max(1.0, float(np.linalg.norm(p)))
            assert np.linalg.norm(p @ p - p) <= 1e-10 * scale
            assert np.linalg.norm(p.T - p) <= 1e-10 * scale
            assert (
                np.linalg.norm(cs.a @ p)
                <= 1e-10 * max(1.0, float(np.linalg.norm(cs.a)))
            )

    def test_matches_pseudoinverse_projector(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            cs = random_constraints(rng, n_max=15)
            basis = factor(cs)
            p = dense_projector(basis)
            p_ref = np.eye(cs.n) - np.linalg.pinv(cs.a) @ cs.a
            assert np.linalg.norm(p - p_ref) < 1e-10

    def test_matrix_rhs_matches_columnwise(self):
        rng = np.random.default_rng(13)
        cs = random_constraints(rng, n_max=12)
        basis = factor(cs)
        block = rng.standard_normal((cs.n, 4))
        projected = project_gradient(basis, block)
        for j in range(4):
            col = project_gradient(basis, block[:, j])
            assert np.allclose(projected[:, j], col, atol=1e-13, rtol=0.0)


class TestRankDetection:
    def test_planted_deficiency_matches_svd(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            cs, planted = rank_deficient_constraints(rng)
            basis = factor(cs)
            assert basis.rank == planted == svd_rank(cs.a)

    def test_duplicated_rows_consistent(self):
        a = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.0, 1.0, 0.0]])
        b = np.array([6.0, 6.0, 1.0])
        basis = factor(ConstraintSystem(a=a, b=b))
        assert basis.rank == 2
        x = restore_feasibility(basis, np.zeros(3))
        assert np.linalg.norm(a @ x - b) < 1e-12

    @pytest.mark.xfail(strict=True, raises=scipy.linalg.LinAlgWarning, reason=(
        "factor anchors b_r by the normal equations R1 R1^T b_r = R1 b, which "
        "square the condition number (rcond 1.7e-19 here); a triangular solve "
        "with R1 avoids that but moves most catalog trajectories"
    ))
    def test_badly_scaled_rows_factor_without_warning(self):
        cs = build_constraints(20)
        scale = np.where(np.arange(cs.m) % 2 == 0, 1e4, 1e-4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            factor(ConstraintSystem(a=scale[:, None] * cs.a, b=scale * cs.b))


class TestRestoration:
    def test_feasible_point_is_fixed(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            cs = random_constraints(rng, n_max=20)
            basis = factor(cs)
            x = restore_feasibility(basis, rng.standard_normal(cs.n))
            again = restore_feasibility(basis, x)
            assert np.linalg.norm(again - x) <= 1e-12 * max(1.0, np.linalg.norm(x))

    def test_displacement_is_normal_to_tangent_space(self):
        rng = np.random.default_rng(32)
        cs = random_constraints(rng, n_max=20)
        basis = factor(cs)
        z = rng.standard_normal(cs.n)
        x = restore_feasibility(basis, z)
        assert np.linalg.norm(project_gradient(basis, x - z)) < 1e-10


class TestErrors:
    def test_rank_zero(self):
        with pytest.raises(RankZero):
            factor(ConstraintSystem(a=np.zeros((2, 4)), b=np.zeros(2)))
        # Finite entries whose row norm overflows: R's diagonal starts with
        # inf, and no entry is above inf times the rank tolerance.
        with pytest.raises(RankZero):
            factor(ConstraintSystem(a=np.full((1, 2), 1.7e308), b=np.ones(1)))

    def test_inconsistent_right_hand_side(self):
        a = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
        with pytest.raises(InconsistentConstraints):
            factor(ConstraintSystem(a=a, b=np.array([1.0, 3.0])))

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            ConstraintSystem(a=np.ones(3), b=np.ones(1))
        with pytest.raises(DimensionError):
            ConstraintSystem(a=np.ones((2, 3)), b=np.ones(3))
        with pytest.raises(DimensionError):
            ConstraintSystem(a=np.ones((4, 3)), b=np.ones(4))  # more rows than cols
        with pytest.raises(DimensionError):
            ConstraintSystem(a=np.array([[np.nan, 1.0]]), b=np.ones(1))


@pytest.fixture
def qr_calls(monkeypatch):
    """Counts the calls of ``scipy.linalg.qr``, which :func:`factor` makes
    once per factorization."""
    calls = []
    original = scipy.linalg.qr

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "qr", counted)
    return calls


class TestKeptFactorization:
    def test_second_call_returns_the_same_basis(self, qr_calls):
        cs = random_constraints(np.random.default_rng(41))
        assert factor(cs) is factor(cs)
        assert len(qr_calls) == 1

    def test_second_solve_does_not_factor(self, qr_calls):
        base = get_problem("rosenbrock", n=20)
        problem = dataclasses.replace(base, cs=ConstraintSystem(a=base.cs.a, b=base.cs.b))
        first = solve(problem)
        assert len(qr_calls) == 1
        second = solve(problem)
        assert len(qr_calls) == 1
        assert_reports_equal(first, second)

    def test_new_systems_get_their_own_factorization(self, qr_calls):
        cs = random_constraints(np.random.default_rng(42))
        basis = factor(cs)
        replaced = dataclasses.replace(cs)
        equal_data = ConstraintSystem(a=cs.a, b=cs.b)
        assert factor(replaced) is not basis
        assert factor(equal_data) is not basis
        assert len(qr_calls) == 3
        assert np.array_equal(factor(equal_data).q1, basis.q1)

    @pytest.mark.parametrize("raises, cs", [
        (RankZero, ConstraintSystem(a=np.zeros((2, 4)), b=np.zeros(2))),
        (InconsistentConstraints, ConstraintSystem(
            a=np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]), b=np.array([1.0, 3.0]))),
    ])
    def test_a_system_that_raises_raises_on_every_call(self, qr_calls, raises, cs):
        for calls in (1, 2, 3):
            with pytest.raises(raises):
                factor(cs)
            assert len(qr_calls) == calls


class TestImmutability:
    def test_system_and_basis_arrays_are_read_only(self):
        cs = random_constraints(np.random.default_rng(43))
        basis = factor(cs)
        for array in (cs.a, cs.b, basis.q1, basis.q2, basis.b_r):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                array += 1.0

    def test_callers_arrays_stay_writable_and_unchanged(self):
        a = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        b = np.array([2.0, 1.0])
        a_before, b_before = a.copy(), b.copy()
        cs = ConstraintSystem(a=a, b=b)
        factor(cs)
        assert a.flags.writeable and b.flags.writeable
        assert np.array_equal(a, a_before) and np.array_equal(b, b_before)
        a[0, 0] = b[0] = 5.0
        assert cs.a[0, 0] == 2.0 and cs.b[0] == 2.0
