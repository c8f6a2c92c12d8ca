"""Constraint factorization, tangent-space projection, and feasibility
restoration."""

import dataclasses
import tracemalloc
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
    count_factorizations,
    dense_projector,
    planted_rank_system,
    random_constraints,
    rank_deficient_constraints,
    svd_rank,
)


def hand_line():
    """Single constraint 2*x0 + x1 = 2."""
    return factor(ConstraintSystem(a=np.array([[2.0, 1.0]]), b=np.array([2.0])))


class TestHandWorkedLine:
    def test_rank_and_shapes(self):
        # A tie 2r = n: the basis holds Q2 and x_p, and no Q1.
        basis = hand_line()
        assert basis.rank == 1
        assert basis.q1 is None
        assert basis.q2.shape == (2, 1)
        assert basis.x_p.shape == (2,)

    def test_normal_direction(self):
        # Q2 spans the line's direction, orthogonal to its normal (2, 1).
        basis = hand_line()
        normal = np.array([2.0, 1.0]) / np.sqrt(5.0)
        expected = np.array([1.0, -2.0]) / np.sqrt(5.0)
        assert abs(normal @ basis.q2[:, 0]) < 1e-15
        # Column sign is not pinned down by the factorization.
        assert min(
            np.linalg.norm(basis.q2[:, 0] - expected),
            np.linalg.norm(basis.q2[:, 0] + expected),
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

    @pytest.mark.parametrize("n, m", [
        (20, 7),
        (20, 13),
        (100, 30),
        (20, 10),
    ])
    def test_badly_scaled_rows_factor_without_warning(self, n, m):
        shared = build_constraints(n, m)
        scale = np.where(np.arange(m) % 2 == 0, 1e4, 1e-4)
        cs = ConstraintSystem(a=scale[:, None] * shared.a, b=scale * shared.b)
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            basis = factor(cs)
        x = restore_feasibility(basis, np.ones(n))
        assert np.linalg.norm(cs.a @ x - cs.b) <= 1e-13 * np.linalg.norm(cs.b)


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
    return count_factorizations(monkeypatch)


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


def held_arrays(basis):
    """The arrays a basis holds: ``None`` marks a block it does not."""
    return [a for a in (basis.q1, basis.q2, basis.b_r, basis.x_p) if a is not None]


def held_floats(basis):
    """Floats in the memory behind the arrays a basis holds, each buffer once."""
    owners = [a if a.base is None else a.base for a in held_arrays(basis)]
    return sum({id(o): o.size for o in owners}.values())


# (n, m, rank) of a generated system A = U V, so of rank r (almost surely).
REGIMES = {
    "2r<n": (30, 5, 5),
    "2r=n": (30, 15, 15),
    "2r>n": (30, 22, 22),
    "pinned": (12, 12, 12),
    "deficient-2r<n": (30, 14, 6),
    "deficient-2r=n": (30, 24, 15),
    "deficient-2r>n": (30, 24, 19),
}


def regime_system(regime):
    n, m, r = REGIMES[regime]
    cs = planted_rank_system(np.random.default_rng([44, n, m, r]), n, m, r)
    assert factor(cs).rank == r
    return cs


class TestRegimes:
    """One basis per regime of ``2r`` against ``n``, each holding only the
    blocks that projection and restoration read."""

    @pytest.mark.parametrize("regime", REGIMES)
    def test_projection_and_restoration_match_svd(self, regime):
        cs = regime_system(regime)
        basis = factor(cs)
        null = np.linalg.svd(cs.a)[2][basis.rank:].T
        x_min_norm = np.linalg.pinv(cs.a) @ cs.b
        rng = np.random.default_rng(45)
        for _ in range(3):
            v = rng.standard_normal(cs.n)
            assert np.linalg.norm(project_gradient(basis, v) - null @ (null.T @ v)) <= (
                1e-10 * np.linalg.norm(v)
            )
            want = null @ (null.T @ v) + x_min_norm
            got = restore_feasibility(basis, v)
            assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))
            # One formula on either side of n/2, bit for bit.
            assert np.array_equal(got, project_gradient(basis, v) + basis.x_p)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_projection_equals_its_matmul_form_bit_for_bit(self, regime):
        # project_gradient makes its products with ndarray.dot, one BLAS call
        # each, and must give what the same products with @ give.
        basis = factor(regime_system(regime))
        rng = np.random.default_rng(46)
        for g in (rng.standard_normal(basis.n), rng.standard_normal((basis.n, 3))):
            if basis.q1 is not None:
                want = g - basis.q1 @ (basis.q1.T @ g)
            else:
                want = basis.q2 @ (basis.q2.T @ g)
            assert np.array_equal(project_gradient(basis, g), want)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_holds_no_more_than_a_solve_reads(self, regime):
        basis = factor(regime_system(regime))
        n, r = basis.n, basis.rank
        assert (basis.q1 is None) == (2 * r >= n)
        assert (basis.q2 is None) == (2 * r < n)
        assert basis.x_p is not None
        # The thinner block, x_p beside it, and b_r, ties included: no
        # n-by-n array.
        assert held_floats(basis) <= n * min(r, n - r) + n + r

    def test_anchor_per_regime(self):
        # Full-rank systems off the tie solve R11^T b_r = b[perm] with the
        # triangle dgeqp3 left; ties and rank-deficient systems keep the
        # least-squares normal equations, bit for bit.
        for regime in REGIMES:
            cs = regime_system(regime)
            basis = factor(cs)
            _, r_full, perm = scipy.linalg.qr(cs.a.T, pivoting=True)
            r = basis.rank
            r1 = r_full[:r]
            want = scipy.linalg.solve(r1 @ r1.T, r1 @ cs.b[perm], assume_a="pos")
            if r < cs.m or 2 * r == cs.n:
                assert np.array_equal(basis.b_r, want), regime
                continue
            assert np.linalg.norm(basis.b_r - want) <= 1e-12 * np.linalg.norm(want), regime
            triangular, info = scipy.linalg.lapack.dtrtrs(r1, cs.b[perm], trans=1)
            assert info == 0
            assert np.array_equal(basis.b_r, triangular), regime

    @pytest.mark.parametrize("m", [666, 875])
    def test_factor_forms_no_normal_equations_off_the_tie(self, m):
        # Beside the n-by-m copy of A^T that dgeqp3 factors, a fresh factor
        # allocates the basis it keeps, n * (n - r + 1) floats here, and
        # workspace.  The normal equations' triangle copy and Gram product,
        # each r-by-r, would take the peak past this bound (19.1 MiB at
        # m = 875 against 9.5).
        shared = build_constraints(1000, m)
        cs = ConstraintSystem(a=shared.a, b=shared.b)
        n = cs.n
        tracemalloc.start()
        try:
            r = factor(cs).rank
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r == m
        assert peak < 1.25 * (n * m + n * (n - r + 1)) * 8


class TestImmutability:
    def test_system_and_basis_arrays_are_read_only(self):
        systems = [random_constraints(np.random.default_rng(43))]
        systems += [regime_system(regime) for regime in REGIMES]
        for cs in systems:
            for array in (cs.a, cs.b, *held_arrays(factor(cs))):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 1.0
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
