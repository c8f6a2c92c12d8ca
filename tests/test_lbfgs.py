"""Memory-one quasi-Newton pair: forward model, closed-form inverse, spectrum."""

import numpy as np
import pytest

from eqflow.lbfgs import LbfgsPair, apply_inverse, make_pair, zero_pair
from helpers import dense_lbfgs_model as dense_model
from helpers import random_usable_pair


class TestUsability:
    def test_zero_step_not_usable(self):
        assert not make_pair(np.zeros(3), np.ones(3)).usable

    def test_orthogonal_pair_not_usable(self):
        assert not make_pair(np.array([1.0, 0.0]), np.array([0.0, 1.0])).usable

    def test_negative_curvature_is_usable(self):
        assert make_pair(np.array([1.0, 0.0]), np.array([-1.0, 1.0])).usable

    def test_curvature_floor_is_relative_to_step(self):
        s = np.array([1.0, 0.0])
        assert not make_pair(s, np.array([5e-7, 1.0])).usable
        assert make_pair(s, np.array([5e-3, 1.0])).usable

    def test_zero_pair_is_identity(self):
        pair = zero_pair(4)
        v = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.array_equal(dense_model(pair) @ v, v)
        assert np.array_equal(apply_inverse(pair, v), v)


class TestDirectConstruction:
    def test_constructor_computes_the_stored_products(self):
        # A pair built without make_pair must not carry stale or default
        # products into apply_inverse.
        rng = np.random.default_rng(47)
        for _ in range(30):
            n = int(rng.integers(2, 20))
            s, y = rng.standard_normal(n), rng.standard_normal(n)
            pair = LbfgsPair(s, y)
            assert (pair.sy, pair.yy) == (float(s @ y), float(y @ y))
            assert pair.usable == make_pair(s, y).usable
            if not pair.usable:
                continue
            v = rng.standard_normal(n)
            ref = np.linalg.solve(dense_model(pair), v)
            assert np.allclose(apply_inverse(pair, v), ref, rtol=1e-8, atol=1e-8)
            assert np.array_equal(apply_inverse(pair, v), apply_inverse(make_pair(s, y), v))

    @pytest.mark.parametrize("s, y, usable, scale", [
        # s^T y = 2 > y^T y = 1.25: usable, scaled by gamma = 1.6.
        ([2.0, 0.0], [1.0, 0.5], True, 1.6),
        # s^T y = 0: no curvature, the identity model.
        ([1.0, 0.0], [0.0, 3.0], False, 1.0),
    ])
    def test_constructor_and_make_pair_agree(self, s, y, usable, scale):
        direct = LbfgsPair(np.array(s), np.array(y))
        made = make_pair(s, y)
        products = [(p.sy, p.yy, p.usable, p.scale) for p in (direct, made)]
        assert products[0] == products[1]
        assert (direct.usable, direct.scale) == (usable, scale)

    def test_products_cannot_be_passed_in(self):
        with pytest.raises(TypeError):
            LbfgsPair(np.ones(2), np.ones(2), sy=0.0, yy=0.0)
        with pytest.raises(TypeError):
            LbfgsPair(np.ones(2), np.ones(2), usable=True)
        with pytest.raises(TypeError):
            LbfgsPair(np.ones(2), np.ones(2), scale=2.0)


@pytest.mark.parametrize("n", [2, 10, 300, 1000])
def test_apply_inverse_equals_its_matmul_closed_form_bit_for_bit(n):
    # The pair's products and apply_inverse use ndarray.dot, one BLAS call
    # each, and must give what the same formula written with @ gives.
    rng = np.random.default_rng([48, n])
    for _ in range(5):
        pair = random_usable_pair(rng, n)
        s, y, v = pair.s, pair.y, rng.standard_normal(n)
        sy, yy = float(s @ y), float(y @ y)
        assert (pair.sy, pair.yy) == (sy, yy)
        sv, yv = float(s @ v), float(y @ v)
        want = v - (y * sv + s * yv) / sy + (2.0 * yy * sv / sy**2) * s
        assert np.array_equal(apply_inverse(pair, v), want)


class TestHandWorkedPair:
    def pair(self):
        return make_pair(np.array([1.0, 0.0]), np.array([1.0, 1.0]))

    def test_forward_on_step(self):
        bv = dense_model(self.pair()) @ np.array([1.0, 0.0])
        assert np.allclose(bv, [0.5, 0.5], atol=1e-15)

    def test_dense_matrix(self):
        b = dense_model(self.pair())
        assert np.allclose(b, [[0.5, 0.5], [0.5, 1.5]], atol=1e-15)

    def test_inverse_matches_hand_computation(self):
        inv_cols = np.column_stack(
            [
                apply_inverse(self.pair(), np.array([1.0, 0.0])),
                apply_inverse(self.pair(), np.array([0.0, 1.0])),
            ]
        )
        assert np.allclose(inv_cols, [[3.0, -1.0], [-1.0, 1.0]], atol=1e-14)


class TestScale:
    def test_hand_worked_scales(self):
        s = np.array([1.0, 0.0])
        assert make_pair(s, np.array([0.25, 0.0])).scale == 4.0  # gamma = 4
        assert make_pair(s, np.array([1.0, 0.0])).scale == 1.0  # gamma = 1
        assert make_pair(s, np.array([2.0, 0.0])).scale == 1.0  # gamma = 1/2
        assert make_pair(s, np.array([-0.25, 0.0])).scale == 1.0  # gamma < 0
        assert make_pair(s, np.array([5e-7, 1e-9])).scale == 1.0  # not usable
        assert zero_pair(3).scale == 1.0

    def test_scale_is_gamma_above_one_else_one_and_below_the_floor_bound(self):
        # Steps of every length against gradient changes of every length and
        # angle, so gamma = s^T y / y^T y spans both sides of one and reaches
        # the bound 1/_CURVATURE_FLOOR that the curvature floor sets.
        rng = np.random.default_rng(48)
        seen_scaled = seen_unscaled = 0
        for _ in range(4000):
            n = int(rng.integers(1, 12))
            s = rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 4)
            y = rng.standard_normal(n)
            y = y * (np.linalg.norm(s) / np.linalg.norm(y)) * 10.0 ** rng.uniform(-7, 2)
            if rng.random() < 0.5:
                # Turn y toward s, so that the usable pairs with gamma near
                # its bound come up.
                y = y + s * (float(s @ y) / float(s @ s)) * 10.0 ** rng.uniform(0, 6)
            pair = make_pair(s, y)
            if pair.usable and pair.sy > pair.yy:
                assert pair.scale == pair.sy / pair.yy
                assert 1.0 < pair.scale < 1e6
                seen_scaled += 1
            else:
                assert pair.scale == 1.0
                seen_unscaled += 1
        assert seen_scaled > 100 and seen_unscaled > 100

    def test_barely_usable_pair_gives_gamma_just_below_the_bound(self):
        pair = make_pair(np.array([1.0, 0.0]), np.array([1.0000001e-6, 0.0]))
        assert pair.usable
        assert 9.99e5 < pair.scale < 1e6


class TestSpectrumAndInverse:
    def test_spectral_and_roundtrip_properties(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            n = int(rng.integers(2, 31))
            pair = random_usable_pair(rng, n, min_cos=0.05)
            s, y = pair.s, pair.y
            b = dense_model(pair)
            eigs = np.linalg.eigvalsh(b)

            lower = 1e-6**2 * float(s @ s) / (2.0 * float(y @ y))
            assert eigs.min() > lower - 1e-12
            assert eigs.max() < 2.0 + 1e-12

            # All but two eigenvalues equal one; the remaining pair has a
            # fixed sum and a product set by the angle between s and y.
            assert abs(float(np.trace(b)) - (n - 2) - 2.0) < 1e-10
            cos2 = float(s @ y) ** 2 / (float(s @ s) * float(y @ y))
            assert abs(float(np.linalg.det(b)) - cos2) < 1e-10

            v = rng.standard_normal(n)
            w = apply_inverse(pair, dense_model(pair) @ v)
            assert np.linalg.norm(w - v) <= 1e-10 * max(1.0, np.linalg.norm(v))

            # Inverse agrees with a dense factorization solve.
            ref = np.linalg.solve(b, v)
            assert np.linalg.norm(apply_inverse(pair, v) - ref) <= 1e-12 * max(
                1.0, np.linalg.norm(ref)
            ) * max(1.0, 2.0 / eigs.min())

            # Quadratic form of the inverse stays above half the norm.
            assert float(v @ apply_inverse(pair, v)) > 0.5 * float(v @ v)

    def test_eigenvalue_bounds_hold_for_barely_usable_pairs(self):
        # Near-orthogonal pairs pass the curvature screen with tiny margins;
        # the model must stay positive definite within the stated interval.
        rng = np.random.default_rng(46)
        for _ in range(50):
            n = int(rng.integers(2, 31))
            s = rng.standard_normal(n)
            y = rng.standard_normal(n)
            # Make y nearly orthogonal to s while keeping the pair usable.
            y = y - s * (s @ y) / (s @ s)
            y = y + s * (1e-4 * np.linalg.norm(y) / np.linalg.norm(s))
            pair = make_pair(s, y)
            assert pair.usable
            eigs = np.linalg.eigvalsh(dense_model(pair))
            lower = 1e-6**2 * float(s @ s) / (2.0 * float(y @ y))
            assert eigs.min() > lower - 1e-12
            assert eigs.max() < 2.0 + 1e-12

    def test_forward_maps_step_to_scaled_gradient_change(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            pair = random_usable_pair(rng, n)
            s, y = pair.s, pair.y
            bs = dense_model(pair) @ s
            expected = (float(y @ s) / float(y @ y)) * y
            assert np.linalg.norm(bs - expected) <= 1e-12 * np.linalg.norm(s)

    def test_vectors_outside_span_are_fixed(self):
        rng = np.random.default_rng(44)
        n = 10
        pair = random_usable_pair(rng, n, min_cos=0.05)
        q, _ = np.linalg.qr(np.column_stack([pair.s, pair.y]))
        v = rng.standard_normal(n)
        v = v - q @ (q.T @ v)  # orthogonal complement of span{s, y}
        assert np.linalg.norm(dense_model(pair) @ v - v) < 1e-12
        assert np.linalg.norm(apply_inverse(pair, v) - v) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(45)
        pair = random_usable_pair(rng, 8)
        v, w = rng.standard_normal(8), rng.standard_normal(8)
        lhs = apply_inverse(pair, 2.5 * v - 0.5 * w)
        rhs = 2.5 * apply_inverse(pair, v) - 0.5 * apply_inverse(pair, w)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_inputs_not_mutated(self):
        pair = make_pair(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        v = np.array([2.0, 3.0])
        apply_inverse(pair, v)
        assert np.array_equal(v, [2.0, 3.0])
        assert isinstance(pair, LbfgsPair)
