"""Benchmark problem catalog: standard test objectives under a shared family
of linear equality constraints.

Every instance couples one of the classical smooth test functions (sphere,
Rosenbrock, Rastrigin, ...) with the structured constraint system produced by
:func:`build_constraints`: ``A = [A1 | A2]`` where ``A1`` is the m-by-m
tridiagonal matrix with diagonal 2 and off-diagonals 1 and ``A2`` has constant
rows alternating between all-ones and all-twos, with right-hand side
``b = 2 * ones(m)`` and ``m = n/2`` unless overridden.  Initial points default
to the all-ones vector.

All gradients are analytic.  Objectives and gradients are pure functions of
their input and never mutate it.
"""

from __future__ import annotations

import math
import threading
import warnings
import weakref
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .errors import DimensionError, SingularKkt, UnknownProblem
from .projection import ConstraintSystem

__all__ = [
    "ProblemInstance",
    "build_constraints",
    "get_problem",
    "CONVEX_PROBLEMS",
    "NONCONVEX_PROBLEMS",
    "quadratic_form",
    "quadratic_oracle",
]

Vector = np.ndarray
Objective = Callable[[Vector], float]
Gradient = Callable[[Vector], Vector]
HessianFn = Callable[[Vector], np.ndarray]


@dataclass(frozen=True)
class ProblemInstance:
    """One constrained benchmark instance; ``known_fstar`` is an optional
    reference optimum."""

    name: str
    n: int
    cs: ConstraintSystem
    x0: Vector
    f: Objective
    grad: Gradient
    hess: Optional[HessianFn] = None
    known_fstar: Optional[float] = None


# (n, m) -> the system build_constraints handed out, while a caller holds it.
_SHARED_SYSTEMS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_SHARED_SYSTEMS_LOCK = threading.Lock()


def build_constraints(n: int, m: Optional[int] = None) -> ConstraintSystem:
    """Structured constraint system ``[A1 | A2] x = 2`` used by the suite.

    ``A1`` is tridiagonal (2 on the diagonal, 1 off it) and positive definite,
    so the system always has full row rank.  ``A2`` rows are constant vectors
    alternating 1, 2, 1, 2, ... down the rows.  The default split is
    ``m = n/2``; pass ``m`` explicitly for the n/3 and 2n/3 variants.

    Equal ``(n, m)`` give the same immutable system, so its factorization is
    computed once however many instances share it; the system is freed once
    no caller holds it.

    Raises :class:`DimensionError` for odd ``n`` in the default configuration
    and for any ``m`` outside ``1 <= m < n``.
    """
    if n < 2:
        raise DimensionError(f"need n >= 2, got n={n}")
    if m is None:
        if n % 2:
            raise DimensionError(f"default split needs even n, got n={n}")
        m = n // 2
    if not 1 <= m < n:
        raise DimensionError(f"need 1 <= m < n, got m={m}, n={n}")
    with _SHARED_SYSTEMS_LOCK:
        cs = _SHARED_SYSTEMS.get((n, m))
        if cs is None:
            a1 = 2.0 * np.eye(m) + np.diag(np.ones(m - 1), 1) + np.diag(np.ones(m - 1), -1)
            row_values = np.where(np.arange(m) % 2 == 1, 2.0, 1.0)
            a2 = np.repeat(row_values[:, None], n - m, axis=1)
            a = np.hstack([a1, a2])
            cs = _SHARED_SYSTEMS[n, m] = ConstraintSystem(a=a, b=2.0 * np.ones(m))
    return cs


# --- objective definitions -------------------------------------------------
#
# Each _mk_* returns (f, grad, hess-or-None) closures for dimension n.  The
# exactly-quadratic entries leave hess to get_problem, which reads it from
# quadratic_form.


def _mk_sphere(n):
    def f(x):
        return float(x @ x)

    def grad(x):
        return 2.0 * x

    return f, grad, None


def _mk_sum_squares(n):
    w = np.arange(1.0, n + 1.0)

    def f(x):
        return float(w @ (x * x))

    def grad(x):
        return 2.0 * w * x

    return f, grad, None


def _mk_trid(n):
    def f(x):
        return float(np.sum((x - 1.0) ** 2) - np.sum(x[1:] * x[:-1]))

    def grad(x):
        g = 2.0 * (x - 1.0)
        g[:-1] -= x[1:]
        g[1:] -= x[:-1]
        return g

    return f, grad, None


def _mk_rotated_hyper_ellipsoid(n):
    # sum of leading partial sums of squares == descending integer weights
    w = np.arange(n, 0.0, -1.0)

    def f(x):
        return float(w @ (x * x))

    def grad(x):
        return 2.0 * w * x

    return f, grad, None


def _mk_booth(n):
    def f(x):
        return float((x[0] + 2 * x[1] - 7) ** 2 + (2 * x[0] + x[1] - 5) ** 2)

    def grad(x):
        t1 = x[0] + 2 * x[1] - 7
        t2 = 2 * x[0] + x[1] - 5
        return np.array([2 * t1 + 4 * t2, 4 * t1 + 2 * t2])

    return f, grad, None


def _mk_matyas(n):
    def f(x):
        return float(0.26 * (x[0] ** 2 + x[1] ** 2) - 0.48 * x[0] * x[1])

    def grad(x):
        return np.array(
            [0.52 * x[0] - 0.48 * x[1], 0.52 * x[1] - 0.48 * x[0]]
        )

    return f, grad, None


def _mk_zakharov(n):
    w = np.arange(1.0, n + 1.0)

    def f(x):
        t = 0.5 * float(w @ x)
        return float(x @ x) + t**2 + t**4

    def grad(x):
        t = 0.5 * float(w @ x)
        return 2.0 * x + (2.0 * t + 4.0 * t**3) * 0.5 * w

    def hess(x):
        t = 0.5 * float(w @ x)
        return 2.0 * np.eye(n) + 0.25 * (2.0 + 12.0 * t**2) * np.outer(w, w)

    return f, grad, hess


def _mk_quartic(n):
    # Smooth deterministic take on the classic noisy quartic: the per-call
    # noise is replaced by a frozen random quadratic perturbation so that
    # runs are repeatable and the objective stays convex and smooth.
    w = np.arange(1.0, n + 1.0)
    xi = np.random.default_rng(7).uniform(0.0, 1.0, size=n)

    def f(x):
        return float(w @ x**4 + xi @ x**2)

    def grad(x):
        return 4.0 * w * x**3 + 2.0 * xi * x

    def hess(x):
        return np.diag(12.0 * w * x**2 + 2.0 * xi)

    return f, grad, hess


def _mk_rosenbrock(n):
    def f(x):
        return float(
            np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2)
        )

    def grad(x):
        g = np.zeros_like(x)
        t = x[1:] - x[:-1] ** 2
        g[:-1] = -400.0 * x[:-1] * t - 2.0 * (1.0 - x[:-1])
        g[1:] += 200.0 * t
        return g

    return f, grad, None


def _mk_dixon_price(n):
    idx = np.arange(2.0, n + 1.0)

    def f(x):
        t = 2.0 * x[1:] ** 2 - x[:-1]
        return float((x[0] - 1.0) ** 2 + idx @ t**2)

    def grad(x):
        t = 2.0 * x[1:] ** 2 - x[:-1]
        g = np.zeros_like(x)
        g[0] = 2.0 * (x[0] - 1.0)
        g[1:] += 8.0 * idx * t * x[1:]
        g[:-1] -= 2.0 * idx * t
        return g

    return f, grad, None


def _mk_griewank(n):
    root = np.sqrt(np.arange(1.0, n + 1.0))

    def f(x):
        return float(np.sum(x * x) / 4000.0 - np.prod(np.cos(x / root)) + 1.0)

    def grad(x):
        c = np.cos(x / root)
        # stable leave-one-out products via prefix/suffix cumulative products
        left = np.concatenate(([1.0], np.cumprod(c)[:-1]))
        right = np.concatenate((np.cumprod(c[::-1])[-2::-1], [1.0]))
        return x / 2000.0 + np.sin(x / root) / root * left * right

    return f, grad, None


def _mk_levy(n):
    def _w(x):
        return 1.0 + (x - 1.0) / 4.0

    def f(x):
        w = _w(x)
        middle = np.sum(
            (w[:-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * w[:-1] + 1.0) ** 2)
        )
        last = (w[-1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * w[-1]) ** 2)
        return float(np.sin(np.pi * w[0]) ** 2 + middle + last)

    def grad(x):
        w = _w(x)
        g = np.zeros_like(x)
        g[0] += np.pi * np.sin(2.0 * np.pi * w[0])
        wm = w[:-1]
        sin_term = np.sin(np.pi * wm + 1.0)
        g[:-1] += 2.0 * (wm - 1.0) * (1.0 + 10.0 * sin_term**2) + (
            wm - 1.0
        ) ** 2 * 10.0 * np.pi * np.sin(2.0 * (np.pi * wm + 1.0))
        wl = w[-1]
        g[-1] += 2.0 * (wl - 1.0) * (1.0 + np.sin(2.0 * np.pi * wl) ** 2) + (
            wl - 1.0
        ) ** 2 * 2.0 * np.pi * np.sin(4.0 * np.pi * wl)
        return 0.25 * g

    return f, grad, None


def _mk_rastrigin(n):
    def f(x):
        return float(10.0 * n + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)))

    def grad(x):
        return 2.0 * x + 20.0 * np.pi * np.sin(2.0 * np.pi * x)

    return f, grad, None


def _mk_ackley(n):
    def f(x):
        r = np.sqrt(np.sum(x * x) / n)
        s = np.sum(np.cos(2.0 * np.pi * x)) / n
        return float(-20.0 * np.exp(-0.2 * r) - np.exp(s) + 20.0 + math.e)

    def grad(x):
        r = np.sqrt(np.sum(x * x) / n)
        s = np.sum(np.cos(2.0 * np.pi * x)) / n
        radial = np.zeros_like(x)
        if r > 0.0:
            radial = 4.0 * np.exp(-0.2 * r) * x / (n * r)
        return radial + (2.0 * np.pi / n) * np.exp(s) * np.sin(2.0 * np.pi * x)

    return f, grad, None


def _mk_powell(n):
    if n % 4:
        raise DimensionError(f"powell needs n divisible by 4, got n={n}")

    def f(x):
        a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
        return float(
            np.sum((a + 10.0 * b) ** 2)
            + 5.0 * np.sum((c - d) ** 2)
            + np.sum((b - 2.0 * c) ** 4)
            + 10.0 * np.sum((a - d) ** 4)
        )

    def grad(x):
        a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
        t1 = a + 10.0 * b
        t2 = c - d
        t3 = b - 2.0 * c
        t4 = a - d
        g = np.zeros_like(x)
        g[0::4] = 2.0 * t1 + 40.0 * t4**3
        g[1::4] = 20.0 * t1 + 4.0 * t3**3
        g[2::4] = 10.0 * t2 - 8.0 * t3**3
        g[3::4] = -10.0 * t2 - 40.0 * t4**3
        return g

    return f, grad, None


def _mk_styblinski_tang(n):
    def f(x):
        return float(0.5 * np.sum(x**4 - 16.0 * x * x + 5.0 * x))

    def grad(x):
        return 2.0 * x**3 - 16.0 * x + 2.5

    return f, grad, None


def _mk_schwefel(n):
    def f(x):
        return float(418.9829 * n - np.sum(x * np.sin(np.sqrt(np.abs(x)))))

    def grad(x):
        r = np.sqrt(np.abs(x))
        return -np.sin(r) - 0.5 * r * np.cos(r)

    return f, grad, None


def _mk_three_hump_camel(n):
    def f(x):
        return float(
            2.0 * x[0] ** 2
            - 1.05 * x[0] ** 4
            + x[0] ** 6 / 6.0
            + x[0] * x[1]
            + x[1] ** 2
        )

    def grad(x):
        return np.array(
            [
                4.0 * x[0] - 4.2 * x[0] ** 3 + x[0] ** 5 + x[1],
                x[0] + 2.0 * x[1],
            ]
        )

    return f, grad, None


def _mk_six_hump_camel(n):
    def f(x):
        return float(
            (4.0 - 2.1 * x[0] ** 2 + x[0] ** 4 / 3.0) * x[0] ** 2
            + x[0] * x[1]
            + (-4.0 + 4.0 * x[1] ** 2) * x[1] ** 2
        )

    def grad(x):
        return np.array(
            [
                8.0 * x[0] - 8.4 * x[0] ** 3 + 2.0 * x[0] ** 5 + x[1],
                x[0] - 8.0 * x[1] + 16.0 * x[1] ** 3,
            ]
        )

    return f, grad, None


def _mk_beale(n):
    def f(x):
        t1 = 1.5 - x[0] + x[0] * x[1]
        t2 = 2.25 - x[0] + x[0] * x[1] ** 2
        t3 = 2.625 - x[0] + x[0] * x[1] ** 3
        return float(t1**2 + t2**2 + t3**2)

    def grad(x):
        t1 = 1.5 - x[0] + x[0] * x[1]
        t2 = 2.25 - x[0] + x[0] * x[1] ** 2
        t3 = 2.625 - x[0] + x[0] * x[1] ** 3
        g1 = 2.0 * (
            t1 * (x[1] - 1.0) + t2 * (x[1] ** 2 - 1.0) + t3 * (x[1] ** 3 - 1.0)
        )
        g2 = 2.0 * x[0] * (t1 + 2.0 * t2 * x[1] + 3.0 * t3 * x[1] ** 2)
        return np.array([g1, g2])

    return f, grad, None


# name -> (maker, default n, fixed-dimension flag, known_fstar)
_CONVEX: dict[str, tuple] = {
    "sphere": (_mk_sphere, 1000, False, None),
    "sum_squares": (_mk_sum_squares, 1000, False, None),
    "trid": (_mk_trid, 1000, False, None),
    "rotated_hyper_ellipsoid": (_mk_rotated_hyper_ellipsoid, 1000, False, None),
    # closed form: stationary feasible point (-1, 4)
    "booth": (_mk_booth, 2, True, 9.0),
    # closed form on the feasible line x2 = 2 - 2*x1
    "matyas": (_mk_matyas, 2, True, 0.017699115044247787),
    "zakharov": (_mk_zakharov, 10, False, None),
    "quartic_noise": (_mk_quartic, 1000, False, None),
}
_NONCONVEX: dict[str, tuple] = {
    "rosenbrock": (_mk_rosenbrock, 1000, False, None),
    "dixon_price": (_mk_dixon_price, 1000, False, None),
    "griewank": (_mk_griewank, 1000, False, None),
    "levy": (_mk_levy, 1000, False, None),
    "rastrigin": (_mk_rastrigin, 1000, False, None),
    "ackley": (_mk_ackley, 1000, False, None),
    "powell": (_mk_powell, 1000, False, None),
    "styblinski_tang": (_mk_styblinski_tang, 1000, False, None),
    "schwefel": (_mk_schwefel, 1000, False, None),
    "three_hump_camel": (_mk_three_hump_camel, 2, True, None),
    "six_hump_camel": (_mk_six_hump_camel, 2, True, None),
    "beale": (_mk_beale, 2, True, None),
}
_REGISTRY = {**_CONVEX, **_NONCONVEX}
CONVEX_PROBLEMS = tuple(_CONVEX)
NONCONVEX_PROBLEMS = tuple(_NONCONVEX)


# name -> n -> (Q, c, const) with f(x) = 0.5 x^T Q x + c^T x + const
_QUADRATIC: dict[str, Callable[[int], tuple[np.ndarray, np.ndarray, float]]] = {
    "sphere": lambda n: (2.0 * np.eye(n), np.zeros(n), 0.0),
    "sum_squares": lambda n: (np.diag(2.0 * np.arange(1.0, n + 1.0)), np.zeros(n), 0.0),
    "trid": lambda n: (
        2.0 * np.eye(n) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1),
        -2.0 * np.ones(n),
        float(n),
    ),
    "rotated_hyper_ellipsoid": lambda n: (
        np.diag(2.0 * np.arange(n, 0.0, -1.0)), np.zeros(n), 0.0
    ),
    "booth": lambda n: (
        np.array([[10.0, 8.0], [8.0, 10.0]]), np.array([-34.0, -38.0]), 74.0
    ),
    "matyas": lambda n: (np.array([[0.52, -0.48], [-0.48, 0.52]]), np.zeros(2), 0.0),
}


def get_problem(
    name: str, n: Optional[int] = None, m: Optional[int] = None
) -> ProblemInstance:
    """Build a catalog problem, optionally overriding dimension and row count.

    Raises :class:`UnknownProblem` for names not in the catalog and
    :class:`DimensionError` for dimension overrides a problem cannot take
    (fixed two-dimensional functions, powell's divisibility by 4, odd n with
    the default constraint split).
    """
    if name not in _REGISTRY:
        raise UnknownProblem(f"unknown problem {name!r}")
    maker, default_n, fixed_dim, fstar = _REGISTRY[name]
    if n is None:
        n = default_n
    elif fixed_dim and n != default_n:
        raise DimensionError(f"{name} is fixed at n={default_n}, got n={n}")
    f, grad, hess = maker(n)
    cs = build_constraints(n, m)
    return ProblemInstance(
        name=name,
        n=n,
        cs=cs,
        x0=np.ones(n),
        f=f,
        grad=grad,
        hess=(lambda x: quadratic_form(name, n)[0]) if name in _QUADRATIC else hess,
        known_fstar=fstar,
    )


def quadratic_form(name: str, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """``(Q, c, const)`` with ``f(x) = 0.5 x^T Q x + c^T x + const`` for the
    exactly-quadratic catalog entries; raises UnknownProblem otherwise."""
    if name not in _QUADRATIC:
        raise UnknownProblem(f"{name} is not one of the quadratic catalog entries")
    return _QUADRATIC[name](n)


def quadratic_oracle(
    cs: ConstraintSystem, q: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, float]:
    """Ground-truth minimizer of ``0.5 x^T Q x + c^T x`` over ``Ax = b`` via
    the dense stationarity system ``[[Q, A^T], [A, 0]] [x; lam] = [-c; b]``.

    Raises :class:`SingularKkt` when the system is singular or the computed
    solution fails a residual check.
    """
    m, n = cs.a.shape
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = q
    kkt[:n, n:] = cs.a.T
    kkt[n:, :n] = cs.a
    rhs = np.concatenate([-np.asarray(c, dtype=float), cs.b])
    try:
        with warnings.catch_warnings():
            # An exactly-singular factorization is reported below via the
            # residual check; scipy's advisory warning is redundant here.
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(kkt)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SingularKkt(str(exc)) from exc
    z = scipy.linalg.lu_solve((lu, piv), rhs)
    # The constraint family makes this system badly conditioned (constant
    # columns in the wide block), so a plain solve can lose five or six
    # digits.  Iterative refinement with extended-precision residuals
    # restores full double accuracy at negligible cost.
    kkt_l = kkt.astype(np.longdouble)
    rhs_l = rhs.astype(np.longdouble)
    for _ in range(3):
        if not np.all(np.isfinite(z)):
            raise SingularKkt("stationarity system solve produced non-finite values")
        correction = np.asarray(rhs_l - kkt_l @ z.astype(np.longdouble), dtype=float)
        z = z + scipy.linalg.lu_solve((lu, piv), correction)
    # Normwise backward error; loose solves from near-singular systems fail it.
    residual = float(np.max(np.abs(kkt @ z - rhs)))
    scale = float(
        np.linalg.norm(kkt, np.inf) * np.max(np.abs(z)) + np.max(np.abs(rhs))
    )
    if not np.isfinite(residual) or residual > 1e-10 * max(1.0, scale):
        raise SingularKkt(f"stationarity system residual too large: {residual:.3e}")
    x_star = z[:n]
    f_star = float(0.5 * x_star @ (q @ x_star) + c @ x_star)
    return x_star, f_star
