"""Curvature in the tangent basis, and the shifted solve it serves.

The ill-posed phase preconditions with the regularized two-sided projection
of the Hessian, ``(shift/dt) I + P H P``, held in an orthonormal tangent
basis ``Q2`` (n-by-(n - r)) as the reduced Hessian ``Hr = Q2^T H Q2``
(Nocedal & Wright, *Numerical Optimization*, §15.3 and §16.2).  Without an
analytic Hessian, ``Hr`` is the symmetric part of ``Q2^T G``, where column j
of ``G`` is the forward difference ``(g(x + eps q_j) - g(x)) / eps`` along
column j of ``Q2``: n - r gradient evaluations.  One eigendecomposition
``Hr = V diag(lam) V^T`` serves every shift (Golub, Nash & Van Loan, IEEE
TAC 1979): with ``W = Q2 V`` the shifted solve is
``d = W (W^T rhs / (shift/dt + max(lam, 0)))``, which lies in null(A) by
construction, and a new shift costs O(n - r).

The eigenvalues are clipped at zero before the shift, the eigenvalue
modification of Nocedal & Wright, §3.4: the shifted matrix is then positive
definite on null(A), with every eigenvalue at least ``shift/dt``, so every
ill-posed step predicts a decrease and none moves up ``f`` along a direction
of negative curvature.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# Not called here; perfbench/tracing.py patches this name.
from .projection import project_gradient  # noqa: F401

__all__ = ["fd_projected_hessian", "build_and_factor", "solve_shifted"]

#: Length of each forward-difference probe along a tangent basis vector.
_FD_EPS = 1e-6


def fd_projected_hessian(
    grad: Callable[[np.ndarray], np.ndarray], q2: np.ndarray, x: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """The reduced finite-difference curvature ``sym(Q2^T G)`` at the float
    array ``x``, whose gradient ``g`` the caller has evaluated and checked.

    Probes the columns of the tangent basis ``q2``, scaled by ``_FD_EPS``
    (1e-6), in column order, writing each gradient straight into row j of
    ``G^T``.  ``grad`` checks its own results: the solver passes one that
    raises on a misshapen or non-finite gradient, so no later probe is made.
    """
    k = q2.shape[1]
    diffs = np.empty((k, x.shape[0]))
    for j in range(k):
        diffs[j] = grad(x + _FD_EPS * q2[:, j])
    # Subtract the raw gradients before reducing: the difference is O(_FD_EPS)
    # while the gradients are O(||g||), and a linear objective gives exactly 0.
    diffs -= g
    diffs /= _FD_EPS
    hr = diffs @ q2
    return 0.5 * (hr + hr.T)


def build_and_factor(
    curvature: tuple[np.ndarray, np.ndarray], shift: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Shift the clipped eigenvalues of the curvature ``(W, lam)``: returns
    ``(W, shift/dt + max(lam, 0))``, the pair :func:`solve_shifted` reads,
    whose every value is at least ``shift/dt > 0``."""
    w, lam = curvature
    return w, shift / dt + np.maximum(lam, 0.0)


def solve_shifted(factor: tuple[np.ndarray, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Solve the shifted system on the tangent space with the pair
    ``(W, shift/dt + max(lam, 0))`` of :func:`build_and_factor`:
    ``W (W^T rhs / (shift/dt + max(lam, 0)))``."""
    w, shifted = factor
    return w.dot(w.T.dot(rhs) / shifted)
