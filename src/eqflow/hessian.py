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
``d = W (W^T rhs / (shift/dt + lam))``, which lies in null(A) by
construction, and a new shift costs O(n - r).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import SingularFactor
# Not called here; perfbench/tracing.py patches this name.
from .projection import project_gradient  # noqa: F401

__all__ = ["fd_projected_hessian", "build_and_factor", "solve_shifted"]

#: Shifted eigenvalues whose smallest magnitude is at most this fraction of
#: their 2-norm flag the shifted matrix as numerically singular.
_SINGULAR_RTOL = 1e-14

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
    """Shift the eigenvalues of the curvature ``(W, lam)``: returns
    ``(W, shift/dt + lam)``, the pair :func:`solve_shifted` reads.

    Raises :class:`SingularFactor` if the smallest ``|shift/dt + lam|`` is at
    most ``1e-14`` times the 2-norm of ``shift/dt + lam`` (an exact zero
    included); the solver then halves ``dt`` and shifts again.
    """
    w, lam = curvature
    shifted = shift / dt + lam
    if float(np.min(np.abs(shifted))) <= _SINGULAR_RTOL * float(np.linalg.norm(shifted)):
        raise SingularFactor(
            f"shifted curvature matrix is numerically singular at dt={dt:.3e}"
        )
    return w, shifted


def solve_shifted(factor: tuple[np.ndarray, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Solve the shifted system on the tangent space with the pair
    ``(W, shift/dt + lam)`` of :func:`build_and_factor`:
    ``W (W^T rhs / (shift/dt + lam))``."""
    w, shifted = factor
    return w @ ((w.T @ rhs) / shifted)
