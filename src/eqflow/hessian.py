"""Finite-difference curvature in the tangent space, and its shifted factorization.

The ill-conditioned phase of the solver needs second-order information that
respects the constraints.  It is built column by column: column ``i`` is the
forward difference of the *projected* gradient along the *projected* i-th
coordinate direction,

    H[:, i] = (Pg(x + eps * P e_i) - Pg(x)) / eps,

which costs exactly ``n`` gradient evaluations, one per probe (the caller
passes the gradient at ``x``), and maps the tangent space into itself up to
finite-difference noise.  The directions ``P e_i`` are the columns of the
dense projector that :func:`~eqflow.projection.tangent_projector` keeps on
the basis, so only the first probe of a basis forms them.  The matrix is
used as evaluated — deliberately not symmetrized, so the factorization
sees the raw differences.

The shifted system solved each iteration is ``(shift/dt) I + H`` with a fixed
base shift; since ``H`` is nearly singular in the normal directions, the shift
both regularizes and encodes the continuation step size.  It is factored by LU
with partial pivoting rather than Cholesky: the unsymmetrized ``H`` may fail to
be exactly symmetric, and an indefinite ``H`` leaves the system indefinite
whenever ``shift/dt`` is below the magnitude of its most negative eigenvalue.
LAPACK factors column-major matrices, so a Fortran-ordered ``H`` is copied
into the factorization without a transpose.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.linalg.lapack

from .errors import SingularFactor
from .projection import ProjectorBasis, project_gradient, tangent_projector

__all__ = ["fd_projected_hessian", "build_and_factor", "solve_shifted"]

#: Diagonal entries of the triangular factor below this fraction of the matrix
#: norm flag the shifted matrix as numerically singular.
_SINGULAR_RTOL = 1e-14

#: Length of each forward-difference probe along a projected coordinate.
_FD_EPS = 1e-6


def fd_projected_hessian(
    grad: Callable[[np.ndarray], np.ndarray],
    basis: ProjectorBasis,
    x: np.ndarray,
    g: np.ndarray,
) -> np.ndarray:
    """Evaluate the projected finite-difference curvature matrix at the float
    array ``x``, whose gradient ``g`` the caller has evaluated and checked.

    Probes the ``n`` projected coordinate directions, scaled by ``_FD_EPS``
    (1e-6), in ascending index order: ``n`` gradient evaluations, each
    differenced against ``g``.  The
    directions are the rows of the basis's kept projector, read contiguously;
    each probe point is formed only when it is probed, and its gradient is
    written straight into column ``i`` of the C-ordered matrix that is then
    projected.  The first call on a basis builds the projector.  ``grad``
    checks its own results: the solver passes one that raises on a misshapen
    or non-finite gradient, so no later probe is made.
    """
    n = x.shape[0]
    # Row i of the column-major projector's transpose is P e_i.
    directions = tangent_projector(basis).T
    diffs = np.empty((n, n))
    for i in range(n):
        diffs[:, i] = grad(x + _FD_EPS * directions[i])
    # Subtract the raw gradients before projecting: the difference is O(_FD_EPS)
    # while the gradients themselves are O(||g||), so projecting afterwards
    # avoids amplifying projection roundoff by 1/_FD_EPS.  It also makes the
    # matrix exactly zero for linear objectives, where every probe returns the
    # same gradient.
    diffs -= g[:, None]
    diffs /= _FD_EPS
    return project_gradient(basis, diffs)


def build_and_factor(
    hess: np.ndarray, shift: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Form ``(shift/dt) I + H`` and factor it by LU with partial pivoting.

    Returns the pair ``(lu, piv)`` that :func:`scipy.linalg.lu_factor`
    returns: ``lu`` holds the unit lower triangle ``L`` below its diagonal and
    ``U`` on and above it, and ``piv`` the zero-based row interchanges.

    ``hess`` is left unchanged.  Its copy is column-major, the order ``getrf``
    factors in place, so a Fortran-ordered ``hess`` is copied as it lies in
    memory; a C-ordered one is transposed into place and factors the same.

    Raises
    ------
    SingularFactor
        If any diagonal entry of ``U`` is at most ``1e-14 * ||B||`` (a zero
        matrix and an exact zero pivot included).  The solver then halves
        ``dt`` and factors again, down to its ``dt`` floor.
    """
    # A Fortran-ordered copy lets getrf factor it in place.  Read in that
    # order its buffer is a view whose every (n+1)-th entry is diagonal, which
    # numpy adds to in one strided pass (``b.flat`` takes a slower iterator).
    b = np.array(hess, dtype=float, order="F")
    b.reshape(-1, order="F")[:: b.shape[0] + 1] += shift / dt
    norm_b = float(np.linalg.norm(b))
    lu, piv, _ = scipy.linalg.lapack.dgetrf(b, overwrite_a=True)
    if float(np.min(np.abs(np.diag(lu)))) <= _SINGULAR_RTOL * norm_b:
        raise SingularFactor(
            f"shifted curvature matrix is numerically singular at dt={dt:.3e}"
        )
    return lu, piv


def solve_shifted(factor: tuple[np.ndarray, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Solve ``((shift/dt) I + H) d = rhs`` with the ``(lu, piv)`` pair of
    :func:`build_and_factor`."""
    d, _ = scipy.linalg.lapack.dgetrs(*factor, rhs)
    return d
