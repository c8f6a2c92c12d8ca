"""Finite-difference curvature in the tangent space, and its shifted factorization.

The ill-conditioned phase of the solver needs second-order information that
respects the constraints.  It is built column by column: column ``i`` is the
forward difference of the *projected* gradient along the *projected* i-th
coordinate direction,

    H[:, i] = (Pg(x + eps * P e_i) - Pg(x)) / eps,

which costs exactly ``n + 1`` gradient evaluations and maps the tangent space
into itself up to finite-difference noise.  The matrix is used as evaluated —
deliberately not symmetrized, so the factorization sees the raw differences.

The shifted system solved each iteration is ``(shift/dt) I + H`` with a fixed
base shift; since ``H`` is nearly singular in the normal directions, the shift
both regularizes and encodes the continuation step size.  It is factored by LU
with partial pivoting rather than Cholesky: the unsymmetrized ``H`` may fail to
be exactly symmetric, and an indefinite ``H`` leaves the system indefinite
whenever ``shift/dt`` is below the magnitude of its most negative eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg.lapack

from .errors import NonFiniteGradient, SingularFactor
from .projection import ProjectorBasis, project_gradient

__all__ = [
    "ProjectedHessian",
    "RegularizedFactor",
    "fd_projected_hessian",
    "build_and_factor",
    "solve_shifted",
]

#: Diagonal entries of the triangular factor below this fraction of the matrix
#: norm flag the shifted matrix as numerically singular.
_SINGULAR_RTOL = 1e-14


@dataclass(frozen=True)
class ProjectedHessian:
    """Tangent-space curvature matrix and the settings it was evaluated with.

    ``eval_index`` tags which solver iteration produced the matrix, so traces
    can distinguish fresh from reused curvature.
    """

    matrix: np.ndarray
    fd_eps: float
    eval_index: int


@dataclass(frozen=True)
class RegularizedFactor:
    """LU factors of ``(shift/dt) I + H`` as LAPACK ``getrf`` leaves them.

    ``lu`` holds the unit lower triangle ``L`` below its diagonal and ``U`` on
    and above it; ``piv`` holds the zero-based row interchanges.
    """

    lu: np.ndarray
    piv: np.ndarray


def fd_projected_hessian(
    grad: Callable[[np.ndarray], np.ndarray],
    basis: ProjectorBasis,
    x: np.ndarray,
    fd_eps: float = 1e-6,
    eval_index: int = 0,
) -> ProjectedHessian:
    """Evaluate the projected finite-difference curvature matrix at ``x``.

    Probes the ``n`` projected coordinate directions in ascending index order;
    together with the base point this is ``n + 1`` gradient evaluations.

    Raises
    ------
    NonFiniteGradient
        If any probe returns a non-finite gradient.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    g0 = np.asarray(grad(x), dtype=float)
    if not np.all(np.isfinite(g0)):
        raise NonFiniteGradient("gradient at curvature base point is not finite")

    directions = project_gradient(basis, np.eye(n))
    probes = np.empty((n, n))
    for i in range(n):
        gi = np.asarray(grad(x + fd_eps * directions[:, i]), dtype=float)
        if not np.all(np.isfinite(gi)):
            raise NonFiniteGradient(f"gradient probe along direction {i} is not finite")
        probes[:, i] = gi
    # Subtract the raw gradients before projecting: the difference is O(fd_eps)
    # while the gradients themselves are O(||g||), so projecting afterwards
    # avoids amplifying projection roundoff by 1/fd_eps.  It also makes the
    # matrix exactly zero for linear objectives, where every probe returns the
    # same gradient.
    matrix = project_gradient(basis, (probes - g0[:, None]) / fd_eps)
    return ProjectedHessian(matrix=matrix, fd_eps=fd_eps, eval_index=eval_index)


def build_and_factor(
    hess: ProjectedHessian, shift: float, dt: float
) -> RegularizedFactor:
    """Form ``(shift/dt) I + H`` and factor it by LU with partial pivoting.

    Raises
    ------
    SingularFactor
        If any diagonal entry of ``U`` falls below ``1e-14 * ||B||`` (an exact
        zero pivot included) — the caller is expected to shrink the step size
        and retry once before giving up.
    """
    if dt <= 0.0 or shift <= 0.0:
        raise ValueError(f"shift and dt must be positive, got shift={shift}, dt={dt}")
    # A Fortran-ordered copy lets getrf factor it in place.
    b = np.array(hess.matrix, dtype=float, order="F")
    b.flat[:: b.shape[0] + 1] += shift / dt
    norm_b = float(np.linalg.norm(b))
    lu, piv, info = scipy.linalg.lapack.dgetrf(b, overwrite_a=True)
    if (
        norm_b == 0.0
        or info > 0
        or float(np.min(np.abs(np.diag(lu)))) < _SINGULAR_RTOL * norm_b
    ):
        raise SingularFactor(
            f"shifted curvature matrix is numerically singular at dt={dt:.3e}"
        )
    return RegularizedFactor(lu=lu, piv=piv)


def solve_shifted(factor: RegularizedFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve ``((shift/dt) I + H) d = rhs`` using the stored LU factors."""
    d, _ = scipy.linalg.lapack.dgetrs(factor.lu, factor.piv, rhs)
    return d
