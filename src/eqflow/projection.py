"""Linear equality constraints and the tangent-space projector.

Everything downstream of this module works on the affine set ``{x : Ax = b}``.
A single column-pivoted QR factorization of ``A^T`` yields an orthonormal basis
``Q1`` of the row space of ``A`` and its orthogonal complement ``Q2`` (the
tangent space of the constraint set).  The orthogonal projector onto the
tangent space is ``P = I - Q1 Q1^T = Q2 Q2^T``; callers apply it through
:func:`project_gradient`.  Only curvature probing needs it densely, and
:func:`tangent_projector` forms it once per basis.

The factorization also produces, once, the coefficient vector ``b_r`` with
which any point can be snapped back onto the constraint set by the minimum-norm
correction ``x - Q1 (Q1^T x - b_r)`` (see :func:`restore_feasibility`).

A :class:`ConstraintSystem` is immutable, so :func:`factor` runs the QR once
per system and keeps the basis on it for every later call; the basis keeps
its dense projector the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, InconsistentConstraints, RankZero

__all__ = [
    "ConstraintSystem",
    "ProjectorBasis",
    "factor",
    "project_gradient",
    "restore_feasibility",
    "tangent_projector",
]


@dataclass(frozen=True)
class ConstraintSystem:
    """A linear equality system ``Ax = b`` with ``A`` of shape (m, n), m <= n.

    Validation happens at construction: shapes must agree, every entry must be
    finite, and the system must not be wider than it is long in the constraint
    direction (more constraint rows than variables is rejected outright rather
    than silently treated as least squares).

    ``a`` and ``b`` are read-only copies of the arrays passed in, so the
    :class:`ProjectorBasis` that :func:`factor` keeps on the system, an n-by-n
    array of floats (two once curvature is probed, which keeps the dense
    projector on the basis), stays valid for as long as the system lives.  A
    system made with :func:`dataclasses.replace` is a new system with no
    basis yet.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        if a.ndim != 2:
            raise DimensionError(f"constraint matrix must be 2-d, got ndim={a.ndim}")
        if b.ndim != 1:
            raise DimensionError(f"right-hand side must be 1-d, got ndim={b.ndim}")
        m, n = a.shape
        if b.shape[0] != m:
            raise DimensionError(
                f"right-hand side has {b.shape[0]} entries, matrix has {m} rows"
            )
        if not 1 <= m <= n:
            raise DimensionError(f"need 1 <= m <= n, got m={m}, n={n}")
        if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
            raise DimensionError("constraint data must be finite")
        a.flags.writeable = b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class ProjectorBasis:
    """Frozen output of :func:`factor`, with read-only arrays.

    Attributes
    ----------
    rank:
        Numerical rank ``r`` of the constraint matrix.
    q1:
        (n, r) orthonormal basis of the row space of ``A`` (normal directions).
    q2:
        (n, n - r) orthonormal basis of the tangent space.  Empty second axis
        when the constraints determine the point completely (r = n).
    b_r:
        (r,) coefficients of the feasible-set offset in the ``q1`` basis: any
        feasible x satisfies ``q1^T x = b_r``.

    The first :func:`tangent_projector` call on a basis keeps the dense
    n-by-n projector on it, read-only, for as long as the basis lives.  A
    basis made with :func:`dataclasses.replace` has no projector yet.
    """

    rank: int
    q1: np.ndarray
    q2: np.ndarray
    b_r: np.ndarray

    @property
    def n(self) -> int:
        return self.q1.shape[0]


#: Relative residual threshold above which a rank-deficient system is declared
#: to have no solution.
_CONSISTENCY_RTOL = 1e-8
#: Relative size at or below which a diagonal entry of R counts as zero.
_RANK_TOL = 1e-10


def factor(cs: ConstraintSystem) -> ProjectorBasis:
    """Factor the constraint system once, for reuse by every later projection.

    Computes the column-pivoted QR factorization ``A^T[:, perm] = Q R``,
    detects the numerical rank ``r`` as the number of diagonal entries of
    ``R`` above ``_RANK_TOL`` relative to the largest one, splits ``Q`` into
    normal-space and tangent-space blocks, and solves the small positive
    definite system ``(R1 R1^T) b_r = R1 b[perm]`` that anchors the feasible
    set.

    The basis is kept on ``cs`` and returned as it is by every later call on
    the same system.  A system that raises keeps nothing and raises again on
    every call.

    Raises
    ------
    RankZero
        If the constraint matrix is numerically zero.
    InconsistentConstraints
        If the rank is deficient and the right-hand side is not in the range
        of ``A`` (checked by restoring the origin and measuring ``Ax - b``).
    """
    # Not functools.cached_property: on Python 3.11 it takes one lock per
    # class, which would serialize solves on separate threads.
    cached = getattr(cs, "_basis", None)
    if cached is not None:
        return cached
    q, r_full, perm = scipy.linalg.qr(cs.a.T, pivoting=True)
    # Rank 0 when R's largest diagonal entry is zero or overflowed to inf.
    diag = np.abs(np.diag(r_full))
    rank = int(np.count_nonzero(diag > _RANK_TOL * diag[0]))
    if rank == 0:
        raise RankZero("constraint matrix is numerically zero")

    # Views taken from here on are read-only too.
    q.flags.writeable = False
    q1 = q[:, :rank]
    q2 = q[:, rank:]
    r1 = r_full[:rank, :]
    b_perm = cs.b[perm]
    gram = r1 @ r1.T
    b_r = scipy.linalg.solve(gram, r1 @ b_perm, assume_a="pos")
    b_r.flags.writeable = False

    basis = ProjectorBasis(rank=rank, q1=q1, q2=q2, b_r=b_r)
    if rank < cs.m:
        # Deficient rank: b may have a component outside range(A).  The
        # restored origin is the least-squares feasible point; if it misses
        # b, no point satisfies the system.
        x_probe = restore_feasibility(basis, np.zeros(cs.n))
        gap = float(np.max(np.abs(cs.a @ x_probe - cs.b)))
        if gap > _CONSISTENCY_RTOL * max(1.0, float(np.max(np.abs(cs.b)))):
            raise InconsistentConstraints(
                f"rank-deficient system has no solution (residual {gap:.3e})"
            )
    object.__setattr__(cs, "_basis", basis)
    return basis


def project_gradient(basis: ProjectorBasis, g: np.ndarray) -> np.ndarray:
    """Apply the tangent-space projector ``P`` to a vector (or to each column
    of a matrix) without ever forming ``P``.

    Uses whichever basis block is thinner: ``g - Q1 (Q1^T g)`` when the rank
    is below n/2, ``Q2 (Q2^T g)`` otherwise.  Both forms are exact in real
    arithmetic; at the tie ``r = n/2`` the ``Q2`` form is preferred because
    its output lies in the span of ``Q2`` by construction, keeping the
    normal-space roundoff relative to the *projected* vector rather than to
    the full input.
    """
    g = np.asarray(g, dtype=float)
    if g.shape[0] != basis.n:
        raise DimensionError(
            f"vector has leading dimension {g.shape[0]}, basis expects {basis.n}"
        )
    if 2 * basis.rank < basis.n:
        return g - basis.q1 @ (basis.q1.T @ g)
    return basis.q2 @ (basis.q2.T @ g)


def tangent_projector(basis: ProjectorBasis) -> np.ndarray:
    """The dense tangent-space projector ``P``, read-only and column-major.

    Column ``i`` is ``project_gradient(basis, I)[:, i]`` bit for bit, so row
    ``i`` of ``P.T`` is the projected i-th coordinate direction, contiguous
    in memory.  Built on the first call and kept on ``basis``: every later
    call returns the same array.
    """
    # Not functools.cached_property, as in factor.  Threads that race here
    # each build the same array bit for bit, and the last one stored is kept.
    cached = getattr(basis, "_projector", None)
    if cached is not None:
        return cached
    p = np.asfortranarray(project_gradient(basis, np.eye(basis.n)))
    p.flags.writeable = False
    object.__setattr__(basis, "_projector", p)
    return p


def restore_feasibility(basis: ProjectorBasis, x: np.ndarray) -> np.ndarray:
    """Project ``x`` onto the feasible set: the unique closest point with
    ``Q1^T x = b_r``.  Feasible inputs are returned unchanged up to roundoff."""
    x = np.asarray(x, dtype=float)
    if x.shape != (basis.n,):
        raise DimensionError(f"point has shape {x.shape}, expected ({basis.n},)")
    return x - basis.q1 @ (basis.q1.T @ x - basis.b_r)

