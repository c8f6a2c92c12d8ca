"""Linear equality constraints and the tangent-space projector.

Everything downstream of this module works on the affine set ``{x : Ax = b}``.
A single column-pivoted QR factorization of ``A^T`` yields an orthonormal basis
``Q1`` of the row space of ``A`` and its orthogonal complement ``Q2`` (the
tangent space of the constraint set).  The orthogonal projector onto the
tangent space is ``P = I - Q1 Q1^T = Q2 Q2^T``; callers apply it through
:func:`project_gradient`, and it is never formed.  Curvature and the SQP
baseline work in the coordinates of ``Q2``, which :func:`tangent_basis`
returns.

The factorization also produces, once, the coefficient vector ``b_r`` and
the least-norm feasible point ``x_p = Q1 b_r``, with which any point is
snapped back onto the constraint set as ``P x + x_p`` (see
:func:`restore_feasibility`).  Steps keep ``Ax = b``, so this one anchor,
computed as :func:`factor` describes, carries the feasibility of a whole run.

Projection reads only one block, ``Q1`` when the rank r is below n/2 and
``Q2`` when it is not, so a basis holds only that block beside ``x_p``, and
no n-by-n array is formed.  A :class:`ConstraintSystem` is immutable, so
:func:`factor` runs the QR once per system and keeps the basis on it, and
:func:`tangent_basis` keeps a ``Q2`` it forms on the basis the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import DimensionError, InconsistentConstraints, RankZero

__all__ = [
    "ConstraintSystem",
    "ProjectorBasis",
    "factor",
    "project_gradient",
    "restore_feasibility",
    "tangent_basis",
]


@dataclass(frozen=True)
class ConstraintSystem:
    """A linear equality system ``Ax = b`` with ``A`` of shape (m, n), m <= n.

    Validation happens at construction: shapes must agree, every entry must be
    finite, and the system must not be wider than it is long in the constraint
    direction (more constraint rows than variables is rejected outright rather
    than silently treated as least squares).

    ``a`` and ``b`` are read-only copies of the arrays passed in, so the
    :class:`ProjectorBasis` that :func:`factor` keeps on the system stays
    valid for as long as the system lives.  With r the rank of ``A``, the
    basis holds n * min(r, n - r) floats and n more for ``x_p``; when
    r < n/2, a tangent basis asked of it keeps n * (n - r) floats more.  Its
    anchor ``b_r`` comes from a triangular solve when ``A`` has full row
    rank off the tie, and from the least-squares normal equations at the tie
    or when rows are dependent (see :func:`factor`).  A system made with
    :func:`dataclasses.replace` is a new system with no basis yet.
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

    A basis holds ``x_p`` and the one block that :func:`project_gradient`
    reads, and ``None`` marks the block it does not hold: ``q2`` when
    2r < n, and ``q1`` when 2r >= n.

    Attributes
    ----------
    rank:
        Numerical rank ``r`` of the constraint matrix.
    q1:
        (n, r) orthonormal basis of the row space of ``A`` (normal
        directions), or ``None`` when 2r >= n.
    q2:
        (n, n - r) orthonormal basis of the tangent space, or ``None`` when
        2r < n.  Empty second axis when the constraints determine the point
        completely (r = n).
    b_r:
        (r,) coefficients of the feasible-set offset in the ``Q1`` basis: any
        feasible x satisfies ``Q1^T x = b_r``.  From the triangular solve
        ``R11^T b_r = b[perm]`` when the rank is m and 2r != n; from the
        least-squares normal equations ``(R1 R1^T) b_r = R1 b[perm]`` at the
        tie and when the rank is below m.
    x_p:
        (n,) the least-norm feasible point ``Q1 b_r``.

    When 2r < n, the first :func:`tangent_basis` call on a basis keeps the
    ``Q2`` it forms on it, read-only, for as long as the basis lives.  A
    basis made with :func:`dataclasses.replace` has none yet.
    """

    rank: int
    q1: Optional[np.ndarray]
    q2: Optional[np.ndarray]
    b_r: np.ndarray
    x_p: np.ndarray

    @property
    def n(self) -> int:
        return self.x_p.shape[0]


#: Relative residual threshold above which a rank-deficient system is declared
#: to have no solution.
_CONSISTENCY_RTOL = 1e-8
#: Relative size at or below which a diagonal entry of R counts as zero.
_RANK_TOL = 1e-10
#: Ratio of the largest to the smallest row scale above which :func:`factor`
#: equilibrates the rows.  Catalog rows differ by about a factor of 2.
_ROW_SCALE_RATIO = 1e3


def _lapack(routine, *args, **kwargs):
    """Call a LAPACK routine with the workspace its query asks for, and
    return its outputs without the workspace and the info flag."""
    lwork = int(routine(*args, lwork=-1, **kwargs)[-2][0])
    *out, _, info = routine(*args, lwork=lwork, **kwargs)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to {routine.__name__}")
    return out


def factor(cs: ConstraintSystem) -> ProjectorBasis:
    """Factor the constraint system once, for reuse by every later projection.

    Computes the column-pivoted QR factorization ``A^T[:, perm] = Q R`` with
    LAPACK's ``dgeqp3``, detects the numerical rank ``r`` as the number of
    diagonal entries of ``R`` above ``_RANK_TOL`` relative to the largest
    one, and anchors the feasible set by ``b_r``.  When the rows' largest
    entries differ by more than ``_ROW_SCALE_RATIO``, it first divides each
    row of ``A`` and ``b`` by the smallest power of two above that row's
    largest |entry|, so that the scale of a row cannot make it look
    dependent; the feasible set and ``P`` stay the same, and the anchor and
    the consistency check below work on the scaled rows.  The anchor:

    * full row rank (r = m) and ``2r != n``: ``R11^T b_r = b[perm]``, one
      ``dtrtrs`` that reads the leading r-by-r triangle of the ``dgeqp3``
      output in place.  Unlike the normal equations it does not square the
      condition number of ``R11``, and it allocates nothing r-by-r;
    * rank below m: the least-squares anchor ``(R1 R1^T) b_r = R1 b[perm]``,
      with ``R1`` the first r rows of ``R``, which fits the rows the rank
      dropped as well as the r it kept;
    * the tie ``2r = n``: the same normal equations.  With ``dtrtrs`` there,
      criterion 3's sum_squares at n = 100 ends ``sub-ulp`` at kkt 2.1e-6,
      above its 1e-6 tolerance, on one and on two BLAS threads: the
      predicted decrease before its phase switch is 0.38 ulp of f.

    Of ``Q`` it forms only the block that projection reads, beside
    ``x_p = Q1 b_r``, by one ``dormqr``: ``[Q1 | x_p]`` from
    ``[[I, b_r], [0, 0]]`` when ``2r < n``, and ``[Q2 | x_p]`` from
    ``[[0, b_r], [I, 0]]`` when ``2r >= n``.

    The basis is kept on ``cs`` and returned as it is by every later call on
    the same system.  A system that raises keeps nothing and raises again on
    every call.

    Raises
    ------
    RankZero
        If the constraint matrix is numerically zero.
    InconsistentConstraints
        If the rank is deficient and the right-hand side is not in the range
        of ``A`` (checked by measuring ``Ax - b`` at ``x_p``).
    """
    # Not functools.cached_property: on Python 3.11 it takes one lock per
    # class, which would serialize solves on separate threads.
    cached = getattr(cs, "_basis", None)
    if cached is not None:
        return cached
    n = cs.n
    a, b = cs.a, cs.b
    # Each row's largest |entry|, without an m-by-n temporary.
    scale = np.maximum(a.max(axis=1), -a.min(axis=1))
    nonzero = scale[scale > 0.0]
    if nonzero.size and float(nonzero.max()) / _ROW_SCALE_RATIO > float(nonzero.min()):
        # Exact powers of two, so the rows keep every bit; zero rows keep 2^0.
        exponent = np.frexp(scale)[1]
        a, b = np.ldexp(a, -exponent[:, None]), np.ldexp(b, -exponent)
    qr, jpvt, tau = _lapack(scipy.linalg.lapack.dgeqp3, a.T)
    # Rank 0 when R's largest diagonal entry is zero or overflowed to inf.
    diag = np.abs(np.diag(qr))
    rank = int(np.count_nonzero(diag > _RANK_TOL * diag[0]))
    if rank == 0:
        raise RankZero("constraint matrix is numerically zero")

    rhs = b[jpvt - 1]
    if rank == cs.m and 2 * rank != n:
        # R11^T b_r = b[perm], with R11 read where dgeqp3 left it (lda = n).
        b_r, info = scipy.linalg.lapack.dtrtrs(
            qr[:, :rank], rhs, trans=1, overwrite_b=True
        )
        if info != 0:
            raise ValueError(f"dtrtrs returned info={info}")
    else:
        r1 = np.triu(qr[:rank])
        b_r = scipy.linalg.solve(r1 @ r1.T, r1 @ rhs, assume_a="pos")
        # Freed before the basis is formed.
        del r1
    # [Q1 | x_p] or [Q2 | x_p] is Q applied to [[I, b_r], [0, 0]] or to
    # [[0, b_r], [I, 0]], the identity in the block's rows.
    thin, width = 2 * rank < n, min(rank, n - rank)
    first = 0 if thin else rank
    c = np.zeros((n, width + 1), order="F")
    c[first:first + width, :-1] = np.eye(width)
    c[:rank, -1] = b_r
    c, = _lapack(scipy.linalg.lapack.dormqr, "L", "N", qr, tau, c, overwrite_c=True)
    c.flags.writeable = b_r.flags.writeable = False
    block, x_p = c[:, :-1], c[:, -1]
    basis = ProjectorBasis(
        rank=rank, q1=block if thin else None, q2=None if thin else block, b_r=b_r, x_p=x_p
    )
    if rank < cs.m:
        # Deficient rank: b may have a component outside range(A).  x_p is
        # the least-squares feasible point; if it misses b, no point
        # satisfies the system.
        gap = float(np.max(np.abs(a.dot(x_p) - b)))
        if gap > _CONSISTENCY_RTOL * max(1.0, float(np.max(np.abs(b)))):
            raise InconsistentConstraints(
                f"rank-deficient system has no solution (residual {gap:.3e})"
            )
    object.__setattr__(cs, "_basis", basis)
    return basis


def project_gradient(basis: ProjectorBasis, g: np.ndarray) -> np.ndarray:
    """Apply the tangent-space projector ``P`` to a vector (or to each column
    of a matrix) without ever forming ``P``.

    Uses the block the basis holds: ``g - Q1 (Q1^T g)`` when the rank is
    below n/2, ``Q2 (Q2^T g)`` otherwise.  Both forms are exact in real
    arithmetic; at the tie ``r = n/2`` the basis holds ``Q2`` because the
    output of its form lies in the span of ``Q2`` by construction, keeping
    the normal-space roundoff relative to the *projected* vector rather than
    to the full input.
    """
    g = np.asarray(g, dtype=float)
    if g.shape[0] != basis.n:
        raise DimensionError(
            f"vector has leading dimension {g.shape[0]}, basis expects {basis.n}"
        )
    if basis.q1 is not None:
        return g - basis.q1.dot(basis.q1.T.dot(g))
    return basis.q2.dot(basis.q2.T.dot(g))


def tangent_basis(basis: ProjectorBasis) -> np.ndarray:
    """An orthonormal basis ``Q2`` of the tangent space, n-by-(n - r),
    read-only and column-major: the basis's own ``q2`` when it holds one.
    When it holds ``Q1`` (2r < n), the trailing n - r columns of the
    Householder QR of ``Q1``, from ``dgeqrf`` and one ``dormqr`` on
    ``[[0], [I]]``, built on the first call and kept on ``basis``."""
    if basis.q2 is not None:
        return basis.q2
    # Not functools.cached_property, as in factor.  Threads that race here
    # each build the same array bit for bit, and the last one stored is kept.
    cached = getattr(basis, "_q2", None)
    if cached is not None:
        return cached
    n, r = basis.q1.shape
    qr, tau = _lapack(scipy.linalg.lapack.dgeqrf, basis.q1)
    c = np.zeros((n, n - r), order="F")
    c[r:] = np.eye(n - r)
    q2, = _lapack(scipy.linalg.lapack.dormqr, "L", "N", qr, tau, c, overwrite_c=True)
    q2.flags.writeable = False
    object.__setattr__(basis, "_q2", q2)
    return q2


def restore_feasibility(basis: ProjectorBasis, x: np.ndarray) -> np.ndarray:
    """Project ``x`` onto the feasible set: the unique closest point with
    ``Q1^T x = b_r``, computed as ``P x + x_p`` with ``P`` applied by
    :func:`project_gradient`.  Feasible inputs are returned unchanged up to
    roundoff."""
    x = np.asarray(x, dtype=float)
    if x.shape != (basis.n,):
        raise DimensionError(f"point has shape {x.shape}, expected ({basis.n},)")
    return project_gradient(basis, x) + basis.x_p

