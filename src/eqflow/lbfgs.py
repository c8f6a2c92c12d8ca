"""Memory-one quasi-Newton model built from the most recent accepted step.

The model matrix is ``B = I - s s^T/(s^T s) + y y^T/(y^T y)`` when the stored
(step, gradient-change) pair carries usable curvature, and the identity
otherwise.  The solver needs only ``B^{-1} v``, a rank-two update applied in
O(n); no matrix is formed.  :func:`apply_inverse` keeps this, the paper's
formula; the solver lengthens its result by the pair's ``scale``, which
divides the model's eigenvalues, all in (0, 2], by a factor of at least one.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LbfgsPair", "make_pair", "zero_pair", "apply_inverse"]

_CURVATURE_FLOOR = 1e-6


class LbfgsPair:
    """A (step, projected-gradient-change) pair and the products the model
    needs, computed once at construction.

    The pair is usable only when ``|s^T y| > _CURVATURE_FLOOR * ||s||^2``;
    otherwise the model silently falls back to the identity.

    ``scale`` is the Shanno-Phua factor ``gamma = s^T y / y^T y`` when the
    pair is usable and ``gamma > 1``, else exactly 1.0.  The floor and
    Cauchy-Schwarz bound it: ``gamma <= s^T s / s^T y < 1/_CURVATURE_FLOOR``.

    Slotted, not a dataclass: the solver builds one per accepted well-posed
    step, and the products are set here once."""

    __slots__ = ("s", "y", "sy", "yy", "usable", "scale")

    def __init__(self, s: np.ndarray, y: np.ndarray) -> None:
        self.s, self.y = s, y
        self.sy = sy = float(s.dot(y))
        self.yy = yy = float(y.dot(y))
        self.usable = usable = abs(sy) > _CURVATURE_FLOOR * float(s.dot(s))
        self.scale = sy / yy if usable and sy > yy else 1.0


def make_pair(s: np.ndarray, y: np.ndarray) -> LbfgsPair:
    """Store a (step, projected-gradient-change) pair as float arrays."""
    return LbfgsPair(np.asarray(s, dtype=float), np.asarray(y, dtype=float))


def zero_pair(n: int) -> LbfgsPair:
    """The empty-history pair: model is the identity."""
    z = np.zeros(n)
    return LbfgsPair(z, z)


def apply_inverse(pair: LbfgsPair, v: np.ndarray) -> np.ndarray:
    """Compute ``B^{-1} v`` via the closed-form inverse of the rank-two update:

    ``B^{-1} v = v - [y (s^T v) + s (y^T v)]/(y^T s)
    + 2 (y^T y)(s^T v)/(y^T s)^2 * s``.
    """
    if not pair.usable:
        return np.array(v, dtype=float, copy=True)
    s, y, ys = pair.s, pair.y, pair.sy
    sv = float(s.dot(v))
    yv = float(y.dot(v))
    return v - (y * sv + s * yv) / ys + (2.0 * pair.yy * sv / ys**2) * s
