"""Memory-one quasi-Newton model built from the most recent accepted step.

The model matrix is ``B = I - s s^T/(s^T s) + y y^T/(y^T y)`` when the stored
(step, gradient-change) pair carries usable curvature, and the identity
otherwise.  The solver needs only ``B^{-1} v``, a rank-two update applied in
O(n); no matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LbfgsPair", "make_pair", "zero_pair", "apply_inverse"]


@dataclass(frozen=True)
class LbfgsPair:
    s: np.ndarray
    y: np.ndarray
    usable: bool


_CURVATURE_FLOOR = 1e-6


def make_pair(s: np.ndarray, y: np.ndarray) -> LbfgsPair:
    """Store a (step, projected-gradient-change) pair.

    The pair is marked usable only when ``|s^T y| > _CURVATURE_FLOOR * ||s||^2``;
    otherwise the model silently falls back to the identity.
    """
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    usable = abs(float(s @ y)) > _CURVATURE_FLOOR * float(s @ s)
    return LbfgsPair(s=s, y=y, usable=usable)


def zero_pair(n: int) -> LbfgsPair:
    """The empty-history pair: model is the identity."""
    z = np.zeros(n)
    return LbfgsPair(s=z, y=z, usable=False)


def apply_inverse(pair: LbfgsPair, v: np.ndarray) -> np.ndarray:
    """Compute ``B^{-1} v`` via the closed-form inverse of the rank-two update:

    ``B^{-1} v = v - [y (s^T v) + s (y^T v)]/(y^T s)
    + 2 (y^T y)(s^T v)/(y^T s)^2 * s``.
    """
    if not pair.usable:
        return np.array(v, dtype=float, copy=True)
    s, y = pair.s, pair.y
    ys = float(y @ s)
    sv = float(s @ v)
    yv = float(y @ v)
    return v - (y * sv + s * yv) / ys + (2.0 * float(y @ y) * sv / ys**2) * s
