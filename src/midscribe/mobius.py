"""Mobius transformations of the extended plane and the unit-sphere lift.

Transformations are 2x2 complex matrices acting by (az+b)/(cz+d), with the
point at infinity represented as a complex number with an infinite part.
The lift is the inverse of the ball's chord-from-N chart: it identifies the
extended plane with the unit sphere, sending infinity to the north pole.
apply_mobius and lift_to_sphere act on one point; their _array forms act on
arrays of points and give the same bits.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .bodies import _rowdot
from .errors import DegenerateMarks

INFINITY = complex(math.inf, 0.0)


def is_infinity(z: complex) -> bool:
    return cmath.isinf(z)


def _to_zero_one_inf(a1: complex, a2: complex, a3: complex) -> np.ndarray:
    """Matrix of the Mobius map sending (a1, a2, a3) to (0, 1, inf)."""
    if is_infinity(a1):
        return np.array([[0.0, a2 - a3], [1.0, -a3]], dtype=complex)
    if is_infinity(a2):
        return np.array([[1.0, -a1], [1.0, -a3]], dtype=complex)
    if is_infinity(a3):
        return np.array([[1.0, -a1], [0.0, a2 - a1]], dtype=complex)
    return np.array([[a2 - a3, -a1 * (a2 - a3)],
                     [a2 - a1, -a3 * (a2 - a1)]], dtype=complex)


def mobius_through(sources, targets) -> np.ndarray:
    """Matrix of the unique Mobius map with sources[i] -> targets[i].

    Either triple may contain the point at infinity; each triple must consist
    of three distinct points.
    """
    for triple in (sources, targets):
        vals = list(triple)
        for i in range(3):
            for j in range(i + 1, 3):
                same_inf = is_infinity(vals[i]) and is_infinity(vals[j])
                if same_inf or (not is_infinity(vals[i]) and not is_infinity(vals[j])
                                and vals[i] == vals[j]):
                    raise DegenerateMarks("points %r are not distinct" % (vals,))
    S = _to_zero_one_inf(*sources)
    T = _to_zero_one_inf(*targets)
    Tinv = np.array([[T[1, 1], -T[0, 1]], [-T[1, 0], T[0, 0]]], dtype=complex)
    M = Tinv @ S
    return M / np.max(np.abs(M))


def apply_mobius(M: np.ndarray, z: complex) -> complex:
    a, b = M[0]
    c, d = M[1]
    if is_infinity(z):
        return a / c if c != 0 else INFINITY
    num = a * z + b
    den = c * z + d
    if den == 0:
        return INFINITY
    return num / den


def lift_to_sphere(z: complex) -> np.ndarray:
    """Point of the unit sphere over z; infinity lifts to the north pole."""
    if is_infinity(z):
        return np.array([0.0, 0.0, 1.0])
    s = z.real * z.real + z.imag * z.imag + 4.0
    return np.array([4.0 * z.real / s, 4.0 * z.imag / s, 1.0 - 8.0 / s])


def is_infinity_array(z: np.ndarray) -> np.ndarray:
    """is_infinity per point of the complex array z."""
    return np.isinf(z.real) | np.isinf(z.imag)


def apply_mobius_array(M: np.ndarray, z: np.ndarray) -> np.ndarray:
    """apply_mobius on every point of the complex array z, bit for bit.

    numpy's array complex multiply rounds differently from the scalar one
    apply_mobius uses, so az + b and cz + d are written out in real
    arithmetic, in the scalar's order; numpy's complex division of arrays
    rounds as its scalar division does. Points that map to infinity come
    back as INFINITY, with no division by zero.
    """
    (a, b), (c, d) = M
    z = np.asarray(z, dtype=complex)
    at_infinity = is_infinity_array(z)
    zr = np.where(at_infinity, 0.0, z.real)
    zi = np.where(at_infinity, 0.0, z.imag)
    num = np.empty(z.shape, dtype=complex)
    num.real = a.real * zr - a.imag * zi + b.real
    num.imag = a.real * zi + a.imag * zr + b.imag
    den = np.empty(z.shape, dtype=complex)
    den.real = c.real * zr - c.imag * zi + d.real
    den.imag = c.real * zi + c.imag * zr + d.imag
    pole = den == 0
    w = num / np.where(pole, 1.0, den)
    w[pole] = INFINITY
    w[at_infinity] = a / c if c != 0 else INFINITY
    return w


def lift_to_sphere_array(w: np.ndarray) -> np.ndarray:
    """lift_to_sphere on every point of the complex array w, bit for bit:
    shape w.shape + (3,)."""
    at_infinity = is_infinity_array(w)
    wr = np.where(at_infinity, 0.0, w.real)
    wi = np.where(at_infinity, 0.0, w.imag)
    s = wr * wr + wi * wi + 4.0
    points = np.stack([4.0 * wr / s, 4.0 * wi / s, 1.0 - 8.0 / s], axis=-1)
    points[at_infinity] = (0.0, 0.0, 1.0)
    return points


def cap_through_points(p1, p2, p3, interior):
    """Spherical caps through three sphere points, containing an interior
    point, for one set of points or a stack of them.

    The arguments are points (3,) or stacks (m, 3), broadcast together.
    Returns (n, d), n of shape (..., 3) with |n| = 1 and d of shape (...),
    describing each cap {x : <n, x> >= d}; a boundary circle is the sphere
    section of the plane <n, x> = d. All planes come from one stacked SVD,
    which equals one SVD per cap bit for bit. Raises DegenerateMarks if the
    points of any cap do not span a unique plane.
    """
    p1, p2, p3, interior = np.broadcast_arrays(
        *(np.asarray(p, dtype=float) for p in (p1, p2, p3, interior)))
    A = np.stack([p1, p2, p3], axis=-2)
    A = np.concatenate([A, np.full(A.shape[:-1] + (1,), -1.0)], axis=-1)
    _, sv, vt = np.linalg.svd(A)
    null = vt[..., -1, :]
    n, d = null[..., :3], null[..., 3]
    scale = np.sqrt(_rowdot(n, n))
    if np.any((scale < 1e-12) | (sv[..., -1] < 1e-12 * sv[..., 0])):
        raise DegenerateMarks("three circle points do not span a unique plane "
                              "(two nearly coincide)")
    n, d = n / scale[..., None], d / scale
    flip = _rowdot(n, interior) - d < 0
    return np.where(flip[..., None], -n, n), np.where(flip, -d, d)
