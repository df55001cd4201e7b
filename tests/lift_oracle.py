"""Per-cap reference for the sphere lift of ``midscribe.packing``.

``apply_mobius`` and ``lift_to_sphere`` are the Mobius map and the sphere
lift of one point, whose bits the array maps of ``midscribe.mobius`` give.
The rest is the lift as it was before its caps were batched: ``mapped_cap``
lifts three boundary points and an interior witness of one circle's image
and solves that cap's plane with its own SVD in ``cap_through_points``;
``lift_normalize`` makes the vertex caps, then the face caps, one at a time;
``spherical_pattern_residuals`` measures the residuals in a loop over the
edges. Tests require the batched lift to give the same caps, tangencies,
marks and residuals bit for bit, and to raise the same error first.
"""

import math
from collections import namedtuple

import numpy as np

from midscribe.errors import DegenerateMarks
from midscribe.mobius import INFINITY, is_infinity, mobius_through
from midscribe.packing import _CIRCLE_PARAMS, _LINE_PARAMS, SphericalPattern


def apply_mobius(M: np.ndarray, z: complex) -> complex:
    """The Mobius map (az + b)/(cz + d) of M at one point z."""
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


# one cap of a pattern's rows, with d a Python float as the loop below needs
Cap = namedtuple("Cap", "n d")


def cap_through_points(p1, p2, p3, interior):
    """Spherical cap through three sphere points, containing the interior
    point: (n, d) with |n| = 1, the cap {x : <n, x> >= d}."""
    A = np.array([[p1[0], p1[1], p1[2], -1.0],
                  [p2[0], p2[1], p2[2], -1.0],
                  [p3[0], p3[1], p3[2], -1.0]])
    _, sv, vt = np.linalg.svd(A)
    null = vt[-1]
    n, d = null[:3], null[3]
    scale = np.linalg.norm(n)
    if scale < 1e-12 or sv[-1] < 1e-12 * sv[0]:
        raise DegenerateMarks("three circle points do not span a unique plane "
                              "(two nearly coincide)")
    n, d = n / scale, d / scale
    side = float(n @ np.asarray(interior, dtype=float)) - d
    if side < 0:
        n, d = -n, -d
    return n, float(d)


def mapped_cap(circle, M) -> np.ndarray:
    """The cap row [n, d] of circle's image under M."""
    if circle.kind == "circle":
        params = list(_CIRCLE_PARAMS)
        witnesses = [circle.center,
                     circle.center + 0.31 * circle.radius,
                     circle.center + 0.27j * circle.radius,
                     circle.center - 0.23 * circle.radius]
    else:
        params = list(_LINE_PARAMS)
        n = circle.disk_side_normal()
        witnesses = [circle.point + n * s + circle.direction * 0.1 * s
                     for s in (1.0, 0.4, 2.9, 11.0)]
    pts = []
    for t in params:
        z = apply_mobius(M, circle.boundary_point(t))
        tries = 0
        while (is_infinity(z) or abs(z) > 1e30) and tries < 8:
            t += 0.123
            z = apply_mobius(M, circle.boundary_point(t))
            tries += 1
        pts.append(lift_to_sphere(z))
    for w in witnesses:
        zw = apply_mobius(M, w)
        if not is_infinity(zw) and abs(zw) < 1e12:
            interior = lift_to_sphere(zw)
            break
    else:
        raise DegenerateMarks("no usable interior witness for a circle")
    n, d = cap_through_points(pts[0], pts[1], pts[2], interior)
    return np.append(n, d)


def lift_normalize(pattern, marks_z) -> SphericalPattern:
    """packing.lift_normalize with one cap at a time and no residual
    check."""
    z1, z2, z3 = (complex(z) for z in marks_z)
    e1, e2, e3 = pattern.frame.edges
    sources = (pattern.tangency[e1], pattern.tangency[e2], pattern.tangency[e3])
    M = mobius_through(sources, (z1, z2, z3))
    vertex_caps = np.empty((len(pattern.vertex_circles), 4))
    for v, c in pattern.vertex_circles.items():
        vertex_caps[v] = mapped_cap(c, M)
    face_caps = np.empty((len(pattern.face_circles), 4))
    for f, c in pattern.face_circles.items():
        face_caps[f] = mapped_cap(c, M)
    tangency = np.empty((len(pattern.tangency), 3))
    for e, t in pattern.tangency.items():
        tangency[e] = lift_to_sphere(apply_mobius(M, t))
    marks = np.array([tangency[e1], tangency[e2], tangency[e3]])
    return SphericalPattern(P=pattern.P, vertex_caps=vertex_caps,
                            face_caps=face_caps, tangency=tangency,
                            marks=marks, marks_z=(z1, z2, z3),
                            frame=pattern.frame)


def spherical_pattern_residuals(pat: SphericalPattern):
    """Worst-case residuals of a spherical pattern, keyed by kind."""
    P = pat.P
    through = tangent = ortho = unit = 0.0
    for e, (a, b) in enumerate(P.edges):
        fa, fb = P.faces_of_edge(e)
        caps = [Cap(row[:3], float(row[3])) for row in
                (pat.vertex_caps[a], pat.vertex_caps[b],
                 pat.face_caps[fa], pat.face_caps[fb])]
        t = pat.tangency[e]
        unit = max(unit, abs(float(t @ t) - 1.0))
        through = max(through, max(abs(float(c.n @ t) - c.d) for c in caps))
        for c1, c2 in ((caps[0], caps[1]), (caps[2], caps[3])):
            want = c1.d * c2.d - math.sqrt(max(0.0, 1.0 - c1.d ** 2)) \
                * math.sqrt(max(0.0, 1.0 - c2.d ** 2))
            tangent = max(tangent, abs(float(c1.n @ c2.n) - want))
        for cv in (caps[0], caps[1]):
            for cf in (caps[2], caps[3]):
                ortho = max(ortho, abs(float(cv.n @ cf.n) - cv.d * cf.d))
    return {"through_point": through, "tangent": tangent, "orthogonal": ortho,
            "unit_norm": unit}
