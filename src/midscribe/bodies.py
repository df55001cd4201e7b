"""Smooth strictly convex bodies given by implicit gauge functions.

A body is the sublevel set {F <= 0} of a smooth gauge F with analytic
gradient and hessian. Every body is normalized to touch the plane z = 1 at
the north pole N = (0, 0, 1) from below; the chord-from-N chart then
identifies the boundary with the extended complex plane, which is how marks
are specified and carried along the homotopy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    MalformedDescriptor,
    NotStrictlyConvex,
    PathConvexityFailure,
    PoleViolation,
    RootNotFound,
)

NORTH_POLE = np.array([0.0, 0.0, 1.0])
RAY_NEWTON_ITERATIONS = 60
# A chord bracket [hi/2**k, hi] with hi >= 1 reaches width 1e-14*hi in at
# most 47 halvings, so the cap only stops a bisection that cannot converge.
CHART_BISECTION_ITERATIONS = 100


class ConvexBody:
    """Base class; subclasses provide value/gradient/hessian and a descriptor.

    The batched forms values/gradients/hessians take an (m, 3) array of
    points and return shapes (m,), (m, 3) and (m, 3, 3). By default they loop
    over the rows with the scalar methods, so a subclass that defines only
    those works everywhere; the built-in bodies override them with numpy.
    """

    def value(self, x) -> float:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, x) -> np.ndarray:
        raise NotImplementedError

    def values(self, X) -> np.ndarray:
        return np.array([self.value(x) for x in np.asarray(X, dtype=float)],
                        dtype=float)

    def gradients(self, X) -> np.ndarray:
        return np.array([self.gradient(x) for x in np.asarray(X, dtype=float)],
                        dtype=float).reshape(-1, 3)

    def hessians(self, X) -> np.ndarray:
        return np.array([self.hessian(x) for x in np.asarray(X, dtype=float)],
                        dtype=float).reshape(-1, 3, 3)

    @property
    def descriptor(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.descriptor)


@dataclass(frozen=True)
class Ball(ConvexBody):
    """Unit ball, F(x) = |x|^2 - 1."""

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return float(x @ x) - 1.0

    def gradient(self, x):
        return 2.0 * np.asarray(x, dtype=float)

    def hessian(self, x):
        return 2.0 * np.eye(3)

    def values(self, X):
        X = np.asarray(X, dtype=float)
        return _rowdot(X, X) - 1.0

    def gradients(self, X):
        return 2.0 * np.asarray(X, dtype=float)

    def hessians(self, X):
        return np.tile(2.0 * np.eye(3), (len(X), 1, 1))

    @property
    def descriptor(self):
        return "ball"


@dataclass(frozen=True)
class Ellipsoid(ConvexBody):
    """F(x) = x^2/a^2 + y^2/b^2 + z^2 - 1 (the z-semi-axis is forced to 1)."""

    a: float
    b: float

    def _m(self):
        return np.array([1.0 / self.a ** 2, 1.0 / self.b ** 2, 1.0])

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return float(self._m() @ (x * x)) - 1.0

    def gradient(self, x):
        return 2.0 * self._m() * np.asarray(x, dtype=float)

    def hessian(self, x):
        return np.diag(2.0 * self._m())

    def values(self, X):
        X = np.asarray(X, dtype=float)
        return _rowdot(X * X, np.broadcast_to(self._m(), X.shape)) - 1.0

    def gradients(self, X):
        return 2.0 * self._m() * np.asarray(X, dtype=float)

    def hessians(self, X):
        return np.tile(np.diag(2.0 * self._m()), (len(X), 1, 1))

    @property
    def descriptor(self):
        return "ellipsoid:a=%s,b=%s" % (_fmt(self.a), _fmt(self.b))


@dataclass(frozen=True)
class Superellipsoid(ConvexBody):
    """F(x) = (x/a)^p + (y/b)^p + z^p - 1 with even integer p >= 2."""

    p: int
    a: float
    b: float

    def _scale(self):
        return np.array([self.a, self.b, 1.0])

    def value(self, x):
        u = np.asarray(x, dtype=float) / self._scale()
        return float(np.sum(u ** self.p)) - 1.0

    def gradient(self, x):
        s = self._scale()
        u = np.asarray(x, dtype=float) / s
        return self.p * u ** (self.p - 1) / s

    def hessian(self, x):
        s = self._scale()
        u = np.asarray(x, dtype=float) / s
        return np.diag(self.p * (self.p - 1) * u ** (self.p - 2) / s ** 2)

    def values(self, X):
        U = np.asarray(X, dtype=float) / self._scale()
        return np.sum(U ** self.p, axis=1) - 1.0

    def gradients(self, X):
        s = self._scale()
        U = np.asarray(X, dtype=float) / s
        return self.p * U ** (self.p - 1) / s

    def hessians(self, X):
        s = self._scale()
        U = np.asarray(X, dtype=float) / s
        out = np.zeros((len(U), 3, 3))
        idx = np.arange(3)
        out[:, idx, idx] = self.p * (self.p - 1) * U ** (self.p - 2) / s ** 2
        return out

    @property
    def descriptor(self):
        return "superellipsoid:p=%d,a=%s,b=%s" % (self.p, _fmt(self.a), _fmt(self.b))


@dataclass(frozen=True)
class GaugeBlend(ConvexBody):
    """Convex combination (1-s) F0 + s F1 of two gauges.

    A convex combination of convex functions is convex, so blending gauges
    (rather than boundary parametrizations) keeps every intermediate body
    strictly convex for free.
    """

    body0: ConvexBody
    body1: ConvexBody
    s: float

    def value(self, x):
        return (1.0 - self.s) * self.body0.value(x) + self.s * self.body1.value(x)

    def gradient(self, x):
        return (1.0 - self.s) * self.body0.gradient(x) + self.s * self.body1.gradient(x)

    def hessian(self, x):
        return (1.0 - self.s) * self.body0.hessian(x) + self.s * self.body1.hessian(x)

    def values(self, X):
        return (1.0 - self.s) * self.body0.values(X) + self.s * self.body1.values(X)

    def gradients(self, X):
        return ((1.0 - self.s) * self.body0.gradients(X)
                + self.s * self.body1.gradients(X))

    def hessians(self, X):
        return ((1.0 - self.s) * self.body0.hessians(X)
                + self.s * self.body1.hessians(X))

    @property
    def descriptor(self):
        return "blend:s=%s,%s,%s" % (_fmt(self.s), self.body0.descriptor,
                                     self.body1.descriptor)


def _fmt(x: float) -> str:
    if float(x) == int(x):
        return str(int(x))
    return repr(float(x))


def make_body(descriptor: str) -> ConvexBody:
    """Parse a body descriptor and validate the result.

    Grammar: ``ball`` | ``ellipsoid:a=<f>,b=<f>[,c=<f>]`` |
    ``superellipsoid:p=<even int>,a=<f>,b=<f>``. Space-separated positional
    forms (``ellipsoid 1.2 1.0``) are accepted as well.
    """
    text = descriptor.strip()
    if not text:
        raise MalformedDescriptor("empty body descriptor")
    name, params = _split_descriptor(text)
    if name == "ball":
        if params:
            raise MalformedDescriptor("ball takes no parameters")
        body = Ball()
    elif name == "ellipsoid":
        vals = _take(params, ("a", "b"), optional=("c",))
        c = vals.get("c", 1.0)
        if abs(c - 1.0) > 1e-12:
            raise PoleViolation("ellipsoid z-semi-axis must be 1 so the north "
                                "pole lies on the boundary (got c=%g)" % c)
        if vals["a"] <= 0 or vals["b"] <= 0:
            raise MalformedDescriptor("ellipsoid semi-axes must be positive")
        body = Ellipsoid(a=vals["a"], b=vals["b"])
    elif name == "superellipsoid":
        vals = _take(params, ("p", "a", "b"))
        p = vals["p"]
        if p != int(p) or int(p) < 2 or int(p) % 2 != 0:
            raise MalformedDescriptor("superellipsoid exponent must be an even "
                                      "integer >= 2, got %r" % (p,))
        if vals["a"] <= 0 or vals["b"] <= 0:
            raise MalformedDescriptor("superellipsoid semi-axes must be positive")
        body = Superellipsoid(p=int(p), a=vals["a"], b=vals["b"])
    else:
        raise MalformedDescriptor("unknown body %r" % name)
    validate_body(body)
    return body


def _split_descriptor(text: str):
    if ":" in text:
        name, rest = text.split(":", 1)
        params = {}
        for item in rest.split(","):
            if "=" not in item:
                raise MalformedDescriptor("expected key=value, got %r" % item)
            k, v = item.split("=", 1)
            try:
                params[k.strip()] = float(v)
            except ValueError:
                raise MalformedDescriptor("bad numeric value %r" % v)
        return name.strip(), params
    tokens = text.split()
    name = tokens[0]
    positional = {"ellipsoid": ("a", "b", "c"), "superellipsoid": ("p", "a", "b")}
    if len(tokens) == 1:
        return name, {}
    if name not in positional or len(tokens) - 1 > len(positional[name]):
        raise MalformedDescriptor("cannot parse descriptor %r" % text)
    try:
        return name, {k: float(v) for k, v in zip(positional[name], tokens[1:])}
    except ValueError:
        raise MalformedDescriptor("bad numeric value in %r" % text)


def _take(params: dict, required, optional=()):
    missing = [k for k in required if k not in params]
    if missing:
        raise MalformedDescriptor("missing parameter(s): %s" % ", ".join(missing))
    unknown = [k for k in params if k not in required and k not in optional]
    if unknown:
        raise MalformedDescriptor("unknown parameter(s): %s" % ", ".join(unknown))
    return dict(params)


def validate_body(body: ConvexBody, n_samples: int = 200) -> None:
    """Check the pole normalization and sampled strict convexity.

    Raises PoleViolation if N is off the boundary or its tangent plane is not
    horizontal, NotStrictlyConvex if the origin is outside, the body looks
    unbounded, or a sampled tangential hessian is not positive definite.
    """
    if abs(body.value(NORTH_POLE)) > 1e-10:
        raise PoleViolation("F(0,0,1) = %.3e, boundary must pass through the "
                            "north pole" % body.value(NORTH_POLE))
    g = body.gradient(NORTH_POLE)
    if g[2] <= 0 or max(abs(g[0]), abs(g[1])) > 1e-10 * max(1.0, abs(g[2])):
        raise PoleViolation("gradient at the north pole must point along +z, "
                            "got %s" % (g,))
    if body.value(np.zeros(3)) >= 0:
        raise NotStrictlyConvex("origin is not interior to the body")
    dirs = _spiral_directions(n_samples)
    Q = ray_roots(body, np.zeros(3), dirs)[:, None] * dirs
    grads = body.gradients(Q)
    norms = np.linalg.norm(grads, axis=1)
    flat = norms < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        normals = grads / norms[:, None]
        T1 = _unit_orthogonals(normals)
        B = np.stack([T1, np.cross(normals, T1)], axis=2)
        tang = np.swapaxes(B, 1, 2) @ body.hessians(Q) @ B
    tang[flat] = np.eye(2)
    soft = np.linalg.eigvalsh(tang)[:, 0] <= 1e-12
    bad = np.flatnonzero(flat | soft)
    if bad.size:
        k = bad[0]
        if flat[k]:
            raise NotStrictlyConvex("vanishing gradient at boundary point %s"
                                    % Q[k])
        raise NotStrictlyConvex("tangential hessian not positive definite "
                                "at %s" % Q[k])


def _spiral_directions(n: int) -> np.ndarray:
    """Unit directions along a generic spiral (axes avoided), shape (n, 3)."""
    k = np.arange(n)
    z = -1.0 + (2.0 * k + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = k * (math.pi * (3.0 - math.sqrt(5.0))) + 0.73216
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def ray_roots(body: ConvexBody, origins, dirs, t0=1.0) -> np.ndarray:
    """Parameters t > 0 where the rays origins + t*dirs cross the boundary.

    origins is one interior point (3,) or one per ray (m, 3); t0 is a warm
    start, scalar or per ray. Each ray runs Newton on F(o + t d) from its own
    start until the step falls below 1e-15 t, or stops shrinking once below
    1e-9 t (rounding noise near a grazing ray). A ray whose slope is not
    positive, whose step leaves t > 0, or that has not converged after
    RAY_NEWTON_ITERATIONS steps is solved by bisection instead. Raises
    NotStrictlyConvex when a ray never leaves the body.
    """
    dirs = np.asarray(dirs, dtype=float)
    origins = np.broadcast_to(np.asarray(origins, dtype=float), dirs.shape)
    t = np.array(np.broadcast_to(np.asarray(t0, dtype=float), len(dirs)))
    t[~(np.isfinite(t) & (t > 0))] = 1.0
    last = np.full(len(dirs), np.inf)
    todo = np.arange(len(dirs))
    fallback = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(RAY_NEWTON_ITERATIONS):
            if not todo.size:
                break
            d, t_old = dirs[todo], t[todo]
            X = origins[todo] + t_old[:, None] * d
            slope = _rowdot(body.gradients(X), d)
            step = body.values(X) / slope
            size = np.abs(step)
            failed = ~((slope > 0) & (t_old - step > 0))
            done = (size < 1e-15 * t_old) | ((size >= last[todo])
                                             & (size < 1e-9 * t_old))
            t[todo] = np.where(failed, t_old, t_old - step)
            last[todo] = size
            fallback.append(todo[failed])
            todo = todo[~(failed | done)]
    fallback.append(todo)
    bad = np.concatenate(fallback)
    if bad.size:
        t[bad] = _bisect_rays(body, origins[bad], dirs[bad])
    return t


def _bisect_rays(body: ConvexBody, origins, dirs) -> np.ndarray:
    """Ray parameters by doubling, bisection and two Newton polish steps."""
    hi = np.ones(len(dirs))
    grow = np.arange(len(dirs))
    for _ in range(80):
        X = origins[grow] + hi[grow, None] * dirs[grow]
        grow = grow[body.values(X) <= 0]
        if not grow.size:
            break
        hi[grow] *= 2.0
    else:
        raise NotStrictlyConvex("body appears unbounded along %s"
                                % dirs[grow[0]])
    lo = np.zeros(len(dirs))
    todo = np.arange(len(dirs))
    for _ in range(100):
        mid = 0.5 * (lo[todo] + hi[todo])
        inside = body.values(origins[todo] + mid[:, None] * dirs[todo]) < 0
        lo[todo] = np.where(inside, mid, lo[todo])
        hi[todo] = np.where(inside, hi[todo], mid)
        todo = todo[hi[todo] - lo[todo] >= 1e-14 * np.maximum(1.0, hi[todo])]
        if not todo.size:
            break
    t = 0.5 * (lo + hi)
    for _ in range(2):
        X = origins + t[:, None] * dirs
        slope = _rowdot(body.gradients(X), dirs)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(slope != 0, t - body.values(X) / slope, t)
    return t


def _radial_boundary_point(body: ConvexBody, direction) -> np.ndarray:
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    hi = 1.0
    for _ in range(80):
        if body.value(hi * d) > 0:
            break
        hi *= 2.0
    else:
        raise NotStrictlyConvex("body appears unbounded along %s" % d)
    lo = 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if body.value(mid * d) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, hi):
            break
    t = 0.5 * (lo + hi)
    for _ in range(2):
        df = body.gradient(t * d) @ d
        if df != 0:
            t -= body.value(t * d) / df
    return t * d


def _any_unit_orthogonal(v: np.ndarray) -> np.ndarray:
    e = np.zeros(3)
    e[int(np.argmin(np.abs(v)))] = 1.0
    t = np.cross(v, e)
    return t / np.linalg.norm(t)


def _unit_orthogonals(V: np.ndarray) -> np.ndarray:
    """_any_unit_orthogonal of every row of V."""
    T = np.cross(V, np.eye(3)[np.argmin(np.abs(V), axis=1)])
    return T / np.linalg.norm(T, axis=1, keepdims=True)


def _rowdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dot products along the last axis (broadcast), rounded like a @ b."""
    return (A[..., None, :] @ B[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class BodyChart:
    """Chord-from-N chart of a body boundary.

    forward maps q on the boundary to 2(q_x + i q_y)/(1 - q_z); inverse maps
    z to the second intersection of the chord from N toward (Re z, Im z, -1)
    with the boundary. For the ball this is a standard stereographic chart.
    """

    body: ConvexBody

    def forward(self, q) -> complex:
        q = np.asarray(q, dtype=float)
        if 1.0 - q[2] < 1e-14:
            return complex(math.inf, 0.0)
        return 2.0 * complex(q[0], q[1]) / (1.0 - q[2])

    def inverse(self, z: complex) -> np.ndarray:
        if _is_extended_infinity(z):
            return NORTH_POLE.copy()
        x, y = z.real, z.imag

        def point(t):
            return np.array([t * x, t * y, 1.0 - 2.0 * t])

        def g(t):
            return self.body.value(point(t))

        hi = 1.0
        for _ in range(200):
            if g(hi) >= 0:
                break
            hi *= 2.0
        else:
            raise RootNotFound("chord from the pole never exits the body")
        lo = hi / 2.0
        for _ in range(2000):
            if g(lo) < 0:
                break
            lo /= 2.0
        else:
            raise RootNotFound("cannot bracket the chord intersection")
        for _ in range(CHART_BISECTION_ITERATIONS):
            if not hi - lo > 1e-14 * max(1.0, hi):
                break
            mid = 0.5 * (lo + hi)
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
        else:
            raise RootNotFound("chord bisection did not converge in %d steps"
                               % CHART_BISECTION_ITERATIONS)
        t = 0.5 * (lo + hi)
        for _ in range(2):
            q = point(t)
            dg = self.body.gradient(q) @ np.array([x, y, -2.0])
            if dg != 0:
                t -= self.body.value(q) / dg
        return point(t)


def chart_inverse(chart: BodyChart, z: complex) -> np.ndarray:
    return chart.inverse(z)


def _is_extended_infinity(z) -> bool:
    try:
        return cmath.isinf(complex(z))
    except (TypeError, ValueError):
        return False


@dataclass(frozen=True)
class BodyPath:
    """Gauge homotopy F_s = (1-s) F_ball + s F_end from the unit ball to end."""

    start: ConvexBody
    end: ConvexBody

    def eval(self, s: float) -> ConvexBody:
        if s == 0.0:
            return self.start
        if s == 1.0:
            return self.end
        return GaugeBlend(self.start, self.end, float(s))


def make_path(end: ConvexBody) -> BodyPath:
    """Build the ball-to-end path, certifying convexity on a coarse s grid."""
    path = BodyPath(start=Ball(), end=end)
    for k in range(11):
        s = k / 10.0
        try:
            validate_body(path.eval(s), n_samples=100)
        except (NotStrictlyConvex, PoleViolation) as exc:
            raise PathConvexityFailure("body path invalid at s=%.1f: %s" % (s, exc))
    return path
