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
from functools import cached_property

import numpy as np

from .errors import (
    MalformedDescriptor,
    NotStrictlyConvex,
    PathConvexityFailure,
    PoleViolation,
    RootNotFound,
)

NORTH_POLE = np.array([0.0, 0.0, 1.0])
# N with signed zeros: -0.0 + v == v for every v, so the chord point
# N + t (x, y, -2) rounds exactly like (t x, t y, 1 - 2 t), zero signs included
_CHORD_ORIGIN = np.array([-0.0, -0.0, 1.0])
RAY_NEWTON_ITERATIONS = 60
# Bisections allowed in _bisect_polish, for chords and rays alike. Their
# brackets have hi >= 1 and width at most hi, which reaches 1e-14*hi in at
# most 47 halvings, so the cap only stops a bisection that cannot converge.
CHART_BISECTION_ITERATIONS = 100


class ConvexBody:
    """Base class for a gauge F, which must be convex on all of R^3.

    make_path relies on it; the built-in gauges are sums of even powers of
    linear forms. A subclass defines a descriptor and one of two method
    sets. The batched values/gradients/hessians take an (m, 3) array of
    points and return shapes (m,), (m, 3) and (m, 3, 3); the built-in
    bodies define only these, with numpy. The scalar value/gradient/hessian
    take one point and are one-row views of the batched methods, so a
    subclass may define the scalar set instead: the batched methods then
    loop over the rows with it. A subclass that defines neither set raises
    NotImplementedError.
    """

    def value(self, x) -> float:
        self._require("values")
        return float(self.values(np.asarray(x, dtype=float)[None])[0])

    def gradient(self, x) -> np.ndarray:
        self._require("gradients")
        return self.gradients(np.asarray(x, dtype=float)[None])[0]

    def hessian(self, x) -> np.ndarray:
        self._require("hessians")
        return self.hessians(np.asarray(x, dtype=float)[None])[0]

    def values(self, X) -> np.ndarray:
        self._require("value")
        return np.array([self.value(x) for x in np.asarray(X, dtype=float)],
                        dtype=float)

    def gradients(self, X) -> np.ndarray:
        self._require("gradient")
        return np.array([self.gradient(x) for x in np.asarray(X, dtype=float)],
                        dtype=float).reshape(-1, 3)

    def hessians(self, X) -> np.ndarray:
        self._require("hessian")
        return np.array([self.hessian(x) for x in np.asarray(X, dtype=float)],
                        dtype=float).reshape(-1, 3, 3)

    def _require(self, name):
        """Raise unless the subclass defines the method a default calls."""
        if getattr(type(self), name) is getattr(ConvexBody, name):
            scalar = name.rstrip("s")
            raise NotImplementedError("%s defines neither %s nor %ss"
                                      % (type(self).__name__, scalar, scalar))

    @property
    def descriptor(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.descriptor)


@dataclass(frozen=True)
class Ball(ConvexBody):
    """Unit ball, F(x) = |x|^2 - 1."""

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

    @cached_property
    def _m(self):
        """Diagonal of the quadratic form, built once per body."""
        return np.array([1.0 / self.a ** 2, 1.0 / self.b ** 2, 1.0])

    def values(self, X):
        X = np.asarray(X, dtype=float)
        return _rowdot(X * X, self._m) - 1.0

    def gradients(self, X):
        return 2.0 * self._m * np.asarray(X, dtype=float)

    def hessians(self, X):
        return np.tile(np.diag(2.0 * self._m), (len(X), 1, 1))

    @property
    def descriptor(self):
        return "ellipsoid:a=%s,b=%s" % (_fmt(self.a), _fmt(self.b))


@dataclass(frozen=True)
class Superellipsoid(ConvexBody):
    """F(x) = (x/a)^p + (y/b)^p + z^p - 1 with even integer p >= 2."""

    p: int
    a: float
    b: float

    @cached_property
    def _scale(self):
        """Semi-axes, built once per body."""
        return np.array([self.a, self.b, 1.0])

    def values(self, X):
        U = np.asarray(X, dtype=float) / self._scale
        return np.sum(U ** self.p, axis=1) - 1.0

    def gradients(self, X):
        s = self._scale
        U = np.asarray(X, dtype=float) / s
        return self.p * U ** (self.p - 1) / s

    def hessians(self, X):
        s = self._scale
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
    """Convex combination (1-s) F0 + s F1 of two gauges, itself convex.

    Blending gauges rather than boundary parametrizations keeps every
    intermediate body convex; make_path shows it strictly convex.
    """

    body0: ConvexBody
    body1: ConvexBody
    s: float

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
        try:
            finite = bool(np.isfinite(body._m).all())
        except ArithmeticError:  # 1/a**2 divides by zero or overflows
            finite = False
        if not finite:
            raise MalformedDescriptor("ellipsoid semi-axes a=%g, b=%g give a "
                                      "gauge that is not finite"
                                      % (vals["a"], vals["b"]))
    elif name == "superellipsoid":
        vals = _take(params, ("p", "a", "b"))
        p = vals["p"]
        if p > 2 ** 53:
            raise MalformedDescriptor("superellipsoid exponent must be at most "
                                      "2**53, got %r" % (p,))
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
            k = k.strip()
            if k in params:
                raise MalformedDescriptor("repeated parameter %r" % k)
            try:
                params[k] = float(v)
            except ValueError:
                raise MalformedDescriptor("bad numeric value %r" % v)
        return name.strip(), _finite(params)
    tokens = text.split()
    name = tokens[0]
    positional = {"ellipsoid": ("a", "b", "c"), "superellipsoid": ("p", "a", "b")}
    if len(tokens) == 1:
        return name, {}
    if name not in positional or len(tokens) - 1 > len(positional[name]):
        raise MalformedDescriptor("cannot parse descriptor %r" % text)
    try:
        params = {k: float(v) for k, v in zip(positional[name], tokens[1:])}
    except ValueError:
        raise MalformedDescriptor("bad numeric value in %r" % text)
    return name, _finite(params)


def _finite(params: dict) -> dict:
    bad = [k for k, v in params.items() if not math.isfinite(v)]
    if bad:
        raise MalformedDescriptor("parameter(s) not finite: %s"
                                  % ", ".join(bad))
    return params


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
    F = body.values(np.array([NORTH_POLE, np.zeros(3)]))
    if abs(F[0]) > 1e-10:
        raise PoleViolation("F(0,0,1) = %.3e, boundary must pass through the "
                            "north pole" % F[0])
    g = body.gradients(NORTH_POLE[None])[0]
    if g[2] <= 0 or max(abs(g[0]), abs(g[1])) > 1e-10 * max(1.0, abs(g[2])):
        raise PoleViolation("gradient at the north pole must point along +z, "
                            "got %s" % (g,))
    if F[1] >= 0:
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
    """Ray parameters: double a bracket [0, hi] from hi = 1 until F(o + hi d)
    > 0, then bisect and polish it with _bisect_polish."""
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
    return _bisect_polish(body, origins, dirs, np.zeros(len(dirs)), hi)


def _bisect_polish(body: ConvexBody, origins, dirs, lo, hi) -> np.ndarray:
    """Roots t of F(o + t d) in brackets [lo, hi], F < 0 at lo, by bisection
    and two Newton polish steps, all rows in lockstep.

    origins is one point (3,) or one per row. A row is bisected until
    hi - lo <= 1e-14 max(1, hi); Newton then starts from the midpoint and
    skips a step at a zero slope. A narrow row is still evaluated, though no
    longer updated, until every row is narrow: brackets of width between
    hi/2 and hi need about the same number of steps. Raises RootNotFound
    when a row is still not narrow after CHART_BISECTION_ITERATIONS steps.
    """
    for _ in range(CHART_BISECTION_ITERATIONS):
        # a row once narrow keeps its bracket, so it stays narrow
        wide = hi - lo > 1e-14 * np.maximum(1.0, hi)
        if not wide.any():
            break
        mid = 0.5 * (lo + hi)
        inside = body.values(origins + mid[:, None] * dirs) < 0
        lo = np.where(wide & inside, mid, lo)
        hi = np.where(wide & ~inside, mid, hi)
    else:
        raise RootNotFound("bisection did not converge in %d steps"
                           % CHART_BISECTION_ITERATIONS)
    t = 0.5 * (lo + hi)
    for _ in range(2):
        X = origins + t[:, None] * dirs
        slope = _rowdot(body.gradients(X), dirs)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(slope != 0, t - body.values(X) / slope, t)
    return t


def _unit_orthogonals(V: np.ndarray) -> np.ndarray:
    """A unit vector orthogonal to each row of V: the cross product with the
    coordinate axis along which the row is smallest, normalized."""
    T = np.cross(V, np.eye(3)[np.argmin(np.abs(V), axis=1)])
    return T / np.sqrt(_rowdot(T, T))[:, None]


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

    def inverse(self, zs) -> np.ndarray:
        """Boundary points over the chart coordinates zs, shape (m, 3).

        Infinity maps to N. Each chord N + t (x, y, -2) is bracketed by
        doubling hi from 1 until F >= 0, then halving lo from hi/2 until
        F < 0; all chords are then bisected and polished in lockstep.
        """
        zs = [complex(z) for z in zs]
        out = np.tile(NORTH_POLE, (len(zs), 1))
        rows = [k for k, z in enumerate(zs) if not cmath.isinf(z)]
        if not rows:
            return out
        d = np.array([[zs[k].real, zs[k].imag, -2.0] for k in rows])
        body = self.body
        hi = np.ones(len(d))
        todo = np.arange(len(d))
        for _ in range(200):
            todo = todo[~(body.values(_CHORD_ORIGIN + hi[todo, None] * d[todo])
                          >= 0)]
            if not todo.size:
                break
            hi[todo] *= 2.0
        else:
            raise RootNotFound("chord from the pole never exits the body")
        lo = hi / 2.0
        todo = np.arange(len(d))
        for _ in range(2000):
            todo = todo[~(body.values(_CHORD_ORIGIN + lo[todo, None] * d[todo])
                          < 0)]
            if not todo.size:
                break
            lo[todo] /= 2.0
        else:
            raise RootNotFound("cannot bracket the chord intersection")
        t = _bisect_polish(body, _CHORD_ORIGIN, d, lo, hi)
        out[rows] = _CHORD_ORIGIN + t[:, None] * d
        return out


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
    """Build the ball-to-end path, certified by validating the end body.

    F_s = (1-s)(|x|^2 - 1) + s F_end with F_end convex, so for s < 1 its
    Hessian is at least 2(1-s) I: {F_s <= 0} is bounded and strictly convex.
    As for both gauges, F_s(N) = 0, grad F_s(N) points along +z and
    F_s(0) < 0. So only s = 1 can fail.
    """
    try:
        validate_body(end, n_samples=100)
    except (NotStrictlyConvex, PoleViolation) as exc:
        raise PathConvexityFailure("body path invalid at s=1.0: %s" % exc)
    return BodyPath(start=Ball(), end=end)
