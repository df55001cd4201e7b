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
    DegenerateConfiguration,
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
# Bisections allowed in _bisect_polish. Its brackets, of rays and of the
# chords a chart inverse's certificates leave open, have hi >= 1 and width
# at most hi, which reaches 1e-14*hi in at most 47 halvings, so the cap only
# stops a bisection that cannot converge.
CHART_BISECTION_ITERATIONS = 100
# Newton steps per chord in _root_estimates. A ball or ellipsoid blend's
# chord is certified at the bracket's seed and takes none; a p = 4 blend's
# takes about four.
CHART_NEWTON_STEPS = 8
# The support-point ascent of ConvexBody.supports: steps allowed per row,
# and halvings of one step before a row counts as at its maximum.
SUPPORT_ITERATIONS = 60
SUPPORT_HALVINGS = 40
EPS = np.finfo(float).eps
ROUNDING = 8.0 * EPS


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
    NotImplementedError. The support function, supports, is built on the
    batched set unless a subclass gives it in closed form.
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

    def supports(self, U) -> np.ndarray:
        """The support function h_K(u) = max of u . x over the body, for
        each row of an (m, 3) array U; shape (m,). h_K(0) = 0.

        Ball, Ellipsoid and Superellipsoid give it in closed form. Here it
        is u . X at the boundary point X whose outward normal lies along u,
        found by _support_points from values/gradients/hessians; a row that
        does not converge raises DegenerateConfiguration.
        """
        U = np.asarray(U, dtype=float)
        size = np.sqrt(_rowdot(U, U))
        h = np.where(size == 0, 0.0, np.nan)
        rows = np.flatnonzero(size > 0)
        W = U[rows] / size[rows, None]
        h[rows] = size[rows] * _rowdot(W, _support_points(self, W))
        return h

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

    def supports(self, U):
        U = np.asarray(U, dtype=float)
        return np.sqrt(_rowdot(U, U))

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

    def supports(self, U):
        """|(a u_x, b u_y, u_z)|: the ellipsoid is diag(a, b, 1) applied
        to the unit ball."""
        V = np.asarray(U, dtype=float) / np.sqrt(self._m)
        return np.sqrt(_rowdot(V, V))

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

    def supports(self, U):
        """The dual norm ||(a, b, 1) u||_q, q = p / (p - 1), of the body's
        p-norm, scaled by its largest entry so that no power overflows."""
        V = np.abs(np.asarray(U, dtype=float) * self._scale)
        top = V.max(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = self.p / (self.p - 1.0)
            h = top * np.sum((V / top[:, None]) ** q, axis=1) ** (1.0 / q)
        return np.where(top == 0, 0.0, h)

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
    # finite parameters can still give a gauge that overflows, or is not
    # finite, where validation samples it (Ellipsoid's 1/a**2 may also
    # raise); no such body can be validated, let alone solved
    try:
        with np.errstate(over="raise", invalid="raise"):
            validate_body(body)
    except ArithmeticError as exc:
        raise MalformedDescriptor("%s gives a gauge that is not finite on the "
                                  "body (%s)" % (text, exc))
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
    unbounded, or a sampled tangential hessian is not positive definite, and
    FloatingPointError if the gauge, a gradient or a hessian at N, the
    origin or a sampled boundary point is not finite.
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
    H = body.hessians(Q)
    # a NaN passes every comparison in this function
    if not all(np.isfinite(A).all() for A in (F, g, norms, H)):
        raise FloatingPointError("gauge, gradient or hessian not finite on "
                                 "the body")
    flat = norms < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        normals = grads / norms[:, None]
        T1 = _unit_orthogonals(normals)
        B = np.stack([T1, np.cross(normals, T1)], axis=2)
        tang = np.swapaxes(B, 1, 2) @ H @ B
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


def _support_points(body: ConvexBody, W) -> np.ndarray:
    """The boundary points whose outward normals lie along the unit rows
    of W, (m, 3).

    Each row starts at the boundary point on the ray along w and climbs
    w . X along the boundary. Moving X by s in the tangent plane of the
    outward normal n = grad F / |grad F| turns n by A s to first order,
    with A the tangential Hessian of F over |grad F|, so the Newton step
    solves A s = t, the tangential part of w, with A's diagonal raised by
    ROUNDING times its trace. Where A is still not positive definite, as
    at the flat points of a p = 4 superellipsoid, the step is |X| t. A
    step is at most |X| long, is put back on the boundary radially by
    ray_roots, and is halved until w . X rises.

    A row stops when |t|, its step or the rise t . s / 2 that its Newton
    step predicts is within rounding of 0, or when SUPPORT_HALVINGS
    halvings of its step do not raise w . X. w . X is at most h_K(w) on
    the whole boundary and rises to first order along every step
    (t . s > 0), so a step that rises at no halving leaves w . X within
    rounding of h_K(w); near a flat maximum w . X gets there long before X
    reaches the maximizer. A row still climbing after SUPPORT_ITERATIONS
    steps raises DegenerateConfiguration.
    """
    X = ray_roots(body, np.zeros(3), W)[:, None] * W
    value = _rowdot(W, X)
    todo = np.arange(len(W))
    for _ in range(SUPPORT_ITERATIONS):
        if not todo.size:
            return X
        x, w = X[todo], W[todo]
        G = body.gradients(x)
        g = np.sqrt(_rowdot(G, G))
        n = G / g[:, None]
        a = _unit_orthogonals(n)
        b = np.cross(n, a)
        t1, t2 = _rowdot(a, w), _rowdot(b, w)
        H = body.hessians(x) / g[:, None, None]
        Ha, Hb = (H @ a[..., None])[..., 0], (H @ b[..., None])[..., 0]
        A11, A12, A22 = _rowdot(a, Ha), _rowdot(a, Hb), _rowdot(b, Hb)
        # a relative shift keeps a direction of zero curvature, such as the
        # flat one at a point off a p = 4 axis, from making A singular
        shift = ROUNDING * (np.abs(A11) + np.abs(A22))
        A11, A22 = A11 + shift, A22 + shift
        radius = np.sqrt(_rowdot(x, x))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            det = A11 * A22 - A12 * A12
            s1 = (A22 * t1 - A12 * t2) / det
            s2 = (A11 * t2 - A12 * t1) / det
            newton = (A11 > 0) & (det > 0) & np.isfinite(s1) & np.isfinite(s2)
            step = (np.where(newton, s1, radius * t1)[:, None] * a
                    + np.where(newton, s2, radius * t2)[:, None] * b)
            length = np.sqrt(_rowdot(step, step))
            step *= np.minimum(1.0, radius / length)[:, None]
            # the rise of w . X the Newton step predicts, t . s / 2
            gain = np.where(newton, 0.5 * (t1 * s1 + t2 * s2), np.inf)
        moving = ~((np.hypot(t1, t2) <= ROUNDING) | (gain <= EPS * radius)
                   | (np.minimum(length, radius) <= ROUNDING * radius))
        rows = np.flatnonzero(moving)
        for _ in range(SUPPORT_HALVINGS):
            if not rows.size:
                break
            dirs = x[rows] + step[rows]
            dirs /= np.sqrt(_rowdot(dirs, dirs))[:, None]
            Y = ray_roots(body, np.zeros(3), dirs)[:, None] * dirs
            rise = _rowdot(w[rows], Y) > value[todo[rows]]
            up = todo[rows[rise]]
            X[up], value[up] = Y[rise], _rowdot(W[up], Y[rise])
            rows = rows[~rise]
            step[rows] *= 0.5
        moving[rows] = False
        todo = todo[moving]
    raise DegenerateConfiguration(
        "support function: no boundary point with outward normal along %s "
        "after %d steps" % (W[todo[0]], SUPPORT_ITERATIONS))


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
    and two Newton polish steps, all rows in lockstep: one values call per
    halving. It takes the rays of a mesh and of ray_roots' fallback, and
    the few chords a chart inverse's certificates leave open.

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
    return _newton_polish(body, origins, dirs, 0.5 * (lo + hi))


def _newton_polish(body: ConvexBody, origins, dirs, t,
                   values=None) -> np.ndarray:
    """Two Newton steps on F(o + t d) from t, a step skipped at a zero
    slope; values, when given, are the gauge at the start points."""
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2):
            X = origins + t[:, None] * dirs
            slope = _rowdot(body.gradients(X), dirs)
            f = body.values(X) if values is None else values
            t = np.where(slope != 0, t - f / slope, t)
            values = None
    return t


def _root_estimates(body: ConvexBody, origin, dirs, lo, hi, t0,
                    f0) -> np.ndarray:
    """Newton on f(t) = F(origin + t d) from t0, row by row, each step
    clipped into the row's bracket [lo, hi]; origin is one point (3,) and
    f0 the gauge at the start points. A row stops once a step moves t by
    at most 1e-8 t, when its step is not finite (t stays), or after
    CHART_NEWTON_STEPS steps, so its result depends on that row alone.
    Newton converges quadratically on these convex chords, so the step
    after one of 1e-8 t would be near rounding.

    BodyChart.inverse takes the result as its root wherever
    _certified_chords confirms it, and bisects the other chords with
    _bisect_polish, so an estimate may be poor but never costs a bit.
    """
    t, f = np.array(t0, dtype=float), f0
    todo = np.arange(len(t))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(CHART_NEWTON_STEPS):
            if not todo.size:
                break
            X = origin + t[todo, None] * dirs[todo]
            f = body.values(X) if f is None else f
            step = f / _rowdot(body.gradients(X), dirs[todo])
            f = None
            old = t[todo]
            new = np.where(np.isfinite(step), np.minimum(
                np.maximum(old - step, lo[todo]), hi[todo]), old)
            t[todo] = new
            todo = todo[np.abs(new - old) > 1e-8 * new]
    return t


def _certified_chords(body: ConvexBody, dirs, lo, hi, t):
    """(closed, mids, values) for the chords N + t d from root estimates t
    in their brackets [lo, hi]: a chord closes when the gauge changes sign
    across the narrow bisection bracket that holds its estimate; mids are
    those brackets' midpoints and values the gauge there, where the polish
    of _bisect_polish starts.

    Bisecting [lo, hi] n times gives the brackets [lo + k w, lo + (k + 1) w]
    with w = (hi - lo) 2^-n; n is the first level at which w is at most
    1e-14 max(1, hi), found exactly from the exponents of both, and k is
    read off the estimate. One values call takes the gauge at both ends
    and at the midpoint: F < 0 at the lower end and F >= 0 at the upper
    one close the row. f(t) = F(N + t d) is convex with f(0) = 0 and
    f'(0) < 0, so its one positive root lies in that bracket. When hi = 1,
    as on every body between the planes z = -1 and z = 1, the bisection's
    midpoints are exact, so wherever its computed signs change only once
    (every root farther than F's rounding from a midpoint of the bisection)
    it ends in this bracket, and the polished root is the one
    _bisect_polish gives, bit for bit.
    """
    span = hi - lo
    m_span, e_span = np.frexp(span)
    m_bound, e_bound = np.frexp(1e-14 * np.maximum(1.0, hi))
    n = np.maximum(e_span - e_bound + (m_span > m_bound), 0)
    width = np.ldexp(span, -n)
    k = np.minimum(np.maximum(np.ceil((t - lo) / width) - 1.0, 0.0),
                   np.ldexp(1.0, n) - 1.0)
    ends = np.empty((3, len(t)))
    ends[0] = lo + k * width
    ends[1] = ends[0] + width
    ends[2] = 0.5 * (ends[0] + ends[1])
    f = body.values((_CHORD_ORIGIN + ends[..., None] * dirs).reshape(-1, 3))
    f = f.reshape(3, -1)
    return (f[0] < 0) & (f[1] >= 0), ends[2], f[2]


def _chord_seeds(lo, hi, f_lo, f_hi) -> np.ndarray:
    """Root estimates of f(t) = F(N + t d) from its bracket: N lies on the
    boundary, so f(0) = 0, and a t^2 + b t through (lo, f_lo) and (hi, f_hi)
    has its other root at -b/a. That is the exact root when F is quadratic,
    as for every ball and ellipsoid blend. A seed is clipped into [lo, hi];
    one that is not finite is hi.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slope_lo = f_lo / lo
        a = (f_hi / hi - slope_lo) / (hi - lo)
        seed = (a * lo - slope_lo) / a
    return np.where(np.isfinite(seed), np.clip(seed, lo, hi), hi)


def _unit_orthogonals(V: np.ndarray) -> np.ndarray:
    """A unit vector orthogonal to each row of V: the cross product with the
    coordinate axis along which the row is smallest, normalized."""
    T = np.cross(V, np.eye(3)[np.argmin(np.abs(V), axis=1)])
    return T / np.sqrt(_rowdot(T, T))[:, None]


def _rowdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dot products along the last axis (broadcast), rounded like a @ b."""
    return (A[..., None, :] @ B[..., :, None])[..., 0, 0]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of two (n, 3) arrays, bitwise equal to
    np.cross(a, b): the same products and differences, without np.cross's
    per-call axis and broadcast handling."""
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    return np.column_stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                            a0 * b1 - a1 * b0])


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
        F < 0, and its root t is the one a bisection of that bracket to
        width 1e-14 max(1, hi), polished by two Newton steps, would give.
        The gauge values at the bracket's ends seed the root (_chord_seeds:
        the root itself on every ball and ellipsoid blend), and one values
        call certifies the narrow bisection bracket that holds the seed by
        the gauge's signs at its ends (_certified_chords). Rows it leaves
        open, such as those of a p = 4 blend, take Newton inside their
        bracket from there (_root_estimates) and a second certificate.
        Certified rows are polished from their bracket's midpoint as
        _bisect_polish does, so the roots are the bisection's bit for bit
        on every chord with hi = 1, except where F's rounding straddles a
        midpoint of the bisection. A row still open, such as a p = 4
        blend's whose seed lies left of F's minimum along the chord, is
        that bisection itself (_bisect_polish), one values call per
        halving.
        """
        zs = [complex(z) for z in zs]
        out = np.tile(NORTH_POLE, (len(zs), 1))
        rows = [k for k, z in enumerate(zs) if not cmath.isinf(z)]
        if not rows:
            return out
        d = np.array([[zs[k].real, zs[k].imag, -2.0] for k in rows])
        body = self.body
        hi = np.ones(len(d))
        f_hi = np.empty(len(d))
        todo = np.arange(len(d))
        for _ in range(200):
            f_hi[todo] = body.values(_CHORD_ORIGIN + hi[todo, None] * d[todo])
            todo = todo[~(f_hi[todo] >= 0)]
            if not todo.size:
                break
            hi[todo] *= 2.0
        else:
            raise RootNotFound("chord from the pole never exits the body")
        lo = hi / 2.0
        f_lo = np.empty(len(d))
        todo = np.arange(len(d))
        for _ in range(2000):
            f_lo[todo] = body.values(_CHORD_ORIGIN + lo[todo, None] * d[todo])
            todo = todo[~(f_lo[todo] < 0)]
            if not todo.size:
                break
            lo[todo] /= 2.0
        else:
            raise RootNotFound("cannot bracket the chord intersection")
        t = _chord_seeds(lo, hi, f_lo, f_hi)
        closed, mids, f_mid = _certified_chords(body, d, lo, hi, t)
        todo = np.flatnonzero(~closed)
        if todo.size:
            # Newton starts from the bracket's midpoint, whose gauge value
            # the certificate took
            t[todo] = _root_estimates(body, _CHORD_ORIGIN, d[todo], lo[todo],
                                      hi[todo], mids[todo], f_mid[todo])
            newly, mids[todo], f_mid[todo] = _certified_chords(
                body, d[todo], lo[todo], hi[todo], t[todo])
            closed[todo] = newly
            todo = todo[~newly]
        if not todo.size:
            roots = _newton_polish(body, _CHORD_ORIGIN, d, mids, f_mid)
        else:
            roots = np.empty(len(d))
            roots[closed] = _newton_polish(body, _CHORD_ORIGIN, d[closed],
                                           mids[closed], f_mid[closed])
            roots[todo] = _bisect_polish(body, _CHORD_ORIGIN, d[todo],
                                         lo[todo], hi[todo])
        out[rows] = _CHORD_ORIGIN + roots[:, None] * d
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
