"""Scalar references for the batched gauge code in midscribe.

The built-in bodies define only batched gauges, and the chart inverse and
the verifier's line minima solve all their rows in lockstep. This module
keeps the scalar versions those replaced, with the same arithmetic: the
per-point gauge formulas of Ball, Ellipsoid, Superellipsoid and GaugeBlend
(scalar_value, scalar_gradient, scalar_hessian), the point-at-a-time chord
inverse (chart_inverse) and the per-edge line search (line_minimum, run
over every edge by tangency). The tests require the batched code to equal
them bit for bit. bisected_chart_inverse is the chord inverse its sign
certificate replaced, bisection of every chord; the certified inverse
gives its roots bit for bit wherever the gauge's rounding does not
straddle a midpoint of the bisection. bisected_line_minimum is the line
search the Newton certificate replaced, a least-squares point and
bisection of the slope on every line; the certified minima must agree
with it to rounding.
bisect_polish and bisect_slopes are the lockstep bisections, one gauge
call per halving: bisect_polish is the reference of
bodies._bisect_polish, which bisects the rays and the chords the chart
inverse's certificates leave open, and bisect_slopes the one whose
halvings verify._bisect_slopes predicts and checks in a few batched calls
in the fallback of the line minima.
"""

import cmath
import math

import numpy as np

from midscribe.bodies import (CHART_BISECTION_ITERATIONS, CHART_NEWTON_STEPS,
                              Ball, Ellipsoid, GaugeBlend, Superellipsoid,
                              _rowdot)
from midscribe.errors import RootNotFound
from midscribe.verify import LINE_BISECTIONS


def scalar_value(body, x):
    x = np.asarray(x, dtype=float)
    if isinstance(body, Ball):
        return float(x @ x) - 1.0
    if isinstance(body, Ellipsoid):
        return float(_ellipsoid_m(body) @ (x * x)) - 1.0
    if isinstance(body, Superellipsoid):
        u = x / np.array([body.a, body.b, 1.0])
        return float(np.sum(u ** body.p)) - 1.0
    if isinstance(body, GaugeBlend):
        return ((1.0 - body.s) * scalar_value(body.body0, x)
                + body.s * scalar_value(body.body1, x))
    return body.value(x)


def scalar_gradient(body, x):
    x = np.asarray(x, dtype=float)
    if isinstance(body, Ball):
        return 2.0 * x
    if isinstance(body, Ellipsoid):
        return 2.0 * _ellipsoid_m(body) * x
    if isinstance(body, Superellipsoid):
        s = np.array([body.a, body.b, 1.0])
        u = x / s
        return body.p * u ** (body.p - 1) / s
    if isinstance(body, GaugeBlend):
        return ((1.0 - body.s) * scalar_gradient(body.body0, x)
                + body.s * scalar_gradient(body.body1, x))
    return body.gradient(x)


def scalar_hessian(body, x):
    x = np.asarray(x, dtype=float)
    if isinstance(body, Ball):
        return 2.0 * np.eye(3)
    if isinstance(body, Ellipsoid):
        return np.diag(2.0 * _ellipsoid_m(body))
    if isinstance(body, Superellipsoid):
        s = np.array([body.a, body.b, 1.0])
        u = x / s
        return np.diag(body.p * (body.p - 1) * u ** (body.p - 2) / s ** 2)
    if isinstance(body, GaugeBlend):
        return ((1.0 - body.s) * scalar_hessian(body.body0, x)
                + body.s * scalar_hessian(body.body1, x))
    return body.hessian(x)


def _ellipsoid_m(body):
    return np.array([1.0 / body.a ** 2, 1.0 / body.b ** 2, 1.0])


def chart_inverse(body, z):
    """Boundary point over one chart coordinate z, one chord point at a
    time, as BodyChart.inverse places it: double hi, halve lo, seed the
    root from the bracket, and certify the narrow bisection bracket that
    holds the seed by the gauge's signs at its ends; if that fails, Newton
    from its midpoint and certify again; if that fails too, bisect as
    bisected_chart_inverse does. A certified root is polished from its
    bracket's midpoint."""
    if cmath.isinf(z):
        return np.array([0.0, 0.0, 1.0])
    point, g, d = _chord(body, z)
    lo, hi, f_lo, f_hi = _chord_bracket(g)
    closed, mid, f_mid = _certified_chord(g, lo, hi,
                                          _chord_seed(lo, hi, f_lo, f_hi))
    if not closed:
        t, f = mid, f_mid
        for _ in range(CHART_NEWTON_STEPS):
            q = point(t)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = (scalar_value(body, q) if f is None else f) / (
                    scalar_gradient(body, q) @ d)
            f = None
            new = min(max(t - step, lo), hi) if math.isfinite(step) else t
            moved = abs(new - t) > 1e-8 * new
            t = new
            if not moved:
                break
        closed, mid, f_mid = _certified_chord(g, lo, hi, t)
        if not closed:
            return point(_bisected_chord(body, point, g, d, lo, hi))
    return point(_polish(body, point, d, mid, f_mid))


def _certified_chord(g, lo, hi, t):
    """(closed, midpoint, g there) of the bracket [lo + k w, lo + (k + 1) w]
    holding t, w = (hi - lo) 2^-n at the first n where w <= 1e-14 max(1,
    hi): closed where g < 0 at its lower end and g >= 0 at its upper one."""
    span = hi - lo
    m_span, e_span = math.frexp(span)
    m_bound, e_bound = math.frexp(1e-14 * max(1.0, hi))
    n = max(e_span - e_bound + (m_span > m_bound), 0)
    width = math.ldexp(span, -n)
    k = min(max(float(math.ceil((t - lo) / width)) - 1.0, 0.0),
            math.ldexp(1.0, n) - 1.0)
    left = lo + k * width
    right = left + width
    mid = 0.5 * (left + right)
    return g(left) < 0 and g(right) >= 0, mid, g(mid)


def bisected_chart_inverse(body, z):
    """Boundary point over one chart coordinate z, one chord point at a
    time, as BodyChart.inverse placed it before its Newton certificate:
    double hi, halve lo, bisect, two Newton steps."""
    if cmath.isinf(z):
        return np.array([0.0, 0.0, 1.0])
    point, g, d = _chord(body, z)
    lo, hi, _, _ = _chord_bracket(g)
    return point(_bisected_chord(body, point, g, d, lo, hi))


def _chord(body, z):
    """(point(t), the gauge g(t) at it, the direction d) of the chord
    N + t (Re z, Im z, -2)."""
    x, y = z.real, z.imag

    def point(t):
        return np.array([t * x, t * y, 1.0 - 2.0 * t])

    return point, lambda t: scalar_value(body, point(t)), np.array([x, y, -2.0])


def _chord_bracket(g):
    """(lo, hi, g(lo), g(hi)): hi doubled from 1 until g >= 0, then lo
    halved from hi / 2 until g < 0."""
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
    return lo, hi, g(lo), g(hi)


def _chord_seed(lo, hi, f_lo, f_hi):
    """The other root of a t^2 + b t through (lo, f_lo) and (hi, f_hi),
    clipped into [lo, hi]; hi where it is not finite."""
    slope_lo = f_lo / lo
    a = (f_hi / hi - slope_lo) / (hi - lo)
    try:
        seed = (a * lo - slope_lo) / a
    except ZeroDivisionError:
        return hi
    return min(max(seed, lo), hi) if math.isfinite(seed) else hi


def _bisected_chord(body, point, g, d, lo, hi):
    """Bisect [lo, hi] until hi - lo <= 1e-14 max(1, hi), then two Newton
    steps from the midpoint, a step skipped at a zero slope."""
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
    return _polish(body, point, d, 0.5 * (lo + hi))


def _polish(body, point, d, t, f=None):
    """Two Newton steps from t, a step skipped at a zero slope; f, when
    given, is the gauge at t."""
    for _ in range(2):
        q = point(t)
        dg = scalar_gradient(body, q) @ d
        if dg != 0:
            t -= (scalar_value(body, q) if f is None else f) / dg
        f = None
    return t


def bisect_polish(body, origins, dirs, lo, hi):
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


def bisect_slopes(body, Q, U, lo, hi, t0):
    """Brackets of the slope's sign change along each line Q + t U, all
    rows in lockstep, one gradients call per halving: mid = 0.5 (lo + hi),
    lo = mid where the slope at mid is < 0, else hi = mid; a row stops once
    hi - lo < 1e-14 (1 + |mid|), or keeps its bracket after LINE_BISECTIONS
    halvings. The guesses t0 are not used."""
    lo, hi = lo.copy(), hi.copy()
    todo = np.arange(len(lo))
    for _ in range(LINE_BISECTIONS):
        mid = 0.5 * (lo[todo] + hi[todo])
        X = Q[todo] + mid[:, None] * U[todo]
        below = _rowdot(body.gradients(X), U[todo]) < 0
        lo[todo] = np.where(below, mid, lo[todo])
        hi[todo] = np.where(below, hi[todo], mid)
        todo = todo[~(hi[todo] - lo[todo] < 1e-14 * (1.0 + np.abs(mid)))]
        if not todo.size:
            break
    return lo, hi


def line_minimum(body, n_f, d_f, n_g, d_g, guess):
    """(min value, minimizer) of the gauge along the line where two planes
    meet, for one line, as verify._line_minima finds it: the corrected
    closed-form point, two Newton steps from the guess, the two slopes of
    the certificate, and _bisected_minimizer where they do not change
    sign."""
    w = np.cross(n_f, n_g)
    w2 = float(w @ w)
    if math.sqrt(w2) < 1e-12:
        return math.inf, np.full(3, np.nan)
    a, b = np.cross(n_g, w), np.cross(w, n_f)
    q = (d_f * a + d_g * b) / w2
    q = q + ((d_f - n_f @ q) * a + (d_g - n_g @ q) * b) / w2
    u = w / math.sqrt(w2)
    t0 = _projected_guess(q, u, guess)
    t = t0
    for _ in range(2):
        t = _newton_step(body, q, u, t)
    delta = 1e-14 * (1.0 + abs(t))
    if not (_slope(body, q, u, t - delta) < 0
            and _slope(body, q, u, t + delta) > 0):
        t = _bisected_minimizer(body, q, u, t0)
        if t is None:
            return math.inf, np.full(3, np.nan)
    m = q + t * u
    return float(scalar_value(body, m)), m


def bisected_line_minimum(body, n_f, d_f, n_g, d_g, guess):
    """(min value, minimizer) of the gauge along the line where two planes
    meet, for one line, as verify._line_minima found it before its
    certificate: the least-squares point, then _bisected_minimizer."""
    u = np.cross(n_f, n_g)
    nu = float(np.linalg.norm(u))
    if nu < 1e-12:
        return math.inf, np.full(3, np.nan)
    u = u / nu
    A = np.vstack([n_f, n_g])
    q = np.linalg.lstsq(A, np.array([d_f, d_g]), rcond=None)[0]
    t = _bisected_minimizer(body, q, u, _projected_guess(q, u, guess))
    if t is None:
        return math.inf, np.full(3, np.nan)
    m = q + t * u
    return float(scalar_value(body, m)), m


def _projected_guess(q, u, guess):
    t0 = float((np.asarray(guess, dtype=float) - q) @ u)
    return t0 if math.isfinite(t0) else 0.0


def _slope(body, q, u, t):
    return float(scalar_gradient(body, q + t * u) @ u)


def _newton_step(body, q, u, t):
    """One Newton step on the slope at t, taken where the curvature is
    positive."""
    curv = float(u @ scalar_hessian(body, q + t * u) @ u)
    return t - _slope(body, q, u, t) / curv if curv > 0 else t


def _bisected_minimizer(body, q, u, t0):
    """The minimizer t along q + t u: bracket the slope by doubling around
    t0, bisect, two Newton steps; None where no bracket is placed."""
    lo = t0 - 1.0
    for _ in range(200):
        if _slope(body, q, u, lo) < 0:
            break
        lo = t0 - 2.0 * (t0 - lo)
    else:
        return None
    hi = t0 + 1.0
    for _ in range(200):
        if _slope(body, q, u, hi) > 0:
            break
        hi = t0 + 2.0 * (hi - t0)
    else:
        return None
    for _ in range(LINE_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if _slope(body, q, u, mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * (1.0 + abs(mid)):
            break
    t = 0.5 * (lo + hi)
    for _ in range(2):
        t = _newton_step(body, q, u, t)
    return t


def tangency(cfg, body, P, line_minimum=line_minimum):
    """(per_edge, max tangency residual): the per-edge loop check_midscription
    ran over line_minimum."""
    per_edge = []
    max_tan = 0.0
    for e in range(P.n_edges):
        f, g = P.faces_of_edge(e)
        val, minimizer = line_minimum(body, cfg.normals[f], cfg.offsets[f],
                                      cfg.normals[g], cfg.offsets[g],
                                      cfg.tangents[e])
        dist = float(np.linalg.norm(minimizer - cfg.tangents[e]))
        per_edge.append({"edge": e, "faces": (f, g), "line_min": val,
                         "minimizer_distance": dist})
        max_tan = max(max_tan, abs(val))
    return per_edge, max_tan
