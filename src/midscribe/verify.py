"""Independent checks of a solved configuration.

Everything here recomputes geometry from the face planes alone: edge lines
come from plane intersections, tangency is re-established by minimizing the
gauge along each full line, and the two disk packings are traced on the body
surface by root finding. Solver residuals are never consulted, so a
configuration that merely claims convergence does not pass. The verifier
imports nothing from the solver and shares only the gauge API with it; the
rigidity probe, which re-solves with Newton, lives in solver.

Line tangency is checked on every edge line at once through the (m, 3)
gauge API: each line's slope is bisected by bodies._verified_bisection,
the engine the chart inverse also uses, in rounds predicted from a Newton
estimate of its minimizer and checked by one gauge call per round;
incidence and convexity are array expressions over all face-vertex pairs.
The disk packings are traced in batches through the (m, 3) gauge API, all
disks of a family in lockstep: the face disks by one batched ray solve over
every face's rays in its plane, the visibility disks by one Newton solve
in (ray parameter, arc angle) over all arcs of all vertices at once, each
vertex's first arc started from the horizon of the ball through the
boundary point on its axis; the few rows it does not settle go to Newton
iterations on the horizon angle (safeguarded by bisection) in the bracket
[HORIZON_MIN, pi - 1e-9], which holds every horizon. The margins of every
disk on a disk's samples form one array that serves both the coarse contact
search and the non-degeneracy count.
Every disk pair that needs it is refined in lockstep, one batched boundary
solve per step: the maximum of one disk's margin along the other's boundary
is the root of the Lagrange condition grad F . (grad mu_i x grad mu_j),
bracketed by the samples either side of the best one and found by Brent's
zeroin. A short proof in _refine_pairs shows that no comparison of margins
places a contact better, so every pair is decided by its root, and a pair
whose root is not bracketed or does not converge fails typed. The
point-at-a-time tracer, the bisection horizon solve and the golden-section
pair refinement this replaced are the references for tests in
tests/kdisk_oracle.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import (ConvexBody, _rowdot, _unit_orthogonals,
                     _verified_bisection, ray_roots)
from .combinatorics import PolyhedralComplex
from .config import EPS_INFINITY, Configuration
from .errors import DegenerateConfiguration, NotMidscribed

TANGENCY_TOL = 1e-9
SIDE_TOL = 1e-9
CONTACT_TOL = 1e-7
CONTACT_POSITION_TOL = 1e-4
N_BOUNDARY_SAMPLES = 256
KDISK_STAGE = "K-disk extraction"
# Every horizon lies in [HORIZON_MIN, pi - 1e-9] (the proof is in
# _Arcs.solve). A three-mark normalization is a Moebius map and can shrink
# a visible cap without bound, so the lower end sits far below any cap a
# normalization is seen to make; a cap narrower than HORIZON_MIN fails
# typed.
HORIZON_MIN = 1e-12
HORIZON_XTOL = 2.0 ** -50
# Evaluations allowed in _Arcs.solve: bisecting the bracket from width pi
# to HORIZON_XTOL * HORIZON_MIN takes ceil(log2(pi) + 50 + log2(1e12)) = 92
# halvings, after the evaluation at the start, so the cap only stops a
# solve that cannot converge.
HORIZON_BISECTIONS = 93
HORIZON_GTOL = 8.0 * np.finfo(float).eps
# The joint horizon Newton (_Arcs.joint): a row still stepping after
# HORIZON_NEWTON_ITERATIONS steps goes to the bracketed solve.
HORIZON_NEWTON_ITERATIONS = 20
# The refinement of a disk pair's maximum: Brent's zeroin on the Lagrange
# condition stops at a bracket ROOT_XTOL wide in the boundary parameter.
# Its bracket, two sample spacings, is 4 pi / N_BOUNDARY_SAMPLES wide, so
# bisection alone closes it in k = ceil(log2((4 pi / 256) / 1e-12)) = 36
# halvings, and zeroin's safeguard bounds it by about (k + 1)^2 evaluations
# (Brent 1973, ch. 4): ROOT_ITERATIONS = 37^2 only stops a row that cannot
# converge.
ROOT_ITERATIONS = 1369
ROOT_XTOL = 1e-12
# Halvings of an edge line's slope bracket in _line_minima; a row still open
# after them keeps its bracket.
LINE_BISECTIONS = 100


@dataclass
class VerifyReport:
    """Residuals and classifications; serialized keys match the field names."""

    max_tangency_residual: float
    max_incidence_residual: float
    combinatorics_ok: bool
    convexity: str
    contact_graph_primal_ok: bool | None
    contact_graph_dual_ok: bool | None
    per_edge: list
    per_vertex: list
    tol: float = TANGENCY_TOL

    @property
    def midscribed(self) -> bool:
        return (self.combinatorics_ok
                and self.max_tangency_residual < self.tol
                and self.max_incidence_residual < self.tol)

    @property
    def passed(self) -> bool:
        if not self.midscribed:
            return False
        return (self.contact_graph_primal_ok is not False
                and self.contact_graph_dual_ok is not False)


@dataclass(frozen=True)
class KDisk:
    """A disk on the body boundary, owned by a face or a vertex.

    Face disks are cut out by the face plane; vertex disks are the region
    visible from the vertex (for a vertex at infinity, the limit region whose
    outward normals have nonnegative component along the vertex direction,
    flagged by at_infinity).
    """

    kind: str
    owner: int
    boundary_samples: np.ndarray
    plane: tuple | None = None
    apex: np.ndarray | None = None
    at_infinity: bool = False


@dataclass
class DiskPacking:
    disks: list
    contacts_ok: bool
    nondegenerate: bool
    max_adjacent_gap: float
    worst_position_error: float
    max_foreign_margin: float
    # disk pairs refined past the sample search, and the horizon points the
    # joint Newton left to the bracketed solve (vertex disks only); counts
    # only, never serialized
    refined_pairs: int = 0
    horizon_fallbacks: int = 0


# ---------------------------------------------------------------------------
# midscription

def _line_minima(body: ConvexBody, n_f, d_f, n_g, d_g, guesses):
    """Global minima of the gauge along the intersection lines of plane pairs.

    Row k is the line where the planes n_f[k] . x = d_f[k] and n_g[k] . x =
    d_g[k] meet. Returns (min values (m,), minimizers (m, 3)); a row whose
    planes are parallel or whose bracket cannot be placed gets (inf, nan).
    The guesses only seed the brackets and the estimates; the restriction
    of a strictly convex coercive gauge to a line is strictly convex, so
    the minimum is unique and bracketing cannot miss it. All lines are
    searched together: the slope is bracketed by doubling around the guess,
    bisected by _bisect_slopes, then polished by two Newton steps where the
    curvature is positive.
    """
    U = np.cross(n_f, n_g)
    nu = np.sqrt(_rowdot(U, U))
    values = np.full(len(U), math.inf)
    minimizers = np.full((len(U), 3), np.nan)
    live = np.flatnonzero(~(nu < 1e-12))
    U = U[live] / nu[live, None]
    Q = np.array([np.linalg.lstsq(np.vstack([n_f[k], n_g[k]]),
                                  np.array([d_f[k], d_g[k]]), rcond=None)[0]
                  for k in live]).reshape(-1, 3)

    t0 = _rowdot(np.asarray(guesses, dtype=float)[live] - Q, U)
    t0[~np.isfinite(t0)] = 0.0
    ok = np.ones(len(live), dtype=bool)
    ends = []
    for side in (-1.0, 1.0):  # lo, where the slope is < 0, then hi
        end = t0 + side
        rows = np.flatnonzero(ok)
        for _ in range(200):
            slope = _line_slopes(body, Q[rows], U[rows], end[rows])
            rows = rows[~(side * slope > 0)]
            if not rows.size:
                break
            end[rows] = t0[rows] + 2.0 * (end[rows] - t0[rows])
        ok[rows] = False
        ends.append(end)
    rows = np.flatnonzero(ok)
    Q, U = Q[rows], U[rows]
    lo, hi = _bisect_slopes(body, Q, U, ends[0][rows], ends[1][rows],
                            t0[rows])
    t = 0.5 * (lo + hi)
    for _ in range(2):
        t = _line_newton(body, Q, U, t)
    M = Q + t[:, None] * U
    values[live[rows]] = body.values(M)
    minimizers[live[rows]] = M
    return values, minimizers


def _line_slopes(body: ConvexBody, Q, U, t) -> np.ndarray:
    """Slope of the gauge along each line Q + t U at its t."""
    return _rowdot(body.gradients(Q + t[:, None] * U), U)


def _line_newton(body: ConvexBody, Q, U, t) -> np.ndarray:
    """One Newton step on the slope along each line Q + t U, taken where
    the curvature is positive; other rows keep t."""
    X = Q + t[:, None] * U
    curv = _rowdot((U[:, None, :] @ body.hessians(X))[:, 0], U)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(curv > 0, t - _line_slopes(body, Q, U, t) / curv, t)


def _bisect_slopes(body: ConvexBody, Q, U, lo, hi, t0):
    """The brackets of the lockstep bisection of the slope along each line
    Q + t U, bit for bit, in a few gradients calls instead of one per
    halving.

    The lockstep bisection halves every open row at once: mid = 0.5 (lo +
    hi), then lo = mid if the slope at mid is < 0, else hi = mid, until hi -
    lo < 1e-14 (1 + |mid|); a row still open after LINE_BISECTIONS
    halvings keeps its bracket. bodies._verified_bisection makes the same
    halvings, steered by one estimate of each row's minimizer
    (_minimizer_estimates, from the guesses t0) in every round.
    """
    est = _minimizer_estimates(body, Q, U, lo, hi, t0)
    return _verified_bisection(
        lambda rows, mids: _line_slopes(body, Q[rows], U[rows], mids) < 0,
        lo, hi, lambda rows, l, h: est[rows], LINE_BISECTIONS,
        lambda l, h, mid: h - l < 1e-14 * (1.0 + abs(mid)))


def _minimizer_estimates(body: ConvexBody, Q, U, lo, hi, t0) -> np.ndarray:
    """Estimates of the minimizers along the lines Q + t U in brackets [lo,
    hi]: two curvature-guarded Newton steps on the slope from the guesses
    t0, each clipped into the bracket. At a converged configuration the
    guess is within about 1e-11 of the minimizer. The estimates only steer
    _bisect_slopes' verified bisection, which checks each halving they
    predict."""
    t = t0
    for _ in range(2):
        t = np.minimum(np.maximum(_line_newton(body, Q, U, t), lo), hi)
    return t


def _on_face(P: PolyhedralComplex) -> np.ndarray:
    """(F, V) mask of the vertices on each face."""
    on = np.zeros((P.n_faces, P.n_vertices), dtype=bool)
    for f, cycle in enumerate(P.faces):
        on[f, list(cycle)] = True
    return on


def check_midscription(cfg: Configuration, body: ConvexBody,
                       P: PolyhedralComplex, tol: float = TANGENCY_TOL) -> VerifyReport:
    """Re-derive tangency and incidence from the planes; fill a report.

    Per edge, the gauge is minimized along the entire intersection line of
    the two face planes and the minimum must vanish within tol (the line is
    tangent). The distance from the configuration's tangent point to the
    line minimizer is reported but not gated: tangency is a property of the
    line. Incidence is evaluated on unit-normalized vertex 4-vectors, so
    vertices at infinity are checked too.
    """
    return _midscription(cfg, body, P)(tol)


def _midscription(cfg, body, P):
    """The work of check_midscription that does not depend on tol: the
    incidence residuals, the line minima and the convexity class. Returns
    the report as a function of tol."""
    v4 = cfg.vertices4 / np.linalg.norm(cfg.vertices4, axis=1, keepdims=True)
    on = _on_face(P)
    R = np.abs(_rowdot(cfg.normals[:, None, :], v4[None, :, 1:])
               - cfg.offsets[:, None] * v4[None, :, 0])
    # fmax: a nan residual is skipped, not propagated into the maxima
    worst = np.fmax.reduce(R, axis=0, where=on, initial=0.0)
    max_inc = float(np.fmax.reduce(worst, initial=0.0))
    per_vertex = [{"vertex": v,
                   "max_incidence": float(worst[v]),
                   "finite": bool(abs(v4[v, 0]) > EPS_INFINITY)}
                  for v in range(P.n_vertices)]

    f, g = np.array(P.edge_faces, dtype=int).reshape(-1, 2).T
    line_min, minimizers = _line_minima(body, cfg.normals[f], cfg.offsets[f],
                                        cfg.normals[g], cfg.offsets[g],
                                        cfg.tangents)
    D = minimizers - cfg.tangents
    dist = np.sqrt(_rowdot(D, D))
    per_edge = [{"edge": e,
                 "faces": P.edge_faces[e],
                 "line_min": float(line_min[e]),
                 "minimizer_distance": float(dist[e])}
                for e in range(P.n_edges)]
    # fmax: a nan minimum is skipped, as by the running max it replaces
    max_tan = float(np.fmax.reduce(np.abs(line_min), initial=0.0))
    convexity = check_convexity(cfg, P)

    def report(tol):
        return VerifyReport(max_tangency_residual=max_tan,
                            max_incidence_residual=max_inc,
                            combinatorics_ok=(not np.any(R[~on] <= tol)
                                              and max_inc < tol),
                            convexity=convexity,
                            contact_graph_primal_ok=None,
                            contact_graph_dual_ok=None,
                            per_edge=per_edge, per_vertex=per_vertex, tol=tol)
    return report


# ---------------------------------------------------------------------------
# convexity

def check_convexity(cfg: Configuration, P: PolyhedralComplex,
                    detailed: bool = False):
    """Classify as convex / nonconvex / projective-degenerate.

    Projective-degenerate means some vertex has |x0| <= EPS_INFINITY. Convex
    means every vertex not on a face lies strictly on the inner side of that
    face's plane (signed distance < -SIDE_TOL). With detailed=True also
    returns {min_side_distance, marginal, worst_pair}; marginal flags
    classifications within 10x SIDE_TOL of the convex/nonconvex boundary.
    """
    v4 = cfg.vertices4 / np.linalg.norm(cfg.vertices4, axis=1, keepdims=True)
    if np.any(np.abs(v4[:, 0]) <= EPS_INFINITY):
        info = {"min_side_distance": math.nan, "marginal": False,
                "worst_pair": None}
        return ("projective-degenerate", info) if detailed else "projective-degenerate"
    X = v4[:, 1:] / v4[:, :1]
    on = _on_face(P)
    S = _rowdot(cfg.normals[:, None, :], X[None]) - cfg.offsets[:, None]
    ok = not np.any(np.abs(S[on]) > 1e-7) and bool(np.all(S[~on] < -SIDE_TOL))
    # the first off-face pair in face-major order with the least margin;
    # nan and +inf never win, as in the strict running minimum
    margins = np.where(~on & (-S < math.inf), -S, math.inf)
    k = int(np.argmin(margins))
    min_margin, worst = math.inf, None
    if margins.flat[k] < math.inf:
        min_margin = float(margins.flat[k])
        worst = divmod(k, P.n_vertices)
    cls = "convex" if ok else "nonconvex"
    info = {"min_side_distance": min_margin,
            "marginal": abs(min_margin) <= 10.0 * SIDE_TOL,
            "worst_pair": worst}
    return (cls, info) if detailed else cls


# ---------------------------------------------------------------------------
# K-disk packings

def _degenerate(kind: str, owner: int, what: str) -> DegenerateConfiguration:
    return DegenerateConfiguration("%s: %s %d %s" % (KDISK_STAGE, kind, owner,
                                                     what))


def _circle(a, b, theta) -> np.ndarray:
    """Rows cos(theta) a + sin(theta) b; a, b are one vector or one per row."""
    return np.cos(theta)[:, None] * a + np.sin(theta)[:, None] * b


def _visibility(apex, c, X, grads) -> np.ndarray:
    """Row-wise (apex - c X) . grad F(X): positive where X is visible.

    c is 1 for a finite vertex at apex and 0 for a vertex at infinity in
    direction apex, whose visible region is where the outward normal has a
    positive component along apex.
    """
    return _rowdot(apex - c[..., None] * X, grads)


def _visibility_bound(apex, c, X, grads) -> np.ndarray:
    """A bound on the rounding error of _visibility: HORIZON_GTOL times the
    dot product of the magnitudes."""
    return HORIZON_GTOL * _rowdot(np.abs(apex) + c[..., None] * np.abs(X),
                                  np.abs(grads))


def _nearest_sample(t, n_samples):
    """Index of the sample nearest each boundary parameter t (angles from
    theta0) of a disk traced at n_samples equally spaced angles."""
    return np.rint(t / (2.0 * math.pi) * n_samples).astype(int) % n_samples


class _FaceDisks:
    """The regions the face planes cut from the body.

    Face f's disk lies in its plane around c0, the projection of the mean of
    its edges' tangent points; its boundary is traced by rays from c0 in the
    plane, direction cos(theta) a + sin(theta) b. The rays of all faces are
    solved together.
    """

    kind = "face"
    horizon_fallbacks = 0

    def __init__(self, body, cfg, P, theta):
        self.body = body
        self.theta0 = theta[0]
        self.normals = np.array([n / np.linalg.norm(n) for n in cfg.normals])
        self.offsets = np.asarray(cfg.offsets, dtype=float)
        self.c0 = np.empty((P.n_faces, 3))
        for f, n in enumerate(self.normals):
            c0 = cfg.tangents[list(P.boundary_edges(f))].mean(axis=0)
            self.c0[f] = c0 - (float(n @ c0) - self.offsets[f]) * n
        outside = np.flatnonzero(body.values(self.c0) >= 0)
        if outside.size:
            raise _degenerate(self.kind, int(outside[0]), "tangent centroid "
                              "is not interior to the body")
        self.a = _unit_orthogonals(self.normals)
        self.b = np.cross(self.normals, self.a)
        n_faces, n = P.n_faces, len(theta)
        X = self._points(np.repeat(np.arange(n_faces), n),
                         np.tile(theta, n_faces)).reshape(n_faces, n, 3)
        R = X - self.c0[:, None]
        self.radii = np.sqrt(_rowdot(R, R))
        self.disks = [KDisk(kind=self.kind, owner=f, boundary_samples=X[f],
                            plane=(self.normals[f], float(self.offsets[f])))
                      for f in range(n_faces)]

    def _points(self, i, theta, t0=1.0):
        w = _circle(self.a[i], self.b[i], theta)
        t = ray_roots(self.body, self.c0[i], w, t0)
        return self.c0[i] + t[:, None] * w

    def margins(self, X) -> np.ndarray:
        """Signed distance of every point to every face plane, (F, m)."""
        return _rowdot(self.normals[:, None, :], X[None]) - self.offsets[:, None]

    def pair_margins(self, j, X) -> np.ndarray:
        return _rowdot(self.normals[j], X) - self.offsets[j]

    def pair_gradients(self, j, X) -> np.ndarray:
        """Gradients of the margins of disks j at the points X, (m, 3)."""
        return self.normals[j]

    def boundary_solver(self, i):
        """Boundary points of disks i[rows] at parameters t (angles from
        theta0); each ray starts from the ray parameter of its disk's sample
        nearest t."""
        n_samples = self.radii.shape[1]

        def points(rows, t):
            owners = i[rows]
            near = _nearest_sample(t, n_samples)
            return self._points(owners, self.theta0 + t,
                                self.radii[owners, near])
        return points


class _VertexDisks:
    """The regions of the body boundary visible from each vertex.

    Vertex v's disk is traced on great-circle arcs from w, the direction of
    the vertex, towards -w: the boundary point over cos(alpha) w +
    sin(alpha) m, m = cos(psi) a + sin(psi) b, crosses the visibility
    horizon at one alpha. The arcs of all vertices are solved together, by
    one Newton solve in (ray parameter, alpha) (_Arcs.joint); the rows it
    does not settle are solved by Newton in alpha alone in the bracket
    [HORIZON_MIN, pi - 1e-9] (_Arcs.solve) and counted in
    horizon_fallbacks.
    """

    kind = "vertex"

    def __init__(self, body, cfg, P, theta):
        self.body = body
        self.theta0 = theta[0]
        self.horizon_fallbacks = 0
        positions, finite = cfg.affine_vertices()
        rows = [_vertex_visibility(cfg, P, v, positions, finite)
                for v in range(P.n_vertices)]
        self.apex = np.array([apex for apex, _, _ in rows])
        self.c = np.array([0.0 if at_inf else 1.0 for _, _, at_inf in rows])
        inside = np.flatnonzero((self.c == 1.0)
                                & (body.values(self.apex) <= 0))
        if inside.size:
            raise _degenerate(self.kind, int(inside[0]), "is not exterior to "
                              "the body")
        self.w = np.array([w for _, w, _ in rows])
        self.a = _unit_orthogonals(self.w)
        self.b = np.cross(self.w, self.a)
        n_vertices, n = P.n_vertices, len(theta)
        m = _circle(np.repeat(self.a, n, axis=0), np.repeat(self.b, n, axis=0),
                    np.tile(theta, n_vertices)).reshape(n_vertices, n, 3)
        self.alphas, X = self._trace(m)
        self.radii = np.sqrt(_rowdot(X, X))
        self.disks = [KDisk(kind=self.kind, owner=v, boundary_samples=X[v],
                            apex=apex, at_infinity=at_inf)
                      for v, (apex, _, at_inf) in enumerate(rows)]

    def _arcs(self, i, m, t):
        return _Arcs(self.body, i, self.apex[i], self.c[i], self.w[i], m, t)

    def _horizons(self, arcs, warm):
        """Horizon angles and points of every row of arcs, by the joint
        Newton from the angles warm and the ray parameters arcs.t.

        A row the joint Newton does not settle is solved by _Arcs.solve
        from warm in [HORIZON_MIN, pi - 1e-9], which brackets its horizon
        (see _Arcs.solve) once g is checked to be positive at the lower end
        and not at the upper; a row that fails the check raises
        DegenerateConfiguration, naming its vertex. Those rows are added to
        horizon_fallbacks.
        """
        alpha, X, ok = arcs.joint(warm)
        rows = np.flatnonzero(~ok)
        if rows.size:
            rest, ends = arcs.take(rows), arcs.take(rows)
            every = np.arange(rows.size)
            lo = np.full(rows.size, HORIZON_MIN)
            hi = np.full(rows.size, math.pi - 1e-9)
            missing = np.flatnonzero(~(ends.g(every, lo) > 0)
                                     | (ends.g(every, hi) > 0))
            if missing.size:
                raise _degenerate(self.kind, int(rest.owners[missing[0]]),
                                  "has no visibility horizon crossing")
            alpha[rows], X[rows] = rest.solve(lo, hi, warm[rows])
            arcs.t[rows] = rest.t
            self.horizon_fallbacks += rows.size
        return alpha, X

    def _trace(self, m):
        """Arc angles (V, n) and boundary samples (V, n, 3) of every disk,
        on the arcs m (V, n, 3). Sample 0 of each disk starts from the ray
        parameter t_w of the boundary point on its axis w and from the
        horizon of the ball of radius t_w, arccos(t_w / |apex|) (pi / 2 for
        a vertex at infinity); the others start from sample 0's horizon."""
        n_vertices, n = m.shape[:2]
        owners = np.arange(n_vertices)
        t_w = ray_roots(self.body, np.zeros(3), self.w)
        start = np.full(n_vertices, math.pi / 2)
        finite = self.c == 1.0
        start[finite] = np.arccos(
            t_w[finite] / np.linalg.norm(self.apex[finite], axis=1))
        first = self._arcs(owners, m[:, 0], t_w)
        alpha0, X0 = self._horizons(first, start)
        rest = self._arcs(np.repeat(owners, n - 1), m[:, 1:].reshape(-1, 3),
                          np.repeat(first.t, n - 1))
        alpha, X = self._horizons(rest, np.repeat(alpha0, n - 1))
        return (np.column_stack([alpha0, alpha.reshape(n_vertices, n - 1)]),
                np.concatenate([X0[:, None], X.reshape(n_vertices, n - 1, 3)],
                               axis=1))

    def margins(self, X) -> np.ndarray:
        """Visibility of every point from every vertex, (V, m)."""
        return _visibility(self.apex[:, None, :], self.c[:, None], X[None],
                           self.body.gradients(X)[None])

    def pair_margins(self, j, X) -> np.ndarray:
        return _visibility(self.apex[j], self.c[j], X, self.body.gradients(X))

    def pair_gradients(self, j, X) -> np.ndarray:
        """Gradients of the visibilities of vertices j at the points X,
        -c grad F(X) + H(X) (apex - c X), (m, 3)."""
        c = self.c[j][:, None]
        return (-c * self.body.gradients(X)
                + (self.body.hessians(X)
                   @ (self.apex[j] - c * X)[..., None])[..., 0])

    def boundary_solver(self, i):
        """Horizon points of disks i[rows] at parameters t (angles from
        theta0), by _horizons started from the arc angle and the ray
        parameter of each disk's sample nearest t."""
        n_samples = self.alphas.shape[1]

        def points(rows, t):
            owners = i[rows]
            near = _nearest_sample(t, n_samples)
            arcs = self._arcs(owners, _circle(self.a[owners], self.b[owners],
                                              self.theta0 + t),
                              self.radii[owners, near])
            return self._horizons(arcs, self.alphas[owners, near])[1]
        return points


class _Arcs:
    """Visibility arcs, one per row: the boundary point over cos(alpha) w +
    sin(alpha) m and the sign of its owner vertex's visibility function.

    joint finds the horizons by Newton in the ray parameter and alpha
    together; solve finds them by Newton in alpha alone, each trial point
    put on the boundary by a ray solve. t holds each row's last ray
    parameter, the warm start of its next ray; it is updated in place.
    """

    def __init__(self, body, owners, apex, c, w, m, t):
        self.body, self.owners = body, owners
        self.apex, self.c, self.w, self.m, self.t = apex, c, w, m, t

    def take(self, rows):
        """The arcs of the given rows, with copies of their ray parameters."""
        return _Arcs(self.body, self.owners[rows], self.apex[rows],
                     self.c[rows], self.w[rows], self.m[rows], self.t[rows])

    def points(self, rows, alpha):
        dirs = _circle(self.w[rows], self.m[rows], alpha)
        self.t[rows] = ray_roots(self.body, np.zeros(3), dirs, self.t[rows])
        return self.t[rows, None] * dirs

    def g(self, rows, alpha):
        X = self.points(rows, alpha)
        return _visibility(self.apex[rows], self.c[rows], X,
                           self.body.gradients(X))

    def _terms(self, rows, alpha, r):
        """The point X = r d, d = cos(alpha) w + sin(alpha) m, of each of
        the rows, grad F(X), g = q . grad F(X) with q = apex - c X, and the
        Jacobian (j11, j12, j21, j22) of (F, g) in (r, alpha).

        With d' = -sin(alpha) w + cos(alpha) m and H the Hessian of F at X,
        the Jacobian rows are [grad F . d, r grad F . d'] and
        [-c grad F . d + q . H d, r (-c grad F . d' + q . H d')].
        """
        c = self.c[rows]
        dirs = _circle(self.w[rows], self.m[rows], alpha)
        turn = _circle(self.m[rows], -self.w[rows], alpha)
        X = r[:, None] * dirs
        grads = self.body.gradients(X)
        q = self.apex[rows] - c[:, None] * X
        Hq = (self.body.hessians(X) @ q[..., None])[..., 0]
        Gd, Gt = _rowdot(grads, dirs), _rowdot(grads, turn)
        jacobian = (Gd, r * Gt, _rowdot(Hq, dirs) - c * Gd,
                    r * (_rowdot(Hq, turn) - c * Gt))
        return X, grads, _rowdot(q, grads), jacobian

    def g_slope(self, rows, alpha):
        """g, a bound on its rounding error, its derivative in alpha and the
        boundary points.

        On the boundary F(r d) = 0 ties r to alpha, r' = -j12 / j11 in the
        Jacobian of _terms, so the derivative of g along the arc is the
        Schur complement j22 - j21 j12 / j11. The rounding bound is
        _visibility_bound.
        """
        self.points(rows, alpha)
        X, grads, g, (j11, j12, j21, j22) = self._terms(rows, alpha,
                                                        self.t[rows])
        return (g, _visibility_bound(self.apex[rows], self.c[rows], X, grads),
                j22 - j21 * j12 / j11, X)

    def joint(self, alpha):
        """Horizons by one Newton solve in (r, alpha) per row, from the
        angles alpha and the ray parameters t; returns (alpha, horizon
        points, ok).

        The point X = r d, d = cos(alpha) w + sin(alpha) m, solves F(X) = 0
        and g = q . grad F(X) = 0 with q = apex - c X, with the Jacobian of
        _terms; each step makes one values, one gradients and one hessians
        call over the open rows. A row stops when both steps are below
        HORIZON_XTOL relative to r and alpha, or once they stop shrinking
        below 1e-9 (rounding noise). It is ok when it stopped within
        HORIZON_NEWTON_ITERATIONS steps at a finite r > 0 and an alpha in
        [HORIZON_MIN, pi - 1e-9], and g at its point put back on the
        boundary by ray_roots from r is within _visibility_bound of 0. The
        ok rows' t and points are those on the boundary; the other rows'
        points are nan, and their t may have moved.

        No bracket is needed to pick the root: the arc lies in the plane
        through the origin spanned by w and m, which holds the apex (or,
        for a vertex at infinity, its direction). The projection of grad F
        on that plane is the normal of the strictly convex section curve,
        and the apex lies outside the curve, so g vanishes on the curve
        only at the two tangent points from the apex, one on each side of
        w (for c = 0, at the two tangents parallel to the apex direction).
        A root with alpha in (0, pi) is the horizon _Arcs.solve finds.
        """
        alpha, r = np.array(alpha, dtype=float), self.t.copy()
        ok = np.zeros(len(alpha), dtype=bool)
        last = np.full(len(alpha), np.inf)
        todo = np.arange(len(alpha))
        with np.errstate(all="ignore"):
            for _ in range(HORIZON_NEWTON_ITERATIONS):
                if not todo.size:
                    break
                a, t = alpha[todo], r[todo]
                X, _, g, (j11, j12, j21, j22) = self._terms(todo, a, t)
                F = self.body.values(X)
                det = j11 * j22 - j12 * j21
                step_r = (F * j22 - j12 * g) / det
                step_a = (j11 * g - j21 * F) / det
                t, a = t - step_r, a - step_a
                size = np.maximum(np.abs(step_r) / t, np.abs(step_a) / a)
                r[todo], alpha[todo] = t, a
                valid = (np.isfinite(size) & (t > 0) & (a >= HORIZON_MIN)
                         & (a <= math.pi - 1e-9))
                done = valid & ((size <= HORIZON_XTOL)
                                | ((size >= last[todo]) & (size < 1e-9)))
                ok[todo[done]] = True
                last[todo] = size
                todo = todo[valid & ~done]
        X = np.full((len(alpha), 3), np.nan)
        rows = np.flatnonzero(ok)
        self.t[rows] = r[rows]
        X[rows] = self.points(rows, alpha[rows])
        apex, c = self.apex[rows], self.c[rows]
        grads = self.body.gradients(X[rows])
        ok[rows] = (np.abs(_visibility(apex, c, X[rows], grads))
                    <= _visibility_bound(apex, c, X[rows], grads))
        X[rows[~ok[rows]]] = np.nan
        return alpha, X, ok

    def solve(self, lo, hi, start):
        """Horizons in the brackets [lo, hi] (g(lo) > 0 >= g(hi)) by Newton
        from start, clipped into the bracket (a nan start goes to its
        midpoint); returns (alpha, horizon points).

        [HORIZON_MIN, pi - 1e-9] brackets the horizon of every cap wider
        than HORIZON_MIN: g > 0 at alpha = 0 and g < 0 at alpha = pi on
        every arc, and joint shows that the root in (0, pi) is unique. Let
        X be the boundary point on the arc. F(0) < 0 = F(X) and F is
        convex, so X . grad F(X) > 0. At alpha = 0, X = t_w w and the apex
        is lambda w with lambda > t_w, as the apex is exterior; so g =
        (lambda - t_w) / t_w X . grad F > 0, and for c = 0, g = X . grad F /
        t_w > 0. At alpha = pi, X = -t' w, so w . grad F(X) < 0 and g =
        lambda w . grad F - c X . grad F < 0.

        A Newton step is taken only when it lands in the closed bracket and
        is at most half the step before it; otherwise the bracket is
        bisected (the rtsafe safeguard). A row stops at its last evaluated
        angle when g is 0, when its bracket or its Newton step is below
        HORIZON_XTOL relative to the bracket's upper end, or when a finite
        Newton step fails the safeguard at a g within rounding of 0: from
        there on the steps are rounding noise, and bisecting the bracket
        would only cycle back. A row still running after HORIZON_BISECTIONS
        evaluations raises DegenerateConfiguration.
        """
        lo, hi = lo.copy(), hi.copy()
        alpha = np.where(np.isnan(start), 0.5 * (lo + hi),
                         np.clip(start, lo, hi))
        X = np.empty((len(alpha), 3))
        last = hi - lo
        todo = np.arange(len(alpha))
        for _ in range(HORIZON_BISECTIONS):
            at = alpha[todo]
            g, g_tol, slope, X[todo] = self.g_slope(todo, at)
            visible = g > 0
            lo[todo] = np.where(visible, at, lo[todo])
            hi[todo] = np.where(visible, hi[todo], at)
            below, above = lo[todo], hi[todo]
            with np.errstate(divide="ignore", invalid="ignore"):
                step = g / slope
            newton = at - step
            take = ((newton >= below) & (newton <= above)
                    & (np.abs(step) <= 0.5 * last[todo]))
            to = np.where(take, newton, 0.5 * (below + above))
            tol = HORIZON_XTOL * above
            done = ((g == 0) | (above - below <= tol)
                    | np.where(take, np.abs(step) <= tol,
                               (np.abs(g) <= g_tol) & np.isfinite(step)))
            last[todo] = np.abs(to - at)
            alpha[todo] = np.where(done, at, to)
            todo = todo[~done]
            if not todo.size:
                return alpha, X
        raise _degenerate("vertex", int(self.owners[todo[0]]),
                          "has no converged horizon after %d evaluations"
                          % HORIZON_BISECTIONS)


def _vertex_visibility(cfg, P, v, positions, finite):
    """Apex, arc axis w and at-infinity flag of vertex v.

    A vertex at infinity is given by its direction u, oriented along one of
    its edges (from the finite neighbour towards the tangent point).
    """
    if finite[v]:
        x = positions[v]
        return x, x / np.linalg.norm(x), False
    v4 = cfg.vertices4[v] / np.linalg.norm(cfg.vertices4[v])
    u = v4[1:] / np.linalg.norm(v4[1:])
    sign = 0.0
    for e in P.edges_of_vertex(v):
        a, b = P.edge_vertices(e)
        other = b if a == v else a
        if finite[other]:
            sign = math.copysign(1.0, float((cfg.tangents[e] - positions[other]) @ u))
            break
    if sign == 0.0:
        sign = 1.0
    return sign * u, sign * u, True


def _lagrange(family, i, j, X):
    """The Lagrange condition h of the margins of disks j along the
    boundaries of disks i, at the points X on them.

    Disk i's boundary is the curve F = 0, mu_i = 0, tangent to grad F x
    grad mu_i, so h = grad F . (grad mu_i x grad mu_j) is the derivative of
    mu_j along it times a factor of one sign along the curve: mu_j is
    extremal where h changes sign.
    """
    return _rowdot(family.body.gradients(X),
                   np.cross(family.pair_gradients(i, X),
                            family.pair_gradients(j, X)))


def _zeroin(fun, a, b, fa, fb, pa, pb):
    """Roots in the brackets [a, b], fa fb < 0, by Brent's zeroin (inverse
    quadratic and secant steps safeguarded by bisection), all rows in
    lockstep.

    fun(rows, t) returns the function at the parameters t of the given rows
    and a payload per row; pa and pb are the payloads at the ends. A row
    stops when its bracket is at most ROOT_XTOL (plus 4 eps |t|) wide or
    its function is exactly 0, at the end where the function is least.
    Returns (roots, their payloads, done); done is False for the rows still
    open after ROOT_ITERATIONS evaluations, which the bisection safeguard
    leaves only to a row whose function is not finite (see the derivation
    at ROOT_ITERATIONS).
    """
    eps = np.finfo(float).eps
    a, fa, pa = a.copy(), fa.copy(), pa.copy()
    b, fb, pb = b.copy(), fb.copy(), pb.copy()
    c, fc, pc = a.copy(), fa.copy(), pa.copy()
    d = b - a
    e = d.copy()
    done = np.zeros(len(b), dtype=bool)
    todo = np.arange(len(b))
    for evaluations in range(ROOT_ITERATIONS + 1):
        # b is the end with the least |f|, c the other end of the bracket
        r = todo[np.abs(fc[todo]) < np.abs(fb[todo])]
        a[r], fa[r], pa[r] = b[r], fb[r], pb[r]
        b[r], fb[r], pb[r] = c[r], fc[r], pc[r]
        c[r], fc[r], pc[r] = a[r], fa[r], pa[r]
        r = todo
        tol = 2.0 * eps * np.abs(b[r]) + 0.5 * ROOT_XTOL
        xm = 0.5 * (c[r] - b[r])
        stop = ((np.abs(xm) <= tol) & np.isfinite(fb[r])) | (fb[r] == 0)
        done[r[stop]] = True
        r, tol, xm = r[~stop], tol[~stop], xm[~stop]
        if not r.size or evaluations == ROOT_ITERATIONS:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            s = fb[r] / fa[r]
            q, u = fa[r] / fc[r], fb[r] / fc[r]
            secant = a[r] == c[r]
            p = np.where(secant, 2.0 * xm * s,
                         s * (2.0 * xm * q * (q - u)
                              - (b[r] - a[r]) * (u - 1.0)))
            q = np.where(secant, 1.0 - s, (q - 1.0) * (u - 1.0) * (s - 1.0))
            q = np.where(p > 0, -q, q)
            p = np.abs(p)
            step = ((np.abs(e[r]) >= tol) & (np.abs(fa[r]) > np.abs(fb[r]))
                    & (2.0 * p < 3.0 * xm * q - np.abs(tol * q))
                    & (p < np.abs(0.5 * e[r] * q)))
            e[r] = np.where(step, d[r], xm)
            d[r] = np.where(step, p / q, xm)
        a[r], fa[r], pa[r] = b[r], fb[r], pb[r]
        b[r] += np.where(np.abs(d[r]) > tol, d[r], np.copysign(tol, xm))
        fb[r], pb[r] = fun(r, b[r])
        # a new b on c's side: the bracket is [a, b], restart its steps
        restart = r[fb[r] * np.sign(fc[r]) > 0]
        c[restart], fc[restart], pc[restart] = (a[restart], fa[restart],
                                                pa[restart])
        d[restart] = e[restart] = b[restart] - a[restart]
        todo = r
    return b, pb, done


def _refine_pairs(family, i, j, k):
    """Maxima of the margins of disks j along the boundaries of disks i,
    each between the samples either side of sample k: (margins, points).

    A row's maximum is the root of the Lagrange condition h (_lagrange) in
    that bracket, by Brent's zeroin from the h of the two stored samples, so
    its ends cost no boundary solve. A row whose h does not change sign over
    its bracket, or is not finite at an end, and a row still open after
    ROOT_ITERATIONS evaluations raise DegenerateConfiguration naming both
    disks.

    The root is the best maximizer the computed margins allow, however flat
    the contact. Near a contact of order m, mu_j ~ mu* - c |s - s*|^m along
    disk i's boundary, and a computed margin carries a rounding error delta
    ~ 4 eps |grad mu_j| |X|, so a search that compares margins, such as
    golden section, can stop anywhere in |s - s*| <~ (delta / c)^(1/m). h
    is proportional to mu_j' and comes from gradients, not from differences
    of margins, so its computed sign change lies in the narrower |s - s*|
    <~ (delta / (m c))^(1/(m-1)), where mu_j is within rounding of mu*. So
    wherever the root closes it is at least as good in value and in position
    as any comparison of margins.
    """
    samples = np.array([disk.boundary_samples for disk in family.disks])
    n = samples.shape[1]
    spacing = 2.0 * math.pi / n
    X_lo, X_hi = samples[i, (k - 1) % n], samples[i, (k + 1) % n]
    h_lo, h_hi = _lagrange(family, i, j, X_lo), _lagrange(family, i, j, X_hi)

    def require(ok, what):
        bad = np.flatnonzero(~ok)
        if bad.size:
            r = bad[0]
            raise _degenerate(family.kind, int(i[r]), "has no %s maximum of "
                              "disk %d's margin" % (what, j[r]))

    require(h_lo * h_hi < 0, "bracketed")
    points = family.boundary_solver(i)

    def lagrange(rows, t):
        X = points(rows, t)
        return _lagrange(family, i[rows], j[rows], X), X

    _, X, done = _zeroin(lagrange, spacing * (k - 1), spacing * (k + 1),
                         h_lo, h_hi, X_lo, X_hi)
    require(done, "converged")
    return family.pair_margins(j, X), X


def _trace_packing(family, ends, contacts) -> DiskPacking:
    """Check every disk pair: touch at p_e when adjacent, stay clear otherwise.

    Edge e joins the disks of the owners ends[e] (disk i is owner i's) and
    claims their contact at p_e = contacts[e]. family.margins(X) is the
    signed membership of every disk at the points X (>= 0 inside its
    closure). Per disk i it is evaluated once on i's samples; that array
    gives the coarse maximum of every other disk's margin along i's
    boundary, and the non-degeneracy count (no sample may lie within
    tolerance of three disk closures). Pairs whose coarse maximum is far
    below contact are not refined; the others are refined together around
    their best sample by _refine_pairs, at a root of the Lagrange condition.
    """
    disks = family.disks
    edge = np.full((len(disks), len(disks)), -1)
    edge[ends[:, 0], ends[:, 1]] = edge[ends[:, 1], ends[:, 0]] = np.arange(
        len(ends))
    others = np.arange(len(disks))
    nondegenerate = True
    max_foreign = -math.inf
    pairs = []
    for i, disk in enumerate(disks):
        M = family.margins(disk.boundary_samples)
        M[i] = -math.inf
        if np.any(np.count_nonzero(M >= -CONTACT_TOL, axis=0) >= 2):
            nondegenerate = False
        best = np.argmax(M, axis=1)
        top = M[others, best]
        far = (edge[i] < 0) & (top < -1e-2)
        max_foreign = max(max_foreign, float(top[far].max(initial=-math.inf)))
        j = np.flatnonzero(~far)
        pairs.append((np.full(len(j), i), j, best[j]))
    i, j, k = (np.concatenate(column) for column in zip(*pairs))
    e = edge[i, j]
    adjacent = e >= 0
    m_best, x_best = _refine_pairs(family, i, j, k)
    gap = np.abs(m_best[adjacent])
    pos_err = np.linalg.norm(x_best[adjacent] - contacts[e[adjacent]], axis=1)
    foreign = m_best[~adjacent]
    max_foreign = max(max_foreign, float(foreign.max(initial=-math.inf)))
    ok = bool(np.all(gap <= CONTACT_TOL)
              and np.all(pos_err <= CONTACT_POSITION_TOL)
              and np.all(foreign < -CONTACT_TOL))
    return DiskPacking(disks=disks, contacts_ok=ok,
                       nondegenerate=nondegenerate,
                       max_adjacent_gap=float(gap.max(initial=0.0)),
                       worst_position_error=float(pos_err.max(initial=0.0)),
                       max_foreign_margin=max_foreign,
                       refined_pairs=len(i),
                       horizon_fallbacks=family.horizon_fallbacks)


def extract_kdisk_packings(cfg: Configuration, body: ConvexBody,
                           P: PolyhedralComplex):
    """Trace the face-disk and visibility-disk packings on the body boundary.

    Returns (face_packing, visibility_packing) as DiskPacking values. The
    contact graph of the face disks must equal face adjacency (the dual
    graph) and that of the visibility disks must equal the edge graph, with
    every contact at the claimed tangent point. Raises NotMidscribed when the
    configuration fails the midscription precondition, and
    DegenerateConfiguration naming the disk when one cannot be traced.
    """
    _require_midscribed(check_midscription(cfg, body, P, tol=CONTACT_TOL))
    return _trace_packings(cfg, body, P)


def _require_midscribed(pre: VerifyReport) -> None:
    if not pre.midscribed:
        raise NotMidscribed(
            "verification precondition failed: tangency %.3e, incidence %.3e"
            % (pre.max_tangency_residual, pre.max_incidence_residual))


def _trace_packings(cfg, body, P):
    """extract_kdisk_packings past its precondition."""
    theta = (2.0 * math.pi * 0.61803398874989485
             + 2.0 * math.pi * np.arange(N_BOUNDARY_SAMPLES)
             / N_BOUNDARY_SAMPLES)
    tangents = np.asarray(cfg.tangents, dtype=float)
    face_packing = _trace_packing(_FaceDisks(body, cfg, P, theta),
                                  np.array(P.edge_faces).reshape(-1, 2),
                                  tangents)
    visibility_packing = _trace_packing(_VertexDisks(body, cfg, P, theta),
                                        np.array(P.edges).reshape(-1, 2),
                                        tangents)
    return face_packing, visibility_packing


def verify_configuration(cfg: Configuration, body: ConvexBody,
                         P: PolyhedralComplex, tol: float = TANGENCY_TOL,
                         with_packings: bool = True) -> VerifyReport:
    """Full report: midscription, convexity, and both contact graphs.

    The disk packings are only extracted for convex realizations; that is
    the regime where the contact graphs are required to match the edge and
    dual graphs. For nonconvex or projective-degenerate configurations the
    contact flags stay None. The line minima are computed once and serve
    both the report at tol and the extraction's precondition.
    """
    midscription = _midscription(cfg, body, P)
    report = midscription(tol)
    if with_packings and report.convexity == "convex":
        try:
            _require_midscribed(midscription(CONTACT_TOL))
            face_packing, visibility_packing = _trace_packings(cfg, body, P)
        except (NotMidscribed, DegenerateConfiguration):
            report.contact_graph_primal_ok = False
            report.contact_graph_dual_ok = False
        else:
            report.contact_graph_dual_ok = (face_packing.contacts_ok
                                            and face_packing.nondegenerate)
            report.contact_graph_primal_ok = (visibility_packing.contacts_ok
                                              and visibility_packing.nondegenerate)
    return report

