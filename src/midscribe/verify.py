"""Independent checks of a solved configuration.

Everything here recomputes geometry from the face planes alone: edge lines
come from plane intersections, tangency is re-established by minimizing the
gauge along each full line, and the two disk packings are traced on the body
surface by root finding. Solver residuals are never consulted, so a
configuration that merely claims convergence does not pass. The verifier
imports nothing from the solver and shares only the gauge API with it; the
rigidity probe, which re-solves with Newton, lives in solver.

Line tangency is checked on every edge line at once, by a lockstep search
through the (m, 3) gauge API; incidence and convexity are array expressions
over all face-vertex pairs.
The disk packings are traced in batches through the (m, 3) gauge API, all
disks of a family in lockstep: the face disks by one batched ray solve over
every face's rays in its plane, the visibility disks by one horizon scan
over every vertex's first arc and then bracketed Newton iterations on the
horizon angle (safeguarded by bisection) over all arcs of all vertices at
once. The margins of every disk on a disk's samples form one array that
serves both the coarse contact search and the non-degeneracy count. Every
disk pair that needs it is refined in lockstep, one batched boundary solve
per step: the maximum of one disk's margin along the other's boundary is
the root of the Lagrange condition grad F . (grad mu_i x grad mu_j),
bracketed by the samples either side of the best one and found by Brent's
zeroin. Golden section on the margin itself decides only the pairs the root
does not: no sign change, no convergence within a fixed number of steps, or
a contact whose margin is flat to rounding over 1e-7 in space. The
point-at-a-time tracer and the bisection horizon solve this replaced are the
references for tests in tests/kdisk_oracle.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody, _rowdot, _unit_orthogonals, ray_roots
from .combinatorics import PolyhedralComplex
from .config import EPS_INFINITY, Configuration
from .errors import DegenerateConfiguration, NotMidscribed

TANGENCY_TOL = 1e-9
SIDE_TOL = 1e-9
CONTACT_TOL = 1e-7
CONTACT_POSITION_TOL = 1e-4
N_BOUNDARY_SAMPLES = 256
KDISK_STAGE = "K-disk extraction"
HORIZON_SCAN = 96
HORIZON_MIN = 1e-12
# The horizon scan: a geometric grid from HORIZON_MIN up to 1e-3 rad, where
# the linear grid of HORIZON_SCAN points starts. A three-mark normalization
# is a Moebius map and can shrink a visible cap without bound; the
# geometric part gives such a cap a crossing and leaves the bracket of
# every cap of 1e-3 rad or more as the linear grid alone finds it.
HORIZON_GRID = np.concatenate([np.geomspace(HORIZON_MIN, 1e-3, 28)[:-1],
                               np.linspace(1e-3, math.pi - 1e-3, HORIZON_SCAN)])
HORIZON_EXPANSIONS = 30
HORIZON_BISECTIONS = 55
HORIZON_XTOL = 2.0 ** -50
HORIZON_GTOL = 8.0 * np.finfo(float).eps
GOLDEN_ITERATIONS = 30
# The refinement of a disk pair's maximum: Brent's zeroin on the Lagrange
# condition stops at a bracket ROOT_XTOL wide in the boundary parameter; a
# row open after ROOT_ITERATIONS evaluations, or whose maximizer is not
# resolved RESOLUTION_STEP apart in space, goes to golden section.
# MARGIN_RTOL |grad mu| |X| bounds the rounding of a margin mu at X.
ROOT_ITERATIONS = 30
ROOT_XTOL = 1e-12
RESOLUTION_STEP = 1e-7
MARGIN_RTOL = 4.0 * np.finfo(float).eps


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
    # disk pairs refined past the sample search, and those of them that
    # golden section decided; counts only, never serialized
    refined_pairs: int = 0
    golden_fallbacks: int = 0


# ---------------------------------------------------------------------------
# midscription

def _line_minima(body: ConvexBody, n_f, d_f, n_g, d_g, guesses):
    """Global minima of the gauge along the intersection lines of plane pairs.

    Row k is the line where the planes n_f[k] . x = d_f[k] and n_g[k] . x =
    d_g[k] meet. Returns (min values (m,), minimizers (m, 3)); a row whose
    planes are parallel or whose bracket cannot be placed gets (inf, nan).
    The guesses only seed the brackets; the restriction of a strictly convex
    coercive gauge to a line is strictly convex, so the minimum is unique
    and bracketing cannot miss it. All lines are searched in lockstep: the
    slope is bracketed by doubling around the guess, bisected until the
    bracket is below 1e-14 (1 + |mid|), then polished by two Newton steps
    where the curvature is positive.
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

    def slope(rows, t):
        return _rowdot(body.gradients(Q[rows] + t[:, None] * U[rows]), U[rows])

    t0 = _rowdot(np.asarray(guesses, dtype=float)[live] - Q, U)
    t0[~np.isfinite(t0)] = 0.0
    ok = np.ones(len(live), dtype=bool)
    ends = []
    for side in (-1.0, 1.0):  # lo, where the slope is < 0, then hi
        end = t0 + side
        rows = np.flatnonzero(ok)
        for _ in range(200):
            rows = rows[~(side * slope(rows, end[rows]) > 0)]
            if not rows.size:
                break
            end[rows] = t0[rows] + 2.0 * (end[rows] - t0[rows])
        ok[rows] = False
        ends.append(end)
    lo, hi = ends
    rows = todo = np.flatnonzero(ok)
    for _ in range(100):
        mid = 0.5 * (lo[todo] + hi[todo])
        below = slope(todo, mid) < 0
        lo[todo] = np.where(below, mid, lo[todo])
        hi[todo] = np.where(below, hi[todo], mid)
        todo = todo[~(hi[todo] - lo[todo] < 1e-14 * (1.0 + np.abs(mid)))]
        if not todo.size:
            break
    t = 0.5 * (lo[rows] + hi[rows])
    for _ in range(2):
        X = Q[rows] + t[:, None] * U[rows]
        curv = _rowdot((U[rows, None, :] @ body.hessians(X))[:, 0], U[rows])
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(curv > 0, t - slope(rows, t) / curv, t)
    M = Q[rows] + t[:, None] * U[rows]
    values[live[rows]] = body.values(M)
    minimizers[live[rows]] = M
    return values, minimizers


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


class _FaceDisks:
    """The regions the face planes cut from the body.

    Face f's disk lies in its plane around c0, the projection of the mean of
    its edges' tangent points; its boundary is traced by rays from c0 in the
    plane, direction cos(theta) a + sin(theta) b. The rays of all faces are
    solved together.
    """

    kind = "face"

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
        self.disks = [KDisk(kind=self.kind, owner=f, boundary_samples=X[f],
                            plane=(self.normals[f], float(self.offsets[f])))
                      for f in range(n_faces)]

    def _points(self, i, theta):
        w = _circle(self.a[i], self.b[i], theta)
        return self.c0[i] + ray_roots(self.body, self.c0[i], w)[:, None] * w

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
        theta0)."""
        return lambda rows, t: self._points(i[rows], self.theta0 + t)


class _VertexDisks:
    """The regions of the body boundary visible from each vertex.

    Vertex v's disk is traced on great-circle arcs from w, the direction of
    the vertex, towards -w: the boundary point over cos(alpha) w +
    sin(alpha) m, m = cos(psi) a + sin(psi) b, crosses the visibility
    horizon at one alpha, found by bracketed Newton. The arcs of all
    vertices are solved together.
    """

    kind = "vertex"

    def __init__(self, body, cfg, P, theta):
        self.body = body
        self.theta0 = theta[0]
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
        self.disks = [KDisk(kind=self.kind, owner=v, boundary_samples=X[v],
                            apex=apex, at_infinity=at_inf)
                      for v, (apex, _, at_inf) in enumerate(rows)]

    def _arcs(self, i, m, t):
        return _Arcs(self.body, i, self.apex[i], self.c[i], self.w[i], m, t)

    def _trace(self, m):
        """Arc angles (V, n) and boundary samples (V, n, 3) of every disk,
        on the arcs m (V, n, 3): sample 0 of each disk bracketed by a scan
        of its arc, the others around sample 0's horizon."""
        n_vertices, n = m.shape[:2]
        owners = np.arange(n_vertices)
        k_scan = len(HORIZON_GRID)
        scan = self._arcs(np.repeat(owners, k_scan),
                          np.repeat(m[:, 0], k_scan, axis=0),
                          np.ones(n_vertices * k_scan))
        g = scan.g(np.arange(n_vertices * k_scan),
                   np.tile(HORIZON_GRID, n_vertices)).reshape(n_vertices, k_scan)
        crossing = (g[:, :-1] > 0) & (g[:, 1:] <= 0)
        missing = np.flatnonzero(~crossing.any(axis=1))
        if missing.size:
            raise _degenerate(self.kind, int(missing[0]), "has no visibility "
                              "horizon crossing")
        k = np.argmax(crossing, axis=1)
        first = self._arcs(owners, m[:, 0],
                           scan.t.reshape(n_vertices, k_scan)[owners, k])
        lo, hi = HORIZON_GRID[k], HORIZON_GRID[k + 1]
        g_lo, g_hi = g[owners, k], g[owners, k + 1]
        alpha0, X0 = first.solve(lo, hi, lo + g_lo / (g_lo - g_hi) * (hi - lo))
        rest = self._arcs(np.repeat(owners, n - 1), m[:, 1:].reshape(-1, 3),
                          np.repeat(first.t, n - 1))
        warm = np.repeat(alpha0, n - 1)
        alpha, X = rest.solve(*rest.bracket(warm), warm)
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
        theta0), bracketed around and started from the horizons of their
        samples nearest t. Each row's ray solves start from its last ray
        parameter."""
        t_warm = np.ones(len(i))
        n_samples = self.alphas.shape[1]

        def points(rows, t):
            owners = i[rows]
            arcs = self._arcs(owners, _circle(self.a[owners], self.b[owners],
                                              self.theta0 + t), t_warm[rows])
            near = np.rint(t / (2.0 * math.pi) * n_samples).astype(int)
            warm = self.alphas[owners, near % n_samples]
            X = arcs.solve(*arcs.bracket(warm), warm)[1]
            t_warm[rows] = arcs.t
            return X
        return points


class _Arcs:
    """Visibility arcs, one per row: the boundary point over cos(alpha) w +
    sin(alpha) m and the sign of its owner vertex's visibility function.

    t holds each row's last ray parameter, the warm start of its next ray;
    it is updated in place.
    """

    def __init__(self, body, owners, apex, c, w, m, t):
        self.body, self.owners = body, owners
        self.apex, self.c, self.w, self.m, self.t = apex, c, w, m, t

    def points(self, rows, alpha):
        dirs = _circle(self.w[rows], self.m[rows], alpha)
        self.t[rows] = ray_roots(self.body, np.zeros(3), dirs, self.t[rows])
        return self.t[rows, None] * dirs

    def g(self, rows, alpha):
        X = self.points(rows, alpha)
        return _visibility(self.apex[rows], self.c[rows], X,
                           self.body.gradients(X))

    def g_slope(self, rows, alpha):
        """g, a bound on its rounding error, its derivative in alpha and the
        boundary points.

        With d = cos(alpha) w + sin(alpha) m and X = t d on the boundary,
        F(t d) = 0 gives t' = -t (grad F . d') / (grad F . d), and
        X' = t' d + t d' is tangent to the boundary, so the derivative of
        (apex - c X) . grad F(X) is (apex - c X) . H(X) X'. The rounding
        bound is HORIZON_GTOL times the dot product of the magnitudes.
        """
        X = self.points(rows, alpha)
        dirs = _circle(self.w[rows], self.m[rows], alpha)
        turn = _circle(self.m[rows], -self.w[rows], alpha)
        t = self.t[rows]
        grads = self.body.gradients(X)
        dX = (-t * _rowdot(grads, turn) / _rowdot(grads, dirs))[:, None] * dirs
        dX += t[:, None] * turn
        apex, c = self.apex[rows], self.c[rows]
        slope = _rowdot(apex - c[:, None] * X,
                        (self.body.hessians(X) @ dX[..., None])[..., 0])
        size = _rowdot(np.abs(apex) + c[:, None] * np.abs(X), np.abs(grads))
        return (_visibility(apex, c, X, grads), HORIZON_GTOL * size, slope,
                X)

    def bracket(self, warm):
        """[warm - 0.15, warm + 0.15], each end pushed outward with a
        doubling step until g > 0 at lo and g <= 0 at hi."""
        ends = []
        for sign in (-1.0, 1.0):
            step = np.full(len(warm), 0.15)
            edge = np.clip(warm + sign * step, HORIZON_MIN, math.pi - 1e-9)
            todo = np.arange(len(warm))
            for _ in range(HORIZON_EXPANSIONS):
                visible = self.g(todo, edge[todo]) > 0
                todo = todo[visible != (sign < 0)]
                if not todo.size:
                    break
                edge[todo] = np.clip(edge[todo] + sign * step[todo],
                                     HORIZON_MIN, math.pi - 1e-9)
                step[todo] *= 2.0
            else:
                raise _degenerate("vertex", int(self.owners[todo[0]]),
                                  "has no horizon bracket after %d "
                                  "expansions" % HORIZON_EXPANSIONS)
            ends.append(edge)
        return ends

    def solve(self, lo, hi, start):
        """Horizons in the brackets [lo, hi] (g(lo) > 0 >= g(hi)) by Newton
        from start; returns (alpha, horizon points).

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
        lo, hi, alpha = lo.copy(), hi.copy(), start.copy()
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


def _golden_max(fun, lo, hi):
    """Golden-section maximizers on the intervals [lo, hi], in lockstep.

    fun maps an array of parameters to (values, points); returns fun at the
    midpoints of the final brackets.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo.copy(), hi.copy()
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c)[0], fun(d)[0]
    for _ in range(GOLDEN_ITERATIONS):
        left = fc > fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        fx = fun(x)[0]
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    return fun(0.5 * (a + b))


def _golden_pairs(family, i, j, k):
    """Golden-section maxima of the margins of disks j along the boundaries
    of disks i, each on the bracket one sample spacing either side of
    sample k: (margins, points)."""
    spacing = 2.0 * math.pi / len(family.disks[0].boundary_samples)
    points = family.boundary_solver(i)
    rows = np.arange(len(i))

    def fun(t):
        X = points(rows, t)
        return family.pair_margins(j, X), X

    return _golden_max(fun, spacing * k - spacing, spacing * k + spacing)


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
    open after ROOT_ITERATIONS evaluations or whose function is not finite.
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


def _refine_pairs(family, i, j, k, adjacent):
    """Maxima of the margins of disks j along the boundaries of disks i,
    each between the samples either side of sample k: (margins, points,
    golden), golden flagging the rows that golden section decided.

    A row's maximum is the root of the Lagrange condition h (_lagrange) in
    that bracket, by Brent's zeroin from the h of the two stored samples, so
    its ends cost no boundary solve. Golden section (_golden_pairs) decides
    a row instead when h does not change sign over its bracket, when the
    root stays open, or, for an adjacent pair, when the maximizer is not
    resolved in space: mu_j at the root exceeds mu_j RESOLUTION_STEP away
    either side along the boundary by no more than its rounding bound,
    MARGIN_RTOL |grad mu_j| |X|, so the margin does not fix the contact's
    position. A non-adjacent pair is judged by its maximum alone.
    """
    samples = np.array([disk.boundary_samples for disk in family.disks])
    n = samples.shape[1]
    spacing = 2.0 * math.pi / n
    X_lo, X_hi = samples[i, (k - 1) % n], samples[i, (k + 1) % n]
    h_lo, h_hi = _lagrange(family, i, j, X_lo), _lagrange(family, i, j, X_hi)
    rows = np.flatnonzero(h_lo * h_hi < 0)
    points = family.boundary_solver(i)

    def lagrange(r, t):
        X = points(rows[r], t)
        return _lagrange(family, i[rows[r]], j[rows[r]], X), X

    t, X, done = _zeroin(lagrange, spacing * (k[rows] - 1),
                         spacing * (k[rows] + 1), h_lo[rows], h_hi[rows],
                         X_lo[rows], X_hi[rows])
    rows, t, X = rows[done], t[done], X[done]
    m = family.pair_margins(j[rows], X)
    keep = np.ones(len(rows), dtype=bool)
    near = np.flatnonzero(adjacent[rows])
    if near.size:
        r = rows[near]
        dt = (2.0 * spacing * RESOLUTION_STEP
              / np.linalg.norm(X_hi[r] - X_lo[r], axis=1))
        sides = [family.pair_margins(j[r], points(r, t[near] + side * dt))
                 for side in (-1.0, 1.0)]
        g_j = family.pair_gradients(j[r], X[near])
        bound = MARGIN_RTOL * np.sqrt(_rowdot(g_j, g_j)
                                      * _rowdot(X[near], X[near]))
        keep[near] = m[near] - np.maximum(*sides) > bound
    margins, maximizers = np.empty(len(i)), np.empty((len(i), 3))
    margins[rows[keep]], maximizers[rows[keep]] = m[keep], X[keep]
    golden = np.ones(len(i), dtype=bool)
    golden[rows[keep]] = False
    fallback = np.flatnonzero(golden)
    if fallback.size:
        margins[fallback], maximizers[fallback] = _golden_pairs(
            family, i[fallback], j[fallback], k[fallback])
    return margins, maximizers, golden


def _trace_packing(family, adjacency) -> DiskPacking:
    """Check every disk pair: touch at p_e when adjacent, stay clear otherwise.

    adjacency maps each adjacent owner pair (low, high) to its contact point
    p_e. family.margins(X) is the signed membership of every disk at the
    points X (>= 0 inside its closure). Per disk i it is evaluated once on
    i's samples; that array gives the coarse maximum of every other disk's
    margin along i's boundary, and the non-degeneracy count (no sample may
    lie within tolerance of three disk closures). Pairs whose coarse maximum
    is far below contact are not refined; the others are refined together
    around their best sample by _refine_pairs: a root of the Lagrange
    condition, or golden section where the root does not decide the pair.
    """
    disks = family.disks
    nondegenerate = True
    max_foreign = -math.inf
    pairs, contacts = [], []
    for i, disk in enumerate(disks):
        M = family.margins(disk.boundary_samples)
        M[i] = -math.inf
        if np.any(np.count_nonzero(M >= -CONTACT_TOL, axis=0) >= 2):
            nondegenerate = False
        best = np.argmax(M, axis=1)
        for j, other in enumerate(disks):
            if j == i:
                continue
            p_e = adjacency.get((min(disk.owner, other.owner),
                                 max(disk.owner, other.owner)))
            if p_e is None and M[j, best[j]] < -1e-2:
                max_foreign = max(max_foreign, float(M[j, best[j]]))
            else:
                pairs.append((i, j, best[j]))
                contacts.append(p_e)
    i, j, k = np.array(pairs, dtype=int).reshape(-1, 3).T
    adjacent = np.array([p_e is not None for p_e in contacts], dtype=bool)
    m_best, x_best, golden = _refine_pairs(family, i, j, k, adjacent)
    p_e = np.array([p for p in contacts if p is not None]).reshape(-1, 3)
    gap = np.abs(m_best[adjacent])
    pos_err = np.linalg.norm(x_best[adjacent] - p_e, axis=1)
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
                       golden_fallbacks=int(np.count_nonzero(golden)))


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
    face_adj, vert_adj = {}, {}
    for e in range(P.n_edges):
        f, g = P.faces_of_edge(e)
        face_adj[(min(f, g), max(f, g))] = cfg.tangents[e]
        v, w = P.edge_vertices(e)
        vert_adj[(min(v, w), max(v, w))] = cfg.tangents[e]
    face_packing = _trace_packing(_FaceDisks(body, cfg, P, theta), face_adj)
    visibility_packing = _trace_packing(_VertexDisks(body, cfg, P, theta),
                                        vert_adj)
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

