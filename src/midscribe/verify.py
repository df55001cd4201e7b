"""Independent checks of a solved configuration.

Everything here recomputes geometry from the face planes alone: edge lines
come from plane intersections, tangency is re-established by minimizing the
gauge along each full line, and the two disk packings are traced on the body
surface by root finding. Solver residuals are never consulted, so a
configuration that merely claims convergence does not pass; the verifier
shares only the gauge API with the solver.

Line tangency is checked one edge at a time with the scalar gauge methods.
The disk packings are traced in batches through the (m, 3) gauge API, one
disk at a time: all boundary samples of a disk are solved together (face
disks by rays in the face plane, visibility disks by a bisection for the
horizon over all arcs of the disk at once), the margins of every disk on a
disk's samples form one array that serves both the coarse contact search
and the non-degeneracy count, and the golden-section refinement of all
disk pairs that need it runs in lockstep, one batched boundary solve per
step. The point-at-a-time tracer this replaced is the reference for tests
in tests/kdisk_oracle.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bodies import (BodyChart, BodyPath, ConvexBody, _any_unit_orthogonal,
                     _rowdot, chart_inverse, ray_roots)
from .combinatorics import Frame, PolyhedralComplex
from .config import EPS_INFINITY, Configuration
from .errors import DegenerateConfiguration, NotMidscribed, SolverError
from .solver import ConstraintSystem, _newton_core, continue_to_body

TANGENCY_TOL = 1e-9
SIDE_TOL = 1e-9
CONTACT_TOL = 1e-7
CONTACT_POSITION_TOL = 1e-4
N_BOUNDARY_SAMPLES = 256
KDISK_STAGE = "K-disk extraction"
HORIZON_SCAN = 96
HORIZON_EXPANSIONS = 30
HORIZON_BISECTIONS = 55
GOLDEN_ITERATIONS = 30


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


@dataclass
class RigidityReport:
    n_starts: int
    n_converged: int
    max_pairwise_distance: float
    base_residual: float


# ---------------------------------------------------------------------------
# midscription

def _line_minimum(body: ConvexBody, n_f, d_f, n_g, d_g, guess):
    """Global minimum of the gauge along the intersection line of two planes.

    Returns (min value, minimizer). The guess only seeds the bracket; the
    restriction of a strictly convex coercive gauge to a line is strictly
    convex, so the minimum is unique and bracketing cannot miss it.
    """
    u = np.cross(n_f, n_g)
    nu = float(np.linalg.norm(u))
    if nu < 1e-12:
        return math.inf, np.full(3, np.nan)
    u = u / nu
    A = np.vstack([n_f, n_g])
    q = np.linalg.lstsq(A, np.array([d_f, d_g]), rcond=None)[0]

    def slope(t):
        return float(body.gradient(q + t * u) @ u)

    t0 = float((np.asarray(guess, dtype=float) - q) @ u)
    if not math.isfinite(t0):
        t0 = 0.0
    lo = t0 - 1.0
    for _ in range(200):
        if slope(lo) < 0:
            break
        lo = t0 - 2.0 * (t0 - lo)
    else:
        return math.inf, np.full(3, np.nan)
    hi = t0 + 1.0
    for _ in range(200):
        if slope(hi) > 0:
            break
        hi = t0 + 2.0 * (hi - t0)
    else:
        return math.inf, np.full(3, np.nan)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * (1.0 + abs(mid)):
            break
    t = 0.5 * (lo + hi)
    for _ in range(2):
        curv = float(u @ body.hessian(q + t * u) @ u)
        if curv > 0:
            t -= slope(t) / curv
    m = q + t * u
    return float(body.value(m)), m


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
    v4 = cfg.vertices4 / np.linalg.norm(cfg.vertices4, axis=1, keepdims=True)
    per_vertex = []
    max_inc = 0.0
    comb_ok = True
    for v in range(P.n_vertices):
        worst = 0.0
        for f in P.vertex_faces[v]:
            r = abs(float(cfg.normals[f] @ v4[v, 1:] - cfg.offsets[f] * v4[v, 0]))
            worst = max(worst, r)
        max_inc = max(max_inc, worst)
        per_vertex.append({
            "vertex": v,
            "max_incidence": worst,
            "finite": bool(abs(v4[v, 0]) > EPS_INFINITY),
        })
        for f in range(P.n_faces):
            if f in P.vertex_faces[v]:
                continue
            r = abs(float(cfg.normals[f] @ v4[v, 1:] - cfg.offsets[f] * v4[v, 0]))
            if r <= tol:
                comb_ok = False
    if max_inc >= tol:
        comb_ok = False

    per_edge = []
    max_tan = 0.0
    for e in range(P.n_edges):
        f, g = P.faces_of_edge(e)
        val, minimizer = _line_minimum(body, cfg.normals[f], cfg.offsets[f],
                                       cfg.normals[g], cfg.offsets[g],
                                       cfg.tangents[e])
        dist = float(np.linalg.norm(minimizer - cfg.tangents[e]))
        per_edge.append({
            "edge": e,
            "faces": (f, g),
            "line_min": val,
            "minimizer_distance": dist,
        })
        max_tan = max(max_tan, abs(val))

    return VerifyReport(max_tangency_residual=max_tan,
                        max_incidence_residual=max_inc,
                        combinatorics_ok=comb_ok,
                        convexity=check_convexity(cfg, P),
                        contact_graph_primal_ok=None,
                        contact_graph_dual_ok=None,
                        per_edge=per_edge, per_vertex=per_vertex, tol=tol)


# ---------------------------------------------------------------------------
# convexity

def check_convexity(cfg: Configuration, P: PolyhedralComplex,
                    tol_side: float = SIDE_TOL, eps_inf: float = EPS_INFINITY,
                    detailed: bool = False):
    """Classify as convex / nonconvex / projective-degenerate.

    Convex means every vertex not on a face lies strictly on the inner side
    of that face's plane (signed distance < -tol_side). With detailed=True
    also returns {min_side_distance, marginal, worst_pair}; marginal flags
    classifications within 10x tol_side of the convex/nonconvex boundary.
    """
    v4 = cfg.vertices4 / np.linalg.norm(cfg.vertices4, axis=1, keepdims=True)
    if np.any(np.abs(v4[:, 0]) <= eps_inf):
        info = {"min_side_distance": math.nan, "marginal": False,
                "worst_pair": None}
        return ("projective-degenerate", info) if detailed else "projective-degenerate"
    X = v4[:, 1:] / v4[:, :1]
    ok = True
    min_margin = math.inf
    worst = None
    for f in range(P.n_faces):
        face_verts = set(P.faces[f])
        for v in range(P.n_vertices):
            s = float(cfg.normals[f] @ X[v] - cfg.offsets[f])
            if v in face_verts:
                if abs(s) > 1e-7:
                    ok = False
                continue
            margin = -s
            if margin < min_margin:
                min_margin = margin
                worst = (f, v)
            if not s < -tol_side:
                ok = False
    cls = "convex" if ok else "nonconvex"
    info = {"min_side_distance": min_margin,
            "marginal": abs(min_margin) <= 10.0 * tol_side,
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
    plane, direction cos(theta) a + sin(theta) b.
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
            if body.value(self.c0[f]) >= 0:
                raise _degenerate(self.kind, f, "tangent centroid is not "
                                  "interior to the body")
        self.a = np.array([_any_unit_orthogonal(n) for n in self.normals])
        self.b = np.cross(self.normals, self.a)
        self.disks = [KDisk(kind=self.kind, owner=f,
                            boundary_samples=self._points(f, theta),
                            plane=(self.normals[f], float(self.offsets[f])))
                      for f in range(P.n_faces)]

    def _points(self, i, theta):
        w = _circle(self.a[i], self.b[i], theta)
        return self.c0[i] + ray_roots(self.body, self.c0[i], w)[:, None] * w

    def margins(self, X) -> np.ndarray:
        """Signed distance of every point to every face plane, (F, m)."""
        return _rowdot(self.normals[:, None, :], X[None]) - self.offsets[:, None]

    def pair_margins(self, j, X) -> np.ndarray:
        return _rowdot(self.normals[j], X) - self.offsets[j]

    def boundary_solver(self, i):
        """Boundary points of disks i at parameters t (angles from theta0)."""
        return lambda t: self._points(i, self.theta0 + t)


class _VertexDisks:
    """The regions of the body boundary visible from each vertex.

    Vertex v's disk is traced on great-circle arcs from w, the direction of
    the vertex, towards -w: the boundary point over cos(alpha) w +
    sin(alpha) m, m = cos(psi) a + sin(psi) b, crosses the visibility
    horizon at one alpha, found by bisection.
    """

    kind = "vertex"

    def __init__(self, body, cfg, P, theta):
        self.body = body
        self.theta0 = theta[0]
        positions, finite = cfg.affine_vertices()
        rows = [_vertex_visibility(cfg, P, v, positions, finite)
                for v in range(P.n_vertices)]
        for v, (apex, _, at_inf) in enumerate(rows):
            if not at_inf and body.value(apex) <= 0:
                raise _degenerate(self.kind, v, "is not exterior to the body")
        self.apex = np.array([apex for apex, _, _ in rows])
        self.c = np.array([0.0 if at_inf else 1.0 for _, _, at_inf in rows])
        self.w = np.array([w for _, w, _ in rows])
        self.a = np.array([_any_unit_orthogonal(w) for w in self.w])
        self.b = np.cross(self.w, self.a)
        self.alphas = np.empty((P.n_vertices, len(theta)))
        self.disks = [KDisk(kind=self.kind, owner=v,
                            boundary_samples=self._trace(v, theta), apex=apex,
                            at_infinity=at_inf)
                      for v, (apex, _, at_inf) in enumerate(rows)]

    def _arcs(self, i, m, t):
        return _Arcs(self.body, i, self.apex[i], self.c[i], self.w[i], m, t)

    def _trace(self, v, theta):
        """All boundary samples of disk v: sample 0 bracketed by a scan of
        its arc, the others around sample 0's horizon."""
        m = _circle(self.a[v], self.b[v], theta)
        grid = np.linspace(1e-3, math.pi - 1e-3, HORIZON_SCAN)
        scan = self._arcs(np.full(HORIZON_SCAN, v),
                          np.broadcast_to(m[0], (HORIZON_SCAN, 3)),
                          np.ones(HORIZON_SCAN))
        g = scan.g(np.arange(HORIZON_SCAN), grid)
        crossing = np.flatnonzero((g[:-1] > 0) & (g[1:] <= 0))
        if not crossing.size:
            raise _degenerate(self.kind, v, "has no visibility horizon "
                              "crossing")
        k = crossing[0]
        first = self._arcs(np.full(1, v), m[:1], scan.t[k:k + 1].copy())
        alpha0, X0 = first.solve(grid[k:k + 1], grid[k + 1:k + 2])
        rest = self._arcs(np.full(len(m) - 1, v), m[1:],
                          np.full(len(m) - 1, first.t[0]))
        alpha, X = rest.solve(*rest.bracket(np.full(len(m) - 1, alpha0[0])))
        self.alphas[v] = np.concatenate([alpha0, alpha])
        return np.vstack([X0, X])

    def margins(self, X) -> np.ndarray:
        """Visibility of every point from every vertex, (V, m)."""
        return _visibility(self.apex[:, None, :], self.c[:, None], X[None],
                           self.body.gradients(X)[None])

    def pair_margins(self, j, X) -> np.ndarray:
        return _visibility(self.apex[j], self.c[j], X, self.body.gradients(X))

    def boundary_solver(self, i):
        """Horizon points of disks i at parameters t (angles from theta0),
        bracketed around the horizons of their samples nearest t."""
        t_warm = np.ones(len(i))
        n_samples = self.alphas.shape[1]

        def points(t):
            arcs = self._arcs(i, _circle(self.a[i], self.b[i],
                                         self.theta0 + t), t_warm)
            near = np.rint(t / (2.0 * math.pi) * n_samples).astype(int)
            return arcs.solve(*arcs.bracket(self.alphas[i, near % n_samples]))[1]
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

    def bracket(self, warm):
        """[warm - 0.15, warm + 0.15], each end pushed outward with a
        doubling step until g > 0 at lo and g <= 0 at hi."""
        ends = []
        for sign in (-1.0, 1.0):
            step = np.full(len(warm), 0.15)
            edge = np.clip(warm + sign * step, 1e-9, math.pi - 1e-9)
            todo = np.arange(len(warm))
            for _ in range(HORIZON_EXPANSIONS):
                visible = self.g(todo, edge[todo]) > 0
                todo = todo[visible != (sign < 0)]
                if not todo.size:
                    break
                edge[todo] = np.clip(edge[todo] + sign * step[todo], 1e-9,
                                     math.pi - 1e-9)
                step[todo] *= 2.0
            else:
                raise _degenerate("vertex", int(self.owners[todo[0]]),
                                  "has no horizon bracket after %d "
                                  "expansions" % HORIZON_EXPANSIONS)
            ends.append(edge)
        return ends

    def solve(self, lo, hi):
        """Bisect every bracket down to adjacent floats (at most
        HORIZON_BISECTIONS halvings); returns (alpha, horizon points)."""
        lo, hi = lo.copy(), hi.copy()
        todo = np.arange(len(lo))
        for _ in range(HORIZON_BISECTIONS):
            mid = 0.5 * (lo[todo] + hi[todo])
            split = (mid != lo[todo]) & (mid != hi[todo])
            todo, mid = todo[split], mid[split]
            if not todo.size:
                break
            visible = self.g(todo, mid) > 0
            lo[todo] = np.where(visible, mid, lo[todo])
            hi[todo] = np.where(visible, hi[todo], mid)
        alpha = 0.5 * (lo + hi)
        return alpha, self.points(np.arange(len(alpha)), alpha)


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


def _golden_max(fun, lo, hi, iters=GOLDEN_ITERATIONS):
    """Golden-section maximizers on the intervals [lo, hi], in lockstep.

    fun maps an array of parameters to (values, points); returns fun at the
    midpoints of the final brackets.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo.copy(), hi.copy()
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c)[0], fun(d)[0]
    for _ in range(iters):
        left = fc > fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        fx = fun(x)[0]
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    return fun(0.5 * (a + b))


def _trace_packing(family, adjacency) -> DiskPacking:
    """Check every disk pair: touch at p_e when adjacent, stay clear otherwise.

    adjacency maps each adjacent owner pair (low, high) to its contact point
    p_e. family.margins(X) is the signed membership of every disk at the
    points X (>= 0 inside its closure). Per disk i it is evaluated once on
    i's samples; that array gives the coarse maximum of every other disk's
    margin along i's boundary, and the non-degeneracy count (no sample may
    lie within tolerance of three disk closures). Pairs whose coarse maximum
    is far below contact are not refined; the others are refined together
    by golden section around their best sample, one boundary solve per step.
    """
    disks = family.disks
    spacing = 2.0 * math.pi / len(disks[0].boundary_samples)
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
    points = family.boundary_solver(i)

    def fun(t):
        X = points(t)
        return family.pair_margins(j, X), X

    m_best, x_best = _golden_max(fun, spacing * k - spacing,
                                 spacing * k + spacing)
    adjacent = np.array([p_e is not None for p_e in contacts], dtype=bool)
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
                       max_foreign_margin=max_foreign)


def extract_kdisk_packings(cfg: Configuration, body: ConvexBody,
                           P: PolyhedralComplex,
                           n_samples: int = N_BOUNDARY_SAMPLES):
    """Trace the face-disk and visibility-disk packings on the body boundary.

    Returns (face_packing, visibility_packing) as DiskPacking values. The
    contact graph of the face disks must equal face adjacency (the dual
    graph) and that of the visibility disks must equal the edge graph, with
    every contact at the claimed tangent point. Raises NotMidscribed when the
    configuration fails the midscription precondition, and
    DegenerateConfiguration naming the disk when one cannot be traced.
    """
    pre = check_midscription(cfg, body, P, tol=CONTACT_TOL)
    if not pre.midscribed:
        raise NotMidscribed(
            "verification precondition failed: tangency %.3e, incidence %.3e"
            % (pre.max_tangency_residual, pre.max_incidence_residual))

    theta = (2.0 * math.pi * 0.61803398874989485
             + 2.0 * math.pi * np.arange(n_samples) / n_samples)
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
    contact flags stay None.
    """
    report = check_midscription(cfg, body, P, tol)
    if with_packings and report.convexity == "convex":
        try:
            face_packing, visibility_packing = extract_kdisk_packings(cfg, body, P)
        except (NotMidscribed, DegenerateConfiguration):
            report.contact_graph_primal_ok = False
            report.contact_graph_dual_ok = False
        else:
            report.contact_graph_dual_ok = (face_packing.contacts_ok
                                            and face_packing.nondegenerate)
            report.contact_graph_primal_ok = (visibility_packing.contacts_ok
                                              and visibility_packing.nondegenerate)
    return report


# ---------------------------------------------------------------------------
# rigidity

def rigidity_probe(P: PolyhedralComplex, frame: Frame, marks_z,
                   path: BodyPath, n_starts: int = 10,
                   perturbation: float = 1e-3, seed: int = 0,
                   base: Configuration | None = None) -> RigidityReport:
    """Re-solve from perturbed starts at the end of the path.

    Runs the continuation once (or reuses base), then restarts the corrector
    n_starts times from the solution with uniform noise of the given
    magnitude on every unknown. Reports the max pairwise distance between
    the vertex sets of converged runs; a tiny value is the empirical
    uniqueness witness. Restarts that fail to converge are counted, not
    propagated; a restart that converges to a projective-degenerate
    configuration yields an infinite distance.
    """
    if base is None:
        base, base_report = continue_to_body(P, frame, marks_z, path)
        base_res = base_report.final_residual
    else:
        base_res = math.nan
    body = path.eval(1.0)
    chart = BodyChart(body)
    marks = np.array([chart_inverse(chart, complex(z)) for z in marks_z])
    system = ConstraintSystem(P, frame, marks, body)
    x0 = system.pack(base)
    rng = np.random.default_rng(seed)
    vertex_sets = []
    pos0, fin0 = base.affine_vertices()
    if fin0.all():
        vertex_sets.append(pos0)
    degenerate = not fin0.all()
    n_conv = 0
    for _ in range(n_starts):
        xp = x0 + rng.uniform(-perturbation, perturbation, x0.shape)
        try:
            x, _, _ = _newton_core(system, xp, 1e-11, 60)
        except SolverError:
            continue
        n_conv += 1
        pos, fin = system.unpack(x).affine_vertices()
        if fin.all():
            vertex_sets.append(pos)
        else:
            degenerate = True
    dmax = 0.0
    for i in range(len(vertex_sets)):
        for j in range(i + 1, len(vertex_sets)):
            d = float(np.max(np.linalg.norm(vertex_sets[i] - vertex_sets[j],
                                            axis=1)))
            dmax = max(dmax, d)
    if degenerate:
        dmax = math.inf
    return RigidityReport(n_starts=n_starts, n_converged=n_conv,
                          max_pairwise_distance=dmax, base_residual=base_res)
