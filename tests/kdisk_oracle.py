"""The K-disk tracers that verify.py used before its convex certificates:
the references its certificates are tested against.

Two tracers sample every disk's boundary at N_BOUNDARY_SAMPLES points and
refine each disk pair's closest approach:

- the scalar tracer, ``scalar_kdisk_packings``, one boundary point per
  call, by scalar Newton with a bisection fallback, and a loop over
  samples for the non-degeneracy count. It is the packing part of the
  oldest ``extract_kdisk_packings`` (the midscription precondition is left
  to the caller), except ``_pair_contacts``, which refines one disk pair at
  a time by bisecting the Lagrange condition of the two margins. The
  scalar boundary point along a ray from the origin and the orthogonal of
  one vector, which ``io.boundary_mesh`` and ``bodies`` now compute in
  batches, are here too.
- the batched tracer, ``batched_kdisk_packings``: every disk of a family
  traced in lockstep through the (m, 3) gauge API (``_FaceDisks``,
  ``_VertexDisks`` and their visibility arcs ``_Arcs``), and every disk
  pair refined at the root of its Lagrange condition by Brent's zeroin
  (``_refine_pairs``, ``_zeroin``). It is the last tracer verify.py ran,
  unchanged but for its constants, which are copies of verify.py's at the
  time. The tests check it against the scalar tracer.

Both decide contacts and disjointness by the absolute CONTACT_TOL and
CONTACT_POSITION_TOL, which reject some correct configurations: the
quartic box, whose contacts are of fourth order, and small disks.

Kept with them: ``bisection_solve``, the batched tracer's horizon solve by
plain bisection, and ``per_disk_trace``, which traces one vertex disk at a
time with it; ``select_pairs``, the pair loop of ``_trace_packing`` with
one adjacency lookup per ordered disk pair; and ``_golden_pairs``, the
golden-section refinement of the margins that ``_refine_pairs`` replaced.
``edges_of_vertex``, the edges around a vertex in the order of its face
cycle, was a method of the complex that only these tracers read.
"""

import math
from dataclasses import dataclass

import numpy as np

from midscribe.bodies import ConvexBody, _rowdot, _unit_orthogonals, ray_roots
from midscribe.errors import (DegenerateConfiguration, NotMidscribed,
                              NotStrictlyConvex)
from midscribe.verify import check_midscription

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


def _radial_root(body: ConvexBody, dirn: np.ndarray, t0: float) -> float:
    """Radius where the ray t*dirn crosses the boundary, warm-started at t0."""
    t = t0 if t0 > 0 and math.isfinite(t0) else 1.0
    for _ in range(60):
        val = body.value(t * dirn)
        sl = float(body.gradient(t * dirn) @ dirn)
        if sl <= 0:
            break
        step = val / sl
        t_new = t - step
        if t_new <= 0:
            break
        if abs(step) < 1e-15 * t:
            return t_new
        t = t_new
    else:
        return t
    return float(np.linalg.norm(_radial_boundary_point(body, dirn)))


def _face_circle_point(body, c0, a, b, theta, warm):
    w = math.cos(theta) * a + math.sin(theta) * b

    def val(r):
        return body.value(c0 + r * w)

    r = warm if warm and warm > 0 else 1.0
    for _ in range(60):
        v = val(r)
        sl = float(body.gradient(c0 + r * w) @ w)
        if sl <= 0:
            break
        step = v / sl
        r_new = r - step
        if r_new <= 0:
            break
        if abs(step) < 1e-15 * r:
            return c0 + r_new * w, r_new
        r = r_new
    hi = 1.0
    for _ in range(80):
        if val(hi) > 0:
            break
        hi *= 2.0
    lo = 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if val(mid) < 0:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)
    for _ in range(3):
        sl = float(body.gradient(c0 + r * w) @ w)
        if sl > 0:
            r -= val(r) / sl
    return c0 + r * w, r


# ---------------------------------------------------------------------------
# K-disk packings

def _face_disk(body, cfg, P, f, n_samples, theta0):
    n = cfg.normals[f] / np.linalg.norm(cfg.normals[f])
    d = float(cfg.offsets[f])
    pts = cfg.tangents[list(P.boundary_edges(f))]
    c0 = pts.mean(axis=0)
    c0 = c0 - (float(n @ c0) - d) * n
    if body.value(c0) >= 0:
        raise DegenerateConfiguration(
            "face %d tangent centroid is not interior to the body" % f)
    a = _any_unit_orthogonal(n)
    b = np.cross(n, a)
    samples = np.empty((n_samples, 3))
    warm = None
    for k in range(n_samples):
        theta = theta0 + 2.0 * math.pi * k / n_samples
        samples[k], warm = _face_circle_point(body, c0, a, b, theta, warm)
    disk = KDisk(kind="face", owner=f, boundary_samples=samples,
                 plane=(n, d))
    return disk, (c0, a, b)


def _horizon_gap(body, gfun, w_dir, m_dir, warm):
    """Root of the visibility function along the arc from w_dir to -w_dir."""

    def at(alpha):
        dirn = math.cos(alpha) * w_dir + math.sin(alpha) * m_dir
        t = _radial_root(body, dirn, at.warm)
        at.warm = t
        return gfun(t * dirn), t * dirn

    at.warm = 1.0
    if warm is None:
        grid = np.linspace(1e-3, math.pi - 1e-3, 96)
        prev_alpha, prev_val = grid[0], at(grid[0])[0]
        lo = hi = None
        for alpha in grid[1:]:
            val = at(alpha)[0]
            if prev_val > 0 >= val:
                lo, hi = prev_alpha, alpha
                break
            prev_alpha, prev_val = alpha, val
        if lo is None:
            raise DegenerateConfiguration("no visibility horizon crossing")
    else:
        step = 0.15
        lo = max(warm - step, 1e-9)
        hi = min(warm + step, math.pi - 1e-9)
        for _ in range(30):
            if at(lo)[0] > 0:
                break
            lo = max(lo - step, 1e-9)
            step *= 2.0
        step = 0.15
        for _ in range(30):
            if at(hi)[0] <= 0:
                break
            hi = min(hi + step, math.pi - 1e-9)
            step *= 2.0
    for _ in range(55):
        mid = 0.5 * (lo + hi)
        if at(mid)[0] > 0:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    return alpha, at(alpha)[1]


def edges_of_vertex(P, v):
    """Edge ids at v, in the same cyclic order as P.vertex_faces[v]: the
    edge at position i is the one shared by faces i and i+1 of the
    vertex's face cycle."""
    out = []
    for f in P.vertex_faces[v]:
        cyc = P.faces[f]
        out.append(P.edge_index[(v, cyc[cyc.index(v) - 1])])
    return tuple(out)


def _vertex_visibility(cfg, P, v, positions, finite):
    """Visibility function, reference direction and apex data for vertex v."""
    if finite[v]:
        x = positions[v]

        def gfun_factory(body):
            def g(p):
                return float((x - p) @ body.gradient(p))
            return g

        w_dir = x / np.linalg.norm(x)
        return gfun_factory, x, w_dir, False
    v4 = cfg.vertices4[v] / np.linalg.norm(cfg.vertices4[v])
    u = v4[1:] / np.linalg.norm(v4[1:])
    sign = 0.0
    for e in edges_of_vertex(P, v):
        a, b = P.edges[e]
        other = b if a == v else a
        if finite[other]:
            sign = math.copysign(1.0, float((cfg.tangents[e] - positions[other]) @ u))
            break
    if sign == 0.0:
        sign = 1.0
    u = sign * u

    def gfun_factory(body):
        def g(p):
            return float(u @ body.gradient(p))
        return g

    return gfun_factory, u, u, True


def _vertex_disk(body, cfg, P, v, positions, finite, n_samples, psi0):
    gfun_factory, apex, w_dir, at_inf = _vertex_visibility(cfg, P, v,
                                                           positions, finite)
    if not at_inf and body.value(apex) <= 0:
        raise DegenerateConfiguration("vertex %d is not exterior to the body" % v)
    gfun = gfun_factory(body)
    a = _any_unit_orthogonal(w_dir)
    b = np.cross(w_dir, a)
    samples = np.empty((n_samples, 3))
    alphas = np.empty(n_samples)
    warm = None
    for k in range(n_samples):
        psi = psi0 + 2.0 * math.pi * k / n_samples
        m_dir = math.cos(psi) * a + math.sin(psi) * b
        warm, samples[k] = _horizon_gap(body, gfun, w_dir, m_dir, warm)
        alphas[k] = warm
    disk = KDisk(kind="vertex", owner=v, boundary_samples=samples,
                 apex=apex, at_infinity=at_inf)
    return disk, (gfun, w_dir, a, b, alphas)


def _pair_contacts(body, disks, aux, margin_of, gradient_of,
                   boundary_point_at, adjacency):
    """Check every disk pair: touch at p_e when adjacent, stay clear otherwise.

    margin_of(j, x) is the signed membership function of disk j (>= 0 inside
    its closure) and gradient_of(j, x) its gradient; boundary_point_at(i, t,
    aux_i) maps a boundary parameter of disk i to a surface point. Margins
    are maximized along disk i's boundary curve, coarsely over the
    precomputed samples and then by bisecting the Lagrange condition grad F
    . (grad mu_i x grad mu_j) between the samples either side of the best
    one, to a bracket below 1e-12; pairs whose coarse maximum is already far
    below contact are not refined.
    """
    n = len(disks)
    n_samples = len(disks[0].boundary_samples)
    spacing = 2.0 * math.pi / n_samples
    max_gap = 0.0
    worst_pos = 0.0
    max_foreign = -math.inf
    ok = True
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            vals = np.array([margin_of(j, p)
                             for p in disks[i].boundary_samples])
            k = int(np.argmax(vals))
            center = spacing * k
            key = (min(disks[i].owner, disks[j].owner),
                   max(disks[i].owner, disks[j].owner))
            adjacent = key in adjacency
            if not adjacent and vals[k] < -1e-2:
                max_foreign = max(max_foreign, float(vals[k]))
                continue

            def lagrange(t):
                x = boundary_point_at(i, t, aux[i])
                return float(body.gradient(x) @ np.cross(gradient_of(i, x),
                                                         gradient_of(j, x)))

            lo, hi = center - spacing, center + spacing
            rising = lagrange(lo) > 0
            if (lagrange(hi) > 0) == rising:
                raise DegenerateConfiguration(
                    "no bracketed maximum of disk %d on disk %d" % (j, i))
            for _ in range(36):
                mid = 0.5 * (lo + hi)
                if (lagrange(mid) > 0) == rising:
                    lo = mid
                else:
                    hi = mid
            x_best = boundary_point_at(i, 0.5 * (lo + hi), aux[i])
            m_best = margin_of(j, x_best)
            if adjacent:
                p_e = adjacency[key]
                gap = abs(m_best)
                pos_err = float(np.linalg.norm(x_best - p_e))
                max_gap = max(max_gap, gap)
                worst_pos = max(worst_pos, pos_err)
                if gap > CONTACT_TOL or pos_err > CONTACT_POSITION_TOL:
                    ok = False
            else:
                max_foreign = max(max_foreign, m_best)
                if not m_best < -CONTACT_TOL:
                    ok = False
    return ok, max_gap, worst_pos, max_foreign


def scalar_kdisk_packings(cfg, body, P, n_samples=N_BOUNDARY_SAMPLES):
    """Trace the face-disk and visibility-disk packings one point at a time.

    Returns (face_packing, visibility_packing) as DiskPacking values.
    """
    theta0 = 2.0 * math.pi * 0.61803398874989485

    face_disks, face_aux = [], []
    for f in range(P.n_faces):
        disk, ax = _face_disk(body, cfg, P, f, n_samples, theta0)
        face_disks.append(disk)
        face_aux.append(ax)

    face_adj = {}
    vert_adj = {}
    for e in range(P.n_edges):
        f, g = P.faces_of_edge(e)
        face_adj[(min(f, g), max(f, g))] = cfg.tangents[e]
        v, w = P.edges[e]
        vert_adj[(min(v, w), max(v, w))] = cfg.tangents[e]

    def face_margin(j, x):
        n, d = face_disks[j].plane
        return float(n @ x - d)

    def face_point(i, t, ax):
        c0, a, b = ax
        return _face_circle_point(body, c0, a, b, theta0 + t, None)[0]

    def face_gradient(j, x):
        return face_disks[j].plane[0]

    f_ok, f_gap, f_pos, f_foreign = _pair_contacts(
        body, face_disks, face_aux, face_margin, face_gradient, face_point,
        face_adj)

    positions, finite = cfg.affine_vertices()
    vertex_disks, vertex_aux = [], []
    for v in range(P.n_vertices):
        disk, ax = _vertex_disk(body, cfg, P, v, positions, finite,
                                n_samples, theta0)
        vertex_disks.append(disk)
        vertex_aux.append(ax)

    def vertex_margin(j, point):
        gfun = vertex_aux[j][0]
        return gfun(np.asarray(point))

    def vertex_point(i, t, ax):
        gfun, w_dir, a, b, alphas = ax
        m_dir = math.cos(theta0 + t) * a + math.sin(theta0 + t) * b
        k = int(round(t / (2.0 * math.pi) * len(alphas))) % len(alphas)
        return _horizon_gap(body, gfun, w_dir, m_dir, float(alphas[k]))[1]

    def vertex_gradient(j, point):
        disk = vertex_disks[j]
        H = body.hessian(point)
        if disk.at_infinity:
            return H @ disk.apex
        return H @ (disk.apex - point) - body.gradient(point)

    v_ok, v_gap, v_pos, v_foreign = _pair_contacts(
        body, vertex_disks, vertex_aux, vertex_margin, vertex_gradient,
        vertex_point, vert_adj)

    f_nondeg = _nondegenerate(face_disks, face_margin)
    v_nondeg = _nondegenerate(vertex_disks, vertex_margin)

    face_packing = DiskPacking(disks=face_disks, contacts_ok=f_ok,
                               nondegenerate=f_nondeg, max_adjacent_gap=f_gap,
                               worst_position_error=f_pos,
                               max_foreign_margin=f_foreign)
    visibility_packing = DiskPacking(disks=vertex_disks, contacts_ok=v_ok,
                                     nondegenerate=v_nondeg,
                                     max_adjacent_gap=v_gap,
                                     worst_position_error=v_pos,
                                     max_foreign_margin=v_foreign)
    return face_packing, visibility_packing


def _nondegenerate(disks, margin_of):
    """No boundary sample may lie within tolerance of three disk closures."""
    for i, disk in enumerate(disks):
        for p in disk.boundary_samples:
            near = 1
            for j in range(len(disks)):
                if j == i:
                    continue
                if margin_of(j, p) >= -CONTACT_TOL:
                    near += 1
                    if near >= 3:
                        return False
    return True


# ---------------------------------------------------------------------------
# one vertex disk at a time, horizons by bisection

def bisection_solve(self, lo, hi):
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


def per_disk_trace(self, v, theta):
    """All boundary samples of disk v of a verify._VertexDisks and their
    arc angles: every sample bisected in the proven bracket [HORIZON_MIN,
    pi - 1e-9], sample 0's rays started from the boundary point on the
    vertex axis, the others' from sample 0's horizon."""
    m = _circle(self.a[v], self.b[v], theta)

    def bisect(arcs):
        n = len(arcs.t)
        return bisection_solve(arcs, np.full(n, HORIZON_MIN),
                               np.full(n, math.pi - 1e-9))

    t_w = ray_roots(self.body, np.zeros(3), self.w[v:v + 1])
    first = self._arcs(np.full(1, v), m[:1], t_w)
    alpha0, X0 = bisect(first)
    rest = self._arcs(np.full(len(m) - 1, v), m[1:],
                      np.full(len(m) - 1, first.t[0]))
    alpha, X = bisect(rest)
    return np.concatenate([alpha0, alpha]), np.vstack([X0, X])


# ---------------------------------------------------------------------------
# the disk pairs to refine, one adjacency lookup per ordered pair

def select_pairs(family, adjacency):
    """The pairs (i, j, k) of disks i, j and the best sample k of j's margin
    on i's boundary that the batched tracer refines, in its order, with
    their claimed contacts (None for a non-adjacent pair), the greatest
    margin of the pairs left out, and the non-degeneracy flag. adjacency
    maps each adjacent owner pair (low, high) to its contact point."""
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
    return pairs, contacts, max_foreign, nondegenerate


# ---------------------------------------------------------------------------
# golden-section refinement of the disk pairs, in lockstep

GOLDEN_ITERATIONS = 30


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


# ---------------------------------------------------------------------------
# the batched tracer

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
        rows = [_vertex_apex(cfg, P, v, positions, finite)
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


def _vertex_apex(cfg, P, v, positions, finite):
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
    for e in edges_of_vertex(P, v):
        a, b = P.edges[e]
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


def batched_kdisk_packings(cfg, body: ConvexBody, P):
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


def _require_midscribed(pre) -> None:
    if not pre.midscribed:
        raise NotMidscribed(
            "verification precondition failed: tangency %.3e, incidence %.3e"
            % (pre.max_tangency_residual, pre.max_incidence_residual))


def _trace_packings(cfg, body, P):
    """batched_kdisk_packings past its precondition."""
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
