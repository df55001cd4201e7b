"""Scalar K-disk tracer: the reference the batched tracer in verify.py is
tested against.

These are the boundary-tracing routines verify.py used before it traced
whole disks at once: one boundary point per call, by scalar Newton with a
bisection fallback, and a loop over samples for the non-degeneracy count.
The scalar boundary point along a ray from the origin and the orthogonal of
one vector, which ``io.boundary_mesh`` and verify.py now compute in batches,
are here too. They are kept unchanged apart from ``scalar_kdisk_packings``,
which is the packing part of the old ``extract_kdisk_packings`` (the
midscription precondition is left to the caller), and ``_pair_contacts``,
which refines one disk pair at a time by bisecting the Lagrange condition
of the two margins.

Two routines that trace one vertex disk at a time with a bisection
horizon solve are kept as well: ``bisection_solve``, the old
``verify._Arcs.solve``, and ``per_disk_trace``, which follows
``verify._VertexDisks._trace`` one disk at a time. So is ``select_pairs``,
the old pair loop of ``verify._trace_packing``, one adjacency lookup per
ordered disk pair, and ``_golden_pairs``, the golden-section refinement of
the margins that ``verify._refine_pairs`` kept beside the Lagrange root.
"""

import math

import numpy as np

from midscribe.bodies import ConvexBody, ray_roots
from midscribe.errors import DegenerateConfiguration, NotStrictlyConvex
from midscribe.verify import (CONTACT_POSITION_TOL, CONTACT_TOL,
                              HORIZON_BISECTIONS, HORIZON_MIN,
                              N_BOUNDARY_SAMPLES, DiskPacking, KDisk, _circle)


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
    for e in P.edges_of_vertex(v):
        a, b = P.edge_vertices(e)
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
        v, w = P.edge_vertices(e)
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
