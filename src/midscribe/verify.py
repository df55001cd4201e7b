"""Independent checks of a solved configuration.

Everything here recomputes geometry from the face planes alone: edge lines
come from plane intersections, tangency is re-established by minimizing the
gauge along each full line, and the two disk packings are decided by convex
certificates. Solver residuals are never consulted, so a configuration that
merely claims convergence does not pass. The verifier imports nothing from
the solver and shares only the gauge API with it; the rigidity probe, which
re-solves with Newton, lives in solver.

Line tangency is checked on every edge line at once through the (m, 3)
gauge API, in six batched calls: each line's point in closed form from
its two planes, two Newton steps on the slope from the configuration's
tangent point, and one gradients call that certifies each Newton point:
the slope changes sign within 1e-14 (1 + |t|) of it, so by strict
convexity the line's one minimizer lies there (a safeguarded Newton, as in
Brent, Algorithms for Minimization without Derivatives, ch. 4). Only the
lines the certificate leaves open, such as contacts of fourth order, are
bracketed by doubling and bisected by _bisect_slopes, all open rows
halved in lockstep, one gradients call per halving. This search,
_minimizers, is the verifier's one line minimizer: the vertex segments of
the packings below take it too. Incidence and convexity are array
expressions over all face-vertex pairs.

The K-disk packings are decided without tracing a disk, by convex
separation (Rockafellar, Convex Analysis, sections 11 and 13), every pair
of every packing in a few batched gauge calls:

- The visibility disks of two vertices v and w outside K meet exactly when
  the segment [v, w] misses the interior of K. If it does, a plane
  separates it from K; pushed to support K at X, it shows X visible from
  both. If it does not, no supporting plane has both ends on its far side.
  So a non-adjacent pair is disjoint once one point of [v, w] has F < 0
  (a few samples are tried, then the minimum of F along the segment), and
  an adjacent pair touches exactly when its edge line, tangent by the
  midscription check, touches K strictly inside the segment.
- The face disks, K cut by n . x >= d, of faces f and g meet exactly when
  phi(l) = h_K(l n_f + (1 - l) n_g) - (l d_f + (1 - l) d_g) >= 0 on
  [0, 1], by minimax over K, where h_K is the support function
  (ConvexBody.supports). phi is convex, so one l with phi < 0 shows the
  pair disjoint. An adjacent pair touches exactly when grad F at its
  edge's tangent point is a positive combination of n_f and n_g: then the
  open wedge beyond both planes misses K, and otherwise it dips into K.
- Non-degeneracy, that no point lies in three disk closures, can then fail
  only on the triangles of the contact graph, and the same arguments
  apply with the triangle, or the simplex of l, in place of the segment.
  One point certifies each triangle: for vertex disks the mean of its
  three edges' tangent points, inside K by strict convexity; for face
  disks the mean of the points of the simplex where its three adjacent
  pairs touch, where phi < 0 by convexity.

Each certificate is compared with its own rounding bound, a few eps times
the size of its terms, and not with an absolute tolerance. The boundary
tracer these certificates replaced, and its scalar predecessor, are the
references of the tests in tests/kdisk_oracle.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import ROUNDING, ConvexBody, _cross, _rowdot
from .combinatorics import PolyhedralComplex, derived
from .config import EPS_INFINITY, Configuration
from .errors import DegenerateConfiguration, NotMidscribed

TANGENCY_TOL = 1e-9
SIDE_TOL = 1e-9
# the tangency and incidence a configuration needs before its packings
# are decided
CONTACT_TOL = 1e-7
KDISK_STAGE = "K-disk extraction"
# Halvings of a slope bracket in _bisect_slopes, on a line that Newton leaves
# open; a row still open after them keeps its bracket.
LINE_BISECTIONS = 100
# The points of a vertex segment [v, w], v + t (w - v), and the l of a face
# pair's phi that are tried before a pair gets its exact minimum, in order:
# the middle first, as a segment between two far vertices crosses K there.
SEGMENT_SAMPLES = (0.5, 0.25, 0.75, 0.125, 0.375, 0.625, 0.875)
FACE_SAMPLES = (0.5, 0.25, 0.75)
# Golden-section steps of an uncertified face pair's phi: they shrink its
# bracket [0, 1] to 1e-12.
PHI_ITERATIONS = 58


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


@dataclass
class DiskPacking:
    """The certificates of one K-disk packing.

    contacts_ok: every pair of disks whose owners are adjacent touches,
    and every other pair is disjoint. nondegenerate: no point lies in
    three disk closures, decided on the triangles of the contact graph,
    which is all that can fail once contacts_ok holds. worst_certificate:
    the greatest certificate value of a non-adjacent pair (F on a vertex
    segment, phi for a face pair; each pair is disjoint when its value is
    below its rounding bound), or -inf when every pair is adjacent.
    exact_minima: the non-adjacent pairs no fixed sample certified, which
    took an exact one-dimensional minimum.
    """

    contacts_ok: bool
    nondegenerate: bool
    worst_certificate: float
    exact_minima: int


# ---------------------------------------------------------------------------
# midscription

def _line_minima(body: ConvexBody, n_f, d_f, n_g, d_g, guesses):
    """Global minima of the gauge along the intersection lines of plane pairs.

    Row k is the line where the planes n_f[k] . x = d_f[k] and n_g[k] . x =
    d_g[k] meet. Returns (min values (m,), minimizers (m, 3)); a row whose
    planes are parallel or whose bracket cannot be placed gets (inf, nan).
    The restriction of a strictly convex coercive gauge to a line is
    strictly convex, so the minimum is unique, and the guesses only seed
    the search. All lines are searched together:

    - the point of each line nearest the origin in closed form, with W =
      n_f x n_g: Q = (d_f (n_g x W) + d_g (W x n_f)) / |W|^2, plus the same
      formula applied once to the plane residuals of Q, which takes lines
      whose planes meet at a small angle to rounding;
    - _minimizers from the guesses projected onto the lines: two
      curvature-guarded Newton steps on the slope and the certificate of
      _certified, that the slope changes sign across the Newton point t,
      so the minimizer is within 1e-14 (1 + |t|) of it. A row the
      certificate leaves open (a contact of higher order, where Newton
      converges only linearly, a poor guess, a constant slope or a
      non-finite row) takes _bisected_minimizers from its guess.
    """
    W = _cross(n_f, n_g)
    w2 = _rowdot(W, W)
    values = np.full(len(W), math.inf)
    minimizers = np.full((len(W), 3), np.nan)
    live = np.flatnonzero(~(np.sqrt(w2) < 1e-12))
    W, w2, n_f, n_g = W[live], w2[live, None], n_f[live], n_g[live]
    d_f, d_g = d_f[live], d_g[live]
    A, B = _cross(n_g, W), _cross(W, n_f)
    Q = (d_f[:, None] * A + d_g[:, None] * B) / w2
    Q = Q + ((d_f - _rowdot(n_f, Q))[:, None] * A
             + (d_g - _rowdot(n_g, Q))[:, None] * B) / w2
    U = W / np.sqrt(w2)

    t0 = _rowdot(np.asarray(guesses, dtype=float)[live] - Q, U)
    t0[~np.isfinite(t0)] = 0.0
    t, ok = _minimizers(body, Q, U, t0)
    rows = np.flatnonzero(ok)
    M = Q[rows] + t[rows, None] * U[rows]
    values[live[rows]] = body.values(M)
    minimizers[live[rows]] = M
    return values, minimizers


def _minimizers(body: ConvexBody, Q, U, t0):
    """The minimizers t of the gauge along the lines Q + t U, and whether
    each was found: two curvature-guarded Newton steps on the slope from
    the guesses t0, the certificate of _certified, and _bisected_minimizers
    from t0 on the rows it leaves open. A Newton step at a flat contact can
    leap so far that the gauge overflows; such rows fail the certificate
    and are bisected, so the overflow is not reported."""
    t = t0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2):
            t = _line_newton(body, Q, U, t)
        ok = _certified(body, Q, U, t)
    rows = np.flatnonzero(~ok)
    if rows.size:
        t[rows], ok[rows] = _bisected_minimizers(body, Q[rows], U[rows],
                                                 t0[rows])
    return t, ok


def _certified(body: ConvexBody, Q, U, t) -> np.ndarray:
    """Whether the slope along each line Q + t U is < 0 at t - delta and >
    0 at t + delta, delta = 1e-14 (1 + |t|), the width at which
    _bisect_slopes stops: the slope of a strictly convex function
    increases, so then its one zero, the minimizer, lies between. One
    gradients call for both sides of every row; a nan slope fails, as at
    an infinite t."""
    delta = 1e-14 * (1.0 + np.abs(t))
    slopes = _line_slopes(body, np.vstack([Q, Q]), np.vstack([U, U]),
                          np.concatenate([t - delta, t + delta]))
    return (slopes[:len(t)] < 0) & (slopes[len(t):] > 0)


def _bisected_minimizers(body: ConvexBody, Q, U, t0):
    """The minimizers t along the lines Q + t U by bisection of the slope,
    and whether each row's bracket was placed (a row that is not gets nan):
    the slope is bracketed by doubling around the guesses t0, bisected by
    _bisect_slopes, then polished by two Newton steps where the curvature
    is positive. _minimizers sends it the rows, of edge lines or of vertex
    segments, whose Newton point the certificate leaves open."""
    ok = np.ones(len(t0), dtype=bool)
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
    lo, hi = _bisect_slopes(body, Q, U, ends[0][rows], ends[1][rows])
    t = 0.5 * (lo + hi)
    for _ in range(2):
        t = _line_newton(body, Q, U, t)
    found = np.full(len(t0), np.nan)
    found[rows] = t
    return found, ok


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


def _bisect_slopes(body: ConvexBody, Q, U, lo, hi):
    """The brackets of the slope's sign change along each line Q + t U,
    all open rows halved in lockstep, one gradients call per halving: mid
    = 0.5 (lo + hi), then lo = mid where the slope at mid is < 0, else hi =
    mid. A row closes once hi - lo < 1e-14 (1 + |mid|); a row still open
    after LINE_BISECTIONS halvings keeps its bracket."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    todo = np.arange(len(lo))
    for _ in range(LINE_BISECTIONS):
        if not todo.size:
            break
        mid = 0.5 * (lo[todo] + hi[todo])
        below = _line_slopes(body, Q[todo], U[todo], mid) < 0
        lo[todo] = np.where(below, mid, lo[todo])
        hi[todo] = np.where(below, hi[todo], mid)
        todo = todo[~(hi[todo] - lo[todo] < 1e-14 * (1.0 + np.abs(mid)))]
    return lo, hi


def _on_face(P: PolyhedralComplex) -> np.ndarray:
    """(F, V) mask of the vertices on each face; P owns it (derived)."""
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
    return _midscription(cfg, body, P)[0](tol)


def _midscription(cfg, body, P):
    """The work of check_midscription that does not depend on tol: the
    incidence residuals, the line minima and the convexity class. Returns
    the report as a function of tol, the line minimizers (E, 3), the unit
    vertex 4-vectors v4 and the (F, V) incidence residuals R, which the
    packings' precondition reads too."""
    v4 = cfg.vertices4 / np.linalg.norm(cfg.vertices4, axis=1, keepdims=True)
    on = derived(P, _on_face)
    R = np.abs(_rowdot(cfg.normals[:, None, :], v4[None, :, 1:])
               - cfg.offsets[:, None] * v4[None, :, 0])
    # fmax: a nan residual is skipped, not propagated into the maxima
    worst = np.fmax.reduce(R, axis=0, where=on, initial=0.0)
    max_inc = float(np.fmax.reduce(worst, initial=0.0))
    per_vertex = [{"vertex": v,
                   "max_incidence": float(worst[v]),
                   "finite": bool(abs(v4[v, 0]) > EPS_INFINITY)}
                  for v in range(P.n_vertices)]

    f, g = derived(P, _contact_graph, True)[0].T
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
    convexity = _convexity(cfg, P, v4)

    def report(tol):
        return VerifyReport(max_tangency_residual=max_tan,
                            max_incidence_residual=max_inc,
                            combinatorics_ok=(not np.any(R[~on] <= tol)
                                              and max_inc < tol),
                            convexity=convexity,
                            contact_graph_primal_ok=None,
                            contact_graph_dual_ok=None,
                            per_edge=per_edge, per_vertex=per_vertex, tol=tol)
    return report, minimizers, v4, R


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
    return _convexity(cfg, P, v4, detailed)


def _convexity(cfg, P, v4, detailed=False):
    """check_convexity on the unit vertex 4-vectors v4 of cfg."""
    if np.any(np.abs(v4[:, 0]) <= EPS_INFINITY):
        info = {"min_side_distance": math.nan, "marginal": False,
                "worst_pair": None}
        return ("projective-degenerate", info) if detailed else "projective-degenerate"
    X = v4[:, 1:] / v4[:, :1]
    on = derived(P, _on_face)
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

def _contact_graph(P: PolyhedralComplex, dual: bool):
    """The contact graph of the face disks (dual) or vertex disks, which P
    owns (derived): the ends of its edges (E, 2), P's edge_faces or edges;
    the non-adjacent pairs (m, 2), each as i < j; the triangles' disks (t,
    3) and edges (t, 3), found from one (n, n) table of edge ids."""
    ends = np.array(P.edge_faces if dual else P.edges).reshape(-1, 2)
    n = P.n_faces if dual else P.n_vertices
    edge = np.full((n, n), -1)
    edge[ends[:, 0], ends[:, 1]] = edge[ends[:, 1], ends[:, 0]] = np.arange(
        len(ends))
    i, j = np.triu_indices(n, 1)
    apart = edge[i, j] < 0
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    e, k = np.nonzero((edge[lo] >= 0) & (edge[hi] >= 0))
    e, k = e[k > hi[e]], k[k > hi[e]]
    return (ends, np.column_stack([i[apart], j[apart]]),
            np.column_stack([lo[e], hi[e], k]),
            np.column_stack([e, edge[lo[e], k], edge[hi[e], k]]))


def _gauge_certificates(body: ConvexBody, X):
    """F at the points X and whether each value is below its rounding
    bound: ROUNDING times F's terms, 2 + |F| for a gauge that is a sum of
    nonnegative terms minus 1 as every built-in one is, and |X| |grad F|,
    the change that rounding X by eps |X| can make."""
    F, G = body.values(X), body.gradients(X)
    bound = ROUNDING * (2.0 + np.abs(F)
                        + np.sqrt(_rowdot(X, X) * _rowdot(G, G)))
    return F, F < -bound


def _phi(body: ConvexBody, weights, N, d):
    """phi = h_K(sum_k w_k n_k) - sum_k w_k d_k for the weights (m, k) of
    the unit face normals N (m, k, 3) and offsets d (m, k), and whether
    each value is below its rounding bound, ROUNDING times its terms."""
    h = body.supports(np.einsum("mk,mkc->mc", weights, N))
    phi = h - np.einsum("mk,mk->m", weights, d)
    return phi, phi < -ROUNDING * (np.abs(h) + np.einsum("mk,mk->m", weights,
                                                          np.abs(d)))


def _segment_margins(body: ConvexBody, A, D):
    """The least F found on each segment A + t D, t in [0, 1], whether it
    certifies that the segment dips into K, and the number of segments that
    took the exact minimum.

    The points t in SEGMENT_SAMPLES are tried in turn, each on the rows
    still open. A row none certifies gets the minimizer of F along its
    whole line from its best sample, by _minimizers as for the edge lines,
    and F is evaluated at that t clipped to [0, 1]: F is convex along the
    line, so that is the segment's minimum. A row whose minimizer is not
    found is evaluated at its best sample again and stays uncertified.
    """
    value = np.full(len(A), math.inf)
    best = np.zeros(len(A))
    certified = np.zeros(len(A), dtype=bool)
    rows = np.arange(len(A))
    for t in SEGMENT_SAMPLES:
        if not rows.size:
            break
        F, ok = _gauge_certificates(body, A[rows] + t * D[rows])
        best[rows[F < value[rows]]] = t
        value[rows] = np.fmin(value[rows], F)
        certified[rows[ok]] = True
        rows = rows[~ok]
    if rows.size:
        Q, U = A[rows], D[rows]
        t, found = _minimizers(body, Q, U, best[rows])
        t = np.where(found, np.clip(t, 0.0, 1.0), best[rows])
        F, certified[rows] = _gauge_certificates(body, Q + t[:, None] * U)
        value[rows] = np.fmin(value[rows], F)
    return value, certified, rows.size


def _cap_margins(body: ConvexBody, N, d):
    """The least phi found for each face pair, with unit normals N (m, 2,
    3) and offsets d (m, 2), whether it certifies the pair disjoint, and
    the number of pairs that took the exact minimum.

    The l in FACE_SAMPLES are tried in turn, each on the pairs still open.
    A pair none certifies gets the minimum of its convex phi on [0, 1] by
    PHI_ITERATIONS golden-section steps, all such pairs in lockstep; only
    the sign of the minimum matters, which comparisons of phi resolve to
    rounding.
    """
    value = np.full(len(N), math.inf)
    certified = np.zeros(len(N), dtype=bool)
    rows = np.arange(len(N))

    def evaluate(rows, l):
        phi, ok = _phi(body, np.column_stack([l, 1.0 - l]), N[rows], d[rows])
        value[rows] = np.fmin(value[rows], phi)
        certified[rows] |= ok
        return phi

    for l in FACE_SAMPLES:
        rows = rows[~certified[rows]]
        if rows.size:
            evaluate(rows, np.full(rows.size, l))
    rows = rows[~certified[rows]]
    if rows.size:
        ratio = 0.5 * (math.sqrt(5.0) - 1.0)
        a, b = np.zeros(rows.size), np.ones(rows.size)
        c, e = b - ratio * (b - a), a + ratio * (b - a)
        f_c, f_e = evaluate(rows, c), evaluate(rows, e)
        for _ in range(PHI_ITERATIONS):
            if certified[rows].all():
                break
            left = f_c < f_e  # the minimum lies in [a, e]
            a, b = np.where(left, a, c), np.where(left, e, b)
            c, e = (np.where(left, b - ratio * (b - a), e),
                    np.where(left, c, a + ratio * (b - a)))
            f = evaluate(rows, np.where(left, c, e))
            f_c, f_e = np.where(left, f, f_e), np.where(left, f_c, f)
    return value, certified, rows.size


def _packing(touching, margins, certified, exact, triangles_ok):
    return DiskPacking(contacts_ok=bool(touching.all() and certified.all()),
                       nondegenerate=bool(triangles_ok.all()),
                       worst_certificate=float(np.max(margins,
                                                      initial=-math.inf)),
                       exact_minima=exact)


def _face_packing(cfg, body, P, minimizers) -> DiskPacking:
    """The face disks' certificates: phi on every non-adjacent pair, the
    cone test at every edge's tangent point, and phi inside every triangle
    of the dual graph.

    An adjacent pair's phi is 0 where l n_f + (1 - l) n_g is along grad F
    at its edge's tangent point, its touching point. On a triangle of the
    dual graph phi is convex on the simplex of l and 0 at the touching
    points on its three sides, so it is negative at their mean unless the
    three gradients are parallel; the simplex's centroid does not always
    do (the dodecahedron on the ball at marks 0, 1, i has triangles with
    phi > 0 there)."""
    size = np.linalg.norm(cfg.normals, axis=1)
    N, d = cfg.normals / size[:, None], cfg.offsets / size
    ends, pairs, triangles, sides = derived(P, _contact_graph, True)
    margins, certified, exact = _cap_margins(body, N[pairs], d[pairs])
    # grad F = a n_f + b n_g exactly when it has no component along the
    # edge line, and then (1 - c^2) (a, b) = (G . n_f - c G . n_g,
    # G . n_g - c G . n_f), c = n_f . n_g
    G = body.gradients(minimizers)
    n_f, n_g = N[ends[:, 0]], N[ends[:, 1]]
    c = _rowdot(n_f, n_g)
    Gf, Gg = _rowdot(G, n_f), _rowdot(G, n_g)
    a, b = Gf - c * Gg, Gg - c * Gf
    bound = ROUNDING * np.sqrt(_rowdot(G, G)) * (1.0 + np.abs(c))
    touching = (a > bound) & (b > bound)
    # each side's touching point as the l of its lower face, and their
    # mean on every triangle (p, q, r) with sides pq, pr and qr
    low = np.where(ends[:, 0] < ends[:, 1], a, b) / (a + b)
    pq, pr, qr = low[sides].T
    weights = np.column_stack([pq + pr, 1.0 - pq + qr, 2.0 - pr - qr]) / 3.0
    _, separate = _phi(body, weights, N[triangles], d[triangles])
    return _packing(touching, margins, certified, exact, separate)


def _visibility_packing(cfg, body, P, minimizers) -> DiskPacking:
    """The visibility disks' certificates: F on every non-adjacent
    segment, the place of every edge's tangent point on its segment, F at
    the mean of the tangent points of every triangle of the edge graph.
    That mean lies in the triangle, and inside K by strict convexity, so
    it certifies every triangle whose tangent points are apart by more
    than rounding."""
    positions, finite = cfg.affine_vertices()
    if not finite.all():
        raise DegenerateConfiguration("%s: vertex %d is at infinity" % (
            KDISK_STAGE, np.flatnonzero(~finite)[0]))
    ends, pairs, _, triangles = derived(P, _contact_graph, False)
    A = positions[pairs[:, 0]]
    margins, certified, exact = _segment_margins(
        body, A, positions[pairs[:, 1]] - A)
    v, w, M = positions[ends[:, 0]], positions[ends[:, 1]], minimizers
    D = w - v
    scale = ROUNDING * np.sqrt(_rowdot(D, D))
    r_v, r_w, r_M = (np.sqrt(_rowdot(X, X)) for X in (v, w, M))
    touching = ((_rowdot(M - v, D) > scale * (r_M + r_v))
                & (_rowdot(w - M, D) > scale * (r_w + r_M)))
    _, separate = _gauge_certificates(body, minimizers[triangles].mean(axis=1))
    return _packing(touching, margins, certified, exact, separate)


def extract_kdisk_packings(cfg: Configuration, body: ConvexBody,
                           P: PolyhedralComplex):
    """Decide the face-disk and visibility-disk packings on the body boundary.

    Returns (face_packing, visibility_packing) as DiskPacking values. The
    contact graph of the face disks must equal face adjacency (the dual
    graph) and that of the visibility disks must equal the edge graph.
    Raises NotMidscribed when the configuration fails the midscription
    precondition, and DegenerateConfiguration naming the vertex when one
    lies at infinity.
    """
    midscription, minimizers, v4, R = _midscription(cfg, body, P)
    _require_midscribed(cfg, P, midscription(CONTACT_TOL), v4, R)
    return _packings(cfg, body, P, minimizers)


def _require_midscribed(cfg, P, report: VerifyReport, v4, R) -> None:
    """The precondition of the certificates: tangency and incidence below
    CONTACT_TOL, and every vertex off each face plane it does not lie on
    by more than the incidence residual's rounding bound, ROUNDING times
    its terms. An absolute tolerance there would reject correct
    configurations: the 480-vertex ellipsoid witness has a vertex 1e-7
    from a face plane it is not on. v4 and R are _midscription's."""
    terms = (_rowdot(np.abs(cfg.normals)[:, None, :], np.abs(v4[None, :, 1:]))
             + np.abs(cfg.offsets)[:, None] * np.abs(v4[None, :, 0]))
    off = ~derived(P, _on_face)
    separated = not np.any(R[off] <= ROUNDING * terms[off])
    if not (separated and report.max_tangency_residual < CONTACT_TOL
            and report.max_incidence_residual < CONTACT_TOL):
        raise NotMidscribed(
            "verification precondition failed: tangency %.3e, incidence %.3e"
            % (report.max_tangency_residual, report.max_incidence_residual))


def _packings(cfg, body, P, minimizers):
    """extract_kdisk_packings past its precondition, from the edge lines'
    minimizers."""
    return (_face_packing(cfg, body, P, minimizers),
            _visibility_packing(cfg, body, P, minimizers))


def verify_configuration(cfg: Configuration, body: ConvexBody,
                         P: PolyhedralComplex, tol: float = TANGENCY_TOL,
                         with_packings: bool = True) -> VerifyReport:
    """Full report: midscription, convexity, and both contact graphs.

    The disk packings are only decided for convex realizations; that is
    the regime where the contact graphs are required to match the edge and
    dual graphs. For nonconvex or projective-degenerate configurations the
    contact flags stay None. The line minima are computed once and serve
    the report at tol, the packings' precondition and their certificates.
    """
    midscription, minimizers, v4, R = _midscription(cfg, body, P)
    report = midscription(tol)
    if with_packings and report.convexity == "convex":
        try:
            _require_midscribed(cfg, P, report, v4, R)
            face_packing, visibility_packing = _packings(cfg, body, P,
                                                         minimizers)
        except (NotMidscribed, DegenerateConfiguration):
            report.contact_graph_primal_ok = False
            report.contact_graph_dual_ok = False
        else:
            report.contact_graph_dual_ok = (face_packing.contacts_ok
                                            and face_packing.nondegenerate)
            report.contact_graph_primal_ok = (visibility_packing.contacts_ok
                                              and visibility_packing.nondegenerate)
    return report
