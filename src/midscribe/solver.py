"""Tangency constraint system and the ball-to-K continuation solver.

Unknowns: one (normal, offset) pair per face, one projective 4-vector per
vertex, one tangent point per unmarked edge. Equations: unit face normals,
vertex-on-plane for every flag, the two plane memberships plus boundary
membership plus normal-orthogonality for every edge tangent point, and unit
vertex 4-vectors. The three marked tangent points are substituted as
constants, which removes 9 unknowns and 3 boundary equations and makes the
system exactly square.

Which row and column each of these occupies depends on (P, frame) alone, so
ConstraintSystem builds that index layout once and evaluates the residual
and Jacobian as array expressions over it, with one batched gauge call per
quantity. A continuation builds one system and swaps the body and the
marked points in at every step. newton_refine and the restarts of
rigidity_probe, the empirical uniqueness check, are Newton solves too.

The residual tolerance tol is a continuation's one setting: the normalized
solution is unique for given P, K and marks, so the step sizes, the Newton
caps and the degeneracy thresholds below change how it is reached, not
which; the rigidity probe's noise, seed and restart tolerance only how
uniqueness is tested. They are module constants, read at call time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial.distance import pdist

from . import packing
from .bodies import BodyChart, BodyPath, ConvexBody, _rowdot
from .combinatorics import Frame, PolyhedralComplex
from .config import Configuration, SolveReport
from .errors import (
    DegenerateConfiguration,
    DegenerateMarks,
    DimensionMismatch,
    MaxIterations,
    NoDecrease,
    SingularJacobian,
    SolverError,
    StepUnderflow,
)

# The rows of one edge, in row order; "gauge" is left out on a marked edge,
# whose tangent point is pinned on the body.
EDGE_ROWS = ("plane_f", "plane_g", "gauge", "tangency")

# Newton iterations allowed per continuation step before the step is halved
NEWTON_MAX_ITERATIONS = 30
# continuation step in s: first step, smallest before giving up, largest
DS_INIT = 0.1
DS_MIN = 1e-4
DS_MAX = 0.25
# an accepted solution with two tangent points this close, or a face whose
# tangent points all lie this close, aborts the continuation
MIN_TANGENT_SEPARATION = 1e-6
MIN_FACE_CIRCLE_SIZE = 1e-6
# the condition audit takes a dense SVD up to this many unknowns, and above
# it estimates the extreme singular values by Lanczos through sparse LUs:
# the break-even of the two audits, measured on Jacobians of the corpus
DENSE_AUDIT_MAX_N = 250
# a Lanczos estimate with sigma_min / sigma_max at or below this goes back to
# the dense SVD, which alone counts the rank deficiency (acceptance
# criterion 5 bounds the same ratio)
LANCZOS_MIN_RATIO = 1e-8
# Newton iterations newton_refine allows
REFINE_MAX_ITERATIONS = 50
# each rigidity_probe restart adds uniform noise of this magnitude to every
# unknown, drawn from default_rng(RIGIDITY_SEED), and runs Newton to
# RIGIDITY_TOL within RIGIDITY_MAX_ITERATIONS
RIGIDITY_PERTURBATION = 1e-3
RIGIDITY_SEED = 0
RIGIDITY_TOL = 1e-11
RIGIDITY_MAX_ITERATIONS = 60


class ConstraintSystem:
    """Square residual/Jacobian of the tangency system for one (P, frame).

    __init__ builds the index layout from (P, frame) alone:

    - unknowns x: [n_f, d_f] per face (4F), the 4-vector X_v per vertex
      (4V), then the tangent point p_e of each free edge in edge order.
      free masks the edges outside frame.edges; tangent_cols holds the
      (n_free, 3) columns of their tangent points.
    - rows: F face rows |n_f|^2 - 1; one row <n_f, X_v[1:]> - d_f X_v[0]
      per flag (flag_v[k], flag_f[k]), vertex-major; per edge e, with faces
      edge_faces[e] = (f, g), the EDGE_ROWS <n_f, p_e> - d_f,
      <n_g, p_e> - d_g, F(p_e) and <grad F(p_e), n_f x n_g>, numbered by the
      (E, 4) table edge_rows (-1 in the gauge slot of a marked edge); then
      V rows |X_v|^2 - 1.
    - the Jacobian's (row, col) pattern, sorted once into its CSC layout.
    - face_edges: the (F, k) boundary edges of each face, k the longest
      boundary, shorter faces padded with their own first edge.

    body and marked_points (three points, in frame edge order) are plain
    attributes; assigning new ones keeps the layout.
    """

    def __init__(self, P: PolyhedralComplex, frame: Frame, marked_points,
                 body: ConvexBody):
        self.P = P
        self.frame = frame
        self.body = body
        self.marked_points = np.asarray(marked_points, dtype=float)
        if self.marked_points.shape != (3, 3):
            raise DimensionMismatch("need three marked points, got shape %r"
                                    % (self.marked_points.shape,))

        F, V, E = P.n_faces, P.n_vertices, P.n_edges
        self.vert_off = 4 * F
        self.free = np.ones(E, dtype=bool)
        self.free[list(frame.edges)] = False
        n_free = int(np.count_nonzero(self.free))
        self.tangent_cols = (4 * F + 4 * V + 3 * np.arange(n_free)[:, None]
                             + np.arange(3))
        self.n_unknowns = 4 * F + 4 * V + 3 * n_free

        self.flag_v, self.flag_f = np.array(
            [(v, f) for v in range(V) for f in P.vertex_faces[v]],
            dtype=int).reshape(-1, 2).T
        self.edge_faces = np.array([P.faces_of_edge(e) for e in range(E)],
                                   dtype=int).reshape(E, 2)
        has_row = np.ones((E, len(EDGE_ROWS)), dtype=bool)
        has_row[:, EDGE_ROWS.index("gauge")] = self.free
        self.edge_rows = np.where(has_row, F + len(self.flag_v) - 1
                                  + np.cumsum(has_row).reshape(has_row.shape),
                                  -1)
        n_rows = F + len(self.flag_v) + int(np.count_nonzero(has_row)) + V
        if n_rows != self.n_unknowns:
            raise DimensionMismatch("system is not square: %d rows, %d unknowns"
                                    % (n_rows, self.n_unknowns))
        bounds = [P.boundary_edges(f) for f in range(F)]
        k = max(len(b) for b in bounds)
        self.face_edges = np.array([b + b[:1] * (k - len(b)) for b in bounds],
                                   dtype=int)

        blocks = [np.broadcast_arrays(r, c) for r, c in self._jacobian_pattern()]
        rows = np.concatenate([r.ravel() for r, _ in blocks])
        cols = np.concatenate([c.ravel() for _, c in blocks])
        self._csc_order = np.lexsort((rows, cols))
        self._csc_indices = rows[self._csc_order]
        self._csc_indptr = np.searchsorted(cols[self._csc_order],
                                           np.arange(self.n_unknowns + 1))

    def _jacobian_pattern(self):
        """(rows, cols) of each block of nonzeros, in the order
        _jacobian_values lists the blocks' values; rows broadcast against
        cols."""
        F, V = self.P.n_faces, self.P.n_vertices
        ncols = 4 * np.arange(F)[:, None] + np.arange(3)
        dcol = 4 * np.arange(F)[:, None] + 3
        vcols = self.vert_off + 4 * np.arange(V)[:, None] + np.arange(4)
        fv, ff = self.flag_v, self.flag_f
        f, g = self.edge_faces.T
        plane_f, plane_g, _, tangency = self.edge_rows.T[:, :, None]
        return [
            (np.arange(F)[:, None], ncols),
            (F + np.arange(len(fv))[:, None],
             np.hstack([ncols[ff], dcol[ff], vcols[fv]])),
            (plane_f, np.hstack([ncols[f], dcol[f]])),
            (plane_g, np.hstack([ncols[g], dcol[g]])),
            (tangency, np.hstack([ncols[f], ncols[g]])),
            (self.edge_rows[self.free][:, :, None], self.tangent_cols[:, None]),
            (self.n_unknowns - V + np.arange(V)[:, None], vcols),
        ]

    # -- packing between Configuration and the flat unknown vector ----------

    def pack(self, cfg: Configuration) -> np.ndarray:
        P = self.P
        if (cfg.normals.shape != (P.n_faces, 3)
                or cfg.vertices4.shape != (P.n_vertices, 4)
                or cfg.tangents.shape != (P.n_edges, 3)):
            raise DimensionMismatch("configuration does not match the complex")
        x = np.empty(self.n_unknowns)
        N, D, X = self._views(x)
        N[:], D[:], X[:] = cfg.normals, cfg.offsets, cfg.vertices4
        x[self.tangent_cols] = cfg.tangents[self.free]
        return x

    def unpack(self, x: np.ndarray) -> Configuration:
        N, D, X = self._views(x)
        return Configuration(normals=N.copy(), offsets=D.copy(),
                             vertices4=X.copy(), tangents=self.tangents(x),
                             marked_edges=self.frame.edges,
                             marked_points=self.marked_points.copy())

    def renormalize(self, x: np.ndarray) -> np.ndarray:
        """Scale every vertex 4-vector block back to unit length."""
        x = x.copy()
        X = self._views(x)[2]
        X /= np.sqrt(_rowdot(X, X))[:, None]
        return x

    # -- residual and Jacobian -----------------------------------------------

    def _views(self, x):
        F, V = self.P.n_faces, self.P.n_vertices
        faces = x[:self.vert_off].reshape(F, 4)
        X = x[self.vert_off:self.vert_off + 4 * V].reshape(V, 4)
        return faces[:, :3], faces[:, 3], X

    def tangents(self, x: np.ndarray) -> np.ndarray:
        """(E, 3) tangent points: free ones from x, marked ones pinned."""
        T = np.empty((self.P.n_edges, 3))
        T[self.free] = x[self.tangent_cols]
        T[list(self.frame.edges)] = self.marked_points
        return T

    def residual(self, x: np.ndarray) -> np.ndarray:
        N, D, X = self._views(x)
        T = self.tangents(x)
        fv, ff = self.flag_v, self.flag_f
        f, g = self.edge_faces.T
        gauge = np.zeros(len(T))
        gauge[self.free] = self.body.values(T[self.free])
        edge = np.column_stack([  # one column per EDGE_ROWS entry
            _rowdot(N[f], T) - D[f],
            _rowdot(N[g], T) - D[g],
            gauge,
            _rowdot(self.body.gradients(T), _cross(N[f], N[g])),
        ])
        return np.concatenate([np.einsum("ij,ij->i", N, N) - 1.0,
                               _rowdot(N[ff], X[fv, 1:]) - D[ff] * X[fv, 0],
                               edge[self.edge_rows >= 0],
                               np.einsum("ij,ij->i", X, X) - 1.0])

    def row_labels(self):
        labels = [("face_gauge", f) for f in range(self.P.n_faces)]
        labels += [("flag", v, f) for v, f in zip(self.flag_v.tolist(),
                                                  self.flag_f.tolist())]
        for e, (f, g) in enumerate(self.edge_faces.tolist()):
            edge = (("edge_plane", e, f), ("edge_plane", e, g),
                    ("edge_gauge", e), ("edge_tangency", e))
            labels += [label for label, row in zip(edge, self.edge_rows[e])
                       if row >= 0]
        labels += [("vertex_norm", v) for v in range(self.P.n_vertices)]
        return labels

    def _jacobian_values(self, x: np.ndarray) -> np.ndarray:
        """The Jacobian's nonzeros at x, in _jacobian_pattern order."""
        N, D, X = self._views(x)
        T = self.tangents(x)
        free = self.free
        fv, ff = self.flag_v, self.flag_f
        f, g = self.edge_faces.T
        G = self.body.gradients(T)
        U = _cross(N[f], N[g])
        HU = (self.body.hessians(T[free]) @ U[free][:, :, None])[:, :, 0]
        plane = np.hstack([T, np.full((len(T), 1), -1.0)])
        values = [
            2.0 * N,
            np.hstack([X[fv, 1:], -X[fv, :1], -D[ff][:, None], N[ff]]),
            plane,
            plane,
            np.hstack([_cross(N[g], G), _cross(G, N[f])]),
            np.stack([N[f][free], N[g][free], G[free], HU], axis=1),
            2.0 * X,
        ]
        return np.concatenate([v.ravel() for v in values])

    def jacobian(self, x: np.ndarray) -> sp.csc_matrix:
        """The Jacobian at x in the CSC layout that splu factors, permuted
        straight from the nonzeros."""
        return sp.csc_matrix((self._jacobian_values(x)[self._csc_order],
                              self._csc_indices, self._csc_indptr),
                             shape=(self.n_unknowns, self.n_unknowns))

    def singular_values(self, x: np.ndarray) -> np.ndarray:
        return np.linalg.svd(self.jacobian(x).toarray(), compute_uv=False)

    def condition(self, x: np.ndarray):
        """(sigma_max / sigma_min, rank deficiency) of the Jacobian at x.

        The rank deficiency counts singular values below 1e-12 of the
        largest. Up to DENSE_AUDIT_MAX_N unknowns both come from the dense
        SVD. Above it the extreme singular values are estimated by Lanczos
        through sparse LUs (_lanczos_condition); the dense SVD still decides
        whenever the estimate fails or puts sigma_min / sigma_max at or below
        LANCZOS_MIN_RATIO, so a near-singular point gets the exact count.
        """
        if self.n_unknowns > DENSE_AUDIT_MAX_N:
            cond = _lanczos_condition(self.jacobian(x))
            if cond is not None:
                return cond, 0
        sv = self.singular_values(x)
        return float(sv[0] / sv[-1]), int(np.sum(sv < 1e-12 * sv[0]))


def _lanczos_condition(J: sp.csc_matrix):
    """sigma_max / sigma_min of the square J from the largest eigenvalues of
    J^T J and of its inverse, by implicitly restarted Lanczos (ARPACK
    eigsh), or None when either factorization or either eigensolve fails,
    or when sigma_min / sigma_max <= LANCZOS_MIN_RATIO.

    J and J.T.tocsc() get an LU each, so only an LU's plain solve(rhs) is
    called (bench/tracing.py wraps splu with exactly that; one LU solved
    with trans="T" would round differently). The start vector is a fixed
    random one, so the estimate is deterministic; a constant start vector
    can be orthogonal to the extreme singular vector of a symmetric complex.
    """
    n = J.shape[0]
    Jt = J.T.tocsc()
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        lu, lu_t = spla.splu(J), spla.splu(Jt)
    except RuntimeError:  # a factor is exactly singular
        return None
    gram = spla.LinearOperator((n, n), dtype=float,
                               matvec=lambda u: Jt @ (J @ u))
    inverse = spla.LinearOperator((n, n), dtype=float,
                                  matvec=lambda u: lu.solve(lu_t.solve(u)))
    try:
        smax2, = spla.eigsh(gram, k=1, which="LA", v0=v0,
                            return_eigenvectors=False)
        inv_smin2, = spla.eigsh(inverse, k=1, which="LA", v0=v0,
                                return_eigenvectors=False)
    except spla.ArpackError:
        return None
    cond2 = float(smax2 * inv_smin2)
    if not 0.0 < cond2 < LANCZOS_MIN_RATIO ** -2:  # also catches nan and inf
        return None
    return float(np.sqrt(cond2))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of two (n, 3) arrays, bitwise equal to
    np.cross(a, b): the same products and differences, without np.cross's
    per-call axis and broadcast handling."""
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    return np.column_stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                            a0 * b1 - a1 * b0])


class _ConditionAudit:
    """The condition audit of a solve, run when its SolveReport is read.

    Plain data: the solve's ConstraintSystem and each accepted step's
    (body, marked_points, x), recorded in order. run() puts every step's
    body and marks back into the system and calls condition there, so it
    reads DENSE_AUDIT_MAX_N and LANCZOS_MIN_RATIO when it runs.
    """

    def __init__(self, system: ConstraintSystem):
        self.system = system
        self.steps = []

    def record(self, x: np.ndarray):
        self.steps.append((self.system.body, self.system.marked_points, x))

    def run(self):
        """(worst condition number, or nan if none is positive; rank
        deficiency at the last step)."""
        system = self.system
        worst, rank_def = 0.0, 0
        for body, marked_points, x in self.steps:
            system.body, system.marked_points = body, marked_points
            cond, rank_def = system.condition(x)
            worst = max(worst, cond)
        return worst or float("nan"), rank_def


# ---------------------------------------------------------------------------
# Newton and continuation

def _line_search(system, x, delta, res_inf, res_two):
    """Backtracking halving; accept any decrease of the residual, measured
    in max-norm or 2-norm. Returns None when exhausted."""
    t = 1.0
    while t >= 1e-8:
        x_try = system.renormalize(x + t * delta)
        r_try = system.residual(x_try)
        inf_try = float(np.max(np.abs(r_try)))
        two_try = float(np.linalg.norm(r_try))
        if inf_try < res_inf or two_try < res_two:
            return x_try, r_try, inf_try, two_try
        t *= 0.5
    return None


def _newton_core(system: ConstraintSystem, x: np.ndarray, tol: float,
                 max_iter: int):
    """Damped Newton. The linear solve is a sparse LU; if the factorization
    is singular or its direction cannot decrease the residual (which happens
    at consistent systems whose Jacobian loses rank, e.g. tangencies at flat
    spots of the body), a dense minimum-norm least-squares direction is tried
    before giving up. Degeneracy stays visible through the rank audit."""
    x = system.renormalize(x)
    r = system.residual(x)
    res = float(np.max(np.abs(r)))
    res2 = float(np.linalg.norm(r))
    for it in range(max_iter):
        if res < tol:
            return x, it, res
        J = system.jacobian(x)
        accepted = None
        try:
            delta = spla.splu(J).solve(-r)
            if np.all(np.isfinite(delta)):
                accepted = _line_search(system, x, delta, res, res2)
        except RuntimeError:
            pass
        if accepted is None:
            delta = np.linalg.lstsq(J.toarray(), -r, rcond=1e-12)[0]
            if not np.all(np.isfinite(delta)):
                raise SingularJacobian("linear solve produced non-finite step")
            accepted = _line_search(system, x, delta, res, res2)
        if accepted is None:
            raise NoDecrease("line search exhausted at residual %.3e" % res)
        x, r, res, res2 = accepted
    if res < tol:
        return x, max_iter, res
    raise MaxIterations("residual %.3e after %d iterations" % (res, max_iter))


def newton_refine(cfg: Configuration, body: ConvexBody, P: PolyhedralComplex,
                  frame: Frame, marks, tol: float = 1e-11):
    """Damped Newton solve from cfg, within REFINE_MAX_ITERATIONS; returns
    (Configuration, SolveReport).

    The report's condition number and rank deficiency of the Jacobian at
    the solution come from ConstraintSystem.condition, run on the first read
    of either.
    """
    system = ConstraintSystem(P, frame, marks, body)
    x, iters, res = _newton_core(system, system.pack(cfg), tol,
                                 REFINE_MAX_ITERATIONS)
    audit = _ConditionAudit(system)
    audit.record(x)
    report = SolveReport(converged=True, iterations=iters, final_residual=res)
    report.defer_audit(audit)
    return system.unpack(x), report


def _face_circle_sizes(T: np.ndarray, face_edges: np.ndarray) -> np.ndarray:
    """Largest distance between two tangent points of each face; padding
    repeats a face's first edge, which adds only zero distances."""
    B = T[face_edges]
    D = B[:, :, None, :] - B[:, None, :, :]
    return np.sqrt(np.sum(D * D, axis=-1)).max(axis=(1, 2))


def _degeneracy_guard(system: ConstraintSystem, x: np.ndarray, s: float):
    """Abort rather than accept collapsing tangencies or face circles."""
    T = system.tangents(x)
    dmin = float(pdist(T).min())
    if dmin <= MIN_TANGENT_SEPARATION:
        raise DegenerateConfiguration(
            "tangent points %.3e apart at s=%.6f" % (dmin, s))
    sizes = _face_circle_sizes(T, system.face_edges)
    small = np.flatnonzero(sizes <= MIN_FACE_CIRCLE_SIZE)
    if small.size:
        f = int(small[0])
        raise DegenerateConfiguration(
            "face %d circle of size %.3e at s=%.6f" % (f, sizes[f], s))


def continue_to_body(P: PolyhedralComplex, frame: Frame, marks_z,
                     path: BodyPath, tol: float = 1e-11):
    """Track the configuration from the ball packing to the end of the path.

    Solves the radii and lays out the planar packing of (P, frame), then
    runs continue_from_pattern on it. Returns (Configuration, SolveReport).
    """
    planar = packing.layout_circles(P, frame, packing.solve_radii(P, frame))
    return continue_from_pattern(planar, marks_z, path, tol)


def continue_from_pattern(planar: packing.CirclePattern, marks_z,
                          path: BodyPath, tol: float = 1e-11):
    """Track the configuration from a planar ball packing to the end of path.

    planar is the laid-out packing of (P, frame) and carries both. The
    normalized packing is unique up to a Mobius map, so one planar layout
    serves every choice of marks: marks_z, three distinct chart coordinates,
    enter only through the lift to the sphere. At every step s the pinned
    tangent points are the chart images on the blended body, so the marks
    move continuously with s. One ConstraintSystem serves the whole run; each
    step swaps its body and marked points. Every accepted solution is
    recorded for the condition audit, which runs on the first read of the
    report's jacobian_condition_estimate or rank_deficiency (see
    SolveReport); nothing in the continuation reads them. Every Newton solve
    stops once the residual's max-norm is below tol. Returns
    (Configuration, SolveReport); a StepUnderflow carries a report that
    defers its audit the same way.
    """
    z = tuple(complex(zi) for zi in marks_z)
    if len({z[0], z[1], z[2]}) != 3:
        raise DegenerateMarks("marks %r are not distinct" % (z,))

    P, frame = planar.P, planar.frame
    cfg0 = packing.koebe_config(packing.lift_normalize(planar, z))

    def marks_at(body):
        return BodyChart(body).inverse(z)

    history = []
    total_iters = 0

    body0 = path.eval(0.0)
    system = ConstraintSystem(P, frame, marks_at(body0), body0)
    audit = _ConditionAudit(system)
    x, iters, res = _newton_core(system, system.pack(cfg0), tol,
                                 NEWTON_MAX_ITERATIONS)
    total_iters += iters
    history.append((0.0, 0.0, iters))
    audit.record(x)
    _degeneracy_guard(system, x, 0.0)

    s_prev, x_prev = 0.0, x
    s_prev2, x_prev2 = None, None
    ds = DS_INIT
    while s_prev < 1.0 - 1e-15:
        s_try = min(1.0, s_prev + ds)
        system.body = path.eval(s_try)
        system.marked_points = marks_at(system.body)
        if s_prev2 is not None and s_prev > s_prev2:
            w = (s_try - s_prev) / (s_prev - s_prev2)
            x0 = x_prev + w * (x_prev - x_prev2)
        else:
            x0 = x_prev
        try:
            x_new, iters, res = _newton_core(system, x0, tol,
                                             NEWTON_MAX_ITERATIONS)
        except SolverError:
            ds *= 0.5
            if ds < DS_MIN:
                report = SolveReport(converged=False, iterations=total_iters,
                                     final_residual=res, step_history=history)
                report.defer_audit(audit)
                raise StepUnderflow("continuation step fell below %.1e at "
                                    "s=%.6f" % (DS_MIN, s_prev),
                                    last_good_s=s_prev, report=report)
            continue
        total_iters += iters
        history.append((s_try, ds, iters))
        audit.record(x_new)
        _degeneracy_guard(system, x_new, s_try)
        s_prev2, x_prev2 = s_prev, x_prev
        s_prev, x_prev = s_try, x_new
        if iters <= 3:
            ds = min(ds * 1.5, DS_MAX)

    report = SolveReport(converged=True, iterations=total_iters,
                         final_residual=res, step_history=history)
    report.defer_audit(audit)
    return system.unpack(x_prev), report


# ---------------------------------------------------------------------------
# rigidity

@dataclass
class RigidityReport:
    n_starts: int
    n_converged: int
    max_pairwise_distance: float
    base_residual: float


def rigidity_probe(P: PolyhedralComplex, frame: Frame, marks_z,
                   path: BodyPath, n_starts: int = 10,
                   base: Configuration | None = None) -> RigidityReport:
    """Re-solve from perturbed starts at the end of the path.

    Runs the continuation once (or reuses base), then restarts the corrector
    n_starts times from the solution with uniform noise of magnitude
    RIGIDITY_PERTURBATION on every unknown. Reports the max pairwise
    distance between the vertex sets of converged runs; a tiny value is the
    empirical uniqueness witness. Restarts that fail to converge are
    counted, not propagated; a restart that converges to a
    projective-degenerate configuration yields an infinite distance.
    """
    if base is None:
        base, base_report = continue_to_body(P, frame, marks_z, path)
        base_res = base_report.final_residual
    else:
        base_res = math.nan
    body = path.eval(1.0)
    marks = BodyChart(body).inverse(marks_z)
    system = ConstraintSystem(P, frame, marks, body)
    x0 = system.pack(base)
    rng = np.random.default_rng(RIGIDITY_SEED)
    vertex_sets = []
    pos0, fin0 = base.affine_vertices()
    if fin0.all():
        vertex_sets.append(pos0)
    degenerate = not fin0.all()
    n_conv = 0
    for _ in range(n_starts):
        xp = x0 + rng.uniform(-RIGIDITY_PERTURBATION, RIGIDITY_PERTURBATION,
                              x0.shape)
        try:
            x, _, _ = _newton_core(system, xp, RIGIDITY_TOL,
                                   RIGIDITY_MAX_ITERATIONS)
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
