"""Per-entry reference for the tangency system of ``midscribe.solver``.

This is the assembly the solver used before its index layout was built once
per (P, frame): every residual row and Jacobian entry is produced one at a
time, with scalar gauge calls per edge. Tests require the layout-based
``ConstraintSystem`` to reproduce its residual, its CSR Jacobian, its row
labels and its packing exactly.

``layout_row_labels`` names the rows of the solver's system from its
layout, as ``ConstraintSystem.row_labels`` did before it left the package,
which had no other reader.

``blockwise_jacobian`` is the solver's Jacobian as it was written before its
linear entries were gathered in one step: one array expression per block of
nonzeros. The solver's matrix must equal it bit for bit.

``degeneracy_guard`` is the continuation's collapse check as loops over
faces, one ``pdist`` per face, and over edges, one cross product per edge;
the solver's array version must give the same face sizes and raise the
same error. ``padded_face_circle_sizes`` is the face sizes as the solver
took them over a padded table of every face's edge pairs, before its list
of each face's pairs i < j; the two must agree bit for bit.

``continue_from_pattern`` and ``newton_refine`` are the solver's entry
points with the condition audit run eagerly, as it was before it was
deferred to the first read of a report: they run
``ConstraintSystem.condition`` at every accepted solution as they go. The solver's reports must equal theirs by ``repr`` and
after pickling.

``newton_core`` is the damped Newton solve as it was before it took a
contraction test; ``solver._newton_core`` without one must return what it
returns, bit for bit.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial.distance import pdist

from midscribe import packing, solver
from midscribe.bodies import BodyChart, BodyPath, ConvexBody
from midscribe.combinatorics import Frame, PolyhedralComplex
from midscribe.config import STEP_REJECT_REASONS, Configuration, SolveReport
from midscribe.errors import (DegenerateConfiguration, DegenerateMarks,
                              DimensionMismatch, MaxIterations, NoDecrease,
                              SingularJacobian, SolverError, StepUnderflow)


class ConstraintSystem:
    """Square residual/Jacobian assembly for one (P, frame, marks, body)."""

    def __init__(self, P: PolyhedralComplex, frame: Frame, marked_points,
                 body: ConvexBody):
        self.P = P
        self.frame = frame
        self.body = body
        self.marked_points = np.asarray(marked_points, dtype=float)
        if self.marked_points.shape != (3, 3):
            raise DimensionMismatch("need three marked points, got shape %r"
                                    % (self.marked_points.shape,))
        self.marked = {e: i for i, e in enumerate(frame.edges)}

        F, V, E = P.n_faces, P.n_vertices, P.n_edges
        self.face_off = 0
        self.vert_off = 4 * F
        self.edge_off = {}
        off = 4 * F + 4 * V
        for e in range(E):
            if e not in self.marked:
                self.edge_off[e] = off
                off += 3
        self.n_unknowns = off

        self.flags = [(v, f) for v in range(V) for f in P.vertex_faces[v]]
        n_rows = F + len(self.flags) + (4 * E - 3) + V
        if n_rows != self.n_unknowns:
            raise DimensionMismatch("system is not square: %d rows, %d unknowns"
                                    % (n_rows, self.n_unknowns))

    # -- packing between Configuration and the flat unknown vector ----------

    def pack(self, cfg: Configuration) -> np.ndarray:
        P = self.P
        if (cfg.normals.shape != (P.n_faces, 3)
                or cfg.vertices4.shape != (P.n_vertices, 4)
                or cfg.tangents.shape != (P.n_edges, 3)):
            raise DimensionMismatch("configuration does not match the complex")
        x = np.empty(self.n_unknowns)
        for f in range(P.n_faces):
            x[4 * f:4 * f + 3] = cfg.normals[f]
            x[4 * f + 3] = cfg.offsets[f]
        for v in range(P.n_vertices):
            x[self.vert_off + 4 * v:self.vert_off + 4 * v + 4] = cfg.vertices4[v]
        for e, off in self.edge_off.items():
            x[off:off + 3] = cfg.tangents[e]
        return x

    def unpack(self, x: np.ndarray) -> Configuration:
        P = self.P
        F, V, E = P.n_faces, P.n_vertices, P.n_edges
        normals = np.empty((F, 3))
        offsets = np.empty(F)
        for f in range(F):
            normals[f] = x[4 * f:4 * f + 3]
            offsets[f] = x[4 * f + 3]
        vertices4 = x[self.vert_off:self.vert_off + 4 * V].reshape(V, 4).copy()
        tangents = np.empty((E, 3))
        for e in range(E):
            if e in self.marked:
                tangents[e] = self.marked_points[self.marked[e]]
            else:
                off = self.edge_off[e]
                tangents[e] = x[off:off + 3]
        return Configuration(normals=normals, offsets=offsets,
                             vertices4=vertices4, tangents=tangents,
                             marked_edges=self.frame.edges,
                             marked_points=self.marked_points.copy())

    def renormalize(self, x: np.ndarray) -> np.ndarray:
        """Scale every vertex 4-vector block back to unit length."""
        x = x.copy()
        for v in range(self.P.n_vertices):
            blk = slice(self.vert_off + 4 * v, self.vert_off + 4 * v + 4)
            x[blk] /= np.linalg.norm(x[blk])
        return x

    # -- residual ------------------------------------------------------------

    def _views(self, x):
        F, V = self.P.n_faces, self.P.n_vertices
        N = x[:4 * F].reshape(F, 4)[:, :3]
        D = x[:4 * F].reshape(F, 4)[:, 3]
        X = x[self.vert_off:self.vert_off + 4 * V].reshape(V, 4)
        return N, D, X

    def _tangent(self, x, e):
        if e in self.marked:
            return self.marked_points[self.marked[e]]
        off = self.edge_off[e]
        return x[off:off + 3]

    def residual(self, x: np.ndarray) -> np.ndarray:
        P, body = self.P, self.body
        N, D, X = self._views(x)
        parts = [np.einsum("ij,ij->i", N, N) - 1.0]
        flag_rows = np.array([N[f] @ X[v, 1:] - D[f] * X[v, 0]
                              for v, f in self.flags])
        parts.append(flag_rows)
        edge_rows = []
        for e in range(P.n_edges):
            f, g = P.faces_of_edge(e)
            p = self._tangent(x, e)
            edge_rows.append(N[f] @ p - D[f])
            edge_rows.append(N[g] @ p - D[g])
            if e not in self.marked:
                edge_rows.append(body.value(p))
            u = np.cross(N[f], N[g])
            edge_rows.append(body.gradient(p) @ u)
        parts.append(np.array(edge_rows))
        parts.append(np.einsum("ij,ij->i", X, X) - 1.0)
        return np.concatenate(parts)

    def row_labels(self):
        labels = [("face_gauge", f) for f in range(self.P.n_faces)]
        labels += [("flag", v, f) for v, f in self.flags]
        for e in range(self.P.n_edges):
            f, g = self.P.faces_of_edge(e)
            labels.append(("edge_plane", e, f))
            labels.append(("edge_plane", e, g))
            if e not in self.marked:
                labels.append(("edge_gauge", e))
            labels.append(("edge_tangency", e))
        labels += [("vertex_norm", v) for v in range(self.P.n_vertices)]
        return labels

    # -- Jacobian ------------------------------------------------------------

    def jacobian(self, x: np.ndarray) -> sp.csr_matrix:
        P, body = self.P, self.body
        N, D, X = self._views(x)
        rows, cols, vals = [], [], []

        def put(r, c, vv):
            for k, v in zip(c, vv):
                rows.append(r)
                cols.append(k)
                vals.append(float(v))

        def ncols(f):
            return range(4 * f, 4 * f + 3)

        def dcol(f):
            return 4 * f + 3

        def vcols(v):
            return range(self.vert_off + 4 * v, self.vert_off + 4 * v + 4)

        r = 0
        for f in range(P.n_faces):
            put(r, ncols(f), 2.0 * N[f])
            r += 1
        for v, f in self.flags:
            put(r, ncols(f), X[v, 1:])
            put(r, [dcol(f)], [-X[v, 0]])
            put(r, vcols(v), [-D[f], N[f, 0], N[f, 1], N[f, 2]])
            r += 1
        for e in range(P.n_edges):
            f, g = P.faces_of_edge(e)
            p = self._tangent(x, e)
            u = np.cross(N[f], N[g])
            grad = body.gradient(p)
            free = e not in self.marked
            pcols = range(self.edge_off[e], self.edge_off[e] + 3) if free else None
            put(r, ncols(f), p)
            put(r, [dcol(f)], [-1.0])
            if free:
                put(r, pcols, N[f])
            r += 1
            put(r, ncols(g), p)
            put(r, [dcol(g)], [-1.0])
            if free:
                put(r, pcols, N[g])
            r += 1
            if free:
                put(r, pcols, grad)
                r += 1
            put(r, ncols(f), np.cross(N[g], grad))
            put(r, ncols(g), np.cross(grad, N[f]))
            if free:
                put(r, pcols, body.hessian(p) @ u)
            r += 1
        for v in range(P.n_vertices):
            put(r, vcols(v), 2.0 * X[v])
            r += 1
        return sp.csr_matrix((vals, (rows, cols)),
                             shape=(self.n_unknowns, self.n_unknowns))

    def singular_values(self, x: np.ndarray) -> np.ndarray:
        return np.linalg.svd(self.jacobian(x).toarray(), compute_uv=False)


def blockwise_jacobian(system, x: np.ndarray) -> sp.csc_matrix:
    """The Jacobian of a solver.ConstraintSystem at x, block by block as the
    solver wrote it before its linear entries became one gather: each
    block's values as an array expression, at the (row, col) pattern of the
    block, returned as a canonical CSC matrix."""
    P = system.P
    F, V = P.n_faces, P.n_vertices
    N, D, X = system._views(x)
    T, G, U = system.terms(x)
    layout = system.layout
    free = layout.free
    fv, ff = layout.flag_v, layout.flag_f
    f, g = layout.edge_faces.T
    HU = (system.body.hessians(T[free]) @ U[free][:, :, None])[:, :, 0]
    ncols = 4 * np.arange(F)[:, None] + np.arange(3)
    dcol = 4 * np.arange(F)[:, None] + 3
    vcols = layout.vert_off + 4 * np.arange(V)[:, None] + np.arange(4)
    flag = F + np.arange(len(fv))[:, None]
    fg = layout.edge_faces.T
    plane, tangency = layout.edge_rows.T[:2, :, None], layout.edge_rows[:, 3:]
    blocks = [
        (np.arange(F)[:, None], ncols, 2.0 * N),
        (flag, ncols[ff], X[fv, 1:]),
        (flag, dcol[ff], -X[fv, :1]),
        (flag, vcols[fv, :1], -D[ff][:, None]),
        (flag, vcols[fv, 1:], N[ff]),
        (plane, ncols[fg], T),
        (plane, dcol[fg], -1.0),
        (tangency, ncols[f], solver._cross(N[g], G)),
        (tangency, ncols[g], solver._cross(G, N[f])),
        (layout.edge_rows[free][:, :, None], layout.tangent_cols[:, None],
         np.stack([N[f][free], N[g][free], G[free], HU], axis=1)),
        (system.n_unknowns - V + np.arange(V)[:, None], vcols, 2.0 * X),
    ]
    rows, cols, vals = zip(*(np.broadcast_arrays(*block) for block in blocks))
    n = system.n_unknowns
    return sp.coo_matrix((np.concatenate([v.ravel() for v in vals]),
                          (np.concatenate([r.ravel() for r in rows]),
                           np.concatenate([c.ravel() for c in cols]))),
                         shape=(n, n)).tocsc()


def layout_row_labels(system):
    """The label of each row of a solver.ConstraintSystem, read off its
    SystemLayout."""
    layout = system.layout
    labels = [("face_gauge", f) for f in range(system.P.n_faces)]
    labels += [("flag", v, f) for v, f in zip(layout.flag_v.tolist(),
                                              layout.flag_f.tolist())]
    for e, (f, g) in enumerate(layout.edge_faces.tolist()):
        edge = (("edge_plane", e, f), ("edge_plane", e, g),
                ("edge_gauge", e), ("edge_tangency", e))
        labels += [label for label, row in zip(edge, layout.edge_rows[e])
                   if row >= 0]
    labels += [("vertex_norm", v) for v in range(system.P.n_vertices)]
    return labels


def face_circle_sizes(P: PolyhedralComplex, T: np.ndarray) -> np.ndarray:
    """Largest distance between two tangent points of each face."""
    return np.array([float(pdist(T[list(P.boundary_edges(f))]).max())
                     for f in range(P.n_faces)])


def padded_face_circle_sizes(P: PolyhedralComplex,
                             T: np.ndarray) -> np.ndarray:
    """Largest distance between two tangent points of each face, as the
    solver took it before its pair list: over all k x k differences of a
    padded (F, k) table of boundary edges, k the longest boundary, shorter
    faces padded with their own first edge."""
    bounds = [P.boundary_edges(f) for f in range(P.n_faces)]
    k = max(len(b) for b in bounds)
    B = T[np.array([b + b[:1] * (k - len(b)) for b in bounds], dtype=int)]
    D = B[:, :, None, :] - B[:, None, :, :]
    return np.sqrt(np.sum(D * D, axis=-1)).max(axis=(1, 2))


def degeneracy_guard(system, x, s):
    """Abort rather than accept collapsing tangencies or face circles; the
    thresholds are read from solver at call time, as the solver reads them."""
    P = system.P
    T = system.tangents(x)
    dmin = float(pdist(T).min())
    if dmin <= solver.MIN_TANGENT_SEPARATION:
        raise DegenerateConfiguration(
            "tangent points %.3e apart at s=%.6f" % (dmin, s))
    for f in range(P.n_faces):
        size = float(pdist(T[list(P.boundary_edges(f))]).max())
        if size <= solver.MIN_FACE_CIRCLE_SIZE:
            raise DegenerateConfiguration(
                "face %d circle of size %.3e at s=%.6f" % (f, size, s))
    N = system.unpack(x).normals
    for e in range(P.n_edges):
        f, g = P.faces_of_edge(e)
        sine = float(np.linalg.norm(np.cross(N[f], N[g])))
        if sine <= solver.MIN_EDGE_SINE:
            raise DegenerateConfiguration(
                "edge %d between faces %d and %d has |n_f x n_g| = %.3e at "
                "s=%.6f" % (e, f, g, sine, s))


def assemble_residual(cfg: Configuration, body: ConvexBody,
                      P: PolyhedralComplex, frame: Frame, marks) -> np.ndarray:
    """The solver's residual at cfg, for (P, frame, marks, body)."""
    system = solver.ConstraintSystem(P, frame, marks, body)
    return system.residual(system.pack(cfg))


def newton_core(system, x: np.ndarray, tol: float, max_iter: int):
    """Damped Newton on sparse LU directions, with the dense minimum-norm
    lstsq direction wherever the LU is singular or its direction does not
    decrease the residual. Returns (x, iterations, residual max-norm,
    terms(x))."""
    x = system.renormalize(x)
    terms = system.terms(x)
    r = system.residual(x, terms)
    res = float(np.max(np.abs(r)))
    res2 = float(np.linalg.norm(r))
    for it in range(max_iter):
        if res < tol:
            return x, it, res, terms
        J = system.jacobian(x, terms)
        accepted = None
        try:
            delta = spla.splu(J).solve(-r)
            if np.all(np.isfinite(delta)):
                accepted = solver._line_search(system, x, delta, res, res2)
        except RuntimeError:
            pass
        if accepted is None:
            delta = np.linalg.lstsq(J.toarray(), -r, rcond=1e-12)[0]
            if not np.all(np.isfinite(delta)):
                raise SingularJacobian("linear solve produced non-finite step")
            accepted = solver._line_search(system, x, delta, res, res2)
        if accepted is None:
            raise NoDecrease("line search exhausted at residual %.3e" % res)
        x, terms, r, res, res2 = accepted
    if res < tol:
        return x, max_iter, res, terms
    raise MaxIterations("residual %.3e after %d iterations" % (res, max_iter))


def newton_refine(cfg: Configuration, body: ConvexBody, P: PolyhedralComplex,
                  frame: Frame, marks, tol: float = 1e-11):
    """solver.newton_refine with the condition audit run before returning."""
    system = solver.ConstraintSystem(P, frame, marks, body)
    x, iters, res, _ = solver._newton_core(system, system.pack(cfg), tol,
                                           solver.REFINE_MAX_ITERATIONS)
    cond, rank_def = system.condition(x)
    report = SolveReport(converged=True, iterations=iters, final_residual=res,
                         jacobian_condition_estimate=cond,
                         rank_deficiency=rank_def)
    return system.unpack(x), report


def continue_from_pattern(planar: packing.CirclePattern, marks_z,
                          path: BodyPath, tol: float = 1e-11):
    """solver.continue_from_pattern with the condition audit run at every
    accepted step, as the step is accepted."""
    z = tuple(complex(zi) for zi in marks_z)
    if len({z[0], z[1], z[2]}) != 3:
        raise DegenerateMarks("marks %r are not distinct" % (z,))

    P, frame = planar.P, planar.frame
    cfg0 = packing.koebe_config(packing.lift_normalize(planar, z))

    def marks_at(body):
        return BodyChart(body).inverse(z)

    history = []
    rejected = dict.fromkeys(STEP_REJECT_REASONS, 0)
    worst_cond = 0.0
    rank_def = 0
    total_iters = 0

    def audit(system, x):
        nonlocal worst_cond, rank_def
        cond, rank_def = system.condition(x)
        worst_cond = max(worst_cond, cond)

    body0 = path.eval(0.0)
    system = solver.ConstraintSystem(P, frame, marks_at(body0), body0)
    x, iters, res, terms = solver._newton_core(system, system.pack(cfg0), tol,
                                               solver.NEWTON_MAX_ITERATIONS)
    total_iters += iters
    history.append((0.0, 0.0, iters))
    audit(system, x)
    solver._degeneracy_guard(system, x, 0.0)
    pattern = solver._sign_pattern(system, x)

    # the first try goes straight to s = 1 and must contract; once it is
    # rejected, the loop starts over with DS_INIT
    s, ds, theta_max = 0.0, 1.0, solver.THETA_MAX
    tangent = solver._tangent(system, x, terms, path)
    while s < 1.0 - 1e-15:
        s_try = min(1.0, s + ds)
        system.body = path.eval(s_try)
        system.marked_points = marks_at(system.body)
        reason = None
        try:
            x_new, iters, res_new, terms = solver._newton_core(
                system, x + (s_try - s) * tangent, tol,
                solver.NEWTON_MAX_ITERATIONS, theta_max)
            solver._degeneracy_guard(system, x_new, s_try)
            if np.any(solver._sign_pattern(system, x_new) != pattern):
                reason = "branch"
        except DegenerateConfiguration as exc:
            reason, degenerate = "degeneracy", exc
        except SolverError:
            reason = "corrector"
        if reason is not None:
            rejected[reason] += 1
            if theta_max is not None:
                ds, theta_max = solver.DS_INIT, None
                continue
            ds *= 0.5
            if ds < solver.DS_MIN:
                if reason == "degeneracy":
                    raise degenerate
                report = SolveReport(converged=False, iterations=total_iters,
                                     final_residual=res,
                                     jacobian_condition_estimate=worst_cond
                                     or float("nan"),
                                     step_history=history,
                                     rank_deficiency=rank_def,
                                     steps_rejected=rejected)
                raise StepUnderflow("continuation step fell below %.1e at "
                                    "s=%.6f" % (solver.DS_MIN, s),
                                    last_good_s=s, report=report)
            continue
        total_iters += iters
        history.append((s_try, ds, iters))
        audit(system, x_new)
        s, x, res = s_try, x_new, res_new
        if s < 1.0:
            tangent = solver._tangent(system, x, terms, path)
        if iters <= 3:
            ds *= 1.5

    report = SolveReport(converged=True, iterations=total_iters,
                         final_residual=res,
                         jacobian_condition_estimate=worst_cond
                         or float("nan"),
                         step_history=history, rank_deficiency=rank_def,
                         steps_rejected=rejected)
    return system.unpack(x), report
