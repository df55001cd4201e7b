"""Tangency constraint system and the ball-to-K continuation solver.

Unknowns: one (normal, offset) pair per face, one projective 4-vector per
vertex, one tangent point per unmarked edge. Equations: unit face normals,
vertex-on-plane for every flag, the two plane memberships plus boundary
membership plus normal-orthogonality for every edge tangent point, and unit
vertex 4-vectors. The three marked tangent points are substituted as
constants, which removes 9 unknowns and 3 boundary equations and makes the
system exactly square.

Which row and column each of these occupies depends on (P, frame) alone, so
a SystemLayout holds that index layout, and ConstraintSystem evaluates the
residual and Jacobian as array expressions over it, with one batched gauge
call per quantity. A continuation builds one system and swaps the body and
the marked points in at every step. The complex owns the layout and the
planar ball packing the continuation starts from (combinatorics.derived):
the first solve of (P, frame) builds them, and every later one, in any
continuation, sweep cell or thread, shares them.
newton_refine and the restarts of rigidity_probe, the empirical uniqueness
check, are Newton solves too.

The continuation follows one solution branch from the ball's Koebe
configuration along the gauge homotopy F_s (Allgower and Georg, Introduction
to Numerical Continuation Methods, ch. 2 and 6). From each accepted point x
at s it predicts x + ds t along the branch's tangent, J t = -dr/ds on a
fresh LU of the Jacobian at x, with dr/ds in closed form
(ConstraintSystem.s_derivative), and corrects by damped Newton.

The first try is one step from s = 0 straight to s = 1, whose corrector
must contract: it is rejected as soon as an LU direction is longer than
THETA_MAX times the one before it, or where no LU direction decreases the
residual (Deuflhard, Newton Methods for Nonlinear Problems, ch. 2 and 5).
The normalized solution is unique, so a try that contracts all the way
ends where the stepped loop would. A rejected try leaves nothing but its
count in steps_rejected, and the loop starts from s = 0: its first step is
DS_INIT, and a step whose corrector needs at most 3 iterations grows the
next by 1.5. The try and the loop's steps pass the same acceptance: a step
is rejected when its corrector fails, when its solution changes the sign
pattern recorded at s = 0 (the side of each face plane each vertex off that
face lies on: a jump to another branch), or when its solution is
degenerate (_degeneracy_guard: tangent points run together, or two
adjacent face planes coincide, so that their edge has no line). A
rejected loop step halves ds. Once ds falls below DS_MIN the run raises
StepUnderflow, or re-raises the DegenerateConfiguration of a degenerate
try, so a genuine collapse keeps its error type. A degenerate start at
s = 0 aborts at once.

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
from .bodies import (NORTH_POLE, BodyChart, BodyPath, ConvexBody, _cross,
                     _rowdot)
from .combinatorics import Frame, PolyhedralComplex, derived
from .config import STEP_REJECT_REASONS, Configuration, SolveReport
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
# continuation step in s: the loop's first step, smallest before giving up
DS_INIT = 0.25
DS_MIN = 1e-4
# the first try, straight from s = 0 to s = 1, is rejected once an LU
# direction is longer than this times the one before it
THETA_MAX = 0.5
# an accepted solution with two tangent points this close, or a face whose
# tangent points all lie this close, aborts the continuation
MIN_TANGENT_SEPARATION = 1e-6
MIN_FACE_CIRCLE_SIZE = 1e-6
# and so does an edge whose two unit face normals have a cross product this
# short, two face planes about to coincide; the least on converged answers
# up to 480 vertices is 1.7e-4
MIN_EDGE_SINE = 1e-6
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


# the constant last entry of the source vector z of the Jacobian's linear
# entries
_ONE = np.ones(1)


class SystemLayout:
    """Where every unknown, equation and Jacobian entry of the tangency
    system sits for one (P, frame): all that ConstraintSystem derives from
    (P, frame) alone. P owns it (combinatorics.derived), so every system of
    (P, frame), in any thread, shares it.

    - unknowns x: [n_f, d_f] per face (4F), the 4-vector X_v per vertex
      (4V), then the tangent point p_e of each free edge in edge order.
      marked holds frame.edges as an index array, free masks the other
      edges; tangent_cols holds the (n_free, 3) columns of their tangent
      points.
    - rows: F face rows |n_f|^2 - 1; one row <n_f, X_v[1:]> - d_f X_v[0]
      per flag (flag_v[k], flag_f[k]), vertex-major; per edge e, with faces
      edge_faces[e] = (f, g), the EDGE_ROWS <n_f, p_e> - d_f,
      <n_g, p_e> - d_g, F(p_e) and <grad F(p_e), n_f x n_g>, numbered by the
      (E, 4) table edge_rows (-1 in the gauge slot of a marked edge); then
      V rows |X_v|^2 - 1.
    - the Jacobian: the CSC indices and indptr of the (row, col) pattern,
      sorted once, int32, and whether it is canonical (no entry repeats).
      Its entries that are linear in the unknowns (a coefficient 1, -1 or 2
      times an unknown, a marked-point coordinate or 1) get their data
      positions, their sources in z = [x, marked_points.ravel(), 1.0] and
      their coefficients; the other blocks of _jacobian_pattern get their
      data positions.
    - face_pairs: (2, n_pairs) edge ids, the pairs i < j of each face's
      boundary edges, face after face; face_starts: where each face's pairs
      begin.
    """

    def __init__(self, P: PolyhedralComplex, frame: Frame):
        self.P = P
        F, V, E = P.n_faces, P.n_vertices, P.n_edges
        self.vert_off = 4 * F
        self.marked = np.array(frame.edges, dtype=int)
        self.free = np.ones(E, dtype=bool)
        self.free[self.marked] = False
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
        pairs, starts = [], []
        for f in range(F):
            b = P.boundary_edges(f)
            starts.append(len(pairs))
            pairs += [(b[i], b[j]) for i in range(len(b))
                      for j in range(i + 1, len(b))]
        self.face_pairs = np.array(pairs, dtype=int).T
        self.face_starts = np.array(starts, dtype=int)

        pattern = self._jacobian_pattern()
        blocks = [np.broadcast_arrays(r, c) for r, c, _ in pattern]
        rows = np.concatenate([r.ravel() for r, _ in blocks])
        cols = np.concatenate([c.ravel() for _, c in blocks])
        order = np.lexsort((rows, cols))
        position = np.empty_like(order)
        position[order] = np.arange(len(order))
        ends = np.cumsum([r.size for r, _ in blocks])[:-1]
        positions = [p.reshape(r.shape) for p, (r, _)
                     in zip(np.split(position, ends), blocks)]
        linear = [(p, np.broadcast_to(source, p.shape),
                   np.full(p.shape, coef))
                  for p, (_, _, (source, coef)) in zip(positions, pattern)
                  if coef]
        self.linear_positions, self.linear_sources, self.linear_coefs = (
            np.concatenate([part[k].ravel() for part in linear])
            for k in range(3))
        self.positions = [p for p, (_, _, (_, coef))
                          in zip(positions, pattern) if not coef]
        rows, cols = rows[order], cols[order]
        self.indices = rows.astype(np.intc)
        self.indptr = np.searchsorted(
            cols, np.arange(self.n_unknowns + 1)).astype(np.intc)
        # sorted by column, then row, so an entry repeats only next to itself
        self.canonical = bool(np.all((np.diff(rows) != 0)
                                     | (np.diff(cols) != 0)))

    def _jacobian_pattern(self):
        """(rows, cols, (source, coef)) of each block of nonzeros; rows,
        cols and source broadcast together. A linear block's values are
        coef * z[source], z = [x, marked_points.ravel(), 1.0]; the other
        blocks have coef 0 and list their values in jacobian's order."""
        F, V = self.P.n_faces, self.P.n_vertices
        n = self.n_unknowns
        ncols = 4 * np.arange(F)[:, None] + np.arange(3)
        dcol = 4 * np.arange(F)[:, None] + 3
        vcols = self.vert_off + 4 * np.arange(V)[:, None] + np.arange(4)
        fv, ff = self.flag_v, self.flag_f
        flag = F + np.arange(len(fv))[:, None]
        fg = self.edge_faces.T
        f, g = fg
        free = self.free
        plane, tangency = self.edge_rows.T[:2, :, None], self.edge_rows[:, 3:]
        tangent_rows = self.edge_rows[free][:, :, None]
        tangent_cols = self.tangent_cols[:, None]
        # the coordinates of every tangent point in z
        tangent_source = np.empty((len(free), 3), dtype=int)
        tangent_source[free] = self.tangent_cols
        tangent_source[self.marked] = n + np.arange(9).reshape(3, 3)
        nonlinear = (None, 0.0)
        return [
            (np.arange(F)[:, None], ncols, (ncols, 2.0)),
            (flag, ncols[ff], (vcols[fv, 1:], 1.0)),
            (flag, dcol[ff], (vcols[fv, :1], -1.0)),
            (flag, vcols[fv, :1], (dcol[ff], -1.0)),
            (flag, vcols[fv, 1:], (ncols[ff], 1.0)),
            (plane, ncols[fg], (tangent_source, 1.0)),
            (plane, dcol[fg], (n + 9, -1.0)),
            (tangent_rows[:, :2], tangent_cols,
             (np.stack([ncols[f[free]], ncols[g[free]]], axis=1), 1.0)),
            (n - V + np.arange(V)[:, None], vcols, (vcols, 2.0)),
            (tangency, ncols[f], nonlinear),
            (tangency, ncols[g], nonlinear),
            (tangent_rows[:, 2:], tangent_cols, nonlinear),
        ]


class ConstraintSystem:
    """Square residual/Jacobian of the tangency system for one (P, frame),
    at one body and three marked points.

    layout is the SystemLayout of (P, frame), which P owns; n_unknowns is
    its count. The system's own Jacobian is one CSC matrix over the
    layout's pattern, flagged canonical where the pattern is, so splu
    neither casts nor rescans it; jacobian(x) writes the values at x into
    its data. body and marked_points (three points, in frame edge
    order) are plain attributes; assigning new ones keeps the layout and
    the matrix.
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
        layout = self.layout = derived(P, SystemLayout, frame)
        n = self.n_unknowns = layout.n_unknowns
        self._jacobian = sp.csc_matrix(
            (np.zeros(len(layout.indices)), layout.indices, layout.indptr),
            shape=(n, n))
        self._jacobian.has_canonical_format = layout.canonical

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
        x[self.layout.tangent_cols] = cfg.tangents[self.layout.free]
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
        vert_off = self.layout.vert_off
        faces = x[:vert_off].reshape(F, 4)
        X = x[vert_off:vert_off + 4 * V].reshape(V, 4)
        return faces[:, :3], faces[:, 3], X

    def tangents(self, x: np.ndarray) -> np.ndarray:
        """(E, 3) tangent points: free ones from x, marked ones pinned."""
        layout = self.layout
        T = np.empty((self.P.n_edges, 3))
        T[layout.free] = x[layout.tangent_cols]
        T[layout.marked] = self.marked_points
        return T

    def terms(self, x: np.ndarray):
        """(T, grad F(T), n_f x n_g per edge) at x: the terms residual and
        jacobian share, so a caller that needs both at one point computes
        them once."""
        N = self._views(x)[0]
        T = self.tangents(x)
        f, g = self.layout.edge_faces.T
        return T, self.body.gradients(T), _cross(N[f], N[g])

    def residual(self, x: np.ndarray, terms=None) -> np.ndarray:
        """The residual at x; terms are terms(x), computed here if None."""
        N, D, X = self._views(x)
        T, G, U = self.terms(x) if terms is None else terms
        layout = self.layout
        fv, ff = layout.flag_v, layout.flag_f
        f, g = layout.edge_faces.T
        gauge = np.zeros(len(T))
        gauge[layout.free] = self.body.values(T[layout.free])
        edge = np.column_stack([  # one column per EDGE_ROWS entry
            _rowdot(N[f], T) - D[f],
            _rowdot(N[g], T) - D[g],
            gauge,
            _rowdot(G, U),
        ])
        return np.concatenate([np.einsum("ij,ij->i", N, N) - 1.0,
                               _rowdot(N[ff], X[fv, 1:]) - D[ff] * X[fv, 0],
                               edge[layout.edge_rows >= 0],
                               np.einsum("ij,ij->i", X, X) - 1.0])

    def jacobian(self, x: np.ndarray, terms=None) -> sp.csc_matrix:
        """The Jacobian at x, in the CSC matrix that __init__ built: the
        linear entries are one gather, coef * z[source], and each other
        block's values are written straight into their data positions. The
        system's one matrix is returned, and the next call overwrites it.
        terms are terms(x), computed here if None."""
        N = self._views(x)[0]
        T, G, U = self.terms(x) if terms is None else terms
        layout = self.layout
        free = layout.free
        f, g = layout.edge_faces.T
        HU = (self.body.hessians(T[free]) @ U[free][:, :, None])[:, :, 0]
        data = self._jacobian.data
        z = np.concatenate([x, self.marked_points.ravel(), _ONE])
        data[layout.linear_positions] = (layout.linear_coefs
                                         * z[layout.linear_sources])
        values = [_cross(N[g], G), _cross(G, N[f]),
                  np.stack([G[free], HU], axis=1)]
        for position, value in zip(layout.positions, values):
            data[position] = value
        return self._jacobian

    def s_derivative(self, x: np.ndarray, terms, start: ConvexBody,
                     end: ConvexBody) -> np.ndarray:
        """dr/ds at x held fixed, where the body is the blend
        F_s = (1-s) start + s end and each mark m = N + t d rides its chord d
        from the pole N. terms are terms(x).

        dF_s/ds = end - start, and F_s(m) = 0 gives the mark velocity
        m' = -(end - start)(m) / (grad F_s(m) . d) d; a mark at infinity
        sits at N, where d = 0, and stays there. Then a free edge's gauge
        row gets (end - start)(p), every tangency row
        <grad end - grad start, n_f x n_g>, plus <H_s(m) m', n_f x n_g> on a
        marked edge, whose plane rows get <n_f, m'> and <n_g, m'>. Face,
        flag and vertex rows do not depend on s.
        """
        N = self._views(x)[0]
        T, G, U = terms
        layout = self.layout
        marked = layout.marked
        f, g = layout.edge_faces.T
        dF = end.values(T) - start.values(T)
        dG = end.gradients(T) - start.gradients(T)
        d = self.marked_points - NORTH_POLE
        slope = _rowdot(G[marked], d)
        slope[~d.any(axis=1)] = 1.0
        velocity = np.zeros_like(T)
        velocity[marked] = -(dF[marked] / slope)[:, None] * d
        tangency = _rowdot(dG, U)
        tangency[marked] += _rowdot(
            (self.body.hessians(T[marked]) @ velocity[marked][:, :, None])
            [:, :, 0], U[marked])
        edge = np.column_stack([_rowdot(N[f], velocity),
                                _rowdot(N[g], velocity),
                                dF, tangency])
        has_row = layout.edge_rows >= 0
        out = np.zeros(self.n_unknowns)
        out[layout.edge_rows[has_row]] = edge[has_row]
        return out

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


def _worst_condition(system: ConstraintSystem, steps):
    """The condition audit of a solve: (worst condition number, or nan if
    none is positive; rank deficiency at the last step).

    steps are the accepted steps' (body, marked_points, x), in order. Each
    step's body and marks are put back into the system and condition runs
    there, so it reads DENSE_AUDIT_MAX_N and LANCZOS_MIN_RATIO when called.
    """
    worst, rank_def = 0.0, 0
    for body, marked_points, x in steps:
        system.body, system.marked_points = body, marked_points
        cond, rank_def = system.condition(x)
        worst = max(worst, cond)
    return worst or float("nan"), rank_def


# ---------------------------------------------------------------------------
# Newton and continuation

def _line_search(system, x, delta, res_inf, res_two):
    """Backtracking halving; accept any decrease of the residual, measured
    in max-norm or 2-norm. Returns (x, terms, residual, max-norm, 2-norm)
    at the accepted point, or None when exhausted."""
    t = 1.0
    while t >= 1e-8:
        x_try = system.renormalize(x + t * delta)
        terms = system.terms(x_try)
        r_try = system.residual(x_try, terms)
        inf_try = float(np.max(np.abs(r_try)))
        two_try = float(np.linalg.norm(r_try))
        if inf_try < res_inf or two_try < res_two:
            return x_try, terms, r_try, inf_try, two_try
        t *= 0.5
    return None


def _newton_core(system: ConstraintSystem, x: np.ndarray, tol: float,
                 max_iter: int, theta_max: float | None = None):
    """Damped Newton. The linear solve is a sparse LU; if the factorization
    is singular or its direction cannot decrease the residual (which happens
    at consistent systems whose Jacobian loses rank, e.g. tangencies at flat
    spots of the body), a dense minimum-norm least-squares direction is tried
    before giving up. Degeneracy stays visible through the rank audit.
    Each iterate's terms serve both its residual and its Jacobian. Returns
    (x, iterations, residual max-norm, terms(x)).

    With theta_max set, the solve must contract (Deuflhard, Newton Methods
    for Nonlinear Problems, ch. 2): it raises NoDecrease as soon as an LU
    direction is longer than theta_max times the one before it, or where
    the lstsq direction would be tried. The test only rejects: the iterates
    it lets through are those of the solve without it."""
    x = system.renormalize(x)
    terms = system.terms(x)
    r = system.residual(x, terms)
    res = float(np.max(np.abs(r)))
    res2 = float(np.linalg.norm(r))
    step = None  # the 2-norm of the last LU direction
    for it in range(max_iter):
        if res < tol:
            return x, it, res, terms
        J = system.jacobian(x, terms)
        accepted = None
        try:
            delta = spla.splu(J).solve(-r)
        except RuntimeError:  # a factor is exactly singular
            delta = None
        if delta is not None and np.all(np.isfinite(delta)):
            if theta_max is not None:
                norm = float(np.linalg.norm(delta))
                if step is not None and norm > theta_max * step:
                    raise NoDecrease("Newton stopped contracting at residual "
                                     "%.3e: theta %.3g" % (res, norm / step))
                step = norm
            accepted = _line_search(system, x, delta, res, res2)
        if accepted is None:
            if theta_max is not None:
                raise NoDecrease("no LU direction decreases the residual "
                                 "%.3e" % res)
            delta = np.linalg.lstsq(J.toarray(), -r, rcond=1e-12)[0]
            if not np.all(np.isfinite(delta)):
                raise SingularJacobian("linear solve produced non-finite step")
            accepted = _line_search(system, x, delta, res, res2)
        if accepted is None:
            raise NoDecrease("line search exhausted at residual %.3e" % res)
        x, terms, r, res, res2 = accepted
    if res < tol:
        return x, max_iter, res, terms
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
    x, iters, res, _ = _newton_core(system, system.pack(cfg), tol,
                                    REFINE_MAX_ITERATIONS)
    steps = [(system.body, system.marked_points, x)]
    report = SolveReport(converged=True, iterations=iters, final_residual=res)
    report.defer_audit(lambda: _worst_condition(system, steps))
    return system.unpack(x), report


def _face_circle_sizes(T: np.ndarray, layout: SystemLayout) -> np.ndarray:
    """Largest distance between two tangent points of each face, over its
    pairs of boundary edges in layout.face_pairs."""
    a, b = layout.face_pairs
    D = T[a] - T[b]
    return np.maximum.reduceat(np.sqrt(np.sum(D * D, axis=-1)),
                               layout.face_starts)


def _degeneracy_guard(system: ConstraintSystem, x: np.ndarray, s: float):
    """Abort rather than accept collapsing tangencies, face circles or
    edges: an edge whose two face planes (nearly) coincide has no line."""
    T = system.tangents(x)
    dmin = float(pdist(T).min())
    if dmin <= MIN_TANGENT_SEPARATION:
        raise DegenerateConfiguration(
            "tangent points %.3e apart at s=%.6f" % (dmin, s))
    sizes = _face_circle_sizes(T, system.layout)
    small = np.flatnonzero(sizes <= MIN_FACE_CIRCLE_SIZE)
    if small.size:
        f = int(small[0])
        raise DegenerateConfiguration(
            "face %d circle of size %.3e at s=%.6f" % (f, sizes[f], s))
    N = system._views(x)[0]
    f, g = system.layout.edge_faces.T
    C = _cross(N[f], N[g])
    sines = np.sqrt(_rowdot(C, C))
    flat = np.flatnonzero(sines <= MIN_EDGE_SINE)
    if flat.size:
        e = int(flat[0])
        raise DegenerateConfiguration(
            "edge %d between faces %d and %d has |n_f x n_g| = %.3e at "
            "s=%.6f" % (e, f[e], g[e], sines[e], s))


def _sign_pattern(system: ConstraintSystem, x: np.ndarray) -> np.ndarray:
    """(F, V) signs of <n_f, X_v[1:]> - d_f X_v[0]: the side of face f's
    plane that vertex v lies on, 0 where v is on f. renormalize keeps them,
    and so does a vertex that crosses the plane at infinity."""
    N, D, X = system._views(x)
    side = N @ X[:, 1:].T - D[:, None] * X[:, 0]
    side[system.layout.flag_f, system.layout.flag_v] = 0.0
    return np.sign(side)


def _tangent(system: ConstraintSystem, x: np.ndarray, terms,
             path: BodyPath) -> np.ndarray:
    """dx/ds at the solution x of the system's current body: J t = -dr/ds
    on a fresh LU of the Jacobian at x. terms are terms(x). Where that LU is
    exactly singular or its solve is not finite, the tangent is 0, so the
    next step starts its corrector at x."""
    rhs = -system.s_derivative(x, terms, path.start, path.end)
    try:
        t = spla.splu(system.jacobian(x, terms)).solve(rhs)
    except RuntimeError:  # a factor is exactly singular
        return np.zeros_like(x)
    return t if np.all(np.isfinite(t)) else np.zeros_like(x)


def continue_to_body(P: PolyhedralComplex, frame: Frame, marks_z,
                     path: BodyPath, tol: float = 1e-11):
    """Track the configuration from the ball packing to the end of the path.

    Runs continue_from_pattern on the planar packing of (P, frame), which P
    owns (packing.ball_packing): the first solve of P builds it, every
    later one reuses it. Returns (Configuration, SolveReport).
    """
    return continue_from_pattern(packing.ball_packing(P, frame), marks_z,
                                 path, tol)


def continue_from_pattern(planar: packing.CirclePattern, marks_z,
                          path: BodyPath, tol: float = 1e-11):
    """Track the configuration from a planar ball packing to the end of path.

    planar is the laid-out packing of (P, frame) and carries both; P owns
    it (packing.ball_packing), and it is only read here. The normalized
    packing is unique up to a Mobius map, so one planar layout serves every
    choice of marks: marks_z, three distinct chart coordinates, enter only
    through the lift to the sphere, which is checked on every solve. At
    every step s the pinned tangent points are the chart images on the
    blended body, so the marks move continuously with s; they are computed
    once per s, so a retried s reuses them. One ConstraintSystem serves the whole run; each step swaps
    its body and marked points, on the SystemLayout that P owns. The first
    try goes from s = 0 to s = 1 in one step under _newton_core's
    contraction test (THETA_MAX);
    accepted, it is the run's one step (1.0, 1.0, iterations), and
    rejected, it counts once in steps_rejected before the stepped loop
    runs from s = 0 (see the module docstring). Every accepted solution is
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
    marks = {}

    def marks_at(s, body):
        """The marks on body, the blend at s."""
        if s not in marks:
            marks[s] = BodyChart(body).inverse(z)
        return marks[s]

    history = []
    rejected = dict.fromkeys(STEP_REJECT_REASONS, 0)
    total_iters = 0

    body0 = path.eval(0.0)
    system = ConstraintSystem(P, frame, marks_at(0.0, body0), body0)
    x, iters, res, terms = _newton_core(system, system.pack(cfg0), tol,
                                        NEWTON_MAX_ITERATIONS)
    total_iters += iters
    history.append((0.0, 0.0, iters))
    steps = [(system.body, system.marked_points, x)]
    _degeneracy_guard(system, x, 0.0)
    pattern = _sign_pattern(system, x)

    # the first try goes straight to s = 1 and must contract; once it is
    # rejected, theta_max is None and the loop starts over with DS_INIT
    s, ds, theta_max = 0.0, 1.0, THETA_MAX
    tangent = _tangent(system, x, terms, path)
    while s < 1.0 - 1e-15:
        s_try = min(1.0, s + ds)
        system.body = path.eval(s_try)
        system.marked_points = marks_at(s_try, system.body)
        reason = None
        try:
            x_new, iters, res_new, terms = _newton_core(
                system, x + (s_try - s) * tangent, tol, NEWTON_MAX_ITERATIONS,
                theta_max)
            _degeneracy_guard(system, x_new, s_try)
            if np.any(_sign_pattern(system, x_new) != pattern):
                reason = "branch"
        except DegenerateConfiguration as exc:
            reason, degenerate = "degeneracy", exc
        except SolverError:
            reason = "corrector"
        if reason is not None:
            rejected[reason] += 1
            if theta_max is not None:
                ds, theta_max = DS_INIT, None
                continue
            ds *= 0.5
            if ds < DS_MIN:
                if reason == "degeneracy":
                    raise degenerate
                report = SolveReport(converged=False, iterations=total_iters,
                                     final_residual=res, step_history=history,
                                     steps_rejected=rejected)
                report.defer_audit(lambda: _worst_condition(system, steps))
                raise StepUnderflow("continuation step fell below %.1e at "
                                    "s=%.6f" % (DS_MIN, s),
                                    last_good_s=s, report=report)
            continue
        total_iters += iters
        history.append((s_try, ds, iters))
        steps.append((system.body, system.marked_points, x_new))
        s, x, res = s_try, x_new, res_new
        if s < 1.0:
            tangent = _tangent(system, x, terms, path)
        if iters <= 3:
            ds *= 1.5

    report = SolveReport(converged=True, iterations=total_iters,
                         final_residual=res, step_history=history,
                         steps_rejected=rejected)
    report.defer_audit(lambda: _worst_condition(system, steps))
    return system.unpack(x), report


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
            x = _newton_core(system, xp, RIGIDITY_TOL,
                             RIGIDITY_MAX_ITERATIONS)[0]
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
