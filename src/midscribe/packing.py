"""Orthogonal primal-dual circle packing of a polyhedral complex.

The packing lives first in the plane, normalized to a box picture: the
marked face f0 becomes the real axis, the tangency point of the first frame
edge e1 is sent to infinity, which turns the two endpoints of e1 into
vertical wall lines and the face across e1 into a horizontal top wall. All
remaining vertex and face circles are genuine circles squeezed into the box,
with wall-orthogonal circles centered on (or tangent rows along) the walls.

Every interior node u must close up a full angle 2*pi out of the kite pieces
2*atan(r_w/r_u) contributed by its orthogonal neighbors; nodes orthogonal to
one wall close up pi instead (the wall supplies the missing half turn). In
log radii those angle sums are the gradient of a convex functional
(Bobenko-Springborn), so the radii are its critical point, found by damped
sparse Newton with one radius pinned; the complex owns the Laplacian's
sparsity pattern, and each solve refills only its own values. Then the
circles are placed row by row and propagated across darts. Radii and planar
circles depend on (P, frame) alone, so P owns that packing (ball_packing):
the first solve of P builds it, and every solve lifts it to the unit sphere
on its own marks, normalized by the Mobius transformation pinning the three
frame tangencies to them. The lift maps every circle's sample points at
once, in arrays that round as the scalar Mobius map does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
from scipy import sparse, special
from scipy.sparse import linalg as spla

from .bodies import _rowdot
from .combinatorics import Frame, PolyhedralComplex, derived
from .config import Configuration
from .errors import (
    DegenerateMarks,
    LayoutInconsistency,
    NonConvergence,
)
from .mobius import (
    INFINITY,
    apply_mobius_array,
    cap_through_points,
    is_infinity,
    is_infinity_array,
    lift_to_sphere_array,
    mobius_through,
)

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi


# ---------------------------------------------------------------------------
# node structure of the box normalization

@dataclass(frozen=True)
class _BoxStructure:
    """Which objects become walls, and the finite node system that remains.

    Nodes are ("v", vertex_id) or ("f", face_id). v_left is the head of e1's
    dart on f0 (the x=0 wall), v_right its tail (the x=x_R wall), g_top the
    face across e1 (the y=h wall). P owns it (combinatorics.derived).
    """

    f0: int
    g_top: int
    v_left: int
    v_right: int
    nodes: tuple
    targets: dict
    neighbors: dict  # node -> tuple of finite neighbor nodes (walls dropped)


def _box_structure(P: PolyhedralComplex, frame: Frame) -> _BoxStructure:
    f0 = frame.face
    e1 = frame.edges[0]
    v_right, v_left = frame.darts[0]
    fa, fb = P.faces_of_edge(e1)
    g_top = fb if fa == f0 else fa

    walls = {("f", f0), ("f", g_top), ("v", v_left), ("v", v_right)}

    def incident(node):
        kind, idx = node
        if kind == "v":
            return tuple(("f", f) for f in P.vertex_faces[idx])
        return tuple(("v", v) for v in P.faces[idx])

    nodes = tuple([("v", v) for v in range(P.n_vertices)
                   if ("v", v) not in walls]
                  + [("f", f) for f in range(P.n_faces)
                     if ("f", f) not in walls])
    targets, neighbors = {}, {}
    for u in nodes:
        inc = incident(u)
        n_wall = sum(1 for w in inc if w in walls)
        if n_wall > 1:
            raise LayoutInconsistency("node %r touches %d walls; the complex "
                                      "cannot be a polyhedron" % (u, n_wall))
        targets[u] = TWO_PI - math.pi * n_wall
        neighbors[u] = tuple(w for w in inc if w not in walls)
    return _BoxStructure(f0=f0, g_top=g_top, v_left=v_left, v_right=v_right,
                         nodes=nodes, targets=targets, neighbors=neighbors)


# ---------------------------------------------------------------------------
# radii

@dataclass
class RadiusAssignment:
    """Converged packing radii on the finite nodes, with their angle targets."""

    log_radii: dict
    targets: dict
    pinned: tuple
    residual: float

    def radius(self, node) -> float:
        return math.exp(self.log_radii[node])


# Newton iterations of the radius solve; from the all-ones start it takes
# five to eight on every complex tried, up to V=240.
RADIUS_MAX_ITERATIONS = 50
# convergence of the radius solve's angle sums, and the contact checks of the
# planar layout (relative to the box size) and of the lift to the sphere
RADIUS_TOL = 1e-13
LAYOUT_TOL = 1e-9
LIFT_TOL = 1e-8
# halvings of the Newton step before the line search gives up
_MAX_HALVINGS = 60
_CATALAN = 0.915965594177219015054603514932384110774


def _edge_potential(t):
    """H(t) = 2 (Im Li2(i e^t) - Catalan), the antiderivative of 2 atan(e^t)
    with H(0) = 0; scipy's spence(1 - z) is Li2(z)."""
    return 2.0 * (np.imag(special.spence(1.0 - 1j * np.exp(t))) - _CATALAN)


class _AngleSums:
    """Angle sums of the finite nodes as functions of their log radii x.

    theta_u = sum_w 2 atan(exp(x_w - x_u)) is the gradient of a convex
    functional (Bobenko-Springborn) whose Hessian is the graph Laplacian with
    weights 1/cosh(x_w - x_u); with the pinned node removed it is positive
    definite. Index arrays hold one (u, w) pair per finite neighbor w of u,
    so each edge appears twice. P owns them (combinatorics.derived).
    """

    def __init__(self, P: PolyhedralComplex, frame: Frame):
        box = self.box = derived(P, _box_structure, frame)
        pinned = self.pinned = next(  # the first interior node, if any
            (u for u in box.nodes if box.targets[u] == TWO_PI), box.nodes[0])
        n = len(box.nodes)
        index = {u: i for i, u in enumerate(box.nodes)}
        self.target = np.array([box.targets[u] for u in box.nodes])
        self.u = np.array([index[u] for u in box.nodes
                           for _ in box.neighbors[u]], dtype=np.intp)
        self.w = np.array([index[w] for u in box.nodes
                           for w in box.neighbors[u]], dtype=np.intp)
        once = self.u < self.w
        self.edge_u, self.edge_w = self.u[once], self.w[once]
        self.free = np.arange(n) != index[pinned]
        reduced = np.cumsum(self.free) - 1     # node index -> reduced index
        self.off = self.free[self.u] & self.free[self.w]
        rows = np.concatenate([reduced[self.u[self.off]], reduced[self.free]])
        cols = np.concatenate([reduced[self.w[self.off]], reduced[self.free]])
        # the CSC pattern of the reduced Laplacian, entries sorted by column
        # and row; no entry repeats, so refilling data in this order gives
        # the matrix the (row, col) triplets would
        self._order = np.lexsort((rows, cols))
        self._indices = rows[self._order].astype(np.intc)
        self._indptr = np.searchsorted(cols[self._order],
                                       np.arange(n)).astype(np.intc)
        # Each kite angle 2 atan(exp(d)) is written pi/2 + atan(sinh(d)),
        # whose varying part is odd in d, so the rounding errors of the two
        # kites of an edge cancel exactly. Summed the other way they drift
        # by up to 3e-13 at V=480, all landing on the pinned node's implied
        # equation.
        self.quarter_turns = (np.bincount(self.u, minlength=n)
                              - np.rint(self.target / HALF_PI))

    def residual(self, x):
        """theta - target."""
        kite = np.arctan(np.sinh(x[self.w] - x[self.u]))
        return (np.bincount(self.u, weights=kite, minlength=len(x))
                + self.quarter_turns * HALF_PI)

    def matrix(self):
        """A reduced Laplacian on the shared pattern, with data of its own."""
        n_free = len(self._indptr) - 1
        return sparse.csc_matrix((np.zeros(len(self._indices)), self._indices,
                                  self._indptr), shape=(n_free, n_free))

    def laplacian(self, x, L):
        """d(theta - target)/dx = -L, as L with the pinned row and column
        removed, written into the data of L, a matrix(), so the next call
        overwrites it."""
        weight = 1.0 / np.cosh(x[self.w] - x[self.u])
        degree = np.bincount(self.u, weights=weight, minlength=len(x))
        L.data[:] = np.concatenate(
            [-weight[self.off], degree[self.free]])[self._order]
        return L

    def energy(self, x):
        """(E, sum of |terms|) for the convex E whose gradient is
        target - theta:
        E(x) = sum_u target_u x_u - sum_{edges uw} [pi x_w - H(x_w - x_u)].
        """
        terms = np.concatenate([self.target * x, -math.pi * x[self.edge_w],
                                _edge_potential(x[self.edge_w]
                                                - x[self.edge_u])])
        return float(np.sum(terms)), float(np.sum(np.abs(terms)))


def solve_radii(P: PolyhedralComplex, frame: Frame) -> RadiusAssignment:
    """Packing radii for the box normalization of (P, frame).

    One node's radius is pinned to 1 to fix scale; its angle equation is then
    implied by the others (the kite angles of any radius assignment sum to
    pi per finite flag, exactly the sum of the targets). The others come
    from damped Newton on the convex functional of _AngleSums, which stops
    once every angle sum is within RADIUS_TOL of its target.
    """
    sums = derived(P, _AngleSums, frame)
    box, L = sums.box, sums.matrix()

    x = np.zeros(len(box.nodes))
    F = sums.residual(x)
    energy = None
    worst = float(np.max(np.abs(F)))
    iterations = 0
    while not worst < RADIUS_TOL:
        if iterations == RADIUS_MAX_ITERATIONS:
            raise NonConvergence("radius solve: residual %.3e after %d "
                                 "iterations" % (worst, iterations))
        step = np.zeros_like(x)
        step[sums.free] = spla.spsolve(sums.laplacian(x, L), F[sums.free])
        iterations += 1
        if not np.all(np.isfinite(step)):
            raise NonConvergence("radius solve: non-finite Newton step at "
                                 "iteration %d, residual %.3e"
                                 % (iterations, worst))
        x, F, energy = _line_search(sums, x, step, F, energy, iterations)
        worst = float(np.max(np.abs(F)))
    return RadiusAssignment(
        log_radii={u: float(x[i]) for i, u in enumerate(box.nodes)},
        targets=dict(box.targets), pinned=sums.pinned, residual=worst)


def _line_search(sums: _AngleSums, x, step, F, energy, iteration):
    """(x, residual, energy) after backtracking along step until E
    decreases enough; energy is sums.energy at x, or None where it is not
    known yet, and likewise at the returned x.

    The directional derivative of E along step is -F.step < 0, and the full
    Newton step would decrease E by about half of F.step. Once that is
    within the rounding error of E, the values of E carry no information and
    the full step is taken.
    """
    slope = float(F @ step)
    e0, scale = sums.energy(x) if energy is None else energy
    if slope <= 64.0 * np.finfo(float).eps * scale:
        return x + step, sums.residual(x + step), None
    alpha = 1.0
    for _ in range(_MAX_HALVINGS):
        x_new = x + alpha * step
        energy = sums.energy(x_new)
        if energy[0] <= e0 - 1e-4 * alpha * slope:
            return x_new, sums.residual(x_new), energy
        alpha *= 0.5
    raise NonConvergence("radius solve: line search found no decrease at "
                         "iteration %d, residual %.3e"
                         % (iteration, float(np.max(np.abs(F)))))


# ---------------------------------------------------------------------------
# planar circles

@dataclass(frozen=True)
class Circle:
    """Oriented circle or line in the plane: the boundary of a disk.

    For kind "circle" the disk is the usual interior. For kind "line" the
    disk is the half-plane containing the witness point; direction is a unit
    complex tangent.
    """

    kind: str
    center: complex = 0j
    radius: float = 0.0
    point: complex = 0j
    direction: complex = 1 + 0j
    witness: complex = 0j

    def boundary_point(self, t: float) -> complex:
        if self.kind == "circle":
            return self.center + self.radius * complex(math.cos(t), math.sin(t))
        return self.point + t * self.direction

    def boundary_distance(self, z: complex) -> float:
        if self.kind == "circle":
            return abs(abs(z - self.center) - self.radius)
        return abs(((z - self.point) / self.direction).imag)

    def disk_side_normal(self) -> complex:
        """Unit normal of a line pointing into its disk."""
        n = 1j * self.direction
        if (((self.witness - self.point) / self.direction).imag) < 0:
            n = -n
        return n


def _circle(center: complex, radius: float) -> Circle:
    return Circle(kind="circle", center=center, radius=radius, witness=center)


def _line(point: complex, direction: complex, witness: complex) -> Circle:
    return Circle(kind="line", point=point,
                  direction=direction / abs(direction), witness=witness)


@dataclass(frozen=True)
class CirclePattern:
    """Planar pattern: one circle per vertex and face, one point per edge.

    The tangency of the first frame edge is the point at infinity; the four
    incident objects (f0, the face across e1, and e1's endpoints) are lines.
    The pattern of (P, frame) is P's own (ball_packing), shared by every
    solve of P, so it is frozen and its three mappings are read-only.
    """

    P: PolyhedralComplex
    vertex_circles: MappingProxyType
    face_circles: MappingProxyType
    tangency: MappingProxyType
    frame: Frame
    box_width: float
    box_height: float


def layout_circles(P: PolyhedralComplex, frame: Frame,
                   radii: RadiusAssignment) -> CirclePattern:
    """Place the packing in the box picture and validate every contact, on
    the node structure that P owns for frame."""
    box = derived(P, _box_structure, frame)
    r = {u: radii.radius(u) for u in box.nodes}
    f0, g_top, v_left, v_right = box.f0, box.g_top, box.v_left, box.v_right

    centers: dict = {}
    tangency: dict = {}

    # bottom row: f0's boundary from the left wall to the right wall
    cyc = P.faces[f0]
    i = cyc.index(v_left)
    seq = cyc[i:] + cyc[:i]          # [v_left, w_1, ..., w_m, v_right]
    if seq[-1] != v_right:
        raise LayoutInconsistency("frame dart does not close f0's cycle")
    bottom = list(seq[1:-1])
    x = 0.0
    prev = v_left
    for w in bottom:
        tangency[P.edge_index[(prev, w)]] = complex(x, 0.0)
        x += r[("v", w)]
        centers[("v", w)] = complex(x, 0.0)
        x += r[("v", w)]
        prev = w
    width = x
    tangency[P.edge_index[(prev, v_right)]] = complex(width, 0.0)

    # faces across the bottom edges sit tangent to the real axis
    for e in P.boundary_edges(f0):
        if e == frame.edges[0]:
            continue
        fa, fb = P.faces_of_edge(e)
        g = fb if fa == f0 else fa
        centers[("f", g)] = tangency[e] + 1j * r[("f", g)]

    # wall stacks: the faces around each wall vertex, from f0 up to g_top
    height_left = _stack_wall(P, box, r, centers, tangency, v_left, 0.0)
    height_right = _stack_wall(P, box, r, centers, tangency, v_right, width)
    scale = max(1.0, width, height_left)
    if abs(height_left - height_right) > LAYOUT_TOL * scale:
        raise LayoutInconsistency("wall stacks disagree on the box height: "
                                  "%.17g vs %.17g" % (height_left, height_right))
    height = 0.5 * (height_left + height_right)

    # top row: g_top's boundary, laid right to left
    cyc = P.faces[g_top]
    i = cyc.index(v_right)
    seq = cyc[i:] + cyc[:i]          # [v_right, u_1, ..., u_k, v_left]
    if seq[-1] != v_left:
        raise LayoutInconsistency("frame dart does not close g_top's cycle")
    x = width
    prev = v_right
    for u in seq[1:-1]:
        tangency[P.edge_index[(prev, u)]] = complex(x, height)
        x -= r[("v", u)]
        centers[("v", u)] = complex(x, height)
        x -= r[("v", u)]
        prev = u
    tangency[P.edge_index[(prev, v_left)]] = complex(x, height)
    if abs(x) > LAYOUT_TOL * scale:
        raise LayoutInconsistency("top row does not close onto the left wall "
                                  "(gap %.3e)" % x)

    _propagate(P, box, r, centers, tangency)
    tangency[frame.edges[0]] = INFINITY

    pattern = _assemble_pattern(P, box, r, centers, tangency, frame,
                                width, height)
    _validate_planar(pattern, LAYOUT_TOL * scale)
    return pattern


def ball_packing(P: PolyhedralComplex, frame: Frame) -> CirclePattern:
    """The planar ball packing of (P, frame), which P owns: it depends on
    neither the marks nor the body, so the first solve of P lays it out and
    every later one shares it. A build that raises is not kept."""
    return derived(P, _ball_packing, frame)


def _ball_packing(P: PolyhedralComplex, frame: Frame) -> CirclePattern:
    return layout_circles(P, frame, solve_radii(P, frame))


def _stack_wall(P, box, r, centers, tangency, v_wall, x_wall):
    """Stack the faces around a wall vertex up the line x = x_wall.

    The faces incident to a wall vertex are centered on its wall; walking
    the vertex's face cycle from f0 away from g_top stacks them bottom to
    top, and the running height where the last one ends is the box height.
    """
    cycle = P.vertex_faces[v_wall]
    k = len(cycle)
    i0 = cycle.index(box.f0)
    step = 1 if cycle[(i0 + 1) % k] != box.g_top else -1
    y = 0.0
    j = i0 + step
    prev_node = None
    while True:
        f = cycle[j % k]
        if f == box.g_top:
            break
        rad = r[("f", f)]
        centers[("f", f)] = complex(x_wall, y + rad)
        if prev_node is not None:
            tangency[_shared_wall_edge(P, v_wall, prev_node, f)] = complex(x_wall, y)
        y += 2.0 * rad
        prev_node = f
        j += step
    # the edge between the last stack face and g_top meets the top corner
    tangency[_shared_wall_edge(P, v_wall, prev_node, box.g_top)] = complex(x_wall, y)
    return y


def _shared_wall_edge(P, v_wall, f1, f2):
    """The edge at v_wall shared by two consecutive faces of its cycle."""
    shared = set(P.boundary_edges(f1)) & set(P.boundary_edges(f2))
    for e in shared:
        if v_wall in P.edges[e]:
            return e
    raise LayoutInconsistency("faces %d and %d share no edge at vertex %d"
                              % (f1, f2, v_wall))


def _propagate(P, box, r, centers, tangency):
    """Fill in the remaining circles by sweeping over darts.

    For a dart (v, w) whose left face is L, the face disks sit on the
    in-plane right (the sphere-to-plane chart reverses orientation), so with
    u = (c_L - c_v)/(r_v - i r_L) normalized: the edge tangency is
    c_v + r_v u, the far vertex center c_v + (r_v + r_w) u, and the right
    face center t + i r_R u.

    Each pass takes the darts in edge order, the two of an edge in turn,
    and a dart whose vertex and left face are placed places whichever of
    the three is missing; passes repeat until one places nothing. A dart
    whose vertex or left face is a wall never places anything, and one that
    has placed its three never places anything again, so a pass walks only
    the darts still waiting for their vertex or left face: every circle is
    placed by the same dart, in the same pass, as by walking them all.
    """
    walls = {("v", box.v_left), ("v", box.v_right),
             ("f", box.f0), ("f", box.g_top)}
    waiting = []
    for e, (a, b) in enumerate(P.edges):
        for (v, w) in ((a, b), (b, a)):
            nv, nL = ("v", v), ("f", P.face_of_dart[(v, w)])
            if nv not in walls and nL not in walls:
                waiting.append((e, nv, nL, ("v", w),
                                ("f", P.face_of_dart[(w, v)])))

    for _ in range(P.n_edges + 2):
        progress = False
        still = []
        for dart in waiting:
            e, nv, nL, nw, nR = dart
            if nv not in centers or nL not in centers:
                still.append(dart)
                continue
            u = (centers[nL] - centers[nv]) / complex(r[nv], -r[nL])
            u /= abs(u)
            t = centers[nv] + r[nv] * u
            if e not in tangency:
                tangency[e] = t
                progress = True
            if nw not in walls and nw not in centers:
                centers[nw] = centers[nv] + (r[nv] + r[nw]) * u
                progress = True
            if nR not in walls and nR not in centers:
                centers[nR] = t + 1j * r[nR] * u
                progress = True
        waiting = still
        if not progress:
            break
    missing = [u for u in box.nodes if u not in centers]
    if missing:
        raise LayoutInconsistency("could not place circles for nodes %r"
                                  % missing)


def _assemble_pattern(P, box, r, centers, tangency, frame, width, height):
    vertex_circles = {}
    face_circles = {}
    for node in box.nodes:
        kind, idx = node
        c = _circle(centers[node], r[node])
        (vertex_circles if kind == "v" else face_circles)[idx] = c
    vertex_circles[box.v_left] = _line(0j, 1j, complex(-1.0, 0.5 * height))
    vertex_circles[box.v_right] = _line(complex(width, 0.0), 1j,
                                        complex(width + 1.0, 0.5 * height))
    face_circles[box.f0] = _line(0j, 1 + 0j, complex(0.5 * width, -1.0))
    face_circles[box.g_top] = _line(complex(0.0, height), 1 + 0j,
                                    complex(0.5 * width, height + 1.0))
    return CirclePattern(P=P, vertex_circles=MappingProxyType(vertex_circles),
                         face_circles=MappingProxyType(face_circles),
                         tangency=MappingProxyType(tangency),
                         frame=frame, box_width=width, box_height=height)


def planar_pattern_residuals(pattern: CirclePattern):
    """Worst-case contact residuals of a planar pattern, keyed by kind."""
    P = pattern.P
    through = tangent = ortho = 0.0
    for e, (a, b) in enumerate(P.edges):
        fa, fb = P.faces_of_edge(e)
        objs = [pattern.vertex_circles[a], pattern.vertex_circles[b],
                pattern.face_circles[fa], pattern.face_circles[fb]]
        t = pattern.tangency[e]
        if is_infinity(t):
            if any(o.kind != "line" for o in objs):
                return {"through_point": math.inf, "tangent": math.inf,
                        "orthogonal": math.inf}
            continue
        through = max(through, max(o.boundary_distance(t) for o in objs))
        for pair in ((objs[0], objs[1]), (objs[2], objs[3])):
            tangent = max(tangent, _tangency_residual(*pair))
        for cv in (objs[0], objs[1]):
            for cf in (objs[2], objs[3]):
                ortho = max(ortho, _orthogonality_residual(cv, cf))
    return {"through_point": through, "tangent": tangent, "orthogonal": ortho}


def _tangency_residual(c1: Circle, c2: Circle) -> float:
    if c1.kind == "line" and c2.kind == "line":
        return 0.0
    if c1.kind == "line":
        c1, c2 = c2, c1
    if c2.kind == "line":
        return abs(c2.boundary_distance(c1.center) - c1.radius)
    return abs(abs(c1.center - c2.center) - (c1.radius + c2.radius))


def _orthogonality_residual(c1: Circle, c2: Circle) -> float:
    if c1.kind == "line" and c2.kind == "line":
        return abs((c1.direction * c2.direction.conjugate()).real)
    if c1.kind == "line":
        c1, c2 = c2, c1
    if c2.kind == "line":
        return c2.boundary_distance(c1.center)
    d2 = abs(c1.center - c2.center) ** 2
    return abs(d2 - (c1.radius ** 2 + c2.radius ** 2)) / max(1.0, d2)


def _validate_planar(pattern, tol):
    res = planar_pattern_residuals(pattern)
    worst = max(res.values())
    if not (worst < tol):
        raise LayoutInconsistency("planar pattern residuals %r exceed %.1e"
                                  % (res, tol))


# ---------------------------------------------------------------------------
# sphere lift and Mobius normalization

@dataclass
class SphericalPattern:
    """Circle pattern on the unit sphere, normalized to the marks.

    A cap {x : <n, x> >= d} with unit n, whose boundary is a circle, is the
    row [n_x, n_y, n_z, d]. vertex_caps (V, 4) and face_caps (F, 4) hold
    those rows in vertex and face id order, the rows pack writes; tangency
    (E, 3) holds the unit tangency point of each edge in edge order, and
    marks (3, 3) its rows at the frame edges.
    """

    P: PolyhedralComplex
    vertex_caps: np.ndarray
    face_caps: np.ndarray
    tangency: np.ndarray
    marks: np.ndarray
    marks_z: tuple       # the chart coordinates the marks were given as
    frame: Frame


_CIRCLE_PARAMS = (0.37, 2.41, 4.73)
_LINE_PARAMS = (-1.3, 0.45, 2.17)


def _circle_samples(circle: Circle):
    """The boundary parameters and the four interior witnesses of circle,
    in the order they are tried."""
    if circle.kind == "circle":
        return _CIRCLE_PARAMS, (circle.center,
                                circle.center + 0.31 * circle.radius,
                                circle.center + 0.27j * circle.radius,
                                circle.center - 0.23 * circle.radius)
    n = circle.disk_side_normal()
    return _LINE_PARAMS, tuple(
        circle.point + n * s + circle.direction * 0.1 * s
        for s in (1.0, 0.4, 2.9, 11.0))


def _mapped_caps(circles, M):
    """Caps (n, d) of the images of circles under M: (m, 3) and (m,).

    Each circle's cap goes through the lifts of three boundary points and
    contains the lift of its first interior witness that maps to a usable
    point (finite, below 1e12). A boundary parameter that maps to infinity
    or beyond 1e30 is moved by 0.123, up to 8 times. The boundary points
    are Circle.boundary_point's; the Mobius map and the lift run on all of
    them at once, in arrays that round as the scalar maps do, and the caps
    come from one batched cap_through_points. As when the caps were made
    one at a time, the first circle that fails raises its error:
    DegenerateMarks with "no usable interior witness for a circle", or,
    from cap_through_points, for points that span no unique plane.
    """
    params, witnesses = zip(*map(_circle_samples, circles))
    params = [list(row) for row in params]
    boundary = np.array([[c.boundary_point(t) for t in row]
                         for c, row in zip(circles, params)], dtype=complex)
    images = apply_mobius_array(M, boundary)
    for _ in range(8):
        far = is_infinity_array(images) | (
            np.hypot(images.real, images.imag) > 1e30)
        if not far.any():
            break
        for i, j in zip(*np.nonzero(far)):
            params[i][j] += 0.123
            boundary[i, j] = circles[i].boundary_point(params[i][j])
        images[far] = apply_mobius_array(M, boundary[far])
    w = apply_mobius_array(M, np.array(witnesses, dtype=complex))
    usable = ~is_infinity_array(w) & (np.hypot(w.real, w.imag) < 1e12)
    first = np.argmax(usable, axis=1)
    rows = np.concatenate([lift_to_sphere_array(images),
                           lift_to_sphere_array(
                               w[np.arange(len(w)), first])[:, None]], axis=1)
    failed = np.flatnonzero(~usable.any(axis=1))
    if failed.size:
        if failed[0]:  # an earlier cap's failure comes first
            cap_through_points(*np.swapaxes(rows[:failed[0]], 0, 1))
        raise DegenerateMarks("no usable interior witness for a circle")
    return cap_through_points(*np.swapaxes(rows, 0, 1))


def lift_normalize(pattern: CirclePattern, marks_z) -> SphericalPattern:
    """Lift the planar pattern to the sphere, pinning the frame tangencies.

    marks_z are three distinct finite chart coordinates; the Mobius map
    takes the current planar tangencies of (e1, e2, e3) (the first is the
    point at infinity) to them, and the chord chart of the ball carries it
    onto the sphere. One batched _mapped_caps maps the vertex circles, then
    the face circles, in their planar order into the rows of their ids.
    """
    z1, z2, z3 = (complex(z) for z in marks_z)
    for z in (z1, z2, z3):
        if is_infinity(z):
            raise DegenerateMarks("marks must be finite chart coordinates")
    e1, e2, e3 = pattern.frame.edges
    sources = (pattern.tangency[e1], pattern.tangency[e2], pattern.tangency[e3])
    M = mobius_through(sources, (z1, z2, z3))

    V = pattern.P.n_vertices
    rows = list(pattern.vertex_circles) + [V + f for f in pattern.face_circles]
    caps = np.empty((len(rows), 4))
    caps[rows] = np.column_stack(_mapped_caps(
        list(pattern.vertex_circles.values())
        + list(pattern.face_circles.values()), M))
    tangency = lift_to_sphere_array(apply_mobius_array(
        M, np.array([pattern.tangency[e] for e in range(pattern.P.n_edges)],
                    dtype=complex)))
    spherical = SphericalPattern(P=pattern.P, vertex_caps=caps[:V],
                                 face_caps=caps[V:], tangency=tangency,
                                 marks=tangency[[e1, e2, e3]],
                                 marks_z=(z1, z2, z3), frame=pattern.frame)
    res = spherical_pattern_residuals(spherical)
    if not (max(res.values()) < LIFT_TOL):
        raise LayoutInconsistency("lifted pattern residuals %r exceed %.1e"
                                  % (res, LIFT_TOL))
    return spherical


def spherical_pattern_residuals(pat: SphericalPattern):
    """Worst-case residuals of a spherical pattern, keyed by kind, over the
    edges' four caps (vertices a, b and faces fa, fb) and tangency points,
    as arrays over all edges; a nan residual reads nan."""
    caps = np.concatenate([pat.vertex_caps, pat.face_caps])
    n, d = caps[:, :3], caps[:, 3]
    # sin of each cap's angular radius, with Python's ** as a scalar
    root = np.array([math.sqrt(max(0.0, 1.0 - dk ** 2)) for dk in d.tolist()])
    T = pat.tangency
    ends, i, j, v, f = derived(pat.P, _edge_caps)

    def worst(r):
        return float(np.max(np.abs(r), initial=0.0))

    return {"through_point": worst(_rowdot(n[ends], T[:, None]) - d[ends]),
            "tangent": worst(_rowdot(n[i], n[j])
                             - (d[i] * d[j] - root[i] * root[j])),
            "orthogonal": worst(_rowdot(n[v], n[f]) - d[v] * d[f]),
            "unit_norm": worst(_rowdot(T, T) - 1.0)}


def _edge_caps(P: PolyhedralComplex):
    """Cap rows of each edge for spherical_pattern_residuals, which P owns
    (derived): its four caps (E, 4), the tangent pairs (vertex, vertex) and
    (face, face) as i, j (2, E), and the orthogonal vertex-face pairs as v,
    f (4, E). Face caps follow the V vertex caps."""
    a, b = np.array(P.edges).reshape(-1, 2).T
    fa, fb = P.n_vertices + np.array(P.edge_faces).reshape(-1, 2).T
    return (np.stack([a, b, fa, fb], axis=1), np.array([a, fa]),
            np.array([b, fb]), np.array([a, a, b, b]),
            np.array([fa, fb, fa, fb]))


def koebe_config(pattern: SphericalPattern) -> Configuration:
    """Configuration of the ball-midscribed polyhedron from a spherical pattern.

    Face planes are the planes of the face circles (outward normals: the
    face cap is the outer side); vertices are the tangent-cone apexes of the
    vertex caps, written projectively as [cos rho, n] so caps through or past
    a hemisphere stay representable.
    """
    # [d, n] per vertex cap; a norm of all rows at once differs in last bits
    vertices4 = np.array([row / np.linalg.norm(row)
                          for row in pattern.vertex_caps[:, [3, 0, 1, 2]]])
    return Configuration(normals=pattern.face_caps[:, :3].copy(),
                         offsets=pattern.face_caps[:, 3].copy(),
                         vertices4=vertices4,
                         tangents=pattern.tangency.copy(),
                         marked_edges=pattern.frame.edges,
                         marked_points=pattern.marks.copy())
