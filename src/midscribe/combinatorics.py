"""Oriented polyhedral complexes: faces, edges, darts, duals, frames.

A complex is given by its faces as cyclic vertex sequences, counterclockwise
as seen from outside. That single orientation convention drives everything
downstream (outward plane normals, circle layout, convexity sides).

The ordered pair (a, b) of consecutive vertices inside one face is called a
dart; every edge carries exactly two opposite darts, one per adjacent face.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import (
    MalformedSpec,
    NonPolyhedral,
    NotIncident,
    NotSequential,
)


@dataclass(frozen=True)
class PolyhedralComplex:
    """Validated face-vertex complex of a convex polyhedron.

    Vertices are 0..n_vertices-1. Edges are indexed 0..n_edges-1 in
    lexicographic order of their sorted vertex pairs, which keeps every
    derived ordering deterministic.
    """

    faces: tuple[tuple[int, ...], ...]
    n_vertices: int
    edges: tuple[tuple[int, int], ...] = field(repr=False)
    # dart (a, b) -> id of the face in which b follows a
    face_of_dart: dict = field(repr=False)
    # (a, b) and (b, a) -> edge id
    edge_index: dict = field(repr=False)
    # edge id -> (face left of the (lo, hi) dart, face left of (hi, lo))
    edge_faces: tuple[tuple[int, int], ...] = field(repr=False)
    # vertex -> incident faces in cyclic order, counterclockwise from outside
    vertex_faces: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def degree(self, v: int) -> int:
        return len(self.vertex_faces[v])

    def boundary_edges(self, f: int) -> tuple[int, ...]:
        """Edge ids around face f, in the face's cyclic vertex order."""
        cyc = self.faces[f]
        k = len(cyc)
        return tuple(self.edge_index[(cyc[i], cyc[(i + 1) % k])] for i in range(k))

    def boundary_darts(self, f: int) -> tuple[tuple[int, int], ...]:
        cyc = self.faces[f]
        k = len(cyc)
        return tuple((cyc[i], cyc[(i + 1) % k]) for i in range(k))

    def edge_vertices(self, e: int) -> tuple[int, int]:
        return self.edges[e]

    def faces_of_edge(self, e: int) -> tuple[int, int]:
        return self.edge_faces[e]

    def edges_of_vertex(self, v: int) -> tuple[int, ...]:
        """Edge ids at v, in the same cyclic order as vertex_faces[v].

        The edge at position i is the one shared by faces i and i+1 of the
        vertex's face cycle.
        """
        cycle = self.vertex_faces[v]
        out = []
        for f in cycle:
            u = _predecessor_in_cycle(self.faces[f], v)
            out.append(self.edge_index[(v, u)])
        return tuple(out)


def _predecessor_in_cycle(cyc: tuple[int, ...], v: int) -> int:
    i = cyc.index(v)
    return cyc[i - 1]


def build_complex(face_lists, n_vertices: int | None = None) -> PolyhedralComplex:
    """Build and validate a complex from faces given as vertex index cycles.

    Raises MalformedSpec for structural nonsense (bad indices, repeated
    vertices inside a face) and NonPolyhedral when the result is not the
    boundary complex of a convex polyhedron: inconsistent orientation, an
    open or non-spherical surface, degree < 3, Euler failure, or a graph
    that is not simple and 3-connected.
    """
    faces = []
    for face in face_lists:
        try:
            cyc = tuple(int(v) for v in face)
        except (TypeError, ValueError, OverflowError):
            raise MalformedSpec("face is not a list of vertex indices: %r"
                                % (face,))
        if len(cyc) < 3:
            raise MalformedSpec("face with fewer than 3 vertices: %r" % (face,))
        if len(set(cyc)) != len(cyc):
            raise MalformedSpec("face repeats a vertex: %r" % (face,))
        if any(v < 0 for v in cyc):
            raise MalformedSpec("negative vertex index in face %r" % (face,))
        faces.append(cyc)
    if not faces:
        raise MalformedSpec("no faces")
    faces = tuple(faces)

    used = sorted({v for cyc in faces for v in cyc})
    top = used[-1] + 1
    if n_vertices is None:
        n_vertices = top
    if top > n_vertices or used != list(range(top)) or top != n_vertices:
        raise MalformedSpec("vertex ids must be exactly 0..n-1 with every id used")

    face_of_dart = {}
    for fid, cyc in enumerate(faces):
        k = len(cyc)
        for i in range(k):
            dart = (cyc[i], cyc[(i + 1) % k])
            if dart in face_of_dart:
                raise NonPolyhedral("dart %r appears in two faces (orientation "
                                    "inconsistent or surface non-manifold)" % (dart,))
            face_of_dart[dart] = fid
    for (a, b) in face_of_dart:
        if (b, a) not in face_of_dart:
            raise NonPolyhedral("edge %r has only one side (surface not closed)"
                                % ((a, b),))

    pairs = sorted({(min(a, b), max(a, b)) for (a, b) in face_of_dart})
    edges = tuple(pairs)
    edge_index = {}
    edge_faces = []
    for eid, (a, b) in enumerate(edges):
        edge_index[(a, b)] = eid
        edge_index[(b, a)] = eid
        edge_faces.append((face_of_dart[(a, b)], face_of_dart[(b, a)]))
    edge_faces = tuple(edge_faces)

    if n_vertices - len(edges) + len(faces) != 2:
        raise NonPolyhedral("Euler relation fails: V-E+F = %d" %
                            (n_vertices - len(edges) + len(faces)))

    incident = [[] for _ in range(n_vertices)]
    for fid, cyc in enumerate(faces):
        for v in cyc:
            incident[v].append(fid)
    vertex_faces = tuple(_face_cycle(faces, face_of_dart, v, incident[v])
                         for v in range(n_vertices))
    for v, ring in enumerate(vertex_faces):
        if len(ring) < 3:
            raise NonPolyhedral("vertex %d has degree %d < 3" % (v, len(ring)))

    _check_three_connected(faces, face_of_dart, vertex_faces)

    return PolyhedralComplex(faces=faces, n_vertices=n_vertices, edges=edges,
                             face_of_dart=face_of_dart, edge_index=edge_index,
                             edge_faces=edge_faces, vertex_faces=vertex_faces)


def _face_cycle(faces, face_of_dart, v, incident):
    """Faces around v in counterclockwise order seen from outside.

    Starting from the first face in incident (the faces containing v, by
    id), the face after f is the one across the edge (v, u) where u
    precedes v on f; each dart lies on one face, so this step permutes the
    incident faces and the walk closes.
    """
    cycle = [incident[0]]
    f = face_of_dart[(v, _predecessor_in_cycle(faces[cycle[0]], v))]
    while f != cycle[0]:
        cycle.append(f)
        f = face_of_dart[(v, _predecessor_in_cycle(faces[f], v))]
    if len(cycle) != len(incident):
        raise NonPolyhedral("vertex %d has a split umbrella" % v)
    return tuple(cycle)


def _check_three_connected(faces, face_of_dart, vertex_faces):
    """Raise NonPolyhedral unless the edge graph is 3-connected.

    build_complex has checked a closed oriented surface with V - E + F = 2,
    simple face cycles and a simple graph of degree >= 3, so V >= 4 and a
    disconnected graph has components of >= 4 vertices: removing 0 and 1
    separates it. A connected one is a 2-connected plane graph, 3-connected
    iff any two faces meet in nothing, a vertex or an edge (Mohar-Thomassen,
    Graphs on Surfaces, 2001). Shared vertices x, y of faces f, g other than
    their common edge are not consecutive on f or on g, so a closed curve
    through f and g meeting the graph at x and y only has vertices on both
    sides. Conversely, if {x, y} separates, faces at x between edges into
    different parts contain y: the least pair found is the least separating.
    """
    seen, todo = {0}, [0]
    while todo:  # the vertices of a face are joined along its edges
        fresh = {w for f in vertex_faces[todo.pop()] for w in faces[f]} - seen
        seen |= fresh
        todo.extend(fresh)
    meets = {}  # face pair -> its shared vertices, in increasing order
    for v, ring in enumerate(vertex_faces):
        for i, f in enumerate(ring):
            for g in ring[i + 1:]:
                meets.setdefault((min(f, g), max(f, g)), []).append(v)
    splits = [(x, y) for fg, shared in meets.items()
              for i, x in enumerate(shared) for y in shared[i + 1:]
              if {face_of_dart.get((x, y)), face_of_dart.get((y, x))} != set(fg)]
    if len(seen) < len(vertex_faces):
        splits = [(0, 1)]
    if splits:
        raise NonPolyhedral("graph separates after removing vertices "
                            "%d and %d (not 3-connected)" % min(splits))


def dual_complex(P: PolyhedralComplex) -> PolyhedralComplex:
    """Dual complex: one vertex per face of P, one face per vertex of P.

    Dual vertex i is primal face i and dual face v lists the primal faces
    around primal vertex v, so labels survive a double dual.
    """
    dual_faces = [P.vertex_faces[v] for v in range(P.n_vertices)]
    return build_complex(dual_faces, n_vertices=P.n_faces)


@dataclass(frozen=True)
class Frame:
    """A face f0 with three consecutive boundary edges, the normalization anchor.

    darts[i] is edge edges[i] as the ordered vertex pair traversing f0's
    boundary, so darts chain head-to-tail.
    """

    face: int
    edges: tuple[int, int, int]
    darts: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]


def select_frame(P: PolyhedralComplex, face: int = 0,
                 edges: tuple[int, int, int] | None = None) -> Frame:
    """Pick and validate a frame. Default: face 0 with its first three edges."""
    if not (0 <= face < P.n_faces):
        raise NotIncident("face id %r out of range" % (face,))
    boundary = P.boundary_edges(face)
    if edges is None:
        edges = boundary[:3]
    edges = tuple(int(e) for e in edges)
    if len(edges) != 3 or len(set(edges)) != 3:
        raise NotSequential("need three distinct edges, got %r" % (edges,))
    for e in edges:
        if e not in boundary:
            raise NotIncident("edge %d is not on the boundary of face %d" % (e, face))
    k = len(boundary)
    start = None
    for i in range(k):
        if (boundary[i], boundary[(i + 1) % k], boundary[(i + 2) % k]) == edges:
            start = i
            break
    if start is None:
        raise NotSequential("edges %r are not consecutive on face %d in this order"
                            % (edges, face))
    darts = P.boundary_darts(face)
    frame_darts = tuple(darts[(start + j) % k] for j in range(3))
    return Frame(face=face, edges=edges, darts=frame_darts)


@dataclass(frozen=True)
class DimensionReport:
    """Integer bookkeeping for the plane-configuration view of a complex.

    plane_dof counts the degrees of freedom of one oriented plane per face.
    concurrency_conditions counts the constraints forcing the deg(v) planes
    at each vertex through a common point (deg(v) - 3 each). realization_dof
    is their difference, the dimension of the solution manifold; it always
    exceeds the edge count by the 6-parameter projective sphere symmetry.
    """

    plane_dof: int
    realization_dof: int
    concurrency_conditions: int
    flag_count: int


def dimension_audit(P: PolyhedralComplex) -> DimensionReport:
    V, E, F = P.n_vertices, P.n_edges, P.n_faces
    return DimensionReport(plane_dof=3 * F,
                           realization_dof=E + 6,
                           concurrency_conditions=2 * E - 3 * V,
                           flag_count=2 * E)


def parse_off(text: str):
    """Parse an ASCII OFF file. Returns (faces, coords) with coords possibly None.

    Only the combinatorics is required downstream; coordinates are passed
    through when present.
    """
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != "OFF":
        raise MalformedSpec("missing OFF header")
    try:
        nv, nf, _ne = (int(t) for t in lines[1].split())
    except (ValueError, IndexError):
        raise MalformedSpec("bad OFF counts line")
    if len(lines) < 2 + nv + nf:
        raise MalformedSpec("truncated OFF file")
    coords = []
    for ln in lines[2:2 + nv]:
        try:
            x, y, z = (float(t) for t in ln.split()[:3])
        except ValueError:  # also fewer than three values
            raise MalformedSpec("bad OFF vertex line: %r" % ln)
        coords.append((x, y, z))
    faces = []
    for ln in lines[2 + nv:2 + nv + nf]:
        try:
            parts = [int(t) for t in ln.split()]
        except ValueError:
            parts = []
        if not parts or len(parts) != parts[0] + 1:
            raise MalformedSpec("bad OFF face line: %r" % ln)
        faces.append(tuple(parts[1:]))
    return faces, (coords if any(any(c) for c in coords) else None)


def parse_complex_json(text: str):
    """Parse the JSON complex format {"faces": [[0,1,2], ...]}."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedSpec("invalid JSON: %s" % exc)
    if not isinstance(data, dict) or "faces" not in data:
        raise MalformedSpec('JSON complex must be an object with a "faces" key')
    faces = data["faces"]
    if not isinstance(faces, list):
        raise MalformedSpec('"faces" must be a list of vertex index lists')
    return faces


def load_complex_file(path: str) -> PolyhedralComplex:
    """Load a complex from an OFF or JSON file, deciding by content."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("OFF"):
        faces, _coords = parse_off(text)
    else:
        faces = parse_complex_json(text)
    return build_complex(faces)
