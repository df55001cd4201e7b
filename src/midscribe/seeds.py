"""Built-in seed complexes with canonical coordinates.

Every seed is stored through one canonical embedding whose edge lines are all
tangent to the unit sphere (the feet of the perpendiculars from the origin to
the edge lines have norm 1). Those embeddings double as ground truth for the
ball case and as the source of symmetric mark triples.

Faces are recovered from the coordinates with a convex hull rather than
hard-coded, so vertex cycles, edge ids and face ids all follow one
deterministic rule.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.spatial import ConvexHull

from .combinatorics import PolyhedralComplex, build_complex


def faces_from_coordinates(points) -> list[tuple[int, ...]]:
    """Extract the facial structure of a convex point set.

    Coplanar hull triangles are merged into one face, each face cycle is
    oriented counterclockwise seen from outside, rotated to start at its
    smallest vertex id, and faces are sorted by their sorted vertex tuples.
    """
    pts = np.asarray(points, dtype=float)
    hull = ConvexHull(pts)
    # A triangle joins the first face whose first plane is within 1e-9 of
    # its own in normal and offset. A face is filed under each cell of a
    # 4e-9 grid over (n, offset) within 2e-9 of its plane in every
    # coordinate, so a triangle's own cell lists all faces it can join.
    groups: list[tuple[np.ndarray, float, set]] = []
    cells: dict[tuple, list[int]] = {}
    for simplex, eq in zip(hull.simplices, hull.equations):
        n, off = eq[:3], eq[3]
        cell = tuple(math.floor(x / 4e-9) for x in eq.tolist())
        for g in cells.get(cell, ()):
            gn, goff, gverts = groups[g]
            if np.linalg.norm(gn - n) < 1e-9 and abs(goff - off) < 1e-9:
                gverts.update(simplex.tolist())
                break
        else:
            spans = [range(math.floor((x - 2e-9) / 4e-9),
                           math.floor((x + 2e-9) / 4e-9) + 1)
                     for x in eq.tolist()]
            for cell in itertools.product(*spans):
                cells.setdefault(cell, []).append(len(groups))
            groups.append((n.copy(), off, set(simplex.tolist())))

    # all faces at once: vertices by angle about the center, counterclockwise
    # seen from outside, in [0, 2 pi) from the first and smallest vertex id
    sizes = [len(verts) for _n, _off, verts in groups]
    ids = np.concatenate([sorted(verts) for _n, _off, verts in groups])
    face = np.repeat(np.arange(len(groups)), sizes)
    starts = np.cumsum(sizes) - sizes
    rel = pts[ids] - (np.add.reduceat(pts[ids], starts)
                      / np.array(sizes)[:, None])[face]
    first = rel[starts][face]
    normal = np.array([n for n, _off, _verts in groups])[face]
    angle = np.arctan2(np.sum(np.cross(first, rel) * normal, axis=1),
                       np.sum(first * rel, axis=1)) % (2.0 * math.pi)
    faces = [tuple(cyc.tolist()) for cyc
             in np.split(ids[np.lexsort((angle, face))], starts[1:])]
    faces.sort(key=lambda cyc: tuple(sorted(cyc)))
    return faces


def _tetrahedron():
    return np.array([(1.0, 1.0, 1.0), (1.0, -1.0, -1.0),
                     (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)])


def _cube():
    t = 1.0 / math.sqrt(2.0)
    return np.array(list(itertools.product((-t, t), repeat=3)))


def _octahedron():
    s = math.sqrt(2.0)
    return np.array([(s, 0, 0), (-s, 0, 0), (0, s, 0),
                     (0, -s, 0), (0, 0, s), (0, 0, -s)], dtype=float)


def _prism(n: int):
    # unit-distance vertical edge lines need ring radius 1; the top and
    # bottom polygon edge lines then need height sin(pi/n)
    h = math.sin(math.pi / n)
    ring = [(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n))
            for k in range(n)]
    bottom = [(x, y, -h) for x, y in ring]
    top = [(x, y, h) for x, y in ring]
    return np.array(bottom + top)


def _dodecahedron():
    # standard phi coordinates carry midradius phi; rescale to midradius 1
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    a, b = 1.0 / phi, 1.0 / phi ** 2
    pts = [p for p in itertools.product((-a, a), repeat=3)]
    for s1, s2 in itertools.product((-1, 1), repeat=2):
        pts.append((0.0, s1 * b, s2 * 1.0))
        pts.append((s1 * b, s2 * 1.0, 0.0))
        pts.append((s1 * 1.0, 0.0, s2 * b))
    return np.array(pts)


_GENERATORS = {
    "tetrahedron": _tetrahedron,
    "cube": _cube,
    "octahedron": _octahedron,
    "triangular_prism": lambda: _prism(3),
    "pentagonal_prism": lambda: _prism(5),
    "dodecahedron": _dodecahedron,
}

SEED_NAMES = tuple(sorted(_GENERATORS))


def seed_coordinates(name: str) -> np.ndarray:
    try:
        return _GENERATORS[name]()
    except KeyError:
        raise KeyError("unknown seed complex %r (available: %s)"
                       % (name, ", ".join(SEED_NAMES)))


def seed_complex(name: str) -> tuple[PolyhedralComplex, np.ndarray]:
    """Return (complex, canonical coordinates) for a built-in seed."""
    coords = seed_coordinates(name)
    P = build_complex(faces_from_coordinates(coords), n_vertices=len(coords))
    return P, coords


def perpendicular_feet(P: PolyhedralComplex, coords) -> np.ndarray:
    """Foot of the perpendicular from the origin to each edge line.

    For the canonical seed embeddings these are the sphere tangency points
    (all of norm 1).
    """
    pts = np.asarray(coords, dtype=float)
    feet = np.empty((P.n_edges, 3))
    for e, (a, b) in enumerate(P.edges):
        u = pts[b] - pts[a]
        t = -(pts[a] @ u) / (u @ u)
        feet[e] = pts[a] + t * u
    return feet
