"""Reference for ``midscribe.seeds.faces_from_coordinates``.

This is the face extraction as it was before its triangles were grouped
by a grid over their planes: each hull triangle is compared with every
face found so far, in order, and joins the first whose plane is within
1e-9 of its own; then each face's vertices are put in order one face at a
time. Tests require the grouped extraction to give the same faces.
"""

import math

import numpy as np
from scipy.spatial import ConvexHull


def faces_from_coordinates(points) -> list[tuple[int, ...]]:
    pts = np.asarray(points, dtype=float)
    hull = ConvexHull(pts)
    groups: list[tuple[np.ndarray, float, set]] = []
    for simplex, eq in zip(hull.simplices, hull.equations):
        n, off = eq[:3], eq[3]
        for gn, goff, gverts in groups:
            if np.linalg.norm(gn - n) < 1e-9 and abs(goff - off) < 1e-9:
                gverts.update(simplex.tolist())
                break
        else:
            groups.append((n.copy(), off, set(simplex.tolist())))

    faces = []
    for n, _off, verts in groups:
        ids = sorted(verts)
        center = pts[ids].mean(axis=0)
        t1 = pts[ids[0]] - center
        t1 -= n * (t1 @ n) / (n @ n)
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(n / np.linalg.norm(n), t1)
        ang = {v: math.atan2((pts[v] - center) @ t2, (pts[v] - center) @ t1)
               for v in ids}
        cyc = sorted(ids, key=lambda v: ang[v])
        k = cyc.index(min(cyc))
        faces.append(tuple(cyc[k:] + cyc[:k]))
    faces.sort(key=lambda cyc: tuple(sorted(cyc)))
    return faces
