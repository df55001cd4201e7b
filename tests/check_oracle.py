"""Loop versions of the incidence and convexity checks in verify.py: the
reference the array expressions there are tested against, kept unchanged
(the incidence loop is the part of the old ``check_midscription`` that
computed ``per_vertex``, ``max_incidence_residual`` and
``combinatorics_ok`` before the tangency check)."""

import math

import numpy as np

from midscribe.config import EPS_INFINITY
from midscribe.verify import SIDE_TOL, TANGENCY_TOL


def incidence(cfg, P, tol=TANGENCY_TOL):
    """(per_vertex, max incidence residual, combinatorics_ok)."""
    v4 = cfg.vertices4 / np.linalg.norm(cfg.vertices4, axis=1, keepdims=True)
    per_vertex = []
    max_inc = 0.0
    comb_ok = True
    for v in range(P.n_vertices):
        worst = 0.0
        for f in P.vertex_faces[v]:
            r = abs(float(cfg.normals[f] @ v4[v, 1:] - cfg.offsets[f] * v4[v, 0]))
            worst = max(worst, r)
        max_inc = max(max_inc, worst)
        per_vertex.append({
            "vertex": v,
            "max_incidence": worst,
            "finite": bool(abs(v4[v, 0]) > EPS_INFINITY),
        })
        for f in range(P.n_faces):
            if f in P.vertex_faces[v]:
                continue
            r = abs(float(cfg.normals[f] @ v4[v, 1:] - cfg.offsets[f] * v4[v, 0]))
            if r <= tol:
                comb_ok = False
    if max_inc >= tol:
        comb_ok = False
    return per_vertex, max_inc, comb_ok


def check_convexity(cfg, P, detailed=False):
    v4 = cfg.vertices4 / np.linalg.norm(cfg.vertices4, axis=1, keepdims=True)
    if np.any(np.abs(v4[:, 0]) <= EPS_INFINITY):
        info = {"min_side_distance": math.nan, "marginal": False,
                "worst_pair": None}
        return ("projective-degenerate", info) if detailed else "projective-degenerate"
    X = v4[:, 1:] / v4[:, :1]
    ok = True
    min_margin = math.inf
    worst = None
    for f in range(P.n_faces):
        face_verts = set(P.faces[f])
        for v in range(P.n_vertices):
            s = float(cfg.normals[f] @ X[v] - cfg.offsets[f])
            if v in face_verts:
                if abs(s) > 1e-7:
                    ok = False
                continue
            margin = -s
            if margin < min_margin:
                min_margin = margin
                worst = (f, v)
            if not s < -SIDE_TOL:
                ok = False
    cls = "convex" if ok else "nonconvex"
    info = {"min_side_distance": min_margin,
            "marginal": abs(min_margin) <= 10.0 * SIDE_TOL,
            "worst_pair": worst}
    return (cls, info) if detailed else cls
