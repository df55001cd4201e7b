"""File formats: OFF meshes, JSON dumps of configurations and reports, CSV.

All writers are deterministic: fixed key order (sorted), fixed row order,
and 17-significant-digit decimal formatting for OFF and CSV payloads. JSON
floats use Python repr, which is also reproducible.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .combinatorics import PolyhedralComplex, build_complex
from .config import Configuration
from .errors import MalformedSpec


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def format_complex(z: complex) -> str:
    z = complex(z)
    return "%.17g%+.17gi" % (z.real, z.imag)


# ---------------------------------------------------------------------------
# OFF

def off_text(vertices, faces) -> str:
    """OFF text for an affine vertex array and face cycles."""
    vertices = np.asarray(vertices, dtype=float)
    n_edges = sum(len(f) for f in faces) // 2
    lines = ["OFF", "%d %d %d" % (len(vertices), len(faces), n_edges)]
    for p in vertices:
        lines.append(" ".join(_fmt(c) for c in p))
    for f in faces:
        lines.append(" ".join([str(len(f))] + [str(v) for v in f]))
    return "\n".join(lines) + "\n"


def write_off(path: str, vertices, faces) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(off_text(vertices, faces))


# ---------------------------------------------------------------------------
# JSON dumps

def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonify(row) for row in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, complex):
        return format_complex(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def dump_json(path: str, payload: dict) -> None:
    text = json.dumps(_jsonify(payload), indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def complex_to_dict(P: PolyhedralComplex) -> dict:
    return {"faces": [list(f) for f in P.faces], "n_vertices": P.n_vertices}


def configuration_to_dict(cfg: Configuration, P: PolyhedralComplex,
                          manifest: dict | None = None) -> dict:
    payload = {
        "complex": complex_to_dict(P),
        "planes": [list(n) + [d] for n, d in zip(cfg.normals.tolist(),
                                                 cfg.offsets.tolist())],
        "vertices": cfg.vertices4.tolist(),
        "tangent_points": cfg.tangents.tolist(),
        "marks": {
            "edges": list(cfg.marked_edges),
            "points": cfg.marked_points.tolist(),
        },
    }
    if manifest is not None:
        payload["manifest"] = manifest
    return payload


def configuration_from_dict(data: dict):
    """Rebuild (Configuration, PolyhedralComplex) from a JSON payload."""
    try:
        P = build_complex([tuple(f) for f in data["complex"]["faces"]],
                          n_vertices=int(data["complex"]["n_vertices"]))
        planes = np.asarray(data["planes"], dtype=float)
        vertices4 = np.asarray(data["vertices"], dtype=float)
        tangents = np.asarray(data["tangent_points"], dtype=float)
        marked_edges = tuple(int(e) for e in data["marks"]["edges"])
        marked_points = np.asarray(data["marks"]["points"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedSpec("configuration JSON missing or malformed: %s" % exc)
    if planes.shape != (P.n_faces, 4):
        raise MalformedSpec("expected %d planes of 4 numbers" % P.n_faces)
    if vertices4.shape != (P.n_vertices, 4):
        raise MalformedSpec("expected %d projective vertices" % P.n_vertices)
    if tangents.shape != (P.n_edges, 3):
        raise MalformedSpec("expected %d tangent points" % P.n_edges)
    if len(marked_edges) != 3 or marked_points.shape != (3, 3):
        raise MalformedSpec("marks must name three edges and three points")
    cfg = Configuration(normals=planes[:, :3].copy(),
                        offsets=planes[:, 3].copy(),
                        vertices4=vertices4, tangents=tangents,
                        marked_edges=marked_edges,
                        marked_points=marked_points)
    return cfg, P


def pattern_to_dict(pattern, manifest: dict | None = None) -> dict:
    """JSON payload for a normalized spherical pattern."""
    payload = {
        "complex": complex_to_dict(pattern.P),
        "vertex_caps": pattern.vertex_caps.tolist(),
        "face_caps": pattern.face_caps.tolist(),
        "tangency_points": pattern.tangency.tolist(),
        "marks": {
            "edges": list(pattern.frame.edges),
            "z": [format_complex(z) for z in pattern.marks_z],
            "points": pattern.marks.tolist(),
        },
        "frame": {"face": pattern.frame.face,
                  "edges": list(pattern.frame.edges)},
    }
    if manifest is not None:
        payload["manifest"] = manifest
    return payload


def verify_report_to_dict(report, manifest: dict | None = None) -> dict:
    payload = {
        "max_tangency_residual": report.max_tangency_residual,
        "max_incidence_residual": report.max_incidence_residual,
        "combinatorics_ok": report.combinatorics_ok,
        "convexity": report.convexity,
        "contact_graph_primal_ok": report.contact_graph_primal_ok,
        "contact_graph_dual_ok": report.contact_graph_dual_ok,
        "per_edge": report.per_edge,
        "per_vertex": report.per_vertex,
    }
    if manifest is not None:
        payload["manifest"] = manifest
    return payload


# ---------------------------------------------------------------------------
# sweep CSV

def sweep_csv_text(rows) -> str:
    """rows: iterables of (z1, z2, z3, classification, residual)."""
    lines = ["z1,z2,z3,classification,residual"]
    for z1, z2, z3, cls, residual in rows:
        lines.append(",".join([format_complex(z1), format_complex(z2),
                               format_complex(z3), cls, _fmt(residual)]))
    return "\n".join(lines) + "\n"


def write_sweep_csv(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sweep_csv_text(rows))


# ---------------------------------------------------------------------------
# body mesh export

def boundary_mesh(body, n: int = 48):
    """Triangulated boundary surface: (vertices, triangle faces).

    Latitude-longitude sampling of the radial boundary map, every point
    solved in one batched bisection along its ray from the origin;
    deterministic for a given n. Rings have 2n segments, plus pole fans.
    """
    from .bodies import _bisect_rays, _rowdot

    n_seg = 2 * n
    phi = np.repeat(np.pi * np.arange(1, n) / n, n_seg)
    lam = np.tile(2.0 * np.pi * np.arange(n_seg) / n_seg, n - 1)
    dirs = np.vstack([[0.0, 0.0, 1.0],
                      np.column_stack([np.sin(phi) * np.cos(lam),
                                       np.sin(phi) * np.sin(lam),
                                       np.cos(phi)]),
                      [0.0, 0.0, -1.0]])
    dirs /= np.sqrt(_rowdot(dirs, dirs))[:, None]
    verts = _bisect_rays(body, np.zeros_like(dirs), dirs)[:, None] * dirs

    def ring(i, j):
        return 1 + (i - 1) * n_seg + (j % n_seg)

    tris = []
    for j in range(n_seg):
        tris.append((0, ring(1, j), ring(1, j + 1)))
    for i in range(1, n - 1):
        for j in range(n_seg):
            a, b = ring(i, j), ring(i, j + 1)
            c, d = ring(i + 1, j), ring(i + 1, j + 1)
            tris.append((a, c, d))
            tris.append((a, d, b))
    south = len(verts) - 1
    for j in range(n_seg):
        tris.append((south, ring(n - 1, j + 1), ring(n - 1, j)))
    return verts, tris
