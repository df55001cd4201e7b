"""Polyhedral complex construction, duality, frames, and file parsing."""
import json

import numpy as np
import pytest

from conftest import get_seed
from midscribe import (
    build_complex,
    dimension_audit,
    dual_complex,
    load_complex_file,
    parse_complex_json,
    parse_off,
    select_frame,
)
from midscribe.errors import (
    MalformedSpec,
    NonPolyhedral,
    NotIncident,
    NotSequential,
)
from midscribe.io import complex_to_dict, off_text
from midscribe.seeds import SEED_NAMES

COUNTS = {
    "tetrahedron": (4, 6, 4),
    "cube": (8, 12, 6),
    "octahedron": (6, 12, 8),
    "triangular_prism": (6, 9, 5),
    "pentagonal_prism": (10, 15, 7),
    "dodecahedron": (20, 30, 12),
}


@pytest.mark.parametrize("name", SEED_NAMES)
def test_seed_counts_and_euler(name):
    P, _, _ = get_seed(name)
    v, e, f = COUNTS[name]
    assert (P.n_vertices, P.n_edges, P.n_faces) == (v, e, f)
    assert P.n_vertices - P.n_edges + P.n_faces == 2


@pytest.mark.parametrize("name", SEED_NAMES)
def test_incidence_tables_consistent(name):
    P, _, _ = get_seed(name)
    for e in range(P.n_edges):
        f, g = P.faces_of_edge(e)
        assert f != g
        u, v = P.edge_vertices(e)
        assert u != v
        for face in (f, g):
            boundary = P.boundary_edges(face)
            assert e in boundary
    for v in range(P.n_vertices):
        ring = P.vertex_faces[v]
        assert len(ring) == P.degree(v) >= 3
        # faces around a vertex are cyclically adjacent
        for i in range(len(ring)):
            a, b = ring[i], ring[(i + 1) % len(ring)]
            shared = set(P.boundary_edges(a)) & set(P.boundary_edges(b))
            assert any(v in P.edge_vertices(e) for e in shared)


def test_build_complex_rejects_open_surface():
    with pytest.raises(NonPolyhedral):
        build_complex([(0, 1, 2)])


def test_build_complex_rejects_degree_two_vertex():
    with pytest.raises(NonPolyhedral):
        build_complex([(0, 1, 2), (2, 1, 0)])


def test_build_complex_rejects_repeated_vertex():
    with pytest.raises(MalformedSpec):
        build_complex([(0, 1, 1), (0, 1, 2), (0, 2, 1)])


def test_select_frame_sequential_edges():
    P, _, _ = get_seed("cube")
    boundary = P.boundary_edges(0)
    frame = select_frame(P)
    assert frame.face == 0
    assert frame.edges == boundary[:3]
    # any cyclic rotation of three consecutive boundary edges is accepted
    rotated = (boundary[1], boundary[2], boundary[3])
    assert select_frame(P, 0, rotated).edges == rotated


def test_select_frame_rejects_bad_triples():
    P, _, _ = get_seed("cube")
    b = P.boundary_edges(0)
    with pytest.raises(NotSequential):
        select_frame(P, 0, (b[0], b[2], b[1]))
    foreign = next(e for e in range(P.n_edges) if e not in b)
    with pytest.raises(NotIncident):
        select_frame(P, 0, (b[0], b[1], foreign))


def test_dual_counts():
    cube, _, _ = get_seed("cube")
    octa = dual_complex(cube)
    assert (octa.n_vertices, octa.n_edges, octa.n_faces) == (6, 12, 8)
    tetra, _, _ = get_seed("tetrahedron")
    dt = dual_complex(tetra)
    assert (dt.n_vertices, dt.n_edges, dt.n_faces) == (4, 6, 4)


@pytest.mark.parametrize("name", SEED_NAMES)
def test_dual_involution(name):
    P, _, _ = get_seed(name)
    DD = dual_complex(dual_complex(P))
    assert (DD.n_vertices, DD.n_edges, DD.n_faces) == \
        (P.n_vertices, P.n_edges, P.n_faces)
    assert sorted(len(f) for f in DD.faces) == sorted(len(f) for f in P.faces)
    assert sorted(DD.degree(v) for v in range(DD.n_vertices)) == \
        sorted(P.degree(v) for v in range(P.n_vertices))


@pytest.mark.parametrize("name,expected", [
    ("cube", (18, 18, 0)),
    ("octahedron", (24, 18, 6)),
    ("tetrahedron", (12, 12, 0)),
])
def test_dimension_audit_known_values(name, expected):
    P, _, _ = get_seed(name)
    report = dimension_audit(P)
    assert (report.plane_dof, report.realization_dof,
            report.concurrency_conditions) == expected


@pytest.mark.parametrize("name", SEED_NAMES)
def test_dimension_audit_identities(name):
    P, _, _ = get_seed(name)
    r = dimension_audit(P)
    assert r.plane_dof == 3 * P.n_faces
    assert r.realization_dof == P.n_edges + 6
    assert r.concurrency_conditions == 2 * P.n_edges - 3 * P.n_vertices
    assert r.concurrency_conditions == r.plane_dof - r.realization_dof
    assert r.flag_count == 2 * P.n_edges
    assert r.flag_count == sum(P.degree(v) for v in range(P.n_vertices))


def test_off_round_trip():
    P, coords, _ = get_seed("dodecahedron")
    faces, verts = parse_off(off_text(coords, P.faces))
    assert len(verts) == P.n_vertices
    assert tuple(tuple(f) for f in faces) == P.faces
    assert np.allclose(np.array(verts), coords, atol=0, rtol=0)


def test_complex_json_round_trip():
    P, _, _ = get_seed("triangular_prism")
    text = json.dumps(complex_to_dict(P))
    faces = parse_complex_json(text)
    Q = build_complex(faces)
    assert Q.faces == P.faces
    assert Q.n_vertices == P.n_vertices


def test_load_complex_file_sniffs_format(tmp_path):
    P, coords, _ = get_seed("cube")
    off_path = tmp_path / "cube.off"
    off_path.write_text(off_text(coords, P.faces))
    json_path = tmp_path / "cube.json"
    json_path.write_text(json.dumps(complex_to_dict(P)))
    for path in (off_path, json_path):
        Q = load_complex_file(str(path))
        assert Q.faces == P.faces


TETRAHEDRON_OFF = ("OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
                   "3 0 1 3\n3 0 3 2\n3 0 2 1\n3 1 2 3\n")

# Malformed complex files, each paired with its file suffix: a face that is
# not a list, non-integer vertex ids in JSON, a non-integer id on an OFF face
# line and a non-numeric OFF coordinate.
JUNK_COMPLEXES = [
    ("off", "not a mesh at all\n"),
    ("json", '{"faces": [1,2,3]}'),
    ("json", '{"faces": [["a","b","c"]]}'),
    ("off", TETRAHEDRON_OFF.replace("3 0 1 3\n", "3 0 a 3\n")),
    ("off", TETRAHEDRON_OFF.replace("1 0 0\n", "1 1 x\n")),
]


def test_load_complex_file_rejects_junk(tmp_path):
    good = tmp_path / "good.off"
    good.write_text(TETRAHEDRON_OFF)
    assert load_complex_file(str(good)).n_faces == 4
    for k, (suffix, text) in enumerate(JUNK_COMPLEXES):
        p = tmp_path / ("bad%d.%s" % (k, suffix))
        p.write_text(text)
        with pytest.raises(MalformedSpec):
            load_complex_file(str(p))
