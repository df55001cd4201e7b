"""Built-in seed coordinates are edge-tangent to the unit sphere, and the
faces recovered from a convex point set are the pairwise scan's."""
import importlib
import time
from pathlib import Path

import numpy as np
import pytest

import hull_oracle
from conftest import get_seed
from test_packing import GENERATED, sphere_hull_points
from midscribe import seeds
from midscribe.seeds import (SEED_NAMES, faces_from_coordinates,
                             perpendicular_feet, seed_complex,
                             seed_coordinates)


def test_seed_names_sorted_and_complete():
    assert SEED_NAMES == tuple(sorted(SEED_NAMES))
    assert set(SEED_NAMES) == {
        "tetrahedron", "cube", "octahedron", "triangular_prism",
        "pentagonal_prism", "dodecahedron",
    }


def test_unknown_seed_raises():
    with pytest.raises(KeyError):
        seed_complex("icosahedron-ish")


@pytest.mark.parametrize("name", SEED_NAMES)
def test_edge_feet_on_unit_sphere(name):
    P, X, _ = get_seed(name)
    feet = perpendicular_feet(P, X)
    assert feet.shape == (P.n_edges, 3)
    assert np.max(np.abs(np.linalg.norm(feet, axis=1) - 1.0)) < 1e-12


@pytest.mark.parametrize("name", SEED_NAMES)
def test_feet_lie_on_their_edges(name):
    P, X, _ = get_seed(name)
    feet = perpendicular_feet(P, X)
    for e in range(P.n_edges):
        u, v = P.edges[e]
        d = X[v] - X[u]
        t = float((feet[e] - X[u]) @ d) / float(d @ d)
        assert -1e-12 < t < 1 + 1e-12
        assert np.linalg.norm(X[u] + t * d - feet[e]) < 1e-12
        # perpendicular foot: radius orthogonal to the edge
        assert abs(feet[e] @ d) < 1e-12 * np.linalg.norm(d)


def test_canonical_norms():
    _, X, _ = get_seed("tetrahedron")
    assert np.allclose(np.linalg.norm(X, axis=1), np.sqrt(3.0), atol=1e-14)
    _, X, _ = get_seed("cube")
    assert np.allclose(np.abs(X), 1 / np.sqrt(2.0), atol=1e-14)
    _, X, _ = get_seed("octahedron")
    assert np.allclose(np.linalg.norm(X, axis=1), np.sqrt(2.0), atol=1e-14)


@pytest.mark.parametrize("name", SEED_NAMES)
def test_faces_planar_and_convex_position(name):
    P, X, _ = get_seed(name)
    for face in P.faces:
        pts = X[list(face)]
        n = np.cross(pts[1] - pts[0], pts[2] - pts[1])
        n /= np.linalg.norm(n)
        d = n @ pts[0]
        assert np.max(np.abs(pts @ n - d)) < 1e-12


@pytest.mark.parametrize("name", SEED_NAMES + tuple(GENERATED))
def test_faces_match_the_pairwise_scan(name):
    points = (seed_coordinates(name) if name in SEED_NAMES
              else GENERATED[name]())
    assert (faces_from_coordinates(points)
            == hull_oracle.faces_from_coordinates(points))


def test_faces_match_the_pairwise_scan_on_the_bench_corpus(monkeypatch):
    """Every point set the solve benchmark's corpus builds at five seeds,
    the seeds' and the generated hulls' and prisms', gives the scan's faces."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "bench"))
    corpus = importlib.import_module("corpus")
    seen = []

    def recording(points):
        seen.append(np.array(points, dtype=float))
        return faces_from_coordinates(points)

    monkeypatch.setattr(seeds, "faces_from_coordinates", recording)
    for seed in range(5):
        corpus.build_corpus(seed)
    assert len(seen) == 5 * (len(SEED_NAMES) + len(corpus.GENERATED))
    for points in seen:
        assert (faces_from_coordinates(points)
                == hull_oracle.faces_from_coordinates(points))


@pytest.mark.parametrize("name", ["cube", "pentagonal_prism", "dodecahedron"])
def test_faces_match_the_pairwise_scan_on_jittered_points(name):
    """Points moved by up to 3e-10 give coplanar triangles whose planes
    differ by a tenth of the 1e-9 tolerance, so they straddle the 4e-9
    plane cells and, now and then, the tolerance itself."""
    rng = np.random.default_rng(20260024)
    X = seed_coordinates(name)
    for _ in range(40):
        points = X + rng.uniform(-3e-10, 3e-10, size=X.shape)
        assert (faces_from_coordinates(points)
                == hull_oracle.faces_from_coordinates(points))


@pytest.mark.parametrize("n, seed", [(240, 20261240), (480, 20261480)])
def test_large_hull_faces_match_the_pairwise_scan(n, seed):
    points = sphere_hull_points(n, seed)
    assert (faces_from_coordinates(points)
            == hull_oracle.faces_from_coordinates(points))


def test_large_hull_faces_take_no_pairwise_scan():
    """The scan takes over a second at V=480, where the hull itself takes
    about 2 ms; grouped by plane cells the faces take a few hundredths."""
    points = sphere_hull_points(480, 20261480)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        faces_from_coordinates(points)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1
