"""3-connectivity by face intersections, against the brute-force oracle."""
import collections

import numpy as np
import pytest

import connectivity_oracle
from midscribe import build_complex, combinatorics, dual_complex, seed_complex
from midscribe.errors import MalformedSpec, NonPolyhedral
from midscribe.seeds import SEED_NAMES, faces_from_coordinates
from test_packing import GENERATED, sphere_hull_points

SPLIT = "graph separates after removing vertices %d and %d (not 3-connected)"

CHORD = [(0, 1, 2), (0, 3, 1), (0, 2, 3), (2, 4, 3), (2, 5, 4), (3, 4, 5),
         (1, 3, 5, 2)]
# 7-vertex torus (every vertex pair is an edge): chi = 0, so with a
# tetrahedron the surface has chi = 2 but the graph is disconnected
TORUS = [(v, (v + a) % 7, (v + b) % 7) for v in range(7)
         for a, b in ((1, 3), (3, 2))]
TETRA_PLUS_TORUS = ([(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
                    + [tuple(4 + v for v in f) for f in TORUS])


def merged_hull(seed):
    """A random simplicial hull with some adjacent faces merged.

    Each merge removes an edge between two faces that share only its ends
    and leaves every degree at 3 or more, so the result keeps V - E + F = 2
    and only the 3-connectivity check can reject it.
    """
    rng = np.random.default_rng(seed)
    n = 5 + seed % 13
    faces = [list(f) for f in faces_from_coordinates(sphere_hull_points(n, seed))]
    for _ in range(int(rng.integers(1, n))):
        face_of = {(c[i - 1], c[i]): k for k, c in enumerate(faces)
                   for i in range(len(c))}
        degree = collections.Counter(v for c in faces for v in c)
        options = [(a, b) for (a, b) in face_of
                   if a < b and min(degree[a], degree[b]) > 3
                   and len(set(faces[face_of[a, b]]) & set(faces[face_of[b, a]])) == 2]
        if not options:
            break
        a, b = options[int(rng.integers(len(options)))]
        f, g = faces[face_of[a, b]], faces[face_of[b, a]]
        f = f[f.index(b):] + f[:f.index(b)]  # b ... a
        g = g[g.index(a):] + g[:g.index(a)]  # a ... b
        faces = [c for k, c in enumerate(faces)
                 if k not in (face_of[a, b], face_of[b, a])]
        faces.append(f + g[1:-1])
    return faces


def corpus():
    for name in SEED_NAMES:
        P = seed_complex(name)[0]
        yield name, P.faces
        yield name + "-dual", dual_complex(P).faces
    for name in ("hull12", "hull20", "prism8", "antiprism15", "hull60"):
        yield name, faces_from_coordinates(GENERATED[name]())
    for seed in range(300):
        yield "merged%d" % seed, merged_hull(seed)
    yield "chord", CHORD
    yield "tetra+torus", TETRA_PLUS_TORUS


def oracle_check(faces, face_of_dart, vertex_faces):
    edges = sorted({(min(a, b), max(a, b)) for a, b in face_of_dart})
    connectivity_oracle.brute_force_three_connected(len(vertex_faces), edges)


def outcome(faces, check=None):
    """The built complex, or the error, with check as the 3-connectivity test."""
    with pytest.MonkeyPatch.context() as mp:
        if check is not None:
            mp.setattr(combinatorics, "_check_three_connected", check)
        try:
            return build_complex(faces)
        except (MalformedSpec, NonPolyhedral) as exc:
            return exc


def test_three_connected_matches_brute_force():
    """Same complex or same error; an equal rejection message means the
    oracle confirms that the named pair separates the graph."""
    rejected = 0
    for name, faces in corpus():
        new, old = outcome(faces), outcome(faces, oracle_check)
        assert type(new) is type(old), name
        if isinstance(new, Exception):
            assert str(new) == str(old), name
            rejected += "not 3-connected" in str(new)
        else:
            assert new == old, name
    assert rejected >= 30


@pytest.mark.parametrize("faces,pair", [(CHORD, (2, 3)),
                                        (TETRA_PLUS_TORUS, (0, 1))],
                         ids=["chord", "tetra+torus"])
def test_three_connected_named_negatives(faces, pair):
    with pytest.raises(NonPolyhedral) as info:
        build_complex(faces)
    assert str(info.value) == SPLIT % pair
    old = outcome(faces, oracle_check)
    assert isinstance(old, NonPolyhedral) and str(old) == SPLIT % pair
