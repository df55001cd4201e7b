"""What a complex derives once and shares: the planar ball packing, the
solver's index layout, the radius solve's node structure and angle-sum
arrays, the lift check's edge cap rows, and the verifier's face masks and
contact graphs (combinatorics.derived).

Every count below is taken on complexes built inside the test, never on one
cached by a fixture, since a cached complex may already own its structures.
"""
import concurrent.futures
import dataclasses
import sys

import numpy as np
import pytest

from conftest import CANONICAL_MARKS
from midscribe import packing, solver, verify
from midscribe.bodies import make_body, make_path
from midscribe.combinatorics import PolyhedralComplex, build_complex
from midscribe.errors import NonConvergence
from midscribe.packing import solve_radii
from midscribe.solver import continue_to_body
from midscribe.verify import verify_configuration
from test_packing import complex_and_frame

BODIES = ("ellipsoid:a=1.2,b=1.0", "superellipsoid:p=4,a=1,b=1")
MARKS = [(0j, 1 + 0j, complex(x, y)) for x in (-1.5, 0.2, 1.3)
         for y in (-1.0, 0.7)]


def fresh_complex(name):
    """A new complex with the faces of a test complex, and its frame."""
    P, frame = complex_and_frame(name)
    return build_complex(P.faces, n_vertices=P.n_vertices), frame


def count_builds(monkeypatch):
    """Wrap every builder of a derived structure; returns the list of
    (builder, complex, other arguments) of each build, in order."""
    built = []

    def counted_init(cls, name):
        init = cls.__init__

        def counted(self, P, *args):
            built.append((name, P, args))
            init(self, P, *args)
        monkeypatch.setattr(cls, "__init__", counted)

    def counted_function(module, name):
        build = getattr(module, name)

        def counted(P, *args):
            built.append((name, P, args))
            return build(P, *args)
        monkeypatch.setattr(module, name, counted)

    counted_init(solver.SystemLayout, "SystemLayout")
    counted_init(packing._AngleSums, "_AngleSums")
    counted_function(packing, "_box_structure")
    counted_function(packing, "_edge_caps")
    counted_function(verify, "_on_face")
    counted_function(verify, "_contact_graph")
    return built


def solve_and_verify(P, frame):
    """continue_to_body on each of BODIES, then verify_configuration of the
    first solution twice; returns the solutions' bytes and the reports."""
    out = []
    for desc in BODIES:
        path = make_path(make_body(desc))
        cfg, report = continue_to_body(P, frame, CANONICAL_MARKS, path)
        out.append([getattr(cfg, part).tobytes() for part in
                    ("normals", "offsets", "vertices4", "tangents")]
                   + [report.step_history, report.iterations])
        if desc == BODIES[0]:
            checks = [verify_configuration(cfg, path.end, P)
                      for _ in range(2)]
    for check in checks:
        assert check.convexity == "convex"
        assert check.contact_graph_primal_ok and check.contact_graph_dual_ok
        out.append(repr(check))
    return out


def test_each_structure_is_built_once_per_complex(monkeypatch):
    """Two continuations and two verifications of one complex build each
    structure once; an equal complex builds its own, with the same bits."""
    built = count_builds(monkeypatch)
    P, frame = fresh_complex("cube")
    first = solve_and_verify(P, frame)
    Q = build_complex(P.faces, n_vertices=P.n_vertices)
    assert Q == P and solve_and_verify(Q, frame) == first
    once = [("_AngleSums", (frame,)), ("_box_structure", (frame,)),
            ("_edge_caps", ()), ("SystemLayout", (frame,)), ("_on_face", ()),
            ("_contact_graph", (True,)), ("_contact_graph", (False,))]
    assert [(name, args) for name, _, args in built] == 2 * once
    assert all(complex_ is P for _, complex_, _ in built[:len(once)])
    assert all(complex_ is Q for _, complex_, _ in built[len(once):])


def _bits(radii):
    return sorted((node, np.float64(x).tobytes())
                  for node, x in radii.log_radii.items())


@pytest.mark.parametrize("name", ["cube", "hull60"])
def test_threads_racing_on_a_new_complex_match_sequential(name):
    """Threads that race to build and then share one new complex's
    structures get, bit for bit, what solves on equal complexes of their
    own get: each radius solve refills a Laplacian of its own, and each
    continuation a Jacobian of its own."""
    path = make_path(make_body(BODIES[0]))

    def outcome(P, frame, z):
        radii = _bits(solve_radii(P, frame))
        try:
            cfg, report = continue_to_body(P, frame, z, path)
        except solver.SolverError as exc:
            return radii, repr(exc)
        return radii, ([getattr(cfg, part).tobytes() for part in
                        ("normals", "offsets", "vertices4", "tangents")],
                       report.step_history, report.steps_rejected,
                       repr(verify_configuration(cfg, path.end, P)))

    marks = MARKS if name == "cube" else MARKS[:2]
    sequential = [outcome(*fresh_complex(name), z) for z in marks]
    P, frame = fresh_complex(name)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda z: outcome(P, frame, z),
                                     marks * 2, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == sequential * 2


def _arrays(value, seen):
    """Every array in value, at any depth of items and attributes."""
    if isinstance(value, np.ndarray):
        yield value
    elif id(value) not in seen and not isinstance(value, PolyhedralComplex):
        seen.add(id(value))
        parts = (value if isinstance(value, (tuple, list))
                 else vars(value).values() if hasattr(value, "__dict__")
                 else ())
        for part in parts:
            yield from _arrays(part, seen)


def test_writing_into_a_derived_array_raises():
    """Every array a complex owns after a solve and a verification, at any
    depth, is read-only, so no caller can change what the others read."""
    P, frame = fresh_complex("cube")
    solve_and_verify(P, frame)
    assert sorted(map(repr, P._derived)) == sorted(map(repr, [
        (solver.SystemLayout, frame), (packing._AngleSums, frame),
        (packing._box_structure, frame), (verify._on_face,),
        (verify._contact_graph, True), (verify._contact_graph, False),
        (packing._ball_packing, frame), (packing._edge_caps,)]))
    for (build, *_), value in P._derived.items():
        arrays = list(_arrays(value, set()))
        # the packing's circles are frozen values in read-only mappings
        assert arrays or build in (packing._box_structure,
                                   packing._ball_packing), build
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


def count_packings(monkeypatch):
    """Wrap solve_radii and layout_circles; returns the list of the
    complexes each was called on, in order."""
    calls = []
    for name in ("solve_radii", "layout_circles"):
        build = getattr(packing, name)

        def counted(P, *args, build=build, name=name):
            calls.append((name, P))
            return build(P, *args)
        monkeypatch.setattr(packing, name, counted)
    return calls


def pattern_bits(pattern):
    """Every circle, tangency point and box size of a planar pattern, by
    repr, which tells floats apart bit for bit."""
    return repr([sorted(pattern.vertex_circles.items()),
                 sorted(pattern.face_circles.items()),
                 sorted(pattern.tangency.items()),
                 pattern.box_width, pattern.box_height])


def solutions(P, frame):
    """continue_to_body on each of BODIES at two mark sets: the solutions'
    bytes and step histories, or the error of a failed solve."""
    out = []
    for desc in BODIES:
        path = make_path(make_body(desc))
        for z in (CANONICAL_MARKS, MARKS[3]):
            try:
                cfg, report = continue_to_body(P, frame, z, path)
            except solver.SolverError as exc:
                out.append(repr(exc))
                continue
            out.append([getattr(cfg, part).tobytes() for part in
                        ("normals", "offsets", "vertices4", "tangents")]
                       + [report.step_history, report.iterations])
    return out


@pytest.mark.parametrize("name", ["cube", "pentagonal_prism"])
def test_the_ball_packing_is_built_once_per_complex(monkeypatch, name):
    """Four solves of one complex, on two bodies at two mark sets each,
    run the radius solve and the layout once; an equal complex builds its
    own packing, with the same bits and the same solutions."""
    calls = count_packings(monkeypatch)
    P, frame = fresh_complex(name)
    first = solutions(P, frame)
    Q = build_complex(P.faces, n_vertices=P.n_vertices)
    assert solutions(Q, frame) == first
    assert calls == [("solve_radii", P), ("layout_circles", P),
                     ("solve_radii", Q), ("layout_circles", Q)]
    mine, theirs = packing.ball_packing(P, frame), packing.ball_packing(Q,
                                                                       frame)
    assert mine is not theirs and mine.P is P and theirs.P is Q
    assert pattern_bits(mine) == pattern_bits(theirs)
    assert len(calls) == 4  # the two reads above built nothing


def test_a_failed_packing_is_not_kept(monkeypatch):
    """A radius solve that cannot converge fails the solve and leaves the
    complex without a packing; once it can, the same complex solves to
    the bits of a new one."""
    P, frame = fresh_complex("cube")
    with monkeypatch.context() as patch:
        patch.setattr(packing, "RADIUS_MAX_ITERATIONS", 1)
        with pytest.raises(NonConvergence, match="radius solve"):
            continue_to_body(P, frame, CANONICAL_MARKS,
                             make_path(make_body(BODIES[0])))
        assert (packing._ball_packing, frame) not in P._derived
    assert solutions(P, frame) == solutions(*fresh_complex("cube"))


def test_writing_into_the_shared_packing_raises():
    """The packing a complex owns is frozen, and its mappings read-only."""
    P, frame = fresh_complex("cube")
    pattern = packing.ball_packing(P, frame)
    assert pattern is packing.ball_packing(P, frame)
    for mapping in (pattern.vertex_circles, pattern.face_circles,
                    pattern.tangency):
        with pytest.raises(TypeError):
            mapping[0] = mapping[1]
        with pytest.raises((TypeError, AttributeError)):
            mapping.pop(0)
    for field in dataclasses.fields(pattern):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(pattern, field.name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pattern.vertex_circles[0].radius = 2.0
