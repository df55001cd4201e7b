"""Shared fixtures: cached seed pipelines, closed-form witnesses, slow solves."""
import functools

import numpy as np
import pytest

from midscribe import (
    Configuration,
    continue_to_body,
    koebe_config,
    layout_circles,
    lift_normalize,
    seed_complex,
    select_frame,
    solve_radii,
)
from midscribe.bodies import BodyChart, make_body, make_path
from midscribe.seeds import perpendicular_feet

CANONICAL_MARKS = (0j, 1 + 0j, 1j)


@functools.lru_cache(maxsize=None)
def get_seed(name):
    P, coords = seed_complex(name)
    return P, coords, select_frame(P)


@functools.lru_cache(maxsize=None)
def ball_solution(name, marks=CANONICAL_MARKS):
    """Unit-ball configuration for a seed via the packing pipeline."""
    P, _, frame = get_seed(name)
    radii = solve_radii(P, frame)
    pattern = layout_circles(P, frame, radii)
    spherical = lift_normalize(pattern, marks)
    return koebe_config(spherical)


def closed_form_config(name, scale=1.0, stretch=(1.0, 1.0, 1.0)):
    """Exact configuration built from seed coordinates, optionally deformed.

    Returns (P, frame, cfg). With scale=1 and no stretch the result is
    midscribed to the unit ball by construction.
    """
    P, coords, frame = get_seed(name)
    X = coords * scale * np.asarray(stretch)
    normals, offsets = [], []
    for face in P.faces:
        a, b, c = X[face[0]], X[face[1]], X[face[2]]
        n = np.cross(b - a, c - b)
        n /= np.linalg.norm(n)
        d = float(n @ a)
        if d < 0:
            n, d = -n, -d
        normals.append(n)
        offsets.append(d)
    v4 = np.hstack([np.ones((len(X), 1)), X])
    v4 /= np.linalg.norm(v4, axis=1, keepdims=True)
    feet = perpendicular_feet(P, X)
    marked = np.array([feet[e] for e in frame.edges])
    cfg = Configuration(np.array(normals), np.array(offsets), v4, feet,
                        tuple(frame.edges), marked)
    return P, frame, cfg


def witness_marks(P, frame, X, body):
    """Marks that pin a known midscribed realization X: chart images of the
    frame-edge tangent feet."""
    feet = perpendicular_feet(P, X)
    chart = BodyChart(body)
    return tuple(chart.forward(feet[e]) for e in frame.edges)


def ellipsoid_witness(P, frame, a, b):
    """(marks, vertices) of the exact answer on ellipsoid:a,b for (P, frame).

    L = diag(a, b, 1) maps the unit ball onto the ellipsoid and fixes N, and
    maps lines tangent to the ball to lines tangent to the ellipsoid. So
    L applied to the ball's Koebe configuration C at CANONICAL_MARKS
    midscribes the ellipsoid, and its marks are the chart images of L
    applied to C's three marked tangent points. By the uniqueness of the
    normalized answer, L.C is the only one. vertices are L.C's affine
    vertex positions, (V, 3); C has none at infinity.
    """
    L = np.array([a, b, 1.0])
    planar = layout_circles(P, frame, solve_radii(P, frame))
    C = koebe_config(lift_normalize(planar, CANONICAL_MARKS))
    positions, finite = C.affine_vertices()
    assert finite.all()
    chart = BodyChart(make_body("ellipsoid:a=%r,b=%r" % (a, b)))
    marks = tuple(chart.forward(L * t) for t in C.marked_points)
    return marks, positions * L


def ellipsoid_closed_form(P, frame, marks, a, b):
    """The affine vertices (V, 3) of the exact answer on ellipsoid:a,b at
    any finite marks: L = diag(a, b, 1) maps the chart coordinate z to
    a Re z + i b Im z, so the answer is L applied to the ball's Koebe
    configuration at the marks pulled back to Re z / a + i Im z / b."""
    planar = layout_circles(P, frame, solve_radii(P, frame))
    pulled = tuple(complex(z.real / a, z.imag / b) for z in marks)
    positions, finite = koebe_config(lift_normalize(planar,
                                                    pulled)).affine_vertices()
    assert finite.all()
    return positions * np.array([a, b, 1.0])


@pytest.fixture(scope="session")
def nonconvex_instance():
    """A converged midscribed realization that is not convex (all vertices on
    the far side of the ellipsoid)."""
    P, _, frame = get_seed("cube")
    body = make_body("ellipsoid:a=1.2,b=1.0")
    marks = (0.3 + 0.2j, 1.1 + 0j, -0.4 + 0.9j)
    cfg, report = continue_to_body(P, frame, marks, make_path(body))
    return P, frame, marks, body, cfg, report


@pytest.fixture(scope="session")
def p4_box_instance():
    """Symmetric-marks cube on the p=4 superellipsoid; the solution is the
    axis-aligned box of half-extent 2**-0.25."""
    P, coords, frame = get_seed("cube")
    body = make_body("superellipsoid:p=4,a=1,b=1")
    target = coords * 2.0 ** 0.25
    marks = witness_marks(P, frame, target, body)
    path = make_path(body)
    cfg, report = continue_to_body(P, frame, marks, path)
    return {"P": P, "frame": frame, "marks": marks, "body": body,
            "path": path, "cfg": cfg, "report": report, "target": target}


ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance():
    def record(criterion, ok, detail):
        line = "criterion %d: %s  %s" % (criterion, "PASS" if ok else "FAIL",
                                         detail)
        ACCEPTANCE_LINES.append(line)
        print(line)
        return ok
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
