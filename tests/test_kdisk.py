"""Batched K-disk tracing: agreement with the scalar tracer, typed failures,
and full verification of generated complexes."""
import math

import numpy as np
import pytest

import kdisk_oracle
from conftest import ball_solution, get_seed, witness_marks
from midscribe import (continue_to_body, extract_kdisk_packings, koebe_config,
                       layout_circles, lift_normalize, solve_radii, verify,
                       verify_configuration)
from midscribe.bodies import (ConvexBody, _unit_orthogonals, make_body,
                              make_path)
from midscribe.errors import DegenerateConfiguration
from test_packing import GENERATED, complex_and_frame

BALL = make_body("ball")
THETA = (2.0 * math.pi * 0.61803398874989485
         + 2.0 * math.pi * np.arange(verify.N_BOUNDARY_SAMPLES)
         / verify.N_BOUNDARY_SAMPLES)


def _cube_on_ellipsoid():
    P, coords, frame = get_seed("cube")
    body = make_body("ellipsoid:a=1.2,b=1.0")
    marks = witness_marks(P, frame, coords * np.array([1.2, 1.0, 1.0]), body)
    cfg, _ = continue_to_body(P, frame, marks, make_path(body))
    return P, cfg, body


@pytest.fixture(scope="module", params=["tetrahedron/ball", "cube/ball",
                                        "cube/ellipsoid", "p4_box"])
def traced_pair(request):
    """(batched, scalar) packings of one configuration, and the tolerance
    on their worst contact position errors.

    The final golden-section bracket is 2.7e-8 wide in the boundary
    parameter, so 1e-7 in position is a few bracket widths. On the quartic box
    each contact is of fourth order, so the margin is flat to rounding over
    about 1e-4 around it and the maximizer found depends on the last bits
    of the traced points: both tracers put the visibility contacts about
    1.4e-4 from the tangent points, 5e-7 apart.
    """
    tol = 1e-7
    if request.param == "p4_box":
        inst = request.getfixturevalue("p4_box_instance")
        P, cfg, body = inst["P"], inst["cfg"], inst["body"]
        tol = 1e-5
    elif request.param == "cube/ellipsoid":
        P, cfg, body = _cube_on_ellipsoid()
    else:
        name = request.param.split("/")[0]
        P, cfg, body = get_seed(name)[0], ball_solution(name), BALL
    return (extract_kdisk_packings(cfg, body, P),
            kdisk_oracle.scalar_kdisk_packings(cfg, body, P), tol)


def test_unit_orthogonals_match_scalar_helper():
    V = np.random.default_rng(3).normal(size=(2000, 3))
    expected = np.array([kdisk_oracle._any_unit_orthogonal(v) for v in V])
    assert np.array_equal(_unit_orthogonals(V), expected)


def test_batched_tracer_matches_scalar_tracer(traced_pair):
    batched, scalar, position_tol = traced_pair
    for new, old in zip(batched, scalar):
        assert [d.owner for d in new.disks] == [d.owner for d in old.disks]
        for a, b in zip(new.disks, old.disks):
            assert a.kind == b.kind and a.at_infinity == b.at_infinity
            assert np.max(np.abs(a.boundary_samples - b.boundary_samples)) < 1e-12
        assert new.contacts_ok == old.contacts_ok
        assert new.nondegenerate == old.nondegenerate
        assert abs(new.max_adjacent_gap - old.max_adjacent_gap) < 1e-12
        if math.isinf(old.max_foreign_margin):
            assert new.max_foreign_margin == old.max_foreign_margin
        else:
            assert abs(new.max_foreign_margin - old.max_foreign_margin) < 1e-12
        assert (abs(new.worst_position_error - old.worst_position_error)
                < position_tol)


@pytest.mark.parametrize("name", ["hull12", "prism8"])
def test_generated_complexes_verify_with_packings(name):
    P, frame = complex_and_frame(name)
    marks = witness_marks(P, frame, GENERATED[name](), BALL)
    radii = solve_radii(P, frame)
    cfg = koebe_config(lift_normalize(layout_circles(P, frame, radii), marks))
    report = verify_configuration(cfg, BALL, P)
    assert report.convexity == "convex"
    assert report.contact_graph_primal_ok is True
    assert report.contact_graph_dual_ok is True
    assert report.passed


class _Constant(ConvexBody):
    """A gauge with one value everywhere: every point inside or outside."""

    def __init__(self, value):
        self._value = value

    def value(self, x):
        return self._value

    def gradient(self, x):
        return np.zeros(3)

    def hessian(self, x):
        return np.zeros((3, 3))

    @property
    def descriptor(self):
        return "constant"


def test_face_disk_failure_names_stage_and_face():
    P, _, _ = get_seed("cube")
    with pytest.raises(DegenerateConfiguration,
                       match="^K-disk extraction: face 0 "):
        verify._FaceDisks(_Constant(1.0), ball_solution("cube"), P, THETA)


def test_vertex_disk_failure_names_stage_and_vertex():
    P, _, _ = get_seed("cube")
    with pytest.raises(DegenerateConfiguration,
                       match="^K-disk extraction: vertex 0 is not exterior"):
        verify._VertexDisks(_Constant(-1.0), ball_solution("cube"), P, THETA)


def test_missing_horizon_crossing_names_vertex(monkeypatch):
    P, _, _ = get_seed("cube")
    monkeypatch.setattr(verify, "_visibility",
                        lambda apex, c, X, grads: -np.ones(X.shape[:-1]))
    with pytest.raises(DegenerateConfiguration,
                       match="^K-disk extraction: vertex 0 has no visibility"):
        verify._VertexDisks(BALL, ball_solution("cube"), P, THETA)


@pytest.mark.parametrize("c", [1.0, -1.0])
def test_horizon_bracket_failure_is_typed(c):
    # apex at the origin: with c = 1 no boundary point is visible, with
    # c = -1 every one is, so neither end of the bracket can be placed
    rows = 4
    w = np.tile([0.0, 0.0, 1.0], (rows, 1))
    m = np.tile([1.0, 0.0, 0.0], (rows, 1))
    arcs = verify._Arcs(BALL, np.full(rows, 3), np.zeros((rows, 3)),
                        np.full(rows, c), w, m, np.ones(rows))
    with pytest.raises(DegenerateConfiguration,
                       match="^K-disk extraction: vertex 3 has no horizon "
                             "bracket after 30 expansions"):
        arcs.bracket(np.full(rows, 1.0))


def test_degenerate_disk_fails_contact_flags(monkeypatch):
    P, _, _ = get_seed("cube")
    monkeypatch.setattr(verify, "_visibility",
                        lambda apex, c, X, grads: -np.ones(X.shape[:-1]))
    report = verify_configuration(ball_solution("cube"), BALL, P)
    assert report.midscribed
    assert report.contact_graph_primal_ok is False
    assert report.contact_graph_dual_ok is False
