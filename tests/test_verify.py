"""Verification: line tangency, convexity classification, disk packings,
rigidity probing."""
import ast
from pathlib import Path

import numpy as np
import pytest

import check_oracle
import gauge_oracle
from conftest import ball_solution, closed_form_config, get_seed, witness_marks
from midscribe import (
    check_convexity,
    check_midscription,
    continue_to_body,
    extract_kdisk_packings,
    koebe_config,
    layout_circles,
    lift_normalize,
    rigidity_probe,
    solve_radii,
    solver,
    verify,
    verify_configuration,
)
from midscribe.bodies import make_body, make_path
from midscribe.errors import NotMidscribed
from midscribe.seeds import SEED_NAMES
from midscribe.verify import CONTACT_TOL, N_BOUNDARY_SAMPLES, TANGENCY_TOL
from test_bodies import HalfSpace
from test_packing import GENERATED, complex_and_frame

BALL = make_body("ball")


def test_exact_tetrahedron_passes():
    P, _, cfg = closed_form_config("tetrahedron")
    report = check_midscription(cfg, BALL, P)
    assert report.midscribed
    assert report.max_tangency_residual < 1e-12
    assert report.max_incidence_residual < 1e-12
    assert report.combinatorics_ok
    assert len(report.per_edge) == P.n_edges
    assert len(report.per_vertex) == P.n_vertices


def test_scaled_tetrahedron_fails_with_known_residual():
    # scaling by 2 moves every edge line to distance 2, so the gauge minimum
    # along the line is 2^2 - 1 = 3
    P, _, cfg = closed_form_config("tetrahedron", scale=2.0)
    report = check_midscription(cfg, BALL, P)
    assert not report.midscribed
    assert report.max_tangency_residual == pytest.approx(3.0, abs=1e-9)


def test_tangency_is_a_line_property():
    # sliding a stored tangent point along its edge keeps the line tangent;
    # the report flags the mismatch distance but still passes
    P, _, cfg = closed_form_config("tetrahedron")
    moved = cfg.copy()
    u, v = P.edge_vertices(0)
    positions, _ = cfg.affine_vertices()
    d = positions[v] - positions[u]
    d /= np.linalg.norm(d)
    moved.tangents[0] += 1e-3 * d
    report = check_midscription(moved, BALL, P)
    assert report.midscribed
    assert report.max_tangency_residual < 1e-9
    worst = max(row["minimizer_distance"] for row in report.per_edge)
    assert worst == pytest.approx(1e-3, rel=1e-3)


def test_moved_plane_fails():
    P, _, cfg = closed_form_config("tetrahedron")
    bad = cfg.copy()
    bad.offsets[0] += 1e-3
    report = check_midscription(bad, BALL, P)
    assert not report.midscribed
    assert report.max_tangency_residual > 1e-4


def test_collapsed_vertex_breaks_combinatorics():
    P, _, cfg = closed_form_config("tetrahedron")
    bad = cfg.copy()
    bad.vertices4[1] = cfg.vertices4[0]
    report = check_midscription(bad, BALL, P)
    assert not report.combinatorics_ok
    assert report.max_incidence_residual > 1e-3


def test_convexity_classifications():
    P, _, cfg = closed_form_config("tetrahedron")
    assert check_convexity(cfg, P) == "convex"
    kind, detail = check_convexity(cfg, P, detailed=True)
    assert kind == "convex"
    assert detail["min_side_distance"] > 0.1
    assert detail["marginal"] is False

    flipped = cfg.copy()
    flipped.normals[0] = -cfg.normals[0]
    flipped.offsets[0] = -cfg.offsets[0]
    assert check_convexity(flipped, P) == "nonconvex"

    at_inf = cfg.copy()
    at_inf.vertices4[2] = np.array([0.0, 0.0, 1.0, 0.0])
    assert check_convexity(at_inf, P) == "projective-degenerate"


@pytest.mark.parametrize("name", SEED_NAMES)
def test_array_checks_match_loop_checks(name, nonconvex_instance):
    P, _, exact = closed_form_config(name)
    variants = [exact, ball_solution(name),
                closed_form_config(name, scale=2.0)[2],
                closed_form_config(name, stretch=(1.3, 1.0, 0.8))[2]]
    flipped = exact.copy()
    flipped.normals[0] *= -1.0
    flipped.offsets[0] *= -1.0
    at_inf = exact.copy()
    at_inf.vertices4[2] = np.array([0.0, 0.0, 1.0, 0.0])
    collapsed = exact.copy()
    collapsed.vertices4[1] = exact.vertices4[0]
    jittered = exact.copy()
    jittered.vertices4 += np.random.default_rng(len(name)).normal(
        scale=1e-8, size=exact.vertices4.shape)
    undefined = exact.copy()
    undefined.vertices4[3] = np.nan
    variants += [flipped, at_inf, collapsed, jittered, undefined]
    cases = [(P, cfg) for cfg in variants]
    if name == "cube":
        cases.append((nonconvex_instance[0], nonconvex_instance[4]))
    for P, cfg in cases:
        assert (repr(check_convexity(cfg, P, detailed=True))
                == repr(check_oracle.check_convexity(cfg, P, detailed=True)))
        report = check_midscription(cfg, BALL, P)
        assert (repr((report.per_vertex, report.max_incidence_residual,
                      report.combinatorics_ok))
                == repr(check_oracle.incidence(cfg, P)))
        _assert_tangency_matches_oracle(report, cfg, BALL, P)


def _assert_tangency_matches_oracle(report, cfg, body, P):
    per_edge, max_tan = gauge_oracle.tangency(cfg, body, P)
    assert repr(report.per_edge) == repr(per_edge)
    assert repr(report.max_tangency_residual) == repr(max_tan)


LINE_MARKS = (0.3 + 0j, -1.2 + 0.5j, 2j)


@pytest.mark.parametrize("descriptor", ["ball", "ellipsoid:a=1.2,b=1.0",
                                        "superellipsoid:p=4,a=1,b=1"])
@pytest.mark.parametrize("name", SEED_NAMES)
def test_line_minima_match_scalar_oracle(name, descriptor):
    P, _, frame = get_seed(name)
    body = make_body(descriptor)
    cfg, _ = continue_to_body(P, frame, LINE_MARKS, make_path(body))
    _assert_tangency_matches_oracle(check_midscription(cfg, body, P), cfg,
                                    body, P)


@pytest.mark.parametrize("name", ["hull12", "prism8"])
def test_line_minima_match_scalar_oracle_generated(name):
    P, frame = complex_and_frame(name)
    planar = layout_circles(P, frame, solve_radii(P, frame))
    marks = witness_marks(P, frame, GENERATED[name](), BALL)
    cfg = koebe_config(lift_normalize(planar, marks))
    _assert_tangency_matches_oracle(check_midscription(cfg, BALL, P), cfg,
                                    BALL, P)
    body = make_body("ellipsoid:a=1.2,b=1.0")
    cfg, _ = continue_to_body(P, frame, marks, make_path(body))
    _assert_tangency_matches_oracle(check_midscription(cfg, body, P), cfg,
                                    body, P)


def test_line_minima_failures_match_scalar_oracle():
    P, _, cfg = closed_form_config("cube")
    f, g = P.faces_of_edge(0)
    parallel = cfg.copy()
    parallel.normals[g] = cfg.normals[f]
    report = check_midscription(parallel, BALL, P)
    assert report.per_edge[0]["line_min"] == np.inf
    assert np.isnan(report.per_edge[0]["minimizer_distance"])
    _assert_tangency_matches_oracle(report, parallel, BALL, P)
    # F = z - 1 has a constant slope along every line: no bracket exists
    report = check_midscription(cfg, HalfSpace(), P)
    assert all(e["line_min"] == np.inf for e in report.per_edge)
    _assert_tangency_matches_oracle(report, cfg, HalfSpace(), P)


def test_verification_minimizes_each_line_once(monkeypatch):
    calls = []
    line_minima = verify._line_minima

    def counted(*args):
        calls.append(None)
        return line_minima(*args)
    monkeypatch.setattr(verify, "_line_minima", counted)
    P, _, _ = get_seed("cube")
    report = verify_configuration(ball_solution("cube"), BALL, P)
    assert report.passed and report.contact_graph_primal_ok
    assert len(calls) == 1
    extract_kdisk_packings(ball_solution("cube"), BALL, P)
    assert len(calls) == 2


def test_extracted_packings_on_ball_cube():
    P, _, frame = get_seed("cube")
    cfg = ball_solution("cube")
    face_packing, vertex_packing = extract_kdisk_packings(cfg, BALL, P)
    assert len(face_packing.disks) == P.n_faces
    assert len(vertex_packing.disks) == P.n_vertices
    for packing in (face_packing, vertex_packing):
        assert packing.contacts_ok
        assert packing.nondegenerate
        assert packing.max_adjacent_gap < CONTACT_TOL
        assert packing.max_foreign_margin < -CONTACT_TOL
    for disk in face_packing.disks + vertex_packing.disks:
        assert len(disk.boundary_samples) == N_BOUNDARY_SAMPLES
        worst = max(abs(BALL.value(x)) for x in disk.boundary_samples)
        assert worst < 1e-9
    for disk in face_packing.disks:
        n, d = disk.plane
        worst = max(abs(n @ x - d) for x in disk.boundary_samples)
        assert worst < 1e-9
    for disk in vertex_packing.disks:
        # on the unit ball the visibility horizon from apex p is <x, p> = 1
        assert not disk.at_infinity
        worst = max(abs(x @ disk.apex - 1) for x in disk.boundary_samples)
        assert worst < 1e-9


def test_extraction_requires_midscription():
    P, _, cfg = closed_form_config("tetrahedron", scale=2.0)
    with pytest.raises(NotMidscribed):
        extract_kdisk_packings(cfg, BALL, P)


def test_verify_configuration_full_pass():
    P, _, _ = get_seed("cube")
    cfg = ball_solution("cube")
    report = verify_configuration(cfg, BALL, P)
    assert report.passed
    assert report.convexity == "convex"
    assert report.contact_graph_primal_ok is True
    assert report.contact_graph_dual_ok is True
    assert report.tol == TANGENCY_TOL


def test_nonconvex_instance_skips_packings(nonconvex_instance):
    P, _, _, body, cfg, _ = nonconvex_instance
    report = verify_configuration(cfg, body, P)
    assert report.midscribed
    assert report.convexity == "nonconvex"
    assert report.contact_graph_primal_ok is None
    assert report.contact_graph_dual_ok is None
    assert report.passed  # a nonconvex realization is still a valid solve


def test_verify_imports_nothing_from_the_solver():
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported and not any("solver" in name.split(".")
                                for name in imported)


def test_rigidity_zero_perturbation_is_exact(monkeypatch):
    P, _, frame = get_seed("tetrahedron")
    marks = (0.2 + 0.1j, 1.4 + 0j, -0.4 + 1.0j)
    monkeypatch.setattr(solver, "RIGIDITY_PERTURBATION", 0.0)
    report = rigidity_probe(P, frame, marks, make_path(BALL), n_starts=3)
    assert report.n_converged == 3
    assert report.max_pairwise_distance == 0.0


def test_rigidity_ball_cube():
    P, _, frame = get_seed("cube")
    marks = (0.2 + 0.1j, 1.4 + 0j, -0.4 + 1.0j)
    assert solver.RIGIDITY_PERTURBATION == 1e-3
    report = rigidity_probe(P, frame, marks, make_path(BALL), n_starts=5)
    assert report.n_converged == 5
    assert report.max_pairwise_distance < 1e-6
    assert report.base_residual < 1e-11


def test_rigidity_symmetric_box_large_perturbation(monkeypatch,
                                                   p4_box_instance):
    inst = p4_box_instance
    monkeypatch.setattr(solver, "RIGIDITY_PERTURBATION", 1e-2)
    report = rigidity_probe(inst["P"], inst["frame"], inst["marks"],
                            inst["path"], n_starts=5, base=inst["cfg"])
    assert report.n_converged == 5
    assert report.max_pairwise_distance < 1e-6
    positions, finite = inst["cfg"].affine_vertices()
    assert finite.all()
    assert np.max(np.abs(positions - inst["target"])) < 1e-6
