"""Verification: line tangency, convexity classification, disk packings,
rigidity probing."""
import ast
import functools
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import check_oracle
import gauge_oracle
import kdisk_oracle
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
from midscribe.bodies import ConvexBody, make_body, make_path
from midscribe.errors import NotMidscribed
from midscribe.seeds import SEED_NAMES
from midscribe.verify import TANGENCY_TOL
from test_bodies import HalfSpace, assert_bitwise_equal
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
    u, v = P.edges[0]
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


LINE_BODIES = ("ball", "ellipsoid:a=1.2,b=1.0", "superellipsoid:p=4,a=1,b=1")


@functools.lru_cache(maxsize=None)
def _line_case(name, descriptor):
    """(body, cfg, P) whose edge lines are minimized: a seed continued to
    the body at LINE_MARKS, or a generated complex at its witness marks,
    in its ball configuration or continued to the body."""
    body = make_body(descriptor)
    if name in SEED_NAMES:
        P, _, frame = get_seed(name)
        return body, continue_to_body(P, frame, LINE_MARKS,
                                      make_path(body))[0], P
    P, frame = complex_and_frame(name)
    marks = witness_marks(P, frame, GENERATED[name](), BALL)
    if descriptor == "ball":
        planar = layout_circles(P, frame, solve_radii(P, frame))
        return body, koebe_config(lift_normalize(planar, marks)), P
    return body, continue_to_body(P, frame, marks, make_path(body))[0], P


def _line_args(cfg, P):
    f, g = np.array(P.edge_faces, dtype=int).reshape(-1, 2).T
    return (cfg.normals[f], cfg.offsets[f], cfg.normals[g], cfg.offsets[g],
            cfg.tangents)


def fail_certificates(m):
    """Make every row of verify._line_minima fail its certificate, so that
    every bracketed row goes through the bisection."""
    m.setattr(verify, "_certified",
              lambda body, Q, U, t: np.zeros(len(t), dtype=bool))


def lockstep_line_minima(body, args, monkeypatch, certify):
    """verify._line_minima with the lockstep bisection its verified one
    replaced, and with every certificate failed unless certify."""
    with monkeypatch.context() as m:
        if not certify:
            fail_certificates(m)
        m.setattr(verify, "_bisect_slopes", gauge_oracle.bisect_slopes)
        return verify._line_minima(body, *args)


def assert_line_minima_match_lockstep(body, cfg, P, monkeypatch,
                                      certify=False):
    args = _line_args(cfg, P)
    with monkeypatch.context() as m:
        if not certify:
            fail_certificates(m)
        got = verify._line_minima(body, *args)
    want = lockstep_line_minima(body, args, monkeypatch, certify)
    for g, w in zip(got, want):
        assert_bitwise_equal(g, w)


@pytest.mark.parametrize("descriptor", LINE_BODIES)
@pytest.mark.parametrize("name", SEED_NAMES)
def test_line_minima_match_lockstep_oracle(name, descriptor, monkeypatch):
    # every row bisected, with the certificates failed
    assert_line_minima_match_lockstep(*_line_case(name, descriptor),
                                      monkeypatch)


@pytest.mark.parametrize("descriptor", LINE_BODIES[:2])
@pytest.mark.parametrize("name", ["hull12", "prism8"])
def test_line_minima_match_lockstep_oracle_generated(name, descriptor,
                                                     monkeypatch):
    assert_line_minima_match_lockstep(*_line_case(name, descriptor),
                                      monkeypatch)


def test_line_minima_match_lockstep_oracle_on_flat_contacts(
        p4_box_instance, monkeypatch):
    # the quartic box's edge lines touch with fourth order, where Newton
    # converges only linearly: every row fails its own certificate
    box = p4_box_instance
    assert_line_minima_match_lockstep(box["body"], box["cfg"], box["P"],
                                      monkeypatch, certify=True)


def test_line_minima_failures_match_lockstep_oracle(monkeypatch):
    # a parallel-plane row among bisected ones, and no row bisected at all
    P, _, cfg = closed_form_config("cube")
    f, g = P.faces_of_edge(0)
    parallel = cfg.copy()
    parallel.normals[g] = cfg.normals[f]
    assert_line_minima_match_lockstep(BALL, parallel, P, monkeypatch)
    assert_line_minima_match_lockstep(HalfSpace(), cfg, P, monkeypatch)


# the largest difference allowed between a certified line minimum and the
# bisection's; measured at most 5.3e-15 on the seeds on LINE_BODIES and on
# the hull60 and hull120 ellipsoid witnesses
LINE_MIN_AGREEMENT = 1e-14


def assert_tangency_near_bisection(report, cfg, body, P):
    """The report's line minima against bisected_line_minimum's: the same
    inf and nan places, and within LINE_MIN_AGREEMENT elsewhere."""
    per_edge, _ = gauge_oracle.tangency(cfg, body, P,
                                        gauge_oracle.bisected_line_minimum)
    got = np.array([[e["line_min"], e["minimizer_distance"]]
                    for e in report.per_edge])
    want = np.array([[e["line_min"], e["minimizer_distance"]]
                     for e in per_edge])
    assert np.array_equal(np.isinf(got), np.isinf(want))
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = np.isfinite(want[:, 0])
    assert np.all(np.abs(got[finite, 0] - want[finite, 0])
                  <= LINE_MIN_AGREEMENT)


# hull12 reaches p=4 at its witness marks only since the continuation
# rejects steps with coinciding face planes; before, it stalled at s = 0.875
@pytest.mark.parametrize("descriptor", LINE_BODIES)
@pytest.mark.parametrize("name", SEED_NAMES + ("hull12", "prism8"))
def test_line_minima_match_bisection_oracle(name, descriptor):
    body, cfg, P = _line_case(name, descriptor)
    assert_tangency_near_bisection(check_midscription(cfg, body, P), cfg,
                                   body, P)


def _spy_fallback(monkeypatch):
    """Wrap verify._bisected_minimizers; returns the list its calls append
    their row counts to."""
    rows, bisected = [], verify._bisected_minimizers

    def spy(body, Q, U, t0):
        rows.append(len(t0))
        return bisected(body, Q, U, t0)
    monkeypatch.setattr(verify, "_bisected_minimizers", spy)
    return rows


@pytest.mark.parametrize("descriptor", LINE_BODIES[:2])
@pytest.mark.parametrize("name", SEED_NAMES)
def test_converged_lines_take_no_fallback(name, descriptor, monkeypatch):
    fallback = _spy_fallback(monkeypatch)
    body, cfg, P = _line_case(name, descriptor)
    assert check_midscription(cfg, body, P).midscribed
    assert fallback == []


def _moved_guesses(cfg, how):
    moved = cfg.copy()
    if how == "nan":
        moved.tangents[:] = np.nan
    else:
        step = np.random.default_rng(10).normal(size=cfg.tangents.shape)
        moved.tangents += 10.0 * step / np.linalg.norm(step, axis=1,
                                                        keepdims=True)
    return moved


@pytest.mark.parametrize("case", ["p4_box", "half_space", "parallel",
                                  "nan_guess", "far_guess"])
def test_fallback_rows_match_bisection_oracle(case, p4_box_instance,
                                              monkeypatch):
    """Rows the certificate does not close: their minima equal the scalar
    method bit for bit and the bisection within LINE_MIN_AGREEMENT."""
    P, _, cfg = closed_form_config("cube")
    body = BALL
    if case == "p4_box":
        P, cfg, body = (p4_box_instance[k] for k in ("P", "cfg", "body"))
    elif case == "half_space":
        body = HalfSpace()
    elif case == "parallel":
        f, g = P.faces_of_edge(0)
        cfg = cfg.copy()
        cfg.normals[g] = cfg.normals[f]
    else:
        body = make_body(LINE_BODIES[2])
        cfg = _moved_guesses(_line_case("cube", LINE_BODIES[2])[1],
                             case.split("_")[0])
    fallback = _spy_fallback(monkeypatch)
    report = check_midscription(cfg, body, P)
    if case in ("p4_box", "half_space"):
        assert fallback == [P.n_edges]
    elif case == "parallel":
        assert fallback == []
    else:
        assert sum(fallback) > 0
    _assert_tangency_matches_oracle(report, cfg, body, P)
    assert_tangency_near_bisection(report, cfg, body, P)


class CountingGauge(ConvexBody):
    """Delegates to a body and counts its batched gauge calls by kind."""

    def __init__(self, body):
        self.body = body
        self.calls = Counter()

    def values(self, X):
        self.calls["values"] += 1
        return self.body.values(X)

    def gradients(self, X):
        self.calls["gradients"] += 1
        return self.body.gradients(X)

    def hessians(self, X):
        self.calls["hessians"] += 1
        return self.body.hessians(X)

    @property
    def descriptor(self):
        return self.body.descriptor


def test_bisect_slopes_keeps_the_lockstep_budget():
    # a bracket 1e20 wide is still open after LINE_BISECTIONS halvings and
    # keeps its last bracket, as in the lockstep loop; the rows between
    # the wide ones close
    rng = np.random.default_rng(20261019)
    body = make_body("ellipsoid:a=1.2,b=1.0")
    U = rng.normal(size=(8, 3))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    Q = 0.5 * rng.normal(size=(8, 3))
    centre = rng.uniform(-0.5, 0.5, size=8)
    wide = np.arange(8) % 2 == 1
    lo, hi = centre - np.where(wide, 1e20, 1.0), centre + 1.0
    got = verify._bisect_slopes(body, Q, U, lo, hi)
    want = gauge_oracle.bisect_slopes(body, Q, U, lo, hi)
    for g, w in zip(got, want):
        assert_bitwise_equal(g, w)
    width = got[1] - got[0]
    open_ = ~(width < 1e-14 * (1.0 + np.abs(0.5 * (got[0] + got[1]))))
    assert np.array_equal(open_, wide)


def test_flat_contact_newton_leap_raises_no_warning():
    # The sweep cell of tetrahedron on the p=4 superellipsoid at marks 0, 1,
    # 2: the first Newton step on an edge line leaps so far from a flat
    # contact that the gauge's gradient overflows and the certificate
    # subtracts inf from inf. Such rows fail the certificate and are
    # bisected, so neither is worth a RuntimeWarning.
    P, _, frame = get_seed("tetrahedron")
    body = make_body("superellipsoid:p=4,a=1,b=1")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cfg, _ = continue_to_body(P, frame, (0j, 1 + 0j, 2 + 0j),
                                  make_path(body))
        report = verify_configuration(cfg, body, P)
    assert report.midscribed and report.convexity == "nonconvex"


def test_line_minima_gauge_call_budget(monkeypatch):
    # two Newton steps (4), the certificate (1) and the values (1), whatever
    # the number of edges, and no least-squares solve; the bisection made
    # 11 on cube/ball, and one gradients call per halving made 55
    def no_lstsq(*args, **kwargs):
        raise AssertionError("lstsq called")
    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    calls = []
    for name in ("cube", "hull60"):
        _, cfg, P = _line_case(name, "ball")
        body = CountingGauge(BALL)
        assert check_midscription(cfg, body, P).midscribed
        calls.append(sum(body.calls.values()))
    assert calls == [6, 6]


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
    for packing in extract_kdisk_packings(cfg, BALL, P):
        assert packing.contacts_ok
        assert packing.nondegenerate
        assert packing.worst_certificate < 0.0
    # the disks the certificates decide, traced on the boundary by the
    # tracer verify.py used before them
    face_packing, vertex_packing = kdisk_oracle.batched_kdisk_packings(
        cfg, BALL, P)
    assert len(face_packing.disks) == P.n_faces
    assert len(vertex_packing.disks) == P.n_vertices
    for packing in (face_packing, vertex_packing):
        assert packing.contacts_ok
        assert packing.nondegenerate
        assert packing.max_adjacent_gap < kdisk_oracle.CONTACT_TOL
        assert packing.max_foreign_margin < -kdisk_oracle.CONTACT_TOL
    for disk in face_packing.disks + vertex_packing.disks:
        assert len(disk.boundary_samples) == kdisk_oracle.N_BOUNDARY_SAMPLES
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
