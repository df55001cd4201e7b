"""Constraint system assembly, analytic Jacobian, Newton, and continuation."""
import functools
import itertools
import pickle

import numpy as np
import pytest
import scipy.sparse as sp

import solver_oracle
from conftest import (CANONICAL_MARKS, ball_solution, closed_form_config,
                      ellipsoid_closed_form, ellipsoid_witness, get_seed)
from midscribe import (
    continue_from_pattern,
    continue_to_body,
    koebe_config,
    layout_circles,
    lift_normalize,
    newton_refine,
    solve_radii,
    verify_configuration,
)
from midscribe import solver
from midscribe.bodies import BodyChart, make_body, make_path
from midscribe.errors import (
    DegenerateConfiguration,
    DegenerateMarks,
    NoDecrease,
    SolverError,
    StepUnderflow,
)
from midscribe.combinatorics import build_complex, select_frame
from midscribe.seeds import SEED_NAMES, faces_from_coordinates
from midscribe.solver import (ConstraintSystem, _degeneracy_guard,
                              _face_circle_sizes)
from test_packing import complex_and_frame, sphere_hull_points

BODY_CYCLE = (
    "ball",
    "ellipsoid:a=1.2,b=1.0",
    "superellipsoid:p=4,a=1,b=1",
    "ellipsoid:a=0.9,b=1.1",
)


def test_exact_cube_residual_vanishes():
    P, frame, cfg = closed_form_config("cube")
    r = solver_oracle.assemble_residual(cfg, make_body("ball"), P, frame,
                                        cfg.marked_points)
    assert np.max(np.abs(r)) < 1e-13


def test_exact_tetrahedron_residual_vanishes():
    P, frame, cfg = closed_form_config("tetrahedron")
    r = solver_oracle.assemble_residual(cfg, make_body("ball"), P, frame,
                                        cfg.marked_points)
    assert np.max(np.abs(r)) < 1e-13


def test_scaled_cube_residual_rows():
    # scaling a midscribed cube by 1.1 leaves every row at zero except the
    # free-edge gauge rows, which read off 1.1^2 - 1 = 0.21 exactly
    P, frame, cfg = closed_form_config("cube", scale=1.1)
    system = ConstraintSystem(P, frame, cfg.marked_points, make_body("ball"))
    r = system.residual(system.pack(cfg))
    for label, value in zip(solver_oracle.layout_row_labels(system), r):
        if label[0] == "edge_gauge":
            assert value == pytest.approx(0.21, abs=1e-12)
        else:
            assert abs(value) < 1e-12


def test_system_is_square_with_marks():
    for name in SEED_NAMES:
        P, _, frame = get_seed(name)
        cfg = ball_solution(name)
        system = ConstraintSystem(P, frame, cfg.marked_points, make_body("ball"))
        x = system.pack(cfg)
        assert len(system.residual(x)) == system.n_unknowns
        # without pinned marks the count comes out 6 short of the unknowns
        rows_free = P.n_faces + 2 * P.n_edges + 4 * P.n_edges + P.n_vertices
        unknowns_free = 4 * P.n_faces + 4 * P.n_vertices + 3 * P.n_edges
        assert rows_free - unknowns_free == -6


@pytest.mark.parametrize("name", SEED_NAMES)
def test_jacobian_matches_finite_differences(name):
    P, _, frame = get_seed(name)
    cfg = ball_solution(name)
    rng = np.random.default_rng(SEED_NAMES.index(name) + 1)
    h = 1e-6
    for trial in range(20):
        body = make_body(BODY_CYCLE[trial % len(BODY_CYCLE)])
        if trial % 5 == 4:
            body = make_path(body).eval(0.37)
        system = ConstraintSystem(P, frame, cfg.marked_points, body)
        x = system.pack(cfg) + rng.uniform(-0.05, 0.05, system.n_unknowns)
        J = system.jacobian(x).toarray()
        fd = np.empty_like(J)
        for j in range(system.n_unknowns):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd[:, j] = (system.residual(xp) - system.residual(xm)) / (2 * h)
        scale = max(1.0, np.max(np.abs(fd)))
        assert np.max(np.abs(J - fd)) / scale < 1e-5


ORACLE_BODIES = (
    "ball",
    "ellipsoid:a=1.2,b=1.0",
    "ellipsoid:a=0.9,b=1.1",
    "superellipsoid:p=4,a=1,b=1",
    "blend",
)


def assert_same_system(system, oracle, x):
    assert system.n_unknowns == oracle.n_unknowns
    assert np.array_equal(system.residual(x), oracle.residual(x))
    J, J_ref = system.jacobian(x).tocsr(), oracle.jacobian(x)
    assert np.array_equal(J.indptr, J_ref.indptr)
    assert np.array_equal(J.indices, J_ref.indices)
    assert np.array_equal(J.data, J_ref.data)
    assert solver_oracle.layout_row_labels(system) == oracle.row_labels()
    cfg, cfg_ref = system.unpack(x), oracle.unpack(x)
    for field in ("normals", "offsets", "vertices4", "tangents",
                  "marked_points"):
        assert np.array_equal(getattr(cfg, field), getattr(cfg_ref, field))
    assert cfg.marked_edges == cfg_ref.marked_edges
    assert np.array_equal(system.pack(cfg_ref), oracle.pack(cfg_ref))
    assert np.array_equal(system.pack(cfg), x)
    assert np.array_equal(system.renormalize(x), oracle.renormalize(x))


@pytest.mark.parametrize("name", SEED_NAMES + ("hull12", "prism8"))
def test_system_matches_per_entry_oracle(name):
    # the layout-based system must reproduce the per-entry assembly exactly,
    # also after a new body and new marks are swapped into a built system
    P, frame = complex_and_frame(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    swapped = ConstraintSystem(P, frame, rng.normal(size=(3, 3)),
                               make_body("ball"))
    for desc in ORACLE_BODIES:
        if desc == "blend":
            body = make_path(make_body("ellipsoid:a=1.2,b=1.0")).eval(0.37)
        else:
            body = make_body(desc)
        marks = rng.normal(size=(3, 3))
        oracle = solver_oracle.ConstraintSystem(P, frame, marks, body)
        swapped.body, swapped.marked_points = body, marks
        x = rng.uniform(-1.0, 1.0, oracle.n_unknowns)
        assert_same_system(ConstraintSystem(P, frame, marks, body), oracle, x)
        assert_same_system(swapped, oracle, x)


def test_newton_fixed_point_is_immediate():
    P, frame, cfg = closed_form_config("cube")
    out, report = newton_refine(cfg, make_body("ball"), P, frame,
                                cfg.marked_points)
    assert report.converged
    assert report.iterations <= 1
    assert report.final_residual < 1e-11
    assert report.rank_deficiency == 0
    assert np.max(np.abs(out.vertices4 - cfg.vertices4)) < 1e-9


def test_newton_reconverges_perturbed_cube():
    P, frame, cfg = closed_form_config("cube")
    bumped = cfg.copy()
    bumped.offsets[:] = cfg.offsets + 0.01
    out, report = newton_refine(bumped, make_body("ball"), P, frame,
                                cfg.marked_points)
    assert report.converged
    positions, finite = out.affine_vertices()
    assert finite.all()
    assert np.max(np.abs(np.abs(positions) - 1 / np.sqrt(2))) < 1e-9


def test_newton_rejects_garbage_start(monkeypatch):
    P, frame, cfg = closed_form_config("cube")
    rng = np.random.default_rng(0)
    junk = cfg.copy()
    junk.normals[:] = rng.normal(size=junk.normals.shape)
    junk.offsets[:] = rng.normal(size=junk.offsets.shape) * 5
    junk.vertices4[:] = rng.normal(size=junk.vertices4.shape)
    junk.tangents[:] = rng.normal(size=junk.tangents.shape) * 3
    monkeypatch.setattr(solver, "REFINE_MAX_ITERATIONS", 12)
    with pytest.raises(SolverError):
        newton_refine(junk, make_body("ball"), P, frame, cfg.marked_points)


def test_continuation_on_ball_is_noop():
    P, _, frame = get_seed("octahedron")
    marks = (0.2 + 0.1j, 1.5 + 0j, -0.3 + 1.2j)
    cfg, report = continue_to_body(P, frame, marks, make_path(make_body("ball")))
    assert report.converged
    assert report.final_residual < 1e-11
    # the packing start already solves every slice: no Newton work anywhere
    assert all(iters == 0 for _, _, iters in report.step_history)
    assert report.step_history[-1][0] == pytest.approx(1.0)


def test_continuation_reaches_target_and_pins_marks():
    P, _, frame = get_seed("cube")
    body = make_body("ellipsoid:a=1.2,b=1.0")
    marks = (0.4 + 0.3j, 1.6 + 0j, -0.5 + 1.1j)
    cfg, report = continue_to_body(P, frame, marks, make_path(body))
    assert report.converged
    assert report.final_residual < 1e-11
    assert report.rank_deficiency == 0
    assert np.isfinite(report.jacobian_condition_estimate)
    chart = BodyChart(body)
    for pt, q in zip(cfg.marked_points, chart.inverse(marks)):
        assert np.linalg.norm(pt - q) < 1e-8
    # steps walked s from 0 to 1
    s_values = [s for s, _, _ in report.step_history]
    assert s_values and s_values[-1] == pytest.approx(1.0)
    assert all(b > a for a, b in zip(s_values, s_values[1:]))


def test_continuation_rejects_coincident_marks():
    P, _, frame = get_seed("cube")
    with pytest.raises(DegenerateMarks):
        continue_to_body(P, frame, (0j, 0j, 1j),
                         make_path(make_body("ellipsoid:a=1.2,b=1.0")))


def test_continuation_step_underflow_diagnostics(monkeypatch):
    P, _, frame = get_seed("cube")
    monkeypatch.setattr(solver, "NEWTON_MAX_ITERATIONS", 1)
    monkeypatch.setattr(solver, "DS_INIT", 0.25)
    monkeypatch.setattr(solver, "DS_MIN", 0.2)
    with pytest.raises(StepUnderflow) as exc:
        continue_to_body(P, frame, (0.2 + 0.1j, 1.5 + 0j, -0.3 + 1.2j),
                         make_path(make_body("ellipsoid:a=1.2,b=1.0")))
    assert exc.value.last_good_s == pytest.approx(0.0)
    assert exc.value.report is not None


@pytest.mark.parametrize("constant, message", [
    ("MIN_FACE_CIRCLE_SIZE", r"face \d+ circle"),
    ("MIN_TANGENT_SEPARATION", "tangent points"),
    ("MIN_EDGE_SINE", r"edge \d+ between faces \d+ and \d+"),
], ids=["face_circle", "tangent_points", "edge_sine"])
def test_continuation_degeneracy_guard(monkeypatch, constant, message):
    P, _, frame = get_seed("cube")
    monkeypatch.setattr(solver, constant, 10.0)
    with pytest.raises(DegenerateConfiguration, match=message):
        continue_to_body(P, frame, (0.2 + 0.1j, 1.5 + 0j, -0.3 + 1.2j),
                         make_path(make_body("ellipsoid:a=1.2,b=1.0")))


@pytest.mark.parametrize("name, desc, marks", [
    ("cube", "ellipsoid:a=1.2,b=1.0", CANONICAL_MARKS),
    ("dodecahedron", "superellipsoid:p=4,a=1,b=1", CANONICAL_MARKS),
    ("octahedron", "superellipsoid:p=4,a=1,b=1",
     (0.3 + 0j, complex("inf"), -1 + 1j)),
], ids=["cube-ellipsoid", "dodecahedron-p4", "mark_at_infinity"])
def test_s_derivative_matches_central_difference(name, desc, marks):
    """dr/ds in closed form agrees with a central difference in s at
    s = 0.37, x held fixed and the body and the marks of s +- h swapped
    in."""
    P, _, frame = get_seed(name)
    path = make_path(make_body(desc))

    def system_at(s):
        body = path.eval(s)
        return ConstraintSystem(P, frame, BodyChart(body).inverse(marks), body)

    s, h = 0.37, 1e-6
    system = system_at(s)
    x = system.pack(ball_solution(name))
    want = (system_at(s + h).residual(x)
            - system_at(s - h).residual(x)) / (2.0 * h)
    got = system.s_derivative(x, system.terms(x), path.start, path.end)
    assert np.max(np.abs(got - want)) < 1e-8
    marked_rows = system.layout.edge_rows[system.layout.marked][:, [0, 1, 3]]
    assert np.any(got[marked_rows] != 0.0)


def test_singular_tangent_is_zero():
    """Where the Jacobian is exactly singular (here every unknown 0), the
    predictor falls back to the last accepted point."""
    P, _, frame = get_seed("cube")
    path = _ellipsoid_path()
    body = path.eval(0.5)
    system = ConstraintSystem(P, frame, BodyChart(body).inverse(CANONICAL_MARKS),
                              body)
    x = np.zeros(system.n_unknowns)
    tangent = solver._tangent(system, x, system.terms(x), path)
    assert np.array_equal(tangent, np.zeros_like(x))


def test_branch_change_rejects_the_step(monkeypatch):
    """A step whose solution leaves the sign pattern recorded at s = 0 is
    rejected and halved like a corrector failure; the run then converges
    to the same configuration. The signs are flipped on the first try,
    straight to s = 1, and on the loop's first step."""
    P, _, frame = get_seed("cube")
    path = _ellipsoid_path()
    want_cfg, want = continue_to_body(P, frame, CANONICAL_MARKS, path)
    pattern = solver._sign_pattern
    calls = []

    def flipped_twice(system, x):
        calls.append(x)
        signs = pattern(system, x)
        return -signs if len(calls) in (2, 3) else signs

    monkeypatch.setattr(solver, "_sign_pattern", flipped_twice)
    cfg, report = continue_to_body(P, frame, CANONICAL_MARKS, path)
    assert report.converged
    assert report.steps_rejected == {"corrector": 0, "branch": 2,
                                     "degeneracy": 0}
    assert want.steps_rejected == {"corrector": 0, "branch": 0,
                                   "degeneracy": 0}
    assert report.step_history[1][1] == solver.DS_INIT / 2
    positions, _ = cfg.affine_vertices()
    assert np.max(np.abs(positions - want_cfg.affine_vertices()[0])) < 1e-9


def test_degenerate_step_is_rejected(monkeypatch):
    """The dodecahedron on p=4 at the canonical marks meets two tangent
    points at s = 1 from s = 0.625; that step is rejected and the shorter
    ones converge. The first try stops contracting before it gets there.
    With DS_MIN above the halved step the collapse keeps its error type."""
    P, _, frame = get_seed("dodecahedron")
    path = make_path(make_body("superellipsoid:p=4,a=1,b=1"))
    _, report = continue_to_body(P, frame, CANONICAL_MARKS, path)
    assert report.converged
    assert report.steps_rejected == {"corrector": 1, "branch": 0,
                                     "degeneracy": 1}
    monkeypatch.setattr(solver, "DS_MIN", 0.2)
    with pytest.raises(DegenerateConfiguration, match="at s=1.000000"):
        continue_to_body(P, frame, CANONICAL_MARKS, path)


def _vertex_error(cfg, want_cfg):
    """max |dx| / (1 + |x|) over the affine vertices of cfg and want_cfg."""
    positions, want = cfg.affine_vertices()[0], want_cfg.affine_vertices()[0]
    return float(np.max(np.linalg.norm(positions - want, axis=1)
                        / (1.0 + np.linalg.norm(want, axis=1))))


def test_contracting_first_try_is_the_whole_run(monkeypatch):
    """The cube on the ellipsoid at the canonical marks goes from s = 0 to
    s = 1 in one Newton solve, and ends where the stepped loop ends: with
    THETA_MAX = 0 no second LU direction contracts enough, so the first try
    is rejected and the loop runs."""
    P, _, frame = get_seed("cube")
    path = _ellipsoid_path()
    cfg, report = continue_to_body(P, frame, CANONICAL_MARKS, path)
    assert report.converged
    (s0, ds0, _), (s1, ds1, iters) = report.step_history
    assert (s0, ds0, s1, ds1) == (0.0, 0.0, 1.0, 1.0) and iters > 1
    assert report.steps_rejected == {"corrector": 0, "branch": 0,
                                     "degeneracy": 0}
    monkeypatch.setattr(solver, "THETA_MAX", 0.0)
    stepped_cfg, stepped = continue_to_body(P, frame, CANONICAL_MARKS, path)
    assert stepped.converged and len(stepped.step_history) > 2
    assert stepped.steps_rejected == {"corrector": 1, "branch": 0,
                                      "degeneracy": 0}
    assert _vertex_error(cfg, stepped_cfg) < 1e-9


def _p4_cube_case(p4_box_instance, case):
    """(P, frame, marks, path) of the cube on p=4 at the quartic box's
    marks or at the canonical ones."""
    inst = p4_box_instance
    marks = inst["marks"] if case == "box" else CANONICAL_MARKS
    return inst["P"], inst["frame"], marks, inst["path"]


P4_CASES = ("box", "canonical")


@pytest.mark.parametrize("case", P4_CASES)
def test_rejected_first_try_is_cheap(monkeypatch, p4_box_instance, case):
    """On the cube on p=4 the first try is rejected after at most two LUs
    and without a lstsq direction, and counts as one corrector failure."""
    P, frame, marks, path = _p4_cube_case(p4_box_instance, case)
    core, splu = solver._newton_core, solver.spla.splu
    lstsq = solver.np.linalg.lstsq
    trying, calls = [False], {"splu": 0, "lstsq": 0}

    def tracked_core(system, x, tol, max_iter, theta_max=None):
        trying[0] = theta_max is not None
        try:
            return core(system, x, tol, max_iter, theta_max)
        finally:
            trying[0] = False

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += trying[0]
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(solver, "_newton_core", tracked_core)
    monkeypatch.setattr(solver.spla, "splu", counted("splu", splu))
    monkeypatch.setattr(solver.np.linalg, "lstsq", counted("lstsq", lstsq))
    _, report = continue_to_body(P, frame, marks, path)
    assert report.converged and len(report.step_history) > 2
    assert report.steps_rejected == {"corrector": 1, "branch": 0,
                                     "degeneracy": 0}
    assert 1 <= calls["splu"] <= 2 and calls["lstsq"] == 0


@pytest.mark.parametrize("case", P4_CASES)
def test_rejected_first_try_leaves_no_trace(monkeypatch, p4_box_instance,
                                            case):
    """A run whose first try stops contracting ends bit for bit as a run
    whose first try fails at once: same configuration, same report."""
    P, frame, marks, path = _p4_cube_case(p4_box_instance, case)
    cfg, report = continue_to_body(P, frame, marks, path)
    core = solver._newton_core

    def refused_try(system, x, tol, max_iter, theta_max=None):
        if theta_max is not None:
            raise NoDecrease("first try refused")
        return core(system, x, tol, max_iter)

    monkeypatch.setattr(solver, "_newton_core", refused_try)
    want_cfg, want = continue_to_body(P, frame, marks, path)
    for part in ("normals", "offsets", "vertices4", "tangents",
                 "marked_points"):
        assert np.array_equal(getattr(cfg, part), getattr(want_cfg, part))
    assert repr(report) == repr(want)


def _newton_outcome(newton, *args):
    """newton(*args), or the type and text of the SolverError it raises."""
    try:
        return newton(*args)
    except SolverError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("case", P4_CASES)
def test_newton_without_contraction_test_is_unchanged(monkeypatch,
                                                      p4_box_instance, case):
    """Every Newton solve without the contraction test, lstsq directions
    included (the quartic box's last step), returns bit for bit what
    solver_oracle.newton_core, the solve before that test, returns from the
    same start, or raises the same error."""
    P, frame, marks, path = _p4_cube_case(p4_box_instance, case)
    core, lstsq = solver._newton_core, solver.np.linalg.lstsq
    compared, lstsq_calls = [], []

    def checked_core(system, x, tol, max_iter, theta_max=None):
        got = _newton_outcome(core, system, x, tol, max_iter, theta_max)
        if theta_max is None:
            want = _newton_outcome(solver_oracle.newton_core, system, x, tol,
                                   max_iter)
            assert len(got) == len(want)
            if len(got) == 2:
                assert got == want
            else:
                assert got[1:3] == want[1:3]
                for a, b in zip((got[0],) + got[3], (want[0],) + want[3]):
                    assert np.array_equal(a, b)
            compared.append(x)
        if len(got) == 2:
            raise got[0](got[1])
        return got

    def counted_lstsq(*args, **kwargs):
        lstsq_calls.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(solver, "_newton_core", checked_core)
    monkeypatch.setattr(solver.np.linalg, "lstsq", counted_lstsq)
    continue_to_body(P, frame, marks, path)
    assert len(compared) >= 4
    assert bool(lstsq_calls) == (case == "box")


def _hull(n, seed):
    points = sphere_hull_points(n, seed)
    P = build_complex(faces_from_coordinates(points), n_vertices=n)
    return P, select_frame(P)


@pytest.mark.parametrize("n, seed", [(60, 20260060), (120, 20261120),
                                     (240, 20261240)],
                         ids=["hull60", "hull120", "hull240"])
def test_continuation_finds_the_ellipsoid_witness(n, seed):
    """On ellipsoid:a=1.2,b=1.0 the continuation ends at L.C, the exact
    answer of conftest.ellipsoid_witness, within 1e-9 relative."""
    P, frame = _hull(n, seed)
    marks, want = ellipsoid_witness(P, frame, 1.2, 1.0)
    cfg, report = continue_to_body(P, frame, marks, _ellipsoid_path())
    positions, finite = cfg.affine_vertices()
    assert report.converged and finite.all()
    error = (np.linalg.norm(positions - want, axis=1)
             / (1.0 + np.linalg.norm(want, axis=1)))
    assert error.max() < 1e-9


# Two random ellipsoid instances whose continuation, without a guard on
# coinciding face planes, ended on a collapsed edge: A "converged" there,
# 0.065 from the exact answer, and B stalled at s = 0.25 in StepUnderflow.
COLLAPSE_CASES = {
    "A": (18, 954873466, 1.6188595734734927, 1.914183346418779,
          (1.2861681051903675 + 1.6698720583364408j,
           -1.4878083488573197 - 1.9371418570989798j,
           -1.2056510821226958 - 0.35149962283363134j)),
    "B": (40, 982909646, 1.1720374775296507, 0.67607719885874118,
          (1.6099660556896294 + 1.4814796812284756j,
           1.8704408721052768 + 0.3759153972110525j,
           0.6936142165604346 - 0.506882088208874j)),
}


@pytest.mark.parametrize("case", sorted(COLLAPSE_CASES))
def test_continuation_rejects_collapsed_edges(case):
    """Each run rejects the collapsed step and ends at the exact answer."""
    n, seed, a, b, marks = COLLAPSE_CASES[case]
    P, frame = _hull(n, seed)
    cfg, report = continue_to_body(
        P, frame, marks, make_path(make_body("ellipsoid:a=%r,b=%r" % (a, b))))
    positions, finite = cfg.affine_vertices()
    assert report.converged and finite.all()
    assert report.steps_rejected["degeneracy"] >= 1
    want = ellipsoid_closed_form(P, frame, marks, a, b)
    assert np.max(np.abs(positions - want)) < 1e-9


def test_p4_continuation_avoids_the_collapsed_edge():
    # without the edge guard this run ended "converged" and nonconvex, with
    # faces 59 and 60 of edge 64 coinciding and tangency inf
    P, frame = _hull(60, 20260060)
    body = make_body("superellipsoid:p=4,a=1.352,b=0.728")
    marks = (-0.07693771878967226 - 1.6268315649943448j,
             0.18698963178285855 + 1.6857098481351267j,
             0.2516882595189469 + 0.9756408294021885j)
    cfg, report = continue_to_body(P, frame, marks, make_path(body))
    assert report.converged
    result = verify_configuration(cfg, body, P)
    assert result.convexity == "convex" and result.passed
    assert result.contact_graph_primal_ok and result.contact_graph_dual_ok


def _random_ellipsoid_instances(count, v_max, seed):
    """count instances (n, hull seed, a, b, marks): hulls of n random
    points on the sphere, n from 12 to v_max, on ellipsoid:a,b with a and
    b in [0.5, 2], at marks in [-2, 2]^2, all drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(12, v_max + 1))
        hull_seed = int(rng.integers(2 ** 31))
        a, b = (float(v) for v in rng.uniform(0.5, 2.0, size=2))
        marks = tuple(complex(x, y)
                      for x, y in rng.uniform(-2.0, 2.0, size=(3, 2)))
        yield n, hull_seed, a, b, marks


ELLIPSOID_SET = tuple(_random_ellipsoid_instances(32, 40, 1010))


def _relative_error(positions, want):
    return float(np.max(np.linalg.norm(positions - want, axis=1)
                        / (1.0 + np.linalg.norm(want, axis=1))))


def test_random_ellipsoid_instances_end_at_the_closed_form():
    """Each run of the seeded set ends within 1e-9 of the exact answer, or
    fails with a typed SolverError that names where it stopped."""
    for n, hull_seed, a, b, marks in ELLIPSOID_SET:
        P, frame = _hull(n, hull_seed)
        path = make_path(make_body("ellipsoid:a=%r,b=%r" % (a, b)))
        try:
            cfg, report = continue_to_body(P, frame, marks, path)
        except SolverError as exc:
            assert "s=" in str(exc), (n, hull_seed, str(exc))
            continue
        positions, finite = cfg.affine_vertices()
        assert report.converged and finite.all()
        want = ellipsoid_closed_form(P, frame, marks, a, b)
        assert _relative_error(positions, want) < 1e-9, (n, hull_seed)


@pytest.mark.parametrize("k", range(3))
def test_every_accepted_step_lies_on_the_exact_branch(monkeypatch, k):
    """The blend at s of the ball and ellipsoid:a,b is the ellipsoid with
    semi-axes (1 - s + s/a^2)^(-1/2) and (1 - s + s/b^2)^(-1/2), so each
    accepted step's answer is known in closed form; each lies within 1e-9
    of it. The steps are read where the deferred audit gets them."""
    n, hull_seed, a, b, marks = ELLIPSOID_SET[k]
    P, frame = _hull(n, hull_seed)
    audited = []
    monkeypatch.setattr(solver, "_worst_condition",
                        lambda system, steps: audited.append(steps)
                        or (float("nan"), 0))
    _, report = continue_to_body(
        P, frame, marks, make_path(make_body("ellipsoid:a=%r,b=%r" % (a, b))))
    report.rank_deficiency
    steps, = audited
    assert len(steps) == len(report.step_history) > 2
    for (s, _, _), (body, marked_points, x) in zip(report.step_history, steps):
        system = ConstraintSystem(P, frame, marked_points, body)
        positions, finite = system.unpack(x).affine_vertices()
        assert finite.all()
        want = ellipsoid_closed_form(P, frame, marks,
                                     (1.0 - s + s / a ** 2) ** -0.5,
                                     (1.0 - s + s / b ** 2) ** -0.5)
        assert _relative_error(positions, want) < 1e-9, s


REUSE_CASES = SEED_NAMES + ("hull12", "prism8")


@functools.lru_cache(maxsize=None)
def _ellipsoid_path():
    return make_path(make_body("ellipsoid:a=1.2,b=1.0"))


@functools.lru_cache(maxsize=None)
def _ellipsoid_solution(name):
    P, frame = complex_and_frame(name)
    cfg, _report = continue_to_body(P, frame, CANONICAL_MARKS,
                                    _ellipsoid_path())
    return P, frame, cfg


def count_layout_builds(monkeypatch):
    """Wrap SystemLayout.__init__; returns the list of the complexes it
    builds layouts of, in order."""
    built = []
    layout_init = solver.SystemLayout.__init__

    def counted(self, P, frame):
        built.append(P)
        layout_init(self, P, frame)

    monkeypatch.setattr(solver.SystemLayout, "__init__", counted)
    return built


def equal_complex(P):
    """A new complex with the faces of P, owning nothing P has derived."""
    return build_complex(P.faces, n_vertices=P.n_vertices)


@pytest.mark.parametrize("name", REUSE_CASES)
def test_continue_from_pattern_matches_continue_to_body(monkeypatch, name):
    """One planar packing serves every choice of marks: continuing from a
    shared packing, on the system layout its complex built for earlier
    solves, after both have served other marks, gives the same bits and
    steps as solving afresh on an equal complex, which builds its own."""
    P, frame, _ = _ellipsoid_solution(name)
    built = count_layout_builds(monkeypatch)
    fresh = equal_complex(P)
    cfg_a, report_a = continue_to_body(fresh, frame, CANONICAL_MARKS,
                                       _ellipsoid_path())
    assert len(built) == 1 and built[0] is fresh
    planar = layout_circles(P, frame, solve_radii(P, frame))
    try:
        continue_from_pattern(planar, (0.4 + 0.3j, 1.6 + 0j, -0.5 + 1.1j),
                              _ellipsoid_path())
    except SolverError:
        pass
    cfg_b, report_b = continue_from_pattern(planar, CANONICAL_MARKS,
                                            _ellipsoid_path())
    assert len(built) == 1
    for part in ("normals", "offsets", "vertices4", "tangents",
                 "marked_points"):
        assert np.array_equal(getattr(cfg_a, part).view(np.int64),
                              getattr(cfg_b, part).view(np.int64))
    assert cfg_a.marked_edges == cfg_b.marked_edges
    assert report_a.step_history == report_b.step_history
    assert repr(report_a) == repr(report_b)


def test_systems_on_one_layout_keep_their_own_jacobian():
    """Two systems of one complex share its layout but not their
    Jacobian's data; each still gives what a system on an equal complex,
    with a layout of its own, gives."""
    P, frame = complex_and_frame("hull12")
    rng = np.random.default_rng(3)
    systems = [ConstraintSystem(P, frame, rng.normal(size=(3, 3)),
                                make_body(desc))
               for desc in ("ball", "ellipsoid:a=1.2,b=1.0")]
    layout = systems[0].layout
    x = rng.normal(size=layout.n_unknowns)
    J0 = systems[0].jacobian(x)
    before = J0.data.copy()
    J1 = systems[1].jacobian(x)
    assert J1 is not J0 and not np.array_equal(J1.data, before)
    assert np.array_equal(J0.data, before)
    for system in systems:
        alone = ConstraintSystem(equal_complex(P), frame,
                                 system.marked_points, system.body)
        assert system.layout is layout and alone.layout is not layout
        assert np.array_equal(system.residual(x), alone.residual(x))
        got, want = system.jacobian(x), alone.jacobian(x)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part))


def _guard_outcomes(system, x):
    """The messages of the solver's and the oracle's degeneracy guards at
    x, None where a guard passes."""
    outcomes = []
    for guard in (_degeneracy_guard, solver_oracle.degeneracy_guard):
        try:
            guard(system, x, 0.5)
            outcomes.append(None)
        except DegenerateConfiguration as exc:
            outcomes.append(str(exc))
    return outcomes


@pytest.mark.parametrize("name", REUSE_CASES)
def test_degeneracy_guard_matches_face_loop(monkeypatch, name):
    """The face pair list gives the loop's face sizes bit for bit, and
    the same first failing face and message at every threshold."""
    P, frame, cfg = _ellipsoid_solution(name)
    system = ConstraintSystem(P, frame, cfg.marked_points,
                              _ellipsoid_path().end)
    x = system.pack(cfg)
    T = system.tangents(x)
    sizes = solver_oracle.face_circle_sizes(P, T)
    assert np.array_equal(_face_circle_sizes(T, system.layout), sizes)
    for limit in [0.0] + sorted(set(sizes.tolist())):
        monkeypatch.setattr(solver, "MIN_FACE_CIRCLE_SIZE", limit)
        outcomes = _guard_outcomes(system, x)
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] is None) == (limit < sizes.min())


@pytest.mark.parametrize("name", SEED_NAMES + (
    "hull12", "hull20", "prism8", "antiprism15", "hull60", "hull120",
    "hull240"))
def test_face_pair_sizes_match_the_padded_table(name):
    """Over each face's pairs i < j the face sizes equal, bit for bit, the
    maxima over the padded (F, k, k) table of differences they replaced,
    at the ball's tangent points and at random ones."""
    if name == "hull240":
        P, frame = _hull(240, 20261240)
    else:
        P, frame = complex_and_frame(name)
    layout = solver.SystemLayout(P, frame)
    planar = layout_circles(P, frame, solve_radii(P, frame))
    ball = koebe_config(lift_normalize(planar, CANONICAL_MARKS)).tangents
    noise = np.random.default_rng(7).normal(size=ball.shape)
    for T in (ball, noise):
        assert np.array_equal(
            _face_circle_sizes(T, layout).view(np.int64),
            solver_oracle.padded_face_circle_sizes(P, T).view(np.int64))


@pytest.mark.parametrize("name", REUSE_CASES)
def test_edge_sine_guard_matches_edge_loop(monkeypatch, name):
    """The edge test names the loop's first edge at or below MIN_EDGE_SINE,
    with the same message, at every threshold."""
    P, frame, cfg = _ellipsoid_solution(name)
    system = ConstraintSystem(P, frame, cfg.marked_points,
                              _ellipsoid_path().end)
    x = system.pack(cfg)
    sines = [np.linalg.norm(np.cross(*cfg.normals[list(P.faces_of_edge(e))]))
             for e in range(P.n_edges)]
    for limit in [0.0] + sorted(set(sines)):
        monkeypatch.setattr(solver, "MIN_EDGE_SINE", limit)
        outcomes = _guard_outcomes(system, x)
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] is None) == (limit < min(sines))


def _count_dense_audits(monkeypatch):
    """Wrap ConstraintSystem.singular_values; returns the list its calls
    append their system sizes to."""
    calls = []
    dense = ConstraintSystem.singular_values

    def counted(self, x):
        calls.append(self.n_unknowns)
        return dense(self, x)

    monkeypatch.setattr(ConstraintSystem, "singular_values", counted)
    return calls


def _dense_condition(system, x):
    sv = system.singular_values(x)
    return float(sv[0] / sv[-1]), int(np.sum(sv < 1e-12 * sv[0]))


def _ellipsoid_end_system(name):
    P, frame, cfg = _ellipsoid_solution(name)
    system = ConstraintSystem(P, frame, cfg.marked_points,
                              _ellipsoid_path().end)
    return system, system.pack(cfg)


@pytest.mark.parametrize("name", ["hull20", "antiprism15", "hull60"])
def test_lanczos_audit_matches_dense_svd(monkeypatch, name):
    """The Lanczos estimate through sparse LUs gives the dense SVD's
    condition number and rank deficiency without calling it."""
    system, x = _ellipsoid_end_system(name)
    want = _dense_condition(system, x)
    monkeypatch.setattr(solver, "DENSE_AUDIT_MAX_N", 0)
    calls = _count_dense_audits(monkeypatch)
    cond, rank_def = system.condition(x)
    assert calls == []
    assert cond == pytest.approx(want[0], rel=1e-9, abs=0.0)
    assert rank_def == want[1] == 0


def test_dense_audit_up_to_threshold(monkeypatch):
    """At DENSE_AUDIT_MAX_N unknowns the audit is the dense SVD, bit for
    bit; one unknown fewer allowed, it is not."""
    system, x = _ellipsoid_end_system("prism8")
    want = _dense_condition(system, x)
    calls = _count_dense_audits(monkeypatch)
    monkeypatch.setattr(solver, "DENSE_AUDIT_MAX_N", system.n_unknowns)
    assert system.condition(x) == want
    assert calls == [system.n_unknowns]
    monkeypatch.setattr(solver, "DENSE_AUDIT_MAX_N", system.n_unknowns - 1)
    assert system.condition(x)[0] == pytest.approx(want[0], rel=1e-9, abs=0.0)
    assert calls == [system.n_unknowns]


def test_rank_deficient_audit_falls_back_to_dense(monkeypatch,
                                                  p4_box_instance):
    """With every system on the Lanczos path, the rank-deficient quartic box
    still reaches the dense SVD, and the report is the dense audit's."""
    inst = p4_box_instance
    want = inst["report"]
    assert want.rank_deficiency > 0
    monkeypatch.setattr(solver, "DENSE_AUDIT_MAX_N", 0)
    calls = _count_dense_audits(monkeypatch)
    _, report = continue_to_body(inst["P"], inst["frame"], inst["marks"],
                                 inst["path"])
    assert report.rank_deficiency == want.rank_deficiency
    assert calls
    # the rank-deficient end point also holds the worst condition number
    assert repr(report) == repr(want)


def _raise_singular(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


def _raise_no_convergence(*args, **kwargs):
    raise solver.spla.ArpackNoConvergence("ARPACK error -1: No convergence",
                                          np.empty(0), np.empty((0, 0)))


@pytest.mark.parametrize("attribute, failure", [
    ("splu", _raise_singular),
    ("eigsh", _raise_no_convergence),
], ids=["splu", "eigsh"])
def test_failed_lanczos_audit_falls_back_to_dense(monkeypatch, attribute,
                                                  failure):
    system, x = _ellipsoid_end_system("hull20")
    want = _dense_condition(system, x)
    monkeypatch.setattr(solver, "DENSE_AUDIT_MAX_N", 0)
    monkeypatch.setattr(solver.spla, attribute, failure)
    calls = _count_dense_audits(monkeypatch)
    assert system.condition(x) == want
    assert calls == [system.n_unknowns]


def test_large_continuation_audits_without_dense_svd(monkeypatch):
    """hull60 (1217 unknowns) continues to the ellipsoid on the Lanczos
    audit alone."""
    P, frame = complex_and_frame("hull60")
    calls = _count_dense_audits(monkeypatch)
    _, report = continue_to_body(P, frame, CANONICAL_MARKS, _ellipsoid_path())
    assert report.converged
    assert report.step_history[-1][0] == 1.0
    assert report.rank_deficiency == 0
    assert np.isfinite(report.jacobian_condition_estimate)
    assert calls == []


# ---------------------------------------------------------------------------
# Jacobian assembly in the layouts the solver consumes

SPECIAL_VALUES = (0.0, -0.0, 1.0, -2.5, np.inf, -np.inf, np.nan, -np.nan)


def test_cross_is_bitwise_numpy_cross():
    """_cross gives np.cross's bits on every row of SPECIAL_VALUES entries
    (signed zeros, infinities, both signs of nan) and on random rows of
    mixed magnitudes, from contiguous arrays and from column slices."""
    grid = np.array(list(itertools.product(SPECIAL_VALUES, repeat=6)))
    rng = np.random.default_rng(11)
    scales = 10.0 ** rng.integers(-8, 9, size=(20000, 6))
    rows = np.vstack([grid, rng.normal(size=(20000, 6)) * scales])
    with np.errstate(all="ignore"):
        for a, b in [(rows[:, :3], rows[:, 3:]),
                     (rows[:, :3].copy(), rows[:, 3:].copy())]:
            got, want = solver._cross(a, b), np.cross(a, b)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


HALFWAY_BODIES = ("ellipsoid:a=1.2,b=1.0", "superellipsoid:p=4,a=1,b=1")


@pytest.mark.parametrize("desc", HALFWAY_BODIES, ids=["ellipsoid", "p4"])
@pytest.mark.parametrize("name", SEED_NAMES + ("hull20",))
def test_newton_factors_the_jacobian_as_csc(monkeypatch, name, desc):
    """Every matrix Newton hands splu carries the arrays of the canonical
    CSC form of a fresh assembly of the Jacobian at its iterate, with int32
    indices, here solving from the ball packing on the s=0.5 blend towards
    desc. The system refills one matrix, so the spy copies its arrays."""
    P, frame = complex_and_frame(name)
    body = make_path(make_body(desc)).eval(0.5)
    planar = layout_circles(P, frame, solve_radii(P, frame))
    cfg = koebe_config(lift_normalize(planar, CANONICAL_MARKS))
    system = ConstraintSystem(P, frame,
                              BodyChart(body).inverse(CANONICAL_MARKS), body)
    points, factored = [], []
    jacobian, splu = ConstraintSystem.jacobian, solver.spla.splu

    def recorded_jacobian(self, x, terms=None):
        points.append(x)
        return jacobian(self, x, terms)

    def recorded_splu(J):
        factored.append((J.format, J.shape,
                         [getattr(J, part).copy()
                          for part in ("data", "indices", "indptr")]))
        return splu(J)

    monkeypatch.setattr(ConstraintSystem, "jacobian", recorded_jacobian)
    monkeypatch.setattr(solver.spla, "splu", recorded_splu)
    try:
        solver._newton_core(system, system.pack(cfg), 1e-11,
                            solver.NEWTON_MAX_ITERATIONS)
    except SolverError:
        pass
    assert factored and len(factored) == len(points)
    fresh = ConstraintSystem(P, frame, system.marked_points, body)
    for x, (fmt, shape, parts) in zip(points, factored):
        want = jacobian(fresh, x).tocsr().tocsc()
        assert fmt == "csc" and shape == want.shape
        assert parts[1].dtype == parts[2].dtype == np.int32
        for got, part in zip(parts, ("data", "indices", "indptr")):
            assert got.dtype == getattr(want, part).dtype
            assert np.array_equal(got, getattr(want, part))


@pytest.mark.parametrize("name", SEED_NAMES + ("hull20",))
def test_jacobian_pattern_is_canonical(name):
    """The prebuilt pattern has sorted indices and no duplicates by scipy's
    own check, made afresh on a matrix over the same arrays, so splu's
    sum_duplicates leaves the shared matrix alone; jacobian refills and
    returns that one matrix."""
    P, frame = complex_and_frame(name)
    system = ConstraintSystem(P, frame, np.eye(3), make_body("ball"))
    J = system.jacobian(np.ones(system.n_unknowns))
    assert J.indices.dtype == J.indptr.dtype == np.intc
    assert sp.csc_matrix((J.data, J.indices, J.indptr),
                         shape=J.shape).has_canonical_format
    assert system.jacobian(np.zeros(system.n_unknowns)) is J


@pytest.mark.parametrize("desc", HALFWAY_BODIES, ids=["ellipsoid", "p4"])
@pytest.mark.parametrize("name", SEED_NAMES + ("hull12", "prism8"))
def test_jacobian_matches_blockwise_oracle(monkeypatch, name, desc):
    """At every Newton iterate of a continuation towards desc, the Jacobian with
    its linear entries gathered in one step equals the block-by-block
    assembly it replaced, bit for bit, with the body and marks of that
    step."""
    P, frame = complex_and_frame(name)
    jacobian = ConstraintSystem.jacobian
    compared = []

    def checked_jacobian(self, x, terms=None):
        J = jacobian(self, x, terms)
        want = solver_oracle.blockwise_jacobian(self, x)
        assert np.array_equal(J.indptr, want.indptr)
        assert np.array_equal(J.indices, want.indices)
        assert np.array_equal(J.data.view(np.int64), want.data.view(np.int64))
        compared.append(x)
        return J

    monkeypatch.setattr(ConstraintSystem, "jacobian", checked_jacobian)
    try:  # the dodecahedron on p=4 degenerates on the way
        continue_to_body(P, frame, CANONICAL_MARKS, make_path(make_body(desc)))
    except DegenerateConfiguration:
        pass
    assert compared


class _CountingSparse:
    """scipy.sparse as the solver sees it, counting csc_matrix calls."""

    def __init__(self):
        self.csc_calls = 0

    def csc_matrix(self, *args, **kwargs):
        self.csc_calls += 1
        return sp.csc_matrix(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(sp, name)


def test_newton_builds_one_csc_matrix_per_system(monkeypatch):
    counting = _CountingSparse()
    monkeypatch.setattr(solver, "sp", counting)
    systems = []
    init = ConstraintSystem.__init__

    def counted_init(self, *args):
        systems.append(self)
        init(self, *args)

    monkeypatch.setattr(ConstraintSystem, "__init__", counted_init)
    P, _, frame = get_seed("cube")
    _, report = continue_to_body(
        P, frame, CANONICAL_MARKS,
        make_path(make_body("ellipsoid:a=1.2,b=1.0")))
    assert report.jacobian_condition_estimate > 0
    assert report.iterations > len(report.step_history)
    assert len(systems) == counting.csc_calls == 1


# ---------------------------------------------------------------------------
# the condition audit runs when the report is read

def count_condition_calls(monkeypatch):
    """Wrap ConstraintSystem.condition; returns the list its calls append
    their points to."""
    calls = []
    condition = ConstraintSystem.condition

    def counted(self, x):
        calls.append(x)
        return condition(self, x)

    monkeypatch.setattr(ConstraintSystem, "condition", counted)
    return calls


def _continuation_outcome(continuation, planar, marks, path):
    """(report, error): the run's report or its StepUnderflow's, and the
    type and text of the error raised, if any (no report for other solver
    errors)."""
    try:
        return continuation(planar, marks, path)[1], None
    except StepUnderflow as exc:
        return exc.report, (type(exc), str(exc))
    except SolverError as exc:
        return None, (type(exc), str(exc))


def _assert_audit_deferred(monkeypatch, planar, marks, path):
    """The continuation calls condition nowhere and ends as the eager oracle
    does. The first read of its report calls condition once per accepted
    step and later reads none; the report equals the oracle's by repr and
    after a pickle round trip. Returns the report."""
    want, want_error = _continuation_outcome(
        solver_oracle.continue_from_pattern, planar, marks, path)
    calls = count_condition_calls(monkeypatch)
    report, error = _continuation_outcome(continue_from_pattern, planar,
                                          marks, path)
    assert calls == []
    assert error == want_error
    if want is None:
        return None
    cond = report.jacobian_condition_estimate
    assert len(calls) == len(report.step_history)
    calls.clear()
    assert report.rank_deficiency == want.rank_deficiency
    assert repr(cond) == repr(want.jacobian_condition_estimate)
    assert repr(report) == repr(want)
    assert repr(pickle.loads(pickle.dumps(report))) == repr(want)
    assert calls == []
    return report


@pytest.mark.parametrize("desc", HALFWAY_BODIES, ids=["ellipsoid", "p4"])
@pytest.mark.parametrize("name", SEED_NAMES)
def test_continuation_defers_its_audit(monkeypatch, name, desc):
    P, frame = complex_and_frame(name)
    planar = layout_circles(P, frame, solve_radii(P, frame))
    _assert_audit_deferred(monkeypatch, planar, CANONICAL_MARKS,
                           make_path(make_body(desc)))


def test_rank_deficient_continuation_defers_its_audit(monkeypatch,
                                                      p4_box_instance):
    inst = p4_box_instance
    planar = layout_circles(inst["P"], inst["frame"],
                            solve_radii(inst["P"], inst["frame"]))
    report = _assert_audit_deferred(monkeypatch, planar, inst["marks"],
                                    inst["path"])
    assert report.rank_deficiency > 0


def test_step_underflow_report_defers_its_audit(monkeypatch):
    P, _, frame = get_seed("cube")
    monkeypatch.setattr(solver, "NEWTON_MAX_ITERATIONS", 1)
    monkeypatch.setattr(solver, "DS_INIT", 0.25)
    monkeypatch.setattr(solver, "DS_MIN", 0.2)
    planar = layout_circles(P, frame, solve_radii(P, frame))
    report = _assert_audit_deferred(monkeypatch, planar,
                                    (0.2 + 0.1j, 1.5 + 0j, -0.3 + 1.2j),
                                    _ellipsoid_path())
    assert not report.converged


def test_pickling_an_unread_report_runs_its_audit(monkeypatch):
    P, _, frame = get_seed("cube")
    planar = layout_circles(P, frame, solve_radii(P, frame))
    path = _ellipsoid_path()
    _, want = solver_oracle.continue_from_pattern(planar, CANONICAL_MARKS,
                                                  path)
    calls = count_condition_calls(monkeypatch)
    _, report = continue_from_pattern(planar, CANONICAL_MARKS, path)
    restored = pickle.loads(pickle.dumps(report))
    assert len(calls) == len(report.step_history)
    assert restored == report == want
    assert repr(restored) == repr(want)
    assert len(calls) == len(report.step_history)


def test_newton_refine_defers_its_audit(monkeypatch):
    P, frame, cfg = closed_form_config("cube")
    bumped = cfg.copy()
    bumped.offsets[:] = cfg.offsets + 0.01
    args = (bumped, make_body("ball"), P, frame, cfg.marked_points)
    _, want = solver_oracle.newton_refine(*args)
    calls = count_condition_calls(monkeypatch)
    _, report = newton_refine(*args)
    assert calls == []
    assert repr(report) == repr(want)
    assert len(calls) == 1
    assert repr(pickle.loads(pickle.dumps(report))) == repr(want)
    assert len(calls) == 1
