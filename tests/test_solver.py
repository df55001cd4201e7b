"""Constraint system assembly, analytic Jacobian, Newton, and continuation."""
import functools

import numpy as np
import pytest

import solver_oracle
from conftest import (CANONICAL_MARKS, ball_solution, closed_form_config,
                      get_seed)
from midscribe import (
    assemble_residual,
    continue_from_pattern,
    continue_to_body,
    layout_circles,
    newton_refine,
    plane_quadruple_det,
    solve_radii,
)
from midscribe import solver
from midscribe.bodies import BodyChart, make_body, make_path
from midscribe.errors import (
    DegenerateConfiguration,
    DegenerateMarks,
    DimensionMismatch,
    SolverError,
    StepUnderflow,
)
from midscribe.seeds import SEED_NAMES
from midscribe.solver import (ConstraintSystem, _degeneracy_guard,
                              _face_circle_sizes)
from test_packing import complex_and_frame

BODY_CYCLE = (
    "ball",
    "ellipsoid:a=1.2,b=1.0",
    "superellipsoid:p=4,a=1,b=1",
    "ellipsoid:a=0.9,b=1.1",
)


def test_exact_cube_residual_vanishes():
    P, frame, cfg = closed_form_config("cube")
    r = assemble_residual(cfg, make_body("ball"), P, frame, cfg.marked_points)
    assert np.max(np.abs(r)) < 1e-13


def test_exact_tetrahedron_residual_vanishes():
    P, frame, cfg = closed_form_config("tetrahedron")
    r = assemble_residual(cfg, make_body("ball"), P, frame, cfg.marked_points)
    assert np.max(np.abs(r)) < 1e-13


def test_scaled_cube_residual_rows():
    # scaling a midscribed cube by 1.1 leaves every row at zero except the
    # free-edge gauge rows, which read off 1.1^2 - 1 = 0.21 exactly
    P, frame, cfg = closed_form_config("cube", scale=1.1)
    system = ConstraintSystem(P, frame, cfg.marked_points, make_body("ball"))
    r = system.residual(system.pack(cfg))
    for label, value in zip(system.row_labels(), r):
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
    J, J_ref = system.jacobian(x), oracle.jacobian(x)
    assert np.array_equal(J.indptr, J_ref.indptr)
    assert np.array_equal(J.indices, J_ref.indices)
    assert np.array_equal(J.data, J_ref.data)
    assert system.row_labels() == oracle.row_labels()
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


def laplace_det4(M):
    # cofactor expansion along the first row, written out longhand
    def det3(a):
        return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
    total = 0.0
    for j in range(4):
        minor = [[M[i][k] for k in range(4) if k != j] for i in range(1, 4)]
        total += (-1) ** j * M[0][j] * det3(minor)
    return total


def test_plane_quadruple_det_matches_cofactor_expansion():
    rng = np.random.default_rng(2)
    for _ in range(10):
        planes = [(rng.normal(size=3), rng.normal()) for _ in range(4)]
        M = [[*n, -d] for n, d in planes]
        assert plane_quadruple_det(planes) == pytest.approx(
            laplace_det4(M), rel=1e-12, abs=1e-12)


def test_plane_quadruple_det_detects_concurrency():
    rng = np.random.default_rng(4)
    p = rng.normal(size=3)
    concurrent = []
    for _ in range(4):
        n = rng.normal(size=3)
        concurrent.append((n, float(n @ p)))
    assert abs(plane_quadruple_det(concurrent)) < 1e-12
    generic = [(rng.normal(size=3), rng.normal()) for _ in range(4)]
    assert abs(plane_quadruple_det(generic)) > 1e-6
    with pytest.raises(DimensionMismatch):
        plane_quadruple_det(generic[:3])


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


def test_newton_rejects_garbage_start():
    P, frame, cfg = closed_form_config("cube")
    rng = np.random.default_rng(0)
    junk = cfg.copy()
    junk.normals[:] = rng.normal(size=junk.normals.shape)
    junk.offsets[:] = rng.normal(size=junk.offsets.shape) * 5
    junk.vertices4[:] = rng.normal(size=junk.vertices4.shape)
    junk.tangents[:] = rng.normal(size=junk.tangents.shape) * 3
    with pytest.raises(SolverError):
        newton_refine(junk, make_body("ball"), P, frame, cfg.marked_points,
                      max_iter=12)


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
], ids=["face_circle", "tangent_points"])
def test_continuation_degeneracy_guard(monkeypatch, constant, message):
    P, _, frame = get_seed("cube")
    monkeypatch.setattr(solver, constant, 10.0)
    with pytest.raises(DegenerateConfiguration, match=message):
        continue_to_body(P, frame, (0.2 + 0.1j, 1.5 + 0j, -0.3 + 1.2j),
                         make_path(make_body("ellipsoid:a=1.2,b=1.0")))


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


@pytest.mark.parametrize("name", REUSE_CASES)
def test_continue_from_pattern_matches_continue_to_body(name):
    """One planar packing serves every choice of marks: continuing from a
    shared layout, after it has already served other marks, gives the same
    bits as solving the packing afresh."""
    P, frame, cfg_a = _ellipsoid_solution(name)
    _, report_a = continue_to_body(P, frame, CANONICAL_MARKS,
                                   _ellipsoid_path())
    planar = layout_circles(P, frame, solve_radii(P, frame))
    try:
        continue_from_pattern(planar, (0.4 + 0.3j, 1.6 + 0j, -0.5 + 1.1j),
                              _ellipsoid_path())
    except SolverError:
        pass
    cfg_b, report_b = continue_from_pattern(planar, CANONICAL_MARKS,
                                            _ellipsoid_path())
    for part in ("normals", "offsets", "vertices4", "tangents",
                 "marked_points"):
        assert np.array_equal(getattr(cfg_a, part), getattr(cfg_b, part))
    assert cfg_a.marked_edges == cfg_b.marked_edges
    assert repr(report_a) == repr(report_b)


@pytest.mark.parametrize("name", REUSE_CASES)
def test_degeneracy_guard_matches_face_loop(monkeypatch, name):
    """The padded face table gives the loop's face sizes bit for bit, and
    the same first failing face and message at every threshold."""
    P, frame, cfg = _ellipsoid_solution(name)
    system = ConstraintSystem(P, frame, cfg.marked_points,
                              _ellipsoid_path().end)
    x = system.pack(cfg)
    T = system.tangents(x)
    sizes = solver_oracle.face_circle_sizes(P, T)
    assert np.array_equal(_face_circle_sizes(T, system.face_edges), sizes)
    for limit in [0.0] + sorted(set(sizes.tolist())):
        monkeypatch.setattr(solver, "MIN_FACE_CIRCLE_SIZE", limit)
        outcomes = []
        for guard in (_degeneracy_guard, solver_oracle.degeneracy_guard):
            try:
                guard(system, x, 0.5)
                outcomes.append(None)
            except DegenerateConfiguration as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] is None) == (limit < sizes.min())
