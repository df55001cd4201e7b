"""Constraint system assembly, analytic Jacobian, Newton, and continuation."""
import functools
import itertools
import pickle

import numpy as np
import pytest

import solver_oracle
from conftest import (CANONICAL_MARKS, ball_solution, closed_form_config,
                      get_seed)
from midscribe import (
    continue_from_pattern,
    continue_to_body,
    koebe_config,
    layout_circles,
    lift_normalize,
    newton_refine,
    solve_radii,
)
from midscribe import solver
from midscribe.bodies import BodyChart, make_body, make_path
from midscribe.errors import (
    DegenerateConfiguration,
    DegenerateMarks,
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
    J, J_ref = system.jacobian(x).tocsr(), oracle.jacobian(x)
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
    CSC form of jacobian(x) at its iterate, here solving from the ball
    packing on the s=0.5 blend towards desc."""
    P, frame = complex_and_frame(name)
    body = make_path(make_body(desc)).eval(0.5)
    planar = layout_circles(P, frame, solve_radii(P, frame))
    cfg = koebe_config(lift_normalize(planar, CANONICAL_MARKS))
    system = ConstraintSystem(P, frame,
                              BodyChart(body).inverse(CANONICAL_MARKS), body)
    points, factored = [], []
    jacobian, splu = ConstraintSystem.jacobian, solver.spla.splu

    def recorded_jacobian(self, x):
        points.append(x)
        return jacobian(self, x)

    def recorded_splu(J):
        factored.append(J)
        return splu(J)

    monkeypatch.setattr(ConstraintSystem, "jacobian", recorded_jacobian)
    monkeypatch.setattr(solver.spla, "splu", recorded_splu)
    try:
        solver._newton_core(system, system.pack(cfg), 1e-11,
                            solver.NEWTON_MAX_ITERATIONS)
    except SolverError:
        pass
    assert factored and len(factored) == len(points)
    for x, J in zip(points, factored):
        want = jacobian(system, x).tocsr().tocsc()
        assert J.format == "csc" and J.shape == want.shape
        for part in ("data", "indices", "indptr"):
            got = getattr(J, part)
            assert got.dtype == getattr(want, part).dtype
            assert np.array_equal(got, getattr(want, part))


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
