"""K-disk packings: the convex certificates of verify.py against the
tracers of kdisk_oracle and on the cases the tracers got wrong, the support
function, the batched tracer against the scalar one, typed failures, and
full verification of generated complexes."""
import functools
import math

import numpy as np
import pytest

import kdisk_oracle
from conftest import ball_solution, get_seed, witness_marks
from midscribe import (bodies, continue_to_body, extract_kdisk_packings,
                       koebe_config, layout_circles, lift_normalize,
                       solve_radii, verify, verify_configuration)
from midscribe.bodies import (Ball, ConvexBody, GaugeBlend, _rowdot,
                              _unit_orthogonals, make_body, make_path)
from midscribe.combinatorics import build_complex, select_frame
from midscribe.errors import DegenerateConfiguration
from midscribe.seeds import SEED_NAMES, faces_from_coordinates
from test_packing import GENERATED, complex_and_frame, sphere_hull_points

BALL = make_body("ball")
THETA = (2.0 * math.pi * 0.61803398874989485
         + 2.0 * math.pi * np.arange(kdisk_oracle.N_BOUNDARY_SAMPLES)
         / kdisk_oracle.N_BOUNDARY_SAMPLES)


def _cube_on_ellipsoid():
    P, coords, frame = get_seed("cube")
    body = make_body("ellipsoid:a=1.2,b=1.0")
    marks = witness_marks(P, frame, coords * np.array([1.2, 1.0, 1.0]), body)
    cfg, _ = continue_to_body(P, frame, marks, make_path(body))
    return P, cfg, body


@pytest.fixture(scope="module", params=["tetrahedron/ball", "cube/ball",
                                        "cube/ellipsoid", "p4_box"])
def kdisk_case(request):
    """(name, P, cfg, body) of one configuration the tracers are compared
    on."""
    if request.param == "p4_box":
        inst = request.getfixturevalue("p4_box_instance")
        return request.param, inst["P"], inst["cfg"], inst["body"]
    if request.param == "cube/ellipsoid":
        return (request.param, *_cube_on_ellipsoid())
    name = request.param.split("/")[0]
    return request.param, get_seed(name)[0], ball_solution(name), BALL


@pytest.fixture(scope="module")
def traced_pair(kdisk_case):
    """(batched, scalar) packings of one configuration, and the tolerance
    on their worst contact position errors.

    Both tracers put each maximizer at a sign change of the Lagrange
    condition, the scalar one by bisection and the batched one by zeroin,
    each to a bracket below 1e-12 in the boundary parameter, so 1e-7 in
    position leaves room for the traced points' own errors. On the quartic
    box each contact is of fourth order, so the computed condition changes
    sign over a wider interval around it and the sign change found depends
    on the last bits of the traced points: both tracers put the contacts
    about 1.4e-4 from the tangent points, within 1e-5 of each other.
    """
    name, P, cfg, body = kdisk_case
    tol = 1e-5 if name == "p4_box" else 1e-7
    return (kdisk_oracle.batched_kdisk_packings(cfg, body, P),
            _scalar_packings(name, cfg, body, P), tol)


_SCALAR = {}


def _scalar_packings(name, cfg, body, P):
    """scalar_kdisk_packings of the named configuration, traced once."""
    if name not in _SCALAR:
        _SCALAR[name] = kdisk_oracle.scalar_kdisk_packings(cfg, body, P)
    return _SCALAR[name]


def _bisection(arcs, lo, hi, start):
    return kdisk_oracle.bisection_solve(arcs, lo, hi)


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


def test_all_disks_trace_matches_per_disk_trace(kdisk_case, monkeypatch):
    # driven by the bisection horizon solve, tracing all disks in lockstep
    # does each row's arithmetic exactly as tracing one disk at a time; a
    # joint Newton capped at 0 steps sends every row to that solve
    _, P, cfg, body = kdisk_case
    faces = kdisk_oracle._FaceDisks(body, cfg, P, THETA)
    for f, disk in enumerate(faces.disks):
        assert np.array_equal(disk.boundary_samples, faces._points(f, THETA))
    monkeypatch.setattr(kdisk_oracle, "HORIZON_NEWTON_ITERATIONS", 0)
    monkeypatch.setattr(kdisk_oracle._Arcs, "solve", _bisection)
    vertices = kdisk_oracle._VertexDisks(body, cfg, P, THETA)
    for v, disk in enumerate(vertices.disks):
        alphas, samples = kdisk_oracle.per_disk_trace(vertices, v, THETA)
        assert np.array_equal(vertices.alphas[v], alphas)
        assert np.array_equal(disk.boundary_samples, samples)


def _unresolved_width(disks):
    """Per sample, g's rounding bound over |g'| at the traced horizon: the
    width in alpha over which rounding can flip the sign of g."""
    n_vertices, n = disks.alphas.shape
    owners = np.repeat(np.arange(n_vertices), n)
    m = kdisk_oracle._circle(np.repeat(disks.a, n, axis=0),
                             np.repeat(disks.b, n, axis=0),
                             np.tile(THETA, n_vertices))
    arcs = disks._arcs(owners, m, np.ones(len(owners)))
    _, g_tol, slope, _ = arcs.g_slope(np.arange(len(owners)),
                                      disks.alphas.ravel())
    return (g_tol / np.abs(slope)).reshape(disks.alphas.shape)


def test_newton_horizons_match_bisection(kdisk_case, monkeypatch):
    # Both solves end where g is 0 to rounding. On the quartic box some
    # horizons are flat (|g'| down to 3.4e-3) and the computed g changes
    # sign hundreds of times within 600 ulps of the root; there they agree
    # to the unresolved width instead of 1e-14.
    _, P, cfg, body = kdisk_case
    newton = kdisk_oracle._VertexDisks(body, cfg, P, THETA)
    packings = kdisk_oracle.batched_kdisk_packings(cfg, body, P)
    monkeypatch.setattr(kdisk_oracle, "HORIZON_NEWTON_ITERATIONS", 0)
    monkeypatch.setattr(kdisk_oracle._Arcs, "solve", _bisection)
    bisection = kdisk_oracle._VertexDisks(body, cfg, P, THETA)
    assert np.all(np.abs(newton.alphas - bisection.alphas)
                  <= 1e-14 + _unresolved_width(newton))
    for new, old in zip(packings,
                        kdisk_oracle.batched_kdisk_packings(cfg, body, P)):
        assert new.contacts_ok == old.contacts_ok
        assert new.nondegenerate == old.nondegenerate


def test_joint_horizons_match_bracketed_solve(kdisk_case, monkeypatch):
    # with the joint Newton capped at 0 steps every horizon point, traced
    # or refined, takes the bracketed solve
    _, P, cfg, body = kdisk_case
    joint = kdisk_oracle._VertexDisks(body, cfg, P, THETA)
    packings = kdisk_oracle.batched_kdisk_packings(cfg, body, P)
    monkeypatch.setattr(kdisk_oracle, "HORIZON_NEWTON_ITERATIONS", 0)
    bracketed = kdisk_oracle._VertexDisks(body, cfg, P, THETA)
    assert bracketed.horizon_fallbacks == bracketed.alphas.size
    assert np.all(np.abs(joint.alphas - bracketed.alphas)
                  <= 1e-14 + _unresolved_width(joint))
    capped = kdisk_oracle.batched_kdisk_packings(cfg, body, P)
    assert capped[1].horizon_fallbacks > bracketed.horizon_fallbacks
    for new, old in zip(packings, capped):
        assert new.contacts_ok == old.contacts_ok
        assert new.nondegenerate == old.nondegenerate


@pytest.mark.parametrize("start", ["alpha+1", "alpha-1", "nan", "r=0"])
def test_bad_joint_starts_end_at_the_horizons_or_fall_back(kdisk_case, start):
    _, P, cfg, body = kdisk_case
    disks = kdisk_oracle._VertexDisks(body, cfg, P, THETA)
    n_vertices, n = disks.alphas.shape
    owners = np.repeat(np.arange(n_vertices), n)
    m = kdisk_oracle._circle(np.repeat(disks.a, n, axis=0),
                             np.repeat(disks.b, n, axis=0),
                             np.tile(THETA, n_vertices))
    horizons, radii = disks.alphas.ravel(), disks.radii.ravel()
    width = _unresolved_width(disks).ravel()
    warm = {"alpha+1": horizons + 1.0, "alpha-1": horizons - 1.0,
            "nan": np.full(len(owners), math.nan), "r=0": horizons}[start]
    t0 = np.zeros(len(owners)) if start == "r=0" else radii
    alpha, X, ok = disks._arcs(owners, m, t0.copy()).joint(warm)
    assert np.all(np.abs(alpha[ok] - horizons[ok]) <= 1e-14 + width[ok])
    assert np.all(np.isnan(X[~ok]))
    if start == "nan":
        assert not ok.any()
        return
    # the rows the joint Newton leaves, the bracketed solve puts there too
    # (it takes starts on the arc, as every traced or stored horizon is)
    warm = np.clip(warm, kdisk_oracle.HORIZON_MIN, math.pi - 1e-9)
    ok = disks._arcs(owners, m, t0.copy()).joint(warm)[2]
    before = disks.horizon_fallbacks
    alpha, X = disks._horizons(disks._arcs(owners, m, t0.copy()), warm)
    assert disks.horizon_fallbacks - before == np.count_nonzero(~ok)
    assert np.all(np.abs(alpha - horizons) <= 1e-14 + width)
    assert np.all(np.isfinite(X))


def _every_arc(disks):
    """The arcs of every traced sample of disks, each ray started at 1."""
    n_vertices, n = disks.alphas.shape
    m = kdisk_oracle._circle(np.repeat(disks.a, n, axis=0),
                             np.repeat(disks.b, n, axis=0),
                             np.tile(THETA, n_vertices))
    return disks._arcs(np.repeat(np.arange(n_vertices), n), m,
                       np.ones(n_vertices * n))


@pytest.mark.parametrize("start", ["alpha+1", "alpha-1", "nan"])
def test_solve_clips_its_start_into_the_bracket(kdisk_case, start):
    # a start outside [lo, hi] used to come back as the horizon: alpha =
    # -0.835 on tetrahedron/ball from horizon - 1 rad
    _, P, cfg, body = kdisk_case
    disks = kdisk_oracle._VertexDisks(body, cfg, P, THETA)
    horizons = disks.alphas.ravel()
    warm = {"alpha+1": horizons + 1.0, "alpha-1": horizons - 1.0,
            "nan": np.full(len(horizons), math.nan)}[start]
    alpha, X = _every_arc(disks).solve(
        np.full(len(horizons), kdisk_oracle.HORIZON_MIN),
        np.full(len(horizons), math.pi - 1e-9), warm)
    assert np.all(np.abs(alpha - horizons)
                  <= 1e-14 + _unresolved_width(disks).ravel())
    assert np.all(np.isfinite(X))


def _assert_bracketed(disks):
    """g(HORIZON_MIN) > 0 >= g(pi - 1e-9) on every traced arc of disks."""
    arcs = _every_arc(disks)
    every = np.arange(len(arcs.t))
    assert np.all(arcs.g(every, np.full(len(every), kdisk_oracle.HORIZON_MIN))
                  > 0)
    assert np.all(arcs.g(every, np.full(len(every), math.pi - 1e-9)) <= 0)


def test_every_arc_brackets_its_horizon(kdisk_case):
    _, P, cfg, body = kdisk_case
    _assert_bracketed(kdisk_oracle._VertexDisks(body, cfg, P, THETA))


@functools.lru_cache(maxsize=None)
def _hull30_on_p4():
    """(P, cfg, body) of hull30 on the p=4 superellipsoid at marks (1, -1,
    i), a configuration with a vertex at infinity."""
    points = sphere_hull_points(30, 20260030)
    P = build_complex(faces_from_coordinates(points), n_vertices=len(points))
    body = make_body("superellipsoid:p=4,a=1,b=1")
    cfg, _ = continue_to_body(P, select_frame(P), (1 + 0j, -1 + 0j, 1j),
                              make_path(body))
    return P, cfg, body


def test_every_arc_brackets_its_horizon_on_a_small_cap():
    # vertex 49 sees a cap of 8.1e-4 rad
    P, cfg, body = _refinement_case("hull60")
    _assert_bracketed(kdisk_oracle._VertexDisks(body, cfg, P, THETA))


def test_every_arc_brackets_its_horizon_at_infinity():
    P, cfg, body = _hull30_on_p4()
    vertices = kdisk_oracle.batched_kdisk_packings(cfg, body, P)[1]
    assert any(disk.at_infinity for disk in vertices.disks)
    _assert_bracketed(kdisk_oracle._VertexDisks(body, cfg, P, THETA))


class _BallWithHessian(ConvexBody):
    """The unit ball with every Hessian filled with one value: the horizon
    slope is nan for a nan fill and 0 for a zero fill."""

    def __init__(self, fill):
        self.fill = fill

    def value(self, x):
        return BALL.value(x)

    def gradient(self, x):
        return BALL.gradient(x)

    def hessian(self, x):
        return np.full((3, 3), self.fill)

    def values(self, X):
        return BALL.values(X)

    def gradients(self, X):
        return BALL.gradients(X)

    def hessians(self, X):
        return np.full((len(X), 3, 3), self.fill)

    @property
    def descriptor(self):
        return "ball"


@pytest.mark.parametrize("fill", [math.nan, 0.0])
def test_unusable_slope_falls_back_to_bisection(fill, monkeypatch):
    P, _, _ = get_seed("cube")
    cfg = ball_solution("cube")
    fallback = kdisk_oracle._VertexDisks(_BallWithHessian(fill), cfg, P, THETA)
    assert fallback.horizon_fallbacks == fallback.alphas.size
    monkeypatch.setattr(kdisk_oracle, "HORIZON_NEWTON_ITERATIONS", 0)
    monkeypatch.setattr(kdisk_oracle._Arcs, "solve", _bisection)
    bisection = kdisk_oracle._VertexDisks(BALL, cfg, P, THETA)
    assert np.max(np.abs(fallback.alphas - bisection.alphas)) < 1e-14


def test_unconverged_horizon_names_vertex(monkeypatch):
    P, _, _ = get_seed("cube")
    monkeypatch.setattr(kdisk_oracle, "HORIZON_NEWTON_ITERATIONS", 0)
    monkeypatch.setattr(kdisk_oracle, "HORIZON_BISECTIONS", 1)
    with pytest.raises(DegenerateConfiguration,
                       match="^K-disk extraction: vertex 0 has no converged "
                             "horizon after 1 evaluations"):
        kdisk_oracle._VertexDisks(BALL, ball_solution("cube"), P, THETA)


class _CountingBall(ConvexBody):
    """The unit ball, counting its batched gauge calls and support-function
    calls."""

    def __init__(self):
        self.calls = 0

    def values(self, X):
        self.calls += 1
        return BALL.values(X)

    def gradients(self, X):
        self.calls += 1
        return BALL.gradients(X)

    def hessians(self, X):
        self.calls += 1
        return BALL.hessians(X)

    def supports(self, U):
        self.calls += 1
        return BALL.supports(U)

    @property
    def descriptor(self):
        return "ball"


def test_gauge_calls_per_verification_stay_bounded(monkeypatch):
    # a clock-free guard on the certificates, which must not grow with the
    # complex: cube/ball takes 26 batched calls and hull60, with 1,770
    # vertex pairs and 6,670 face pairs, 33, 6 of them in the line minima
    # of each; a loop over pairs, disks or edges would pass the bound at
    # hull60. The boundary tracer took 249 on cube/ball. Newton certifies
    # every edge line and every segment no sample certifies, so no row is
    # bisected.
    bisected = []
    bisect = verify._bisect_slopes

    def spy(body, Q, U, lo, hi):
        bisected.append(len(lo))
        return bisect(body, Q, U, lo, hi)
    monkeypatch.setattr(verify, "_bisect_slopes", spy)
    for name in ("cube/ball", "hull60"):
        P, cfg, _ = _refinement_case(name)
        body = _CountingBall()
        report = verify_configuration(cfg, body, P)
        assert report.passed and report.contact_graph_primal_ok, name
        assert report.contact_graph_dual_ok, name
        assert body.calls <= 60, name
        assert bisected == [], name


def test_ray_solves_per_verification_stay_bounded(monkeypatch):
    # the certificates solve rays only in the support ascent of a body
    # without a closed-form support function: none on the ball, 3 batched
    # ray solves on the ball's blend with itself. The boundary tracer took
    # 13 on cube/ball, and tracing one disk at a time 2,790.
    calls = []
    ray_roots = bodies.ray_roots

    def counted(*args, **kwargs):
        calls.append(None)
        return ray_roots(*args, **kwargs)
    monkeypatch.setattr(bodies, "ray_roots", counted)
    P, _, _ = get_seed("cube")
    assert verify_configuration(ball_solution("cube"), BALL, P).passed
    assert not calls
    report = verify_configuration(ball_solution("cube"),
                                  GaugeBlend(BALL, BALL, 0.5), P)
    assert report.passed and report.contact_graph_primal_ok
    assert report.contact_graph_dual_ok
    assert 0 < len(calls) <= 20


@functools.lru_cache(maxsize=None)
def _refinement_case(name):
    """(P, cfg, body) of a configuration the refinement is checked on."""
    if name == "cube/ellipsoid":
        return _cube_on_ellipsoid()
    if name.endswith("/ball"):
        seed = name.split("/")[0]
        return get_seed(seed)[0], ball_solution(seed), BALL
    P, frame = complex_and_frame(name)
    marks = (0j, 1 + 0j, 1j)
    if name in ("hull12", "prism8"):
        marks = witness_marks(P, frame, GENERATED[name](), BALL)
    cfg = koebe_config(lift_normalize(
        layout_circles(P, frame, solve_radii(P, frame)), marks))
    return P, cfg, BALL


def _refinements(monkeypatch, P, cfg, body):
    """The packings of a configuration and, per family, the arguments and
    results of its _refine_pairs call."""
    calls = []
    refine = kdisk_oracle._refine_pairs

    def recorded(family, i, j, k):
        result = refine(family, i, j, k)
        calls.append((family, i, j, k, result))
        return result
    monkeypatch.setattr(kdisk_oracle, "_refine_pairs", recorded)
    return kdisk_oracle.batched_kdisk_packings(cfg, body, P), calls


@pytest.mark.parametrize("name", ["tetrahedron/ball", "cube/ellipsoid",
                                  "hull12", "prism8"])
def test_pair_selection_matches_per_pair_loop(name, monkeypatch):
    # the (D, D) edge table selects the pairs the per-pair adjacency
    # lookups did, in the same order, with the same contacts
    P, cfg, body = _refinement_case(name)
    packings, calls = _refinements(monkeypatch, P, cfg, body)
    owners = {"face": P.edge_faces, "vertex": P.edges}
    for packing, (family, i, j, k, result) in zip(packings, calls):
        adjacency = {tuple(sorted(ends)): cfg.tangents[e]
                     for e, ends in enumerate(owners[family.kind])}
        pairs, contacts, max_foreign, nondegenerate = (
            kdisk_oracle.select_pairs(family, adjacency))
        assert np.array_equal(np.column_stack([i, j, k]),
                              np.array(pairs).reshape(-1, 3))
        adjacent = np.array([p is not None for p in contacts])
        margins, points = result
        p_e = np.array([p for p in contacts if p is not None])
        assert packing.worst_position_error == np.max(
            np.linalg.norm(points[adjacent] - p_e, axis=1))
        assert packing.max_foreign_margin == max(
            max_foreign, margins[~adjacent].max(initial=-math.inf))
        assert packing.nondegenerate == nondegenerate


@pytest.mark.parametrize("name", ["tetrahedron/ball", "cube/ball",
                                  "cube/ellipsoid", "hull12", "prism8"])
def test_lagrange_roots_match_golden_section(name, monkeypatch):
    # on every row, golden section on the margin finds the maximum the
    # root of the Lagrange condition does
    packings, calls = _refinements(monkeypatch, *_refinement_case(name))
    for packing, (family, i, j, k, (margins, points)) in zip(packings, calls):
        m, X = kdisk_oracle._golden_pairs(family, i, j, k)
        assert np.max(np.abs(margins - m)) <= 1e-12
        assert np.max(np.linalg.norm(points - X, axis=1)) <= 1e-7
        assert packing.refined_pairs == len(i)


def test_flat_contacts_close_at_their_lagrange_roots(p4_box_instance,
                                                     monkeypatch):
    # the quartic box's contacts are of fourth order, so its margins are
    # flat to rounding around every contact; every one of its 48 refined
    # rows still closes under the default cap, at a margin no lower than
    # golden section's by more than the margin's rounding bound
    P, cfg, body = (p4_box_instance[key] for key in ("P", "cfg", "body"))
    _, calls = _refinements(monkeypatch, P, cfg, body)
    assert [family.kind for family, *_ in calls] == ["face", "vertex"]
    assert sum(len(i) for _, i, _, _, _ in calls) == 48
    for family, i, j, k, (margins, points) in calls:
        m, _ = kdisk_oracle._golden_pairs(family, i, j, k)
        g_j = family.pair_gradients(j, points)
        bound = 4.0 * np.finfo(float).eps * np.sqrt(
            _rowdot(g_j, g_j) * _rowdot(points, points))
        assert np.all(margins >= m - bound)


def test_zero_iteration_cap_fails_typed(kdisk_case, monkeypatch):
    _, P, cfg, body = kdisk_case
    monkeypatch.setattr(kdisk_oracle, "ROOT_ITERATIONS", 0)
    with pytest.raises(DegenerateConfiguration,
                       match="^K-disk extraction: face 0 has no converged "
                             "maximum of disk "):
        kdisk_oracle.batched_kdisk_packings(cfg, body, P)


def test_unbracketed_maximum_names_both_disks(monkeypatch):
    # h of one sign over every bracket
    P, _, _ = get_seed("cube")
    monkeypatch.setattr(kdisk_oracle, "_lagrange",
                        lambda family, i, j, X: np.ones(len(X)))
    with pytest.raises(DegenerateConfiguration,
                       match="^K-disk extraction: face 0 has no bracketed "
                             "maximum of disk 1's margin$"):
        kdisk_oracle.batched_kdisk_packings(ball_solution("cube"), BALL, P)


def test_false_rejection_of_a_flat_contact_is_gone():
    # cube on p=4 at marks 0, 1, i: golden section put a face contact
    # 1.6e-4 from its tangent point, past CONTACT_POSITION_TOL
    P, _, frame = get_seed("cube")
    body = make_body("superellipsoid:p=4,a=1,b=1")
    cfg, _ = continue_to_body(P, frame, (0j, 1 + 0j, 1j), make_path(body))
    report = verify_configuration(cfg, body, P)
    assert report.contact_graph_primal_ok is True
    assert report.contact_graph_dual_ok is True
    faces, _ = kdisk_oracle.batched_kdisk_packings(cfg, body, P)
    assert faces.worst_position_error < 1e-6


@pytest.mark.parametrize("name", ["cube/ball", "hull60"])
def test_contacts_are_refined_without_golden_section(name):
    P, cfg, body = _refinement_case(name)
    for packing in kdisk_oracle.batched_kdisk_packings(cfg, body, P):
        assert packing.contacts_ok and packing.nondegenerate
        assert packing.refined_pairs > 0


def test_small_visible_cap_is_traced():
    # vertex 49 sees a cap narrower than 1e-3 rad, deep inside the bracket
    # [HORIZON_MIN, pi - 1e-9] that holds every horizon
    P, frame = complex_and_frame("hull60")
    radii = solve_radii(P, frame)
    cfg = koebe_config(lift_normalize(layout_circles(P, frame, radii),
                                      (0j, 1 + 0j, 1j)))
    positions, _ = cfg.affine_vertices()
    assert math.acos(1.0 / np.linalg.norm(positions[49])) < 1e-3
    report = verify_configuration(cfg, BALL, P)
    assert report.contact_graph_primal_ok is True
    assert report.contact_graph_dual_ok is True
    assert report.passed


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
        kdisk_oracle._FaceDisks(_Constant(1.0), ball_solution("cube"), P,
                                THETA)


def test_vertex_disk_failure_names_stage_and_vertex():
    P, _, _ = get_seed("cube")
    with pytest.raises(DegenerateConfiguration,
                       match="^K-disk extraction: vertex 0 is not exterior"):
        kdisk_oracle._VertexDisks(_Constant(-1.0), ball_solution("cube"), P,
                                  THETA)


def test_missing_horizon_crossing_names_vertex(monkeypatch):
    P, _, _ = get_seed("cube")
    monkeypatch.setattr(kdisk_oracle, "_visibility",
                        lambda apex, c, X, grads: -np.ones(X.shape[:-1]))
    with pytest.raises(DegenerateConfiguration,
                       match="^K-disk extraction: vertex 0 has no visibility"):
        kdisk_oracle._VertexDisks(BALL, ball_solution("cube"), P, THETA)


@pytest.mark.parametrize("c", [1.0, -1.0])
def test_horizon_bracket_failure_is_typed(c):
    # apex at the origin: with c = 1 no boundary point is visible, with
    # c = -1 every one is, so the joint Newton settles no row and g has one
    # sign at both ends of the bracket
    rows = 4
    w = np.tile([0.0, 0.0, 1.0], (rows, 1))
    m = np.tile([1.0, 0.0, 0.0], (rows, 1))
    arcs = kdisk_oracle._Arcs(BALL, np.full(rows, 3), np.zeros((rows, 3)),
                              np.full(rows, c), w, m, np.ones(rows))
    P, _, _ = get_seed("cube")
    disks = kdisk_oracle._VertexDisks(BALL, ball_solution("cube"), P, THETA)
    with pytest.raises(DegenerateConfiguration,
                       match="^K-disk extraction: vertex 3 has no visibility "
                             "horizon crossing"):
        disks._horizons(arcs, np.full(rows, 1.0))


def test_degenerate_disk_fails_contact_flags(monkeypatch):
    # a support function that cannot be found fails typed, and the
    # verifier turns that into False flags; the blend of the ball with
    # itself is the ball without its closed form
    P, _, _ = get_seed("cube")
    monkeypatch.setattr(bodies, "SUPPORT_ITERATIONS", 0)
    report = verify_configuration(ball_solution("cube"),
                                  GaugeBlend(BALL, BALL, 0.5), P)
    assert report.midscribed
    assert report.contact_graph_primal_ok is False
    assert report.contact_graph_dual_ok is False


# ---------------------------------------------------------------------------
# the convex certificates

SUPPORT_DIRECTIONS = np.vstack([
    np.random.default_rng(20261026).normal(size=(400, 3)),
    np.eye(3), -np.eye(3), np.zeros((1, 3)),
    [[1e-9, 0.0, 1.0], [1e-3, 0.0, 1.0], [1e-5, 1e-6, -1.0],
     [0.3, 0.2, 0.0]]])


@pytest.mark.parametrize("descriptor", [
    "ball", "ellipsoid:a=1.2,b=1.0", "ellipsoid:a=2,b=0.5",
    "superellipsoid:p=2,a=1.2,b=1", "superellipsoid:p=4,a=1,b=1",
    "superellipsoid:p=4,a=1.352,b=0.728"])
def test_support_ascent_matches_closed_forms(descriptor):
    # the base class's ascent, on the bodies whose support function has a
    # closed form; on p = 4 the axis-aligned rows sit at flat points, where
    # the tangential Hessian vanishes, and u = 0 gives h = 0
    body = make_body(descriptor)
    want = body.supports(SUPPORT_DIRECTIONS)
    got = ConvexBody.supports(body, SUPPORT_DIRECTIONS)
    assert want[-5] == got[-5] == 0.0
    assert np.all(np.abs(got - want) <= 1e-14 * (1.0 + np.abs(want)))


def test_support_ascent_on_a_blend():
    # a blend has no closed form: at the returned point the body's outward
    # normal is along u, and no boundary point is further out. The ascent
    # stops once u . X stops rising; the angle of up to 2.3e-8 it leaves
    # between the normal and u puts u . X about 1e-16 below its maximum.
    body = GaugeBlend(Ball(), make_body("superellipsoid:p=4,a=1.3,b=0.8"),
                      0.6)
    U = SUPPORT_DIRECTIONS[:200]
    W = U / np.linalg.norm(U, axis=1, keepdims=True)
    X = bodies._support_points(body, W)
    G = body.gradients(X)
    assert np.all(np.abs(body.values(X)) < 1e-14)
    assert np.all(np.linalg.norm(np.cross(G, W), axis=1)
                  <= 1e-7 * np.linalg.norm(G, axis=1))
    dirs = bodies._spiral_directions(20000)
    Y = bodies.ray_roots(body, np.zeros(3), dirs)[:, None] * dirs
    assert np.all(body.supports(U) >= np.max(U @ Y.T, axis=1))


def test_support_ascent_fails_typed(monkeypatch):
    monkeypatch.setattr(bodies, "SUPPORT_ITERATIONS", 3)
    body = make_body("superellipsoid:p=4,a=1.352,b=0.728")
    with pytest.raises(DegenerateConfiguration,
                       match="^support function: no boundary point with "
                             "outward normal along "):
        ConvexBody.supports(body, SUPPORT_DIRECTIONS)


ORACLE_CASES = (["%s/ball" % name for name in SEED_NAMES]
                + ["cube/ellipsoid", "hull12", "prism8", "cube/nonconvex"])


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_certificates_match_scalar_tracer_flags(name, nonconvex_instance):
    # each packing's flag, contacts and non-degeneracy together, equals the
    # scalar tracer's wherever that tracer is right: True on every convex
    # case here, and False on the visibility disks of the nonconvex cube,
    # which overlap
    if name == "cube/nonconvex":
        P, _, _, body, cfg, _ = nonconvex_instance
    else:
        P, cfg, body = _refinement_case(name)
    new = extract_kdisk_packings(cfg, body, P)
    old = _scalar_packings(name, cfg, body, P)
    assert ([p.contacts_ok and p.nondegenerate for p in new]
            == [p.contacts_ok and p.nondegenerate for p in old])


@functools.lru_cache(maxsize=None)
def _hull_on(n, seed, descriptor, marks):
    """(P, cfg, body) of hull n (sphere_hull_points(n, seed)) on a body at
    marks: the ball's Koebe configuration, or a continuation."""
    points = sphere_hull_points(n, seed)
    P = build_complex(faces_from_coordinates(points), n_vertices=n)
    frame = select_frame(P)
    body = make_body(descriptor)
    if descriptor == "ball":
        planar = layout_circles(P, frame, solve_radii(P, frame))
        return P, koebe_config(lift_normalize(planar, marks)), body
    return P, continue_to_body(P, frame, marks, make_path(body))[0], body


@pytest.mark.parametrize("name", ["p4_box", "hull120/ellipsoid",
                                  "hull60/ball"])
def test_correct_packings_the_tracer_rejected_pass(name, p4_box_instance):
    # The tracer's absolute tolerances rejected these correct
    # configurations: the quartic box's fourth-order contacts sat 1.4e-4
    # from the tangent points, past CONTACT_POSITION_TOL; hull120 on the
    # ellipsoid at (0, 1, i) had samples within CONTACT_TOL of two other
    # face disks; hull60 on the ball at (0, 1, 0.01i) has disks 2e-5
    # across, whose non-adjacent margins of -3.3e-9 and -2.2e-8 read as
    # contacts.
    if name == "p4_box":
        P, cfg, body = (p4_box_instance[k] for k in ("P", "cfg", "body"))
    elif name == "hull120/ellipsoid":
        P, cfg, body = _hull_on(120, 20261120, "ellipsoid:a=1.2,b=1.0",
                                (0j, 1 + 0j, 1j))
    else:
        P, cfg, body = _hull_on(60, 20261060, "ball", (0j, 1 + 0j, 0.01j))
    report = verify_configuration(cfg, body, P)
    assert report.convexity == "convex" and report.passed
    assert report.contact_graph_primal_ok is True
    assert report.contact_graph_dual_ok is True
    traced = kdisk_oracle._trace_packings(cfg, body, P)
    assert not all(p.contacts_ok and p.nondegenerate for p in traced)


@pytest.mark.parametrize("name", ["cube/ellipsoid", "hull12",
                                  "hull60/0.01i"])
def test_exact_minima_of_pairs_that_meet(name):
    # Scaled by 1 + 1e-9, every edge segment misses K and its two vertex
    # disks overlap; shrunk by 1 - 1e-9, every face plane's edge lines cut
    # into K and adjacent face disks overlap. No certificate holds, so every
    # pair takes the exact minimum, which is positive and no higher than
    # the least value on a dense grid by more than rounding.
    if name == "hull60/0.01i":
        P, cfg, body = _hull_on(60, 20261060, "ball", (0j, 1 + 0j, 0.01j))
    else:
        P, cfg, body = _refinement_case(name)
    positions = cfg.affine_vertices()[0] * (1.0 + 1e-9)
    v, w = np.array(P.edges).T
    value, certified, exact = verify._segment_margins(
        body, positions[v], positions[w] - positions[v])
    grid = np.linspace(0.0, 1.0, 2001)
    X = positions[v][:, None] + grid[:, None] * (positions[w]
                                                 - positions[v])[:, None]
    dense = body.values(X.reshape(-1, 3)).reshape(X.shape[:2]).min(axis=1)
    assert exact == P.n_edges and not certified.any()
    assert np.all(value > 0) and np.all(value <= dense + 1e-15)
    size = np.linalg.norm(cfg.normals, axis=1)
    N, d = cfg.normals / size[:, None], cfg.offsets / size * (1.0 - 1e-9)
    ends = np.array(P.edge_faces)
    value, certified, exact = verify._cap_margins(body, N[ends], d[ends])
    weights = np.stack([grid, 1.0 - grid], axis=1)
    dense = np.array([verify._phi(body, weights,
                                  np.repeat(N[e][None], len(grid), axis=0),
                                  np.repeat(d[e][None], len(grid), axis=0))[0]
                      .min() for e in ends])
    assert exact == P.n_edges and not certified.any()
    assert np.all(value > 0) and np.all(value <= dense + 1e-15)


@pytest.mark.parametrize("name", ["cube/ellipsoid", "hull12",
                                  "hull60/0.01i", "hull120"])
def test_segment_margins_match_bisection_oracle(name):
    # The segments no sample certifies take the minimum of F along their
    # line by the edge lines' Newton certificate, where the oracle bisects
    # the slope on [0, 1]: on the non-adjacent pairs and on the edge
    # segments scaled by 1 +- 1e-9, both give the same flags and count,
    # and values within the certificate's rounding bound at the oracle's
    # point.
    if name == "hull60/0.01i":
        P, cfg, body = _hull_on(60, 20261060, "ball", (0j, 1 + 0j, 0.01j))
    else:
        P, cfg, body = _refinement_case(name)
    positions = cfg.affine_vertices()[0]
    _, pairs, _, _ = verify._contact_graph(P, False)
    cases = [(positions, pairs)] + [(positions * scale, np.array(P.edges))
                                    for scale in (1.0 + 1e-9, 1.0 - 1e-9)]
    for X, ends in cases:
        A, D = X[ends[:, 0]], X[ends[:, 1]] - X[ends[:, 0]]
        value, certified, exact = verify._segment_margins(body, A, D)
        want, want_certified, want_exact, t = (
            kdisk_oracle.bisected_segment_margins(body, A, D))
        assert exact == want_exact
        assert np.array_equal(certified, want_certified)
        M = A + t[:, None] * D
        G = body.gradients(M)
        bound = bodies.ROUNDING * (2.0 + np.abs(want) + np.sqrt(
            _rowdot(M, M) * _rowdot(G, G)))
        assert np.all(np.abs(value - want) <= bound)


def test_segment_minimum_beyond_an_end_is_taken_at_that_end():
    # The lines of these segments are least at t = 3 and t = -2, outside
    # [0, 1], and no sample dips into the ball, so each segment's minimum
    # is F at its nearer end, exactly.
    A = np.array([[3.0, 1.0, 0.0], [0.0, 2.0, -2.0]])
    D = np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    value, certified, exact = verify._segment_margins(BALL, A, D)
    assert exact == 2 and not certified.any()
    assert np.array_equal(value, BALL.values(A + np.array([[1.0], [0.0]])
                                             * D))


def test_vertex_at_infinity_fails_typed():
    P, cfg, body = _hull30_on_p4()
    _, finite = cfg.affine_vertices()
    with pytest.raises(DegenerateConfiguration,
                       match="^K-disk extraction: vertex %d is at infinity$"
                             % np.flatnonzero(~finite)[0]):
        extract_kdisk_packings(cfg, body, P)
