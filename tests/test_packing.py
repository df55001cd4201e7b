"""Circle packing pipeline: radii, planar layout, spherical lift, ball configs.

The layout checks below recompute tangency/orthogonality/through-point
conditions directly from the raw circle data, independently of the library's
own residual helpers.
"""
import dataclasses
import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import lift_oracle
import radius_oracle
from conftest import CANONICAL_MARKS, ball_solution, get_seed
from solver_oracle import assemble_residual
from midscribe.bodies import BodyChart, make_body
from midscribe.mobius import apply_mobius, is_infinity
from midscribe import packing
from midscribe.cli import main
from midscribe.combinatorics import build_complex, select_frame
from midscribe.errors import (DegenerateMarks, LayoutInconsistency,
                              NonConvergence)
from midscribe.io import complex_to_dict, format_complex
from midscribe.packing import (
    _CIRCLE_PARAMS,
    _LINE_PARAMS,
    TWO_PI,
    _AngleSums,
    _box_structure,
    _circle,
    _line,
    _mapped_caps,
    koebe_config,
    layout_circles,
    lift_normalize,
    planar_pattern_residuals,
    solve_radii,
    spherical_pattern_residuals,
)
from midscribe.seeds import SEED_NAMES, faces_from_coordinates


def on_circle(c, z):
    if c.kind == "line":
        return abs(((z - c.point) / c.direction).imag)
    return abs(abs(z - c.center) - c.radius)


def tangency_error(c1, c2):
    if c1.kind == "line" and c2.kind == "line":
        return abs((c1.direction / c2.direction).imag)  # parallel lines
    if c1.kind == "line":
        c1, c2 = c2, c1
    if c2.kind == "line":
        dist = abs(((c1.center - c2.point) / c2.direction).imag)
        return abs(dist - c1.radius)
    d = abs(c1.center - c2.center)
    return min(abs(d - (c1.radius + c2.radius)),
               abs(d - abs(c1.radius - c2.radius)))


def orthogonality_error(c1, c2):
    if c1.kind == "line" and c2.kind == "line":
        return abs((c1.direction / c2.direction).real)  # perpendicular
    if c1.kind == "line":
        c1, c2 = c2, c1
    if c2.kind == "line":
        return abs(((c1.center - c2.point) / c2.direction).imag)
    d2 = abs(c1.center - c2.center) ** 2
    return abs(d2 - c1.radius ** 2 - c2.radius ** 2) / max(1.0, d2)


@pytest.fixture(scope="module", params=SEED_NAMES)
def planar(request):
    P, _, frame = get_seed(request.param)
    radii = solve_radii(P, frame)
    return P, frame, radii, layout_circles(P, frame, radii)


def test_radius_targets_are_pi_or_two_pi(planar):
    _, _, radii, _ = planar
    for target in radii.targets.values():
        assert min(abs(target - math.pi), abs(target - 2 * math.pi)) < 1e-12
    assert radii.residual < 1e-12


def test_layout_geometry(planar):
    P, _, _, pat = planar
    for e in range(P.n_edges):
        u, v = P.edge_vertices(e)
        f, g = P.faces_of_edge(e)
        cu, cv = pat.vertex_circles[u], pat.vertex_circles[v]
        cf, cg = pat.face_circles[f], pat.face_circles[g]
        t = pat.tangency[e]
        if t is not None and not is_infinity(t):
            for c in (cu, cv, cf, cg):
                assert on_circle(c, t) < 1e-9
        assert tangency_error(cu, cv) < 1e-9
        assert tangency_error(cf, cg) < 1e-9
        for cvert in (cu, cv):
            for cface in (cf, cg):
                assert orthogonality_error(cvert, cface) < 1e-9


def test_library_residuals_agree(planar):
    P, frame, _, pat = planar
    res = planar_pattern_residuals(pat)
    assert max(res.values()) < 1e-9
    sph = lift_normalize(pat, CANONICAL_MARKS)
    sres = spherical_pattern_residuals(sph)
    assert max(sres.values()) < 1e-9


def test_tetrahedron_closed_form_layout():
    P, _, frame = get_seed("tetrahedron")
    radii = solve_radii(P, frame)
    # by symmetry all four finite circles have radius 1
    for key, lr in radii.log_radii.items():
        assert abs(lr) < 1e-12, key
    pat = layout_circles(P, frame, radii)
    finite_v = {k: c for k, c in pat.vertex_circles.items() if c.kind == "circle"}
    finite_f = {k: c for k, c in pat.face_circles.items() if c.kind == "circle"}
    assert len(finite_v) == 2 and len(finite_f) == 2
    centers_v = sorted((c.center.real, c.center.imag) for c in finite_v.values())
    centers_f = sorted((c.center.real, c.center.imag) for c in finite_f.values())
    assert np.allclose(centers_v, [(1, 0), (1, 2)], atol=1e-9)
    assert np.allclose(centers_f, [(0, 1), (2, 1)], atol=1e-9)
    assert pat.box_width == pytest.approx(2.0, abs=1e-9)
    assert pat.box_height == pytest.approx(2.0, abs=1e-9)
    finite_t = sorted(
        (z.real, z.imag) for z in pat.tangency.values() if not is_infinity(z))
    assert np.allclose(finite_t,
                       sorted([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]),
                       atol=1e-9)


def test_wall_edge_tangency_at_infinity(planar):
    P, frame, _, pat = planar
    assert is_infinity(pat.tangency[frame.edges[0]])
    assert sum(1 for z in pat.tangency.values() if is_infinity(z)) == 1


@pytest.mark.parametrize("marks", [CANONICAL_MARKS, (0.5 + 0.5j, -1 + 0j, 3j)])
def test_spherical_marks_placement(marks):
    P, _, frame = get_seed("cube")
    pat = layout_circles(P, frame, solve_radii(P, frame))
    sph = lift_normalize(pat, marks)
    chart = BodyChart(make_body("ball"))
    for e, z in zip(frame.edges, marks):
        assert abs(chart.forward(sph.tangency[e]) - z) < 1e-8


def test_spherical_caps_through_tangency_points():
    P, _, frame = get_seed("octahedron")
    pat = layout_circles(P, frame, solve_radii(P, frame))
    sph = lift_normalize(pat, CANONICAL_MARKS)
    for e in range(P.n_edges):
        t = sph.tangency[e]
        assert abs(np.linalg.norm(t) - 1) < 1e-12
        u, v = P.edge_vertices(e)
        f, g = P.faces_of_edge(e)
        for cap in (sph.vertex_caps[u], sph.vertex_caps[v],
                    sph.face_caps[f], sph.face_caps[g]):
            assert abs(cap[:3] @ t - cap[3]) < 1e-9
        # tangent circles at t: cap normals and t are coplanar
        nu, nv = sph.vertex_caps[u, :3], sph.vertex_caps[v, :3]
        assert abs(np.linalg.det(np.array([nu, nv, t]))) < 1e-9
        nf, ng = sph.face_caps[f, :3], sph.face_caps[g, :3]
        assert abs(np.linalg.det(np.array([nf, ng, t]))) < 1e-9


def test_orthogonal_caps_identity():
    # caps cross at right angles iff <n1,n2> = d1*d2 on the unit sphere
    P, _, frame = get_seed("cube")
    pat = layout_circles(P, frame, solve_radii(P, frame))
    sph = lift_normalize(pat, CANONICAL_MARKS)
    for v in range(P.n_vertices):
        cv = sph.vertex_caps[v]
        for f in P.vertex_faces[v]:
            cf = sph.face_caps[f]
            assert abs(cv[:3] @ cf[:3] - cv[3] * cf[3]) < 1e-9


def test_mark_changes_are_mobius_related():
    def chart_tangencies(marks):
        P, _, frame = get_seed("triangular_prism")
        pat = layout_circles(P, frame, solve_radii(P, frame))
        sph = lift_normalize(pat, marks)
        chart = BodyChart(make_body("ball"))
        return [chart.forward(sph.tangency[e]) for e in range(P.n_edges)]

    def cross_ratio(z1, z2, z3, z4):
        return (z1 - z3) * (z2 - z4) / ((z1 - z4) * (z2 - z3))

    za = chart_tangencies(CANONICAL_MARKS)
    zb = chart_tangencies((2 - 1j, 0.5j, -3 + 0j))
    for quad in ((0, 1, 2, 3), (1, 3, 5, 7), (0, 2, 4, 8)):
        ca = cross_ratio(*(za[i] for i in quad))
        cb = cross_ratio(*(zb[i] for i in quad))
        assert abs(ca - cb) < 1e-8


@pytest.mark.parametrize("name", SEED_NAMES)
def test_koebe_config_satisfies_ball_system(name):
    P, _, frame = get_seed(name)
    cfg = ball_solution(name)
    r = assemble_residual(cfg, make_body("ball"), P, frame, cfg.marked_points)
    assert np.max(np.abs(r)) < 1e-9


def test_solve_radii_deterministic():
    P, _, frame = get_seed("dodecahedron")
    a = solve_radii(P, frame)
    b = solve_radii(P, frame)
    assert a.log_radii == b.log_radii
    assert a.pinned == b.pinned


# ---------------------------------------------------------------------------
# Gauss-Seidel reference: the classical radius iteration (Collins-Stephenson)
# that the Newton solve replaced, kept unchanged as an oracle.

def _angle_sum(radii, neighbors, u):
    r = radii[u]
    return sum(2.0 * math.atan2(radii[w], r) for w in neighbors[u])


def _solve_node(radii, neighbors, u, target):
    """Monotone 1-D solve of the angle-sum equation at u, in log r."""
    ws = [radii[w] for w in neighbors[u]]

    def val_slope(x):
        r = math.exp(x)
        s = 0.0
        ds = 0.0
        for w in ws:
            s += 2.0 * math.atan2(w, r)
            ds -= 2.0 * w * r / (w * w + r * r)
        return s - target, ds

    x = math.log(radii[u])
    g, _ = val_slope(x)
    if g > 0.0:  # angle too large: grow the radius
        lo = x
        hi = x + 1.0
        while val_slope(hi)[0] > 0.0:
            lo, hi = hi, hi + 1.0
    else:
        hi = x
        lo = x - 1.0
        while val_slope(lo)[0] < 0.0:
            hi, lo = lo, lo - 1.0
    # bracketed Newton with bisection fallback
    x = 0.5 * (lo + hi)
    for _ in range(60):
        g, dg = val_slope(x)
        if abs(g) < 1e-15 * (1.0 + target):
            break
        if g > 0.0:
            lo = x
        else:
            hi = x
        step = x - g / dg if dg != 0.0 else None
        x = step if step is not None and lo < step < hi else 0.5 * (lo + hi)
        if hi - lo < 1e-17:
            break
    radii[u] = math.exp(x)


def gauss_seidel_radii(P, frame, tol=1e-13, max_sweeps=20000):
    """(log radii, pinned node) from Gauss-Seidel sweeps of node solves."""
    box = _box_structure(P, frame)
    interior = [u for u in box.nodes if box.targets[u] == TWO_PI]
    pinned = interior[0] if interior else box.nodes[0]

    radii = {u: 1.0 for u in box.nodes}
    for sweep in range(max_sweeps):
        for u in box.nodes:
            if u != pinned:
                _solve_node(radii, box.neighbors, u, box.targets[u])
        worst = max(abs(_angle_sum(radii, box.neighbors, u) - box.targets[u])
                    for u in box.nodes)
        if worst < tol:
            return {u: math.log(radii[u]) for u in box.nodes}, pinned
    raise AssertionError("Gauss-Seidel stuck at residual %.3e" % worst)


def sphere_hull_points(n, seed):
    """n random points on the unit sphere; their hull is simplicial."""
    x = np.random.default_rng(seed).normal(size=(n, 3))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def prism_points(n, anti):
    """A regular n-prism, or with the top ring turned by pi/n an antiprism."""
    angles = 2.0 * math.pi * np.arange(n) / n
    twist = math.pi / n if anti else 0.0
    return np.array([(math.cos(a), math.sin(a), -0.5) for a in angles]
                    + [(math.cos(a + twist), math.sin(a + twist), 0.5)
                       for a in angles])


GENERATED = {
    "hull12": lambda: sphere_hull_points(12, 20261012),
    "hull20": lambda: sphere_hull_points(20, 20261020),
    "prism8": lambda: prism_points(8, anti=False),
    "antiprism15": lambda: prism_points(15, anti=True),
    "hull60": lambda: sphere_hull_points(60, 20261060),
    "hull120": lambda: sphere_hull_points(120, 20261120),
}


def complex_and_frame(name):
    if name in SEED_NAMES:
        P, _, frame = get_seed(name)
        return P, frame
    points = GENERATED[name]()
    P = build_complex(faces_from_coordinates(points), n_vertices=len(points))
    return P, select_frame(P)


def test_angle_sums_derivatives_by_finite_differences():
    P, _, frame = get_seed("dodecahedron")
    box = _box_structure(P, frame)
    sums = _AngleSums(box, solve_radii(P, frame).pinned)
    x = np.random.default_rng(5).uniform(-1.0, 1.0, len(box.nodes))
    x[~sums.free] = 0.0
    F = sums.residual(x)
    theta = {u: sum(2.0 * math.atan(math.exp(x[box.nodes.index(w)] - x[i]))
                    for w in box.neighbors[u])
             for i, u in enumerate(box.nodes)}
    assert np.allclose(F, [theta[u] - box.targets[u] for u in box.nodes],
                       rtol=0.0, atol=1e-14)
    L = sums.laplacian(x).toarray()
    assert np.allclose(L, L.T, rtol=0.0, atol=0.0)
    h = 1e-6
    for j, i in enumerate(np.flatnonzero(sums.free)):
        e = np.zeros_like(x)
        e[i] = h
        grad = (sums.energy(x + e)[0] - sums.energy(x - e)[0]) / (2.0 * h)
        assert abs(grad + F[i]) < 1e-7
        dF = (sums.residual(x + e) - sums.residual(x - e)) / (2.0 * h)
        assert np.allclose(-dF[sums.free], L[:, j], rtol=0.0, atol=1e-8)


@pytest.mark.parametrize(
    "name", SEED_NAMES + ("hull12", "hull20", "prism8", "antiprism15"))
def test_newton_radii_match_gauss_seidel(name):
    P, frame = complex_and_frame(name)
    radii = solve_radii(P, frame)
    reference, pinned = gauss_seidel_radii(P, frame)
    assert radii.pinned == pinned
    assert radii.log_radii.keys() == reference.keys()
    err = max(abs(radii.log_radii[u] - reference[u]) for u in reference)
    assert err < 1e-12


@pytest.mark.parametrize("name", ["hull60", "hull120"])
def test_large_complex_radii_lay_out_and_lift(name):
    # too large for the Gauss-Seidel oracle; the layout's own contact
    # validation and the lift's residual check stand in for it
    P, frame = complex_and_frame(name)
    radii = solve_radii(P, frame)
    assert radii.residual < 1e-13
    assert radii.log_radii[radii.pinned] == 0.0
    pattern = layout_circles(P, frame, radii)
    lift_normalize(pattern, CANONICAL_MARKS)


def assert_same_radii(P, frame):
    """solve_radii gives the triplet oracle's log radii, pinned node and
    residual bit for bit."""
    got = solve_radii(P, frame)
    want, pinned, residual = radius_oracle.solve_radii(P, frame)
    assert got.pinned == pinned
    assert list(got.log_radii) == list(want)
    assert np.array_equal(bits(list(got.log_radii.values())),
                          bits(list(want.values())))
    assert bits(got.residual) == bits(residual)


@pytest.mark.parametrize("name", SEED_NAMES + tuple(GENERATED) + ("hull240",))
def test_radii_match_the_triplet_oracle(name):
    if name == "hull240":
        points = sphere_hull_points(240, 20261240)
        P = build_complex(faces_from_coordinates(points), n_vertices=240)
        assert_same_radii(P, select_frame(P))
    else:
        assert_same_radii(*complex_and_frame(name))


def test_radii_match_the_triplet_oracle_on_the_bench_corpus(monkeypatch):
    """The generated complexes of the solve benchmark at three seeds, each
    on the frame the benchmark solves it on."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "bench"))
    corpus = importlib.import_module("corpus")
    for seed in (2801, 5, 17):
        instances = corpus.build_corpus(seed, seed_names=())
        assert len(instances) == len(corpus.GENERATED)
        for inst in instances:
            assert_same_radii(inst.P, inst.frame)


def test_layout_reuses_the_box_structure_of_its_radii(monkeypatch):
    """layout_circles takes the node structure solve_radii built for the
    same (P, frame), and builds its own for radii that carry none."""
    P, _, frame = get_seed("cube")
    radii = solve_radii(P, frame)
    built = []
    box_structure = packing._box_structure

    def counted(*args):
        built.append(args)
        return box_structure(*args)

    monkeypatch.setattr(packing, "_box_structure", counted)
    shared = layout_circles(P, frame, radii)
    assert built == []
    fresh = layout_circles(P, frame, dataclasses.replace(radii, box=None))
    assert built == [(P, frame)]
    assert shared.vertex_circles == fresh.vertex_circles
    assert shared.face_circles == fresh.face_circles
    assert shared.tangency == fresh.tangency


def test_radius_solve_nonconvergence_is_typed(monkeypatch):
    P, _, frame = get_seed("dodecahedron")
    monkeypatch.setattr(packing, "RADIUS_MAX_ITERATIONS", 1)
    with pytest.raises(NonConvergence,
                       match=r"radius solve: residual \S+ after 1 iteration"):
        solve_radii(P, frame)


def test_radius_solve_nonfinite_step_is_typed(monkeypatch):
    P, _, frame = get_seed("cube")
    monkeypatch.setattr(packing.spla, "spsolve",
                        lambda A, b: np.full(len(b), np.nan))
    with pytest.raises(NonConvergence,
                       match=r"radius solve: non-finite Newton step"):
        solve_radii(P, frame)


def test_layout_check_raises_typed(monkeypatch):
    """With no slack, the planar contact checks reject every layout."""
    P, _, frame = get_seed("cube")
    radii = solve_radii(P, frame)
    monkeypatch.setattr(packing, "LAYOUT_TOL", 0.0)
    with pytest.raises(LayoutInconsistency):
        layout_circles(P, frame, radii)


def test_lift_check_raises_typed_with_residual_kinds(monkeypatch):
    """With no slack, the lift's residual check rejects the lift and names
    every residual kind it measured."""
    P, _, frame = get_seed("cube")
    planar = layout_circles(P, frame, solve_radii(P, frame))
    kinds = spherical_pattern_residuals(lift_normalize(planar,
                                                       CANONICAL_MARKS))
    monkeypatch.setattr(packing, "LIFT_TOL", 0.0)
    with pytest.raises(LayoutInconsistency,
                       match="lifted pattern residuals") as info:
        lift_normalize(planar, CANONICAL_MARKS)
    assert all(repr(kind) in str(info.value) for kind in kinds)


def line_marks(planar):
    """Marks whose Mobius map sends the tangency of the first unmarked edge
    to infinity, so the four circles through it lift to caps through N."""
    e2, e3 = planar.frame.edges[1:]
    e = min(set(range(planar.P.n_edges)) - set(planar.frame.edges))
    t = planar.tangency[e]
    return (0j, 1.0 / (planar.tangency[e2] - t),
            1.0 / (planar.tangency[e3] - t))


def bits(value):
    return np.asarray(value, dtype=float).view(np.int64)


def assert_same_lift(got, want):
    for field in ("vertex_caps", "face_caps", "tangency", "marks"):
        assert np.array_equal(bits(getattr(got, field)),
                              bits(getattr(want, field)))
    assert got.marks_z == want.marks_z
    for pattern in (got, want):
        res = spherical_pattern_residuals(pattern)
        ref = lift_oracle.spherical_pattern_residuals(pattern)
        assert list(res) == list(ref)
        assert all(bits(res[k]) == bits(ref[k]) for k in ref)


@pytest.mark.parametrize("marks", ["canonical", "other", "line"])
@pytest.mark.parametrize("name", SEED_NAMES + ("hull12", "prism8"))
def test_lift_matches_per_cap_oracle(name, marks):
    """The batched lift gives the per-cap lift's caps, tangencies, marks and
    residuals bit for bit, also when a circle's image is a line."""
    P, frame = complex_and_frame(name)
    planar = layout_circles(P, frame, solve_radii(P, frame))
    marks_z = {"canonical": CANONICAL_MARKS,
               "other": (0.3, -1.2 + 0.5j, 2j),
               "line": line_marks(planar)}[marks]
    got = lift_normalize(planar, marks_z)
    assert_same_lift(got, lift_oracle.lift_normalize(planar, marks_z))
    if marks == "line":
        caps = np.concatenate([got.vertex_caps, got.face_caps])
        assert sum(abs(cap[2] - cap[3]) < 1e-9 for cap in caps) == 4


@pytest.mark.parametrize("name", ["cube", "hull12"])
def test_lift_residuals_see_every_cap_and_tangency(name):
    """With one cap offset or one tangency point moved at a time, each by
    its own amount, the residuals over edge index arrays equal the edge
    loop's bit for bit: no cap or edge is left out of any maximum."""
    P, frame = complex_and_frame(name)
    pattern = lift_normalize(layout_circles(P, frame, solve_radii(P, frame)),
                             CANONICAL_MARKS)
    variants = []
    slots = ([("vertex_caps", v) for v in range(P.n_vertices)]
             + [("face_caps", f) for f in range(P.n_faces)])
    for k, (field, row) in enumerate(slots):
        changed = getattr(pattern, field).copy()
        changed[row, 3] += 1e-3 * (k + 1)
        variants.append(dataclasses.replace(pattern, **{field: changed}))
    for e, t in enumerate(pattern.tangency):
        moved = pattern.tangency.copy()
        moved[e] = t * (1.0 + 1e-3 * (e + 1))
        variants.append(dataclasses.replace(pattern, tangency=moved))
    for variant in variants:
        res = spherical_pattern_residuals(variant)
        ref = lift_oracle.spherical_pattern_residuals(variant)
        assert all(bits(res[k]) == bits(ref[k]) for k in ref)


@pytest.mark.parametrize("marks", ["canonical", "line"])
@pytest.mark.parametrize("name", ["cube", "hull12"])
def test_pack_writes_the_per_cap_rows(tmp_path, name, marks):
    """pack's caps and tangency points, read back from its JSON, are the
    per-cap lift's rows bit for bit."""
    P, frame = complex_and_frame(name)
    planar = layout_circles(P, frame, solve_radii(P, frame))
    marks_z = CANONICAL_MARKS if marks == "canonical" else line_marks(planar)
    spec = name
    if name not in SEED_NAMES:
        spec = tmp_path / "complex.json"
        spec.write_text(json.dumps(complex_to_dict(P)))
    out = tmp_path / "pattern.json"
    assert main(["pack", "--complex", str(spec), "--out", str(out), "--marks",
                 ",".join(format_complex(z) for z in marks_z)]) == 0
    written = json.loads(out.read_text())
    want = lift_oracle.lift_normalize(planar, marks_z)
    for key, rows in (("vertex_caps", want.vertex_caps),
                      ("face_caps", want.face_caps),
                      ("tangency_points", want.tangency)):
        assert np.array_equal(bits(written[key]), bits(rows))


FAR = _circle(1e13 + 0j, 1.0)    # every interior witness maps beyond 1e12
POINT = _circle(0.5 + 0.5j, 0.0)  # three equal boundary points


@pytest.mark.parametrize("circles", [
    [POINT], [FAR], [POINT, FAR], [FAR, POINT],
    [_circle(0.2j, 0.1), POINT, FAR], [_circle(0.2j, 0.1), FAR, POINT],
], ids=["point", "far", "point-far", "far-point", "ok-point-far",
        "ok-far-point"])
def test_failing_caps_raise_the_first_error(circles):
    """As with one cap at a time, the first failing circle decides the
    error and its message."""
    M = np.eye(2, dtype=complex)
    with pytest.raises(DegenerateMarks) as want:
        for circle in circles:
            lift_oracle.mapped_cap(circle, M)
    with pytest.raises(DegenerateMarks) as got:
        _mapped_caps(circles, M)
    assert str(got.value) == str(want.value)


def caps_or_error(make):
    """The rows [n, d] that make() returns, or its DegenerateMarks message."""
    try:
        return np.column_stack(make())
    except DegenerateMarks as exc:
        return str(exc)


def assert_caps_match_the_oracle(circles, M, monkeypatch):
    """_mapped_caps gives one cap at a time's rows or error: returns its
    rows or message and the boundary parameters it took, as (circle index,
    t). They are the oracle's where it makes every cap, or has one circle:
    on an error the oracle stops at the failing circle."""
    taken = []

    def recorded(circle, t):
        taken.append((next(k for k, c in enumerate(circles) if c is circle),
                      t))
        return BOUNDARY_POINT(circle, t)

    monkeypatch.setattr(packing.Circle, "boundary_point", recorded)
    got = caps_or_error(lambda: _mapped_caps(circles, M))
    got_taken, taken[:] = sorted(taken), []
    want = caps_or_error(lambda: np.array(
        [lift_oracle.mapped_cap(circle, M) for circle in circles]).T)
    if isinstance(want, str):
        assert got == want
    else:
        assert np.array_equal(bits(got), bits(want))
    if len(circles) == 1 or not isinstance(want, str):
        assert got_taken == sorted(taken)
    return got, got_taken


BOUNDARY_POINT = packing.Circle.boundary_point


def pole_at(z):
    """z -> 1 / (z - pole): the Mobius map with its pole at z."""
    return np.array([[0.0, 1.0], [1.0, -z]], dtype=complex)


DISK = _circle(0.3 + 0.2j, 0.7)
WALL = _line(0.5j, 1 + 1j, 2.0 + 0j)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("circle, t", [
    (DISK, _CIRCLE_PARAMS[0]), (DISK, _CIRCLE_PARAMS[2]),
    (WALL, _LINE_PARAMS[1])], ids=["disk-first", "disk-last", "line"])
def test_boundary_point_on_the_pole_is_moved(monkeypatch, circle, t):
    """A boundary point that maps to infinity is moved along the circle by
    0.123, as one cap at a time moved it."""
    M = pole_at(circle.boundary_point(t))
    assert is_infinity(apply_mobius(M, circle.boundary_point(t)))
    caps, taken = assert_caps_match_the_oracle(
        [_circle(-1.0 + 0j, 0.2), circle], M, monkeypatch)
    assert not isinstance(caps, str)
    assert (1, t + 0.123) in taken and len(taken) == 7


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_boundary_points_past_the_bound_use_up_the_retries(monkeypatch):
    """Every boundary point maps beyond 1e30 however often it is moved, so
    all eight retries run; the lifts then span no plane. DISK has no usable
    witness either, and whichever circle comes first decides the error."""
    M = np.array([[1e31, 0.0], [0.0, 1.0]], dtype=complex)
    unit = _circle(0j, 1.0)
    for circles in ([unit], [unit, DISK]):
        message, taken = assert_caps_match_the_oracle(circles, M, monkeypatch)
        assert "do not span a unique plane" in message
        assert len(taken) == 3 * 9 * len(circles)
    tried = _CIRCLE_PARAMS[0]
    for _ in range(8):
        tried += 0.123
    assert (0, tried) in taken
    message, _ = assert_caps_match_the_oracle([DISK, unit], M, monkeypatch)
    assert message == "no usable interior witness for a circle"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", ["disk-center", "line-first", "tiny-disk",
                                  "none-left"])
def test_unusable_first_witnesses_are_skipped(monkeypatch, case):
    """Witnesses that map to infinity or beyond 1e12 are passed over for
    the next one, or fail the circle when none is left, as one cap at a
    time did."""
    if case == "disk-center":  # the center maps to infinity
        circles, M = [DISK], pole_at(DISK.center)
    elif case == "line-first":
        n = WALL.disk_side_normal()
        circles = [DISK, WALL]
        M = pole_at(WALL.point + n * 1.0 + WALL.direction * 0.1 * 1.0)
    elif case == "tiny-disk":
        # pole at the second witness; the first maps beyond 1e12 and the
        # third is the first usable one
        tiny = _circle(0.1 + 0.1j, 2.8e-12)
        circles, M = [tiny], pole_at(tiny.center + 0.31 * tiny.radius)
    else:  # every witness maps beyond 1e12
        tiny = _circle(0.1 + 0.1j, 1e-13)
        circles, M = [DISK, tiny], pole_at(tiny.center)
    assert_caps_match_the_oracle(circles, M, monkeypatch)
    if case in ("disk-center", "line-first"):
        assert not isinstance(caps_or_error(lambda: _mapped_caps(circles, M)),
                              str)
    if case == "none-left":
        assert (caps_or_error(lambda: _mapped_caps(circles, M))
                == "no usable interior witness for a circle")
