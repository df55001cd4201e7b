"""Circle packing pipeline: radii, planar layout, spherical lift, ball configs.

The layout checks below recompute tangency/orthogonality/through-point
conditions directly from the raw circle data, independently of the library's
own residual helpers.
"""
import math

import numpy as np
import pytest

from conftest import CANONICAL_MARKS, ball_solution, get_seed
from solver_oracle import assemble_residual
from midscribe.bodies import BodyChart, make_body
from midscribe.mobius import is_infinity
from midscribe import packing
from midscribe.combinatorics import build_complex, select_frame
from midscribe.errors import LayoutInconsistency, NonConvergence
from midscribe.packing import (
    TWO_PI,
    _AngleSums,
    _box_structure,
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
            assert abs(cap.n @ t - cap.d) < 1e-9
        # tangent circles at t: cap normals and t are coplanar
        nu, nv = sph.vertex_caps[u].n, sph.vertex_caps[v].n
        assert abs(np.linalg.det(np.array([nu, nv, t]))) < 1e-9
        nf, ng = sph.face_caps[f].n, sph.face_caps[g].n
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
            assert abs(cv.n @ cf.n - cv.d * cf.d) < 1e-9


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
