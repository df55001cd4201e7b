"""Mobius transforms on the extended plane and spherical caps."""
import numpy as np
import pytest

import lift_oracle
from midscribe.bodies import Ball, BodyChart
from midscribe.errors import DegenerateMarks
from lift_oracle import apply_mobius, lift_to_sphere
from midscribe.mobius import (
    INFINITY,
    cap_through_points,
    is_infinity,
    mobius_through,
)

sphere_chart = BodyChart(Ball()).forward


def test_three_point_map_closed_form():
    # (1,2,3) -> (0,1,inf) is z -> -(z-1)/(z-3)
    M = mobius_through((1, 2, 3), (0, 1, INFINITY))
    assert abs(apply_mobius(M, 1)) < 1e-12
    assert abs(apply_mobius(M, 2) - 1) < 1e-12
    assert is_infinity(apply_mobius(M, 3))
    assert abs(apply_mobius(M, 5) - (-2)) < 1e-12
    assert abs(apply_mobius(M, 0) - (-1 / 3)) < 1e-12


def test_pole_and_infinity_handling():
    M = mobius_through((0, 1, 1j), (1j, -1, 3 + 0j))
    w = apply_mobius(M, INFINITY)
    # M(inf) = a/c, finite here, and maps back under the inverse
    assert not is_infinity(w)


def cross_ratio(z1, z2, z3, z4):
    return (z1 - z3) * (z2 - z4) / ((z1 - z4) * (z2 - z3))


def test_cross_ratio_invariance():
    rng = np.random.default_rng(11)
    for _ in range(20):
        src = rng.normal(size=3) + 1j * rng.normal(size=3)
        dst = rng.normal(size=3) + 1j * rng.normal(size=3)
        M = mobius_through(tuple(src), tuple(dst))
        zs = rng.normal(size=4) + 1j * rng.normal(size=4)
        ws = [apply_mobius(M, z) for z in zs]
        assert abs(cross_ratio(*ws) - cross_ratio(*zs)) < 1e-9


def test_mobius_through_hits_targets():
    rng = np.random.default_rng(3)
    src = tuple(rng.normal(size=3) + 1j * rng.normal(size=3))
    dst = tuple(rng.normal(size=3) + 1j * rng.normal(size=3))
    M = mobius_through(src, dst)
    for z, w in zip(src, dst):
        assert abs(apply_mobius(M, z) - w) < 1e-12


def test_lift_chart_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(25):
        z = complex(rng.normal(), rng.normal()) * rng.uniform(0.1, 5)
        q = lift_to_sphere(z)
        assert abs(np.linalg.norm(q) - 1) < 1e-14
        assert abs(sphere_chart(q) - z) < 1e-12 * max(1.0, abs(z) ** 2)
    assert np.allclose(lift_to_sphere(INFINITY), [0, 0, 1])
    assert is_infinity(sphere_chart(np.array([0.0, 0.0, 1.0])))


def test_cap_through_points_contains_interior():
    pts = [lift_to_sphere(z) for z in (1, 1j, -1)]
    interior = lift_to_sphere(0)
    n, d = cap_through_points(*pts, interior)
    assert abs(np.linalg.norm(n) - 1) < 1e-12
    for p in pts:
        assert abs(n @ p - d) < 1e-12
    assert n @ interior - d > 0


def test_cap_through_collinear_points_raises():
    pts = [lift_to_sphere(z) for z in (0, 1, 2)]  # on a common circle through inf
    # three points on the real axis plus any interior point off that circle
    interior = lift_to_sphere(1j)
    n, d = cap_through_points(*pts, interior)
    assert abs(n @ lift_to_sphere(5) - d) < 1e-12  # whole real axis on the cap edge
    with pytest.raises(DegenerateMarks):
        cap_through_points(pts[0], pts[0], pts[1], interior)


def test_stacked_caps_match_one_cap_at_a_time():
    # one stacked SVD and row-wise dot products give each cap the bits of
    # its own SVD, norm and dot product
    rng = np.random.default_rng(20261019)
    P = rng.normal(size=(500, 4, 3))
    P /= np.linalg.norm(P, axis=2, keepdims=True)
    n, d = cap_through_points(P[:, 0], P[:, 1], P[:, 2], P[:, 3])
    assert n.shape == (500, 3) and d.shape == (500,)
    for k in range(500):
        n_k, d_k = lift_oracle.cap_through_points(*P[k])
        assert np.array_equal(n[k].view(np.int64), n_k.view(np.int64))
        assert d[k].view(np.int64) == np.float64(d_k).view(np.int64)
