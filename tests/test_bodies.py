"""Convex body gauges: descriptors, derivatives, boundary chart, blending."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midscribe import bodies
from midscribe.bodies import (BodyChart, ConvexBody, chart_inverse, make_body,
                              make_path, ray_roots, validate_body)
from midscribe.errors import (MalformedDescriptor, NotStrictlyConvex,
                              PoleViolation, RootNotFound)

DESCRIPTORS = [
    "ball",
    "ellipsoid:a=1.2,b=1.0",
    "ellipsoid:a=0.9,b=1.1",
    "superellipsoid:p=4,a=1,b=1",
    "superellipsoid:p=4,a=1.1,b=0.9",
]


def bodies_under_test():
    out = [make_body(d) for d in DESCRIPTORS]
    out.append(make_path(make_body("ellipsoid:a=1.2,b=1.0")).eval(0.37))
    out.append(make_path(make_body("superellipsoid:p=4,a=1,b=1")).eval(0.8))
    return out


def test_descriptor_grammar():
    assert make_body("ball").descriptor == "ball"
    assert make_body("ellipsoid 1.2 1.0").value(np.array([1.2, 0, 0])) == pytest.approx(0)
    with pytest.raises(MalformedDescriptor):
        make_body("")
    with pytest.raises(MalformedDescriptor):
        make_body("torus:r=2")
    with pytest.raises(MalformedDescriptor):
        make_body("ball:a=1")
    with pytest.raises(MalformedDescriptor):
        make_body("ellipsoid:a=1.2")
    with pytest.raises(MalformedDescriptor):
        make_body("ellipsoid:a=1.2,b=1.0,q=3")
    with pytest.raises(MalformedDescriptor):
        make_body("ellipsoid:a=oops,b=1")


def test_pole_must_lie_on_boundary():
    with pytest.raises(PoleViolation):
        make_body("ellipsoid:a=1.2,b=1.0,c=0.8")
    assert make_body("ellipsoid:a=1.2,b=1.0,c=1.0").descriptor.startswith("ellipsoid")


def test_superellipsoid_exponent_validation():
    with pytest.raises(MalformedDescriptor):
        make_body("superellipsoid:p=3,a=1,b=1")
    with pytest.raises(MalformedDescriptor):
        make_body("superellipsoid:p=4.5,a=1,b=1")
    with pytest.raises(MalformedDescriptor):
        make_body("superellipsoid:p=0,a=1,b=1")


def test_value_closed_forms():
    x = np.array([0.3, -0.2, 0.7])
    assert make_body("ball").value(x) == pytest.approx(x @ x - 1, abs=1e-15)
    assert make_body("ellipsoid:a=1.2,b=1.0").value(x) == pytest.approx(
        (0.3 / 1.2) ** 2 + 0.2 ** 2 + 0.7 ** 2 - 1, abs=1e-15)
    assert make_body("superellipsoid:p=4,a=1,b=1").value(x) == pytest.approx(
        0.3 ** 4 + 0.2 ** 4 + 0.7 ** 4 - 1, abs=1e-15)


def test_blend_interpolates_values():
    ball = make_body("ball")
    ell = make_body("ellipsoid:a=1.2,b=1.0")
    path = make_path(ell)
    assert isinstance(path.eval(0.0), type(ball))
    assert isinstance(path.eval(1.0), type(ell))
    x = np.array([0.5, 0.1, -0.4])
    for s in (0.25, 0.5, 0.9):
        expected = (1 - s) * ball.value(x) + s * ell.value(x)
        assert path.eval(s).value(x) == pytest.approx(expected, abs=1e-15)


def test_gradient_hessian_match_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-6
    eye = np.eye(3)
    for body in bodies_under_test():
        for _ in range(5):
            x = rng.uniform(-0.9, 0.9, size=3)
            g = body.gradient(x)
            fd_g = np.array([
                (body.value(x + h * eye[i]) - body.value(x - h * eye[i])) / (2 * h)
                for i in range(3)
            ])
            assert np.max(np.abs(g - fd_g)) < 1e-6 * max(1.0, np.max(np.abs(g)))
            H = body.hessian(x)
            fd_H = np.array([
                (body.gradient(x + h * eye[i]) - body.gradient(x - h * eye[i])) / (2 * h)
                for i in range(3)
            ])
            assert np.max(np.abs(H - fd_H)) < 1e-5 * max(1.0, np.max(np.abs(H)))
            assert np.max(np.abs(H - H.T)) < 1e-12


@pytest.mark.parametrize("descriptor", DESCRIPTORS)
def test_validate_body_accepts(descriptor):
    validate_body(make_body(descriptor))


@given(re=st.floats(-10, 10), im=st.floats(-10, 10))
@settings(max_examples=60, deadline=None)
def test_chart_round_trip(re, im):
    z = complex(re, im)
    body = make_body("ellipsoid:a=1.2,b=1.0")
    chart = BodyChart(body)
    q = chart.inverse(z)
    assert abs(body.value(q)) < 1e-12
    assert abs(chart.forward(q) - z) < 1e-10 * max(1.0, abs(z) ** 2)


@pytest.mark.parametrize("descriptor", DESCRIPTORS)
def test_chart_round_trip_all_bodies(descriptor):
    body = make_body(descriptor)
    chart = BodyChart(body)
    for z in (0j, 1 + 0j, 1j, -2.5 + 0.5j, 0.3 - 4j, 8 + 7j):
        q = chart_inverse(chart, z)
        assert abs(body.value(q)) < 1e-12
        assert abs(chart.forward(q) - z) < 1e-10 * max(1.0, abs(z) ** 2)


def test_chart_pole_maps_to_infinity():
    chart = BodyChart(make_body("ball"))
    assert np.isinf(abs(chart.forward(np.array([0.0, 0.0, 1.0]))))


class ScalarOnly(ConvexBody):
    """A body that defines only the scalar gauge methods."""

    def __init__(self, body):
        self.body = body

    def value(self, x):
        return self.body.value(x)

    def gradient(self, x):
        return self.body.gradient(x)

    def hessian(self, x):
        return self.body.hessian(x)

    @property
    def descriptor(self):
        return "scalar-only:" + self.body.descriptor


BATCHED = ("values", "value"), ("gradients", "gradient"), ("hessians", "hessian")


@pytest.mark.parametrize("body", bodies_under_test()
                         + [ScalarOnly(make_body("ellipsoid:a=1.2,b=1.0"))],
                         ids=lambda body: body.descriptor)
def test_batched_gauges_match_scalar(body):
    X = np.random.default_rng(11).uniform(-1.5, 1.5, size=(64, 3))
    for batched, scalar in BATCHED:
        got = getattr(body, batched)(X)
        want = np.array([getattr(body, scalar)(x) for x in X])
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
        assert getattr(body, batched)(np.empty((0, 3))).shape == (0,) + want.shape[1:]


def test_scalar_only_body_validates_and_paths():
    body = ScalarOnly(make_body("superellipsoid:p=4,a=1.1,b=0.9"))
    validate_body(body, n_samples=50)
    make_path(body)
    dirs = np.array([[0.6, 0.0, 0.8], [0.0, -1.0, 0.0]])
    t = ray_roots(body, np.zeros(3), dirs)
    assert np.max(np.abs(body.values(t[:, None] * dirs))) < 1e-14


class HalfSpace(ConvexBody):
    """F = z - 1: through the pole with a horizontal tangent plane there,
    but unbounded below."""

    def value(self, x):
        return float(x[2]) - 1.0

    def gradient(self, x):
        return np.array([0.0, 0.0, 1.0])

    def hessian(self, x):
        return np.zeros((3, 3))

    @property
    def descriptor(self):
        return "half-space"


def test_validate_body_rejects_unbounded_body():
    with pytest.raises(NotStrictlyConvex, match="unbounded"):
        validate_body(HalfSpace())


class FlatBall(ScalarOnly):
    """The ball's value and gradient with a vanishing hessian."""

    def hessian(self, x):
        return np.zeros((3, 3))


def test_validate_body_rejects_flat_hessian():
    with pytest.raises(NotStrictlyConvex, match="tangential hessian"):
        validate_body(FlatBall(make_body("ball")))


def test_chart_bisection_is_bounded(monkeypatch):
    chart = BodyChart(make_body("ellipsoid:a=1.2,b=1.0"))
    monkeypatch.setattr(bodies, "CHART_BISECTION_ITERATIONS", 5)
    with pytest.raises(RootNotFound, match="did not converge in 5 steps"):
        chart.inverse(0.3 - 0.7j)
