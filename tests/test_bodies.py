"""Convex body gauges: descriptors, derivatives, boundary chart, blending."""
import ast
import cmath
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gauge_oracle
from midscribe import bodies, verify
from midscribe.bodies import (Ball, BodyChart, BodyPath, ConvexBody,
                              make_body, make_path, ray_roots, validate_body)
from midscribe.cli import MAX_MARK
from midscribe.errors import (MalformedDescriptor, NotStrictlyConvex,
                              PathConvexityFailure, PoleViolation,
                              RootNotFound)

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
    # non-finite values, a repeated key, semi-axes whose 1/a^2 is not a
    # finite float (underflow to zero, overflow to inf) or raises, and
    # semi-axes whose gradients, their norms or the Hessians overflow on the
    # body; all rejected without a floating-point warning
    for bad in ("ellipsoid:a=nan,b=1", "ellipsoid:a=1,b=inf",
                "ellipsoid 1.2 nan", "ellipsoid:a=1,a=2,b=1",
                "ellipsoid:a=1e-160,b=1", "ellipsoid:a=1e-200,b=1",
                "ellipsoid:a=1e300,b=1", "ellipsoid:a=1,b=1e-200",
                "ellipsoid:a=1e-154,b=1", "ellipsoid:a=1,b=1.05e-154",
                "ellipsoid:a=1.1e-154,b=1", "ellipsoid:a=1e-90,b=1"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MalformedDescriptor):
                make_body(bad)


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
    for p in ("nan", "inf", "1e300", "%d" % (2 ** 53 + 2)):
        with pytest.raises(MalformedDescriptor):
            make_body("superellipsoid:p=%s,a=1,b=1" % p)
    # semi-axes whose gauge or its derivatives overflow on the body or on
    # the rays that find it, rejected without a floating-point warning
    for axes in ("a=1e-154,b=1", "a=1,b=1e-160", "a=1e-200,b=1",
                 "a=1e-153,b=1"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MalformedDescriptor, match="not finite"):
                make_body("superellipsoid:p=4,%s" % axes)


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
    q = chart.inverse([z])[0]
    assert abs(body.value(q)) < 1e-12
    assert abs(chart.forward(q) - z) < 1e-10 * max(1.0, abs(z) ** 2)


@pytest.mark.parametrize("descriptor", DESCRIPTORS)
def test_chart_round_trip_all_bodies(descriptor):
    body = make_body(descriptor)
    chart = BodyChart(body)
    zs = (0j, 1 + 0j, 1j, -2.5 + 0.5j, 0.3 - 4j, 8 + 7j)
    for z, q in zip(zs, chart.inverse(zs)):
        assert abs(body.value(q)) < 1e-12
        assert abs(chart.forward(q) - z) < 1e-10 * max(1.0, abs(z) ** 2)


@pytest.mark.parametrize(
    "body", [make_body(d) for d in DESCRIPTORS]
    + [make_path(make_body(d)).eval(s) for d in DESCRIPTORS
       for s in (0.1, 0.37, 0.71, 0.999)],
    ids=lambda body: body.descriptor)
def test_chart_round_trip_just_below_max_mark(body):
    # the largest marks the CLI accepts still round-trip; from about 2e7 on
    # they do not (2e7 on the ball comes back 5.4e4 off)
    radius = 0.999 * MAX_MARK
    zs = [radius * cmath.exp(2j * math.pi * k / 64) for k in range(64)]
    chart = BodyChart(body)
    for z, q in zip(zs, chart.inverse(zs)):
        assert abs(body.value(q)) < 1e-12
        assert abs(chart.forward(q) - z) < 1e-10 * abs(z) ** 2


CHART_POINTS = (0j, 1e-9 + 0j, 1e6 + 1e6j, -1 - 0j, complex(-1.0, -0.0),
                complex(math.inf, 0.0), 0.3 - 1.2j, -2.5 + 0.5j, 8 + 7j)


@pytest.mark.parametrize(
    "body", [make_body(d) for d in DESCRIPTORS]
    + [make_path(make_body(d)).eval(s) for d in DESCRIPTORS for s in (0.3, 0.77)],
    ids=lambda body: body.descriptor)
def test_chart_inverse_matches_scalar_oracle(body):
    chart = BodyChart(body)
    got = chart.inverse(CHART_POINTS)
    want = np.array([gauge_oracle.chart_inverse(body, z) for z in CHART_POINTS])
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert chart.inverse([]).shape == (0, 3)
    assert np.array_equal(chart.inverse([complex(math.inf, 1.0)]),
                          [[0.0, 0.0, 1.0]])
    assert cmath.isinf(chart.forward(got[5]))


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
    # the scalar methods, and the scalar formulas the built-in bodies had
    # before they became one-row views of the batched ones
    X = np.random.default_rng(11).uniform(-1.5, 1.5, size=(64, 3))
    for batched, scalar in BATCHED:
        got = getattr(body, batched)(X)
        want = np.array([getattr(body, scalar)(x) for x in X])
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        oracle = getattr(gauge_oracle, "scalar_" + scalar)
        np.testing.assert_array_equal(got, [oracle(body, x) for x in X])
        assert getattr(body, batched)(np.empty((0, 3))).shape == (0,) + want.shape[1:]


@pytest.mark.parametrize("descriptor", ["ellipsoid:a=1.2,b=0.9",
                                        "superellipsoid:p=4,a=1.1,b=0.9"])
def test_cached_gauge_constants_keep_body_identity(descriptor):
    """A body that has cached its per-body constants by evaluating stays
    equal to, hashes like and reads like a fresh one, and evaluates alike."""
    used, fresh = make_body(descriptor), make_body(descriptor)
    X = np.random.default_rng(3).uniform(-1.5, 1.5, size=(8, 3))
    first = [getattr(used, batched)(X) for batched, _ in BATCHED]
    assert used == fresh and hash(used) == hash(fresh)
    assert used.descriptor == fresh.descriptor == descriptor
    assert repr(used) == repr(fresh)
    for (batched, _), got in zip(BATCHED, first):
        np.testing.assert_array_equal(getattr(used, batched)(X), got)
        np.testing.assert_array_equal(getattr(fresh, batched)(X), got)


class NoGauge(ConvexBody):
    """A body that defines neither method set."""

    descriptor = "no-gauge"


def test_body_without_gauge_methods_raises():
    body = NoGauge()
    for batched, scalar in BATCHED:
        with pytest.raises(NotImplementedError, match="NoGauge defines "
                           "neither %s nor %s" % (scalar, batched)):
            getattr(body, scalar)(np.zeros(3))
        with pytest.raises(NotImplementedError, match="NoGauge defines "
                           "neither %s nor %s" % (scalar, batched)):
            getattr(body, batched)(np.zeros((2, 3)))


SCALAR_GAUGE = {"value", "gradient", "hessian"}


def test_scalar_gauge_methods_only_in_convex_body():
    # the built-in bodies and every caller in the package use the batched
    # gauges; the scalar ones exist only as ConvexBody's one-row views and
    # row-loop defaults
    found = []
    for path in sorted(Path(bodies.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "ConvexBody"
                  for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if id(node) in inside:
                continue
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in SCALAR_GAUGE):
                found.append("%s:%d calls .%s()" % (path.name, node.lineno,
                                                    node.func.attr))
            if (isinstance(node, ast.FunctionDef)
                    and node.name in SCALAR_GAUGE):
                found.append("%s:%d defines %s" % (path.name, node.lineno,
                                                   node.name))
    assert found == []


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


def test_validate_body_rejects_non_finite_gauge():
    # 1/a**2 is inf, so the gauge is NaN at the pole and the origin, where
    # every comparison of the pole and origin checks is False
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(FloatingPointError, match="not finite"):
            validate_body(bodies.Ellipsoid(a=1e-160, b=1.0))


def sampled_path(end):
    """The path check make_path ran before: validate 11 blends from the ball."""
    path = BodyPath(start=Ball(), end=end)
    for k in range(11):
        s = k / 10.0
        try:
            validate_body(path.eval(s), n_samples=100)
        except (NotStrictlyConvex, PoleViolation) as exc:
            raise PathConvexityFailure("body path invalid at s=%.1f: %s" % (s, exc))
    return path


@pytest.mark.parametrize(
    "end", [make_body(d) for d in DESCRIPTORS]
    + [ScalarOnly(make_body("superellipsoid:p=4,a=1.1,b=0.9"))],
    ids=lambda body: body.descriptor)
def test_make_path_validates_end_only(end, monkeypatch):
    calls = []
    monkeypatch.setattr(bodies, "validate_body",
                        lambda body, n_samples: calls.append(body)
                        or validate_body(body, n_samples))
    assert make_path(end) == sampled_path(end)
    assert calls == [end]


@pytest.mark.parametrize("end", [FlatBall(make_body("ball")), HalfSpace()],
                         ids=lambda body: body.descriptor)
def test_make_path_rejects_invalid_end(end):
    with pytest.raises(PathConvexityFailure, match=r"invalid at s=1\.0") as new:
        make_path(end)
    with pytest.raises(PathConvexityFailure) as old:
        sampled_path(end)
    assert str(new.value) == str(old.value)


def open_certificate(m):
    """Leave every chord of BodyChart.inverse to the bisection fallback."""
    def never(body, dirs, lo, hi, t):
        points = bodies._CHORD_ORIGIN + t[:, None] * dirs
        return np.zeros(len(t), dtype=bool), t, body.values(points)

    m.setattr(bodies, "_certified_chords", never)


def test_chart_bisection_is_bounded(monkeypatch):
    # the ellipsoid's chords are all certified, so the fallback is forced
    chart = BodyChart(make_body("ellipsoid:a=1.2,b=1.0"))
    open_certificate(monkeypatch)
    monkeypatch.setattr(bodies, "CHART_BISECTION_ITERATIONS", 5)
    with pytest.raises(RootNotFound, match="did not converge in 5 steps"):
        chart.inverse([0.3 - 0.7j])


def _seeded_chart_points(n=400, seed=20261014):
    rng = np.random.default_rng(seed)
    zs = [complex(x, y) for x, y in rng.normal(scale=2.0, size=(n, 2))]
    return zs + [1e-9 + 0j, 1e6 + 1e6j, 0j, complex(-0.0, 0.0),
                 complex(0.0, -0.0), complex(-0.0, -0.0), -1 - 0j,
                 complex(-1.0, -0.0), complex(0.5, -0.0)]


BISECTION_ZS = _seeded_chart_points()
BLENDS = [make_path(make_body(d)).eval(s)
          for d in DESCRIPTORS for s in (0.1, 0.37, 0.71, 0.999)]


def lockstep_chart_inverse(body, zs, monkeypatch):
    """BodyChart.inverse before its bracket certificate: every chord
    bisected in lockstep by the oracle, one values call per halving."""
    with monkeypatch.context() as m:
        open_certificate(m)
        m.setattr(bodies, "_bisect_polish", gauge_oracle.bisect_polish)
        return BodyChart(body).inverse(zs)


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("body", BLENDS, ids=lambda body: body.descriptor)
def test_bisect_chords_matches_lockstep_oracle(body, monkeypatch):
    # with the certificate forced open, every chord takes the fallback
    want = lockstep_chart_inverse(body, BISECTION_ZS, monkeypatch)
    open_certificate(monkeypatch)
    chart = BodyChart(body)
    assert_bitwise_equal(chart.inverse(BISECTION_ZS), want)
    triples = [chart.inverse(BISECTION_ZS[k:k + 3])
               for k in range(0, len(BISECTION_ZS), 3)]
    assert_bitwise_equal(np.concatenate(triples), want)


class CountingValues(ConvexBody):
    """Delegates to a body and counts its batched values and gradients
    calls."""

    def __init__(self, body):
        self.body = body
        self.values_calls = 0
        self.gradients_calls = 0

    def values(self, X):
        self.values_calls += 1
        return self.body.values(X)

    def gradients(self, X):
        self.gradients_calls += 1
        return self.body.gradients(X)

    def hessians(self, X):
        return self.body.hessians(X)

    @property
    def descriptor(self):
        return self.body.descriptor


class SlopeAlongX(ConvexBody):
    """gradients(X) = X: along Q + t (1, 0, 0) with Q = (-r, 0, 0) the slope
    is t - r, which is < 0 exactly where t < r. Counts its gradients
    calls."""

    def __init__(self):
        self.gradients_calls = 0

    def gradients(self, X):
        self.gradients_calls += 1
        return np.asarray(X, dtype=float)

    @property
    def descriptor(self):
        return "slope-along-x"


def synthetic_brackets():
    """(lo, hi, roots) of rows whose sign changes at roots: random rows, a
    root at lo, one at the first midpoint and one above hi, a bracket 1e20
    wide that no budget closes, and a row narrow on entry, which is still
    halved once."""
    rng = np.random.default_rng(20261022)
    lo = rng.uniform(-3.0, 2.0, 12)
    hi = lo + rng.uniform(1e-3, 4.0, 12)
    roots = lo + rng.uniform(0.0, 1.0, 12) * (hi - lo)
    roots[0] = lo[0]
    roots[1] = 0.5 * (lo[1] + hi[1])
    roots[2] = hi[2] + 1.0
    lo[3] = -1e20
    lo[4], hi[4], roots[4] = 0.3, 0.3 + 1e-15, 0.3 + 4e-16
    return lo, hi, roots


@pytest.mark.parametrize("budget", ["0", "1", "full"])
def test_verified_bisection_matches_lockstep(budget, monkeypatch):
    # verify._bisect_slopes gives the lockstep brackets bit for bit, with
    # one gradients call per halving: the 1e20-wide row takes them all
    lo, hi, roots = synthetic_brackets()
    budget = {"0": 0, "1": 1, "full": verify.LINE_BISECTIONS}[budget]
    Q = np.zeros((len(lo), 3))
    Q[:, 0] = -roots
    U = np.tile([1.0, 0.0, 0.0], (len(lo), 1))
    monkeypatch.setattr(verify, "LINE_BISECTIONS", budget)
    monkeypatch.setattr(gauge_oracle, "LINE_BISECTIONS", budget)
    body = SlopeAlongX()
    got = verify._bisect_slopes(body, Q, U, lo, hi)
    want = gauge_oracle.bisect_slopes(SlopeAlongX(), Q, U, lo, hi)
    for g, w in zip(got, want):
        assert_bitwise_equal(g, w)
    assert body.gradients_calls == budget
    if budget:
        assert got[1][3] - got[0][3] > 1e-14  # 1e20 wide stays open
        assert got[1][4] - got[0][4] < hi[4] - lo[4]


@pytest.mark.parametrize("body", bodies_under_test(),
                         ids=lambda body: body.descriptor)
def test_ray_bisection_matches_lockstep_oracle(body, monkeypatch):
    dirs = bodies._spiral_directions(150)
    origins = 0.1 * np.roll(dirs, 1, axis=0)
    monkeypatch.setattr(bodies, "RAY_NEWTON_ITERATIONS", 0)

    def roots():
        return [ray_roots(body, np.zeros(3), dirs),
                ray_roots(body, origins, dirs),
                ray_roots(body, origins[:5], dirs[:5])]

    got = roots()
    monkeypatch.setattr(bodies, "_bisect_polish", gauge_oracle.bisect_polish)
    want = roots()
    for g, w in zip(got, want):
        assert_bitwise_equal(g, w)


THREE_MARKS = [(0j, 1 + 0j, 1j), (0.3, -1.2 + 0.5j, 2j)]


@pytest.mark.parametrize("marks", THREE_MARKS)
def test_three_mark_inverse_gauge_call_budget(marks):
    # doubling hi and halving lo (2 or 3 values calls), the certificate of
    # the bisection bracket holding the bracket's seed, which is the root
    # (1 values), and the two polish steps, the first from the value the
    # certificate took (2 gradients, 1 values): 4 and 5 values calls, 2
    # gradients calls. The verified bisection took 6 and 7 values calls
    # and 3 gradients calls, Newton from hi 19-22 gauge calls, and halving
    # one step per call about 50
    counted = CountingValues(make_path(make_body("ellipsoid:a=1.2,b=1.0"))
                             .eval(0.37))
    BodyChart(counted).inverse(marks)
    assert counted.values_calls <= 5
    assert counted.gradients_calls <= 2


@pytest.mark.parametrize("marks, budget", zip(THREE_MARKS, (14, 17)))
def test_three_mark_inverse_gauge_call_budget_on_a_quartic_blend(marks,
                                                                  budget):
    # the quadratic seed is not the root of a p = 4 blend, so the first
    # certificate fails and Newton takes 4 or 5 steps from its bracket's
    # midpoint, the first without a values call, before the second
    # certificate and the polish: 14 and 17 gauge calls, against 17 and 20
    # by the verified bisection
    counted = CountingValues(
        make_path(make_body("superellipsoid:p=4,a=1,b=1")).eval(0.37))
    BodyChart(counted).inverse(marks)
    assert counted.values_calls + counted.gradients_calls <= budget


@pytest.mark.parametrize("desc", ["ball", "ellipsoid:a=1.2,b=1.0",
                                  "ellipsoid:a=0.9,b=1.1"])
def test_quadric_chord_seeds_are_exact(desc, monkeypatch):
    # a ball or ellipsoid blend is quadratic along every chord, so the seed
    # fitted through the bracket is its root to rounding, and the
    # certificate closes the chord there without a Newton step; only a
    # root within rounding of an end of its bisection bracket (at most 4
    # of 409 chords here) goes on to Newton. The far point 1e6 + 1e6i is
    # left out: its root t ~ 1e-12 is below the gauge's rounding near N
    zs = [z for z in BISECTION_ZS if abs(z) < 1e3]
    a, b = (1.0, 1.0) if desc == "ball" else (
        float(v.split("=")[1]) for v in desc.split(":")[1].split(","))
    seeds, closed = [], []
    seed, certified = bodies._chord_seeds, bodies._certified_chords
    monkeypatch.setattr(bodies, "_chord_seeds",
                        lambda *args: seeds.append(seed(*args)) or seeds[-1])

    def first(*args):
        out = certified(*args)
        if not closed:
            closed.append(out[0])
        return out

    monkeypatch.setattr(bodies, "_certified_chords", first)
    x, y = np.array([z.real for z in zs]), np.array([z.imag for z in zs])
    for s in (0.1, 0.37, 0.71, 0.999):
        seeds.clear()
        closed.clear()
        BodyChart(make_path(make_body(desc)).eval(s)).inverse(zs)
        root = 4.0 / ((1 - s + s / a ** 2) * x * x
                      + (1 - s + s / b ** 2) * y * y + 4.0)
        assert np.all(np.abs(seeds[0] - root) <= 8 * bodies.EPS * root)
        assert np.count_nonzero(~closed[0]) <= 4


@pytest.mark.parametrize("body", [make_body(d) for d in DESCRIPTORS] + BLENDS,
                         ids=lambda body: body.descriptor)
def test_certified_chart_inverse_matches_bisection(body, monkeypatch):
    # the certified bracket is the one the bisection ends in wherever F's
    # rounding does not straddle one of its midpoints, which holds on
    # every row here: the roots equal the bisection's bit for bit. The
    # fallback bisects at most 3 of these 409 chords on a ball or
    # ellipsoid blend, and up to 31 on p = 4 bodies and their blends near
    # s = 1, whose quadratic seed can lie left of the gauge's minimum along
    # the chord, where Newton cannot start
    finite = [z for z in CHART_POINTS if not cmath.isinf(z)]
    bisected = np.array([gauge_oracle.bisected_chart_inverse(body, z)
                         for z in finite])
    assert_bitwise_equal(BodyChart(body).inverse(finite), bisected)
    want = lockstep_chart_inverse(body, BISECTION_ZS, monkeypatch)
    bisect = bodies._bisect_polish
    fallback = []

    def counted(body, origin, dirs, *args):
        fallback.append(len(dirs))
        return bisect(body, origin, dirs, *args)

    monkeypatch.setattr(bodies, "_bisect_polish", counted)
    assert_bitwise_equal(BodyChart(body).inverse(BISECTION_ZS), want)
    quartic = "superellipsoid" in body.descriptor
    assert sum(fallback) <= (31 if quartic else 3)
