"""Chart maps, domain objects, compactification, interval diagnostic."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz2d import families, jets
from lorentz2d.analysis import sample_grid
from lorentz2d.charts import (
    Diamond,
    Rectangle,
    compactify,
    from_null,
    full_plane,
    interval_field,
    to_null,
)
from lorentz2d.curvature import ricci_from_omega
from lorentz2d.errors import VALID, DomainError, EvaluationError, NonPositiveFactor
from lorentz2d.expressions import evaluate, parse, unparse
from lorentz2d.jets import Jet2
from lorentz2d.families import (
    factor_from_expression,
    flat_factor,
    liouville_factor,
    timelike_factor,
)

COMPACT_JACOBIAN = "0.25*sec((x + t)/2)^2*sec((x - t)/2)^2"


# ---------------------------------------------------------------------------
# Null-chart maps

def test_to_null_example():
    assert to_null(1.0, 2.0) == (3.0, 1.0)


def test_from_null_example():
    assert from_null(3.0, 1.0) == (1.0, 2.0)


@settings(max_examples=150, deadline=None)
@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
       st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_null_maps_are_mutually_inverse(t, x):
    rt, rx = from_null(*to_null(t, x))
    assert math.isclose(rt, t, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(rx, x, rel_tol=1e-12, abs_tol=1e-12)
    ru, rv = to_null(*from_null(t, x))
    assert math.isclose(ru, t, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(rv, x, rel_tol=1e-12, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Domain objects

def test_rectangle_is_open():
    box = Rectangle(-1.0, 1.0, -2.0, 2.0)
    assert box.contains(0.0, 0.0)
    assert not box.contains(1.0, 0.0)
    assert not box.contains(0.0, 2.0)
    assert not box.contains(0.0, -2.0)
    assert box.bbox() == (-1.0, 1.0, -2.0, 2.0)
    assert box != full_plane()


def test_full_plane_flags():
    plane = full_plane()
    assert plane == Rectangle(-math.inf, math.inf, -math.inf, math.inf)
    assert plane.bbox() == (-math.inf, math.inf, -math.inf, math.inf)
    assert plane.contains(1e12, -1e12)
    strip = Rectangle(-math.inf, math.inf, -1.0, 1.0)
    assert strip != plane
    assert strip.bbox() == (-math.inf, math.inf, -1.0, 1.0)


def test_diamond_membership():
    d = Diamond()
    assert d.half_width == math.pi
    assert d.contains(0.0, 0.0)
    assert d.contains(3.0, 0.1)
    assert not d.contains(1.6, 1.6)
    assert not d.contains(0.0, 3.2)
    assert not d.contains(math.pi, 0.0)
    assert d.bbox() == (-math.pi, math.pi, -math.pi, math.pi)
    assert d != full_plane()


# ---------------------------------------------------------------------------
# Compactification

def test_compactify_flat_factor_basics():
    c = compactify(flat_factor("1", "1"))
    assert c.chart == "compact"
    assert c.domain == Diamond(math.pi)
    assert c.target_curvature == 0.0
    assert c.provenance.family == "compactified"
    assert c.value(0.0, 0.0) == 0.25


def test_compactify_flat_factor_prints_jacobian():
    c = compactify(flat_factor("1", "1"))
    assert unparse(c.expression) == COMPACT_JACOBIAN


def test_compactify_tree_equals_the_hand_built_one():
    # a reference built node by node; expression nodes compare by value
    from lorentz2d.expressions import Binary, Call, Constant, Variable, substitute

    x, t, two = Variable("x"), Variable("t"), Constant(2.0)
    hu = Binary("div", Binary("add", x, t), two)
    hv = Binary("div", Binary("sub", x, t), two)
    tan_u, tan_v = Call("tan", hu), Call("tan", hv)
    jac = Binary("mul",
                 Binary("mul", Constant(0.25), Binary("pow", Call("sec", hu), two)),
                 Binary("pow", Call("sec", hv), two))
    inner = parse("exp(t) * (1 + x^2)")
    expected = Binary("mul", substitute(inner, {
        "t": Binary("div", Binary("sub", tan_u, tan_v), two),
        "x": Binary("div", Binary("add", tan_u, tan_v), two)}), jac)
    assert compactify(factor_from_expression(inner)).expression == expected
    assert compactify(flat_factor("1", "1")).expression == jac


def test_compactify_flat_matches_both_closed_forms():
    c = compactify(flat_factor("1", "1"))
    half_angle = parse(COMPACT_JACOBIAN)
    cosine_sum = parse("(cos(t) + cos(x))^(-2)")
    rng = np.random.default_rng(23)
    for _ in range(200):
        t = rng.uniform(-math.pi, math.pi)
        x = rng.uniform(-(math.pi - abs(t)) * 0.98, (math.pi - abs(t)) * 0.98)
        got = c.value(t, x)
        assert math.isclose(got, evaluate(half_angle, {"t": t, "x": x}),
                            rel_tol=1e-12)
        if abs(math.cos(t) + math.cos(x)) >= 5e-3:
            assert math.isclose(got, evaluate(cosine_sum, {"t": t, "x": x}),
                                rel_tol=1e-11)


def test_compactify_flat_stays_flat():
    c = compactify(flat_factor("1", "1"))
    for t, x in [(0.0, 0.0), (0.9, -1.1), (2.0, 0.5), (-2.8, 0.05)]:
        assert abs(ricci_from_omega(c, (t, x))) < 1e-12


def test_compactify_value_equals_jet_value_bitwise():
    c = compactify(factor_from_expression("exp(x*t/4)"))
    for t, x in [(0.3, -0.2), (1.2, 0.7), (-2.1, 0.4)]:
        assert c.jet(t, x).value == c.value(t, x)
    t = np.array([0.3, 1.2, -2.1])
    x = np.array([-0.2, 0.7, 0.4])
    assert c.jet(t, x).value.tobytes() == c.value(t, x).tobytes()


def test_compactify_preserves_scalar_curvature_pointwise():
    inner = factor_from_expression("exp(x*t/4)")
    c = compactify(inner)
    rng = np.random.default_rng(41)
    for _ in range(200):
        tt = rng.uniform(-2.0, 2.0)
        xx = rng.uniform(-(2.0 - abs(tt)), 2.0 - abs(tt))
        u = math.tan(0.5 * (xx + tt))
        v = math.tan(0.5 * (xx - tt))
        t, x = from_null(u, v)
        r_inner = ricci_from_omega(inner, (t, x))
        r_compact = ricci_from_omega(c, (tt, xx))
        assert abs(r_compact - r_inner) <= 1e-8 * max(1.0, abs(r_inner))


def test_compactify_constant_curvature_factor():
    raw = liouville_factor("l", "l", k=1.0, C=0.0, target=2.0,
                           raw_antiderivative=True)
    c = compactify(raw)
    assert c.target_curvature == 2.0
    assert abs(ricci_from_omega(c, (0.2, -0.3)) - 2.0) < 1e-8


def test_compactify_checks_positivity_at_the_compact_point():
    # the inner factor x is negative at (U, V) = (tan(-0.2), tan(-0.3)),
    # and the compact factor's own check names the compact point
    c = compactify(factor_from_expression("x"))
    for call in (c.value, c.jet):
        with pytest.raises(NonPositiveFactor, match=r"at \(0\.1, -0\.5\)"):
            call(0.1, -0.5)
    got = c.value(np.array([0.1, 0.1]), np.array([-0.5, 0.5]))
    assert math.isnan(got[0]) and got[1] > 0.0

def test_compactify_rejects_strip_domain():
    with pytest.raises(DomainError):
        compactify(timelike_factor(-4.0, 0.0, 2.0))


def test_compactify_rejects_other_charts():
    with pytest.raises(ValueError):
        compactify(compactify(flat_factor("1", "1")))


def test_compactify_null_chart_factor_matches_its_standard_chart_twin():
    # the README's R = 2 factor in u, v is evaluated at (U, V) directly;
    # on the lattice it must agree with the same factor written in t, x
    null = compactify(factor_from_expression(
        "exp(u+v) * (exp(u) - (1/4)*exp(v))^(-2)", 2.0))
    twin = compactify(factor_from_expression(
        "exp(2*x) * (exp(x+t) - (1/4)*exp(x-t))^(-2)", 2.0))
    assert null.chart == "compact" and null.domain == Diamond(math.pi)
    assert unparse(null.expression) == (
        "exp(tan((x + t)/2) + tan((x - t)/2))*(exp(tan((x + t)/2)) - "
        "1/4*exp(tan((x - t)/2)))^(-2)*(0.25*sec((x + t)/2)^2*sec((x - t)/2)^2)")
    got, want = (sample_grid(f, None, (50, 50)) for f in (null, twin))
    np.testing.assert_array_equal(got.status, want.status)
    valid = want.status == VALID
    assert valid.sum() > 1000
    np.testing.assert_allclose(got.omega[valid], want.omega[valid], rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.s2[valid], want.s2[valid], rtol=1e-12, atol=0)
    # values alone, as diagrams sample them, and as the jet's value slot
    values = sample_grid(null, None, (50, 50), with_ricci=False)
    np.testing.assert_array_equal(values.status, want.status)
    assert values.omega[valid].tobytes() == got.omega[valid].tobytes()
    assert null.value(0.3, -0.2) == null.jet(0.3, -0.2).value
    # criterion 04's bound on R in the identity checks' window
    window = valid & (want.omega >= 1e-3) & (want.omega <= 1e6)
    assert np.max(np.abs(got.ricci[window] - 2.0)) <= 1e-6


# ---------------------------------------------------------------------------
# The null-chart jet against the earlier six-slot composition
#
# ``reference_compact_jet`` keeps the compactified jet as it was built
# before: six-slot jets of the half angles, of tan and of sec, and the
# general second-order chain rule ``compose_map`` (kept here as it was in
# ``jets``).  The jet assembled in the null charts must give the same
# statuses and NaN cells and a value slot bitwise ``value_fn``'s.  Where
# the value lies in the identity checks' window [1e-3, 1e6], every slot
# must be within JET_RTOL of the reference's largest slot of the same
# order, or within FLOOR_MULTIPLE rounding floors of the reference's own
# sums.  The floor is needed: at (t, x) = (-0.200, -2.927) on the random
# flat factor the two dtx slots differ by 1.9e-13 of the largest second
# derivative, and 50-digit arithmetic puts the reference 2.3e-13 and the
# null-chart jet 9e-15 off there.  Over the four factors at 157 x 161 the
# worst slot used 8% of its bound.  Outside the window, cells down to
# subnormal values differ by a few units in their last place.

JET_RTOL = 1e-13
EPS = np.finfo(float).eps
FLOOR_MULTIPLE = 32
WINDOW = (1e-3, 1e6)
SLOTS = ("value", "dt", "dx", "dtt", "dtx", "dxx")
COMPACT_INNERS = {
    "unit": lambda: flat_factor("1", "1"),
    "raw_liouville": lambda: liouville_factor("l", "l", k=1.0, C=0.0, target=2.0,
                                              raw_antiderivative=True),
    "readme_r2": lambda: factor_from_expression(
        "exp(2*x) * (exp(x+t) - (1/4)*exp(x-t))^(-2)"),
    # criterion 06's envelopes; the cubic overflows near the diamond's corners
    "random_flat": lambda: flat_factor(
        "exp((0.131072)*sin(l) + (-0.083157)*cos(l) + (0.114480)*l)",
        "exp((0.052311) + (-0.171124)*l + (0.090417)*l^2 + (-0.121936)*l^3)"),
}


def compose_map(w, first, second):
    """Pull a jet back through a coordinate map.

    ``w`` holds partials with respect to inner coordinates (a, b);
    ``first`` and ``second`` are the jets of a and b with respect to the
    outer coordinates.  Returns the jet of the composite in the outer
    coordinates (second-order multivariate chain rule).
    """
    return jets.checked(
        w.value,
        w.dt * first.dt + w.dx * second.dt,
        w.dt * first.dx + w.dx * second.dx,
        (w.dt * first.dtt + w.dx * second.dtt
         + w.dtt * first.dt * first.dt
         + 2.0 * w.dtx * first.dt * second.dt
         + w.dxx * second.dt * second.dt),
        (w.dt * first.dtx + w.dx * second.dtx
         + w.dtt * first.dt * first.dx
         + w.dtx * (first.dt * second.dx + first.dx * second.dt)
         + w.dxx * second.dt * second.dx),
        (w.dt * first.dxx + w.dx * second.dxx
         + w.dtt * first.dx * first.dx
         + 2.0 * w.dtx * first.dx * second.dx
         + w.dxx * second.dx * second.dx),
    )


def reference_compact_jet(factor):
    """The six-slot composition of the compactified factor's jet."""

    def jet_fn(tt, xx, status=None):
        jt = jets.seed("t", (tt, xx))
        jx = jets.seed("x", (tt, xx))
        jhu = (jx + jt) * 0.5
        jhv = (jx - jt) * 0.5
        ju = jets.apply_elementary("tan", jhu)
        jv = jets.apply_elementary("tan", jhv)
        jtm = (ju - jv) * 0.5
        jxm = (ju + jv) * 0.5
        w = factor.jet(jtm.value, jxm.value, status)
        pulled = compose_map(w, jtm, jxm)
        jsu = jets.apply_elementary("sec", jhu)
        jsv = jets.apply_elementary("sec", jhv)
        jac = 0.25 * (jsu * jsu) * (jsv * jsv)
        return pulled * jac

    return jet_fn


def _compact_triple(name):
    """The inner factor, its compactification and the same with the
    reference jet."""
    inner = COMPACT_INNERS[name]()
    c = compactify(inner)
    return inner, c, dataclasses.replace(c, jet_fn=reference_compact_jet(inner))


def _diamond_cells(n_t=157, n_x=161):
    ts = -math.pi + (np.arange(n_t) + 0.5) * (2.0 * math.pi / n_t)
    xs = -math.pi + (np.arange(n_x) + 0.5) * (2.0 * math.pi / n_x)
    t, x = np.meshgrid(ts, xs, indexing="ij")
    inside = Diamond(math.pi).contains(t, x)
    return t[inside], x[inside]


def _magnitudes(w):
    return Jet2(*(np.abs(getattr(w, n)) for n in SLOTS))


def reference_terms(factor, tt, xx):
    """Per slot, the sum of |terms| that ``reference_compact_jet`` adds up
    in its pullback and its product with the Jacobian.  Both are sums of
    products, so the same formulas on the slots' magnitudes give those
    sums."""
    jt = jets.seed("t", (tt, xx))
    jx = jets.seed("x", (tt, xx))
    jhu = (jx + jt) * 0.5
    jhv = (jx - jt) * 0.5
    ju = jets.apply_elementary("tan", jhu)
    jv = jets.apply_elementary("tan", jhv)
    jtm = (ju - jv) * 0.5
    jxm = (ju + jv) * 0.5
    w = factor.jet(jtm.value, jxm.value)
    jsu = jets.apply_elementary("sec", jhu)
    jsv = jets.apply_elementary("sec", jhv)
    jac = 0.25 * (jsu * jsu) * (jsv * jsv)
    pulled = compose_map(_magnitudes(w), _magnitudes(jtm), _magnitudes(jxm))
    return jets.mul(pulled, _magnitudes(jac))


def assert_compact_jets_agree(got, want, terms):
    """The same NaN cells; in the window, each slot within JET_RTOL of the
    largest |slot| of its order in ``want``, or within FLOOR_MULTIPLE
    rounding floors eps * ``terms``."""
    shape = np.shape(want.value)
    np.testing.assert_array_equal(np.isnan(got.value), np.isnan(want.value))
    ok = (want.value >= WINDOW[0]) & (want.value <= WINDOW[1])
    for names in (("value",), ("dt", "dx"), ("dtt", "dtx", "dxx")):
        g, w, f = ([np.broadcast_to(getattr(j, n), shape)[ok] for n in names]
                   for j in (got, want, terms))
        scale = np.max(np.abs(w), axis=0)
        for name, gs, ws, fs in zip(names, g, w, f):
            bound = np.maximum(JET_RTOL * scale, FLOOR_MULTIPLE * EPS * fs)
            assert np.all(np.abs(gs - ws) <= bound), name


def _outcome(fn, *args):
    try:
        return fn(*args)
    except EvaluationError as err:
        return type(err)


@pytest.mark.parametrize("name", COMPACT_INNERS)
def test_compact_jet_matches_reference_on_arrays(name):
    inner, c, reference = _compact_triple(name)
    t, x = _diamond_cells()
    status, ref_status = (np.full(t.shape, VALID, dtype=np.int8) for _ in range(2))
    with np.errstate(all="ignore"):
        got = c.jet(t, x, status)
        want = reference.jet(t, x, ref_status)
        terms = reference_terms(inner, t, x)
        values = c.value(t, x)
    np.testing.assert_array_equal(status, ref_status)
    assert_compact_jets_agree(got, want, terms)
    ok = ~np.isnan(got.value)
    assert ok.sum() > 0.9 * t.size
    assert got.value[ok].tobytes() == values[ok].tobytes()


@pytest.mark.parametrize("name", COMPACT_INNERS)
def test_compact_jet_matches_reference_on_floats(name):
    inner, c, reference = _compact_triple(name)
    t, x = _diamond_cells()
    with np.errstate(all="ignore"):
        failed = np.isnan(reference.jet(t, x).value)
    if name in ("raw_liouville", "random_flat"):
        assert failed.any()
    # every failing cell and every ninth other one
    pick = failed | (np.arange(t.size) % 9 == 0)
    for a, b in zip(t[pick].tolist(), x[pick].tolist()):
        got, want = _outcome(c.jet, a, b), _outcome(reference.jet, a, b)
        if isinstance(want, type):
            assert got is want
            continue
        assert got.value == c.value(a, b)
        assert_compact_jets_agree(got, want, reference_terms(inner, a, b))


# ---------------------------------------------------------------------------
# Interval diagnostic

def test_interval_field_flat_examples():
    f = flat_factor("1", "1")
    assert interval_field(f, 0.0, 2.0) == 4.0
    assert interval_field(f, 1.0, 1.0) == 0.0
    assert interval_field(f, 2.0, 0.0) == -4.0


def test_interval_field_compact_spatial_axis():
    c = compactify(flat_factor("1", "1"))
    for x in (0.4, 1.3, -2.2):
        want = (1.0 + math.cos(x)) ** -2 * x * x
        assert math.isclose(interval_field(c, 0.0, x), want, rel_tol=1e-12)


def test_interval_field_null_chart_uses_uv_product():
    f = factor_from_expression("(u - 0.25*v + 1)^(-2)")
    w = f.value(0.3, -0.1)
    assert math.isclose(interval_field(f, 0.3, -0.1), w * (0.3 * -0.1),
                        rel_tol=1e-14)


def test_interval_field_vanishes_on_null_rays():
    c = compactify(flat_factor("1", "1"))
    for a in (0.3, 0.9, 1.4):
        assert interval_field(c, a, a) == 0.0
        assert interval_field(c, a, -a) == 0.0


def test_interval_field_on_arrays(monkeypatch):
    # the same product as on floats; a point in the singular band is NaN
    monkeypatch.setattr(families, "SINGULAR_EPS", 0.2)
    f = liouville_factor("0", "0", k=1.0, C=1.0, target=2.0)
    t = np.array([-0.3, 0.1, 0.2, -0.5])
    x = np.array([0.4, -0.2, 0.2, -0.5])
    got = interval_field(f, t, x)
    for k in range(3):
        assert got[k] == interval_field(f, float(t[k]), float(x[k]))
    assert math.isnan(got[3])
    u = np.array([0.3, -0.5])
    v = np.array([-0.1, 0.2])
    n = factor_from_expression("(u - 0.25*v + 1)^(-2)")
    assert interval_field(n, u, v).tolist() == [interval_field(n, 0.3, -0.1),
                                               interval_field(n, -0.5, 0.2)]
