"""Chart maps, domain objects, compactification, interval diagnostic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz2d.charts import (
    Diamond,
    Rectangle,
    Region,
    compactify,
    diamond,
    from_null,
    full_plane,
    interval_field,
    to_null,
)
from lorentz2d.curvature import ricci_from_omega
from lorentz2d.errors import SINGULAR, VALID, DomainError
from lorentz2d.expressions import evaluate, parse, unparse
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
    assert box.is_bounded
    assert not box.is_full_plane


def test_full_plane_flags():
    plane = full_plane()
    assert plane.is_full_plane
    assert not plane.is_bounded
    assert plane.contains(1e12, -1e12)
    strip = Rectangle(-math.inf, math.inf, -1.0, 1.0)
    assert not strip.is_full_plane
    assert not strip.is_bounded


def test_diamond_membership():
    d = diamond()
    assert d.half_width == math.pi
    assert d.contains(0.0, 0.0)
    assert d.contains(3.0, 0.1)
    assert not d.contains(1.6, 1.6)
    assert not d.contains(0.0, 3.2)
    assert not d.contains(math.pi, 0.0)
    assert d.bbox() == (-math.pi, math.pi, -math.pi, math.pi)
    assert d.is_bounded
    assert not d.is_full_plane


def test_region_wraps_predicate():
    disc = Region(lambda t, x: t * t + x * x < 1.0, (-1.0, 1.0, -1.0, 1.0))
    assert disc.contains(0.5, 0.5)
    assert not disc.contains(0.9, 0.9)
    assert disc.bbox() == (-1.0, 1.0, -1.0, 1.0)
    assert disc.is_bounded


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


def test_compactify_rejects_strip_domain():
    with pytest.raises(DomainError):
        compactify(timelike_factor(-4.0, 0.0, 2.0))


def test_compactify_rejects_other_charts():
    with pytest.raises(ValueError):
        compactify(factor_from_expression("(u - 0.25*v + 1)^(-2)"))
    with pytest.raises(ValueError):
        compactify(compactify(flat_factor("1", "1")))


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


def test_interval_field_on_arrays():
    # the same product as on floats; a failing point is NaN and a point in
    # the singular band is marked in ``status``
    f = liouville_factor("0", "0", k=1.0, C=1.0, target=2.0, singular_eps=0.2)
    t = np.array([-0.3, 0.1, 0.2, -0.5])
    x = np.array([0.4, -0.2, 0.2, -0.5])
    status = np.full(4, VALID, dtype=np.int8)
    got = interval_field(f, t, x, status)
    assert status.tolist() == [VALID, VALID, VALID, SINGULAR]
    for k in range(3):
        assert got[k] == interval_field(f, float(t[k]), float(x[k]))
    assert math.isnan(got[3])
    u = np.array([0.3, -0.5])
    v = np.array([-0.1, 0.2])
    n = factor_from_expression("(u - 0.25*v + 1)^(-2)")
    assert interval_field(n, u, v).tolist() == [interval_field(n, 0.3, -0.1),
                                               interval_field(n, -0.5, 0.2)]
