"""Second-order forward-mode jet arithmetic tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz2d.errors import DomainError
from lorentz2d.jets import (
    Jet2,
    add,
    apply_elementary,
    compose,
    compose_null,
    div,
    from_null,
    lift,
    mul,
    powc,
    null_product,
    seed,
    sub,
    to_null,
)
from test_charts import compose_map


# ---------------------------------------------------------------------------
# Seeds and constants

def test_seed_standard_chart():
    assert seed("t", (1.0, 2.0)) == Jet2(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    assert seed("x", (1.0, 2.0)) == Jet2(2.0, 0.0, 1.0, 0.0, 0.0, 0.0)


def test_seed_null_chart_aliases():
    assert seed("u", (1.0, 2.0)) == seed("t", (1.0, 2.0))
    assert seed("v", (1.0, 2.0)) == seed("x", (1.0, 2.0))


def test_seed_unknown_coordinate():
    with pytest.raises(ValueError):
        seed("y", (0.0, 0.0))


def test_lift_is_constant_jet():
    assert lift(3) == Jet2(3.0, 0.0, 0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Arithmetic: worked second-order examples

def test_square_of_coordinate():
    t = seed("t", (3.0, 0.0))
    assert mul(t, t) == Jet2(9.0, 6.0, 0.0, 2.0, 0.0, 0.0)


def test_bilinear_product_mixed_partial():
    t = seed("t", (2.0, 5.0))
    x = seed("x", (2.0, 5.0))
    assert mul(t, x) == Jet2(10.0, 5.0, 2.0, 0.0, 1.0, 0.0)


def test_division_by_zero_value_jet():
    with pytest.raises(DomainError):
        div(lift(1.0), lift(0.0))


def test_reciprocal_second_derivative():
    t = seed("t", (2.0, 0.0))
    j = powc(t, -1.0)
    assert j.value == 0.5
    assert j.dt == -0.25
    assert j.dtt == 0.25


def test_add_sub_componentwise():
    a = Jet2(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    b = Jet2(0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625)
    assert add(a, b) == Jet2(1.5, 2.25, 3.125, 4.0625, 5.03125, 6.015625)
    assert sub(add(a, b), b) == a


# ---------------------------------------------------------------------------
# Elementary functions

def test_exp_jet_at_zero():
    j = apply_elementary("exp", seed("t", (0.0, 0.0)))
    assert j == Jet2(1.0, 1.0, 0.0, 1.0, 0.0, 0.0)


def test_log_jet_at_one():
    j = apply_elementary("log", seed("t", (1.0, 0.0)))
    assert j.value == 0.0
    assert j.dt == 1.0
    assert j.dtt == -1.0


def test_sec_jet_at_zero():
    j = apply_elementary("sec", seed("t", (0.0, 0.0)))
    assert j.value == 1.0
    assert j.dt == 0.0
    assert j.dtt == 1.0


def test_log_of_nonpositive():
    with pytest.raises(DomainError):
        apply_elementary("log", lift(0.0))
    with pytest.raises(DomainError):
        apply_elementary("log", lift(-1.0))


def test_sqrt_of_negative():
    with pytest.raises(DomainError):
        apply_elementary("sqrt", seed("t", (-4.0, 0.0)))


def test_abs_jet_and_kink():
    j = apply_elementary("abs", seed("t", (-1.5, 0.0)))
    assert j == Jet2(1.5, -1.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        apply_elementary("abs", seed("t", (0.0, 0.0)))


def test_unknown_elementary_function():
    with pytest.raises(ValueError):
        apply_elementary("sinc", lift(1.0))


@pytest.mark.parametrize("fn", ["exp", "sinh", "cosh", "sech"])
def test_overflowing_elementary_raises(fn):
    with pytest.raises(DomainError):
        apply_elementary(fn, lift(1000.0))


def test_tiny_argument_derivative_overflow_is_domain_error():
    # value slots of sqrt/log stay finite near the subnormal range, but
    # their second derivatives overflow; the jet must reject, not crash.
    tiny = 2.9e-246
    with pytest.raises(DomainError):
        apply_elementary("sqrt", seed("t", (tiny, 0.0)))
    with pytest.raises(DomainError):
        apply_elementary("log", seed("t", (tiny, 0.0)))


def test_arithmetic_overflow_is_domain_error():
    big = Jet2(1.7e308)
    with pytest.raises(DomainError):
        add(big, big)
    with pytest.raises(DomainError):
        mul(Jet2(1e200), Jet2(1e200))


# ---------------------------------------------------------------------------
# Powers

def test_power_zero_exponent_is_one():
    assert powc(lift(0.0), 0.0) == lift(1.0)
    assert powc(seed("t", (2.0, 0.0)), 0.0) == lift(1.0)


def test_integer_power_matches_repeated_product():
    j = seed("t", (1.3, -0.2))
    assert powc(j, 3.0) == mul(mul(j, j), j)


def test_negative_base_integer_power():
    j = seed("t", (-2.0, 0.0))
    p = powc(j, -2.0)
    assert p.value == 0.25
    assert p.dt == 0.25          # d/dt t^-2 = -2 t^-3
    assert p.dtt == 0.375        # 6 t^-4


def test_fractional_power():
    j = powc(seed("x", (0.0, 4.0)), 2.5)
    assert math.isclose(j.value, 32.0, rel_tol=1e-13)
    assert math.isclose(j.dx, 20.0, rel_tol=1e-13)
    assert math.isclose(j.dxx, 7.5, rel_tol=1e-13)


def test_fractional_power_needs_positive_base():
    with pytest.raises(DomainError):
        powc(lift(-2.0), 0.5)
    with pytest.raises(DomainError):
        powc(lift(-2.0), 9.0)  # beyond the repeated-product window
    with pytest.raises(DomainError):
        powc(lift(0.0), -2.0)


# ---------------------------------------------------------------------------
# Operator sugar

def test_operator_dunders_match_functions():
    a = seed("t", (0.7, -0.3))
    b = seed("x", (0.7, -0.3))
    assert a + b == add(a, b)
    assert 2.0 + a == add(lift(2.0), a)
    assert a - 1.0 == sub(a, lift(1.0))
    assert 1.0 - a == sub(lift(1.0), a)
    assert 3.0 * a == mul(lift(3.0), a)
    assert a / 2.0 == div(a, lift(2.0))
    assert 2.0 / b == div(lift(2.0), b)
    assert -a == Jet2(-0.7, -1.0, 0.0, 0.0, 0.0, 0.0)
    assert a ** 2 == powc(a, 2.0)


# ---------------------------------------------------------------------------
# Composition

def test_compose_matches_power_rule():
    inner = add(seed("t", (0.5, -0.3)), mul(lift(2.0), seed("x", (0.5, -0.3))))
    s = inner.value
    direct = compose(s * s * s, 3.0 * s * s, 6.0 * s, inner)
    expected = powc(inner, 3.0)
    for slot in ("value", "dt", "dx", "dtt", "dtx", "dxx"):
        assert math.isclose(getattr(direct, slot), getattr(expected, slot),
                            rel_tol=1e-13, abs_tol=1e-15)


def test_chain_rule_closed_form():
    # h(t, x) = exp(sin(t) * x) against hand-written partials
    t0, x0 = 0.7, 0.4
    T = seed("t", (t0, x0))
    X = seed("x", (t0, x0))
    j = apply_elementary("exp", mul(apply_elementary("sin", T), X))

    v = math.exp(math.sin(t0) * x0)
    st_, ct = math.sin(t0), math.cos(t0)
    assert math.isclose(j.value, v, rel_tol=1e-14)
    assert math.isclose(j.dt, v * x0 * ct, rel_tol=1e-13)
    assert math.isclose(j.dx, v * st_, rel_tol=1e-13)
    assert math.isclose(j.dtt, v * ((x0 * ct) ** 2 - x0 * st_), rel_tol=1e-13)
    assert math.isclose(j.dtx, v * (ct + x0 * ct * st_), rel_tol=1e-13)
    assert math.isclose(j.dxx, v * st_ * st_, rel_tol=1e-13)


# ``compose_map``, the general chain rule, is the test-local copy behind
# test_charts.reference_compact_jet; these two keep that reference honest.

def test_compose_map_matches_direct_composition():
    # G(t, x) = sin(t^2 + x) * (t - x) composed through a = t^2 + x, b = t - x
    t0, x0 = 0.7, -0.4
    a0 = t0 * t0 + x0
    b0 = t0 - x0

    A = seed("t", (a0, b0))
    B = seed("x", (a0, b0))
    w = mul(apply_elementary("sin", A), B)

    T = seed("t", (t0, x0))
    X = seed("x", (t0, x0))
    first = add(mul(T, T), X)
    second = sub(T, X)
    pulled = compose_map(w, first, second)

    direct = mul(apply_elementary("sin", add(mul(T, T), X)), sub(T, X))
    for slot in ("value", "dt", "dx", "dtt", "dtx", "dxx"):
        assert math.isclose(getattr(pulled, slot), getattr(direct, slot),
                            rel_tol=1e-12, abs_tol=1e-12)


def test_compose_map_identity_map():
    t0, x0 = 0.8, -0.6
    w = apply_elementary("tanh", mul(seed("t", (t0, x0)), seed("x", (t0, x0))))
    pulled = compose_map(w, seed("t", (t0, x0)), seed("x", (t0, x0)))
    assert pulled == w


# ---------------------------------------------------------------------------
# The null-chart helpers

SLOTS = ("value", "dt", "dx", "dtt", "dtx", "dxx")


def _assert_close(got, want):
    for slot in SLOTS:
        assert math.isclose(getattr(got, slot), getattr(want, slot),
                            rel_tol=1e-13, abs_tol=1e-13), slot


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                min_size=6, max_size=6))
def test_to_null_inverts_from_null(slots):
    w = Jet2(*slots)
    scale = max(abs(s) for s in slots)
    for got in (from_null(to_null(w)), to_null(from_null(w))):
        for slot in SLOTS:
            assert abs(getattr(got, slot) - getattr(w, slot)) <= 1e-14 * scale


def test_to_null_differentiates_in_the_null_chart():
    # G(t, x) = exp(t) sin(x) with t = (u - v)/2, x = (u + v)/2
    u0, v0 = 0.9, -0.3
    U, V = seed("u", (u0, v0)), seed("v", (u0, v0))
    direct = mul(apply_elementary("exp", (U - V) * 0.5),
                 apply_elementary("sin", (U + V) * 0.5))
    t0, x0 = 0.5 * (u0 - v0), 0.5 * (u0 + v0)
    w = mul(apply_elementary("exp", seed("t", (t0, x0))),
            apply_elementary("sin", seed("x", (t0, x0))))
    _assert_close(to_null(w), direct)


def test_compose_null_matches_direct_composition():
    # G(u, v) = sin(u v) + u^2 through u = a(p) = p^3 + p, v = b(q) = exp(q/2)
    p0, q0 = 0.6, -0.8
    a = (p0 ** 3 + p0, 3.0 * p0 * p0 + 1.0, 6.0 * p0)
    e = math.exp(0.5 * q0)
    b = (e, 0.5 * e, 0.25 * e)
    U, V = seed("u", (a[0], b[0])), seed("v", (a[0], b[0]))
    w = add(apply_elementary("sin", mul(U, V)), mul(U, U))
    P, Q = seed("t", (p0, q0)), seed("x", (p0, q0))
    A = add(powc(P, 3.0), P)
    B = apply_elementary("exp", Q * 0.5)
    direct = add(apply_elementary("sin", mul(A, B)), mul(A, A))
    _assert_close(compose_null(w, a, b), direct)


def test_null_product_is_mul_of_seeded_jets():
    u0, v0 = 0.4, -1.3
    f = (math.exp(u0), math.exp(u0), math.exp(u0))
    g = (math.sin(v0), math.cos(v0), -math.sin(v0))
    want = mul(apply_elementary("exp", seed("u", (u0, v0))),
               apply_elementary("sin", seed("v", (u0, v0))))
    assert null_product(f, g) == want


# ---------------------------------------------------------------------------
# Properties: finite-difference consistency and algebra laws

_COEFF = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
_POINT = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)

_H = 1e-4


def _d1(f, t, x, h, axis):
    if axis == 0:
        return (f(t + h, x) - f(t - h, x)) / (2.0 * h)
    return (f(t, x + h) - f(t, x - h)) / (2.0 * h)


def _d2(f, t, x, h, axis):
    if axis == 0:
        return (f(t + h, x) - 2.0 * f(t, x) + f(t - h, x)) / (h * h)
    return (f(t, x + h) - 2.0 * f(t, x) + f(t, x - h)) / (h * h)


def _dtx(f, t, x, h):
    return (f(t + h, x + h) - f(t + h, x - h)
            - f(t - h, x + h) + f(t - h, x - h)) / (4.0 * h * h)


def _rich(stencil, f, t, x, *extra):
    coarse = stencil(f, t, x, _H, *extra)
    fine = stencil(f, t, x, _H / 2.0, *extra)
    return (4.0 * fine - coarse) / 3.0


@settings(max_examples=50, deadline=None)
@given(_COEFF, _COEFF, _COEFF, _POINT, _POINT)
def test_jets_match_finite_differences_trig(a, b, c, t, x):
    def real(tt, xx):
        return math.sin(a * tt + b * xx) + math.tanh(c * tt * xx) + tt * tt * xx

    T = seed("t", (t, x))
    X = seed("x", (t, x))
    j = (apply_elementary("sin", a * T + b * X)
         + apply_elementary("tanh", c * T * X) + T * T * X)

    assert abs(j.dt - _rich(_d1, real, t, x, 0)) < 1e-5
    assert abs(j.dx - _rich(_d1, real, t, x, 1)) < 1e-5
    assert abs(j.dtt - _rich(_d2, real, t, x, 0)) < 1e-5
    assert abs(j.dxx - _rich(_d2, real, t, x, 1)) < 1e-5
    assert abs(j.dtx - _rich(_dtx, real, t, x)) < 1e-5


@settings(max_examples=50, deadline=None)
@given(_COEFF, _COEFF, _POINT, _POINT)
def test_jets_match_finite_differences_sqrt_atan(a, b, t, x):
    def real(tt, xx):
        return math.atan(a * tt) * math.sqrt(2.0 + math.cos(b * xx))

    T = seed("t", (t, x))
    X = seed("x", (t, x))
    j = mul(apply_elementary("atan", a * T),
            apply_elementary("sqrt", 2.0 + apply_elementary("cos", b * X)))

    assert abs(j.dt - _rich(_d1, real, t, x, 0)) < 1e-5
    assert abs(j.dx - _rich(_d1, real, t, x, 1)) < 1e-5
    assert abs(j.dtt - _rich(_d2, real, t, x, 0)) < 1e-5
    assert abs(j.dxx - _rich(_d2, real, t, x, 1)) < 1e-5
    assert abs(j.dtx - _rich(_dtx, real, t, x)) < 1e-5


_SLOT = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
JETS = st.builds(Jet2, _SLOT, _SLOT, _SLOT, _SLOT, _SLOT, _SLOT)


def _close(p, q, rel=1e-12, absolute=1e-12):
    return all(math.isclose(getattr(p, s), getattr(q, s),
                            rel_tol=rel, abs_tol=absolute)
               for s in ("value", "dt", "dx", "dtt", "dtx", "dxx"))


@settings(max_examples=100, deadline=None)
@given(JETS, JETS)
def test_addition_commutes_exactly(a, b):
    assert add(a, b) == add(b, a)


@settings(max_examples=100, deadline=None)
@given(JETS, JETS)
def test_multiplication_commutes_to_rounding(a, b):
    p, q = mul(a, b), mul(b, a)
    assert p.value == q.value
    assert _close(p, q, rel=1e-14, absolute=1e-13)


@settings(max_examples=100, deadline=None)
@given(JETS, JETS, JETS)
def test_associativity_to_rounding(a, b, c):
    assert _close(add(add(a, b), c), add(a, add(b, c)), absolute=1e-13)
    assert _close(mul(mul(a, b), c), mul(a, mul(b, c)))


@settings(max_examples=100, deadline=None)
@given(JETS, JETS)
def test_multiply_then_divide_recovers(a, b):
    if abs(b.value) < 0.5:
        b = Jet2(b.value + math.copysign(1.0, b.value or 1.0),
                 b.dt, b.dx, b.dtt, b.dtx, b.dxx)
    assert _close(div(mul(a, b), b), a, rel=1e-10, absolute=1e-10)
