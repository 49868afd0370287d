"""Scalar curvature formulas in either chart, Einstein check, and the FD oracle."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz2d.curvature import (
    EinsteinCheck,
    einstein_residual,
    fd_ricci_oracle,
    ricci_from_log,
    ricci_from_omega,
    scalar_from_factor_jet,
)
from lorentz2d.errors import DomainError, NonPositiveFactor, StencilOutsideDomain
from lorentz2d.expressions import parse, substitute
from lorentz2d.families import factor_from_expression
from lorentz2d.jets import apply_elementary, mul, seed


def _unchecked(source):
    """The formula ``source`` as a field read through its factor's unchecked
    ``jet_fn`` and ``value_fn``: a log field may be <= 0, and a
    non-positive factor reaches the curvature functions' own checks."""
    factor = factor_from_expression(source)
    return SimpleNamespace(jet=factor.jet_fn, value=factor.value_fn, chart=factor.chart)


# ---------------------------------------------------------------------------
# Scalar curvature from the factor (standard chart)

def test_unit_factor_is_flat_exactly():
    assert ricci_from_omega(factor_from_expression("1"), (0.3, -1.2)) == 0.0


def test_positive_constant_curvature_factor():
    assert math.isclose(ricci_from_omega(factor_from_expression("sec(t)^2"), (0.3, 1.0)),
                        2.0, rel_tol=1e-12)


def test_negative_constant_curvature_factor():
    assert math.isclose(ricci_from_omega(factor_from_expression("sech(t)^2"), (0.5, 0.0)),
                        -2.0, rel_tol=1e-12)


def test_nonpositive_factor_rejected():
    with pytest.raises(NonPositiveFactor):
        ricci_from_omega(_unchecked("x - 10"), (0.0, 0.0))
    with pytest.raises(NonPositiveFactor):
        ricci_from_omega(_unchecked("u - 10"), (0.0, 0.0))


@pytest.mark.parametrize("source, point", [("exp(700*x)", (0.0, 0.9)),
                                           ("exp(700*(u + v))", (0.45, 0.45))])
def test_curvature_that_overflows_is_a_domain_error(source, point):
    # Omega^3, or a product of slots, overflows: a float call used to
    # return R = NaN
    factor = factor_from_expression(source)
    with pytest.raises(DomainError):
        ricci_from_omega(factor, point)
    # and on arrays that cell alone becomes NaN
    w = factor.jet(np.array([0.0, point[0]]), np.array([0.0, point[1]]))
    # with no warning: the array overflow is that cell's NaN
    r = scalar_from_factor_jet(w, factor.chart)
    assert r[0] == 0.0 and np.isnan(r[1])


def test_scalar_from_factor_jet_compact_alias():
    w = apply_elementary("exp", seed("t", (0.4, -0.1)))
    assert scalar_from_factor_jet(w, "compact") == scalar_from_factor_jet(w, "tx")


def test_field_type_rejected():
    # a formula is read through a factor, never as a bare expression tree
    for field in (42, parse("1")):
        with pytest.raises(TypeError):
            ricci_from_omega(field, (0.0, 0.0))


# ---------------------------------------------------------------------------
# Scalar curvature from the log of the factor

def test_log_form_flat_zero():
    assert ricci_from_log(_unchecked("0"), (0.7, 0.2)) == 0.0


@pytest.mark.parametrize("source", ["exp(x + t)", "exp(x - t)", "sin(x + t)"])
def test_log_form_single_null_variable_is_flat_exactly(source):
    # omega depending on x+t (or x-t) alone has omega_tt == omega_xx
    # as identical floats, so the curvature is exactly zero.
    assert ricci_from_log(_unchecked(source), (0.3, 0.7)) == 0.0


def test_log_form_constant_positive_curvature():
    assert math.isclose(ricci_from_log(_unchecked("-2*log(cos(t))"), (0.3, 5.0)),
                        2.0, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Null-chart fields: a field written in u, v gets the null-chart formula

def test_null_log_form_constant_curvature():
    assert math.isclose(
        ricci_from_log(_unchecked("-2*log(u - 0.25*v + 1)"), (0.2, 0.1)),
        2.0, rel_tol=1e-12)


def test_null_log_form_single_variable_flat():
    assert ricci_from_log(_unchecked("exp(u)"), (0.4, -0.2)) == 0.0
    assert ricci_from_log(_unchecked("exp(v)"), (0.4, -0.2)) == 0.0


def test_null_factor_form_constant_curvature():
    assert math.isclose(
        ricci_from_omega(factor_from_expression("(u - 0.25*v + 1)^(-2)"), (0.2, 0.1)),
        2.0, rel_tol=1e-12)


README_NULL_FACTOR = "exp(u+v) * (exp(u) - (1/4)*exp(v))^(-2)"


@pytest.mark.parametrize("field", [_unchecked(README_NULL_FACTOR),
                                   factor_from_expression(README_NULL_FACTOR)],
                         ids=["expression", "factor"])
def test_null_chart_factor_gets_its_own_curvature(field):
    # the README's R = 2 factor written in u, v, at (u, v) = (0.3, -0.2)
    assert abs(ricci_from_omega(field, (0.3, -0.2)) - 2.0) <= 1e-12
    assert abs(fd_ricci_oracle(field, (0.3, -0.2), h=1e-3) - 2.0) <= 1e-6


def test_einstein_residual_refuses_a_null_chart_field():
    with pytest.raises(ValueError):
        einstein_residual(_unchecked("-2*log(u - 0.25*v + 1)"), (0.2, 0.1))


def test_null_chart_agrees_with_standard_chart():
    omega_tx = parse("0.3*t^2 - 0.1*x^2 + 0.2*t*x")
    omega_null = substitute(omega_tx, {"t": parse("(u - v)/2"),
                                       "x": parse("(u + v)/2")})
    t0, x0 = 0.4, -0.3
    u0, v0 = x0 + t0, x0 - t0
    r_std = ricci_from_log(_unchecked(omega_tx), (t0, x0))
    r_null = ricci_from_log(_unchecked(omega_null), (u0, v0))
    assert abs(r_null - r_std) <= 1e-10 * max(1.0, abs(r_std))


_UNIT = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def _null_twin(expression):
    """``expression`` in (t, x) rewritten in u, v."""
    return substitute(expression, {"t": parse("(u - v)/2"), "x": parse("(u + v)/2")})


@settings(max_examples=80, deadline=None)
@given(_UNIT, _UNIT, _UNIT, _UNIT, _UNIT)
def test_curvature_does_not_depend_on_the_chart(a, b, c, t, x):
    log_tx = parse(f"{a!r}*t^2 + {b!r}*x^2 + {c!r}*t*x")
    factor_tx = parse(f"exp({a!r}*t^2 + {b!r}*x^2 + {c!r}*t*x)")
    point, twin_point = (t, x), (x + t, x - t)

    twin = factor_from_expression(_null_twin(factor_tx))
    r_tx = ricci_from_omega(factor_from_expression(factor_tx), point)
    r_twin = ricci_from_omega(twin, twin_point)
    assert abs(r_twin - r_tx) <= 1e-10 * max(1.0, abs(r_tx))
    assert abs(fd_ricci_oracle(twin, twin_point, h=1e-3) - r_tx) <= 1e-5

    r_log = ricci_from_log(_unchecked(log_tx), point)
    r_log_twin = ricci_from_log(_unchecked(_null_twin(log_tx)), twin_point)
    assert abs(r_log_twin - r_log) <= 1e-10 * max(1.0, abs(r_log))


# ---------------------------------------------------------------------------
# The Einstein condition

def _tensor_built_einstein(log_field, point):
    """Ric = kappa g checked through the three Ricci components one by
    one, as the deleted tensor path did; the reference for bitwise tests."""
    w = log_field(*point)
    component_tt = 0.5 * (w.dxx - w.dtt)
    component_tx = 0.0
    component_xx = 0.5 * (w.dtt - w.dxx)
    scalar = (w.dtt - w.dxx) * math.exp(-w.value)
    kappa = 0.5 * scalar
    g_tt = -math.exp(w.value)
    g_xx = math.exp(w.value)
    residual = max(abs(component_tt - kappa * g_tt), abs(component_tx),
                   abs(component_xx - kappa * g_xx))
    return EinsteinCheck(kappa=kappa, residual=residual)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
       st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
       st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
       st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
       st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_einstein_residual_is_bitwise_the_tensor_built_formula(a, b, c, t, x):
    def log_field(tt, xx):
        T = seed("t", (tt, xx))
        X = seed("x", (tt, xx))
        return (a * apply_elementary("sin", T) * apply_elementary("cos", X)
                + b * mul(T, X) + c)

    check = einstein_residual(log_field, (t, x))
    reference = _tensor_built_einstein(log_field, (t, x))
    assert [v.hex() for v in check] == [v.hex() for v in reference]


def test_einstein_flat_exact():
    check = einstein_residual(_unchecked("0"), (0.2, 0.4))
    assert check == EinsteinCheck(kappa=0.0, residual=0.0)


def test_einstein_constant_curvature():
    check = einstein_residual(_unchecked("-2*log(cos(t))"), (0.3, 2.0))
    assert math.isclose(check.kappa, 1.0, rel_tol=1e-12)
    assert check.residual <= 1e-10


def test_einstein_kappa_is_half_the_log_form_scalar():
    field = _unchecked("0.4*sin(t)*cos(x)")
    point = (0.6, -0.2)
    check = einstein_residual(field, point)
    assert check.kappa == 0.5 * ricci_from_log(field, point)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
       st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
       st.floats(min_value=-1.2, max_value=1.2, allow_nan=False),
       st.floats(min_value=-1.2, max_value=1.2, allow_nan=False))
def test_einstein_residual_small_for_smooth_fields(a, b, t, x):
    def log_field(tt, xx):
        T = seed("t", (tt, xx))
        X = seed("x", (tt, xx))
        return (a * apply_elementary("sin", T) * apply_elementary("cos", X)
                + b * T * X)

    check = einstein_residual(log_field, (t, x))
    assert check.residual <= 1e-10
    assert check.kappa == 0.5 * ricci_from_log(log_field, (t, x))


# ---------------------------------------------------------------------------
# Two routes to the same scalar: factor form vs log form

@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
       st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
       st.floats(min_value=-1.2, max_value=1.2, allow_nan=False),
       st.floats(min_value=-1.2, max_value=1.2, allow_nan=False))
def test_factor_and_log_routes_agree(a, b, t, x):
    def log_jet(tt, xx):
        T = seed("t", (tt, xx))
        X = seed("x", (tt, xx))
        return (a * apply_elementary("sin", T + X)
                + b * mul(T, X))

    def factor_jet(tt, xx):
        return apply_elementary("exp", log_jet(tt, xx))

    r_log = ricci_from_log(log_jet, (t, x))
    r_factor = ricci_from_omega(factor_jet, (t, x))
    assert abs(r_factor - r_log) <= 1e-10 * max(1.0, abs(r_log))


# ---------------------------------------------------------------------------
# Finite-difference oracle

def test_fd_oracle_flat_exact():
    assert fd_ricci_oracle(factor_from_expression("1"), (0.3, 0.5)) == 0.0


def test_fd_oracle_constant_positive_curvature():
    r = fd_ricci_oracle(factor_from_expression("sec(t)^2"), (0.3, 1.0), h=1e-3)
    assert abs(r - 2.0) < 1e-6


def test_fd_oracle_null_family_factor():
    omega1 = factor_from_expression("exp(2*x) * (exp(x+t) - (1/4)*exp(x-t))^(-2)")
    r = fd_ricci_oracle(omega1, (0.1, -0.2), h=1e-3)
    assert abs(r - 2.0) < 1e-6


def test_fd_oracle_matches_jet_route():
    field = factor_from_expression("exp(0.3*t^2 - 0.2*x^2)")
    point = (0.4, 0.1)
    assert abs(fd_ricci_oracle(field, point, h=1e-3)
               - ricci_from_omega(field, point)) < 1e-5


def test_fd_oracle_stencil_outside_domain():
    with pytest.raises(StencilOutsideDomain):
        fd_ricci_oracle(factor_from_expression("sqrt(x)"), (0.0, 5e-4), h=1e-3)


def test_fd_oracle_nonpositive_centre():
    with pytest.raises(NonPositiveFactor):
        fd_ricci_oracle(_unchecked("x - 10"), (0.0, 0.0))
