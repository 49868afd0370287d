"""Parser, printer and evaluator tests for the formula language."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz2d.errors import DomainError, NonConstantExponent, ParseError
from lorentz2d.expressions import (
    Binary,
    Call,
    Constant,
    Unary,
    Variable,
    evaluate,
    free_variables,
    parse,
    substitute,
    unparse,
)
from lorentz2d.jets import Jet2, seed

OMEGA1_SOURCE = "exp(2*x) * (exp(x+t) - (1/4)*exp(x-t))^(-2)"


# ---------------------------------------------------------------------------
# Parse shapes

def test_parse_sec_squared_shape():
    assert parse("sec(t)^2") == Binary("pow", Call("sec", Variable("t")), Constant(2.0))


def test_parse_number_and_constants():
    assert parse("2") == Constant(2.0)
    assert parse(".5") == Constant(0.5)
    assert parse("2e-3") == Constant(2e-3)
    assert parse("1.5E+2") == Constant(150.0)
    assert parse("pi") == Constant(math.pi)
    assert parse("e") == Constant(math.e)


def test_parse_negative_literal_folds_to_constant():
    assert parse("-2") == Constant(-2.0)
    assert parse("-2.5e1") == Constant(-25.0)
    # minus before a non-literal stays a negation node
    assert parse("-x") == Unary("neg", Variable("x"))
    assert parse("-(2)") == Unary("neg", Constant(2.0))


def test_parse_precedence_and_associativity():
    # a - b - c is left-associative
    assert parse("1 - 2 - 3") == Binary(
        "sub", Binary("sub", Constant(1.0), Constant(2.0)), Constant(3.0))
    # * binds tighter than +
    assert parse("1 + 2*x") == Binary(
        "add", Constant(1.0), Binary("mul", Constant(2.0), Variable("x")))
    # ^ is right-associative: 2^3^2 parses as 2^(3^2)
    assert parse("2^3^2") == Binary(
        "pow", Constant(2.0), Binary("pow", Constant(3.0), Constant(2.0)))
    assert evaluate(parse("2^2^3"), {}) == 256.0
    # unary minus is part of the power's base: -x^2 = (-x)^2
    assert evaluate(parse("-x^2"), {"x": 3.0}) == 9.0


def test_parse_omega1_shape():
    expr = parse(OMEGA1_SOURCE)
    assert free_variables(expr) == frozenset({"t", "x"})
    # top level is a product whose right factor is a (-2) power
    assert isinstance(expr, Binary) and expr.op == "mul"
    assert expr.right.op == "pow" and expr.right.right == Constant(-2.0)


def test_parse_whitespace_insignificant():
    assert parse(" sec( t ) ^ 2 ") == parse("sec(t)^2")


# ---------------------------------------------------------------------------
# Parse errors

def test_parse_error_trailing_operator():
    with pytest.raises(ParseError) as err:
        parse("2*x +")
    assert err.value.offset == 5
    assert err.value.expected  # nonempty expected-token set


def test_parse_error_unbalanced_call():
    with pytest.raises(ParseError):
        parse("sec(t^")


def test_parse_error_unknown_function():
    with pytest.raises(ParseError) as err:
        parse("sinc(t)")
    assert err.value.offset == 0


def test_parse_error_unknown_identifier():
    with pytest.raises(ParseError):
        parse("y + 1")


def test_parse_error_unexpected_character():
    with pytest.raises(ParseError) as err:
        parse("1 + $")
    assert err.value.offset == 4


def test_parse_error_trailing_input():
    with pytest.raises(ParseError):
        parse("1 2")


@pytest.mark.parametrize("source, offset", [
    ("1e999", 0), ("-1e999", 1), ("2*x + 1E400", 6), ("x^-1e309", 3)])
def test_parse_error_out_of_range_literal(source, offset):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert err.value.offset == offset
    assert "out of range" in err.value.message


def test_tiny_literal_parses_to_zero():
    assert parse("1e-999") == Constant(0.0)
    assert parse("1.7976931348623157e308") == Constant(1.7976931348623157e308)


def test_non_constant_exponent():
    with pytest.raises(NonConstantExponent):
        parse("2^x")
    with pytest.raises(NonConstantExponent):
        parse("t^(x+1)")
    # NonConstantExponent is a ParseError
    assert issubclass(NonConstantExponent, ParseError)


# ---------------------------------------------------------------------------
# Structure utilities

def test_free_variables():
    assert free_variables(parse("sec(t)^2")) == frozenset({"t"})
    assert free_variables(parse("1")) == frozenset()
    assert free_variables(parse(OMEGA1_SOURCE)) == frozenset({"t", "x"})
    assert free_variables(parse("u*v + l")) == frozenset({"u", "v", "l"})


def test_substitute():
    body = parse("sec(l)^2")
    out = substitute(body, {"l": parse("(x+t)/2")})
    assert free_variables(out) == frozenset({"t", "x"})
    got = evaluate(out, {"t": 0.3, "x": 0.5})
    want = evaluate(parse("sec((x+t)/2)^2"), {"t": 0.3, "x": 0.5})
    assert got == want


# ---------------------------------------------------------------------------
# Printing

def test_unparse_reduced_forms():
    assert unparse(Constant(2.0)) == "2"
    assert unparse(Constant(0.5)) == "0.5"
    assert unparse(parse("sec(t)^2")) == "sec(t)^2"
    # programmatic negation of a literal keeps its parentheses so the
    # text re-parses to the same tree, not to a negative Constant
    assert unparse(Unary("neg", Constant(2.0))) == "-(2)"


@pytest.mark.parametrize("source", [
    "sec(t)^2",
    OMEGA1_SOURCE,
    "1 - 2 - 3",
    "-x^2",
    "x + (-2)",
    "t*(x + 1)/(x - 1)",
    "exp(tan((t+x)/2))*exp(tan((x-t)/2))",
    "(cos(t) + cos(x))^(-2)",
])
def test_round_trip_on_sources(source):
    tree = parse(source)
    assert parse(unparse(tree)) == tree


# ---------------------------------------------------------------------------
# Evaluation

def test_evaluate_sec_squared():
    expr = parse("sec(t)^2")
    assert evaluate(expr, {"t": 0.0}) == 1.0
    assert abs(evaluate(expr, {"t": math.pi / 3}) - 4.0) < 1e-12


def test_evaluate_domain_errors():
    with pytest.raises(DomainError) as err:
        evaluate(parse("log(x)"), {"x": -1.0})
    assert err.value.point == {"x": -1.0}
    assert err.value.node is not None
    with pytest.raises(DomainError):
        evaluate(parse("1/x"), {"x": 0.0})
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(t)"), {"t": -4.0})
    with pytest.raises(DomainError):
        evaluate(parse("x^(-2)"), {"x": 0.0})
    with pytest.raises(DomainError):
        evaluate(parse("x^0.5"), {"x": -1.0})


def test_evaluate_overflow_is_domain_error():
    with pytest.raises(DomainError):
        evaluate(parse("exp(x)"), {"x": 1e4})
    with pytest.raises(DomainError):
        evaluate(parse("x^8 * x^8 * x^8 * x^8 * x^8"), {"x": 1e10})


def test_evaluate_unbound_variable():
    with pytest.raises(ValueError):
        evaluate(parse("t + x"), {"t": 1.0})


def test_evaluate_jet_binding_returns_jet():
    expr = parse("t*x")
    out = evaluate(expr, {"t": seed("t", (2.0, 5.0)), "x": seed("x", (2.0, 5.0))})
    assert isinstance(out, Jet2)
    assert (out.value, out.dt, out.dx, out.dtt, out.dtx, out.dxx) == (10.0, 5.0, 2.0, 0.0, 1.0, 0.0)


def test_evaluate_mixed_jet_and_float_bindings():
    expr = parse("t + x")
    out = evaluate(expr, {"t": seed("t", (1.0, 0.0)), "x": 3.0})
    assert isinstance(out, Jet2)
    assert out.value == 4.0 and out.dt == 1.0 and out.dx == 0.0


# ---------------------------------------------------------------------------
# Properties: round trip and real/jet value parity over random trees

_LEAF = st.one_of(
    st.builds(Constant, st.floats(min_value=-4.0, max_value=4.0,
                                  allow_nan=False, allow_infinity=False)),
    st.sampled_from([Variable("t"), Variable("x")]),
)

_FUNCTIONS = ("exp", "log", "sin", "cos", "tan", "sec", "sinh", "cosh",
              "tanh", "sech", "sqrt", "atan")


def _extend(children):
    return st.one_of(
        st.builds(lambda c: Unary("neg", c), children),
        st.builds(lambda op, a, b: Binary(op, a, b),
                  st.sampled_from(["add", "sub", "mul", "div"]),
                  children, children),
        st.builds(lambda a, n: Binary("pow", a, Constant(float(n))),
                  children, st.integers(min_value=-3, max_value=3)),
        st.builds(lambda fn, c: Call(fn, c),
                  st.sampled_from(_FUNCTIONS), children),
    )


EXPRESSIONS = st.recursive(_LEAF, _extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(EXPRESSIONS)
def test_round_trip_property(tree):
    assert parse(unparse(tree)) == tree


@settings(max_examples=200, deadline=None)
@given(EXPRESSIONS,
       st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
       st.floats(min_value=-1.5, max_value=1.5, allow_nan=False))
def test_real_jet_value_parity(tree, t, x):
    """The jet backend's value slot is bit-identical to plain evaluation."""
    try:
        plain = evaluate(tree, {"t": t, "x": x})
    except DomainError:
        return  # out-of-domain draws carry no parity claim
    try:
        jet = evaluate(tree, {"t": seed("t", (t, x)), "x": seed("x", (t, x))})
    except DomainError:
        return  # a derivative slot may overflow where the value is fine
    assert jet.value == plain


@settings(max_examples=150, deadline=None)
@given(EXPRESSIONS,
       st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
       st.floats(min_value=-1.5, max_value=1.5, allow_nan=False))
def test_evaluation_closure_no_silent_nonfinite(tree, t, x):
    """evaluate either returns finite numbers or raises DomainError."""
    try:
        plain = evaluate(tree, {"t": t, "x": x})
    except DomainError:
        return
    assert math.isfinite(plain)
