"""The numerical core: expressions, exact jets, tabulated quadrature.

Everything above the factor families rests on three small pieces:

* a closed expression language (parse / evaluate / substitute /
  unparse) whose one compiler evaluates a formula as values, as
  univariate Taylor jets or as ``Jet2``;
* ``Jet2``, a second-order forward-mode number carrying
  (value, d/dt, d/dx, d2/dt2, d2/dtdx, d2/dx2) through arithmetic and
  elementary functions, so curvature needs no symbolic differentiation
  and no finite differences;
* ``Antiderivative``, an integral tabulated once as a piecewise
  Chebyshev interpolant on panels laid outward from its reference, so
  each value is a pure function of its abscissa; it exposes itself to
  the jet machinery through the fundamental theorem of calculus (its
  derivative slots are the integrand, exact).

The script walks through each piece at a worked point.
"""

import math

from lorentz2d import Antiderivative, Jet2, evaluate, parse, substitute, unparse
from lorentz2d.jets import apply_elementary, compose, seed


def expression_language() -> None:
    tree = parse("exp(2*x) * (exp(x+t) - (1/4)*exp(x-t))^(-2)")
    print(f"parsed and printed back: {unparse(tree)}")
    null_form = substitute(tree, {"t": parse("(u - v)/2"),
                                  "x": parse("(u + v)/2")})
    print(f"same factor in null coordinates: {unparse(null_form)}")
    value = evaluate(tree, {"t": 0.1, "x": -0.2})
    print(f"plain evaluation at (0.1, -0.2): {value:.12f}")


def jets_by_hand() -> None:
    point = (0.7, 0.4)
    t = seed("t", point)
    x = seed("x", point)
    field = apply_elementary("exp", apply_elementary("sin", t) * x)
    print(f"jet of exp(sin(t) * x) at {point}:")
    print(f"  value {field.value:.12f}")
    print(f"  dt    {field.dt:.12f}   (hand: x cos(t) e^(x sin t) = "
          f"{0.4 * math.cos(0.7) * math.exp(0.4 * math.sin(0.7)):.12f})")
    print(f"  dtx   {field.dtx:.12f}")

    tree = parse("exp(sin(t) * x)")
    again = evaluate(tree, {"t": t, "x": x})
    print(f"  evaluator agrees bit-for-bit: {again == field}")


def quadrature() -> None:
    # Note the parentheses: the power's base includes a leading unary
    # minus, so "-l^2" would mean (-l)^2.
    gaussian = Antiderivative(parse("exp(-(l^2))"))
    erf_like = gaussian.value(1.0)
    reference = 0.5 * math.sqrt(math.pi) * math.erf(1.0)
    print(f"integral of e^(-l^2) over [0, 1]: {erf_like:.12f} "
          f"(closed form {reference:.12f})")

    # the chain rule through F, whose derivatives are the integrand's jet
    inner = seed("t", (0.5, 0.0))
    f1, f2, _ = gaussian.integrand_jet(inner.value)
    composed = compose(gaussian.value(inner.value), f1, f2, inner)
    print(f"jet through the integral at t = 0.5: value {composed.value:.12f},"
          f" dt {composed.dt:.12f} = integrand(0.5) = "
          f"{math.exp(-0.25):.12f}")
    assert composed.dt == gaussian.integrand_at(0.5)
    assert abs(erf_like - reference) < 1e-10


def main() -> None:
    expression_language()
    jets_by_hand()
    quadrature()


if __name__ == "__main__":
    main()
