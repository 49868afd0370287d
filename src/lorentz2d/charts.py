"""Coordinate charts, domains, and the Penrose-Carter compactification.

Charts: standard (t, x), null (u, v) = (x + t, x - t), and the compact
chart obtained by pulling a whole-plane factor back through

    u = tan(u~/2),  v = tan(v~/2),      u~ = x~ + t~,  v~ = x~ - t~,

which maps the open diamond {|t~| + |x~| < pi} onto the full plane.  With
U = tan(u~/2) and U' = (1 + U^2)/2, the compactified factor picks up the
Jacobian U'V' = (1/4) sec^2(u~/2) sec^2(v~/2) and keeps the same scalar
curvature, since R is invariant under a change of coordinates combined
with the matching conformal rescaling.  The map is diagonal between the
null charts, so the jet is assembled there, as a Liouville factor's is;
a factor written in (u, v) enters it without a change of chart.

Domains are open point sets that answer two questions: ``contains``
and ``bbox``.  Membership uses strict inequalities so that boundary
points (where compact factors blow up) are never sampled as interior.
``contains`` takes floats or arrays of cell centres that broadcast
against each other (then it returns a boolean array of their broadcast
shape).  ``bbox`` is (t_min, t_max, x_min, x_max); a domain is bounded
when all four are finite, and the whole plane is ``full_plane()``.
A factor's domain comes from its factory: the whole plane, a
``Rectangle`` strip for a sec^2 branch, or the ``Diamond`` of
``compactify``.  Any object with these two methods samples as a domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from . import jets
from .errors import DomainError
from .expressions import Binary, Constant, parse, substitute

_TAN = jets.VALUE_FUNCTIONS["tan"]

# the null coordinates as formulas in (t, x)
NULL_COORDINATES = {"u": parse("x + t"), "v": parse("x - t")}
# (t, x) and the Jacobian U'V' as formulas in the diamond chart (t~, x~)
_FROM_DIAMOND = {name: substitute(parse(f"(tan(u/2) {op} tan(v/2))/2"), NULL_COORDINATES)
                 for name, op in (("t", "-"), ("x", "+"))}
_JACOBIAN = substitute(parse("0.25*sec(u/2)^2*sec(v/2)^2"), NULL_COORDINATES)
# (u, v) as formulas in the diamond chart
_NULL_FROM_DIAMOND = {name: substitute(parse(f"tan({name}/2)"), NULL_COORDINATES)
                      for name in ("u", "v")}


def _half_angle(s):
    """U = tan(s/2) and U' = (1 + U^2)/2 = sec^2(s/2)/2."""
    u = _TAN(0.5 * s)
    return u, 0.5 * (1.0 + u * u)


@dataclass(frozen=True)
class Rectangle:
    """Open axis-aligned box; infinite extents allowed."""

    t_min: float
    t_max: float
    x_min: float
    x_max: float

    def contains(self, t, x):
        return ((self.t_min < t) & (t < self.t_max)
                & (self.x_min < x) & (x < self.x_max))

    def bbox(self) -> tuple[float, float, float, float]:
        return (self.t_min, self.t_max, self.x_min, self.x_max)


@dataclass(frozen=True)
class Diamond:
    """Open diamond |t| + |x| < half_width (the compactified plane)."""

    half_width: float = math.pi

    def contains(self, t, x):
        return (abs(x) < self.half_width) & (abs(t) < self.half_width - abs(x))

    def bbox(self) -> tuple[float, float, float, float]:
        w = self.half_width
        return (-w, w, -w, w)


Domain = Union[Rectangle, Diamond]


def full_plane() -> Rectangle:
    return Rectangle(-math.inf, math.inf, -math.inf, math.inf)


def to_null(t: float, x: float) -> tuple[float, float]:
    """(t, x) -> (u, v) = (x + t, x - t)."""
    return (x + t, x - t)


def from_null(u: float, v: float) -> tuple[float, float]:
    """(u, v) -> (t, x) = ((u - v)/2, (u + v)/2)."""
    return (0.5 * (u - v), 0.5 * (u + v))


def compactify(factor) -> "ConformalFactor":
    """Pull a whole-plane factor back to the diamond chart, times the
    Jacobian U'V' = (1/4) sec^2(u~/2) sec^2(v~/2).

    The factor may be in the standard chart or the null chart; a null-chart
    factor is evaluated at (U, V) directly.  Requires ``factor.domain`` to
    be the full plane; factors on a strip (e.g. a sec^2 branch) have no
    single-patch compactification here and raise ``DomainError``.
    """
    from .families import ConformalFactor, Provenance

    if factor.chart not in ("tx", "uv"):
        raise ValueError(
            f"compactify expects a standard- or null-chart factor, got chart {factor.chart!r}")
    if factor.domain != full_plane():
        raise DomainError(
            "compactify requires a factor defined on the whole plane; "
            f"this factor lives on {factor.domain!r}")
    null = factor.chart == "uv"
    # the inner factor's own functions, unchecked: the Jacobian U'V' is
    # positive, so the compact factor's positivity check covers the inner's
    inner_value, inner_jet = factor.value_fn, factor.jet_fn

    def value_fn(tt, xx, status=None):
        su, sv = to_null(tt, xx)
        u, du = _half_angle(su)
        v, dv = _half_angle(sv)
        at = (u, v) if null else from_null(u, v)
        return inner_value(*at, status) * (du * dv)

    def jet_fn(tt, xx, status=None):
        # Omega~ = Omega(U(u~), V(v~)) U' V' in the null charts, where
        # U'' = U U' and U''' = U'^2 + U U''
        su, sv = to_null(tt, xx)
        u, du = _half_angle(su)
        v, dv = _half_angle(sv)
        if null:
            w = inner_jet(u, v, status)
        else:
            w = jets.to_null(inner_jet(*from_null(u, v), status))
        ddu, ddv = u * du, v * dv
        pulled = jets.compose_null(w, (u, du, ddu), (v, dv, ddv))
        jac = jets.null_product((du, ddu, du * du + u * ddu),
                                (dv, ddv, dv * dv + v * ddv))
        return jets.from_null(jets.mul(pulled, jac))

    expr = None
    if factor.expression is not None:
        inner = substitute(factor.expression, _NULL_FROM_DIAMOND if null else _FROM_DIAMOND)
        expr = _JACOBIAN if inner == Constant(1.0) else Binary("mul", inner, _JACOBIAN)

    return ConformalFactor(
        chart="compact",
        domain=Diamond(math.pi),
        provenance=Provenance("compactified", {"inner": factor.provenance}),
        target_curvature=factor.target_curvature,
        expression=expr,
        value_fn=value_fn,
        jet_fn=jet_fn,
    )


def interval_from_omega(omega, a, b, chart: str):
    """s^2 (see ``interval_field``) from the factor value at (a, b)."""
    if chart == "uv":
        return omega * (a * b)
    return omega * (b * b - a * a)


def interval_field(factor, a, b):
    """Squared-interval diagnostic s^2 = Omega * (x^2 - t^2).

    In the null chart the analogue is Omega * u v (the same quantity,
    since x^2 - t^2 = u v).  Level sets of s^2 are the constant-interval
    curves drawn in conformal diagrams; s^2 = 0 picks out the null rays
    through the origin in every chart.  Floats or arrays (failing array
    points are NaN, as in ``factor.value``).
    """
    return interval_from_omega(factor.value(a, b), a, b, factor.chart)
