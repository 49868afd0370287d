"""Coordinate charts, domains, and the Penrose-Carter compactification.

Charts: standard (t, x), null (u, v) = (x + t, x - t), and the compact
chart obtained by pulling a whole-plane factor back through

    u = tan(u~/2),  v = tan(v~/2),      u~ = x~ + t~,  v~ = x~ - t~,

which maps the open diamond {|t~| + |x~| < pi} onto the full plane.  The
compactified factor picks up the Jacobian (1/4) sec^2(u~/2) sec^2(v~/2)
and keeps the same scalar curvature, since R is invariant under a change
of coordinates combined with the matching conformal rescaling.

Domains are open point sets with a bounding box; membership uses strict
inequalities so that boundary points (where compact factors blow up)
are never sampled as interior.  ``contains`` takes floats or arrays of
cell centres (then it returns a boolean array).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import jets
from .errors import DomainError
from .jets import Jet2

_TAN = jets.VALUE_FUNCTIONS["tan"]
_SEC = jets.VALUE_FUNCTIONS["sec"]


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

    @property
    def is_bounded(self) -> bool:
        return all(math.isfinite(v) for v in self.bbox())

    @property
    def is_full_plane(self) -> bool:
        return (self.t_min == -math.inf and self.t_max == math.inf
                and self.x_min == -math.inf and self.x_max == math.inf)


@dataclass(frozen=True)
class Diamond:
    """Open diamond |t| + |x| < half_width (the compactified plane)."""

    half_width: float = math.pi

    def contains(self, t, x):
        return (abs(x) < self.half_width) & (abs(t) < self.half_width - abs(x))

    def bbox(self) -> tuple[float, float, float, float]:
        w = self.half_width
        return (-w, w, -w, w)

    @property
    def is_bounded(self) -> bool:
        return math.isfinite(self.half_width)

    @property
    def is_full_plane(self) -> bool:
        return False


@dataclass(frozen=True)
class Region:
    """Open set given by a membership predicate plus a bounding box.

    The predicate takes one point; arrays are tested point by point.
    """

    predicate: Callable[[float, float], bool]
    bounds: tuple[float, float, float, float]

    def contains(self, t, x):
        if isinstance(t, np.ndarray):
            return np.fromiter(map(self.predicate, t.tolist(), x.tolist()),
                               dtype=bool, count=t.size).reshape(t.shape)
        return self.predicate(t, x)

    def bbox(self) -> tuple[float, float, float, float]:
        return self.bounds

    @property
    def is_bounded(self) -> bool:
        return all(math.isfinite(v) for v in self.bounds)

    @property
    def is_full_plane(self) -> bool:
        return False


Domain = Union[Rectangle, Diamond, Region]


def full_plane() -> Rectangle:
    return Rectangle(-math.inf, math.inf, -math.inf, math.inf)


def diamond(half_width: float = math.pi) -> Diamond:
    return Diamond(half_width)


def to_null(t: float, x: float) -> tuple[float, float]:
    """(t, x) -> (u, v) = (x + t, x - t)."""
    return (x + t, x - t)


def from_null(u: float, v: float) -> tuple[float, float]:
    """(u, v) -> (t, x) = ((u - v)/2, (u + v)/2)."""
    return (0.5 * (u - v), 0.5 * (u + v))


def compactify(factor) -> "ConformalFactor":
    """Pull a whole-plane factor back to the diamond chart.

    Requires ``factor.domain`` to be the full (t, x) plane; factors on a
    strip (e.g. a sec^2 branch) have no single-patch compactification
    here and raise ``DomainError``.
    """
    from .families import ConformalFactor, Provenance

    if factor.chart != "tx":
        raise ValueError(
            f"compactify expects a standard-chart factor, got chart {factor.chart!r}")
    if not (isinstance(factor.domain, Rectangle) and factor.domain.is_full_plane):
        raise DomainError(
            "compactify requires a factor defined on the whole plane; "
            f"this factor lives on {factor.domain!r}")

    def value_fn(tt, xx, status=None):
        hu = 0.5 * (xx + tt)
        hv = 0.5 * (xx - tt)
        u = _TAN(hu)
        v = _TAN(hv)
        w = factor.value(0.5 * (u - v), 0.5 * (u + v), status)
        su = _SEC(hu)
        sv = _SEC(hv)
        jac = 0.25 * (su * su) * (sv * sv)
        return w * jac

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
        pulled = jets.compose_map(w, jtm, jxm)
        jsu = jets.apply_elementary("sec", jhu)
        jsv = jets.apply_elementary("sec", jhv)
        jac = 0.25 * (jsu * jsu) * (jsv * jsv)
        return pulled * jac

    expr = None
    if factor.expression is not None:
        from .expressions import Binary, Call, Constant, Variable, substitute
        hu_ast = Binary("div", Binary("add", Variable("x"), Variable("t")), Constant(2.0))
        hv_ast = Binary("div", Binary("sub", Variable("x"), Variable("t")), Constant(2.0))
        u_ast = Call("tan", hu_ast)
        v_ast = Call("tan", hv_ast)
        tmap = Binary("div", Binary("sub", u_ast, v_ast), Constant(2.0))
        xmap = Binary("div", Binary("add", u_ast, v_ast), Constant(2.0))
        jac_ast = Binary("mul",
                         Binary("mul", Constant(0.25),
                                Binary("pow", Call("sec", hu_ast), Constant(2.0))),
                         Binary("pow", Call("sec", hv_ast), Constant(2.0)))
        inner = substitute(factor.expression, {"t": tmap, "x": xmap})
        if isinstance(inner, Constant) and inner.value == 1.0:
            expr = jac_ast
        else:
            expr = Binary("mul", inner, jac_ast)

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


def interval_field(factor, a, b, status=None):
    """Squared-interval diagnostic s^2 = Omega * (x^2 - t^2).

    In the null chart the analogue is Omega * u v (the same quantity,
    since x^2 - t^2 = u v).  Level sets of s^2 are the constant-interval
    curves drawn in conformal diagrams; s^2 = 0 picks out the null rays
    through the origin in every chart.  Floats or arrays (``status`` as in
    ``factor.value``: failing array points are NaN).
    """
    return interval_from_omega(factor.value(a, b, status), a, b, factor.chart)
