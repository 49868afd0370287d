"""Scalar curvature of conformally flat 2D Lorentzian metrics.

The metric is g = Omega * eta with eta = diag(-1, 1).  For a
positive factor Omega the scalar curvature is

    R = (-Omega_t^2 + Omega_x^2 + Omega (Omega_tt - Omega_xx)) / Omega^3

equivalently, with omega = log Omega,

    R = (omega_tt - omega_xx) e^{-omega}

and in null coordinates u = x + t, v = x - t,

    R = -4 e^{-omega} omega_uv.

Entry points, by input:

* ``scalar_from_factor_jet(w, chart)`` -- a jet of Omega (floats or arrays);
* ``ricci_from_omega(field, point)`` -- a field of Omega;
* ``ricci_from_log(field, point)`` -- a field of omega = log Omega;
* ``einstein_residual(log_field, point)`` -- Ric = (R/2) g from omega,
  in the (t, x) chart only;
* ``fd_ricci_oracle(field, point)`` -- R from values of Omega alone.

The field's chart picks the formula, never the function's name.  A
``field`` is a ``ConformalFactor``, read through its ``jet`` and
``value`` (its ``chart``: "tx", "compact" or "uv"), an ``Expression``
(chart "uv" when it is written in u, v, else "tx") or a callable of
(t, x) (chart "tx") that returns a ``Jet2``, or a float for the oracle.
``point`` is in the field's chart: (u, v) for a null-chart field, and is
not checked against the factor's domain.

All derivatives come from second-order jets, so the only error in these
formulas is float rounding.  The finite-difference oracle is an
independent cross-check; it shares no code with the jet path.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import expressions, families, jets
from .errors import EvaluationError, NonPositiveFactor, StencilOutsideDomain
from .jets import Jet2

Point = tuple[float, float]


def _field(field) -> tuple[Callable[..., Jet2], Callable[..., float], str]:
    """``(jet, value, chart)`` of a factor, an expression or a callable."""
    if hasattr(field, "jet"):
        return field.jet, field.value, field.chart
    if isinstance(field, expressions.NODES):
        # unchecked functions: a log field may be <= 0
        factor = families.factor_from_expression(field)
        return factor.jet_fn, factor.value_fn, factor.chart
    if callable(field):
        return field, field, "tx"
    raise TypeError(f"cannot evaluate {field!r} as a field")


def scalar_from_factor_jet(w: Jet2, chart: str = "tx") -> float:
    """Scalar curvature from a jet of the factor itself.

    ``chart`` "tx" (or "compact") uses the standard-coordinate formula;
    "uv" uses the null-coordinate one.  Slots may be arrays; a cell whose
    Omega^3 underflows to 0 raises ZeroDivisionError as a float would
    (NaN cells are skipped).  R itself must be finite: a float raises
    ``DomainError`` (``jets.finite``), an array cell becomes NaN, and
    numpy's overflow and invalid warnings on arrays are silenced, since
    those cells are NaN anyway.
    """
    if w.value.__class__ is float:
        r = _scalar(w, chart)
        if r.__class__ is float:
            return jets.finite(r, "non-finite scalar curvature (overflow)")
    else:
        # overflow and invalid results are NaN cells, not warnings
        with np.errstate(all="ignore"):
            r = _scalar(w, chart)
    # array rules (numpy scalars included): an infinite R becomes NaN
    return r if np.isfinite(r).all() else np.where(np.isinf(r), np.nan, r)


def _scalar(w: Jet2, chart: str):
    cube = w.value * w.value * w.value
    if isinstance(cube, np.ndarray) and (cube == 0.0).any():
        raise ZeroDivisionError("float division by zero")
    if chart == "uv":
        return -4.0 * (w.value * w.dtx - w.dt * w.dx) / cube
    # no negated slot: on a failed (all-NaN) cell every step keeps the
    # NaN positive, whichever operand numpy's loops pass first
    return (w.dx * w.dx - w.dt * w.dt + w.value * (w.dtt - w.dxx)) / cube


def ricci_from_omega(field, point: Point) -> float:
    """Scalar curvature from the factor Omega, in the field's chart."""
    jet, _, chart = _field(field)
    w = jet(*point)
    if w.value <= 0.0:
        raise NonPositiveFactor(
            f"conformal factor must be positive, got {w.value!r} at {point!r}")
    return scalar_from_factor_jet(w, chart)


def ricci_from_log(field, point: Point) -> float:
    """Scalar curvature from omega = log Omega, in the field's chart."""
    jet, _, chart = _field(field)
    w = jet(*point)
    if chart == "uv":
        return -4.0 * w.dtx * math.exp(-w.value)
    return (w.dtt - w.dxx) * math.exp(-w.value)


class EinsteinCheck(NamedTuple):
    kappa: float
    residual: float


def einstein_residual(log_field, point: Point) -> EinsteinCheck:
    """Check Ric = kappa g with kappa = R/2, from omega in the (t, x) chart.

    Ric = diag((omega_xx - omega_tt)/2, (omega_tt - omega_xx)/2) has no
    off-diagonal part.  Returns kappa and the largest componentwise
    deviation |Ric_ab - kappa g_ab| with g = e^omega eta.
    """
    jet, _, chart = _field(log_field)
    if chart == "uv":
        raise ValueError("einstein_residual needs a field in the (t, x) chart")
    w = jet(*point)
    ric_tt = 0.5 * (w.dxx - w.dtt)
    ric_xx = 0.5 * (w.dtt - w.dxx)
    kappa = 0.5 * ((w.dtt - w.dxx) * math.exp(-w.value))
    g_xx = math.exp(w.value)  # g_tt = -g_xx
    residual = max(abs(ric_tt + kappa * g_xx), abs(ric_xx - kappa * g_xx))
    return EinsteinCheck(kappa=kappa, residual=residual)


def fd_ricci_oracle(field, point: Point, h: float = 1e-3) -> float:
    """Finite-difference scalar curvature, independent of the jet path.

    Uses a 9-point stencil (centre plus +-h and +-h/2 along t and x)
    with one Richardson extrapolation step on the central first and
    second differences, then applies the Omega-based curvature formula.
    A null-chart field is sampled at the stencil's images: a step h
    along t moves (u, v) by (+h, -h), one along x by (+h, +h).
    """
    _, value, chart = _field(field)
    a, b = point

    def sample(p: float, q: float) -> float:
        try:
            return value(p, q)
        except EvaluationError as err:
            raise StencilOutsideDomain(
                f"stencil point ({p!r}, {q!r}) failed: {err}") from err

    f0 = sample(a, b)
    if f0 <= 0.0:
        raise NonPositiveFactor(
            f"conformal factor must be positive, got {f0!r} at {point!r}")

    def derivatives(axis: int) -> tuple[float, float]:
        def at(offset: float) -> float:
            if chart == "uv":
                return sample(a + offset, b - offset if axis == 0 else b + offset)
            if axis == 0:
                return sample(a + offset, b)
            return sample(a, b + offset)

        fp, fm = at(h), at(-h)
        fp2, fm2 = at(h / 2), at(-h / 2)
        d1_h = (fp - fm) / (2.0 * h)
        d1_h2 = (fp2 - fm2) / h
        d1 = (4.0 * d1_h2 - d1_h) / 3.0
        d2_h = (fp - 2.0 * f0 + fm) / (h * h)
        d2_h2 = (fp2 - 2.0 * f0 + fm2) / (h * h / 4.0)
        d2 = (4.0 * d2_h2 - d2_h) / 3.0
        return d1, d2

    w_t, w_tt = derivatives(0)
    w_x, w_xx = derivatives(1)
    num = -w_t * w_t + w_x * w_x + f0 * (w_tt - w_xx)
    return num / (f0 * f0 * f0)
