"""Scalar and Ricci curvature of conformally flat 2D Lorentzian metrics.

The metric is g = Omega(t,x) * eta with eta = diag(-1, 1).  For a
positive factor Omega the scalar curvature is

    R = (-Omega_t^2 + Omega_x^2 + Omega (Omega_tt - Omega_xx)) / Omega^3

equivalently, with omega = log Omega,

    R = (omega_tt - omega_xx) e^{-omega}

and in null coordinates u = x + t, v = x - t,

    R = -4 e^{-omega} omega_uv.

All derivatives come from second-order jets, so the only error in these
formulas is float rounding.  A 9-point Richardson finite-difference
oracle is provided as an independent cross-check; it shares no code with
the jet path.

Every ``field`` argument accepts a ``ConformalFactor``-like object with
a ``jet(a, b)`` method, a callable ``(a, b) -> Jet2``, or an
``Expression`` over the appropriate chart variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import expressions, jets
from .errors import DomainError, EvaluationError, NonPositiveFactor, StencilOutsideDomain
from .jets import Jet2

Point = tuple[float, float]


def _as_jet_fn(field, variables: tuple[str, str]) -> Callable[[float, float], Jet2]:
    if hasattr(field, "jet"):
        return field.jet
    if isinstance(field, expressions.NODES):
        first, second = variables
        jet = expressions.compile_expression(field, jets.JET2)

        def from_expression(a: float, b: float) -> Jet2:
            return jet({
                first: jets.seed(first, (a, b)),
                second: jets.seed(second, (a, b)),
            })

        return from_expression
    if callable(field):
        return field
    raise TypeError(f"cannot evaluate {field!r} as a jet field")


def _as_value_fn(field) -> Callable[[float, float], float]:
    if isinstance(field, expressions.NODES):
        values = expressions.compile_expression(field)
        return lambda a, b: values({"t": a, "x": b})
    if hasattr(field, "value") and callable(field.value):
        return field.value
    if callable(field):
        return field
    raise TypeError(f"cannot evaluate {field!r} as a value field")


def scalar_from_factor_jet(w: Jet2, chart: str = "tx") -> float:
    """Scalar curvature from a jet of the factor itself.

    ``chart`` "tx" (or "compact") uses the standard-coordinate formula;
    "uv" uses the null-coordinate one.  Slots may be arrays; a cell whose
    Omega^3 underflows to 0 raises ZeroDivisionError as a float would
    (NaN cells are skipped).
    """
    cube = w.value * w.value * w.value
    if isinstance(cube, np.ndarray) and (cube == 0.0).any():
        raise ZeroDivisionError("float division by zero")
    if chart == "uv":
        return -4.0 * (w.value * w.dtx - w.dt * w.dx) / cube
    return (-w.dt * w.dt + w.dx * w.dx + w.value * (w.dtt - w.dxx)) / cube


def ricci_from_omega(field, point: Point) -> float:
    """Scalar curvature from the factor Omega itself (standard chart)."""
    w = _as_jet_fn(field, ("t", "x"))(*point)
    if w.value <= 0.0:
        raise NonPositiveFactor(
            f"conformal factor must be positive, got {w.value!r} at {point!r}")
    return scalar_from_factor_jet(w, "tx")


def ricci_from_log(field, point: Point) -> float:
    """Scalar curvature from omega = log Omega (standard chart)."""
    w = _as_jet_fn(field, ("t", "x"))(*point)
    return (w.dtt - w.dxx) * math.exp(-w.value)


def ricci_null(field, point: Point) -> float:
    """Scalar curvature from omega expressed in null coordinates (u, v).

    ``point`` is (u, v); the jet slots carry u- and v-partials.
    """
    w = _as_jet_fn(field, ("u", "v"))(*point)
    return -4.0 * w.dtx * math.exp(-w.value)


def ricci_from_omega_null(field, point: Point) -> float:
    """Scalar curvature from the factor Omega given in null coordinates."""
    w = _as_jet_fn(field, ("u", "v"))(*point)
    if w.value <= 0.0:
        raise NonPositiveFactor(
            f"conformal factor must be positive, got {w.value!r} at {point!r}")
    return scalar_from_factor_jet(w, "uv")


@dataclass(frozen=True)
class RicciTensor2:
    """Ricci tensor components in the standard chart.

    For a conformally flat metric the off-diagonal component vanishes
    identically; it is carried (and asserted against the Einstein
    condition) rather than silently assumed by callers.
    """

    component_tt: float
    component_tx: float
    component_xx: float


def ricci_tensor(log_field, point: Point) -> RicciTensor2:
    """Ricci tensor from omega = log Omega:
    diag((omega_xx - omega_tt)/2, (omega_tt - omega_xx)/2)."""
    w = _as_jet_fn(log_field, ("t", "x"))(*point)
    half = 0.5 * (w.dxx - w.dtt)
    return RicciTensor2(component_tt=half, component_tx=0.0, component_xx=-half)


class EinsteinCheck(NamedTuple):
    kappa: float
    residual: float


def einstein_residual(log_field, point: Point) -> EinsteinCheck:
    """Check Ric = kappa g with kappa = R/2.

    Returns kappa and the largest componentwise deviation
    |Ric_ab - kappa g_ab| with g = e^omega eta.
    """
    w = _as_jet_fn(log_field, ("t", "x"))(*point)
    ric = RicciTensor2(component_tt=0.5 * (w.dxx - w.dtt),
                       component_tx=0.0,
                       component_xx=0.5 * (w.dtt - w.dxx))
    scalar = (w.dtt - w.dxx) * math.exp(-w.value)
    kappa = 0.5 * scalar
    g_tt = -math.exp(w.value)
    g_xx = math.exp(w.value)
    residual = max(
        abs(ric.component_tt - kappa * g_tt),
        abs(ric.component_tx),
        abs(ric.component_xx - kappa * g_xx),
    )
    return EinsteinCheck(kappa=kappa, residual=residual)


def fd_ricci_oracle(field, point: Point, h: float = 1e-3) -> float:
    """Finite-difference scalar curvature, independent of the jet path.

    Uses a 9-point stencil (centre plus +-h and +-h/2 on each axis) with
    one Richardson extrapolation step on the central first and second
    differences, then applies the Omega-based curvature formula.
    """
    value = _as_value_fn(field)
    t, x = point

    def sample(a: float, b: float) -> float:
        try:
            return value(a, b)
        except EvaluationError as err:
            raise StencilOutsideDomain(
                f"stencil point ({a!r}, {b!r}) failed: {err}") from err

    f0 = sample(t, x)
    if f0 <= 0.0:
        raise NonPositiveFactor(
            f"conformal factor must be positive, got {f0!r} at {point!r}")

    def derivatives(axis: int) -> tuple[float, float]:
        def at(offset: float) -> float:
            if axis == 0:
                return sample(t + offset, x)
            return sample(t, x + offset)

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
