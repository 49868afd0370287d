"""Constructors for constant-curvature conformal factors.

Solutions of R(Omega) = R0 on 2D Minkowski space come in three families:

* ``flat_factor``:      Omega = phi(x+t) psi(x-t), curvature 0;
* ``timelike_factor``:  Omega = Omega(t), one sech^2 / sec^2 branch per
  sign of the separation constant c1;
* ``spacelike_factor``: the mirror Omega = Omega(x) with constant d1;
* ``liouville_factor``: the general two-variable solution

      Omega = e^{phi(u)} e^{psi(v)} / D^2,
      D = k F(u) - (R/(8k)) G(v) + C,

  with u = x+t, v = x-t and F, G antiderivatives of e^{phi}, e^{psi}.

Antiderivatives are evaluated by adaptive Simpson quadrature from a
fixed reference point (F(0) = 0); the constant that a different
reference would add is absorbed by C.  A useful consequence of the jet
evaluation: the computed curvature of a Liouville factor is insensitive
to quadrature error in F and G, because a value-only perturbation of D
is pointwise equivalent to a shift of C, which stays inside the family
with the same R.

``factor_from_expression`` wraps an arbitrary formula (standard or null
chart) as a factor so the same grid and report machinery applies to it.

Every factory returns a ``ConformalFactor``; its ``value``/``jet``
methods raise ``NonPositiveFactor`` wherever the factor is not strictly
positive, ``SingularDenominator`` inside the epsilon band around D = 0,
and ``DomainError`` outside function domains.  Given arrays of cell
coordinates they evaluate every cell at once instead: a failed cell is
NaN, and a singular one is also marked ``SINGULAR`` in the optional
``status`` array.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import charts, jets
from .errors import (
    SINGULAR,
    BranchYieldsNonPositive,
    EvaluationError,
    MixedChartVariables,
    NonPositiveFactor,
    QuadratureNonConvergence,
    SingularDenominator,
)
from .expressions import (
    Binary,
    Call,
    Constant,
    Expression,
    Unary,
    Variable,
    compile_expression,
    free_variables,
    parse,
    substitute,
    unparse,
)
from .jets import Jet2

DEFAULT_SINGULAR_EPS = 1e-8
DEFAULT_QUADRATURE_TOL = 1e-10
DEFAULT_MAX_DEPTH = 40


@dataclass(frozen=True)
class Provenance:
    """How a factor was built: family name plus the defining parameters."""

    family: str
    parameters: dict


@dataclass
class ConformalFactor:
    """A positive conformal factor g = Omega * eta on some chart.

    ``chart`` is "tx" (standard coordinates), "uv" (null coordinates) or
    "compact" (the diamond after a Penrose-Carter transform; behaves
    like "tx" for curvature purposes).  ``expression`` is a printable
    closed form when one exists, else None.  ``target_curvature`` is the
    constant R the factor is supposed to realize (None for ad-hoc
    expressions with no claim attached).

    ``value_fn`` and ``jet_fn`` take (a, b, status=None) and follow the
    module rules for floats and arrays; ``value`` and ``jet`` add the
    positivity check.  Neither checks points against ``domain``.
    """

    chart: str
    domain: charts.Domain
    provenance: Provenance
    target_curvature: float | None
    expression: Expression | None
    value_fn: Callable[..., float]
    jet_fn: Callable[..., Jet2]

    def value(self, a, b, status=None):
        if isinstance(a, np.ndarray):
            w = _on_cells(self.value_fn, a, b, status, math.nan)
            return jets.poison(w, ~(w > 0.0))
        w = self.value_fn(a, b)
        if w <= 0.0:
            raise NonPositiveFactor(
                f"factor is {w!r} <= 0 at ({a!r}, {b!r})")
        return w

    def jet(self, a, b, status=None):
        if isinstance(a, np.ndarray):
            w = _on_cells(self.jet_fn, a, b, status, Jet2(math.nan))
            return jets.poison(w, ~(w.value > 0.0))
        w = self.jet_fn(a, b)
        if w.value <= 0.0:
            raise NonPositiveFactor(
                f"factor is {w.value!r} <= 0 at ({a!r}, {b!r})")
        return w

    def __call__(self, a: float, b: float) -> float:
        return self.value(a, b)


def _on_cells(fn, a, b, status, failed):
    """``fn(a, b, status)`` on arrays of cells, broadcast to their shape."""
    try:
        # overflow and invalid results are poisoned cells, not warnings
        with np.errstate(all="ignore"):
            w = fn(a, b, status)
    except EvaluationError:
        # On arrays only a part that is the same for every cell, such as
        # log(-1), is evaluated on floats and can raise: every cell fails.
        w = failed
    return jets.broadcast(w, a.shape)


# ---------------------------------------------------------------------------
# Small AST builders.  Products by exactly 1.0 and sums with exactly 0.0 are
# folded so printed factories come out in reduced form; both folds are exact
# in IEEE arithmetic.

def _c(v: float) -> Constant:
    return Constant(float(v))


def _is_const(e: Expression, v: float) -> bool:
    return isinstance(e, Constant) and e.value == v


def _mul(a: Expression, b: Expression) -> Expression:
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Binary("mul", a, b)


def _add(a: Expression, b: Expression) -> Expression:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("add", a, b)


def _sub(a: Expression, b: Expression) -> Expression:
    if _is_const(b, 0.0):
        return a
    return Binary("sub", a, b)


def _pow(a: Expression, n: float) -> Expression:
    return Binary("pow", a, _c(n))


def _as_expression(source) -> Expression:
    if isinstance(source, str):
        return parse(source)
    if isinstance(source, (Constant, Variable, Unary, Binary, Call)):
        return source
    raise TypeError(f"expected source text or an expression, got {source!r}")


def _single_variable(e: Expression, role: str) -> str | None:
    names = free_variables(e)
    if len(names) > 1:
        raise ValueError(
            f"{role} must be an expression in one variable, found {sorted(names)}")
    return next(iter(names)) if names else None


def _expression_factor(expr: Expression, chart: str, domain, provenance,
                       target: float | None) -> ConformalFactor:
    first, second = ("u", "v") if chart == "uv" else ("t", "x")
    values = compile_expression(expr)
    jet = compile_expression(expr, jet=True)

    def value_fn(a, b, status=None):
        return values({first: a, second: b})

    def jet_fn(a, b, status=None):
        return jet({first: jets.seed(first, (a, b)),
                    second: jets.seed(second, (a, b))})

    return ConformalFactor(chart=chart, domain=domain, provenance=provenance,
                           target_curvature=target, expression=expr,
                           value_fn=value_fn, jet_fn=jet_fn)


# ---------------------------------------------------------------------------
# Families

def flat_factor(phi, psi, domain=None) -> ConformalFactor:
    """Flat factor Omega(t,x) = phi(x+t) * psi(x-t).

    ``phi`` and ``psi`` are one-variable expressions (any variable name);
    constants are fine.  The product must be positive where evaluated.
    """
    phi = _as_expression(phi)
    psi = _as_expression(psi)
    u_expr = Binary("add", Variable("x"), Variable("t"))
    v_expr = Binary("sub", Variable("x"), Variable("t"))
    phi_var = _single_variable(phi, "phi")
    psi_var = _single_variable(psi, "psi")
    left = substitute(phi, {phi_var: u_expr}) if phi_var else phi
    right = substitute(psi, {psi_var: v_expr}) if psi_var else psi
    expr = _mul(left, right)
    provenance = Provenance("flat", {"phi": unparse(phi), "psi": unparse(psi)})
    return _expression_factor(expr, "tx", domain or charts.full_plane(),
                              provenance, 0.0)


def _one_variable_factor(sep: float, shift: float, target: float,
                         coeff: float, coordinate: str, family: str,
                         params: dict) -> ConformalFactor:
    if target == 0.0:
        raise ValueError(f"{family} family needs a nonzero target curvature")
    if sep == 0.0:
        raise BranchYieldsNonPositive(
            f"{family} separation constant 0 degenerates to the zero factor")
    if coeff <= 0.0:
        raise BranchYieldsNonPositive(
            f"{family} branch with separation constant {sep!r} has no positive "
            f"factor for curvature {target!r} (coefficient {coeff!r})")
    rate = 0.5 * math.sqrt(abs(sep))
    arg = _mul(_c(rate), _add(Variable(coordinate), _c(shift)))
    fn = "sech" if sep > 0.0 else "sec"
    expr = _mul(_c(coeff), _pow(Call(fn, arg), 2))
    if fn == "sec":
        half_period = math.pi / (2.0 * rate)
        lo, hi = -shift - half_period, -shift + half_period
        if coordinate == "t":
            domain = charts.Rectangle(lo, hi, -math.inf, math.inf)
        else:
            domain = charts.Rectangle(-math.inf, math.inf, lo, hi)
    else:
        domain = charts.full_plane()
    return _expression_factor(expr, "tx", domain,
                              Provenance(family, params), target)


def timelike_factor(c1: float, c2: float, target: float) -> ConformalFactor:
    """One-variable factor Omega(t) with constant curvature ``target``.

    c1 > 0 gives the sech^2 branch (positive only for target < 0);
    c1 < 0 gives the sec^2 branch (positive only for target > 0), on the
    pole-free strip around t = -c2.
    """
    coeff = -c1 / (2.0 * target) if target != 0.0 else -1.0
    return _one_variable_factor(c1, c2, target, coeff, "t", "timelike",
                                {"c1": c1, "c2": c2, "R": target})


def spacelike_factor(d1: float, d2: float, target: float) -> ConformalFactor:
    """One-variable factor Omega(x); mirror of ``timelike_factor``.

    d1 > 0 gives sech^2 (positive only for target > 0); d1 < 0 gives
    sec^2 (positive only for target < 0).
    """
    coeff = d1 / (2.0 * target) if target != 0.0 else -1.0
    return _one_variable_factor(d1, d2, target, coeff, "x", "spacelike",
                                {"d1": d1, "d2": d2, "R": target})


# ---------------------------------------------------------------------------
# Quadrature-backed antiderivatives

def _adaptive_simpson(f, a: float, b: float, tol: float, max_depth: int) -> float:
    if a == b:
        return 0.0
    if b < a:
        return -_adaptive_simpson(f, b, a, tol, max_depth)
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_step(f, a, b, fa, fm, fb, whole, tol, max_depth)


def _simpson_step(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = (left + right) - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureNonConvergence(
            f"adaptive Simpson hit maximum depth on [{a!r}, {b!r}]",
            abs(delta) / 15.0)
    return (_simpson_step(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
            + _simpson_step(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))


class Antiderivative:
    """F(s) = integral of a one-variable integrand from ``reference`` to s.

    Values come from adaptive Simpson quadrature (absolute tolerance
    ``tol``, interval bisection, ``QuadratureNonConvergence`` past
    ``max_depth``).  Derivatives are exact: F' is the integrand itself
    and F'' its derivative via a univariate jet.  Computed values are
    cached; each query integrates from the nearest cached abscissa, so
    repeated nearby queries stay cheap.  The cache is guarded by a lock.
    An array of abscissae is integrated one entry at a time, in order; an
    entry that is NaN or whose quadrature fails comes back NaN.
    """

    def __init__(self, integrand, reference: float = 0.0,
                 tol: float = DEFAULT_QUADRATURE_TOL,
                 max_depth: int = DEFAULT_MAX_DEPTH):
        self.integrand = _as_expression(integrand)
        self.variable = _single_variable(self.integrand, "integrand") or "l"
        self._values = compile_expression(self.integrand)
        self._jet = compile_expression(self.integrand, jet=True)
        self.reference = float(reference)
        self.tol = float(tol)
        self.max_depth = int(max_depth)
        self._keys: list[float] = [self.reference]
        self._vals: list[float] = [0.0]
        self._lock = threading.Lock()

    def integrand_at(self, s):
        return self._values({self.variable: s})

    def integrand_jet(self, s):
        """(integrand, integrand', integrand'') at s, i.e. (F', F'', F''')."""
        j = self._jet({self.variable: Jet2(jets.as_slot(s), 1.0)})
        return j.value, j.dt, j.dtt

    def value(self, s):
        if isinstance(s, np.ndarray):
            values = [self._value_or_nan(v) for v in s.ravel().tolist()]
            return np.array(values, dtype=float).reshape(s.shape)
        s = float(s)
        with self._lock:
            i = bisect.bisect_left(self._keys, s)
            if i < len(self._keys) and self._keys[i] == s:
                return self._vals[i]
            # integrate from the nearest cached abscissa
            candidates = []
            if i > 0:
                candidates.append(i - 1)
            if i < len(self._keys):
                candidates.append(i)
            anchor = min(candidates, key=lambda idx: abs(self._keys[idx] - s))
            base_s, base_v = self._keys[anchor], self._vals[anchor]
            val = base_v + _adaptive_simpson(self.integrand_at, base_s, s,
                                             self.tol, self.max_depth)
            self._keys.insert(i, s)
            self._vals.insert(i, val)
            return val

    def _value_or_nan(self, s: float) -> float:
        if math.isnan(s):
            return math.nan
        try:
            return self.value(s)
        except EvaluationError:
            return math.nan

    def jet(self, inner: Jet2) -> Jet2:
        """Jet of F(inner) through second order."""
        f1, f2, _ = self.integrand_jet(inner.value)
        return jets.compose(self.value(inner.value), f1, f2, inner)


class _ExactExp:
    """Raw antiderivative of e^s: F(s) = e^s without the F(0)=0 shift."""

    value = integrand_at = staticmethod(jets.exp)

    def integrand_jet(self, s):
        e = jets.exp(s)
        return e, e, e


def _off_band(d, dv, eps: float, status, t, x):
    """``d`` (a value or a Jet2 with value ``dv``) outside the singular band
    |D| < eps.  Floats raise ``SingularDenominator`` inside it; array cells
    inside it are marked ``SINGULAR`` in ``status`` and poisoned."""
    near = abs(dv) < eps
    if isinstance(near, np.ndarray):
        if status is not None:
            status[near] = SINGULAR
        return jets.poison(d, near)
    if near:
        raise SingularDenominator(
            f"denominator {dv!r} within {eps!r} of 0 at (t={t!r}, x={x!r})")
    return d


# ---------------------------------------------------------------------------
# General (Liouville) family

def liouville_factor(phi, psi, k: float, C: float, target: float,
                     raw_antiderivative: bool = False,
                     quadrature_tol: float = DEFAULT_QUADRATURE_TOL,
                     singular_eps: float = DEFAULT_SINGULAR_EPS,
                     domain=None) -> ConformalFactor:
    """General constant-curvature factor

        Omega(t, x) = e^{phi(u)} e^{psi(v)} / D(u, v)^2,
        D = k F(u) - (target/(8k)) G(v) + C,

    with u = x+t, v = x-t, F' = e^{phi}, G' = e^{psi}.

    By default F and G vanish at 0; any other choice of antiderivative
    constant can be absorbed into C.  With ``raw_antiderivative`` the
    unshifted closed form F(s) = e^s is used instead, which is only
    accepted when phi and psi are both the bare integration variable
    (then the factor has a printable closed form).
    """
    phi = _as_expression(phi)
    psi = _as_expression(psi)
    k = float(k)
    C = float(C)
    target = float(target)
    if k == 0.0:
        raise ValueError("k must be nonzero")
    _single_variable(phi, "phi")
    _single_variable(psi, "psi")
    cg = target / (8.0 * k)

    expr = None
    if raw_antiderivative:
        if not (isinstance(phi, Variable) and isinstance(psi, Variable)):
            raise ValueError(
                "raw antiderivative form requires phi and psi to be the bare "
                "integration variable; use the default shifted antiderivative "
                "and fold the constant into C instead")
        f_anti = _ExactExp()
        g_anti = _ExactExp()
        u_ast = Binary("add", Variable("x"), Variable("t"))
        v_ast = Binary("sub", Variable("x"), Variable("t"))
        d_ast = _add(_sub(_mul(_c(k), Call("exp", u_ast)),
                          _mul(_c(cg), Call("exp", v_ast))), _c(C))
        expr = _mul(_mul(Call("exp", u_ast), Call("exp", v_ast)),
                    _pow(d_ast, -2))
    else:
        f_anti = Antiderivative(Call("exp", phi), 0.0, quadrature_tol)
        g_anti = Antiderivative(Call("exp", psi), 0.0, quadrature_tol)

    def value_fn(t, x, status=None):
        su = x + t
        sv = x - t
        d = (k * f_anti.value(su) - cg * g_anti.value(sv)) + C
        d = _off_band(d, d, singular_eps, status, t, x)
        eu = f_anti.integrand_at(su)
        ev = g_anti.integrand_at(sv)
        return (eu * ev) / (d * d)

    def jet_fn(t, x, status=None):
        jt = jets.seed("t", (t, x))
        jx = jets.seed("x", (t, x))
        ju = jets.add(jx, jt)
        jv = jets.sub(jx, jt)
        iu0, iu1, iu2 = f_anti.integrand_jet(ju.value)
        iv0, iv1, iv2 = g_anti.integrand_jet(jv.value)
        fu = jets.compose(f_anti.value(ju.value), iu0, iu1, ju)
        gv = jets.compose(g_anti.value(jv.value), iv0, iv1, jv)
        d = (fu * k - gv * cg) + C
        d = _off_band(d, d.value, singular_eps, status, t, x)
        eu = jets.compose(iu0, iu1, iu2, ju)
        ev = jets.compose(iv0, iv1, iv2, jv)
        return (eu * ev) / (d * d)

    provenance = Provenance("liouville", {
        "phi": unparse(phi), "psi": unparse(psi), "k": k, "C": C, "R": target,
        "antiderivative": "raw" if raw_antiderivative else "shifted",
        "reference": None if raw_antiderivative else 0.0,
    })
    return ConformalFactor(chart="tx", domain=domain or charts.full_plane(),
                           provenance=provenance, target_curvature=target,
                           expression=expr, value_fn=value_fn, jet_fn=jet_fn)


# ---------------------------------------------------------------------------
# Ad-hoc expressions

def factor_from_expression(source, claimed_curvature: float | None = None,
                           domain=None) -> ConformalFactor:
    """Wrap a formula in t,x (or u,v) as a conformal factor.

    ``claimed_curvature`` is the constant the caller asserts; reports
    check against it.  Mixing chart variables raises
    ``MixedChartVariables``.
    """
    expr = _as_expression(source)
    names = free_variables(expr)
    if "l" in names:
        raise ValueError("'l' is reserved for integrands")
    standard = names & {"t", "x"}
    null = names & {"u", "v"}
    if standard and null:
        raise MixedChartVariables(
            f"expression mixes standard and null chart variables: {sorted(names)}")
    chart = "uv" if null else "tx"
    provenance = Provenance("expression", {"source": unparse(expr),
                                           "claimed_R": claimed_curvature})
    return _expression_factor(expr, chart, domain or charts.full_plane(),
                              provenance, claimed_curvature)
