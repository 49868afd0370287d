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

Antiderivatives are tabulated once per factor as piecewise Chebyshev
interpolants on panels built outward from 0 (F(0) = 0); the constant that
any other reference point would add is absorbed by C.  A panel is halved
at most ``MAX_DEPTH`` times before the abscissae beyond it fail.  Reading
F is a table lookup that calls no integrand, so a factor's value at a
point does not depend on what was queried before, in which order or from
which thread.

The jet of a Liouville factor is assembled in the null coordinates, in
which each ingredient depends on one of them.  The integrands' univariate
Taylor jets give D_u = k e^{phi}, D_v = -(R/(8k)) e^{psi} (D_uv = 0) and
the jet of e^{phi} e^{psi}; the quotient rule gives
Omega = e^{phi} e^{psi} / (D D); one fixed linear pullback,
d/dt = d/du - d/dv and d/dx = d/du + d/dv, gives the (t, x) slots.  The
same code serves floats and arrays.  D's derivatives come from the
integrands and never from F's table, so the computed curvature is
insensitive to quadrature error in F and G: a value-only perturbation of
D is pointwise equivalent to a shift of C, which stays inside the family
with the same R.

The separable families take univariate jets too.  A flat factor's jet is
the same assembly with D = 1: the Taylor jets of phi at u and psi at v,
their null-chart product, and the pullback.  A one-variable factor's jet
is the Taylor jet of its formula in t (or x), placed in the value and
t-slots (or x-slots); every other slot is 0.  Their printed formulas give
the values.  Their jets hold the same bits as the formulas' six-slot jets
in (t, x), so R does too, except in dtx, which is summed in another order,
and where a product of slots underflows.

``factor_from_expression`` wraps an arbitrary formula (standard or null
chart) as a factor so the same grid and report machinery applies to it.

Every factory returns a ``ConformalFactor`` on its family's domain: the
whole plane, or the pole-free strip of a sec^2 branch (``compactify``
gives the diamond).  The factories take no domain; a caller that samples
elsewhere passes its own domain to ``sample_grid``.  A factor's
``value_fn``/``jet_fn`` raise ``SingularDenominator`` inside the band
|D| < ``SINGULAR_EPS`` (the constant when the factor is built) and
``DomainError`` outside function domains; its ``value``/``jet`` do the
same, raise ``DomainError`` on a float result that is not finite, and
raise ``NonPositiveFactor`` wherever the factor is not strictly
positive.  Given arrays of cell coordinates all four evaluate
every cell at once instead: a failed cell is NaN, and a singular one is
also marked ``SINGULAR`` in the optional ``status`` array.  Each slot
they return then broadcasts to the cells' shape, and may be a float, a
row, a column or an input array itself (a float slot may come back as
a numpy scalar), so callers only read it.  ``value`` and ``jet`` check
finiteness once per array evaluation, under floating-point traps (see
``jets``).  A factory refuses parameters whose derived coefficient
overflows, or underflows to 0, with ``ValueError``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import charts, jets
from .errors import (
    SINGULAR,
    BranchYieldsNonPositive,
    DomainError,
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
    NODES,
    Variable,
    compile_expression,
    free_variables,
    parse,
    substitute,
    unparse,
)
from .jets import Jet2

SINGULAR_EPS = 1e-8     # half-width of the singular band around D = 0
DEFAULT_QUADRATURE_TOL = 1e-10
MAX_DEPTH = 40          # halvings of one quadrature panel before it fails


@dataclass
class ConformalFactor:
    """A positive conformal factor g = Omega * eta on some chart.

    ``chart`` is "tx" (standard coordinates), "uv" (null coordinates) or
    "compact" (the diamond after a Penrose-Carter transform; behaves
    like "tx" for curvature purposes).  ``expression`` is a printable
    closed form when one exists, else None.  ``target_curvature`` is the
    constant R the factor is supposed to realize (None for ad-hoc
    expressions with no claim attached).  ``provenance`` says how the
    factor was built, as the plain dict ``{"family": name, **parameters}``
    (a compactified factor's holds its inner factor's under "inner");
    ``domain`` is any object with ``contains`` and ``bbox`` (see
    ``charts``).

    ``value_fn``, ``jet_fn``, ``value`` and ``jet`` take (a, b,
    status=None) and follow the module rules for floats and arrays.
    ``value`` and ``jet`` add the positivity check: on arrays they return
    what ``value_fn`` and ``jet_fn`` return with the non-positive cells
    poisoned, and all NaN where a part that is the same for every cell,
    such as log(-1), raises.  None checks points against ``domain``.
    The cells' shape is ``np.broadcast_shapes(a.shape, b.shape)``: a
    column of t against a row of x gives the lattice between them, and a
    subformula in one coordinate is evaluated on that coordinate alone.
    """

    chart: str
    domain: object
    provenance: dict
    target_curvature: float | None
    expression: Expression | None
    value_fn: Callable[..., float]
    jet_fn: Callable[..., Jet2]

    def value(self, a, b, status=None):
        return _checked(self.value_fn, a, b, status, math.nan)

    def jet(self, a, b, status=None):
        return _checked(self.jet_fn, a, b, status, Jet2(math.nan))


def _checked(fn, a, b, status, failed):
    """``fn(a, b, status)`` where the factor is positive.  Floats raise
    ``DomainError`` on a non-finite value (an overflow such as inf/inf
    that the unchecked float arithmetic of a ``value_fn`` turned into
    NaN) and ``NonPositiveFactor`` on a non-positive one; arrays of cells
    come back poisoned there, and all NaN (``failed``) when a part the
    same for every cell, such as log(-1), is evaluated on floats and
    raises.  Arrays are evaluated once under floating-point traps
    (``jets.on_cells``), which leave a failed cell NaN in its value but
    maybe not in every partial; the positivity test fails every NaN cell,
    so each comes back NaN in every slot, with the bits of the
    per-operation checks."""
    if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        w = fn(a, b, status)
        omega = jets.finite(w.value if isinstance(w, Jet2) else w)
        if omega <= 0.0:
            raise NonPositiveFactor(
                f"factor is {omega!r} <= 0 at ({a!r}, {b!r})")
        return w
    try:
        w = jets.on_cells(fn, (a, b), a, b, status)
    except EvaluationError:
        w = failed
    # np.greater, not >: a constant factor's value is a float
    bad = ~np.greater(w.value if isinstance(w, Jet2) else w, 0.0)
    return jets.poison(w, bad) if bad.any() else w


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
    if isinstance(source, NODES):
        return source
    raise TypeError(f"expected source text or an expression, got {source!r}")


def _single_variable(e: Expression, role: str) -> str | None:
    names = free_variables(e)
    if len(names) > 1:
        raise ValueError(
            f"{role} must be an expression in one variable, found {sorted(names)}")
    return next(iter(names)) if names else None


def _taylor(e: Expression, variable: str | None):
    """s -> the univariate Taylor jet (f, f', f'') of ``e`` at s, ``e`` a
    formula in ``variable`` alone; a constant gives a float triple."""
    jet = compile_expression(e, jets.TAYLOR)
    name = variable or "l"
    return lambda s: jet({name: (jets.as_slot(s), 1.0, 0.0)})


def _expression_factor(expr: Expression, chart: str, domain, provenance,
                       target: float | None, jet_fn=None) -> ConformalFactor:
    """A factor whose values come from ``expr``; so does its jet, unless
    the family passes a ``jet_fn`` of its own."""
    first, second = charts.coordinate_names(chart)
    values = compile_expression(expr)

    def value_fn(a, b, status=None):
        return values({first: a, second: b})

    if jet_fn is None:
        jet = compile_expression(expr, jets.JET2)

        def jet_fn(a, b, status=None):
            return jet({first: jets.seed(first, (a, b)),
                        second: jets.seed(second, (a, b))})

    return ConformalFactor(chart=chart, domain=domain, provenance=provenance,
                           target_curvature=target, expression=expr,
                           value_fn=value_fn, jet_fn=jet_fn)


# ---------------------------------------------------------------------------
# Families

def flat_factor(phi, psi) -> ConformalFactor:
    """Flat factor Omega(t,x) = phi(x+t) * psi(x-t).

    ``phi`` and ``psi`` are one-variable expressions (any variable name);
    constants are fine.  The product must be positive where evaluated.
    """
    phi = _as_expression(phi)
    psi = _as_expression(psi)
    u_expr, v_expr = charts.NULL_COORDINATES["u"], charts.NULL_COORDINATES["v"]
    phi_var = _single_variable(phi, "phi")
    psi_var = _single_variable(psi, "psi")
    left = substitute(phi, {phi_var: u_expr}) if phi_var else phi
    right = substitute(psi, {psi_var: v_expr}) if psi_var else psi
    expr = _mul(left, right)
    provenance = {"family": "flat", "phi": unparse(phi), "psi": unparse(psi)}
    phi_jet, psi_jet = _taylor(phi, phi_var), _taylor(psi, psi_var)

    def jet_fn(t, x, status=None):
        # the Liouville assembly with D = 1
        return jets.from_null(jets.null_product(phi_jet(x + t), psi_jet(x - t)))

    return _expression_factor(expr, "tx", charts.full_plane(), provenance, 0.0, jet_fn)


def _one_variable_factor(sep: float, shift: float, target: float,
                         sign: float, coordinate: str, family: str,
                         params: dict) -> ConformalFactor:
    """The factor coeff sech^2 (sep > 0) or coeff sec^2 (sep < 0) of
    rate sqrt|sep|/2 in ``coordinate``, with coeff = sign*sep/(2 target)."""
    if target == 0.0:
        raise ValueError(f"{family} family needs a nonzero target curvature")
    if sep == 0.0:
        raise BranchYieldsNonPositive(
            f"{family} separation constant 0 degenerates to the zero factor")
    coeff = sign * sep / (2.0 * target)
    # the branch is decided by the signs, not by the rounded coefficient,
    # which can underflow to 0 on a positive branch
    if (sign * sep > 0.0) != (target > 0.0):
        raise BranchYieldsNonPositive(
            f"{family} branch with separation constant {sep!r} has no positive "
            f"factor for curvature {target!r} (coefficient {coeff!r})")
    if not 0.0 < coeff < math.inf:
        raise ValueError(
            f"{family} coefficient {'underflows' if coeff == 0.0 else 'overflows'} "
            f"for separation constant {sep!r} and curvature {target!r}")
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
    taylor = _taylor(expr, coordinate)
    if coordinate == "t":
        def jet_fn(t, x, status=None):
            f0, f1, f2 = taylor(t)
            return Jet2(f0, f1, 0.0, f2, 0.0, 0.0)
    else:
        def jet_fn(t, x, status=None):
            f0, f1, f2 = taylor(x)
            return Jet2(f0, 0.0, f1, 0.0, 0.0, f2)
    return _expression_factor(expr, "tx", domain, {"family": family, **params},
                              target, jet_fn)


def timelike_factor(c1: float, c2: float, target: float) -> ConformalFactor:
    """One-variable factor Omega(t) with constant curvature ``target``.

    c1 > 0 gives the sech^2 branch (positive only for target < 0);
    c1 < 0 gives the sec^2 branch (positive only for target > 0), on the
    pole-free strip around t = -c2.
    """
    return _one_variable_factor(c1, c2, target, -1.0, "t", "timelike",
                                {"c1": c1, "c2": c2, "R": target})


def spacelike_factor(d1: float, d2: float, target: float) -> ConformalFactor:
    """One-variable factor Omega(x); mirror of ``timelike_factor``.

    d1 > 0 gives sech^2 (positive only for target > 0); d1 < 0 gives
    sec^2 (positive only for target < 0).
    """
    return _one_variable_factor(d1, d2, target, 1.0, "x", "spacelike",
                                {"d1": d1, "d2": d2, "R": target})


# ---------------------------------------------------------------------------
# Tabulated antiderivatives

_CHEB_N = 16
_BASE_WIDTH = 0.5      # the first panel on each side of 0
# the panels one integrand call samples past a resolved panel: a run of
# doubling widths, then constant-width runs after its first and second panels
_RUNS = (4, 3, 1)
_BATCH = sum(_RUNS)    # panels sampled by one integrand call
_NOISE = _CHEB_N * float(np.finfo(float).eps)


def _chebyshev_maps(n: int):
    """The n first-kind Chebyshev points of [-1, 1], the map from samples
    there to interpolant coefficients, and per side (+1 right of 0, -1
    left) the map from those to the coefficients of Q, the interpolant's
    mean between the panel's inner end and x."""
    k = np.arange(n)
    theta = np.pi * (k + 0.5) / n
    to_coeffs = (2.0 / n) * np.cos(np.outer(k, theta))
    to_coeffs[0] *= 0.5
    # column m: coefficients of the integral of T_m, its constant dropped
    integral = np.zeros((n + 1, n))
    integral[1, 0] = 1.0
    integral[2, 1] = 0.25
    for m in range(2, n):
        integral[m + 1, m] = 0.5 / (m + 1)
        integral[m - 1, m] = -0.5 / (m - 1)
    # divide by (x + 1) from the top degree down, with
    # x T_j = (T_{j+1} + T_{j-1}) / 2; the constant is the remainder
    mean = np.zeros((n + 1, n))
    mean[n - 1] = 2.0 * integral[n]
    for j in range(n - 1, 1, -1):
        mean[j - 1] = 2.0 * (integral[j] - mean[j]) - mean[j + 1]
    mean[0] = integral[1] - mean[1] - 0.5 * mean[2]
    mean = mean[:n]
    # left of 0 the inner end is x = 1: reflect x -> -x
    sign = (-1.0) ** k
    return np.cos(theta), to_coeffs, {1.0: mean, -1.0: sign[:, None] * mean * sign}


_NODES, _TO_COEFFS, _MEAN = _chebyshev_maps(_CHEB_N)


def _panel_value(row, s):
    """F(s) = F(e) + (s - e) Q(x) on one panel row: (lo, inner end e, F(e),
    mid, 1/half, Q's coefficient of T_0, the others from the top degree
    down), with x = (s - mid) / half, by Clenshaw's recurrence.  For an
    array ``s`` the row holds per-entry arrays (see ``_Table.read``)."""
    _, inner, base, mid, inv_half, first, rest = row
    x = (s - mid) * inv_half
    x2 = x + x
    b1 = b2 = 0.0
    for c in rest:
        b1, b2 = x2 * b1 - b2 + c, b1
    return base + (s - inner) * (x * b1 - b2 + first)


class _Side(NamedTuple):
    """The panels accepted on one side of 0, outward, and the panel the
    walk tries next."""

    sign: float                 # +1 right of 0, -1 left of it
    edge: float                 # outer end of the accepted panels
    width: float                # width of the next panel to try
    halvings: int = 0           # halvings already spent at ``edge``
    panels: tuple = ()          # rows as read by ``_panel_value``
    failure: EvaluationError | None = None


class _Table:
    """Both sides' panels, left to right, as read by ``Antiderivative``.

    Never changed once built: a longer table replaces it whole.  Its
    numpy columns are built by the first array read, so a table that only
    floats read, or that a longer one replaces first, never builds them."""

    def __init__(self, left: _Side, right: _Side):
        self.left, self.right = left, right
        self.rows = left.panels[::-1] + right.panels
        self.starts = [row[0] for row in self.rows]   # a float's row by bisection
        self.lo = left.edge
        self.hi = right.edge if right.panels else -math.inf

    @cached_property
    def columns(self):
        """(row starts, then one array per field of a row), for ``read``."""
        cols = [np.array(c, dtype=float) for c in zip(*self.rows)] or [np.empty(0)] * 7
        return (*cols[:6], cols[6].reshape(len(self.rows), _CHEB_N - 1))

    def covers(self, s: float) -> bool:
        # an abscissa >= 0 is read from a right panel, so that F(0) is 0
        # exactly
        return self.lo <= s < 0.0 or 0.0 <= s <= self.hi

    def row_of(self, s: float):
        return self.rows[bisect_right(self.starts, s) - 1]

    def read(self, s: np.ndarray) -> np.ndarray:
        """``_panel_value`` at every covered entry of ``s``, NaN elsewhere,
        on a row of the gathered columns of each entry's panel."""
        out = np.full(s.shape, math.nan)
        ok = np.where(s < 0.0, s >= self.lo, s <= self.hi)
        if ok.any():
            s = s[ok]
            lows, inner, base, mid, inv_half, first, rest = self.columns
            i = np.searchsorted(lows, s, "right") - 1
            row = (None, inner[i], base[i], mid[i], inv_half[i], first[i], rest[i].T)
            out[ok] = _panel_value(row, s)
        return out


class Antiderivative:
    """F(s) = integral of a one-variable integrand from 0 to s.

    F is tabulated once, as a piecewise Chebyshev interpolant on panels
    built outward from 0 in a fixed order and extended on demand.  A
    panel samples the integrand at 16 first-kind Chebyshev points (never
    at its ends) and is accepted when its last two coefficients, times
    its half-width, are within ``tol``, or are at the rounding level of
    its samples; otherwise it is halved, and after ``MAX_DEPTH`` halvings
    the abscissae beyond it raise ``QuadratureNonConvergence``.  The next panel is twice as wide when
    the upper half of the accepted one's coefficients already met that
    bound, so a slowly varying integrand reaches far abscissae in
    logarithmically many panels.

    Reading F is a table lookup plus a Clenshaw sum, with no integrand
    call, so F(s) is a pure function of s: it does not depend on what was
    queried before, in which order, or from which thread, and an array
    of abscissae gives bitwise the values of its entries one at a time.
    An array entry that is NaN or not covered comes back NaN.
    Derivatives are exact and never read the table: ``integrand_jet(s)``
    is the univariate Taylor jet of the integrand at s, (F', F'', F''')
    at once, seeded as a flat or one-variable factor seeds its formulas.
    """

    def __init__(self, integrand, tol: float = DEFAULT_QUADRATURE_TOL):
        self.integrand = _as_expression(integrand)
        self.variable = _single_variable(self.integrand, "integrand") or "l"
        self._values = compile_expression(self.integrand)
        self.integrand_jet = _taylor(self.integrand, self.variable)
        self.tol = float(tol)
        self._table = _Table(_Side(-1.0, 0.0, _BASE_WIDTH), _Side(1.0, 0.0, _BASE_WIDTH))

    @property
    def n_panels(self) -> int:
        """Panels tabulated so far, on both sides of 0."""
        return len(self._table.rows)

    def integrand_at(self, s):
        return self._values({self.variable: s})

    def value(self, s):
        if isinstance(s, np.ndarray):
            flat = s.astype(float).ravel()
            finite = flat[np.isfinite(flat)]
            table = self._table
            if finite.size:
                table = self._covering(float(finite.min()), float(finite.max()))
            return jets.finite(table.read(flat)).reshape(s.shape)
        s = float(s)
        table = self._table
        if not table.covers(s):
            if not math.isfinite(s):
                raise DomainError(f"antiderivative at {s!r}")
            table = self._covering(s, s)
            if not table.covers(s):
                side = table.right if s >= 0.0 else table.left
                raise side.failure.with_traceback(None)
        return jets.finite(_panel_value(table.row_of(s), s))

    def _covering(self, lo: float, hi: float) -> _Table:
        """The table, grown until it covers [lo, hi] or a side fails."""
        table = self._table
        left, right = table.left, table.right
        while (hi >= 0.0 and right.failure is None
               and (right.edge < hi or not right.panels)):
            right = self._grow(right)
        while lo < 0.0 and left.failure is None and left.edge > lo:
            left = self._grow(left)
        if left is not table.left or right is not table.right:
            table = _Table(left, right)
            self._table = table   # one store: a reader sees one table whole
        return table

    def _grow(self, side: _Side) -> _Side:
        """``side`` after one integrand call on a batch of panels that
        guesses the walk ahead: after a resolved panel, the runs of
        ``_RUNS``; after a failed one, the same panel halved again and
        again.  The walk takes each panel it would try next while that
        panel was sampled, looked up by (edge, width), so the table depends
        on nothing but the integrand, ``tol`` and how far it reaches."""
        d, e, w = side.sign, side.edge, side.width
        guesses = [(e, w)]
        if side.halvings:
            for _ in range(_BATCH - 1):
                w = 0.5 * w
                guesses.append((e, w))
        else:
            for _ in range(_RUNS[0] - 1):
                e, w = e + d * w, 2.0 * w
                guesses.append((e, w))
            for (e, w), n in list(zip(guesses, _RUNS[1:])):
                for _ in range(n):
                    e = e + d * w
                    guesses.append((e, w))
        starts, widths = np.array(guesses).T
        ends = starts + d * widths
        mid = 0.5 * (starts + ends)
        half = 0.5 * np.abs(ends - starts)   # 0 where no double lies between
        try:
            # every sample checked: a table built inside ``jets.on_cells``
            # is the table built anywhere else
            f = jets.checked_ops(self._values,
                                 {self.variable: mid[:, None] + half[:, None] * _NODES})
        except EvaluationError as exc:   # a part the same at every point fails
            return side._replace(failure=exc)
        f = np.broadcast_to(f, (_BATCH, _CHEB_N))
        with np.errstate(all="ignore"):
            c = f @ _TO_COEFFS.T
            # rounding of the samples, and of their abscissae where the
            # integrand varies: about eps |s| |f'| more
            spread = f.max(axis=1) - f.min(axis=1)
            noise = _NOISE * (np.abs(f).max(axis=1) + np.abs(mid) / half * spread)
            allowed = np.maximum(self.tol / half, noise)
            tail = np.abs(c[:, -2]) + np.abs(c[:, -1])
            finite = np.isfinite(f).all(axis=1) & (half > 0.0)
            resolved = finite & (tail <= allowed)
            margin = resolved & (np.abs(c[:, _CHEB_N // 2:]).max(axis=1) <= allowed)
            estimate = np.where(finite, half * tail, math.inf)
            # trailing coefficients at the rounding level are dropped, so a
            # polynomial of low degree is read back exactly
            small = np.abs(c) <= noise[:, None]
            c = np.where(np.logical_and.accumulate(small[:, ::-1], axis=1)[:, ::-1], 0.0, c)
        mean = (c @ _MEAN[d].T).tolist()
        sampled = {g: i for i, g in enumerate(guesses)}
        while side.failure is None and (side.edge, side.width) in sampled:
            e, w = side.edge, side.width
            i = sampled.pop((e, w))
            b = e + d * w
            if resolved[i]:
                base = _panel_value(side.panels[-1], e) if side.panels else 0.0
                row = (min(e, b), e, base, float(mid[i]), 1.0 / float(half[i]),
                       mean[i][0], tuple(mean[i][:0:-1]))
                side = _Side(d, b, 2.0 * w if margin[i] else w, 0, side.panels + (row,))
            elif side.halvings < MAX_DEPTH:
                side = side._replace(width=0.5 * w, halvings=side.halvings + 1)
            else:
                side = side._replace(failure=QuadratureNonConvergence(
                    f"integral of {unparse(self.integrand)} on "
                    f"[{min(e, b)!r}, {max(e, b)!r}] missed tolerance {self.tol!r} "
                    f"after {MAX_DEPTH} halvings", float(estimate[i])))
        return side


class _ExactExp:
    """Raw antiderivative of e^s: F(s) = e^s without the F(0)=0 shift."""

    value = integrand_at = staticmethod(jets.exp)

    def integrand_jet(self, s):
        e = jets.exp(s)
        return e, e, e


def _off_band(d, dv, eps: float, status, t, x):
    """``d`` (a value or a Jet2 with value ``dv``) outside the singular band
    |D| < eps.  Floats raise ``SingularDenominator`` inside it; array cells
    inside it are marked ``SINGULAR`` in ``status`` and poisoned, unless a
    partial of the jet ``d`` failed there: a failed integrand comes first,
    on arrays as on floats.  (Under traps ``jets.checked`` leaves such a
    NaN partial beside a finite value; otherwise the whole cell is NaN.)"""
    near = abs(dv) < eps
    if isinstance(near, np.ndarray):
        if isinstance(d, Jet2) and near.any():
            near &= ~(np.isnan(d.dt) | np.isnan(d.dx))
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
                     quadrature_tol: float = DEFAULT_QUADRATURE_TOL) -> ConformalFactor:
    """General constant-curvature factor

        Omega(t, x) = e^{phi(u)} e^{psi(v)} / D(u, v)^2,
        D = k F(u) - (target/(8k)) G(v) + C,

    with u = x+t, v = x-t, F' = e^{phi}, G' = e^{psi}, on the whole
    plane; it is singular where |D| < ``SINGULAR_EPS``.

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
    if not math.isfinite(cg):
        raise ValueError(
            f"liouville coefficient R/(8k) overflows for R = {target!r} and k = {k!r}")
    eps = SINGULAR_EPS

    expr = None
    if raw_antiderivative:
        if not (isinstance(phi, Variable) and isinstance(psi, Variable)):
            raise ValueError(
                "raw antiderivative form requires phi and psi to be the bare "
                "integration variable; use the default shifted antiderivative "
                "and fold the constant into C instead")
        f_anti = _ExactExp()
        g_anti = _ExactExp()
        u_ast, v_ast = charts.NULL_COORDINATES["u"], charts.NULL_COORDINATES["v"]
        d_ast = _add(_sub(_mul(_c(k), Call("exp", u_ast)),
                          _mul(_c(cg), Call("exp", v_ast))), _c(C))
        expr = _mul(_mul(Call("exp", u_ast), Call("exp", v_ast)),
                    _pow(d_ast, -2))
    else:
        f_anti = Antiderivative(Call("exp", phi), quadrature_tol)
        g_anti = Antiderivative(Call("exp", psi), quadrature_tol)

    def value_fn(t, x, status=None):
        su = x + t
        sv = x - t
        d = (k * f_anti.value(su) - cg * g_anti.value(sv)) + C
        d = _off_band(d, d, eps, status, t, x)
        eu = f_anti.integrand_at(su)
        ev = g_anti.integrand_at(sv)
        return (eu * ev) / (d * d)

    def jet_fn(t, x, status=None):
        su = x + t
        sv = x - t
        a0, a1, a2 = f_anti.integrand_jet(su)   # F', F'', F''' at u
        b0, b1, b2 = g_anti.integrand_jet(sv)   # G', G'', G''' at v
        # D and e^phi e^psi as jets in (u, v), u-partials in the t-slots.
        # D's derivatives come from the integrands, never from F's table;
        # D is checked before the band, so that a failed integrand takes
        # precedence over SINGULAR on arrays as it does on floats
        d = (k * f_anti.value(su) - cg * g_anti.value(sv)) + C
        d = jets.checked(d, k * a0, -cg * b0, k * a1, 0.0, -cg * b1)
        d = _off_band(d, d.value, eps, status, t, x)
        top = jets.null_product((a0, a1, a2), (b0, b1, b2))
        return jets.from_null(jets.div(top, jets.mul(d, d)))

    provenance = {"family": "liouville", "phi": unparse(phi), "psi": unparse(psi),
                  "k": k, "C": C, "R": target,
                  "antiderivative": "raw" if raw_antiderivative else "shifted",
                  "reference": None if raw_antiderivative else 0.0}
    return ConformalFactor(chart="tx", domain=charts.full_plane(),
                           provenance=provenance, target_curvature=target,
                           expression=expr, value_fn=value_fn, jet_fn=jet_fn)


# ---------------------------------------------------------------------------
# Ad-hoc expressions

def factor_from_expression(source, claimed_curvature: float | None = None) -> ConformalFactor:
    """Wrap a formula in t,x (or u,v) as a conformal factor on the whole
    plane.

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
    provenance = {"family": "expression", "source": unparse(expr),
                  "claimed_R": claimed_curvature}
    return _expression_factor(expr, chart, charts.full_plane(), provenance,
                              claimed_curvature)
