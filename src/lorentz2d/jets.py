"""Forward-mode jets carrying exact partial derivatives through order two.

A ``Jet2`` bundles a value with its first and second partials with
respect to two active coordinates.  The slots are named after the
standard chart (t, x), but the same structure serves the null chart:
seed ``u`` into the t-slot and ``v`` into the x-slot and every rule
below reads unchanged.

Slots hold floats, or numpy arrays with one entry per lattice cell (a
float slot broadcasts against arrays, so constants and seed derivatives
stay floats).  Every rule below is written once and serves both.

All operations are pure; every result is checked for finiteness so that
overflow or an indeterminate form surfaces as a failure instead of
propagating into curvature formulas.  Division by a jet whose value is
zero fails, as does a function applied outside its real domain.  On
floats a failure raises ``DomainError``.  On arrays it *poisons* the
failing cells: every slot becomes NaN there, and NaN survives every later
operation, so a cell stays failed even when a later op would have turned
an overflow finite again (1/inf = 0, atan(inf) = pi/2).  ``reject`` and
``finite`` are the two checks; callers read the failure mask back as
``isnan(value)``.  Array operations leave numpy's overflow and invalid
warnings to the caller's ``np.errstate``: the results they flag are
poisoned anyway.

Powers use repeated products for integer exponents up to |n| = 8
(preserving sign domains); any other exponent goes through exp/log and
therefore needs a positive base.
Second-order composition follows the Faa di Bruno pattern

    (f o a)'' = f''(a) a'^2 + f'(a) a''

expanded componentwise over (t, x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DomainError

_POW_PRODUCT_LIMIT = 8

_NUMPY = SimpleNamespace(sin=np.sin, cos=np.cos, tan=np.tan, tanh=np.tanh,
                         log=np.log, sqrt=np.sqrt, atan=np.arctan,
                         exp=np.exp, copysign=np.copysign)


def backend(a):
    """The elementary functions for ``a``: ``math`` for a float, their numpy
    counterparts (same names) for an array."""
    return _NUMPY if isinstance(a, np.ndarray) else math


def as_slot(v):
    """A binding or slot value as a float, or as a float array."""
    if isinstance(v, np.ndarray):
        return v.astype(float, copy=False)
    return v if v.__class__ is float else float(v)


def reject(bad, value, message: str):
    """The shared domain check.

    For a float, raise ``DomainError(message.format(value))`` when ``bad``
    holds, else return ``value``.  For an array, return ``value`` with the
    ``bad`` cells poisoned (NaN).
    """
    if isinstance(bad, np.ndarray):
        return np.where(bad, np.nan, value)
    if bad:
        raise DomainError(message.format(value))
    return value


def finite(value, message: str = "non-finite result (overflow)"):
    """The shared finiteness check on a value (see ``reject``)."""
    if isinstance(value, np.ndarray):
        return np.where(np.isfinite(value), value, np.nan)
    if not math.isfinite(value):
        raise DomainError(message)
    return value


def poison(w, cells):
    """``w`` (an array or a Jet2) with every slot NaN on ``cells``."""
    if isinstance(w, Jet2):
        return Jet2(*(np.where(cells, np.nan, s) for s in _slots(w)))
    return np.where(cells, np.nan, w)


def broadcast(w, shape):
    """``w`` (a value or a Jet2) with every slot an array of ``shape``;
    a constant field evaluates to floats."""
    if isinstance(w, Jet2):
        return Jet2(*(np.broadcast_to(s, shape) for s in _slots(w)))
    return np.broadcast_to(w, shape)


@dataclass(slots=True)
class Jet2:
    """Value and partials (d/dt, d/dx, d2/dt2, d2/dtdx, d2/dx2).

    Treat instances as immutable; operations return new jets.
    """

    value: float
    dt: float = 0.0
    dx: float = 0.0
    dtt: float = 0.0
    dtx: float = 0.0
    dxx: float = 0.0

    def __add__(self, other):
        return add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return Jet2(-self.value, -self.dt, -self.dx, -self.dtt, -self.dtx, -self.dxx)

    def __pow__(self, exponent):
        return powc(self, exponent)


def _slots(w: Jet2) -> tuple:
    return (w.value, w.dt, w.dx, w.dtt, w.dtx, w.dxx)


def _coerce(x) -> Jet2:
    if isinstance(x, Jet2):
        return x
    return Jet2(as_slot(x))


def lift(value) -> Jet2:
    """Constant jet: all derivative slots zero."""
    return Jet2(as_slot(value))


def seed(variable: str, point) -> Jet2:
    """Jet of a coordinate function at ``point`` = (first, second).

    ``t`` and ``u`` occupy the first slot, ``x`` and ``v`` the second.
    The coordinates may be arrays of cell centres.
    """
    if variable in ("t", "u"):
        return Jet2(as_slot(point[0]), 1.0, 0.0)
    if variable in ("x", "v"):
        return Jet2(as_slot(point[1]), 0.0, 1.0)
    raise ValueError(f"unknown coordinate {variable!r}; expected one of t, x, u, v")


def _checked(v, dt, dx, dtt, dtx, dxx) -> Jet2:
    if isinstance(v, np.ndarray):
        ok = np.isfinite(v)
        for s in (dt, dx, dtt, dtx, dxx):
            ok &= np.isfinite(s)
        if ok.all():
            return Jet2(v, dt, dx, dtt, dtx, dxx)
        return poison(Jet2(v, dt, dx, dtt, dtx, dxx), ~ok)
    if (math.isfinite(v) and math.isfinite(dt) and math.isfinite(dx)
            and math.isfinite(dtt) and math.isfinite(dtx) and math.isfinite(dxx)):
        return Jet2(v, dt, dx, dtt, dtx, dxx)
    raise DomainError("non-finite jet component (overflow or indeterminate form)")


def add(a: Jet2, b: Jet2) -> Jet2:
    return _checked(a.value + b.value, a.dt + b.dt, a.dx + b.dx,
                    a.dtt + b.dtt, a.dtx + b.dtx, a.dxx + b.dxx)


def sub(a: Jet2, b: Jet2) -> Jet2:
    return _checked(a.value - b.value, a.dt - b.dt, a.dx - b.dx,
                    a.dtt - b.dtt, a.dtx - b.dtx, a.dxx - b.dxx)


def mul(a: Jet2, b: Jet2) -> Jet2:
    return _checked(
        a.value * b.value,
        a.dt * b.value + a.value * b.dt,
        a.dx * b.value + a.value * b.dx,
        a.dtt * b.value + 2.0 * a.dt * b.dt + a.value * b.dtt,
        a.dtx * b.value + a.dt * b.dx + a.dx * b.dt + a.value * b.dtx,
        a.dxx * b.value + 2.0 * a.dx * b.dx + a.value * b.dxx,
    )


def div(a: Jet2, b: Jet2) -> Jet2:
    bv = reject(b.value == 0.0, b.value, "division by a jet with value 0")
    q = a.value / bv
    qt = (a.dt - q * b.dt) / bv
    qx = (a.dx - q * b.dx) / bv
    qtt = (a.dtt - 2.0 * qt * b.dt - q * b.dtt) / bv
    qtx = (a.dtx - qt * b.dx - qx * b.dt - q * b.dtx) / bv
    qxx = (a.dxx - 2.0 * qx * b.dx - q * b.dxx) / bv
    return _checked(q, qt, qx, qtt, qtx, qxx)


def powc(a: Jet2, exponent: float) -> Jet2:
    """a**exponent for a constant real exponent."""
    n = float(exponent)
    if n.is_integer() and abs(n) <= _POW_PRODUCT_LIMIT:
        m = int(n)
        if m == 0:
            # 1, kept NaN on a poisoned cell
            return lift(a.value * 0.0 + 1.0)
        p = a
        for _ in range(abs(m) - 1):
            p = mul(p, a)
        if m < 0:
            return div(lift(1.0), p)
        return p
    base = reject(a.value <= 0.0, a.value,
                  f"pow with exponent {n!r} requires a positive base (got {{!r}})")
    return apply_elementary("exp", mul(compose(*_d_log(base), a), lift(n)))


def combine(op: str, a: Jet2, b) -> Jet2:
    """Binary combination; ``op`` is one of add, sub, mul, div, pow.

    For ``pow`` the second operand must be a real constant.
    """
    if op == "pow":
        if isinstance(b, Jet2):
            if b.dt == b.dx == b.dtt == b.dtx == b.dxx == 0.0:
                return powc(a, b.value)
            raise ValueError("pow exponent must be a constant")
        return powc(a, float(b))
    try:
        fn = _BINARY[op]
    except KeyError:
        raise ValueError(f"unknown binary op {op!r}") from None
    return fn(a, _coerce(b))


_BINARY = {"add": add, "sub": sub, "mul": mul, "div": div}


def compose(f0: float, f1: float, f2: float, inner: Jet2) -> Jet2:
    """Jet of f(inner) given f, f', f'' at inner.value."""
    return _checked(
        f0,
        f1 * inner.dt,
        f1 * inner.dx,
        f1 * inner.dtt + f2 * inner.dt * inner.dt,
        f1 * inner.dtx + f2 * inner.dt * inner.dx,
        f1 * inner.dxx + f2 * inner.dx * inner.dx,
    )


def compose_map(w: Jet2, first: Jet2, second: Jet2) -> Jet2:
    """Pull a jet back through a coordinate map.

    ``w`` holds partials with respect to inner coordinates (a, b);
    ``first`` and ``second`` are the jets of a and b with respect to the
    outer coordinates.  Returns the jet of the composite in the outer
    coordinates (second-order multivariate chain rule).
    """
    return _checked(
        w.value,
        w.dt * first.dt + w.dx * second.dt,
        w.dt * first.dx + w.dx * second.dx,
        (w.dt * first.dtt + w.dx * second.dtt
         + w.dtt * first.dt * first.dt
         + 2.0 * w.dtx * first.dt * second.dt
         + w.dxx * second.dt * second.dt),
        (w.dt * first.dtx + w.dx * second.dtx
         + w.dtt * first.dt * first.dx
         + w.dtx * (first.dt * second.dx + first.dx * second.dt)
         + w.dxx * second.dt * second.dx),
        (w.dt * first.dxx + w.dx * second.dxx
         + w.dtt * first.dx * first.dx
         + 2.0 * w.dtx * first.dx * second.dx
         + w.dxx * second.dx * second.dx),
    )


# Elementary functions.  Each has a value function, which holds its domain
# and overflow checks and serves value evaluation, and a derivative triple
# (f, f', f'') built on it for jets.  Both take a float or an array.  A
# failed value poisons the whole triple, since compose checks every slot.
# sec and sech are evaluated as 1/cos and 1/cosh with their own rules:
#   sec''  = sec (tan^2 + sec^2)        sech'' = sech (tanh^2 - sech^2)


def _unbounded(name: str):
    """math.<name> for floats, whose overflow raises ``DomainError``, and
    numpy.<name> for arrays, whose overflowed cells are poisoned."""
    math_fn, numpy_fn = getattr(math, name), getattr(np, name)

    def fn(a):
        if isinstance(a, np.ndarray):
            return finite(numpy_fn(a))
        try:
            return math_fn(a)
        except OverflowError:
            raise DomainError(f"{name} overflow at {a!r}") from None

    return fn


exp, _sinh, _cosh = _unbounded("exp"), _unbounded("sinh"), _unbounded("cosh")


def _log(a):
    return backend(a).log(reject(a <= 0.0, a, "log of non-positive value {!r}"))


def _sin(a):
    return backend(a).sin(a)


def _cos(a):
    return backend(a).cos(a)


# tan and sec need no pole check: cos vanishes at no double (|cos x| is
# about 4.7e-19 at worst, for the double closest to an odd multiple of
# pi/2), so both stay finite.  The sec^2 branch is kept off its poles by
# its factor's domain.
def _tan(a):
    return backend(a).tan(a)


def _sec(a):
    return 1.0 / backend(a).cos(a)


def _tanh(a):
    return backend(a).tanh(a)


def _sech(a):
    return 1.0 / _cosh(a)


def _sqrt(a):
    return backend(a).sqrt(reject(a <= 0.0, a, "sqrt of non-positive value {!r}"))


def _atan(a):
    return backend(a).atan(a)


# Value functions by name.  abs is total on values; only its derivative
# triple excludes 0.
VALUE_FUNCTIONS = {
    "exp": exp,
    "log": _log,
    "sin": _sin,
    "cos": _cos,
    "tan": _tan,
    "sec": _sec,
    "sinh": _sinh,
    "cosh": _cosh,
    "tanh": _tanh,
    "sech": _sech,
    "sqrt": _sqrt,
    "atan": _atan,
    "abs": abs,
}


def _over(num: float, d):
    """num / d.  The denominators below can underflow to 0 for
    subnormal-range arguments while the value slot is still fine; the lost
    derivative is then an infinity of num's sign, which the jet
    finiteness check rejects (a float division would raise instead)."""
    if isinstance(d, np.ndarray) or d != 0.0:
        return num / d
    return math.copysign(math.inf, num)


def _d_exp(a):
    v = exp(a)
    return (v, v, v)


def _d_log(a):
    return (_log(a), 1.0 / a, _over(-1.0, a * a))


def _d_sin(a):
    s = _sin(a)
    return (s, _cos(a), -s)


def _d_cos(a):
    c = _cos(a)
    return (c, -_sin(a), -c)


def _d_tan(a):
    tn = _tan(a)
    s = 1.0 + tn * tn
    return (tn, s, 2.0 * tn * s)


def _d_sec(a):
    s = _sec(a)
    tn = backend(a).tan(a)
    return (s, s * tn, s * (tn * tn + s * s))


def _d_sinh(a):
    sh = _sinh(a)
    return (sh, _cosh(a), sh)


def _d_cosh(a):
    ch = _cosh(a)
    return (ch, _sinh(a), ch)


def _d_tanh(a):
    tn = _tanh(a)
    s = 1.0 - tn * tn
    return (tn, s, -2.0 * tn * s)


def _d_sech(a):
    s = _sech(a)
    tn = _tanh(a)
    return (s, -s * tn, s * (tn * tn - s * s))


def _d_sqrt(a):
    s = _sqrt(a)
    return (s, 0.5 / s, _over(-0.25, s * a))


def _d_atan(a):
    d = 1.0 + a * a
    return (_atan(a), 1.0 / d, -2.0 * a / (d * d))


def _d_abs(a):
    a = reject(a == 0.0, a, "abs is not differentiable at 0")
    return (abs(a), backend(a).copysign(1.0, a), 0.0)


DERIVATIVE_TRIPLES = {
    "exp": _d_exp,
    "log": _d_log,
    "sin": _d_sin,
    "cos": _d_cos,
    "tan": _d_tan,
    "sec": _d_sec,
    "sinh": _d_sinh,
    "cosh": _d_cosh,
    "tanh": _d_tanh,
    "sech": _d_sech,
    "sqrt": _d_sqrt,
    "atan": _d_atan,
    "abs": _d_abs,
}


def apply_elementary(name: str, a: Jet2) -> Jet2:
    """Jet of an elementary function applied to ``a``."""
    try:
        triple = DERIVATIVE_TRIPLES[name]
    except KeyError:
        raise ValueError(f"unknown elementary function {name!r}") from None
    f0, f1, f2 = triple(a.value)
    return compose(f0, f1, f2, a)
