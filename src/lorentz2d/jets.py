"""Forward-mode Taylor arithmetic through order two, in three algebras.

``expressions`` compiles a formula once per ``Algebra`` and evaluates it
in that number system:

* ``VALUES``: plain values, no derivatives;
* ``TAYLOR``: a univariate Taylor jet, the tuple (f, f', f'') in one
  variable (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch.
  13); it carries the integrands of antiderivatives;
* ``JET2``: a ``Jet2``, a value with its first and second partials with
  respect to two active coordinates.  The slots are named after the
  standard chart (t, x), but the same structure serves the null chart:
  seed ``u`` into the t-slot and ``v`` into the x-slot and every rule
  below reads unchanged.  ``from_null`` and ``to_null`` map such a jet
  to (t, x) and back, ``compose_null`` pulls it back through a diagonal
  map u = a(p), v = b(q), and ``null_product`` is the jet of f(u) g(v).

Slots hold floats, or numpy arrays of cells that broadcast against one
another (a float slot broadcasts against arrays, so constants and seed
derivatives stay floats; a column of t against a row of x gives the
lattice between them).  Every rule below is written once and serves both.

One table, ``ELEMENTARY``, names the elementary functions of the
formula language and gives each its value rule, which holds its domain
and overflow checks, and its derivative triple (f, f', f'') built on it;
each jet layout applies the triple through its ``compose``, the
second-order chain rule

    (f o a)'' = f''(a) a'^2 + f'(a) a''

(componentwise over (t, x) for ``Jet2``).  ``power`` is the one rule for
constant exponents in all three algebras: repeated products for integer
exponents up to |n| = 8 (preserving sign domains), each partial product
checked for finiteness, and exp/log, which needs a positive base, for
any other.  On the value and t-slots a ``TAYLOR`` jet is bitwise the
``Jet2`` seeded ``Jet2(s, 1.0)``.

Finiteness is checked once per node output (and per partial product of
an integer power), so that overflow or an indeterminate form surfaces as
a failure instead of propagating into curvature formulas: every jet
operation checks the slots it builds (``checked``), and the expression
compiler checks each value it computes (``finite``).  Division by zero
fails, as does a function applied outside its real domain.  On floats a
failure raises ``DomainError``.  On arrays it *poisons* the failing
cells: every slot becomes NaN there, and NaN survives every later
operation, so a cell stays failed even when a later op would have turned
an overflow finite again (1/inf = 0, atan(inf) = pi/2).  ``reject`` and
``finite`` are the shared checks; callers read the failure mask back as
``isnan(value)``.

On arrays the per-operation finiteness scans run only where no trap can
stand in for them.  ``on_cells`` checks once that its inputs are finite,
then evaluates the cells under numpy's floating-point traps (overflow,
invalid operation and division by zero raise; IEEE 754-2019, section 7).
While it does, ``checked``, ``_checked1`` and ``finite`` pass array slots
through unscanned.  Python floats do not trap, so those checks still test
every float slot, and a jet operation hands a float slot on as a numpy
scalar, whose later products trap as arrays do (a seed's partials, 0 and
1, overflow no product).  So when no trap fires, no operation made a
non-finite number: the only NaNs are those of cells that ``reject``,
``poison`` or a caller put there, and a NaN partial only ever sits beside
a NaN value.  The caller's last check on the value then fails the same
cells as the per-operation checks would have, with the same bits: the
package's one caller, ``families._checked`` (a factor's ``value`` and
``jet`` on arrays), poisons every cell that is not positive.  When a
trap fires, ``on_cells`` evaluates again through ``checked_ops``: every
operation scans its cells, with numpy's warnings off, as all code
outside ``on_cells`` runs.
"""

from __future__ import annotations

import math
import operator
from contextvars import ContextVar
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple

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


# set while ``on_cells`` evaluates under floating-point traps; per thread
_TRAPPING = ContextVar("lorentz2d_trapping", default=False)


def on_cells(fn, cells, *args):
    """``fn(*args)`` on arrays of cells whose inputs are ``cells`` (floats
    or arrays), checked once (module docstring): under numpy's
    floating-point traps with the array checks off, or through
    ``checked_ops`` when an input is not finite or a trap fires.  A failed
    cell's value comes back NaN, its partials maybe not: the caller
    poisons every cell whose value is NaN."""
    if _all_finite(cells):
        token = _TRAPPING.set(True)
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
                return fn(*args)
        except FloatingPointError:
            pass
        finally:
            _TRAPPING.reset(token)
    return checked_ops(fn, *args)


def checked_ops(fn, *args):
    """``fn(*args)`` with every array operation checking its cells, and
    numpy's warnings off: the results they flag are poisoned anyway."""
    token = _TRAPPING.set(False)
    try:
        with np.errstate(all="ignore"):
            return fn(*args)
    finally:
        _TRAPPING.reset(token)


def _all_finite(cells) -> bool:
    """Whether every one of ``cells`` (floats or arrays) is finite: traps
    see no inf that an input brings in (exp(inf) raises nothing)."""
    for c in cells:
        if isinstance(c, np.ndarray):
            if not np.isfinite(c).all():
                return False
        elif not -1e400 < c < 1e400:
            return False
    return True


def _trapped(slots: tuple):
    """``slots`` as an operation under traps hands them on, or None when it
    must check them: ``on_cells`` is not trapping, or a Python float among
    them is not finite.  A Python float does not trap, nor does what an
    inf adds to an array, so each is handed on as a numpy scalar, whose
    products with the constants and floats to come trap as arrays do."""
    if not _TRAPPING.get():
        return None
    out = []
    for s in slots:
        if s.__class__ is float:
            if not -1e400 < s < 1e400:
                return None
            s = np.float64(s)
        out.append(s)
    return out


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
        if _TRAPPING.get():
            return value
        return np.where(np.isfinite(value), value, np.nan)
    if not math.isfinite(value):
        raise DomainError(message)
    return value


def poison(w, cells):
    """``w`` (an array or a jet of either layout) with every slot NaN on
    ``cells``."""
    if isinstance(w, Jet2):
        return Jet2(*(np.where(cells, np.nan, s) for s in _slots(w)))
    if isinstance(w, tuple):
        return tuple(np.where(cells, np.nan, s) for s in w)
    return np.where(cells, np.nan, w)


_NON_FINITE = "non-finite jet component (overflow or indeterminate form)"


# ---------------------------------------------------------------------------
# Jet2: value and partials in two coordinates

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
        return add(self, lift(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, lift(other))

    def __rsub__(self, other):
        return sub(lift(other), self)

    def __mul__(self, other):
        return mul(self, lift(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, lift(other))

    def __rtruediv__(self, other):
        return div(lift(other), self)

    def __neg__(self):
        return Jet2(-self.value, -self.dt, -self.dx, -self.dtt, -self.dtx, -self.dxx)


def _slots(w: Jet2) -> tuple:
    return (w.value, w.dt, w.dx, w.dtt, w.dtx, w.dxx)


def lift(value) -> Jet2:
    """A Jet2 as it is; any other value as a constant jet, all derivative
    slots zero."""
    if isinstance(value, Jet2):
        return value
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


def checked(v, dt, dx, dtt, dtx, dxx) -> Jet2:
    """The Jet2 of these slots, checked for finiteness (module rules).

    The array rules apply unless every slot is a float: a float value with
    array partials comes from a constant pulled back through a map.  An
    array value has the broadcast shape of all six slots, as every jet
    operation builds it."""
    if (v.__class__ is float and dt.__class__ is float and dx.__class__ is float
            and dtt.__class__ is float and dtx.__class__ is float and dxx.__class__ is float):
        if (-1e400 < v < 1e400 and -1e400 < dt < 1e400 and -1e400 < dx < 1e400
                and -1e400 < dtt < 1e400 and -1e400 < dtx < 1e400 and -1e400 < dxx < 1e400):
            return Jet2(v, dt, dx, dtt, dtx, dxx)   # finite floats (1e400 is inf)
        raise DomainError(_NON_FINITE)
    slots = _trapped((v, dt, dx, dtt, dtx, dxx))
    if slots is not None:
        return Jet2(*slots)
    ok = np.isfinite(v)   # a numpy bool when v is a float: &= rebinds it
    for s in (dt, dx, dtt, dtx, dxx):
        ok &= np.isfinite(s)
    if ok.all():
        return Jet2(v, dt, dx, dtt, dtx, dxx)
    return poison(Jet2(v, dt, dx, dtt, dtx, dxx), ~ok)


def add(a: Jet2, b: Jet2) -> Jet2:
    return checked(a.value + b.value, a.dt + b.dt, a.dx + b.dx,
                   a.dtt + b.dtt, a.dtx + b.dtx, a.dxx + b.dxx)


def sub(a: Jet2, b: Jet2) -> Jet2:
    return checked(a.value - b.value, a.dt - b.dt, a.dx - b.dx,
                   a.dtt - b.dtt, a.dtx - b.dtx, a.dxx - b.dxx)


def mul(a: Jet2, b: Jet2) -> Jet2:
    return checked(
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
    return checked(q, qt, qx, qtt, qtx, qxx)


def compose(f0: float, f1: float, f2: float, inner: Jet2) -> Jet2:
    """Jet of f(inner) given f, f', f'' at inner.value."""
    return checked(
        f0,
        f1 * inner.dt,
        f1 * inner.dx,
        f1 * inner.dtt + f2 * inner.dt * inner.dt,
        f1 * inner.dtx + f2 * inner.dt * inner.dx,
        f1 * inner.dxx + f2 * inner.dx * inner.dx,
    )


def from_null(w: Jet2) -> Jet2:
    """A jet in the null chart (u-partials in the t-slots, v-partials in the
    x-slots) as a jet in (t, x), for the fixed linear map u = x + t,
    v = x - t: d/dt = d/du - d/dv and d/dx = d/du + d/dv."""
    mixed = 2.0 * w.dtx
    return checked(w.value, w.dt - w.dx, w.dt + w.dx,
                   w.dtt - mixed + w.dxx, w.dtt - w.dxx, w.dtt + mixed + w.dxx)


def to_null(w: Jet2) -> Jet2:
    """The inverse of ``from_null``: d/du = (d/dt + d/dx)/2, d/dv = (d/dx - d/dt)/2."""
    mixed = 2.0 * w.dtx
    return checked(w.value, 0.5 * (w.dt + w.dx), 0.5 * (w.dx - w.dt),
                   0.25 * (w.dtt + mixed + w.dxx), 0.25 * (w.dxx - w.dtt),
                   0.25 * (w.dtt - mixed + w.dxx))


def compose_null(w: Jet2, a: tuple, b: tuple) -> Jet2:
    """A null-chart jet pulled back through u = a(p), v = b(q), given the
    univariate jets (f, f', f'') of a at p and b at q; p-partials land in
    the t-slots."""
    _, a1, a2 = a
    _, b1, b2 = b
    return checked(w.value, w.dt * a1, w.dx * b1, w.dtt * (a1 * a1) + w.dt * a2,
                   w.dtx * (a1 * b1), w.dxx * (b1 * b1) + w.dx * b2)


def null_product(a: tuple, b: tuple) -> Jet2:
    """The null-chart jet of f(u) g(v) from univariate jets of f at u and g
    at v, unchecked: the operation that consumes it checks its slots."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return Jet2(a0 * b0, a1 * b0, a0 * b1, a2 * b0, a1 * b1, a0 * b2)


# ---------------------------------------------------------------------------
# Univariate Taylor jets: the tuple (f, f', f''), with the t-slot rules of
# Jet2 written out for one variable, operation for operation

def _checked1(f0, f1, f2) -> tuple:
    if f0.__class__ is float and f1.__class__ is float and f2.__class__ is float:
        if -1e400 < f0 < 1e400 and -1e400 < f1 < 1e400 and -1e400 < f2 < 1e400:
            return (f0, f1, f2)   # finite floats (1e400 is inf): kept fast
        raise DomainError(_NON_FINITE)
    slots = _trapped((f0, f1, f2))
    if slots is not None:
        return tuple(slots)
    ok = np.isfinite(f0) & np.isfinite(f1) & np.isfinite(f2)
    return (f0, f1, f2) if ok.all() else poison((f0, f1, f2), ~ok)


def _add1(a, b):
    return _checked1(a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _sub1(a, b):
    return _checked1(a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _mul1(a, b):
    a0, a1, a2 = a
    b0, b1, b2 = b
    return _checked1(a0 * b0, a1 * b0 + a0 * b1, a2 * b0 + 2.0 * a1 * b1 + a0 * b2)


def _div1(a, b):
    a0, a1, a2 = a
    _, b1, b2 = b
    bv = reject(b[0] == 0.0, b[0], "division by a jet with value 0")
    q = a0 / bv
    q1 = (a1 - q * b1) / bv
    return _checked1(q, q1, (a2 - 2.0 * q1 * b1 - q * b2) / bv)


def _compose1(f0, f1, f2, inner):
    _, a1, a2 = inner
    return _checked1(f0, f1 * a1, f1 * a2 + f2 * a1 * a1)


# ---------------------------------------------------------------------------
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
    # the partials divide by the rejected argument: an array cell at 0 is
    # NaN there, not a division by zero that would trap
    a = reject(a <= 0.0, a, "log of non-positive value {!r}")
    return (backend(a).log(a), 1.0 / a, _over(-1.0, a * a))


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


# name -> (value rule, derivative triple); the parser lists the names in
# this order (``expressions.FUNCTIONS``).  abs is total on values; only its
# derivative triple excludes 0.
ELEMENTARY = {
    "exp": (exp, _d_exp),
    "log": (_log, _d_log),
    "sin": (_sin, _d_sin),
    "cos": (_cos, _d_cos),
    "tan": (_tan, _d_tan),
    "sec": (_sec, _d_sec),
    "sinh": (_sinh, _d_sinh),
    "cosh": (_cosh, _d_cosh),
    "tanh": (_tanh, _d_tanh),
    "sech": (_sech, _d_sech),
    "sqrt": (_sqrt, _d_sqrt),
    "atan": (_atan, _d_atan),
    "abs": (abs, _d_abs),
}


def apply_elementary(name: str, a: Jet2) -> Jet2:
    """Jet of an elementary function applied to ``a``."""
    try:
        triple = ELEMENTARY[name][1]
    except KeyError:
        raise ValueError(f"unknown elementary function {name!r}") from None
    return compose(*triple(a.value), a)


# ---------------------------------------------------------------------------
# The three algebras

class Algebra(NamedTuple):
    """One number system, as ``expressions`` compiles formulas into it."""

    lift: Callable       # a constant or a binding as an element
    value: Callable      # an element's value slot
    add: Callable
    sub: Callable
    mul: Callable
    div: Callable
    neg: Callable
    compose: Callable | None   # (f, f', f'', inner) -> f(inner); None: values
    finite: Callable | None    # the check of a node's output; None where
    #                            every operation checks the slots it builds


def _divide(a, b):
    return a / reject(b == 0.0, b, "division by zero")


VALUES = Algebra(as_slot, lambda a: a, operator.add, operator.sub, operator.mul,
                 _divide, operator.neg, None, finite)
TAYLOR = Algebra(lambda v: v if v.__class__ is tuple else (as_slot(v), 0.0, 0.0),
                 operator.itemgetter(0), _add1, _sub1, _mul1, _div1,
                 lambda a: (-a[0], -a[1], -a[2]), _compose1, None)
JET2 = Algebra(lift, operator.attrgetter("value"), add, sub, mul, div,
               operator.neg, compose, None)


def elementary(algebra: Algebra, name: str) -> Callable:
    """a -> name(a) in ``algebra``: the value rule, or the derivative
    triple through the layout's ``compose``."""
    value_rule, triple = ELEMENTARY[name]
    if algebra.compose is None:
        return value_rule
    compose_, value = algebra.compose, algebra.value
    return lambda a: compose_(*triple(value(a)), a)


def power(algebra: Algebra, n: float) -> Callable:
    """a -> a**n in ``algebra`` for a constant real ``n``."""
    lift_, value, mul_, div_ = algebra.lift, algebra.value, algebra.mul, algebra.div
    if n.is_integer() and abs(n) <= _POW_PRODUCT_LIMIT:
        m, finite_ = int(n), algebra.finite

        def product(a):
            if m == 0:
                return lift_(value(a) * 0.0 + 1.0)   # 1, kept NaN on a poisoned cell
            p = a
            for _ in range(abs(m) - 1):
                p = mul_(p, a)
                # every partial product is checked, as a jet mul checks its
                # slots: x^-8 fails where x^8 overflows, in every algebra
                if finite_ is not None and not (p.__class__ is float
                                                and -1e400 < p < 1e400):
                    p = finite_(p)
            return div_(lift_(1.0), p) if m < 0 else p

        return product
    exp_, log_, exponent = elementary(algebra, "exp"), elementary(algebra, "log"), lift_(n)
    message = f"pow with exponent {n!r} requires a positive base (got {{!r}})"

    def through_log(a):
        base = value(a)
        if isinstance(base, np.ndarray):
            a = poison(a, base <= 0.0)
        elif base <= 0.0:
            raise DomainError(message.format(base))
        return exp_(mul_(log_(a), exponent))

    return through_log
