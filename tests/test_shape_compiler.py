"""The shape compiler against the closure-tree compiler it replaced.

``expressions.compile_expression`` generates one straight-line function per
formula shape and algebra, and binds each formula's constants to it.  The
reference below is the earlier compiler, kept verbatim: one closure per
node, each binary and call node wrapped by ``_located``.  Both must give the
same bits (NaN signs included) and the same failures, in all three algebras,
on floats and on arrays.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from lorentz2d import expressions, jets
from lorentz2d.errors import DomainError
from lorentz2d.expressions import (
    FUNCTIONS,
    Binary,
    Call,
    Constant,
    Unary,
    Variable,
    _point_of,
    compile_expression,
    parse,
)
from lorentz2d.jets import Jet2, seed

# ---------------------------------------------------------------------------
# The reference: the closure-tree compiler, verbatim

_INF = math.inf


def _exponent_value(node):
    if isinstance(node, Constant):
        return node.value
    return _compile(node, jets.VALUES)({})


def _compile(expression, algebra):
    """The one tree compiler: ``expression`` as closures over ``algebra``."""
    match expression:
        case Constant(value):
            constant = algebra.lift(value)
            return lambda bindings: constant
        case Variable(name):
            lift = algebra.lift

            def variable(bindings):
                try:
                    v = bindings[name]
                except KeyError:
                    raise ValueError(f"unbound variable {name!r}") from None
                return lift(v)

            return variable
        case Unary(_, child):
            inner, neg = _compile(child, algebra), algebra.neg
            return lambda bindings: neg(inner(bindings))
        case Binary("pow", left, right):
            return _located(expression, jets.power(algebra, _exponent_value(right)),
                            algebra.finite, _compile(left, algebra))
        case Binary(op, left, right):
            return _located(expression, getattr(algebra, op), algebra.finite,
                            _compile(left, algebra), _compile(right, algebra))
        case Call(fn, arg):
            return _located(expression, jets.elementary(algebra, fn),
                            algebra.finite, _compile(arg, algebra))
    raise TypeError(f"not an expression node: {expression!r}")


def _located(node, apply, finite, first, second=None):
    """The one location wrapper: ``apply`` on the outputs of the operand
    closures ``first`` (and ``second``), its output checked by the
    algebra's ``finite`` (values; a jet operation checks the slots it
    builds), and a failure on floats reported at ``node`` unless an inner
    node already claimed it."""

    def located(bindings):
        try:
            if second is None:
                result = apply(first(bindings))
            else:
                result = apply(first(bindings), second(bindings))
            if finite is None or (result.__class__ is float and -_INF < result < _INF):
                return result   # a jet, or a finite float: kept fast
            return finite(result)
        except DomainError as err:
            if err.node is None:
                err = DomainError(err.message, node, _point_of(bindings))
            raise err from None

    return located


# ---------------------------------------------------------------------------
# Formulas over every node kind, and points that reach every failure

_CONSTANTS = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, 800.0]),
)
_EXPONENTS = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, -1.0, -2.0, 8.0, -8.0, 9.0,
                              0.5, -0.5, 1.5, 2.5, -2.5, 1.0 / 3.0])
_LEAF = st.one_of(
    st.builds(Constant, _CONSTANTS),
    st.builds(Variable, st.sampled_from(["t", "x"])),
)


def _extend(children):
    return st.one_of(
        st.builds(lambda c: Unary("neg", c), children),
        st.builds(Binary, st.sampled_from(["add", "sub", "mul", "div"]), children, children),
        st.builds(lambda a, n: Binary("pow", a, Constant(n)), children, _EXPONENTS),
        # an exponent that is a constant expression, rarely one that fails
        st.builds(lambda a, d: Binary("pow", a, Binary("div", Constant(1.0), Constant(d))),
                  children, st.sampled_from([3.0, -2.0, 3.0, -2.0, 0.0])),
        st.builds(Call, st.sampled_from(FUNCTIONS), children),
        st.builds(lambda a: Binary("mul", a, Constant(1e300)), children),   # toward overflow
    )


FORMULAS = st.recursive(_LEAF, _extend, max_leaves=10)
_COORDINATES = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, -1.0, 1.0, 800.0, -800.0, 1e200]),
)


def _bits(out):
    """Every slot's type, shape and bytes."""
    if isinstance(out, Jet2):
        slots = (out.value, out.dt, out.dx, out.dtt, out.dtx, out.dxx)
    elif isinstance(out, tuple):
        slots = out
    else:
        slots = (out,)
    return tuple((type(s), np.shape(s), np.asarray(s, dtype=float).tobytes()) for s in slots)


def _outcome(compile_, tree, algebra, bindings):
    try:
        fn = compile_(tree, algebra)
    except Exception as err:   # a failing constant exponent fails at compile time
        return ("compile", type(err), str(err))
    try:
        with np.errstate(all="ignore"):
            out = fn(bindings)
    except (DomainError, ValueError) as err:
        return ("raised", type(err), str(err), id(getattr(err, "node", None)),
                getattr(err, "point", None))
    return ("value", _bits(out))


def _bindings(algebra, t, x, bind_x):
    """Bindings of t and x in ``algebra``'s own element types."""
    if algebra is jets.JET2:
        out = {"t": seed("t", (t, x)), "x": seed("x", (t, x))}
    elif algebra is jets.TAYLOR:
        out = {"t": (jets.as_slot(t), 1.0, 0.0), "x": x}
    else:
        out = {"t": t, "x": x}
    if not bind_x:
        del out["x"]
    return out


# no explain phase: on a failure it re-ran this test for many minutes, with
# memory growing, before reporting (seen on a broken copy of the compiler)
@settings(max_examples=400, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink])
@given(FORMULAS, _COORDINATES, _COORDINATES,
       st.lists(_COORDINATES, min_size=6, max_size=6),
       st.sampled_from([jets.VALUES, jets.TAYLOR, jets.JET2]),
       st.sampled_from([True, True, True, False]))
def test_shape_compiler_matches_the_closure_compiler(tree, t, x, cells, algebra, bind_x):
    column = np.array(cells[:2])[:, None]
    row = np.array(cells[2:5])[None, :]
    flat = np.array(cells[:3]), np.array(cells[3:])
    for tt, xx in ((t, x), flat, (column, row)):
        bindings = _bindings(algebra, tt, xx, bind_x)
        assert (_outcome(compile_expression, tree, algebra, bindings)
                == _outcome(_compile, tree, algebra, bindings))


def test_failures_claimed_as_the_closure_compiler_claims_them():
    unbound = Variable("y")
    cases = [
        (parse("1 + log(x - 3)"), {"x": 1.0}),              # the innermost failing node
        (parse("sqrt(exp(x)) * (1/(x - x))"), {"x": 2.0}),  # after a finite subtree
        (parse("exp(x)^2"), {"x": 400.0}),                  # overflow in a pow's product
        (parse("x*1e300*1e300"), {"x": 1.0}),               # overflow in a product,
        (parse("1e308 + x*1e308"), {"x": 1.0}),             # a sum
        (parse("sin(x/1e-300)"), {"x": 1e10}),              # and a quotient
        (Binary("add", parse("t"), unbound), {"t": 1.0}),  # unbound, at the second read
        (Binary("add", parse("log(-1)"), unbound), {}),    # a domain error comes first
        (parse("-x"), {}),
    ]
    for tree, bindings in cases:
        for algebra in (jets.VALUES, jets.TAYLOR, jets.JET2):
            expected = _outcome(_compile, tree, algebra, bindings)
            assert expected[0] == "raised"
            assert _outcome(compile_expression, tree, algebra, bindings) == expected


# ---------------------------------------------------------------------------
# Shared code

def test_same_shape_shares_code_and_keeps_its_constants():
    first = compile_expression(parse("2*x + 1"))
    second = compile_expression(parse("3*x - -5"))   # -5 is one constant
    assert first.__code__ is not second.__code__     # sub is not add
    third = compile_expression(parse("3*x + 5"))
    assert first.__code__ is third.__code__
    assert (first({"x": 2.0}), third({"x": 2.0})) == (5.0, 11.0)
    assert second({"x": 2.0}) == 11.0


def test_a_different_shape_or_algebra_never_shares():
    pairs = [
        ("x^2", "x^3", {"x": 2.0}),               # exponent
        ("x^0.5", "x^1.5", {"x": 4.0}),
        ("sin(x)", "cos(x)", {"x": 0.5}),         # function
        ("2*x", "2*t", {"x": 1.0, "t": 3.0}),     # variable
        ("x + 1", "x - 1", {"x": 1.0}),           # operator
    ]
    for a, b, bindings in pairs:
        fa, fb = compile_expression(parse(a)), compile_expression(parse(b))
        assert fa.__code__ is not fb.__code__
        assert fa(bindings) == _compile(parse(a), jets.VALUES)(bindings)
        assert fb(bindings) == _compile(parse(b), jets.VALUES)(bindings)
        assert fa(bindings) != fb(bindings)
    tree = parse("x*x")
    values, taylor = compile_expression(tree), compile_expression(tree, jets.TAYLOR)
    assert values.__code__ is not taylor.__code__
    assert values({"x": 3.0}) == 9.0
    assert taylor({"x": (3.0, 1.0, 0.0)}) == (9.0, 6.0, 2.0)


def test_shape_table_stays_at_its_bound():
    limit = expressions._SHAPE_LIMIT
    cache_info = expressions._generate.cache_info
    evicted = parse("x^0.015625 + t")
    first = compile_expression(evicted)
    for j in range(limit + 8):   # each exponent is a new shape
        compile_expression(parse(f"x^{1.0 + (j + 1) / 64} + t"))
        assert cache_info().currsize <= limit
    assert cache_info().currsize == limit
    bindings = {"x": 16.0, "t": 1.0}
    value = first(bindings)
    assert math.isclose(value, 16.0 ** 0.015625 + 1.0, rel_tol=1e-15)
    misses = cache_info().misses
    assert compile_expression(evicted)(bindings) == value
    assert cache_info().misses == misses + 1   # its shape was dropped


def test_threads_compiling_new_shapes_keep_the_table_bounded():
    # more threads than cores race on the table's evictions and inserts
    limit = expressions._SHAPE_LIMIT

    def compile_and_run(j):
        tree = parse(f"x^{2.0 + (j % (limit + 40)) / 128} - t")
        bindings = {"x": 2.0, "t": 1.0}
        return compile_expression(tree)(bindings), _compile(tree, jets.VALUES)(bindings)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(compile_and_run, range(2 * limit), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(got == want for got, want in results)
    assert expressions._generate.cache_info().currsize <= limit


# ---------------------------------------------------------------------------
# Array evaluations under floating-point traps

def _cells(out, shape) -> tuple:
    """Every slot's bytes, broadcast to the cells' shape (NaN signs count)."""
    slots = (out.value, out.dt, out.dx, out.dtt, out.dtx, out.dxx) if isinstance(out, Jet2) else (out,)
    return tuple(np.broadcast_to(np.asarray(s, dtype=float), shape).tobytes() for s in slots)


def _on_cells(tree, algebra, cells, bindings):
    """``tree`` compiled for ``algebra`` and evaluated on the cells whose
    coordinates are ``cells`` through ``jets.on_cells``, every slot of a
    cell whose value is NaN then poisoned, as a factor's ``value`` and
    ``jet`` poison their non-positive cells."""
    out = jets.on_cells(compile_expression(tree, algebra), cells, bindings)
    value = out.value if isinstance(out, Jet2) else out
    if isinstance(value, np.ndarray):
        failed = np.isnan(value)
        if failed.any():
            return jets.poison(out, failed)
    return out


def _evaluated(tree, algebra, cells, bindings, shape):
    try:
        out = _on_cells(tree, algebra, cells, bindings)
    except (DomainError, ValueError) as err:
        return ("raised", type(err), str(err))
    return ("value", _cells(out, shape))


def _reference(tree, algebra, bindings, shape):
    """The closure compiler's cells, every slot of a failed one poisoned."""
    try:
        fn = _compile(tree, algebra)
        with np.errstate(all="ignore"):
            out = fn(bindings)
    except (DomainError, ValueError) as err:
        return ("raised", type(err), str(err))
    value = out.value if isinstance(out, Jet2) else out
    if isinstance(value, np.ndarray):
        out = jets.poison(out, np.isnan(value))
    return ("value", _cells(out, shape))


@settings(max_examples=300, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink])
@given(FORMULAS, st.lists(_COORDINATES, min_size=6, max_size=6),
       st.sampled_from([jets.VALUES, jets.JET2]), st.sampled_from([True, True, True, False]))
def test_trapped_evaluation_is_bitwise_the_checked_one(tree, cells, algebra, bind_x):
    column = np.array(cells[:2])[:, None]
    row = np.array(cells[2:5])[None, :]
    flat = np.array(cells[:3]), np.array(cells[3:])
    for (tt, xx), shape in (((column, row), (2, 3)), (flat, (3,)), ((flat[0], 0.5), (3,))):
        bindings = _bindings(algebra, tt, xx, bind_x)
        cells = (tt, xx) if bind_x else (tt,)
        trapped = _evaluated(tree, algebra, cells, bindings, shape)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jets, "on_cells", lambda fn, cells, *args: jets.checked_ops(fn, *args))
            checked = _evaluated(tree, algebra, cells, bindings, shape)
        assert trapped == checked
        assert trapped == _reference(tree, algebra, bindings, shape)


def test_failed_cells_are_nan_in_every_slot():
    t = np.array([-1.0, 0.0, 2.0])
    x = np.array([0.5, 0.5, 0.5])
    bindings = {"t": seed("t", (t, x)), "x": seed("x", (t, x))}
    # a root negation and a root x^0 left -NaN and zero partials
    for source in ("-log(t)", "log(t)^0", "-(1/exp(1000*t))"):
        w = _on_cells(parse(source), jets.JET2, (t, x), bindings)
        failed = np.isnan(w.value)
        assert failed.any() and not failed.all()
        for slot in (w.value, w.dt, w.dx, w.dtt, w.dtx, w.dxx):
            slot = np.broadcast_to(slot, t.shape)
            assert np.isnan(slot[failed]).all() and not np.signbit(slot[failed]).any()


def test_overflowing_float_slot_poisons_the_cells_of_an_array_jet():
    # a Python float does not trap: 1e300 * 1e300 is inf without a signal,
    # and the checks of float slots still run under traps
    value = np.array([1.0, 2.0])
    inf = 1e300 * 1e300
    w = jets.on_cells(jets.checked, (), value, inf, 0.0, 0.0, 0.0, 0.0)
    for slot in (w.value, w.dt, w.dx, w.dtt, w.dtx, w.dxx):
        assert np.isnan(slot).all()
    f0, f1, f2 = jets.on_cells(jets._checked1, (), value, 1.0, inf)
    assert np.isnan(f0).all() and np.isnan(f1).all() and np.isnan(f2).all()
    # a finite float slot is handed on as a numpy scalar, whose products trap
    w = jets.on_cells(jets.checked, (), value, 2.0, 0.0, 0.0, 0.0, 0.0)
    assert type(w.dt) is np.float64 and w.dt == 2.0
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            w.dt * 1e308


def test_non_finite_inputs_take_the_checked_path():
    # an infinite coordinate would otherwise pass traps unseen: exp(inf) and
    # 1/inf raise nothing, and the per-operation checks poison exp(inf)
    t = np.array([math.inf, 1.0, -math.inf])
    w = _on_cells(parse("1/exp(t) + 1"), jets.VALUES, (t,), {"t": t})
    np.testing.assert_array_equal(np.isnan(w), [True, False, True])
    assert w[1] == 1.0 / math.exp(1.0) + 1.0
