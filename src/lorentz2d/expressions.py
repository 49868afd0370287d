"""Parser, printer and evaluator for the conformal-factor formula language.

Grammar (whitespace insignificant)::

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := unary ("^" factor)?
    unary   := "-" unary | primary
    primary := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

``^`` is right-associative and its base includes a leading unary minus,
so ``-x^2`` parses as ``(-x)^2``.  Exponents must be real constants;
``2^x`` raises ``NonConstantExponent`` at parse time.  A minus directly
in front of a numeric literal folds into a negative ``Constant``.

Variables are ``t``, ``x`` (standard chart), ``u``, ``v`` (null chart)
and ``l`` (integration variable).  ``pi`` and ``e`` are keywords for the
usual constants.  Functions: exp log sin cos tan sec sinh cosh tanh sech
sqrt atan abs.

One tree compiler turns a formula into closures over one of the three
algebras of ``jets``: values, univariate Taylor jets (f, f', f'') and
``Jet2``.  The algebras share each elementary function's value rule and
the one power rule, so a jet's value slot is bit-identical to the plain
evaluation.  Every node's output is checked for finiteness once: a jet
operation checks the slots it builds, and the compiler checks each value.
One location wrapper reports a failure on floats at the innermost node
that failed, with the point.  ``evaluate`` accepts bindings to plain
floats or to ``Jet2`` seeds.  Bindings may hold numpy arrays of cell
coordinates: the same code then evaluates every cell at once, and a cell
that fails comes back NaN (see ``jets``) where a float evaluation would
raise ``DomainError``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from . import jets
from .errors import DomainError, NonConstantExponent, ParseError
from .jets import Jet2

FUNCTIONS = ("exp", "log", "sin", "cos", "tan", "sec", "sinh", "cosh",
             "tanh", "sech", "sqrt", "atan", "abs")
VARIABLES = ("t", "x", "u", "v", "l")
CONSTANT_KEYWORDS = {"pi": math.pi, "e": math.e}


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # "neg"
    child: "Expression"


@dataclass(frozen=True)
class Binary:
    op: str  # add | sub | mul | div | pow
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expression"


Expression = Union[Constant, Variable, Unary, Binary, Call]


# ---------------------------------------------------------------------------
# Tokenizing and parsing

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)

_PRIMARY_EXPECTED = ("number", "identifier", "'('", "'-'")


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        if source[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", pos,
                             _PRIMARY_EXPECTED)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def match_op(self, *ops):
        kind, text, _ = self.peek()
        if kind == "op" and text in ops:
            return self.advance()
        return None

    def expr(self) -> Expression:
        node = self.term()
        while True:
            tok = self.match_op("+", "-")
            if tok is None:
                return node
            op = "add" if tok[1] == "+" else "sub"
            node = Binary(op, node, self.term())

    def term(self) -> Expression:
        node = self.factor()
        while True:
            tok = self.match_op("*", "/")
            if tok is None:
                return node
            op = "mul" if tok[1] == "*" else "div"
            node = Binary(op, node, self.factor())

    def factor(self) -> Expression:
        base = self.unary()
        tok = self.match_op("^")
        if tok is None:
            return base
        exponent = self.factor()
        stray = free_variables(exponent)
        if stray:
            names = ", ".join(sorted(stray))
            raise NonConstantExponent(
                f"exponent must be constant but contains {names}", tok[2])
        return Binary("pow", base, exponent)

    def unary(self) -> Expression:
        if self.match_op("-"):
            kind, text, _ = self.peek()
            if kind == "num":
                self.advance()
                return Constant(-float(text))
            return Unary("neg", self.unary())
        return self.primary()

    def primary(self) -> Expression:
        kind, text, pos = self.peek()
        if kind == "num":
            self.advance()
            return Constant(float(text))
        if kind == "ident":
            self.advance()
            if self.match_op("("):
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", pos, FUNCTIONS)
                arg = self.expr()
                self.expect_close(")")
                return Call(text, arg)
            if text in VARIABLES:
                return Variable(text)
            if text in CONSTANT_KEYWORDS:
                return Constant(CONSTANT_KEYWORDS[text])
            raise ParseError(f"unknown identifier {text!r}", pos,
                             VARIABLES + tuple(CONSTANT_KEYWORDS))
        if kind == "op" and text == "(":
            self.advance()
            node = self.expr()
            self.expect_close(")")
            return node
        raise ParseError("expected a value", pos, _PRIMARY_EXPECTED)

    def expect_close(self, closing):
        if not self.match_op(closing):
            kind, text, pos = self.peek()
            raise ParseError(f"expected {closing!r}", pos, (f"'{closing}'",))


def parse(source: str) -> Expression:
    """Parse source text into an expression tree."""
    parser = _Parser(_tokenize(source))
    node = parser.expr()
    kind, text, pos = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {text!r}", pos,
                         ("'+'", "'-'", "'*'", "'/'", "'^'", "end of input"))
    return node


# ---------------------------------------------------------------------------
# Structure utilities

def free_variables(expression: Expression) -> frozenset[str]:
    """Names of the variables occurring in the expression."""
    match expression:
        case Constant():
            return frozenset()
        case Variable(name):
            return frozenset((name,))
        case Unary(_, child):
            return free_variables(child)
        case Binary(_, left, right):
            return free_variables(left) | free_variables(right)
        case Call(_, arg):
            return free_variables(arg)
    raise TypeError(f"not an expression node: {expression!r}")


def substitute(expression: Expression, mapping: Mapping[str, Expression]) -> Expression:
    """Replace variables by expression subtrees (single pass)."""
    match expression:
        case Constant():
            return expression
        case Variable(name):
            return mapping.get(name, expression)
        case Unary(op, child):
            return Unary(op, substitute(child, mapping))
        case Binary(op, left, right):
            return Binary(op, substitute(left, mapping), substitute(right, mapping))
        case Call(fn, arg):
            return Call(fn, substitute(arg, mapping))
    raise TypeError(f"not an expression node: {expression!r}")


# ---------------------------------------------------------------------------
# Printing
#
# Grammar slot levels, loosest to tightest.  A child is parenthesized when
# its own level is looser than the slot allows, which makes parse(unparse(e))
# the identity on trees.

_ADD, _MUL, _POW, _NEG, _ATOM = range(5)


def _level(expression: Expression) -> int:
    match expression:
        case Constant(value):
            return _NEG if value < 0 else _ATOM
        case Variable():
            return _ATOM
        case Unary():
            return _NEG
        case Binary(op, _, _):
            if op in ("add", "sub"):
                return _ADD
            if op in ("mul", "div"):
                return _MUL
            return _POW
        case Call():
            return _ATOM
    raise TypeError(f"not an expression node: {expression!r}")


def _fmt_number(value: float) -> str:
    if value.is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _render(expression: Expression, slot: int, negative_guard: bool = False) -> str:
    text = _unparse(expression)
    if _level(expression) < slot:
        return f"({text})"
    if negative_guard and text.startswith("-"):
        return f"({text})"
    return text


def _unparse(expression: Expression) -> str:
    match expression:
        case Constant(value):
            return _fmt_number(value)
        case Variable(name):
            return name
        case Unary(_, child):
            # A bare "-NUMBER" would re-parse as a negative literal, not a
            # Unary node, so constants under neg keep their parentheses.
            if isinstance(child, Constant):
                return f"-({_fmt_number(child.value)})"
            return f"-{_render(child, _NEG)}"
        case Binary("add", left, right):
            return f"{_render(left, _ADD)} + {_render(right, _MUL, True)}"
        case Binary("sub", left, right):
            return f"{_render(left, _ADD)} - {_render(right, _MUL, True)}"
        case Binary("mul", left, right):
            return f"{_render(left, _MUL)}*{_render(right, _POW, True)}"
        case Binary("div", left, right):
            return f"{_render(left, _MUL)}/{_render(right, _POW, True)}"
        case Binary("pow", left, right):
            return f"{_render(left, _NEG)}^{_render(right, _POW, True)}"
        case Call(fn, arg):
            return f"{fn}({_unparse(arg)})"
    raise TypeError(f"not an expression node: {expression!r}")


def unparse(expression: Expression) -> str:
    """Render a tree as source text; parse(unparse(e)) == e."""
    return _unparse(expression)


# ---------------------------------------------------------------------------
# Evaluation
#
# An expression is compiled once, for one algebra of ``jets`` (values,
# univariate Taylor jets or Jet2), into nested closures, one per node; the
# closures are then called with the bindings.  Factories compile their
# formulas when they are built.

_INF = math.inf


def evaluate(expression: Expression, bindings: Mapping[str, float | Jet2]):
    """Evaluate with float bindings (returns float) or Jet2 seeds
    (returns Jet2, in the ``JET2`` algebra; float bindings are lifted to
    constant jets).  Raises DomainError outside real domains, ValueError
    for unbound variables.  With array bindings, failed cells are NaN
    instead; a constant part still evaluates on floats, and still raises.
    Every node's output is checked for finiteness once, and a failure on
    floats is reported at the innermost failing node."""
    jet = on_arrays = False
    for v in bindings.values():
        if isinstance(v, Jet2):
            jet = True
            v = v.value
        if isinstance(v, np.ndarray):
            on_arrays = True
    fn = compile_expression(expression, jets.JET2 if jet else jets.VALUES)
    if on_arrays:
        # overflow and invalid cells are poisoned, not warned about
        with np.errstate(all="ignore"):
            return fn(bindings)
    return fn(bindings)


def compile_expression(expression: Expression, algebra: jets.Algebra = jets.VALUES):
    """``fn(bindings)`` evaluating ``expression`` in ``algebra`` (one of
    ``jets.VALUES``, ``jets.TAYLOR`` and ``jets.JET2``), as ``evaluate``
    does."""
    return _compile(expression, algebra)


def _point_of(bindings) -> dict | None:
    point = {}
    for k, v in bindings.items():
        v = v.value if isinstance(v, Jet2) else v[0] if isinstance(v, tuple) else v
        if isinstance(v, np.ndarray):
            return None   # a failure raised on arrays holds at every cell
        point[k] = float(v)
    return point


def constant_value(expression: Expression) -> float:
    """Value of a variable-free expression."""
    if free_variables(expression):
        raise ValueError("expression is not constant")
    return _compile(expression, jets.VALUES)({})


def _exponent_value(node: Expression) -> float:
    if isinstance(node, Constant):
        return node.value
    return constant_value(node)


def _compile(expression: Expression, algebra: jets.Algebra):
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


def _located(node: Expression, apply, finite, first, second=None):
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
