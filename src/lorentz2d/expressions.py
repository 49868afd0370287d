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

``evaluate`` accepts bindings to plain floats or to ``Jet2`` seeds; the
two backends share the same value formulas, so the jet value component
is bit-identical to the plain evaluation.  Either kind of binding may
hold numpy arrays of cell coordinates: the same code then evaluates every
cell at once, and a cell that fails comes back NaN (see ``jets``) where a
float evaluation would raise ``DomainError``.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from . import jets
from .errors import DomainError, NonConstantExponent, ParseError
from .jets import Jet2, as_slot, backend, finite, reject

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
# An expression is compiled once into nested closures, one per node, for
# values (floats or arrays) or for jets; the closures are then called with
# the bindings.  Factories compile their formulas when they are built.

_INF = math.inf


def evaluate(expression: Expression, bindings: Mapping[str, float | Jet2]):
    """Evaluate with float bindings (returns float) or Jet2 seeds
    (returns Jet2).  Raises DomainError outside real domains, ValueError
    for unbound variables.  With array bindings, failed cells are NaN
    instead; a constant part still evaluates on floats, and still raises."""
    jet = on_arrays = False
    for v in bindings.values():
        if isinstance(v, Jet2):
            jet = True
            v = v.value
        if isinstance(v, np.ndarray):
            on_arrays = True
    fn = compile_expression(expression, jet)
    if on_arrays:
        # overflow and invalid cells are poisoned, not warned about
        with np.errstate(all="ignore"):
            return fn(bindings)
    return fn(bindings)


def compile_expression(expression: Expression, jet: bool = False):
    """``fn(bindings)`` evaluating ``expression`` as ``evaluate`` does:
    values from float or array bindings, or with ``jet`` a Jet2 from Jet2
    seeds (float bindings are lifted to constant jets)."""
    return _compile_jet(expression) if jet else _compile_real(expression)


def _point_of(bindings) -> dict | None:
    point = {}
    for k, v in bindings.items():
        v = v.value if isinstance(v, Jet2) else v
        if isinstance(v, np.ndarray):
            return None   # a failure raised on arrays holds at every cell
        point[k] = float(v)
    return point


def constant_value(expression: Expression) -> float:
    """Value of a variable-free expression."""
    if free_variables(expression):
        raise ValueError("expression is not constant")
    return _compile_real(expression)({})


def _exponent_value(node: Expression) -> float:
    if isinstance(node, Constant):
        return node.value
    return constant_value(node)


def _variable(name: str, convert):
    def variable(bindings):
        try:
            v = bindings[name]
        except KeyError:
            raise ValueError(f"unbound variable {name!r}") from None
        return convert(v)

    return variable


def _real_power(n: float):
    """a -> a**n for a constant n, on values."""
    if n.is_integer() and abs(n) <= jets._POW_PRODUCT_LIMIT:
        m = int(n)

        def power(a):
            if m == 0:
                return a * 0.0 + 1.0   # 1, kept NaN on a poisoned cell
            p = a
            for _ in range(abs(m) - 1):
                p = p * a
            if m < 0:
                p = 1.0 / reject(p == 0.0, p, "division by zero in negative power")
            return p

        return power
    message = f"pow with exponent {n!r} requires a positive base (got {{!r}})"

    def power(a):
        a = reject(a <= 0.0, a, message)
        xp = backend(a)
        try:
            return xp.exp(n * xp.log(a))
        except OverflowError:
            raise DomainError(
                f"pow overflow for base {a!r} and exponent {n!r}") from None

    return power


def _divide(a, b):
    return a / reject(b == 0.0, b, "division by zero")


_REAL_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
             "div": _divide}


def _compile_real(expression: Expression):
    match expression:
        case Constant(value):
            return lambda bindings: value
        case Variable(name):
            return _variable(name, as_slot)
        case Unary(_, child):
            inner = _compile_real(child)
            return lambda bindings: -inner(bindings)
        case Binary(op, left, right):
            first = _compile_real(left)
            if op == "pow":
                power = _real_power(_exponent_value(right))
                return _checked_real(expression, lambda b: power(first(b)))
            second = _compile_real(right)
            apply = _REAL_OPS[op]
            return _checked_real(expression,
                                 lambda b: apply(first(b), second(b)))
        case Call(fn, arg):
            inner = _compile_real(arg)
            value = jets.VALUE_FUNCTIONS[fn]
            return _checked_real(expression, lambda b: value(inner(b)))
    raise TypeError(f"not an expression node: {expression!r}")


def _checked_real(node: Expression, compute):
    """``compute`` with the per-op finiteness check; a failure on floats is
    reported at ``node``."""

    def checked(bindings):
        try:
            result = compute(bindings)
            if result.__class__ is float and -_INF < result < _INF:
                return result   # a finite float: the common case, kept fast
            return finite(result)
        except DomainError as err:
            raise _located(err, node, bindings) from None

    return checked


def _located(err: DomainError, node: Expression, bindings) -> DomainError:
    """A float evaluation's failure, reported at the innermost node."""
    if err.node is not None:
        return err
    return DomainError(err.message, node, _point_of(bindings))


def _lifted(v):
    return v if isinstance(v, Jet2) else jets.lift(v)


_JET_OPS = {"add": jets.add, "sub": jets.sub, "mul": jets.mul, "div": jets.div}


def _compile_jet(expression: Expression):
    match expression:
        case Constant(value):
            constant = jets.lift(value)
            return lambda bindings: constant
        case Variable(name):
            return _variable(name, _lifted)
        case Unary(_, child):
            inner = _compile_jet(child)
            return lambda bindings: -inner(bindings)
        case Binary(op, left, right):
            first = _compile_jet(left)
            if op == "pow":
                n = _exponent_value(right)
                return _located_jet(expression, lambda b: jets.powc(first(b), n))
            second = _compile_jet(right)
            apply = _JET_OPS[op]
            return _located_jet(expression, lambda b: apply(first(b), second(b)))
        case Call(fn, arg):
            inner = _compile_jet(arg)
            return _located_jet(expression,
                                lambda b: jets.apply_elementary(fn, inner(b)))
    raise TypeError(f"not an expression node: {expression!r}")


def _located_jet(node: Expression, compute):
    def located(bindings):
        try:
            return compute(bindings)
        except DomainError as err:
            raise _located(err, node, bindings) from None

    return located
