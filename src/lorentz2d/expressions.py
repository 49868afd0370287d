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
in front of a numeric literal folds into a negative ``Constant``.  A
literal beyond the double range (``1e999``) is a ``ParseError``.

Variables are ``t``, ``x`` (standard chart), ``u``, ``v`` (null chart)
and ``l`` (integration variable).  ``pi`` and ``e`` are keywords for the
usual constants.  Functions, the names of ``jets.ELEMENTARY``: exp log sin
cos tan sec sinh cosh tanh sech sqrt atan abs.

One compiler turns a formula into a straight-line Python function over
one of the three algebras of ``jets``: values, univariate Taylor jets (f,
f', f'') and ``Jet2``.  The function's code is generated once per formula
shape (the tree with its constants as slots) and algebra, and every
formula of that shape binds its own constants to it.  The algebras share
each elementary function's value rule and the one power rule, so a jet's
value slot is bit-identical to the plain evaluation.  Every node's output
is checked for finiteness once: a jet operation checks the slots it
builds, and the compiled code checks each value.  A failure on floats is
reported at the innermost node that failed, with the point.  ``evaluate``
accepts bindings to plain floats or to ``Jet2`` seeds.  The compiled
functions also take numpy arrays of cell coordinates and then evaluate
every cell at once, a failed cell NaN where a float would raise
``DomainError`` (see ``jets``); a factor's ``value`` and ``jet``
(``families.factor_from_expression``) are the array entry points.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Union

import numpy as np

from . import jets
from .errors import DomainError, NonConstantExponent, ParseError
from .jets import Jet2

FUNCTIONS = tuple(jets.ELEMENTARY)
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
# the node classes as a tuple, for isinstance: much cheaper than a check
# against the Union
NODES = (Constant, Variable, Unary, Binary, Call)


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
        if kind == "num" and math.isinf(float(m.group())):
            raise ParseError(f"number {m.group()!r} is out of range", pos,
                             ("a finite number",))
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
    text = unparse(expression)
    if _level(expression) < slot:
        return f"({text})"
    if negative_guard and text.startswith("-"):
        return f"({text})"
    return text


def unparse(expression: Expression) -> str:
    """Render a tree as source text; parse(unparse(e)) == e."""
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
            return f"{fn}({unparse(arg)})"
    raise TypeError(f"not an expression node: {expression!r}")


# ---------------------------------------------------------------------------
# Evaluation
#
# An expression is compiled once, for one algebra of ``jets`` (values,
# univariate Taylor jets or Jet2), into one straight-line Python function,
# which is then called with the bindings.  Formulas of one shape share that
# function's code: a shape is the tree with every constant replaced by a
# slot (pow exponents, functions, operators and variables stay), and
# ``_generate`` caches the code generated per (shape, algebra), up to
# ``_SHAPE_LIMIT`` of them, the least recently used dropped first.  A
# compile walks the tree once and binds the formula's constants and nodes
# to the shared code.  Factories compile their formulas when they are built.

_SHAPE_LIMIT = 256
# the only rules written inline: exactly the value algebra's own add, sub, mul
_INFIX = {operator.add: "+", operator.sub: "-", operator.mul: "*"}


def evaluate(expression: Expression, bindings: Mapping[str, float | Jet2]):
    """Evaluate with float bindings (returns float) or Jet2 seeds
    (returns Jet2, in the ``JET2`` algebra; float bindings are lifted to
    constant jets).  Raises DomainError outside real domains, ValueError
    for unbound variables.  Every node's output is checked for finiteness
    once, and a failure is reported at the innermost failing node."""
    jet = any(isinstance(v, Jet2) for v in bindings.values())
    return compile_expression(expression, jets.JET2 if jet else jets.VALUES)(bindings)


def compile_expression(expression: Expression, algebra: jets.Algebra = jets.VALUES):
    """``fn(bindings)`` evaluating ``expression`` in ``algebra`` (one of
    ``jets.VALUES``, ``jets.TAYLOR`` and ``jets.JET2``), as ``evaluate``
    does: the code generated for the formula's shape, bound to the
    formula's own constants and nodes."""
    constants, nodes = [], []
    make = _generate(_shape(expression, constants, nodes), algebra)
    lift = algebra.lift
    return make(nodes, *[lift(c) for c in constants])


def _point_of(bindings) -> dict | None:
    point = {}
    for k, v in bindings.items():
        v = v.value if isinstance(v, Jet2) else v[0] if isinstance(v, tuple) else v
        if isinstance(v, np.ndarray):
            return None   # a failure raised on arrays holds at every cell
        point[k] = float(v)
    return point


def _exponent_value(node: Expression) -> float:
    """Value of a variable-free exponent."""
    if isinstance(node, Constant):
        return node.value
    if free_variables(node):
        raise ValueError("expression is not constant")
    return compile_expression(node)({})


def _shape(expression: Expression, constants: list, nodes: list):
    """The shape key of ``expression``: None for a constant, a variable's
    name, and per operation a tuple (of one item for a negation, two for a
    call, three for a binary operation or a pow with its exponent).
    Appends the constants and the located (binary and call) nodes in
    evaluation order."""
    match expression:
        case Constant(value):
            constants.append(value)
            return None
        case Variable(name):
            return name
        case Unary(_, child):
            return (_shape(child, constants, nodes),)
        case Binary("pow", left, right):
            key = ("pow", _exponent_value(right), _shape(left, constants, nodes))
        case Binary(op, left, right):
            key = (op, _shape(left, constants, nodes), _shape(right, constants, nodes))
        case Call(fn, arg):
            key = (fn, _shape(arg, constants, nodes))
        case _:
            raise TypeError(f"not an expression node: {expression!r}")
    nodes.append(expression)
    return key


@lru_cache(maxsize=_SHAPE_LIMIT)
def _generate(shape, algebra: jets.Algebra):
    """``make(nodes, *constants)``, the factory of the function of
    ``shape`` in ``algebra``: straight-line code in evaluation order
    (post-order, left then right), one stack slot per depth, a right
    operand released once used.  Before a located node is applied, the
    local ``i`` is set to its index, so that a failure on floats is claimed
    by the innermost failing node.  Constants, rules and variable names
    are bound, never written into the source."""
    env = {"DomainError": DomainError, "point_of": _point_of,
           "lift": algebra.lift, "finite": algebra.finite}
    lines, names = [], []   # names: the variables in the order first read
    n_constants = n_located = 0

    def bound(obj) -> str:
        name = f"g{len(env)}"
        env[name] = obj
        return name

    def emit(key, p: int) -> str:
        """Append the lines computing ``key`` in stack slot ``p`` (or
        above); return the text of its value."""
        nonlocal n_constants, n_located
        if key is None:
            n_constants += 1
            return f"c{n_constants - 1}"
        if key.__class__ is not tuple:   # a variable, read at its first use
            if key not in names:
                lines.append(f"v{len(names)} = lift(bindings[{bound(key)}])")
                names.append(key)
            return f"v{names.index(key)}"
        if len(key) == 1:
            neg = "-" if algebra.neg is operator.neg else bound(algebra.neg)
            lines.append(f"s{p} = {neg}({emit(key[0], p)})")
            return f"s{p}"
        right = None
        if key[0] == "pow":
            call = f"{bound(jets.power(algebra, key[1]))}({emit(key[2], p)})"
        elif len(key) == 2:
            call = f"{bound(jets.elementary(algebra, key[0]))}({emit(key[1], p)})"
        else:
            rule, left = getattr(algebra, key[0]), emit(key[1], p)
            right = emit(key[2], p + 1 if left == f"s{p}" else p)
            call = (f"{left} {_INFIX[rule]} {right}" if rule in _INFIX
                    else f"{bound(rule)}({left}, {right})")
        lines.extend([f"i = {n_located}", f"s{p} = {call}"])
        n_located += 1
        if right == f"s{p + 1}":
            lines.append(f"del {right}")
        if algebra.finite is not None:   # a finite float passes fast (1e400 reads as inf)
            lines.append(f"if not (s{p}.__class__ is float and -1e400 < s{p} < 1e400):"
                         f" s{p} = finite(s{p})")
        return f"s{p}"

    result = emit(shape, 0)
    body = lines + [f"return {result}"]
    handlers = []
    if n_located:
        handlers += ["except DomainError as err:",
                     "    if err.node is None:",
                     "        err = DomainError(err.message, nodes[i], point_of(bindings))",
                     "    raise err from None"]
    if names:
        handlers += ["except KeyError:",
                     f"    for name in {bound(tuple(names))}:",
                     "        if name not in bindings:",
                     "            raise ValueError(f'unbound variable {name!r}') from None",
                     "    raise"]
    if handlers:
        body = ["try:", *("    " + line for line in body), *handlers]
    constants = "".join(f", c{j}" for j in range(n_constants))
    source = "\n".join([f"def make(nodes{constants}):", "    def fn(bindings):",
                        *("        " + line for line in body), "    return fn"])
    exec(compile(source, "<formula shape>", "exec"), env)
    return env["make"]
