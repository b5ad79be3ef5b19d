"""Parser and Taylor evaluator for web-function expressions.

Grammar (precedence low to high): `+ -`, `* /`, unary minus, `^`
(right-associative), atoms.  Variables are x1..xn; functions are exp, log,
sin, cos, sqrt, atan; literals are decimal or scientific.  Trees are
immutable; the canonical printer is a fixed point under reparsing.

Trees are evaluated by programs compiled once (`compile_program`): each
constant subtree is folded to a float, and every other node becomes a
closure that runs its Taylor operation on the coefficients of a whole
batch of points, in the order a depth-first walk visits the nodes.
`eval_coeffs` compiles and runs one tree, `eval_field` wraps its batch of
one as a `Jet`, and `fastgamma` compiles a web's functions once for all
its RK4 stages.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from . import jets
from .errors import (ArityError, DomainError, ExpressionSyntaxError,
                     UnknownIdentifier, VariableOutOfRange, batch_error)
from .jets import Jet


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    axis: int  # 0-based; prints as x{axis+1}


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Union[Const, Var, Neg, BinOp, Call]

# functions of the grammar: every series of `jets.SERIES` but the internal
# reciprocal, with the `math` function that folds a constant argument
_MATH = {name: getattr(math, name) for name in jets.SERIES if name != "recip"}
_FLOAT_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "^": operator.pow}

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
)
_VAR_RE = re.compile(r"x([0-9]+)\Z")

# deepest tree and nesting the parser accepts: compiling, running and
# printing a tree recurse once per level, parsing about six times per nested
# parenthesis, minus sign, exponent or function call
MAX_DEPTH = 100


def _tokenize(source):
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        if source[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExpressionSyntaxError(
                "unexpected character %r" % source[pos], offset=pos)
        if m.lastgroup == "num":
            value = float(m.group())
            if not math.isfinite(value):
                raise ExpressionSyntaxError(
                    "literal %s overflows" % m.group(), offset=pos)
            tokens.append(("num", value, pos))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group(), pos))
        else:
            tokens.append((m.group(), m.group(), pos))
        pos = m.end()
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens, dim):
        self.tokens = tokens
        self.dim = dim
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ExpressionSyntaxError(
                "expected %r, found %s" % (kind, self._describe(tok)),
                offset=tok[2])
        return self.advance()

    @staticmethod
    def _describe(tok):
        return "end of input" if tok[0] == "end" else repr(str(tok[1]))

    @staticmethod
    def _bounded(depth, offset):
        if depth > MAX_DEPTH:
            raise ExpressionSyntaxError(
                "expression nests deeper than %d levels" % MAX_DEPTH,
                offset=offset)
        return depth

    def nested(self, rule, offset):
        # a rule that recurses into the grammar: bound the parser's depth
        self.nesting = self._bounded(self.nesting + 1, offset)
        result = rule()
        self.nesting -= 1
        return result

    # each rule returns (tree, depth of the tree)

    def parse(self):
        node, _ = self.sum()
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            raise ExpressionSyntaxError(
                "unexpected %s" % self._describe(tok), offset=tok[2])
        return node

    def chain(self, ops, operand):
        node, depth = operand()
        while self.peek() in ops:
            op, _, offset = self.advance()
            right, rdepth = operand()
            node = BinOp(op, node, right)
            depth = self._bounded(1 + max(depth, rdepth), offset)
        return node, depth

    def sum(self):
        return self.chain(("+", "-"), self.term)

    def term(self):
        return self.chain(("*", "/"), self.unary)

    def unary(self):
        if self.peek() == "-":
            offset = self.advance()[2]
            node, depth = self.nested(self.unary, offset)
            return Neg(node), self._bounded(depth + 1, offset)
        return self.power()

    def power(self):
        base, depth = self.atom()
        if self.peek() == "^":
            offset = self.advance()[2]
            # exponent re-enters at unary level: right-associative, and
            # x^-2 is legal
            exponent, edepth = self.nested(self.unary, offset)
            return (BinOp("^", base, exponent),
                    self._bounded(1 + max(depth, edepth), offset))
        return base, depth

    def atom(self):
        kind, value, offset = self.advance()
        if kind == "num":
            return Const(value), 1
        if kind == "(":
            inner = self.nested(self.sum, offset)
            self.expect(")")
            return inner
        if kind == "ident":
            var = _VAR_RE.match(value)
            if var is not None:
                idx = int(var.group(1))
                if not 1 <= idx <= self.dim:
                    raise VariableOutOfRange(
                        "variable %s out of range for dimension %d"
                        % (value, self.dim), offset=offset)
                return Var(idx - 1), 1
            if value in _MATH:
                if self.peek() != "(":
                    raise ArityError(
                        "function %r needs a parenthesized argument" % value,
                        offset=offset)
                self.advance()
                args = [self.nested(self.sum, offset)]
                while self.peek() == ",":
                    self.advance()
                    args.append(self.nested(self.sum, offset))
                self.expect(")")
                if len(args) != 1:
                    raise ArityError(
                        "function %r takes one argument, got %d"
                        % (value, len(args)), offset=offset)
                arg, depth = args[0]
                return Call(value, arg), self._bounded(depth + 1, offset)
            raise UnknownIdentifier("unknown identifier %r" % value,
                                    offset=offset)
        raise ExpressionSyntaxError(
            "expected an operand, found %s" % self._describe((kind, value, offset)),
            offset=offset)


def parse_expression(source: str, dim: int) -> Node:
    if not source or source.isspace():
        raise ExpressionSyntaxError("empty expression", offset=0)
    return _Parser(_tokenize(source), dim).parse()


# printer precedence; parenthesize a child whose level is too low for its slot
_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _print(node, parent_level):
    if isinstance(node, Const):
        text = _fmt_const(node.value)
        level = 5 if node.value >= 0 else 3
    elif isinstance(node, Var):
        text, level = "x%d" % (node.axis + 1), 5
    elif isinstance(node, Call):
        text, level = "%s(%s)" % (node.fn, _print(node.arg, 0)), 5
    elif isinstance(node, Neg):
        level = _LEVEL["neg"]
        text = "-" + _print(node.arg, level)
    else:
        level = _LEVEL[node.op]
        if node.op in ("+", "-"):
            left = _print(node.left, level)
            right = _print(node.right, level + 1)
            text = "%s %s %s" % (left, node.op, right)
        elif node.op in ("*", "/"):
            left = _print(node.left, level)
            right = _print(node.right, level + 1)
            text = "%s%s%s" % (left, node.op, right)
        else:  # ^ is right-associative: parenthesize the left on ties
            left = _print(node.left, level + 1)
            right = _print(node.right, _LEVEL["neg"])
            text = "%s^%s" % (left, right)
    if level < parent_level:
        return "(%s)" % text
    return text


def print_expression(node: Node) -> str:
    """Canonical text form; parse(print(parse(s))) == parse(s)."""
    return _print(node, 0)


# ---------------------------------------------------------------------------
# Compiled evaluation.  A compiled node is a folded constant (a float) or a
# closure node(xs, tb, order) that runs its compiled children left to
# right, as a depth-first walk would, then the node's operation on
# coefficient arrays (count, B).  A constant subtree that does not fold
# compiles to a closure raising its DomainError, so the error still comes
# at evaluation, in walk order.  xs holds the jets of the coordinate
# functions, built once per run and shared by every variable node, so no
# closure writes into an array it is given.


def compile_program(nodes):
    """Program `program(X, order)` giving the Taylor coefficients
    (len(nodes), count, B) of the trees `nodes` at the points X (B, n).

    Row k is `eval_coeffs(nodes[k], X, order)`.  The trees run in order,
    and the first that fails raises: an out-of-domain column, or a column
    with a coefficient that overflows to inf or nan, raises DomainError for
    the whole batch (see `errors.batch_error`).  Compile the functions of a
    web once when they are evaluated many times.
    """
    nodes = tuple(nodes)
    runs = [node if callable(node) else _constant_node(node)
            for node in map(_compile, nodes)]

    # overflow, division by zero and invalid operations show as non-finite
    # coefficients, which the program checks, so numpy need not warn
    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def program(X, order):
        X = np.asarray(X, dtype=float)
        width, n = X.shape
        tb = jets._tables(n, order)
        xs = np.zeros((n, tb.count, width))
        xs[:, 0] = X.T
        if order >= 1:
            xs[:, 1:1 + n] = _unit_slopes(n)
        out = np.empty((len(nodes), tb.count, width))
        for k, run in enumerate(runs):
            try:
                out[k] = run(xs, tb, order)
            except DomainError:
                # an earlier tree that came out non-finite fails first
                _check_finite(nodes, out[:k])
                raise
        _check_finite(nodes, out)
        return out

    return program


@lru_cache(maxsize=None)
def _unit_slopes(n):
    # the first-order coefficients of x_1..x_n, d x_a / d x_b, for any
    # batch; shared by every call, so read-only
    unit = np.eye(n)[:, :, None]
    unit.flags.writeable = False
    return unit


def _check_finite(nodes, out):
    # a finite sum of squares has no inf or nan term
    if math.isfinite(np.vdot(out, out)) or np.isfinite(out).all():
        return
    bad = ~np.isfinite(out)
    k = int(np.argmax(bad.any(axis=(1, 2))))
    raise batch_error(DomainError, bad[k].any(axis=0), lambda b:
                      "non-finite %s of %s"
                      % ("value" if bad[k, 0, b] else "derivative",
                         print_expression(nodes[k])))


def eval_coeffs(node: Node, X, order: int) -> np.ndarray:
    """Taylor coefficients (count, B) of the expression at the points X (B, n).

    Column b is the jet of the expression at X[b], truncated at `order`,
    in the multi-index layout of `jets.exponents`.  Each operation does
    what the `Jet` operator of the same name does, column by column, so a
    column equals the single-point jet bit for bit.  Constant
    subexpressions are folded to Python floats and raise DomainError where
    they are undefined; an out-of-domain column, or one with a coefficient
    that overflows to inf or nan, raises DomainError for the whole batch.
    """
    return compile_program([node])(X, order)[0]


def eval_field(node: Node, point, order: int) -> Jet:
    """Jet of the expression at a point (n,) or a batch of points (B, n)."""
    point = np.asarray(point, dtype=float)
    if point.ndim == 2:
        return Jet(point.shape[1], order, eval_coeffs(node, point, order))
    return Jet(len(point), order, eval_coeffs(node, point[None], order)[:, 0])


def _compile(node):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        axis = node.axis
        return lambda xs, tb, order: xs[axis]
    if isinstance(node, Neg):
        arg = _compile(node.arg)
        if not callable(arg):
            return -arg
        return lambda xs, tb, order: -arg(xs, tb, order)
    if isinstance(node, Call):
        arg, name = _compile(node.arg), node.fn
        if not callable(arg):
            return _fold(node, _MATH[name], arg)
        return lambda xs, tb, order: _series(name, arg(xs, tb, order), tb,
                                             order)
    a, b = _compile(node.left), _compile(node.right)
    if not (callable(a) or callable(b)):
        return _fold(node, _FLOAT_OPS[node.op], a, b)
    return _BINARY[node.op](node, a, b)


def _constant_node(value):
    return lambda xs, tb, order: _constant(value, tb.count, xs.shape[2])


def _fold(node, fn, *args):
    # evaluate a constant subexpression; a complex power, an overflow, a
    # division by zero or a math domain error gives a node that raises
    # DomainError when run
    try:
        value = fn(*args)
    except (ArithmeticError, ValueError):
        value = None
    if isinstance(value, float) and math.isfinite(value):
        return value
    message = ("constant subexpression %s is not a finite real number"
               % print_expression(node))

    def undefined(xs, tb, order):
        raise DomainError(message)
    return undefined


# Each binary builder takes the node and its compiled operands, at least
# one of them a closure, and gives the closure of the node.  A float
# meets an array as in `Jet`: + and - touch coefficient 0.

def _add(node, a, b):
    if callable(a) and callable(b):
        return lambda xs, tb, order: a(xs, tb, order) + b(xs, tb, order)
    arr, c = (a, b) if callable(a) else (b, a)

    def shifted(xs, tb, order):
        out = arr(xs, tb, order).copy()
        out[0] += c
        return out
    return shifted


def _sub(node, a, b):
    if callable(a) and callable(b):
        return lambda xs, tb, order: a(xs, tb, order) - b(xs, tb, order)
    if callable(a):
        def lowered(xs, tb, order):
            out = a(xs, tb, order).copy()
            out[0] -= b
            return out
        return lowered

    def negated(xs, tb, order):
        out = -b(xs, tb, order)
        out[0] += a
        return out
    return negated


def _mul(node, a, b):
    if callable(a) and callable(b):
        return lambda xs, tb, order: jets.coeff_mul(a(xs, tb, order),
                                                    b(xs, tb, order), tb)
    if callable(a):
        return lambda xs, tb, order: a(xs, tb, order) * b
    return lambda xs, tb, order: a * b(xs, tb, order)


def _div(node, a, b):
    if callable(b):
        if callable(a):
            def quotient(xs, tb, order):
                u = a(xs, tb, order)
                return jets.coeff_mul(
                    u, _series("recip", b(xs, tb, order), tb, order), tb)
            return quotient
        return lambda xs, tb, order: a * _series("recip", b(xs, tb, order),
                                                 tb, order)
    if b != 0.0:
        return lambda xs, tb, order: a(xs, tb, order) / b

    def by_zero(xs, tb, order):
        a(xs, tb, order)
        raise batch_error(DomainError, np.ones(xs.shape[2], bool), lambda _:
                          "division by zero in %s" % print_expression(node))
    return by_zero


def _pow(node, a, b):
    if not callable(b):
        return lambda xs, tb, order: _const_power(a(xs, tb, order), b, tb,
                                                  order)
    if callable(a):
        return lambda xs, tb, order: _power(a(xs, tb, order),
                                            b(xs, tb, order), tb, order)
    return lambda xs, tb, order: _power(_constant(a, tb.count, xs.shape[2]),
                                        b(xs, tb, order), tb, order)


_BINARY = {"+": _add, "-": _sub, "*": _mul, "/": _div, "^": _pow}


def _constant(value, count, width):
    out = np.zeros((count, width))
    out[0] = value
    return out


def _series(name, u, tb, order):
    u0 = u[0]
    if name == "recip" and np.any(u0 == 0.0):
        raise batch_error(DomainError, u0 == 0.0,
                          lambda b: "division by zero")
    if name in ("log", "sqrt") and np.any(u0 <= 0.0):
        raise batch_error(DomainError, u0 <= 0.0, lambda b:
                          "%s of non-positive value %g" % (name, u0[b]))
    if name == "log" and not np.any(u[1:]):
        # a constant's logarithm as a value: the series terms 1/u0^j
        # only multiply zeros, and overflow to nan for a tiny u0
        return _constant(np.log(u0), tb.count, u.shape[1])
    return jets.coeff_compose(u, jets.SERIES[name](u0, order), tb)


def _const_power(u, p, tb, order):
    # integral exponent: binary powering from the leading bit (u^2 = u*u,
    # u^3 = (u*u)*u), reciprocal when negative; otherwise exp(p log u)
    if math.isfinite(p) and p == int(p):
        k = abs(int(p))
        out = u if k else _constant(1.0, tb.count, u.shape[1])
        for bit in bin(k)[3:]:
            out = jets.coeff_mul(out, out, tb)
            if bit == "1":
                out = jets.coeff_mul(out, u, tb)
        return out if p >= 0 else _series("recip", out, tb, order)
    return _series("exp", p * _series("log", u, tb, order), tb, order)


def _on_columns(cols, fn, *args):
    # fn over the batch columns `cols` marks; a DomainError it raises marks
    # its rows, and gives their details, in the whole batch
    try:
        return fn(*(a[:, cols] for a in args))
    except DomainError as e:
        rows = np.zeros(cols.shape, bool)
        rows[np.flatnonzero(cols)[e.rows]] = True
        sub, detail = np.cumsum(cols) - 1, e.detail
        raise batch_error(DomainError, rows,
                          lambda b: detail(sub[b])) from None


def _power(u, p, tb, order):
    # u^p for an exponent array p: an exponent column without a derivative
    # part counts as constant
    out = np.full(u.shape, np.nan)
    varying = np.any(p[1:] != 0.0, axis=0)
    if np.any(varying):
        out[:, varying] = _on_columns(varying, lambda pv, uv: _series(
            "exp", jets.coeff_mul(pv, _series("log", uv, tb, order), tb),
            tb, order), p, u)
    for e in np.unique(p[0, ~varying]):
        cols = ~varying & (p[0] == e)
        out[:, cols] = _on_columns(
            cols, lambda uc: _const_power(uc, float(e), tb, order), u)
    return out
