"""Metamorphic identities of the expression compiler, under random trees.

Subtraction is addition of the negation and a quotient the product with
the reciprocal, bit for bit in IEEE arithmetic, signed zeros included; so
the compiled coefficients of the two spellings of each identity must have
the same bytes, or both fail at the same point.  Trees are drawn as node
objects, derandomized and bounded, with orders 0-4 and coordinates that
include +0.0 and -0.0.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from geoweb import expr
from geoweb.errors import DomainError

CONSTANTS = [0.0, 0.5, 1.0, 2.0, 3.0, 1e300, 1e-300]
COORDINATES = [0.0, -0.0, 0.25, -0.5, 1.5, -2.0, 1e-300]

LEAVES = st.one_of(st.builds(expr.Var, st.sampled_from([0, 1])),
                   st.builds(expr.Const, st.sampled_from(CONSTANTS)))


def _extend(children):
    return st.one_of(
        st.builds(expr.BinOp, st.sampled_from("+-*/^"), children, children),
        st.builds(expr.Call, st.sampled_from(sorted(expr._MATH)), children),
        st.builds(expr.Neg, children))


def _variable(node):
    return isinstance(node, expr.Var) or any(
        isinstance(kid, expr._Node) and _variable(kid)
        for kid in node._fields())


TREES = st.recursive(LEAVES, _extend, max_leaves=6)
POINTS = st.lists(st.tuples(*[st.sampled_from(COORDINATES)] * 2),
                  min_size=1, max_size=3).map(np.array)


def _outcome(tree, X, order):
    """The coefficients' bytes, or where the tree fails: when compiled, or
    at which points (the messages name the tree, so they may differ)."""
    try:
        program = expr.compile_program([tree])
    except DomainError:
        return "compile"
    try:
        return program(X, order).tobytes()
    except DomainError as e:
        return "run", e.rows.tolist()


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(a=TREES, b=TREES.filter(_variable), c=st.sampled_from(CONSTANTS),
       X=POINTS, order=st.integers(0, 4))
def test_spellings_compile_to_the_same_bytes(a, b, c, X, order):
    def same(left, right):
        assert _outcome(left, X, order) == _outcome(right, X, order), (
            expr.print_expression(left), expr.print_expression(right))

    c = expr.Const(c)
    same(expr.BinOp("-", a, b), expr.BinOp("+", a, expr.Neg(b)))
    same(expr.BinOp("-", c, a), expr.BinOp("+", expr.Neg(a), c))
    same(expr.BinOp("/", a, b),
         expr.BinOp("*", a, expr.BinOp("/", expr.Const(1.0), b)))
