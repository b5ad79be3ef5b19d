"""Exact oracle for the expression compiler: Taylor coefficients against
sympy.

Each expression is parsed by sympy itself (`^` read as a power), and
differentiated symbolically; the coefficient of x^e in the Taylor
expansion at a point is d^e f / e! there, evaluated exactly at dyadic
rational points, which are floats without rounding.  Nothing here comes
from `expr` or `jets` but the coefficients under test, so a slip in the
compiler's operations, its constant folding or its coefficient layout
shows as a mismatch.
"""

import itertools
import json
import math

import numpy as np
import pytest

from geoweb import expr

from conftest import NODES

sympy = pytest.importorskip("sympy")

ORDER = 4
TOLERANCE = 1e-13

# binary minus with a constant on the left, quotients and powers of two
# expressions, and a constant base under a variable exponent, on top of
# the node kinds of the nodes web
EXTRA = [
    "2 - x1*x2",
    "0.5 - sin(x1)/(2 + cos(x2))",
    "(x1 + 3)/(x2 - 2)",
    "exp(x1 - x2)/(1 + x1^2)",
    "(1 + x1^2)^(x2 + 1/2)",
    "(2 + x2)^(1 - x1) - 3",
    "2^(x1 - x2)",
]

POINTS = [(0.125, -0.0625), (-0.1875, 0.25), (0.0, 0.09375)]


def _sources():
    with open(NODES) as fh:
        return json.load(fh)["functions"] + EXTRA


def _layout(n, order):
    """Multi-indices by degree, and inside a degree from x1^deg down."""
    return [e for deg in range(order + 1)
            for e in sorted((e for e in itertools.product(range(deg + 1),
                                                          repeat=n)
                             if sum(e) == deg), reverse=True)]


def _exact(source, points, order):
    """The coefficients (count, len(points)) of `source`, each derivative
    taken from the one an order below it and evaluated to 30 digits."""
    xs = sympy.symbols("x1 x2")
    f = sympy.sympify(source, locals=dict(zip(("x1", "x2"), xs)),
                      rational=True)
    layout = _layout(2, order)
    derivative = {layout[0]: f}
    for e in layout[1:]:
        a = next(a for a, k in enumerate(e) if k)
        below = e[:a] + (e[a] - 1,) + e[a + 1:]
        derivative[e] = sympy.diff(derivative[below], xs[a])
    out = np.empty((len(layout), len(points)))
    for b, point in enumerate(points):
        at = dict(zip(xs, map(sympy.Rational, point)))
        for k, e in enumerate(layout):
            out[k, b] = sympy.N(derivative[e].xreplace(at), 30) / math.prod(
                map(math.factorial, e))
    return out


@pytest.mark.parametrize("source", _sources())
def test_coefficients_match_sympy(source):
    tree = expr.parse_expression(source, 2)
    got = expr.eval_coeffs(tree, np.array(POINTS), ORDER)
    want = _exact(source, POINTS, ORDER)
    assert got.shape == want.shape
    for b, point in enumerate(POINTS):
        err, scale = np.abs(got[:, b] - want[:, b]).max(), \
            np.abs(want[:, b]).max()
        assert err <= TOLERANCE * scale, (source, point, err / scale)
