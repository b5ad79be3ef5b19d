"""Expression parsing, printing and evaluation."""

import numpy as np
import pytest

from geoweb import expr, jets
from geoweb.errors import (ArityError, ExpressionSyntaxError,
                           UnknownIdentifier, VariableOutOfRange)

from conftest import coeff


@pytest.mark.parametrize("source, point, expected", [
    ("x1+2*x2", (1.0, 3.0), 7.0),
    ("-(x1+x2)", (1.0, 2.0), -3.0),
    ("x1^2*x2", (3.0, 2.0), 18.0),
    ("2^x1", (3.0, 0.0), 8.0),
    ("x1/x2/2", (8.0, 2.0), 2.0),
    ("x1-x2-1", (5.0, 2.0), 2.0),
    ("exp(log(x1))", (2.5, 0.0), 2.5),
    ("sin(0*x1)+cos(0*x2)", (0.3, 0.4), 1.0),
    ("sqrt(x1^2)", (3.0, 0.0), 3.0),
    ("atan(x1)", (1.0, 0.0), np.pi / 4),
    ("-x1^2", (2.0, 0.0), -4.0),
])
def test_evaluation(source, point, expected):
    tree = expr.parse_expression(source, 2)
    value = expr.eval_field(tree, point, 0).value
    assert value == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("source", [
    "x1+2*x2",
    "-(x1+x2)",
    "x1^2*x2",
    "x1-(x2-1)",
    "(x1+x2)*(x1-x2)",
    "x1/(x2*x3)",
    "exp(x1)+2*x2+3*x3+x3^2",
    "2^-x1",
    "-x1^2",
    "x1^(x2+1)",
    "1/2*x1",
    "sqrt(1+atan(x2))",
])
def test_print_parse_round_trip(source):
    dim = 3
    tree = expr.parse_expression(source, dim)
    printed = expr.print_expression(tree)
    again = expr.parse_expression(printed, dim)
    assert expr.print_expression(again) == printed
    # same values at a test point
    p = (0.37, 0.21, 0.11)
    assert expr.eval_field(again, p, 0).value == pytest.approx(
        expr.eval_field(tree, p, 0).value, rel=1e-15)


def test_unary_minus_binds_looser_than_power():
    tree = expr.parse_expression("-x1^2", 1)
    assert expr.eval_field(tree, (3.0,), 0).value == -9.0


def test_power_is_right_associative_via_parens():
    t1 = expr.parse_expression("x1^(x2^2)", 2)
    v = expr.eval_field(t1, (2.0, 2.0), 0).value
    assert v == 16.0


@pytest.mark.parametrize("source, exc, offset", [
    ("x1+*x2", ExpressionSyntaxError, 3),
    ("", ExpressionSyntaxError, 0),
    ("(x1+x2", ExpressionSyntaxError, 6),
    ("x9+1", VariableOutOfRange, 0),
    ("x0", VariableOutOfRange, 0),
    ("foo(x1)", UnknownIdentifier, 0),
    ("sin", ArityError, 0),
    ("x1 $ x2", ExpressionSyntaxError, 3),
])
def test_errors_carry_offsets(source, exc, offset):
    with pytest.raises(exc) as err:
        expr.parse_expression(source, 2)
    assert err.value.offset == offset


def test_variables_respect_dimension():
    expr.parse_expression("x3", 3)
    with pytest.raises(VariableOutOfRange):
        expr.parse_expression("x3", 2)


def test_eval_field_produces_jets():
    tree = expr.parse_expression("x1*x2", 2)
    j = expr.eval_field(tree, (2.0, 5.0), 2)
    assert j.value == 10.0
    assert np.allclose(j.grad, [5.0, 2.0])
    assert coeff(j, (1, 1)) == 1.0


def test_constants_are_lifted():
    tree = expr.parse_expression("3.5", 2)
    j = expr.eval_field(tree, (0.1, 0.2), 2)
    assert j.value == 3.5
    assert np.all(j.coeffs[1:] == 0.0)


@pytest.mark.parametrize("p", [-3, -2, -1, 0, 1, 2, 3])
def test_small_integral_powers_are_product_chains(p):
    # binary powering gives the ascending chain 1*u*u*... for |p| <= 3,
    # up to the sign of zero (== equates -0.0 and 0.0)
    X = np.array([[0.3, -0.2], [0.0, 0.0], [-0.7, 0.4]])
    base = expr.parse_expression("x1+2*x2+0.5", 2)
    u = expr.eval_coeffs(base, X, 4)
    tb = jets._tables(2, 4)
    chain = np.zeros_like(u)
    chain[0] = 1.0
    for _ in range(abs(p)):
        chain = jets.coeff_mul(chain, u, tb)
    if p < 0:
        chain = jets.coeff_compose(
            chain, jets.SERIES["recip"](chain[0], 4), tb)
    tree = expr.parse_expression("(x1+2*x2+0.5)^%d" % p if p >= 0
                                 else "(x1+2*x2+0.5)^(%d)" % p, 2)
    assert (expr.eval_coeffs(tree, X, 4) == chain).all()


@pytest.mark.parametrize("source, offset", [
    ("(" * 101 + "x1" + ")" * 101, 100),
    ("-" * 101 + "x1", 100),
    ("+".join(["x1"] * 102), 299),
    ("exp(" * 101 + "x1" + ")" * 101, 400),
])
def test_nesting_deeper_than_the_bound_is_rejected(source, offset):
    with pytest.raises(ExpressionSyntaxError) as err:
        expr.parse_expression(source, 2)
    assert err.value.offset == offset
    # the deepest accepted nesting evaluates
    expr.eval_coeffs(expr.parse_expression("(" * 100 + "x1" + ")" * 100, 2),
                     np.zeros((1, 2)), 2)


@pytest.mark.parametrize("source, offset", [("1e999", 0), ("x1+2e400*x2", 3),
                                            ("x1^1e309", 3)])
def test_overflowing_literal_rejected(source, offset):
    with pytest.raises(ExpressionSyntaxError) as err:
        expr.parse_expression(source, 2)
    assert err.value.offset == offset
