"""Batched Christoffel pipeline against the jet route.

`fastgamma` stays beside the tensor-shaped jet route because at one point
it is 6 to 9 times faster (0.18 / 0.20 / 0.21 ms against 1.1 / 1.5 /
2.0 ms on xy4 / mixed3 / web4, see its module docstring), and `geodesic`
calls it one point at a time.  Both routes expand the web functions with
the compiled programs of `expr`, so a batch column must equal the
per-point jet bit for bit.  They also share the degeneracy checks, the
skew-invariant formula and the frame-Christoffel mapping; only the linear
algebra differs (matrix calculus on values here, jet-level solves and
tensor contractions there), so agreement at round-off checks that part
alone.  The checks that do not rest on the shared
formulas are in `test_acceptance.py`: `test_02` (the defining foliations
are totally geodesic for the jet route's connection), `test_03`
(hand-derived spot values) and `test_09` (geodesics of this module's
Christoffels stay on the leaves they start tangent to).
"""

import numpy as np
import pytest

from geoweb import expr, fastgamma
from geoweb.connection import canonical_structure
from geoweb.errors import (CoincidentInvariants, DegenerateWebPoint,
                           DomainError)
from geoweb.sampling import random_points
from geoweb.web import WebChart

from conftest import CORPUS_SOURCES, SERIES_SOURCES, make_web


@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("source, point", SERIES_SOURCES)
def test_batch_column_equals_point_jet(source, point, order):
    tree = expr.parse_expression(source, 2)
    rng = np.random.default_rng(7)
    X = np.asarray(point) + rng.uniform(-0.1, 0.1, size=(5, 2))
    X[0] = point
    batch = expr.eval_coeffs(tree, X, order)
    for b in range(len(X)):
        single = expr.eval_field(tree, X[b], order).coeffs
        assert np.array_equal(batch[:, b], single), (source, order, b)


@pytest.mark.parametrize("name", sorted(CORPUS_SOURCES))
def test_matches_jet_route(name):
    web = make_web(name)
    fast = fastgamma.batched_gamma_evaluator(web)
    pts = random_points(web, 6, seed=101)
    batched = fast(pts)
    for b, point in enumerate(pts):
        slow = canonical_structure(web, point, 2).conn.gamma_values()
        assert np.allclose(batched[b], slow, rtol=1e-12, atol=1e-12)


def test_single_point_shape():
    web = make_web("xy4")
    fast = fastgamma.batched_gamma_evaluator(web)
    g = fast(np.array([0.0, 0.0]))
    assert g.shape == (2, 2, 2)
    assert g[0, 0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_batched_values_order_zero():
    web = make_web("mixed3")
    pts = random_points(web, 10, seed=5)
    vals = fastgamma.batched_values(web.functions[4], pts)
    expect = [web.eval_function(5, p, 0).value for p in pts]
    assert np.allclose(vals, expect, rtol=1e-15)


def test_batched_values_take_each_row_exponent():
    # an x-dependent exponent is constant within each row at order 0
    tree = expr.parse_expression("x1^x2", 2)
    pts = np.array([[1.5, 2.0], [1.5, 2.5], [-2.0, 3.0]])
    vals = fastgamma.batched_values(tree, pts)
    for b, point in enumerate(pts):
        assert vals[b] == expr.eval_field(tree, point, 0).value, b
    assert vals[2] == -8.0


def test_degenerate_batch_row_reported():
    web = WebChart.from_strings(
        2, ["x1", "x2", "-(x1+x2+x1*x2)", "x1+2*x2"])
    fast = fastgamma.batched_gamma_evaluator(web)
    pts = np.array([[0.1, 0.1], [0.0, -1.0]])
    with pytest.raises(DegenerateWebPoint) as err:
        fast(pts)
    # the failing row is marked and named, with the jet route's text
    assert err.value.rows.tolist() == [False, True]
    with pytest.raises(DegenerateWebPoint) as alone:
        canonical_structure(web, pts[1], 2)
    assert str(err.value) == err.value.detail(1) == str(alone.value)


def test_coincident_invariants_in_batch():
    web = WebChart.from_strings(
        2, ["x1", "x2", "-(x1+x2)", "x1+x2+x1*x1"])
    fast = fastgamma.batched_gamma_evaluator(web)
    pts = np.array([[0.2, 0.1], [0.0, 0.3], [0.0, 0.0]])
    with pytest.raises(CoincidentInvariants) as err:
        fast(pts)
    assert err.value.rows.tolist() == [False, True, True]
    with pytest.raises(CoincidentInvariants) as alone:
        canonical_structure(web, pts[2], 2)
    assert err.value.detail(2) == str(alone.value)


# Error contract of the compiled programs.  Texts and marked rows were
# recorded with the tree-walk evaluator they replace; each case goes
# through `expr.eval_coeffs` on a batch and through the evaluator.

ORDER_WEB = ["x1 + exp(800*x2)", "x2 + log(x1)", "-(x1+x2)", "x1+2*x2+x1*x2"]
ORDER_POINTS = [[0.5, 0.1], [-1.0, 1.0], [-1.0, 0.1], [0.5, 1.0]]
OVERFLOW = "non-finite value of x1 + exp(800*x2)"


def _failure(call):
    with pytest.raises(DomainError) as err:
        call()
    e = err.value
    return (str(e), e.rows.tolist(),
            {int(b): e.detail(int(b)) for b in np.flatnonzero(e.rows)})


def test_earlier_non_finite_function_wins():
    # f1 overflows at rows 1 and 3, f2 takes the log of -1 at rows 1 and 2
    web = WebChart.from_strings(2, ORDER_WEB)
    X = np.array(ORDER_POINTS)
    f1, f2 = web.functions[:2]
    assert _failure(lambda: expr.eval_coeffs(f1, X, 2)) == (
        OVERFLOW, [False, True, False, True], {1: OVERFLOW, 3: OVERFLOW})
    log = "log of non-positive value -1"
    assert _failure(lambda: expr.eval_coeffs(f2, X, 2)) == (
        log, [False, True, True, False], {1: log, 2: log})
    expected = _failure(lambda: expr.eval_coeffs(f1, X, 2))
    assert _failure(lambda: expr.compile_program(web.functions)(X, 2)) \
        == expected
    fast = fastgamma.batched_gamma_evaluator(web)
    assert _failure(lambda: fast(X)) == expected
    assert _failure(lambda: fast(X[1])) == (OVERFLOW, [True], {0: OVERFLOW})


def test_constant_zero_divisor_raises_at_evaluation():
    # from_strings does not run the load-time check of web files
    web = WebChart.from_strings(2, ["x1", "x2", "-(x1+x2)", "x1/(2-2)"])
    X = np.array(ORDER_POINTS)
    text = "division by zero in x1/(2 - 2)"
    expected = (text, [True] * 4, {b: text for b in range(4)})
    assert _failure(lambda: expr.eval_coeffs(web.functions[3], X, 2)) \
        == expected
    fast = fastgamma.batched_gamma_evaluator(web)
    assert _failure(lambda: fast(X)) == expected


def test_negative_base_under_variable_exponent():
    web = WebChart.from_strings(
        2, ["x1", "x2", "-(x1+x2)", "x1 + (x1 - 1)^x2"])
    X = np.array([[1.5, 0.5], [0.5, 0.5], [1.2, -0.3], [-2.0, 2.0]])
    tree = web.functions[3]
    half, three = ("log of non-positive value -0.5",
                   "log of non-positive value -3")
    expected = (half, [False, True, False, True], {1: half, 3: three})
    assert _failure(lambda: expr.eval_coeffs(tree, X, 2)) == expected
    # at order 0 the exponent of each row is a constant: (-3)^2 is fine
    assert _failure(lambda: expr.eval_coeffs(tree, X, 0)) == (
        half, [False, True, False, False], {1: half})
    fast = fastgamma.batched_gamma_evaluator(web)
    assert _failure(lambda: fast(X)) == expected
