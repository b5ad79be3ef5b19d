"""Batched Christoffel pipeline against the jet route.

`fastgamma` stays beside the tensor-shaped jet route because at one point
it is several times faster (see its module docstring), and `geodesic`
calls it one point at a time.  Both routes expand the web functions with
the one walk `expr.eval_coeffs`, so a batch column must equal the
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
from geoweb.errors import CoincidentInvariants, DegenerateWebPoint
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
