"""Batched Christoffel pipeline against the jet route.

`fastgamma` stays beside the tensor-shaped jet route because at one point
it is 8 to 14 times faster (see its module docstring), and `geodesic`
calls it on two RK4 stage points at a time, whose rows
`test_batch_rows_equal_single_points` holds to the values of the points
alone.  Both routes expand the web functions with the compiled programs
of `expr`, so a batch column must equal the per-point jet bit for bit.
They also share the degeneracy checks and the skew-invariant formula, and
both factor A = (d_a f_i) once and take lambda, the frame and the basis
invariants from its inverse.  From there they part: the jet route builds
structure functions and frame Christoffels and carries them to
coordinates through tensor contractions of Taylor coefficients, while
`fastgamma` uses a closed form in A^-1, the Hessians and the derivatives
of lambda.  So `test_matches_jet_route` cross-checks two formulas; its
curved-frame webs are the ones where every term of the closed form is
non-zero.  `test_christoffels_obey_transformation_law` needs no second
route: it holds each route to the transformation law of a connection
under hand-written coordinate changes.  The other checks that do not rest
on the shared formulas are in `test_acceptance.py`: `test_02` (the
defining foliations are totally geodesic for the jet route's connection),
`test_03` (hand-derived spot values) and `test_09` (geodesics of this
module's Christoffels stay on the leaves they start tangent to).
"""

import json
import os

import numpy as np
import pytest

from geoweb import cli, expr, fastgamma, webfile
from geoweb.connection import canonical_structure
from geoweb.errors import (CoincidentInvariants, DegenerateWebPoint,
                           DomainError)
from geoweb.invariants import extra_foliations
from geoweb.sampling import random_points
from geoweb.web import WebChart, normalize_coframe

from conftest import (CORPUS_SOURCES, CURVED_FRAME_WEBS, NODES, PULLBACKS,
                      SERIES_SOURCES, make_web, pull_back)


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


# the curved-frame webs are where lambda varies and f_1..f_n have
# Hessians, so the closed form's L and d_a d_b f_j terms are not zero
@pytest.mark.parametrize("name", sorted(CORPUS_SOURCES)
                         + list(CURVED_FRAME_WEBS))
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


# `geodesics.integrate_geodesic` evaluates two RK4 stages in one call, so
# every row of a batch must be its point's value alone, bit for bit; the
# benchmark webs have A = I, nodes.json does not
HERE = os.path.dirname(__file__)
ROW_WEBS = [os.path.join(HERE, os.pardir, "perfbench", "webs", name + ".json")
            for name in ("xy4", "mixed3", "web4")] + [NODES]


@pytest.mark.parametrize("path", ROW_WEBS, ids=os.path.basename)
def test_batch_rows_equal_single_points(path):
    web = webfile.load_webfile(path)
    fast = fastgamma.batched_gamma_evaluator(web)
    pts = random_points(web, 204, seed=11)
    for rows in (*pts[:200].reshape(-1, 2, web.dim), pts[-6:]):
        batch = fast(rows)
        for b, point in enumerate(rows):
            assert np.array_equal(batch[b], fast(point)), (point, b)


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


# Transformation law.  Pulling a web back by x = psi(y) (text substitution
# in its functions) pulls its canonical connection back:
#   Gamma'^c_ab(y) = (J^-1)^c_k (Gamma^k_ij(x) J^i_a J^j_b + d_a d_b psi^k)
# with J^k_a = d_a psi^k.  Each map comes as the substitutes for x1.. of
# `conftest.PULLBACKS` and a function of y giving x, J and the second
# derivatives, written by hand.


def _psi2(y):
    y1, y2 = y
    x = np.array([y1 + 0.3 * y2 ** 2, y2 + 0.2 * y1 * y2])
    jac = np.array([[1.0, 0.6 * y2],
                    [0.2 * y2, 1.0 + 0.2 * y1]])
    hess = np.zeros((2, 2, 2))
    hess[0, 1, 1] = 0.6
    hess[1, 0, 1] = hess[1, 1, 0] = 0.2
    return x, jac, hess


def _psi3(y):
    y1, y2, y3 = y
    x = np.array([y1 + 0.2 * y2 * y3, y2 + 0.3 * y1 ** 2,
                  y3 + 0.1 * y1 * y2 + 0.2 * y3 ** 2])
    jac = np.array([[1.0, 0.2 * y3, 0.2 * y2],
                    [0.6 * y1, 1.0, 0.0],
                    [0.1 * y2, 0.1 * y1, 1.0 + 0.4 * y3]])
    hess = np.zeros((3, 3, 3))
    hess[0, 1, 2] = hess[0, 2, 1] = 0.2
    hess[1, 0, 0] = 0.6
    hess[2, 0, 1] = hess[2, 1, 0] = 0.1
    hess[2, 2, 2] = 0.4
    return x, jac, hess


def _jet_route(web):
    return lambda X: canonical_structure(web, X, 2).conn.gamma_values()


# besides the `nodes` golden, the pulled-back webs are where the jet route
# meets A = (d_a f_i) other than the identity
@pytest.mark.parametrize("route", [fastgamma.batched_gamma_evaluator,
                                   _jet_route], ids=["fastgamma", "jets"])
@pytest.mark.parametrize("n, sources, subst, psi", [
    (*PULLBACKS["pulled2"], _psi2), (*PULLBACKS["pulled3"], _psi3)])
def test_christoffels_obey_transformation_law(n, sources, subst, psi, route):
    gamma, pulled_gamma = (route(WebChart.from_strings(n, f))
                           for f in (sources, pull_back(sources, subst)))
    Y = np.random.default_rng(3).uniform(-0.2, 0.2, size=(8, n))
    got = pulled_gamma(Y)
    for b, y in enumerate(Y):
        x, J, d2psi = psi(y)
        inner = np.einsum("kij,ia,jb->kab", gamma(x), J, J) + d2psi
        want = np.einsum("ck,kab->cab", np.linalg.inv(J), inner)
        assert np.abs(got[b] - want).max() <= 1e-12 * np.abs(want).max(), b


def test_one_inverse_and_no_solve_per_call(monkeypatch):
    # the closed form needs no einsum either
    fast = fastgamma.batched_gamma_evaluator(make_web("mixed3"))
    calls = {"inv": 0, "solve": 0, "einsum": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in calls:
        module = np if name == "einsum" else np.linalg
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    fast(np.array([[0.05, 0.04, 0.03]]))
    assert calls == {"inv": 1, "solve": 0, "einsum": 0}


def test_one_inverse_per_jet_route_structure(monkeypatch):
    # the jet route takes the one inverse of A at the values and lifts it
    calls = []
    real = np.linalg.inv

    def counted(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    canonical_structure(make_web("mixed3"), (0.05, 0.04, 0.03), 3)
    assert calls == [(3, 3)]
    sin6 = webfile.load_webfile(os.path.join(
        os.path.dirname(__file__), os.pardir, "perfbench", "webs",
        "sin6.json"))
    calls.clear()
    extra_foliations(sin6, random_points(sin6, 4, seed=1))
    assert calls == [(4, 2, 2)]


# A = (d_a f_i) of this web is [[1, x2], [0, 1 + x1]]: singular on x1 = -1,
# with kappa_inf(A) about 1.3 / (1 + x1) at x2 = 0.3 near it
SINGULAR_WEB = ["x1", "x1*x2+x2", "-(x1+x2)", "x1+2*x2+x1*x2+x1^2"]


@pytest.mark.parametrize("x1, text", [
    (-1 + 1e-13, "coframe normalization is singular at [-1.   0.3] "
                 "(condition number 1.3e+13)"),
    (-1.0, "coframe normalization is singular at [-1.   0.3] "
           "(condition number inf)"),
    (-1 + 1e-10, None),
], ids=["near", "exact", "evaluated"])
def test_both_routes_exclude_a_singular_coframe_alike(tmp_path, capsys, x1,
                                                      text):
    web = WebChart.from_strings(2, SINGULAR_WEB)
    X = np.array([[0.1, 0.2], [x1, 0.3], [0.2, -0.1]])
    path = tmp_path / "web.json"
    path.write_text(json.dumps({"dimension": 2, "functions": SINGULAR_WEB,
                                "domain": {"center": [0, 0], "radius": 0.5}}))
    argv = ["geodesic", str(path), "--from=%r,0.3" % x1, "--leaf", "4"]
    routes = (lambda P: normalize_coframe(web, P, 2),
              fastgamma.batched_gamma_evaluator(web))
    if text is None:
        for route in routes:
            route(X[1])
            route(X)
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        return
    for route in routes:
        with pytest.raises(DegenerateWebPoint) as err:
            route(X[1])
        assert str(err.value) == text
        with pytest.raises(DegenerateWebPoint) as err:
            route(X)
        assert str(err.value) == text
        assert err.value.rows.tolist() == [False, True, False]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        "geoweb: computation failed: geodesic left the admissible set near "
        "t=0: %s\n" % text)


# `geodesic` failing at its start point.  The last two texts were recorded
# when the evaluator still solved with A, W and W^T in turn; inverting only
# A must print the same
GEODESIC_FAILURES = [
    # |A|_inf overflows: kappa is inf, with no overflow warning
    (["1e308*(x1+x2)", "x2", "-(x1+x2)", "x1+2*x2+x1*x2"], "0.1,0.2", "4",
     "coframe normalization is singular at [0.1 0.2] (condition number "
     "inf)"),
    (["x1", "x2", "-(x1+x2+x1*x2)", "x1+2*x2"], "0,-1", "4",
     "lambda_1 vanishes at [ 0. -1.]"),
    (["x1", "x2", "-(x1+x2)", "x1+x2^2"], "0.1,0", "1",
     "basis invariant a_2 of foliation 4 vanishes at [0.1 0. ]"),
]


@pytest.mark.parametrize("functions, start, leaf, text", GEODESIC_FAILURES)
def test_geodesic_failure_texts(tmp_path, capsys, functions, start, leaf,
                                text):
    path = tmp_path / "web.json"
    path.write_text(json.dumps({"dimension": 2, "functions": functions,
                                "domain": {"center": [0, 0], "radius": 0.5}}))
    assert cli.main(["geodesic", str(path), "--from=" + start,
                     "--leaf", leaf]) == 1
    assert capsys.readouterr().err == (
        "geoweb: computation failed: geodesic left the admissible set near "
        "t=0: %s\n" % text)
