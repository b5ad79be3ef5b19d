"""Batched Christoffel pipeline against the jet route.

`fastgamma` stays beside the tensor-shaped jet route because at one point
it is 24 to 34 times faster (see its module docstring), and `geodesic`
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

import ast
import glob
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

from conftest import (CORPUS_SOURCES, CURVED_FRAME_WEBS, EXP2Y, NODES,
                      PULLBACKS, SERIES_SOURCES, SHEARED, make_web, pull_back)
from oracles import defining_system


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
# Hessians, so the closed form's L and d_a d_b f_j terms are not zero; the
# sheared webs are where a fixed frame's maps sum several terms an entry
@pytest.mark.parametrize("name", sorted(CORPUS_SOURCES)
                         + list(CURVED_FRAME_WEBS) + list(SHEARED))
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
    expect = [expr.eval_field(web.functions[4], p, 0).value for p in pts]
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


def _refused_when_compiled(functions, text, monkeypatch):
    """Compiling the web's trees raises DomainError `text`, for no point in
    particular, and so does building its evaluator, before `_affine`
    walks a tree; from_strings does not run the load-time check of web
    files."""
    web = WebChart.from_strings(2, functions)
    monkeypatch.setattr(fastgamma, "_affine", None)
    for build in (lambda: expr.compile_program(web.functions),
                  lambda: [expr.eval_coeffs(f, np.array(ORDER_POINTS), 2)
                           for f in web.functions],
                  lambda: fastgamma.batched_gamma_evaluator(web)):
        with pytest.raises(DomainError) as err:
            build()
        assert (str(err.value), err.value.rows) == (text, None)


def test_constant_zero_divisor_raises_when_compiled(monkeypatch):
    # in f_{n+2}, and in the frame's f1 as well
    for functions in (["x1", "x2", "-(x1+x2)", "x1/(2-2)"],
                      ["x1/(2-2)", "x2", "-(x1+x2)", "x1/(2-2)"]):
        _refused_when_compiled(functions, "division by zero in x1/(2 - 2)",
                               monkeypatch)


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
    # an inverse, a solve or a least-squares fit by numpy.linalg counts;
    # the closed form needs no einsum either
    calls = {}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        return call

    for module, names in ((np.linalg, ("inv", "solve", "lstsq", "pinv")),
                          (np, ("einsum",))):
        for name in names:
            monkeypatch.setattr(module, name, counted(
                "%s.%s" % (module.__name__, name), getattr(module, name)))
    one = {"numpy.linalg.inv": 1}
    # mixed3's f_1..f_4 are affine: its frame is inverted once, when the
    # evaluator is built, and no call inverts or solves
    fast = fastgamma.batched_gamma_evaluator(make_web("mixed3"))
    assert calls == one
    calls.clear()
    fast(np.array([[0.05, 0.04, 0.03]]))
    fast(np.array([0.05, 0.04, 0.03]))
    assert calls == {}
    # a curved frame is inverted once per call
    for name in ("nodes", "pulled2"):
        fast = fastgamma.batched_gamma_evaluator(make_web(name))
        assert calls == {}
        fast(np.full((2, 2), 0.05))
        assert calls == one, name
        calls.clear()


def _private_numpy_paths(source):
    """The numpy paths that a module imports, or reads an attribute
    through, with a component that starts with `_`, or under numpy.core:
    internals that a numpy release may move without deprecation."""
    tree = ast.parse(source)
    bound, paths = {}, []           # local name -> the path it names
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                paths.append(alias.name)
                local = alias.asname or alias.name.split(".")[0]
                bound[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                paths.append(node.module + "." + alias.name)
                bound[alias.asname or alias.name] = paths[-1]
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.insert(0, node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in bound:
            paths.append(".".join([bound[node.id]] + attrs))
    parts = [path.split(".") for path in paths]
    return [".".join(p) for p in parts if p[0] == "numpy" and (
        p[1:2] == ["core"] or any(x.startswith("_") for x in p))]


def test_modules_use_public_numpy_only():
    package = os.path.dirname(fastgamma.__file__)
    found = {}
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path) as fh:
            private = _private_numpy_paths(fh.read())
        if private:
            found[os.path.basename(path)] = private
    assert found == {}


@pytest.mark.parametrize("source, private", [
    ("from numpy.linalg import _umath_linalg", True),
    ("from numpy._core.multiarray import c_einsum", True),
    ("from numpy.core.multiarray import c_einsum", True),
    ("import numpy.core.multiarray", True),
    ("import numpy as np\nnp.linalg._umath_linalg.inv", True),
    ("import numpy\ndef f():\n    return numpy.core", True),
    ("from numpy import linalg as la\nla._umath_linalg", True),
    ("import numpy as np\nfrom numpy.linalg import inv\nnp.linalg.inv", False)])
def test_private_numpy_paths_are_found(source, private):
    assert bool(_private_numpy_paths(source)) is private


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
    sin6 = make_web("sin6")
    calls.clear()
    extra_foliations(normalize_coframe(sin6, random_points(sin6, 4, seed=1),
                                      2), sin6)
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


# The frame of f_1..f_{n+1} (A, its inverse, lambda, the coframe, the
# frame and L) is computed once, when the evaluator is built, where those
# functions are affine, and per call elsewhere.  Both must give the same
# bits, raise the same errors with the same rows and texts, and take the
# same path through the checks.

PERF_WEBS = sorted(glob.glob(os.path.join(HERE, os.pardir, "perfbench",
                                          "webs", "*.json")))
FRAME_WEBS = {**{"perfbench-" + os.path.basename(p)[:-5]: p
                 for p in PERF_WEBS},
              **{name: name for name in [*sorted(CORPUS_SOURCES),
                                         *CURVED_FRAME_WEBS]}}


def _per_call(web):
    # the predicate sees nothing affine, so the frame is built per call
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fastgamma, "_affine", lambda node: False)
        return fastgamma.batched_gamma_evaluator(web)


def _outcome(fast, X):
    try:
        return "returned", fast(X)
    except DegenerateWebPoint as e:
        rows = np.atleast_1d(e.rows)
        return (type(e), str(e), rows.tolist(),
                [e.detail(b) for b in np.flatnonzero(rows)])


def _inverses_per_call(fast, X):
    calls = []
    real = np.linalg.inv
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "inv", lambda a: calls.append(1) or real(a))
        try:
            fast(X)
        except DegenerateWebPoint:
            pass
    return len(calls)


@pytest.mark.parametrize("name", list(FRAME_WEBS))
def test_hoisted_frame_equals_per_call_frame(name):
    source = FRAME_WEBS[name]
    web = (webfile.load_webfile(source) if source.endswith(".json")
           else make_web(source))
    fast, per_call = fastgamma.batched_gamma_evaluator(web), _per_call(web)
    # every web of the benchmark and the corpus has an affine frame
    curved = name in CURVED_FRAME_WEBS
    assert _inverses_per_call(fast, web.center) == curved
    # points near the domain ball, then far out, where some webs fail
    pts = np.concatenate((random_points(web, 7, seed=19),
                          web.center + 3.0 * np.eye(web.dim)[:2]))
    batches = [pts[:0], pts[:1], pts[:2], pts[:7], pts[5:9], *pts]
    for X in batches:
        got, want = _outcome(fast, X), _outcome(per_call, X)
        if want[0] == "returned":
            assert got[0] == "returned"
            assert got[1].shape == want[1].shape
            assert np.array_equal(got[1], want[1]), X
        else:
            assert got == want, X


# trees affine by form, among them one with no variable and one whose
# slope is past the float range
AFFINE = ["x1", "-(x1+x2)", "2*x1/3", "exp(0)*x1", "x1 - 3 + x2/2",
          "-(2^3)*(x1 - x2)", "0*x1", "(1e300*x1)*1e10", "2^3*x1", "-(2^3)"]

# trees with a constant that does not fold, or a divisor that folds to 0:
# the compiler refuses them, so no evaluator asks whether they are affine
UNDEFINED = "constant subexpression %s is not a finite real number"
REFUSED = {
    "x1/0": "division by zero in x1/0",
    "x1 + 1/0": UNDEFINED % "1/0",
    "x1*(1/0)": UNDEFINED % "1/0",
    "log(-1)": UNDEFINED % "log(-1)",
    "(1/0)^x1": UNDEFINED % "1/0",
    "exp(log(-1)*x1)": UNDEFINED % "log(-1)",
}


@pytest.mark.parametrize("source", AFFINE
                         + ["x1/0", "x1 + 1/0", "x1*(1/0)", "log(-1)"])
def test_affine_by_form(source, monkeypatch):
    if source in REFUSED:
        _refused_when_compiled([source, "x2", "-(x1+x2)", "x1+2*x2"],
                               REFUSED[source], monkeypatch)
    else:
        assert fastgamma._affine(expr.parse_expression(source, 2)) is True


@pytest.mark.parametrize("source", ["x1*x2", "x1^1", "x1*x2 - x1*x2",
                                    "2/x1", "exp(x1)", "x1 + log(x2)",
                                    "x1*(0*x1)", "(1/0)^x1",
                                    "exp(log(-1)*x1)"])
def test_not_affine_by_form(source, monkeypatch):
    if source in REFUSED:
        _refused_when_compiled([source, "x2", "-(x1+x2)", "x1+2*x2"],
                               REFUSED[source], monkeypatch)
    else:
        assert fastgamma._affine(expr.parse_expression(source, 2)) is False


def test_failing_frame_is_not_hoisted():
    # affine, but kappa_inf(A) overflows: each call inverts A, and the
    # singularity check inverts it again to name the singular coframe
    functions, start, _, text = GEODESIC_FAILURES[0]
    web = WebChart.from_strings(2, functions)
    assert all(map(fastgamma._affine, web.functions[:3]))
    fast = fastgamma.batched_gamma_evaluator(web)
    X = np.array([float(x) for x in start.split(",")])
    assert _inverses_per_call(fast, X) == 2
    for _ in range(2):
        with pytest.raises(DegenerateWebPoint) as err:
            fast(X)
        assert str(err.value) == text
    X = np.array([X, [0.3, -0.1]])
    assert _outcome(fast, X)[1:] == (text, [True, True], [
        text, text.replace("[0.1 0.2]", "[ 0.3 -0.1]")])


def test_frame_that_raises_is_not_hoisted():
    # building the frame raises at the center, where the gradient of f1
    # overflows; every call raises too, where the value of f1 overflows
    web = WebChart.from_strings(2, ["x1*1e308*10", "x2", "-(x1+x2)",
                                    "x1+2*x2"])
    assert fastgamma._affine(web.functions[0])
    fast = fastgamma.batched_gamma_evaluator(web)
    text = "non-finite value of x1*1e+308*10"
    X = np.array(ORDER_POINTS)
    for batch in (X, X[:1], X[0], X):
        assert _failure(lambda: fast(batch))[0] == text


# Every call runs the one program over all n + 2 functions, whether the
# frame is built once or per call, so the errors of f_1..f_{n+1} come
# first on both.

def _frame_web(name):
    source = FRAME_WEBS[name]
    return (webfile.load_webfile(source) if source.endswith(".json")
            else make_web(source))


def _trees_per_call(web, X):
    """The number of trees each program run of one call evaluates."""
    ran = []
    real = expr.compile_program

    def counting(nodes):
        nodes = tuple(nodes)
        program = real(nodes)

        def counted(X, order):
            ran.append(len(nodes))
            return program(X, order)

        def bare(X, order):
            ran.append(len(nodes))
            return program.__wrapped__(X, order)

        counted.__wrapped__ = bare
        return counted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expr, "compile_program", counting)
        fast = fastgamma.batched_gamma_evaluator(web)
    ran.clear()
    try:
        fast(X)
    except DegenerateWebPoint:
        pass
    return ran


@pytest.mark.parametrize("name", list(FRAME_WEBS))
def test_hoisted_call_runs_f_n_plus_2_alone(name):
    # f_{n+2} is read from the program over all n + 2 trees, on a fixed
    # frame as on a curved one
    web = _frame_web(name)
    for X in (web.center, random_points(web, 2, seed=29)):
        assert _trees_per_call(web, X) == [web.dim + 2]


# from |x| about 1e155 the squares of the coordinates overflow, and with
# them values of f_1..f_{n+1} on some webs here
FAR = [1e150, 1e155, 1e200, 1e308]


def _far_rows(n):
    rows = [s * d for s in FAR for d in (np.eye(n)[0], -np.ones(n) / n)]
    for bad in (np.inf, -np.inf, np.nan):
        x = np.zeros(n)
        x[-1] = bad
        rows.append(x)
    return rows


@pytest.mark.parametrize("name", list(FRAME_WEBS))
def test_hoisted_frame_equals_per_call_frame_past_the_guard(name):
    web = _frame_web(name)
    fast, per_call = fastgamma.batched_gamma_evaluator(web), _per_call(web)
    near = random_points(web, 3, seed=31)
    for x in _far_rows(web.dim):
        x = web.center + x
        for X in (x, x[None], np.insert(near, 2, x, axis=0)):
            got, want = _outcome(fast, X), _outcome(per_call, X)
            if want[0] == "returned":
                assert got[0] == "returned"
                assert got[1].shape == want[1].shape
                assert np.array_equal(got[1], want[1]), X
            else:
                assert got == want, X


# f_1 is x1 up to 1e-200 x2, but its program computes 1e200 x1 on the
# way, which overflows from |x1| about 1.8e108
STEEP_WEB = ["(1e200*x1 + x2)/1e200", "x2", "-(x1+x2)", "x1+2*x2+x1*x2"]


@pytest.mark.parametrize("x1", [1e100, 1.1e101, 1e108, 1e109])
def test_steep_frame_equals_per_call_frame(x1):
    web = WebChart.from_strings(2, STEEP_WEB)
    fast, per_call = fastgamma.batched_gamma_evaluator(web), _per_call(web)
    assert _inverses_per_call(fast, web.center) == 0
    X = np.array([[0.1, 0.2], [x1, 0.1]])
    got, want = _outcome(fast, X), _outcome(per_call, X)
    assert got == want
    if x1 > 1e108:
        text = ("non-finite value of "
                + expr.print_expression(web.functions[0]))
        assert want[1:] == (text, [False, True], [text])


def test_only_the_head_overflows():
    # at (1e308, 1e308) only f_3 overflows; f_4 is finite, and its row
    # alone would return
    web = WebChart.from_strings(
        2, ["x1", "x2", "-(x1+x2)", "atan(x1)+2*atan(x2)"])
    fast = fastgamma.batched_gamma_evaluator(web)
    assert _inverses_per_call(fast, web.center) == 0
    text = "non-finite value of -(x1 + x2)"
    x = np.array([1e308, 1e308])
    assert _failure(lambda: fast(x)) == (text, [True], {0: text})
    X = np.array([[0.1, 0.2], x, [0.2, -0.1]])
    assert _failure(lambda: fast(X)) == (text, [False, True, False],
                                         {1: text})
    assert _failure(lambda: _per_call(web)(X)) == _failure(lambda: fast(X))


# On an affine frame with A = (d_a f_i) other than I an entry of the fixed
# frame's maps sums several nonzero terms, so its last bits differ from the
# per-call chain's (1.5e-15 relative at most here), while each row's bits
# still do not depend on the batch: every row is its own product.

SHEARED_RTOL = 1e-13


def _sheared(name):
    web = make_web(name)
    n = web.dim
    A = [expr.eval_field(f, web.center, 1).derivatives().value
         for f in web.functions[:n]]
    assert not np.array_equal(A, np.eye(n))
    fast = fastgamma.batched_gamma_evaluator(web)
    # the frame is fixed: no inverse, and one program over n + 2 trees
    assert _inverses_per_call(fast, web.center) == 0
    assert _trees_per_call(web, web.center) == [n + 2]
    return web, fast


@pytest.mark.parametrize("name", list(SHEARED))
def test_sheared_rows_do_not_depend_on_the_batch(name):
    web, fast = _sheared(name)
    pts = random_points(web, 41, seed=37)
    batch = fast(pts)
    for b, point in enumerate(pts):
        assert np.array_equal(batch[b], fast(point)), b
        assert np.array_equal(batch[b], fast(point[None])[0]), b
    for b in range(0, 40, 2):
        assert np.array_equal(batch[b:b + 2], fast(pts[b:b + 2])), b
    assert np.array_equal(batch[:7], fast(pts[:7]))


@pytest.mark.parametrize("name", list(SHEARED))
def test_sheared_fixed_frame_agrees_with_per_call_frame(name):
    web, fast = _sheared(name)
    per_call = _per_call(web)
    # a sample, then points far out, where sheared-web4 excludes one
    far = web.center + 3.0 * np.eye(web.dim)
    for X in (random_points(web, 50, seed=41), far, *far):
        got, want = _outcome(fast, X), _outcome(per_call, X)
        if want[0] != "returned":
            assert got == want, X
            continue
        assert got[0] == "returned"
        got, want = (G.reshape(-1, web.dim ** 3) for G in (got[1], want[1]))
        assert (np.abs(got - want).max(axis=1)
                <= SHEARED_RTOL * np.abs(want).max(axis=1)).all(), X


# Gamma from the paper's defining equations (`oracles.defining_system`):
# one square linear system a point, which shares no code with either route

@pytest.mark.parametrize("name", [*FRAME_WEBS, *SHEARED, "exp2y"])
def test_routes_solve_the_defining_equations(name):
    web = _frame_web(name) if name in FRAME_WEBS else make_web(name)
    X = random_points(web, 20, seed=1)
    want = defining_system(web, X)[0].reshape(len(X), -1)
    scale = np.maximum(1.0, np.abs(want).max(axis=1))
    for got in (fastgamma.batched_gamma_evaluator(web)(X),
                canonical_structure(web, X, 2).conn.gamma_values()):
        err = np.abs(got.reshape(len(X), -1) - want).max(axis=1)
        assert (err <= 1e-13 * scale).all(), (err / scale).max()


# over all d foliations the system is overdetermined; its least-squares
# residual vanishes on the webs `check` calls geodesic, and on no other
@pytest.mark.parametrize("name, geodesic", [
    ("lin5", True), ("exp2y", True), ("pert5", False), ("sin6", False),
    ("cubic6", False), ("exp2y_bent", False), ("nodes", False)])
def test_least_squares_residual_agrees_with_check(name, geodesic):
    web = (webfile.load_webfile(os.path.join(os.path.dirname(EXP2Y),
                                             name + ".json"))
           if name == "exp2y_bent" else make_web(name))
    assert web.d > web.dim + 2
    residual = defining_system(web, random_points(web, 20, seed=1))[1].max()
    assert residual <= 1e-12 if geodesic else residual >= 1e-3
