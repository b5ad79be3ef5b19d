"""A batch of points gives, row for row and bit for bit, what each point
gives alone: jet kernels, linear solves, verdict rows and table rows."""

import math
import re

import numpy as np
import pytest

from geoweb import connection, curvature, expr, invariants, jets
from geoweb.errors import DegenerateWebPoint, DomainError, batch_error
from geoweb.sampling import grid_points, random_points
from geoweb.web import WebChart, basis_invariants, projective_class

from conftest import CORPUS_SOURCES, make_web

# sampled at random points, excluded and kept rows interleave: x1 < -0.3
# is outside the domain of the log; x1 > ~1.28 overflows
EXCLUDING_WEBS = {
    "log": (2, ["x1", "x2", "-(x1+x2)", "log(x1+0.3)+x2"], (0.0, 0.0), 0.5),
    "overflow": (2, ["x1", "x2", "-(x1+x2)",
                     "x1+2*x2+x1*x2+exp(1000*(x1-0.8))"], (0.5, 0.0), 1.2),
}
# sampled on a 5x5 grid, whose lines hold the failing points of the checks:
# a singular coframe and a vanishing lambda (x1 = -1); a_1 vanishing
# (x2 = 0), a_2 vanishing (x1 = 0) and a_1 = a_2 = -x1 (x1 = x2); a
# division by zero (x1 = 0); coinciding invariants everywhere; finite web
# jets whose products overflow in the curvature code everywhere
GRID_WEBS = {
    "singular": (2, ["x1", "x1*x2+x2", "-(x1+x2)", "x1+2*x2+x1*x2"],
                 (-1.0, 0.0), 0.5),
    "vanishing": (2, ["x1", "x2", "-(x1+x2)", "x1*x2", "x1+3*x2+x1*x2"],
                  (0.0, 0.0), 0.5),
    "division": (2, ["x1", "x2", "-(x1+x2)", "x1+2*x2+x2/x1"],
                 (0.0, 0.0), 0.5),
    "parallel": (2, ["x1", "x2", "-(x1+x2)", "2*(x1+x2)"], (0.0, 0.0), 0.5),
    "huge": (2, ["x1", "x2", "-(x1+x2)", "x1+2*x2+1e200*x1^2*x2",
                 "x1+3*x2+x1*x2"], (0.5, 0.5), 0.5),
}


def excluding_web(name):
    dim, sources, center, radius = {**EXCLUDING_WEBS, **GRID_WEBS}[name]
    return WebChart.from_strings(dim, sources, center=center, radius=radius)


def sample(name):
    if name in EXCLUDING_WEBS:
        web = excluding_web(name)
        return web, random_points(web, 24, seed=3)
    if name in GRID_WEBS:
        web = excluding_web(name)
        return web, grid_points(web, 5)
    web = make_web(name)
    return web, random_points(web, 12, seed=8)


def row_fields(row):
    # NaN-safe field tuple: repr keeps the sign of zero and equates NaNs
    return (row.index, row.point.tolist(), row.status, repr(row.value),
            repr(row.scale), row.detail)


def one_by_one(test, web, points):
    rows = []
    for idx, pt in enumerate(points):
        (row,) = test(web, [pt]).rows
        row.index = idx
        rows.append(row)
    return rows


ALL_WEBS = sorted(CORPUS_SOURCES) + sorted(EXCLUDING_WEBS) + sorted(GRID_WEBS)


@pytest.mark.parametrize("name", ALL_WEBS)
def test_linearizability_rows_match_points(name):
    web, pts = sample(name)
    batch = curvature.linearizability_verdict(web, pts)
    alone = one_by_one(curvature.linearizability_verdict, web, pts)
    assert [row_fields(r) for r in batch.rows] == \
        [row_fields(r) for r in alone]
    for r in batch.rows:
        assert type(r.value) is float and type(r.scale) is float


@pytest.mark.parametrize("name", ALL_WEBS)
def test_geodesicity_rows_match_points(name):
    web, pts = sample(name)
    batch = invariants.geodesicity_test(web, pts)
    alone = one_by_one(invariants.geodesicity_test, web, pts)
    assert [row_fields(r) for r in batch.rows] == \
        [row_fields(r) for r in alone]


@pytest.mark.parametrize("name", ["lin5", "pert5", "log", "overflow",
                                  "vanishing", "parallel", "huge"])
def test_invariant_rows_match_points(name):
    web, pts = sample(name)
    if web.d == web.dim + 2:   # give the table a column of invariants
        web = WebChart(web.dim, web.functions + web.functions[-1:],
                       web.sources + web.sources[-1:], center=web.center,
                       radius=web.radius)
    _, batch = invariants.invariant_table(web, pts)
    alone = [invariants.invariant_table(web, [pt])[1][0][1:] for pt in pts]
    assert [[repr(c) for c in row[1:]] for row in batch] == \
        [[repr(c) for c in row] for row in alone]


def test_excluding_webs_interleave_exclusions():
    # the batch tests above only show that excluded rows are taken out of
    # a batch if excluded and ok rows alternate within one sample
    for name in EXCLUDING_WEBS:
        web, pts = sample(name)
        status = [r.status for r in
                  curvature.linearizability_verdict(web, pts).rows]
        changes = sum(a != b for a, b in zip(status, status[1:]))
        assert changes >= 4, (name, status)
    rows = curvature.linearizability_verdict(*sample("overflow")).rows
    assert any("non-finite" in r.detail for r in rows)


@pytest.mark.parametrize("name, details", [
    ("singular", {"coframe normalization is singular", "lambda_1 vanishes"}),
    ("vanishing", {"basis invariant a_1 of foliation 4 vanishes",
                   "basis invariant a_2 of foliation 4 vanishes",
                   "basis invariants a_1 and a_2 coincide"}),
    ("division", {"division by zero"}),
    ("parallel", {"basis invariants a_1 and a_2 coincide"}),
    ("huge", {"non-finite obstruction"}),
])
def test_grid_webs_fail_the_named_checks(name, details):
    web, pts = sample(name)
    rows = curvature.linearizability_verdict(web, pts).rows
    # the check's name: the detail up to the point or the value it names
    assert {re.split(r" at | \(", r.detail)[0] for r in rows
            if r.status != "ok"} == details


@pytest.mark.parametrize("name, calls", [
    ("log", 2), ("overflow", 3), ("parallel", 1), ("singular", 3),
    ("vanishing", 3)])
def test_excluded_points_cost_one_call_per_check(monkeypatch, name, calls):
    # the checks mark the points that fail them, so the excluded points of
    # a sample cost one batched call per check that fired, not one each
    seen = []
    real = curvature.canonical_structure

    def counting(web, X, order):
        seen.append(np.shape(X))
        return real(web, X, order)

    monkeypatch.setattr(curvature, "canonical_structure", counting)
    web, pts = sample(name)
    curvature.linearizability_verdict(web, pts)
    assert len(seen) == calls and all(len(s) == 2 for s in seen), seen


def test_linearize_normalizes_each_batch_once(monkeypatch):
    # on a web with d > n + 2 the geodesicity discrepancy comes from the
    # structures the obstruction is built from: one coframe a batch
    calls = []
    real = connection.normalize_coframe

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(connection, "normalize_coframe", counting)
    monkeypatch.setattr(invariants, "normalize_coframe", counting)
    web = make_web("lin5")
    curvature.linearizability_verdict(web, random_points(web, 20, seed=4))
    assert len(calls) == 1


def test_marked_rows_get_their_detail_without_a_call():
    points = np.arange(64, dtype=float).reshape(32, 2)
    calls = []

    def measure(X):
        calls.append(len(np.atleast_2d(X)))
        rows = np.atleast_2d(X)[:, 0] / 2
        for check in ({5, 6}, {30}):
            hit = np.isin(rows, sorted(check))
            if hit.any():
                raise batch_error(DegenerateWebPoint, hit,
                                  lambda b: "row %d" % rows[b])
        # a result that is not finite excludes its point by the result's name
        return rows, np.where(rows == 12, np.inf, rows + 1)

    out = invariants.map_sample(measure, points, 0, ["half", "next"])
    assert [detail for res, detail in out if res is None] == \
        ["row 5", "row 6", "non-finite next", "row 30"]
    assert [res for res, _ in out if res is not None] == \
        [[i, i + 1] for i in range(32) if i not in (5, 6, 12, 30)]
    assert calls == [32, 30, 29]


def test_variable_exponent_failure_marks_batch_rows():
    # at order 2 the exponent x2^3 - 1 has no derivative part where x2 = 0,
    # so those columns take the constant-exponent path (x1^-1, undefined at
    # x1 = 0) and the rest the exp(p log x1) path (undefined for x1 < 0); a
    # failure on either subset marks rows of the whole batch
    tree = expr.parse_expression("x1^(x2^3-1)", 2)
    X = np.array([[0.5, 0.0], [-0.5, 0.5], [0.3, 0.2], [-0.2, 0.7],
                  [0.0, 0.0], [0.4, 0.3]])
    with pytest.raises(DomainError) as err:
        expr.eval_coeffs(tree, X, 2)
    assert err.value.rows.tolist() == [False, True, False, True, False,
                                       False]
    for b in (1, 3):
        with pytest.raises(DomainError) as alone:
            expr.eval_coeffs(tree, X[b:b + 1], 2)
        assert err.value.detail(b) == str(alone.value)
    out = invariants.map_sample(
        lambda P: (expr.eval_coeffs(tree, P, 2)[0],), X, 2, ["value"])
    assert [detail or "ok" for _, detail in out] == [
        "ok", "log of non-positive value -0.5", "ok",
        "log of non-positive value -0.2", "division by zero", "ok"]


def test_tiny_constant_base_under_a_variable_exponent():
    # 1e-300^x1 is exp(x1 log 1e-300): the series of log at the constant
    # 1e-300 overflows (1/u0^2 = inf) and times the constant's zero
    # derivative part gave nan in every slot, so every point was excluded
    # as non-finite; the logarithm of a constant is now taken as a value
    web = WebChart.from_strings(
        2, ["x1", "x2", "-(x1+x2)", "x1+2*x2+1e-300^x1"],
        center=(0.5, 0.0), radius=0.4)
    pts = grid_points(web, 3)
    rep = curvature.linearizability_verdict(web, pts)
    assert [r.status for r in rep.rows] == ["ok"] * len(pts)
    assert rep.verdict == "linearizable"
    tree = web.functions[3]
    for order in range(5):
        batch = expr.eval_coeffs(tree, pts, order)
        assert np.isfinite(batch).all()
        for b, pt in enumerate(pts):
            assert batch[:, b].tobytes() == \
                expr.eval_field(tree, pt, order).coeffs.tobytes()
    with pytest.raises(DomainError, match="log of non-positive value -2"):
        expr.eval_coeffs(expr.parse_expression("(-2)^x1", 2), pts, 2)


def test_large_sample_runs_in_bounded_batches(monkeypatch):
    monkeypatch.setattr(invariants, "MAX_BATCH", 8)
    calls = []

    def measure(X):
        calls.append(len(X))
        return (X[:, 0],)

    points = np.arange(40, dtype=float).reshape(20, 2)
    out = invariants.map_sample(measure, points, 0, ["x1"])
    assert calls == [8, 8, 4]
    assert [res for res, _ in out] == [[x] for x in points[:, 0]]


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_coeff_mul_batch_columns_equal_point_products(dim, order):
    tb = jets._tables(dim, order)
    rng = np.random.default_rng(dim * 10 + order)
    a = rng.standard_normal((tb.count, 7))
    b = rng.standard_normal((tb.count, 7))
    a[:, 2] = 0.0     # a zero column: sums of signed zeros stay +0.0
    b[:, 3] *= -1e-300
    prod = jets.coeff_mul(a, b, tb)
    for col in range(7):
        point = jets.coeff_mul(a[:, col], b[:, col], tb)
        assert point.tobytes() == prod[:, col].tobytes()
    # a point jet, as a (count, 1) column, broadcasts against a batch
    mixed = jets.coeff_mul(a[:, 4, None], b, tb)
    for col in range(7):
        assert np.array_equal(mixed[:, col],
                              jets.coeff_mul(a[:, 4], b[:, col], tb))
    # a bare (count,) point against a batch is refused
    with pytest.raises(ValueError, match="ranks 1 and 2"):
        jets.coeff_mul(a[:, 4], b, tb)


def test_scatter_index_is_cached_with_the_tables():
    tb = jets._tables(3, 2)
    a = np.ones((tb.count, 5))
    jets.coeff_mul(a, a, tb)
    index = tb.scatter[5]
    jets.coeff_mul(a, 2 * a, tb)
    assert tb.scatter[5] is index
    assert jets._tables(3, 2).scatter is tb.scatter
    # only the last width is kept, so many sample sizes keep one index
    b = np.ones((tb.count, 7))
    jets.coeff_mul(b, b, tb)
    assert list(tb.scatter) == [7]


def test_linear_solve_pivots_each_column_alone():
    dim, order = 2, 3
    count = jets.n_coeffs(dim, order)
    rng = np.random.default_rng(4)
    width, m = 6, 3
    A = rng.standard_normal((m, m, count, width))
    b = rng.standard_normal((m, count, width))
    # each column gets its largest first-column entry in another row, and
    # column 5 a tie: no pivot choice since the solve inverts each column's
    # value part alone, but columns still unlike one another
    for col in range(width):
        A[:, 0, 0, col] = [0.1, 0.2, 0.3]
        A[col % m, 0, 0, col] = 5.0
    A[0, 0, 0, 5] = A[2, 0, 0, 5] = -5.0
    A[1, 0, 0, 5] = 1.0
    batch = jets.jet_linear_solve(
        [[jets.Jet(dim, order, A[r, c]) for c in range(m)] for r in range(m)],
        [jets.Jet(dim, order, b[r]) for r in range(m)])
    for col in range(width):
        point = jets.jet_linear_solve(
            [[jets.Jet(dim, order, A[r, c, :, col]) for c in range(m)]
             for r in range(m)],
            [jets.Jet(dim, order, b[r, :, col]) for r in range(m)])
        for xb, xp in zip(batch, point):
            assert xb.coeffs[:, col].tobytes() == xp.coeffs.tobytes()
    # a constant (point) right-hand side broadcasts against the batch
    ones = [jets.Jet.constant(1.0, dim, order) for _ in range(m)]
    mixed = jets.jet_linear_solve(
        [[jets.Jet(dim, order, A[r, c]) for c in range(m)] for r in range(m)],
        ones)
    assert mixed[0].coeffs.shape == (count, width)


def test_weyl_loop_leaves_riemann_values_alone():
    web = make_web("mixed3")
    pts = random_points(web, 5, seed=2)
    conn = connection.canonical_structure(web, pts, 3).conn
    R = curvature.riemann(conn)
    pack = curvature.projective_pack(conn)
    assert np.array_equal(pack.riemann, R.value)
    for b, pt in enumerate(pts):
        alone = curvature.projective_pack(
            connection.canonical_structure(web, pt, 3).conn)
        assert pack.scale()[b] == alone.scale()
        assert pack.obstruction_norm()[b] == alone.obstruction_norm()
        assert np.array_equal(pack.weyl[b], alone.weyl)


def test_structure_batch_columns_equal_points():
    web = make_web("curved4")
    pts = grid_points(web, 3)
    st = connection.canonical_structure(web, pts, 4)
    for b, pt in enumerate(pts):
        alone = connection.canonical_structure(web, pt, 4)
        for c in range(2):
            for a in range(2):
                for d in range(2):
                    assert np.array_equal(st.conn.gamma[c][a][d].coeffs[:, b],
                                          alone.conn.gamma[c][a][d].coeffs)
        assert np.array_equal(
            projective_class(basis_invariants(st.cof, web, 4).value)[b],
            projective_class(basis_invariants(alone.cof, web, 4).value))
    assert math.isfinite(float(st.conn.gamma_values().sum()))
