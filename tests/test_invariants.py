"""Totally-geodesic residuals, affine functions and geodesicity verdicts."""

import numpy as np
import pytest

from geoweb import connection, expr, invariants
from geoweb.errors import DegenerateWebPoint
from geoweb.sampling import random_points
from geoweb.web import WebChart

import oracles
from conftest import make_web, pull_back


def test_defining_foliations_have_tiny_residuals():
    for name in ("xy4", "curved4", "mixed3"):
        web = make_web(name)
        for point in random_points(web, 4, seed=31):
            struct = connection.canonical_structure(web, point)
            for k in range(1, web.dim + 3):
                _, residual, scale = oracles.foliation_residual(
                    web, k, struct.conn)
                assert residual <= 1e-10 * scale, (name, k)


def test_non_geodesic_foliation_flagged():
    web = make_web("pert5")
    point = (0.3, 0.2)
    struct = connection.canonical_structure(web, point)
    _, residual, scale = oracles.foliation_residual(web, 5, struct.conn)
    assert residual >= 1e-3 * scale


def test_geodesic_extra_foliation_passes():
    web = make_web("lin5")
    point = (0.3, 0.2)
    struct = connection.canonical_structure(web, point)
    _, residual, scale = oracles.foliation_residual(web, 5, struct.conn)
    assert residual <= 1e-10 * scale


def test_sym_covariant_differential_flat_case():
    web = make_web("parallel2")
    struct = connection.canonical_structure(web, (0.1, 0.1))
    f = expr.eval_field(web.functions[3], (0.1, 0.1), 2)
    df = [f.derivatives()[..., a] for a in range(2)]
    resid = oracles.sym_covariant_differential(struct.conn, df)
    assert resid.norm < 1e-14


def test_zero_form_rejected():
    web = make_web("parallel2")
    struct = connection.canonical_structure(web, (0.0, 0.0))
    f = expr.eval_field(web.functions[0], (0.0, 0.0), 2)
    zero = [f.derivatives()[..., a] * 0.0 for a in range(2)]
    with pytest.raises(oracles.ZeroForm):
        oracles.totally_geodesic_residual(struct.conn, zero)


def test_pointed_function_is_affine():
    web = make_web("xy4")
    web.pointed = 4
    point = (0.1, -0.05)
    struct = oracles.pointed_affine_connection(web, point)
    fsrc = web.sources[3]
    assert oracles.affine_function_residual(struct.conn, fsrc) < 1e-12


def test_affine_residual_scaling_invariance():
    # f -> a f + b keeps the pointed connection and stays affine
    base = WebChart.from_strings(
        2, ["x1", "x2", "-(x1+x2)", "x1+2*x2+x1*x2"], pointed=4)
    scaled = WebChart.from_strings(
        2, ["x1", "x2", "-(x1+x2)", "2.5*(x1+2*x2+x1*x2)-0.7"], pointed=4)
    point = (0.12, 0.08)
    g1 = oracles.pointed_affine_connection(base, point).conn.gamma_values()
    g2 = oracles.pointed_affine_connection(
        scaled, point).conn.gamma_values()
    assert np.abs(g1 - g2).max() < 1e-12


def test_classify_thresholds():
    assert invariants.classify(1e-9, 1.0) == "pass"
    assert invariants.classify(0.5, 1.0) == "fail"
    assert invariants.classify(1e-5, 1.0) == "inconclusive"


def test_geodesicity_verdicts():
    lin5, pert5 = make_web("lin5"), make_web("pert5")
    pts = random_points(lin5, 8, seed=3)
    ok = invariants.geodesicity_test(lin5, pts)
    assert ok.verdict == "geodesic"
    assert ok.max_value <= 1e-8
    bad = invariants.geodesicity_test(pert5, pts)
    assert bad.verdict == "not_geodesic"
    assert bad.max_value >= 1e-3


def test_geodesicity_vacuous_for_minimal_webs():
    web = make_web("xy4")
    rep = invariants.geodesicity_test(web, random_points(web, 3, seed=1))
    assert rep.verdict == "geodesic"
    assert rep.notes == ["d = n+2: geodesic by construction, no comparisons"]


def test_excluded_points_force_inconclusive():
    web = WebChart.from_strings(
        2, ["x1", "x2", "-(x1+x2+x1*x2)", "x1+2*x2", "x1+3*x2"])
    pts = [(0.0, -1.0), (0.2, -1.0), (0.4, -1.0), (0.1, 0.1), (0.2, 0.0)]
    rep = invariants.geodesicity_test(web, pts)
    assert rep.verdict == "inconclusive"
    assert rep.excluded_fraction == pytest.approx(0.6)
    statuses = {row.status for row in rep.rows}
    assert statuses == {"ok", "degenerate"}


def construction_residual_report(web, points, order=3):
    """Totally-geodesic residuals of the defining n+2 foliations, the
    by-construction check of the canonical connection, a row per point
    with its worst residual over scale: 'geodesic' when every foliation
    passes at every point."""
    rows = []
    for idx, pt in enumerate(points):
        pt = np.asarray(pt, dtype=float)
        try:
            st = connection.canonical_structure(web, pt, order)
            worst = 0.0
            for k in range(1, web.dim + 3):
                _, resid, scale = oracles.foliation_residual(web, k,
                                                             st.conn)
                worst = max(worst, resid / scale)
            rows.append(invariants.PointRow(idx, pt, "ok", worst, 1.0))
        except DegenerateWebPoint as e:
            rows.append(invariants.PointRow(idx, pt, "degenerate",
                                            detail=str(e)))
    return invariants.aggregate_rows(rows, "geodesic", "not_geodesic")


def test_construction_report_all_corpus(corpus):
    for name, web in corpus.items():
        pts = random_points(web, 5, seed=77)
        rep = construction_residual_report(web, pts)
        assert rep.verdict == "geodesic", name
        assert rep.max_value <= 1e-8, name


def test_rows_are_indexed_in_order():
    web = make_web("pert5")
    pts = random_points(web, 6, seed=13)
    rep = invariants.geodesicity_test(web, pts)
    assert [row.index for row in rep.rows] == list(range(len(pts)))


# The `invariants` columns under web equivalence, at 20 random points of
# two benchmark webs and the exp2y web.  Replacing f_k by phi(f_k) for a
# monotone phi keeps every foliation, and so every a-class and every s
# column, except that the s columns scale by 1 / phi'(f_{n+1}): they are
# relative invariants of weight -1 in the marked function f_{n+1}.  Pulled
# back by a diffeomorphism psi, the web's columns at p are the original's
# at psi(p).  Measured misses: at most 3.4e-15 and 2.1e-15.
LAW_WEBS = ("sin6", "cubic6", "exp2y")
PHIS = {"exp(%s)": np.exp, "3*(%s)+1": lambda f: np.full_like(f, 3.0),
        "(%s)+(%s)^3": lambda f: 1 + 3 * f * f}
PSI = ["(x1+0.3*x2^2)", "(x2+0.2*x1*x2)"]


def _table(web, points):
    # the value columns' names and an array (points, columns), every point
    # evaluated
    columns, rows = invariants.invariant_table(web, points)
    n = web.dim
    assert all(row[n + 1] == "ok" for row in rows)
    return columns, np.array([row[n + 2:-1] for row in rows], dtype=float)


def _relative_miss(got, want):
    # relative to each column's scale, max(1, |entries|) as for the
    # geodesicity discrepancy: an s column of a linear foliation on a flat
    # frame is 0 and some entries are small
    scale = np.maximum(1.0, np.abs(want).max(axis=0))
    return float((np.abs(got - want) / scale).max())


@pytest.mark.parametrize("name", LAW_WEBS)
def test_invariant_columns_under_reparametrization(name):
    web = make_web(name)
    n = web.dim
    points = random_points(web, 20, seed=5)
    columns, plain = _table(web, points)
    skew = np.array([c.startswith("s") for c in columns])
    f_marked = expr.eval_coeffs(web.functions[n], points, 0)[0]
    for k in range(web.d):
        for text, dphi in PHIS.items():
            sources = list(web.sources)
            sources[k] = text.replace("%s", sources[k])
            moved = WebChart.from_strings(n, sources, center=web.center,
                                          radius=web.radius)
            _, values = _table(moved, points)
            if k == n:
                # the weight shows: unscaled, the s columns move
                assert _relative_miss(values, plain) >= 1e-3, text
                values[:, skew] *= dphi(f_marked)[:, None]
            assert _relative_miss(values, plain) <= 1e-13, (k, text)


@pytest.mark.parametrize("name", LAW_WEBS)
def test_invariant_columns_under_pullback(name):
    web = make_web(name)
    n = web.dim
    subst = PSI + ["x%d" % (a + 1) for a in range(2, n)]
    pulled = WebChart.from_strings(n, pull_back(web.sources, subst),
                                   center=web.center, radius=web.radius)
    points = random_points(pulled, 20, seed=5)
    moved = points.copy()
    moved[:, 0] = points[:, 0] + 0.3 * points[:, 1] ** 2
    moved[:, 1] = points[:, 1] + 0.2 * points[:, 0] * points[:, 1]
    _, values = _table(pulled, points)
    _, plain = _table(web, moved)
    assert _relative_miss(values, plain) <= 1e-12
