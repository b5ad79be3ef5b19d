"""Totally-geodesic residuals, affine functions and geodesicity verdicts."""

import numpy as np
import pytest

from geoweb import connection, invariants
from geoweb.errors import DegenerateWebPoint
from geoweb.sampling import random_points
from geoweb.web import WebChart

import oracles
from conftest import make_web


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
    f = web.eval_function(4, (0.1, 0.1), 2)
    df = [f.derivatives()[..., a] for a in range(2)]
    resid = oracles.sym_covariant_differential(struct.conn, df)
    assert resid.norm < 1e-14


def test_zero_form_rejected():
    web = make_web("parallel2")
    struct = connection.canonical_structure(web, (0.0, 0.0))
    f = web.eval_function(1, (0.0, 0.0), 2)
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
    assert rep.vacuous
    assert any("n+2" in note or "vacuous" in note for note in rep.notes)


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
    return invariants.aggregate_rows("construction", rows, "geodesic",
                                     "not_geodesic")


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
