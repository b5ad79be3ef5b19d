"""Coframe normalization, frame duality and basis invariants."""

import os
import re

import numpy as np
import pytest

from geoweb import jets, web as web_module
from geoweb.connection import canonical_structure
from geoweb.errors import DegenerateWebPoint, OrderExhausted
from geoweb.invariants import extra_foliations
from geoweb.sampling import random_points
from geoweb.web import (WebChart, basis_invariants, normalize_coframe,
                        pointed_chart, reorder_chart)
from geoweb.webfile import load_webfile

from conftest import make_web

# nonlinear third slot exercises a nontrivial lambda normalization
XY_SLOT3 = ["x1", "x2", "-(x1+x2+x1*x2)", "x1+2*x2"]


def test_lambda_values():
    web = WebChart.from_strings(2, XY_SLOT3)
    cof = normalize_coframe(web, (0.2, 0.3), order=3)
    # sum lambda_i df_i + df_3 = 0 with df_3 = -(1+x2, 1+x1)
    assert cof.lam[0].value == pytest.approx(1.3, rel=1e-14)
    assert cof.lam[1].value == pytest.approx(1.2, rel=1e-14)
    assert cof.lam[2].value == 1.0


def test_omega_sum_vanishes_as_jets():
    web = WebChart.from_strings(2, XY_SLOT3)
    cof = normalize_coframe(web, (0.1, -0.2), order=3)
    for a in range(web.dim):
        total = sum(cof.omega[i][a] for i in range(web.dim + 1))
        assert np.allclose(total.coeffs, 0.0, atol=1e-13)


def test_frame_coframe_duality():
    web = WebChart.from_strings(2, XY_SLOT3)
    cof = normalize_coframe(web, (0.15, 0.25), order=3)
    n = web.dim
    for i in range(n):
        for j in range(n):
            pair = sum(cof.omega[i][a] * cof.frame[j][a] for a in range(n))
            expect = np.zeros_like(pair.coeffs)
            expect[0] = 1.0 if i == j else 0.0
            assert np.allclose(pair.coeffs, expect, atol=1e-12)


def test_structure_functions_antisymmetric_with_spot_value():
    web = WebChart.from_strings(2, XY_SLOT3)
    cof = normalize_coframe(web, (0.0, 0.0), order=3)
    # E1 = d1/(1+x2), E2 = d2/(1+x1): [E1,E2] = E1 - E2 at the origin
    assert cof.c[0][0][1].value == pytest.approx(1.0, abs=1e-13)
    assert cof.c[1][0][1].value == pytest.approx(-1.0, abs=1e-13)
    for k in range(2):
        for i in range(2):
            for j in range(2):
                sym = cof.c[k][i][j].coeffs + cof.c[k][j][i].coeffs
                assert np.allclose(sym, 0.0, atol=1e-13)


def test_frame_derivative_scales_partial():
    web = WebChart.from_strings(2, XY_SLOT3)
    cof = normalize_coframe(web, (0.0, 0.5), order=3)
    f = web.eval_function(1, (0.0, 0.5), order=3)   # f = x1
    d = cof.frame_derivatives(f)[0]
    assert d.value == pytest.approx(1.0 / 1.5, rel=1e-13)


def test_basis_invariants_parallel_class():
    web = make_web("parallel2")
    cof = normalize_coframe(web, (0.07, -0.03), order=3)
    inv = basis_invariants(cof, web, 4)
    assert inv.a[0].value == pytest.approx(-1.0, rel=1e-13)
    assert inv.a[1].value == pytest.approx(-2.0, rel=1e-13)
    assert np.allclose(inv.projective_class(), [0.5, 1.0], atol=1e-13)


def test_basis_invariants_solve_the_expansion():
    web = make_web("curved4")
    point = (0.21, -0.13)
    cof = normalize_coframe(web, point, order=3)
    inv = basis_invariants(cof, web, 4)
    f4 = web.eval_function(4, point, order=3)
    n = web.dim
    for a in range(n):
        resid = sum(inv.a[i] * cof.omega[i][a].truncate(inv.a[i].order)
                    for i in range(n)) + f4.derivatives()[..., a]
        assert np.allclose(resid.coeffs, 0.0, atol=1e-12)


def test_degenerate_lambda_raises():
    web = WebChart.from_strings(2, XY_SLOT3)
    with pytest.raises(DegenerateWebPoint):
        normalize_coframe(web, (0.0, -1.0), order=2)


def test_vanishing_invariant_raises():
    web = WebChart.from_strings(
        3, ["x1", "x2", "x3", "-(x1+x2+x3)", "exp(x1)+2*x2+x3^2"])
    cof = normalize_coframe(web, (0.0, 0.0, 0.0), order=2)
    with pytest.raises(DegenerateWebPoint):
        basis_invariants(cof, web, 5)


def test_singular_rows_of_a_batch_read_as_alone():
    # an exactly singular matrix makes LAPACK fail the whole batch; every
    # row still gets the condition number it has at its point alone
    A = np.array([np.eye(2), [[1, 0.3], [0, 0]], [[1, 0.3], [0, 1e-13]],
                  np.zeros((2, 2)), [[np.nan, 0], [0, 1]]])
    X = np.arange(10.0).reshape(5, 2)
    with pytest.raises(DegenerateWebPoint) as err:
        web_module.coframe_inverse(A, X)
    assert err.value.rows.tolist() == [False, True, True, True, True]
    for b, kappa in ((1, "inf"), (2, "1.3e+13"), (3, "inf"), (4, "nan")):
        text = ("coframe normalization is singular at %s (condition number "
                "%s)" % (np.array2string(X[b]), kappa))
        assert err.value.detail(b) == text
        with pytest.raises(DegenerateWebPoint, match=r"^%s$" % re.escape(
                text)):
            web_module.coframe_inverse(A[b], X[b])
    assert np.array_equal(web_module.coframe_inverse(A[0], X[0]), np.eye(2))


def test_one_jet_solve_gives_frame_and_every_invariant(monkeypatch):
    # lambda, the frame and the basis invariants of every foliation come
    # from one solve with A = (d_a f_i)
    calls = []

    def counted(*args):
        calls.append(args)
        return jets.jet_linear_solve(*args)

    monkeypatch.setattr(web_module, "jet_linear_solve", counted)
    canonical_structure(make_web("mixed3"), (0.05, 0.04, 0.03), 3)
    assert len(calls) == 1
    sin6 = load_webfile(os.path.join(os.path.dirname(__file__), os.pardir,
                                     "perfbench", "webs", "sin6.json"))
    calls.clear()
    extra_foliations(sin6, random_points(sin6, 4, seed=1))
    assert len(calls) == 1


def test_low_order_rejected():
    web = make_web("parallel2")
    with pytest.raises(OrderExhausted):
        normalize_coframe(web, (0.0, 0.0), order=1)


def test_reorder_and_pointed_chart():
    web = WebChart.from_strings(2, XY_SLOT3, pointed=4)
    rot = reorder_chart(web, [2, 1, 3, 4])
    assert rot.sources[0] == "x2" and rot.sources[1] == "x1"
    pc = pointed_chart(web)
    # pointed foliation lands in the normalization slot n+1
    assert pc.sources[web.dim] == "x1+2*x2"
    assert pc.d == web.d
    default = pointed_chart(WebChart.from_strings(2, XY_SLOT3))
    assert default.sources[web.dim] == XY_SLOT3[web.dim]


@pytest.mark.parametrize("dim, sources, pointed, kw", [
    (1, ["x1", "x1", "x1"], None, {}),
    (2, ["x1", "x2", "x1+x2"], None, {}),
    (2, ["x1", "x2", "-(x1+x2)", "x1+2*x2"], 9, {}),
    (2, ["x1", "x2", "-(x1+x2)", "x1+2*x2"], None, {"radius": -1.0}),
    (2, ["x1", "x2", "-(x1+x2)", "x1+2*x2"], None, {"center": [0.0]}),
])
def test_chart_validation(dim, sources, pointed, kw):
    with pytest.raises(ValueError):
        WebChart.from_strings(dim, sources, pointed=pointed, **kw)
