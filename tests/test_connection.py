"""Canonical Christoffels: spot values, symmetry, gauges and uniqueness."""

import numpy as np
import pytest

from geoweb import connection
from geoweb.errors import CoincidentInvariants
from geoweb.jets import directional_derivative, grid
from geoweb.sampling import random_points
from geoweb.web import basis_invariants, normalize_coframe

import oracles
from conftest import (CORPUS_SOURCES, CURVED_FRAME_WEBS,
                      bracket_structure_functions, frame_route, make_web,
                      monomials, poly_text)


def structure(name, point, order=3, t=None):
    return connection.canonical_structure(make_web(name), point, order, t=t)


def test_skew_invariant_spot_value():
    # documented hand computation for the xy-perturbed 4-web at the origin
    struct = structure("xy4", (0.0, 0.0))
    assert struct.theta[0][1].value == pytest.approx(2.0, abs=1e-9)


def test_skew_invariant_refuses_equal_indices():
    web = make_web("xy4")
    cof = normalize_coframe(web, np.array([0.05, -0.1]), 3)
    inv = basis_invariants(cof, web, 4)
    with pytest.raises(ValueError, match="needs distinct indices"):
        connection.skew_invariant(cof, inv, 1, 1)


def test_skew_invariant_antisymmetry():
    web = make_web("curved4")
    cof = normalize_coframe(web, (0.2, -0.1), order=3)
    inv = basis_invariants(cof, web, 4)
    s01 = connection.skew_invariant(cof, inv, 0, 1)
    s10 = connection.skew_invariant(cof, inv, 1, 0)
    assert np.array_equal(s01.coeffs, -s10.coeffs)


def test_coincident_invariants_raise():
    web = make_web("parallel2")
    # a = (-1,-2) everywhere; force coincidence with a crafted foliation
    from geoweb.web import WebChart
    bad = WebChart.from_strings(2, ["x1", "x2", "-(x1+x2)", "x1+x2+x1*x1"])
    cof = normalize_coframe(bad, (0.0, 0.0), order=3)
    inv = basis_invariants(cof, bad, 4)
    with pytest.raises(CoincidentInvariants):
        connection.skew_invariant(cof, inv, 0, 1)
    assert web.dim == 2


def test_frame_christoffels_spot_values():
    struct = structure("xy4", (0.0, 0.0))
    fg = struct.conn.frame_gamma
    assert fg[0][0][1].value == pytest.approx(-1.0, abs=1e-9)
    assert fg[0][1][0].value == pytest.approx(-1.0, abs=1e-9)
    assert fg[1][0][1].value == pytest.approx(1.0, abs=1e-9)
    assert fg[1][1][0].value == pytest.approx(1.0, abs=1e-9)


def test_coordinate_christoffels_symmetric():
    for name in ("xy4", "curved4", "mixed3", "pert5"):
        web = make_web(name)
        for point in random_points(web, 5, seed=23):
            struct = connection.canonical_structure(web, point)
            g = struct.conn.gamma_values()
            assert np.abs(g - g.transpose(0, 2, 1)).max() < 1e-12, name


def test_frame_torsion_matches_structure_functions():
    web = make_web("curved4")
    point = (0.12, 0.31)
    struct = connection.canonical_structure(web, point)
    c = bracket_structure_functions(struct.cof)[0]
    fg = struct.conn.frame_gamma
    n = web.dim
    for k in range(n):
        for i in range(n):
            for j in range(n):
                tors = fg[k][j][i].value - fg[k][i][j].value
                assert tors == pytest.approx(c[k][i][j].value, abs=1e-12)


def test_flat_web_connection_vanishes():
    for name in ("parallel2", "parallel3"):
        web = make_web(name)
        for point in random_points(web, 5, seed=5):
            g = connection.canonical_structure(web, point).conn.gamma_values()
            assert np.abs(g).max() < 1e-12


def test_gauge_change_round_trip():
    struct = structure("curved4", (0.1, 0.2))
    rho = np.array([0.37, -0.58])
    shifted = oracles.projective_gauge_change(struct.conn, rho)
    back = oracles.projective_gauge_change(shifted, -rho)
    assert np.allclose(back.gamma_values(), struct.conn.gamma_values(),
                       atol=1e-13)
    assert np.allclose(back.frame_gamma.coeffs,
                       struct.conn.frame_gamma.coeffs, atol=1e-13)


def test_gauge_change_shifts_trace():
    struct = structure("curved4", (0.1, 0.2))
    n = 2
    rho = np.array([0.4, -0.9])
    shifted = oracles.projective_gauge_change(struct.conn, rho)
    diff = shifted.gamma_values() - struct.conn.gamma_values()
    # contraction over the upper index recovers (n+1) rho_b
    trace = np.einsum("mmb->b", diff)
    assert np.allclose(trace, (n + 1) * rho, atol=1e-13)


def test_projective_uniqueness_under_t_gauge():
    web = make_web("curved4")
    point = (0.15, -0.2)
    plain = connection.canonical_structure(web, point)
    gauged = connection.canonical_structure(
        web, point, t=["0.3+0.5*x1-0.2*x2", "-0.1+0.7*x2"])
    same, rho, resid = oracles.projective_equivalence_check(
        plain.conn, gauged.conn)
    assert same and resid < 1e-9
    # recovered one-form undoes the difference
    undone = oracles.projective_gauge_change(plain.conn, rho)
    assert np.allclose(undone.gamma_values(), gauged.conn.gamma_values(),
                       atol=1e-12)


def test_inequivalent_connections_detected():
    a = structure("curved4", (0.15, -0.2))
    b = structure("xy4", (0.15, -0.2))
    same, _, resid = oracles.projective_equivalence_check(a.conn, b.conn)
    assert not same and resid > 1e-3


def test_equivalence_check_refuses_a_batch():
    web = make_web("curved4")
    pts = np.array([(0.15, -0.2), (0.1, 0.05)])
    conn = connection.canonical_structure(web, pts).conn
    with pytest.raises(ValueError, match="one point"):
        oracles.projective_equivalence_check(conn, conn)


def test_pointed_connection_matches_pointed_chart():
    web = make_web("lin5")
    web.pointed = 5
    point = (0.11, 0.07)
    struct = oracles.pointed_affine_connection(web, point)
    direct = connection.canonical_structure(oracles.pointed_chart(web),
                                            point)
    assert np.allclose(struct.conn.gamma_values(),
                       direct.conn.gamma_values(), atol=1e-14)


def test_gamma_values_at_order_two():
    web = make_web("xy4")
    g = connection.canonical_structure(web, (0.0, 0.0), 2).conn.gamma_values()
    assert g.shape == (2, 2, 2)
    assert g[0, 0, 1] == pytest.approx(-1.0, abs=1e-9)


# Two identities the closed form of both routes rests on, the first on the
# structure functions of conftest's frame bracket.  dw_k = d log lam_k ^ w_k
# makes the structure functions c[k][i][j] = w_k([e_i, e_j]) vanish unless
# k is i or j, with
# c[k][k][j] = D_j log lam_k; in the gauge t = 0 every frame vector is a
# geodesic, frame_gamma[k][p][p] = 0.  Each is held to 1e-12 of the
# largest coefficient of its array, over every coefficient of the jets; c
# is scaled by the coframe and frame derivatives it is built from too,
# since on `pulled3` lambda is constant and c is round-off alone.
SPARSITY_WEBS = sorted(CORPUS_SOURCES) + list(CURVED_FRAME_WEBS)


def _small(jet, scale):
    return np.abs(jet.coeffs).max() <= 1e-12 * scale


@pytest.mark.parametrize("name", SPARSITY_WEBS)
def test_structure_functions_are_log_lambda_derivatives(name):
    web = make_web(name)
    n = web.dim
    cof = connection.canonical_structure(
        web, random_points(web, 6, seed=211), 3).cof
    c, dframe = bracket_structure_functions(cof)
    scale = max(np.abs(c.coeffs).max(), np.abs(cof.omega.coeffs).max()
                * np.abs(dframe.coeffs).max())
    k, i, j = grid(n, 3)
    assert _small(c[np.nonzero((k != i) & (k != j))], scale)
    # dlog[j][k] = D_j log lam_k
    dlog = (directional_derivative(cof.lam[:n], cof.frame)
            / cof.lam[:n].truncate(cof.order - 1))
    k, j = np.nonzero(~np.eye(n, dtype=bool))
    assert _small(c[k, k, j] - dlog[j, k], scale)


@pytest.mark.parametrize("name", SPARSITY_WEBS)
def test_frame_vectors_are_geodesics_in_gauge_zero(name):
    web = make_web(name)
    fg = connection.canonical_structure(
        web, random_points(web, 6, seed=211), 3).conn.frame_gamma
    k, p = grid(web.dim, 2)
    assert _small(fg[k, p, p], np.abs(fg.coeffs).max())


@pytest.mark.parametrize("name", SPARSITY_WEBS)
@pytest.mark.parametrize("order", (3, 4))
@pytest.mark.parametrize("gauge", ("zero", "t"))
def test_closed_form_matches_frame_route(name, order, gauge):
    # the frame and coordinate symbols of the closed form against the
    # frame route, in the gauge t = 0 and in gauges drawn as in test_05
    web = make_web(name)
    t = None
    if gauge == "t":
        monos = monomials(web.dim)
        coefs = np.random.default_rng(55).uniform(
            -0.5, 0.5, size=(web.dim, len(monos)))
        t = [poly_text(row, monos) for row in coefs]
    struct = connection.canonical_structure(
        web, random_points(web, 6, seed=211), order, t=t)
    ref = frame_route(struct)
    for got, want in ((struct.conn.frame_gamma, ref.frame_gamma),
                      (struct.conn.gamma, ref.gamma)):
        scale = max(1.0, np.abs(want.coeffs).max())
        assert np.abs(got.coeffs - want.coeffs).max() <= 1e-12 * scale
