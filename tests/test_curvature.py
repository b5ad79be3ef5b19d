"""Curvature tensors, projective obstructions and linearizability."""

import os

import numpy as np
import pytest

from geoweb import connection, curvature
from geoweb.connection import extra_foliations
from geoweb.errors import DegenerateWebPoint, OrderExhausted
from geoweb.expr import eval_field, parse_expression
from geoweb.sampling import random_points
from geoweb.web import normalize_coframe
from geoweb.webfile import load_webfile

import oracles
from conftest import EXP2Y, make_web
from fdtools import partial_fd


def _pack(name, point, order=None):
    web = make_web(name)
    if order is None:
        order = 4 if web.dim == 2 else 3
    struct = connection.canonical_structure(web, point, order=order)
    return curvature.projective_pack(struct.conn)


def test_flat_webs_have_zero_curvature():
    for name in ("parallel2", "parallel3"):
        web = make_web(name)
        for point in random_points(web, 4, seed=9):
            pack = _pack(name, point)
            assert np.abs(pack.riemann).max() < 1e-12
            assert pack.obstruction_norm() < 1e-12


def test_riemann_antisymmetry_in_last_pair():
    web = make_web("curved4")
    struct = connection.canonical_structure(web, (0.2, -0.1), order=4)
    R = curvature.riemann(struct.conn)
    n = web.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    s = R[i][j][k][l].coeffs + R[i][j][l][k].coeffs
                    assert np.allclose(s, 0.0, atol=1e-13)


def test_riemann_matches_finite_differences():
    web = make_web("curved4")
    point = np.array([0.2, -0.1])
    struct = connection.canonical_structure(web, point, order=3)
    R = curvature.riemann(struct.conn)
    n = web.dim

    def ev(y):
        return connection.canonical_structure(web, y, 2).conn.gamma_values()

    g0 = ev(point)
    dg = np.empty((n, n, n, n))        # dg[c,a,b,k] = d_k Gamma^c_ab
    for c in range(n):
        for a in range(n):
            for b in range(n):
                for k in range(n):
                    alpha = [0] * n
                    alpha[k] = 1
                    dg[c, a, b, k] = partial_fd(
                        lambda y: ev(y)[c, a, b], point, alpha)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    fd = dg[i, l, j, k] - dg[i, k, j, l]
                    for m in range(n):
                        fd += g0[i, k, m] * g0[m, l, j] \
                            - g0[i, l, m] * g0[m, k, j]
                    assert R[i][j][k][l].value == pytest.approx(
                        fd, rel=2e-6, abs=2e-6)


def test_curved_web_is_obstructed():
    pack = _pack("curved4", (0.25, 0.2))
    assert np.abs(pack.riemann).max() > 0.5
    assert pack.obstruction_norm() >= 1e-3 * pack.scale()


def test_weyl_is_trace_free():
    pack = _pack("mixed3", (0.1, -0.1, 0.2))
    trace = np.einsum("ijil->jl", pack.weyl)
    assert np.abs(trace).max() < 1e-12


def test_cotton_antisymmetry():
    pack = _pack("curved4", (0.3, 0.1))
    assert np.allclose(pack.cotton, -pack.cotton.transpose(0, 2, 1),
                       atol=1e-15)


@pytest.mark.parametrize("name, point", [
    ("curved4", (0.25, 0.2)),
    ("mixed3", (0.15, -0.1, 0.2)),
])
def test_obstruction_is_projectively_invariant(name, point):
    web = make_web(name)
    order = 4 if web.dim == 2 else 3
    struct = connection.canonical_structure(web, point, order=order)
    base = curvature.projective_pack(struct.conn)
    rho_sources = ["0.4-0.3*x1+0.2*x2", "-0.2+0.1*x1*x1"]
    rho = [eval_field(parse_expression(s, web.dim), point, order - 2)
           for s in rho_sources[:web.dim]] \
        + [eval_field(parse_expression("0.1", web.dim), point, order - 2)
           for _ in range(web.dim - 2)]
    gauged = oracles.projective_gauge_change(struct.conn, rho)
    moved = curvature.projective_pack(gauged)
    obs_a = base.weyl if base.weyl is not None else base.cotton
    obs_b = moved.weyl if moved.weyl is not None else moved.cotton
    assert np.allclose(obs_a, obs_b, atol=1e-10)
    # the Riemann tensor itself is not invariant; only the obstruction is
    assert np.abs(base.riemann - moved.riemann).max() > 1e-3


def test_cotton_needs_deep_jets():
    web = make_web("curved4")
    struct = connection.canonical_structure(web, (0.1, 0.1), order=3)
    with pytest.raises(OrderExhausted):
        curvature.projective_pack(struct.conn)


def test_linearizability_verdicts():
    for name, expected in (("parallel2", "linearizable"),
                           ("parallel3", "linearizable"),
                           ("xy4", "linearizable"),
                           ("lin5", "linearizable"),
                           ("curved4", "not_linearizable"),
                           ("pert5", "not_linearizable")):
        web = make_web(name)
        pts = random_points(web, 8, seed=41)
        rep = curvature.linearizability_verdict(web, pts)
        assert rep.verdict == expected, (name, rep.verdict)


def test_non_geodesic_web_records_subtest():
    web = make_web("pert5")
    rep = curvature.linearizability_verdict(web, random_points(web, 6, seed=2))
    assert rep.verdict == "not_linearizable"
    assert rep.notes == ["geodesicity: not_geodesic"]


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("name", ["lin5", "sin6", "cubic6", "pert5", "exp2y",
                                  "exp2y_bent", "nodes"])
def test_cut_coframe_reads_the_extra_foliations_as_check_does(name, order):
    # linearizability_verdict and connection read foliations n+2..d from
    # the structure, on the coframe of the connection's order; check and
    # invariants read them on the coframe built at order 2.  The values of
    # the a coefficients and of the skew matrices, sign bits included,
    # must be the same bytes
    web = (load_webfile(os.path.join(os.path.dirname(EXP2Y), name + ".json"))
           if name == "exp2y_bent" else make_web(name))
    assert web.d > web.dim + 2
    X = random_points(web, 20, seed=7)
    while True:
        try:
            st = connection.canonical_structure(web, X, order)
            break
        except DegenerateWebPoint as e:
            X = X[~e.rows]
    assert len(X) >= 15
    built = extra_foliations(normalize_coframe(web, X, 2), web)
    assert len(st.foliations) == len(built) == web.d - web.dim - 1
    for (a_st, s_st), (a, s) in zip(st.foliations, built):
        assert a_st.order == order - 1 > a.order == 1
        assert s_st.order == order - 2 > s.order == 0
        assert a_st.value.shape == a.value.shape == (len(X), web.dim)
        assert a_st.value.tobytes() == a.value.tobytes(), name
        assert s_st.value.shape == s.value.shape == (len(X), web.dim,
                                                     web.dim)
        assert s_st.value.tobytes() == s.value.tobytes(), name
