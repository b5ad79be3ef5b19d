"""Geodesic integration and the leaf-drift oracle."""

import numpy as np
import pytest

from geoweb import fastgamma, geodesics
from geoweb.errors import DegenerateWebPoint, StepTooLarge
from geoweb.web import WebChart

from conftest import make_web


def test_flat_connection_gives_straight_lines():
    web = make_web("parallel2")
    gamma = fastgamma.batched_gamma_evaluator(web)
    x0, v0 = np.array([0.1, -0.2]), np.array([0.3, 0.7])
    traj = geodesics.integrate_geodesic(gamma, x0, v0, T=1.0, h=1e-2)
    exact = x0 + traj.times[:, None] * v0
    assert np.abs(traj.states - exact).max() < 1e-13
    assert np.abs(traj.velocities - v0).max() < 1e-13


def test_step_adjusts_to_divide_horizon():
    web = make_web("parallel2")
    gamma = fastgamma.batched_gamma_evaluator(web)
    traj = geodesics.integrate_geodesic(gamma, [0, 0], [1, 0], T=1.0, h=0.3)
    assert len(traj.times) == 4                   # 3 steps of 1/3
    assert traj.step == pytest.approx(1.0 / 3.0)
    tiny = geodesics.integrate_geodesic(gamma, [0, 0], [1, 0], T=0.1, h=0.3)
    assert len(tiny.times) == 2                   # never zero steps


def test_defining_foliations_keep_their_leaves():
    web = make_web("xy4")
    gamma = fastgamma.batched_gamma_evaluator(web)
    x0 = np.array([0.05, -0.1])
    V0 = np.stack([geodesics.tangent_vector(web, i, x0, [0.83, 0.41])
                   for i in (1, 2, 3, 4)])
    traj = geodesics.integrate_geodesic(
        gamma, np.tile(x0, (4, 1)), V0, T=1.0, h=1e-3)
    for i in (1, 2, 3, 4):
        assert geodesics.leaf_drift(web, i, traj)[i - 1] <= 1e-6, i


def test_drift_separates_geodesic_from_perturbed():
    x0 = np.array([0.05, -0.1])
    for name, bound, which in (("lin5", 1e-6, "below"),
                               ("pert5", 1e-3, "above")):
        web = make_web(name)
        gamma = fastgamma.batched_gamma_evaluator(web)
        v0 = geodesics.tangent_vector(web, 5, x0, [0.9, 0.2])
        traj = geodesics.integrate_geodesic(gamma, x0, v0, T=1.0, h=2e-3)
        drift = geodesics.leaf_drift(web, 5, traj)
        if which == "below":
            assert drift <= bound
        else:
            assert drift >= bound


def test_rk4_endpoint_contraction():
    web = make_web("curved4")
    gamma = fastgamma.batched_gamma_evaluator(web)
    x0, v0 = np.array([0.05, -0.1]), np.array([0.6, -0.45])
    ref = geodesics.integrate_geodesic(gamma, x0, v0, 0.5, 1 / 1600).endpoint
    errs = [np.linalg.norm(
        geodesics.integrate_geodesic(gamma, x0, v0, 0.5, 1.0 / m).endpoint
        - ref) for m in (100, 200, 400)]
    for e1, e2 in zip(errs, errs[1:]):
        assert 12.0 < e1 / e2 < 20.0


def test_batched_integrator_matches_single():
    web = make_web("curved4")
    gamma = fastgamma.batched_gamma_evaluator(web)
    X0 = np.array([[0.05, -0.1], [0.2, 0.1], [-0.15, 0.25]])
    V0 = np.array([[0.6, -0.45], [0.1, 0.8], [0.5, 0.5]])
    batch = geodesics.integrate_geodesic(gamma, X0, V0, T=0.5, h=1e-2)
    for b in range(3):
        single = geodesics.integrate_geodesic(gamma, X0[b], V0[b],
                                              T=0.5, h=1e-2)
        assert np.array_equal(batch.states[:, b], single.states)
        assert np.array_equal(batch.velocities[:, b], single.velocities)


def test_batched_drift_matches_single():
    web = make_web("xy4")
    gamma = fastgamma.batched_gamma_evaluator(web)
    x0 = np.array([0.05, -0.1])
    V0 = np.stack([geodesics.tangent_vector(web, i, x0, [0.83, 0.41])
                   for i in (1, 2, 3, 4)])
    batch = geodesics.integrate_geodesic(
        gamma, np.tile(x0, (4, 1)), V0, T=1.0, h=1e-2)
    for i in (1, 2, 3, 4):
        drifts = geodesics.leaf_drift(web, i, batch)
        single = geodesics.integrate_geodesic(gamma, x0, V0[i - 1],
                                              T=1.0, h=1e-2)
        assert drifts[i - 1] == pytest.approx(
            geodesics.leaf_drift(web, i, single), rel=1e-12, abs=1e-15)


def test_tangent_vector_is_tangent_and_unit():
    web = make_web("curved4")
    x0 = np.array([0.2, 0.1])
    v = geodesics.tangent_vector(web, 4, x0, [1.0, 1.0])
    g = web.eval_function(4, x0, 1).grad
    assert abs(g @ v) < 1e-14
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(DegenerateWebPoint):
        geodesics.tangent_vector(web, 4, x0, g)   # normal direction


def test_degenerate_point_stops_integration():
    web = WebChart.from_strings(
        2, ["x1", "x2", "-(x1+x2+x1*x2)", "x1+2*x2"])
    gamma = fastgamma.batched_gamma_evaluator(web)
    # start on the degenerate locus x2 = -1: the very first connection
    # evaluation fails and the integrator annotates the time
    with pytest.raises(DegenerateWebPoint, match="t="):
        geodesics.integrate_geodesic(gamma, [0.0, -1.0], [1.0, 0.0],
                                     T=1.0, h=1e-3)


def test_blowup_raises_step_too_large():
    web = make_web("parallel2")

    def explosive(x):
        # repulsive connection that blows trajectories up
        return -40.0 * np.ones((2, 2, 2))

    with pytest.raises(StepTooLarge):
        geodesics.integrate_geodesic(explosive, [0.0, 0.0], [1.0, 1.0],
                                     T=50.0, h=0.5)
    assert web.dim == 2


def test_invalid_horizon_rejected():
    web = make_web("parallel2")
    gamma = fastgamma.batched_gamma_evaluator(web)
    with pytest.raises(ValueError):
        geodesics.integrate_geodesic(gamma, [0, 0], [1, 0], T=1.0, h=0.0)
    with pytest.raises(ValueError):
        geodesics.integrate_geodesic(gamma, [0, 0], [1, 0], T=-1.0, h=0.1)
