"""Geodesic integration, the leaf-drift oracle, and the affine structure
the integrated connection belongs to."""

import numpy as np
import pytest

from geoweb import expr, fastgamma, geodesics
from geoweb.errors import DegenerateWebPoint, StepTooLarge
from geoweb.web import WebChart

from conftest import CURVED_FRAME_WEBS, SHEARED, make_web


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


def test_drift_of_a_standing_trajectory_has_no_reference_scale():
    # zero start velocity: the polyline has length 0
    web = make_web("xy4")
    gamma = fastgamma.batched_gamma_evaluator(web)
    traj = geodesics.integrate_geodesic(gamma, [0.05, -0.1], [0.0, 0.0],
                                        T=0.1, h=0.05)
    with pytest.raises(DegenerateWebPoint,
                       match="drift reference scale vanishes for foliation 4"):
        geodesics.leaf_drift(web, 4, traj)


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
    ref = geodesics.integrate_geodesic(gamma, x0, v0, 0.5, 1 / 1600).states[-1]
    errs = [np.linalg.norm(
        geodesics.integrate_geodesic(gamma, x0, v0, 0.5, 1.0 / m).states[-1]
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
    g = expr.eval_field(web.functions[3], x0, 1).derivatives().value
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


# trajectories that leave the admissible set mid-run, single and in a
# batch with an admissible row before or after; the texts were recorded
# when every RK4 stage was evaluated by a call of its own
LEAVING = [
    (["x1", "x2", "-(x1+x2)", "log(1-x1)+x2"], (1.0, 0.0), 0.07,
     "t=0.428571: basis invariant a_2 of foliation 4 vanishes at [1.  0.2]"),
    (["x1", "x2", "-(x1+x2)", "sqrt(0.6-x1)+x1*x2"], (1.0, 0.1), 0.03,
     "t=0.0909091: sqrt of non-positive value -0.0053013"),
]


@pytest.mark.parametrize("functions, direction, h, text", LEAVING)
@pytest.mark.parametrize("rows", [None, (1, 0), (0, 1)])
def test_leaving_the_admissible_set_keeps_the_message(functions, direction,
                                                      h, text, rows):
    gamma = fastgamma.batched_gamma_evaluator(
        WebChart.from_strings(2, functions))
    x0, v0 = np.array([0.5, 0.2]), np.array(direction)
    if rows is not None:
        x0 = np.array([[0.1, -0.1], x0])[list(rows)]
        v0 = np.tile(v0, (2, 1))
    with pytest.raises(DegenerateWebPoint) as err:
        geodesics.integrate_geodesic(gamma, x0, v0, T=1.0, h=h)
    assert str(err.value) == "geodesic left the admissible set near " + text


def test_first_failing_stage_names_the_error():
    # check A fails where x1 > 0.5, check B where x2 < -0.5, A first.
    # Stage 1 at (0.45, -0.6) fails B alone and stage 2 at (0.55, -0.6)
    # fails A: a call on both stages together would report A at stage 2
    def two_checks(x):
        x = np.asarray(x)
        rows = x.reshape(-1, 2)
        for name, bad in (("A", rows[:, 0] > 0.5), ("B", rows[:, 1] < -0.5)):
            if bad.any():
                raise DegenerateWebPoint(
                    "%s at %s" % (name, rows[np.argmax(bad)]))
        return np.zeros(x.shape[:-1] + (2, 2, 2))

    with pytest.raises(DegenerateWebPoint) as err:
        geodesics.integrate_geodesic(two_checks, [0.45, -0.6], [1.0, 0.0],
                                     T=1.0, h=0.2)
    assert str(err.value) == ("geodesic left the admissible set near t=0: "
                              "B at [ 0.45 -0.6 ]")


@pytest.mark.parametrize("x0, v0", [
    ([0.05, -0.1], [0.6, -0.45]),
    ([[0.05, -0.1], [0.2, 0.1], [-0.15, 0.25]],
     [[0.6, -0.45], [0.1, 0.8], [0.5, 0.5]]),
])
def test_two_evaluator_calls_per_step(x0, v0):
    gamma = fastgamma.batched_gamma_evaluator(make_web("curved4"))
    shapes = []

    def counted(x):
        shapes.append(np.shape(x))
        return gamma(x)

    geodesics.integrate_geodesic(counted, x0, v0, T=0.5, h=0.05)
    rows = 2 * len(x0) if np.ndim(x0) == 2 else 2
    assert shapes == [(rows, 2)] * 20


def test_blowup_raises_step_too_large():
    web = make_web("parallel2")

    def explosive(x):
        # repulsive connection that blows trajectories up, one value per
        # row as the integrator's evaluator contract asks
        return -40.0 * np.ones(np.shape(x)[:-1] + (2, 2, 2))

    with pytest.raises(StepTooLarge):
        geodesics.integrate_geodesic(explosive, [0.0, 0.0], [1.0, 1.0],
                                     T=50.0, h=0.5)
    assert web.dim == 2


def test_overflowing_stages_raise_without_warnings():
    # Gamma[0,0,0] = +-1e300 by the sign of x1: the stages meet inf and
    # nan, numpy's overflow and invalid-value warnings are not silenced on
    # this path, and pytest turns any of them into an error
    def huge(x):
        x = np.asarray(x)
        G = np.zeros(x.shape[:-1] + (2, 2, 2))
        G[..., 0, 0, 0] = np.where(x[..., 0] >= 0, 1e300, -1e300)
        return G

    with pytest.raises(StepTooLarge, match="near t=0.1;"):
        geodesics.integrate_geodesic(huge, [0.0, 0.0], [1.0, 0.0],
                                     T=1.0, h=0.1)


def test_nan_christoffels_raise_step_too_large():
    def nan(x):
        return np.full(np.shape(x)[:-1] + (2, 2, 2), np.nan)

    with pytest.raises(StepTooLarge, match=r"^geodesic integration diverged "
                       r"near t=0\.1; reduce the step or the horizon$"):
        geodesics.integrate_geodesic(nan, [0.0, 0.0], [1.0, 0.0],
                                     T=1.0, h=0.1)


def test_position_overflow_with_finite_velocity_raises():
    # a flat connection keeps v = v0 finite, and within its cap, while x
    # runs past the largest float in the first step; the overflow itself
    # is not under test
    def flat(x):
        return np.zeros(np.shape(x)[:-1] + (2, 2, 2))

    with np.errstate(over="ignore"), pytest.raises(
            StepTooLarge, match=r"^geodesic integration diverged near "
            r"t=0\.5; reduce the step or the horizon$"):
        geodesics.integrate_geodesic(flat, [np.finfo(float).max, 0.0],
                                     [1e300, 0.0], T=1.0, h=0.5)


def test_invalid_horizon_rejected():
    web = make_web("parallel2")
    gamma = fastgamma.batched_gamma_evaluator(web)
    with pytest.raises(ValueError):
        geodesics.integrate_geodesic(gamma, [0, 0], [1, 0], T=1.0, h=0.0)
    with pytest.raises(ValueError):
        geodesics.integrate_geodesic(gamma, [0, 0], [1, 0], T=-1.0, h=0.1)


def _line_miss(t, y):
    # largest distance of y(t) from its least-squares line, over the range
    # of y
    basis = np.column_stack((np.ones_like(t), t))
    fit = basis @ np.linalg.lstsq(basis, y, rcond=None)[0]
    return np.abs(y - fit).max() / np.ptp(y)


@pytest.mark.parametrize("name", ["xy4", "mixed3", "web4", "curved4",
                                  *SHEARED, *CURVED_FRAME_WEBS, "exp2y"])
def test_time_is_the_affine_parameter_of_f_n_plus_1(name):
    # in gauge 0 the connection is the one of the web's affine structure
    # that makes f_{n+1} an affine function, so along any of its geodesics
    # f_{n+1} is affine in the time t, and no other function off its own
    # leaf is.  The fit holds at h and h/2, so RK4 error does not reach it;
    # pulled3 takes smaller steps (it misses by 1.2e-12 at h = 2e-3,
    # 7.5e-14 at 1e-3)
    web = make_web(name)
    n = web.dim
    gamma = fastgamma.batched_gamma_evaluator(web)
    x0 = web.center + 0.05
    v0 = geodesics.tangent_vector(web, n + 2, x0, np.ones(n))
    for h in ((1e-3, 5e-4) if name == "pulled3" else (2e-3, 1e-3)):
        traj = geodesics.integrate_geodesic(gamma, x0, v0, T=0.2, h=h)
        for k, tree in enumerate(web.functions, start=1):
            miss = _line_miss(traj.times,
                              expr.eval_coeffs(tree, traj.states, 0)[0])
            if k == n + 1:
                assert miss <= 1e-12, (h, k)
            elif k != n + 2:
                assert miss >= 1e-4, (h, k)
