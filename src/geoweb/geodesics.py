"""Geodesic integration for the canonical connection.

The geodesic equation x'' = -Gamma(x)(x', x') is integrated with classic
fixed-step RK4.  Gamma depends on the position alone, as in the
Runge-Kutta-Nystrom schemes for x'' = f(x, x') (Hairer, Norsett & Wanner,
*Solving ODEs I*, sec. II.14), so a stage's position is known one stage
early: x_1 = x and x_2 = x + h/2 v at the start of a step, and
x_3 = x + h/2 v_2 and x_4 = x + h v_3 once a_2 is known.  The Christoffel
values are therefore evaluated two stages at a time, two calls a step
instead of four; at a few points, most of an evaluation is the fixed cost
of each numpy operation, not arithmetic.  For the same reason the four
accelerations Gamma(x)(v, v) of a step go to `c_einsum`, the C kernel
that `np.einsum` calls, without its Python wrapper and with its bits.
Leaves of the defining foliations give an independent check: along a
geodesic started tangent to a leaf of a totally geodesic foliation the
function value must stay constant up to discretization error, which
`leaf_drift` quantifies.  Both functions take one point or a batch of
rows; a single point is a batch without the batch axis.
"""

from __future__ import annotations

import math

import numpy as np

try:
    from numpy._core.multiarray import c_einsum
except ImportError:     # numpy 1.x
    from numpy.core.multiarray import c_einsum

from . import expr
from .errors import DegenerateWebPoint, StepTooLarge
from .web import WebChart

_BLOWUP_FACTOR = 1e6


class Trajectory:
    """Sampled solution of the geodesic equation."""

    def __init__(self, times: np.ndarray, states: np.ndarray,
                 velocities: np.ndarray, step: float):
        self.times = times
        self.states = states    # (steps+1, n), or (steps+1, B, n) for a batch
        self.velocities = velocities    # same shape as states
        self.step = step


def integrate_geodesic(gamma_of_x, x0, v0, T: float, h: float) -> Trajectory:
    """Integrate x'' = -Gamma(x)(x', x') from (x0, v0) over [0, T].

    `x0` and `v0` are one point (n,) or a batch (B, n).  `gamma_of_x`
    maps rows (R, n) to Christoffel values (R, n, n, n), each row's value
    independent of the other rows: it gets two stage positions stacked,
    (2, n) or (2B, n), one call for stages 1 and 2 and one for stages 3
    and 4 of every step, in one buffer that each call overwrites.  Where
    that call raises DegenerateWebPoint, the two positions are evaluated
    alone, (n,) or (B, n), in stage order, so the error is the one the
    first failing stage gives.  T must be finite; the step is adjusted to
    divide T exactly, and T < h still takes one step.  All rows share the
    time grid, and a degeneracy or blow-up in any row aborts the whole
    call.
    """
    if not (0 < T < np.inf and h > 0):
        raise ValueError("time horizon must be positive and finite, "
                         "and the step positive")
    if T / h == np.inf:
        raise ValueError("time horizon over step overflows")
    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)
    n = x.shape[-1]
    steps = max(1, int(round(T / h)))
    h = T / steps
    times = np.linspace(0.0, T, steps + 1)
    states = np.empty((steps + 1,) + x.shape)
    velocities = np.empty_like(states)
    states[0] = x
    velocities[0] = v
    vcap = _BLOWUP_FACTOR * (1.0 + np.linalg.norm(v, axis=-1).max())
    hh, h6 = 0.5 * h, h / 6.0
    # the two stage positions of one evaluator call, (2, n) or (2, B, n)
    stages = np.empty((2,) + x.shape)
    rows = stages.reshape(-1, n)

    def gammas():
        # Gamma at both stage positions in one call; on failure one call
        # each, so the earlier stage names the error
        try:
            G = gamma_of_x(rows)
        except DegenerateWebPoint:
            return gamma_of_x(stages[0]), gamma_of_x(stages[1])
        return G.reshape(stages.shape + (n, n))

    # Gamma(x)(u, u): the acceleration with its sign flipped, which the
    # updates subtract, bit for bit as adding its negation; c_einsum is the
    # kernel np.einsum calls, here without its Python wrapper
    accel = "...cab,...a,...b->...c"

    for k in range(steps):
        try:
            stages[0] = x
            np.add(x, hh * v, out=stages[1])
            G1, G2 = gammas()
            g1 = c_einsum(accel, G1, v, v)
            v2 = v - hh * g1
            g2 = c_einsum(accel, G2, v2, v2)
            v3 = v - hh * g2
            np.add(x, hh * v2, out=stages[0])
            np.add(x, h * v3, out=stages[1])
            G3, G4 = gammas()
            g3 = c_einsum(accel, G3, v3, v3)
            v4 = v - h * g3
            g4 = c_einsum(accel, G4, v4, v4)
        except DegenerateWebPoint as e:
            raise DegenerateWebPoint(
                "geodesic left the admissible set near t=%.6g: %s"
                % (times[k], e)) from None
        x = np.add(x, h6 * (v + 2.0 * v2 + 2.0 * v3 + v4), out=states[k + 1])
        v = np.subtract(v, h6 * (g1 + 2.0 * g2 + 2.0 * g3 + g4),
                        out=velocities[k + 1])
        # a NaN or inf in v makes the speed fail the comparison too; a
        # finite sum of squares has no inf or nan term
        speed = math.sqrt(np.maximum.reduce(np.add.reduce(v * v, axis=-1),
                                            None))
        if not ((math.isfinite(np.vdot(x, x)) or np.isfinite(x).all())
                and speed <= vcap):
            raise StepTooLarge(
                "geodesic integration diverged near t=%.6g; "
                "reduce the step or the horizon" % times[k + 1])
    return Trajectory(times, states, velocities, h)


def tangent_vector(web: WebChart, i: int, point, direction) -> np.ndarray:
    """Project `direction` onto the leaf of foliation i through `point`.

    The result is orthogonal to grad f_i, i.e. tangent to the level set;
    foliation indices are 1-based.  `direction` is first scaled by the
    power of two that brings its largest entry into [1/2, 1), so no finite
    direction overflows or vanishes in the projection.  The scaling is
    exact unless an entry falls below the normal range, so directions
    that differ by a power of two give the same bits.
    """
    # the gradient: the order-1 Taylor coefficients
    g = expr.eval_coeffs(web.functions[i - 1], np.reshape(point, (1, -1)),
                         1)[1:, 0]
    d = np.array(direction, dtype=float)
    d = np.ldexp(d, -np.frexp(np.abs(d).max())[1])
    with np.errstate(over="ignore", invalid="ignore"):
        gn = float(g @ g)
        t = d - (float(g @ d) / gn) * g if gn else d
        nt = np.linalg.norm(t)
    if gn == 0.0:
        raise DegenerateWebPoint("foliation %d has vanishing gradient" % i)
    if not np.isfinite([gn, nt]).all():
        raise DegenerateWebPoint("projecting onto foliation %d overflows" % i)
    if nt == 0.0:
        raise DegenerateWebPoint(
            "direction is normal to foliation %d; no tangent component" % i)
    return t / nt


def leaf_drift(web: WebChart, i: int, traj: Trajectory):
    """Relative drift of f_i along the trajectory.

    max_t |f_i(x(t)) - f_i(x0)| divided by |grad f_i(x0)| times the
    polyline length, so the number is comparable across scalings of f_i
    and across trajectory lengths.  Foliation index is 1-based.  A float
    for a single trajectory, one drift per row (B,) for a batch.
    """
    states = traj.states
    n = states.shape[-1]
    points = states.reshape(-1, n)
    tree = web.functions[i - 1]
    values = expr.eval_coeffs(tree, points, 0)[0]
    values = values.reshape(states.shape[:-1])
    dev = np.abs(values - values[0]).max(axis=0)
    # the norm of each 1-D gradient, from the order-1 coefficients at each
    # start: a row-wise norm over a matrix sums in another order and can
    # differ in the last bit
    grads = expr.eval_coeffs(tree, states[0].reshape(-1, n), 1)[1:].T
    gnorm = np.array([np.linalg.norm(g) for g in grads])
    gnorm = gnorm.reshape(states.shape[1:-1])
    seglen = np.linalg.norm(np.diff(states, axis=0), axis=-1).sum(axis=0)
    denom = gnorm * seglen
    if np.any(denom == 0.0):
        raise DegenerateWebPoint(
            "drift reference scale vanishes for foliation %d" % i)
    drift = dev / denom
    return float(drift) if states.ndim == 2 else drift
