"""Geodesic integration for the canonical connection.

The geodesic equation x'' = -Gamma(x)(x', x') is integrated with classic
fixed-step RK4.  Leaves of the defining foliations give an independent
check: along a geodesic started tangent to a leaf of a totally geodesic
foliation the function value must stay constant up to discretization
error, which `leaf_drift` quantifies.  Both functions take one point or a
batch of rows; a single point is a batch without the batch axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fastgamma
from .errors import DegenerateWebPoint, StepTooLarge
from .web import WebChart

_BLOWUP_FACTOR = 1e6


@dataclass
class Trajectory:
    """Sampled solution of the geodesic equation."""

    times: np.ndarray
    states: np.ndarray        # (steps+1, n), or (steps+1, B, n) for a batch
    velocities: np.ndarray    # same shape as states
    step: float

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]


def integrate_geodesic(gamma_of_x, x0, v0, T: float, h: float) -> Trajectory:
    """Integrate x'' = -Gamma(x)(x', x') from (x0, v0) over [0, T].

    `x0` and `v0` are one point (n,) or a batch (B, n); `gamma_of_x` maps
    them to Christoffel values (n, n, n) or (B, n, n, n).  The step is
    adjusted to divide T exactly; T < h still takes one step.  All rows
    share the time grid, and a degeneracy or blow-up in any row aborts the
    whole call.
    """
    if h <= 0 or T <= 0:
        raise ValueError("time horizon and step must be positive")
    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)
    steps = max(1, int(round(T / h)))
    h = T / steps
    times = np.linspace(0.0, T, steps + 1)
    states = np.empty((steps + 1,) + x.shape)
    velocities = np.empty_like(states)
    states[0] = x
    velocities[0] = v
    vcap = _BLOWUP_FACTOR * (1.0 + np.linalg.norm(v, axis=-1).max())

    def accel(p, u):
        return -np.einsum("...cab,...a,...b->...c", gamma_of_x(p), u, u)

    for k in range(steps):
        try:
            a1 = accel(x, v)
            x2, v2 = x + 0.5 * h * v, v + 0.5 * h * a1
            a2 = accel(x2, v2)
            x3, v3 = x + 0.5 * h * v2, v + 0.5 * h * a2
            a3 = accel(x3, v3)
            x4, v4 = x + h * v3, v + h * a3
            a4 = accel(x4, v4)
        except DegenerateWebPoint as e:
            raise DegenerateWebPoint(
                "geodesic left the admissible set near t=%.6g: %s"
                % (times[k], e)) from None
        x = x + (h / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v = v + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))) \
                or np.linalg.norm(v, axis=-1).max() > vcap:
            raise StepTooLarge(
                "geodesic integration diverged near t=%.6g; "
                "reduce the step or the horizon" % times[k + 1])
        states[k + 1] = x
        velocities[k + 1] = v
    return Trajectory(times, states, velocities, h)


def tangent_vector(web: WebChart, i: int, point, direction) -> np.ndarray:
    """Project `direction` onto the leaf of foliation i through `point`.

    The result is orthogonal to grad f_i, i.e. tangent to the level set;
    foliation indices are 1-based.
    """
    jet = web.eval_function(i, point, order=1)
    g = jet.grad
    d = np.array(direction, dtype=float)
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
    values = fastgamma.batched_values(web.functions[i - 1], points)
    values = values.reshape(states.shape[:-1])
    dev = np.abs(values - values[0]).max(axis=0)
    # the norm of each 1-D gradient: a row-wise norm over a matrix sums in
    # another order and can differ in the last bit
    gnorm = np.array([np.linalg.norm(web.eval_function(i, x, order=1).grad)
                      for x in states[0].reshape(-1, n)])
    gnorm = gnorm.reshape(states.shape[1:-1])
    seglen = np.linalg.norm(np.diff(states, axis=0), axis=-1).sum(axis=0)
    denom = gnorm * seglen
    if np.any(denom == 0.0):
        raise DegenerateWebPoint(
            "drift reference scale vanishes for foliation %d" % i)
    drift = dev / denom
    return float(drift) if states.ndim == 2 else drift
