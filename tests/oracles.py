"""Test oracles on the canonical connection: projective gauge moves and
the residuals of the totally-geodesic and affine-function equations.

No command runs these; the tests hold the pipeline to them.  A 1-form
omega is totally geodesic for a connection when its symmetrized covariant
differential d^s omega equals theta * omega (symmetric product) for some
1-form theta; a function f is affine when d^s df = 0.  Two connections of
one web are projectively equivalent when they differ by a gauge shift
delta^c_a rho_b + delta^c_b rho_a.
"""

import numpy as np

from geoweb import expr
from geoweb.connection import (CanonicalStructure, ConnectionField,
                               canonical_structure)
from geoweb.errors import GeowebError
from geoweb.jets import Jet, grid, ordered_sum, stack, where
from geoweb.web import WebChart, pointed_order, reorder_chart


class ZeroForm(GeowebError):
    """A 1-form that must be nonzero vanished at the evaluation point."""


def pointed_chart(web: WebChart) -> WebChart:
    """Move the pointed foliation (default n+1) into slot n+1."""
    return reorder_chart(web, pointed_order(web))


def projective_gauge_change(conn: ConnectionField, rho) -> ConnectionField:
    """Shift gamma'^c_ab = gamma^c_ab + delta^c_a rho_b + delta^c_b rho_a,
    and the frame symbols alike; rho holds the coordinate components of the
    1-form, numbers or jets."""
    n = conn.dim
    rj = stack([x.truncate(min(x.order, conn.order)) if isinstance(x, Jet)
                else Jet.constant(x, n, conn.order) for x in rho])
    c, a, b = grid(n, 3)
    gamma = where(c == a, conn.gamma + rj, conn.gamma)
    gamma = where(c == b, gamma + rj[:, None], gamma)
    E = conn.frame.truncate(conn.order)
    rho_frame = ordered_sum(E[:, i] * rj[i] for i in range(n))
    frame_gamma = where(c == a, conn.frame_gamma + rho_frame,
                        conn.frame_gamma)
    frame_gamma = where(c == b, frame_gamma + rho_frame[:, None], frame_gamma)
    return ConnectionField(conn.point, conn.order, gamma, frame_gamma,
                           conn.frame)


def projective_equivalence_check(conn_a: ConnectionField,
                                 conn_b: ConnectionField,
                                 tol: float = 1e-9):
    """Test whether two connections differ by a projective gauge shift.

    Works on value parts at one point; returns (is_equivalent, rho,
    residual) with the 1-form rho_b = (G_B - G_A)^m_mb / (n + 1).
    """
    if conn_a.point.ndim != 1 or conn_b.point.ndim != 1:
        raise ValueError("projective_equivalence_check takes connections "
                         "at one point, not a batch")
    n = conn_a.dim
    diff = conn_b.gamma_values() - conn_a.gamma_values()
    rho = np.einsum("mmb->b", diff) / (n + 1)
    eye = np.eye(n)
    pred = eye[:, :, None] * rho + eye[:, None, :] * rho[:, None]
    resid = float(np.abs(diff - pred).max())
    return resid <= tol, rho, resid


def pointed_affine_connection(web: WebChart, point,
                              order: int = 3) -> CanonicalStructure:
    """Affine connection of the web pointed at web.pointed (default n+1).

    Re-indexes the pointed foliation into slot n+1 and uses the gauge
    t = 0, which keeps the pointed function affine for the result.
    """
    return canonical_structure(pointed_chart(web), point, order, t=None)


class SymResidual:
    """Value of a symmetrized (0,2)-tensor at a point."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    @property
    def norm(self) -> float:
        return float(np.abs(self.matrix).max())


def _form(omega) -> Jet:
    # a 1-form given as a jet of shape (n,) or as a list of n jets
    return omega if isinstance(omega, Jet) else stack(omega)


def sym_covariant_differential(conn: ConnectionField, omega) -> SymResidual:
    """(d^s omega)_ab = (d_a omega_b + d_b omega_a)/2 - sum_c G^c_ab omega_c.

    `omega` holds the coordinate components: a jet of shape (n,) and order
    >= 1, or a list of n such scalar jets.
    """
    om = _form(omega)
    dw = om.derivatives().value        # dw[b][a] = d_a omega_b
    g = conn.gamma_values()
    m = 0.5 * (dw + dw.T) - np.einsum("cab,c->ab", g, om.value)
    return SymResidual(m)


def residual_scale(omega) -> float:
    """Size of omega and its first derivatives, floored at 1."""
    om = _form(omega)
    return max(1.0, float(np.abs(om.value).max()),
               float(np.abs(om.derivatives().value).max()))


def totally_geodesic_residual(conn: ConnectionField, omega):
    """Least-squares fit d^s omega = (theta omega + omega theta)/2.

    Returns (theta_fit, residual): theta_fit is the n-vector of 1-form
    values, residual the max-norm of the unexplained part.  The fit uses
    normal equations over the n(n+1)/2 upper-triangle equations.
    """
    n = conn.dim
    w = _form(omega).value
    if np.abs(w).max() == 0.0:
        raise ZeroForm("totally-geodesic residual of a vanishing form")
    target = sym_covariant_differential(conn, omega).matrix
    a, b = np.triu_indices(n)
    eye = np.eye(n)
    A = 0.5 * (eye[a] * w[b, None] + eye[b] * w[a, None])
    m = target[a, b]
    theta = np.linalg.solve(A.T @ A, A.T @ m)
    fit = 0.5 * (np.outer(theta, w) + np.outer(w, theta))
    residual = float(np.abs(target - fit).max())
    return theta, residual


def affine_function_residual(conn: ConnectionField, f) -> float:
    """Norm of d^s df for a function given as tree, text, or jet."""
    n = conn.dim
    if isinstance(f, str):
        f = expr.parse_expression(f, n)
    if not isinstance(f, Jet):
        f = expr.eval_field(f, conn.point, 2)
    return sym_covariant_differential(conn, f.derivatives()).norm


def foliation_residual(web: WebChart, k: int, conn: ConnectionField):
    """Totally-geodesic data of foliation k (1-based) against `conn`.

    Returns (theta_fit, residual, scale); verdicts compare residual with
    PASS_FACTOR * scale and FAIL_FACTOR * scale.
    """
    df = web.eval_function(k, conn.point, 2).derivatives()
    theta, residual = totally_geodesic_residual(conn, df)
    return theta, residual, residual_scale(df)
