"""Test oracles on the canonical connection: projective gauge moves, the
residuals of the totally-geodesic and affine-function equations, and
Gamma solved from the web's defining equations alone.

No command runs these; the tests hold the pipeline to them.  A 1-form
omega is totally geodesic for a connection when its symmetrized covariant
differential d^s omega equals theta * omega (symmetric product) for some
1-form theta; a function f is affine when d^s df = 0.  Two connections of
one web are projectively equivalent when they differ by a gauge shift
delta^c_a rho_b + delta^c_b rho_a.
"""

import numpy as np

from geoweb import expr, jets
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
    rho, resid = projective_fit(conn_a.gamma_values(), conn_b.gamma_values())
    return resid <= tol, rho, resid


def projective_fit(gamma_a, gamma_b):
    """(rho, residual) of the gauge shift from Christoffel values
    gamma_a[c, a, b] at one point to gamma_b: rho_b = (G_B - G_A)^m_mb /
    (n + 1), and the max-norm of what the shift by rho leaves of G_B - G_A.
    """
    diff = np.asarray(gamma_b) - np.asarray(gamma_a)
    n = diff.shape[0]
    rho = np.einsum("mmb->b", diff) / (n + 1)
    eye = np.eye(n)
    pred = eye[:, :, None] * rho + eye[:, None, :] * rho[:, None]
    return rho, float(np.abs(diff - pred).max())


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
    df = expr.eval_field(web.functions[k - 1], conn.point, 2).derivatives()
    theta, residual = totally_geodesic_residual(conn, df)
    return theta, residual, residual_scale(df)


def defining_equations(web: WebChart, X):
    """The paper's defining equations of Gamma at the points X (B, n), as
    M u = h per row.

    For k != n+1, Hess f_k = df_k (x) alpha_k + alpha_k (x) df_k for some
    1-form alpha_k, and Hess f_{n+1} = 0, where Hess f = d^2 f - Gamma^c
    d_c f: the leaves are totally geodesic and f_{n+1} is affine (gauge
    t = 0).  The unknowns u are Gamma^c_ab (a <= b), at c P + pair with
    P = n (n+1) / 2, then the alpha_k of each k != n+1.  Rows run over the
    foliations in slot order, P each; over f_1..f_{n+2}, the first
    (n+2) P rows and columns of M, there are as many unknowns as
    equations, n^2 (n+1)/2 + n (n+1).  Reads only the order-2 Taylor
    coefficients of `expr.compile_program`.  Returns (M, h, N), N = (n+2) P
    the size of that square system.
    """
    n, d = web.dim, web.d
    co = expr.compile_program(web.functions)(np.asarray(X, float), 2)
    co = co.transpose(2, 0, 1)                       # (B, d, count)
    B, g = len(co), co[:, :, 1:1 + n]
    a, b = np.triu_indices(n)
    unit, ex = np.eye(n, dtype=int), jets.exponents(n, 2)
    cols = [ex.index(tuple(unit[p] + unit[q])) for p, q in zip(a, b)]
    h = co[:, :, cols] * np.where(a == b, 2.0, 1.0)  # (B, d, pairs)
    P = len(a)
    slots = [k for k in range(d) if k != n]
    M = np.zeros((B, d, P, n * P + n * len(slots)))
    for p in range(P):
        M[:, :, p, np.arange(n) * P + p] = g
    for i, k in enumerate(slots):
        base = n * P + n * i
        M[:, k, np.arange(P), base + b] += g[:, k, a]
        M[:, k, np.arange(P), base + a] += g[:, k, b]
    return M.reshape(B, d * P, -1), h.reshape(B, d * P), (n + 2) * P


def defining_condition(web: WebChart, X):
    """The 2-norm condition number (B,) of the square defining system of
    f_1..f_{n+2} at the points X (B, n): one number for how far each point
    is from leaving general position, whatever the slot order."""
    M, _, N = defining_equations(web, X)
    return np.linalg.cond(M[:, :N, :N])


def defining_system(web: WebChart, X):
    """Gamma from `defining_equations` at the points X (B, n).

    Returns gamma (B, n, n, n), solved from the square system of
    f_1..f_{n+2} per row by `np.linalg.solve`, and the relative residual
    |M u - h| / |h| (B,) of the least-squares solution u over all d
    foliations (0 where d = n + 2).
    """
    n = web.dim
    M, h, N = defining_equations(web, X)
    B, P = len(M), N // (n + 2)
    a, b = np.triu_indices(n)
    u = np.linalg.solve(M[:, :N, :N], h[:, :N, None])[:, :n * P, 0]
    gamma = np.empty((B, n, n, n))
    gamma[:, :, a, b] = gamma[:, :, b, a] = u.reshape(B, n, P)
    residual = np.zeros(B)
    if web.d > n + 2:
        for r in range(B):
            fit = np.linalg.lstsq(M[r], h[r], rcond=None)[0]
            residual[r] = np.linalg.norm(M[r] @ fit - h[r]) / max(
                np.linalg.norm(h[r]), np.finfo(float).tiny)
    return gamma, residual
