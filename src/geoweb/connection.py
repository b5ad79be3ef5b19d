"""Canonical connection of a web: theta system, Christoffels, gauge moves.

The skew invariants s_ij from the basis invariants of foliation n+2 fix the
antisymmetric part of the theta matrix, the free gauge t its symmetric
part; they give the unique torsion-free connection making every web leaf
totally geodesic (one per gauge, all projectively equivalent).  With the
coframe W_ja = lambda_j d_a f_j, its frame E_j and L_ji = D_i log lambda_j
(D_i along E_i), d omega_k = d log lambda_k ^ omega_k makes the structure
functions c^k_ij = omega_k([E_i, E_j]) vanish unless k is i or j, with
c^k_kj = L_kj.  So with Q = (L - theta) / 2 the frame symbols
(nabla_{E_q} E_p = sum_k fg^k_pq E_k) are sparse: fg^k_pk = Q_kp and
fg^k_kq = Q_kq - L_kq for p, q != k, fg^k_kk = -theta_kk, zero elsewhere.
In Gamma^c_ab = W_ia W_jb (fg^k_ji E_k^c - D_i E_j^c), W_ia D_i = d_a and
sum_j W_jb E_j^c = delta_bc make the second term E_j^c d_a W_jb =
E_j^c (lambda_j d_a d_b f_j + W_ia L_ji W_jb), whose L_ji (i != j) cancel
the -L_ji of fg^j_ji.  With L_jj - theta_jj = 2 Q_jj and K = Q W, both
Christoffel routes, `canonical_christoffels` on jets and `fastgamma` on
values, evaluate

    Gamma^c_ab = sum_j E_j^c (lambda_j d_a d_b f_j + W_ja K_jb + K_ja W_jb)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import expr
from .jets import Jet, grid, ordered_sum, skew_upper, stack, where
from .web import (BasisInvariant, NormalizedCoframe, WebChart,
                  basis_invariants, check_coincidence, normalize_coframe,
                  pointed_chart, skew_formula)


def skew_invariant(cof: NormalizedCoframe, inv: BasisInvariant, i, j) -> Jet:
    """s_ij = (a_i d_j - a_j d_i) log(a_j / a_i) / (a_i - a_j), frame indices.

    Expanded through logarithmic derivatives so negative a-components are
    fine; only a_i != a_j and a_i, a_j != 0 are required.  i and j may be
    equal-length index arrays with i < j; the result then has their shape.
    """
    i, j = np.asarray(i), np.asarray(j)
    if np.any(i == j):
        raise ValueError("skew invariant needs distinct indices")
    if i.ndim == 0 and i > j:
        return -skew_invariant(cof, inv, j, i)
    a = inv.a
    check_coincidence(a.coeffs[0][i], a.coeffs[0][j], i, j, cof.point)
    r = cof.order - 1
    d = cof.frame_derivatives(a)       # d[p][q] = D_p a_q
    u, v = a[i].truncate(r), a[j].truncate(r)
    return skew_formula(u, v, d[i, i] / u, d[i, j] / v, d[j, i] / u,
                        d[j, j] / v)


def skew_matrix(cof: NormalizedCoframe, inv: BasisInvariant) -> Jet:
    """All skew invariants of one foliation: the antisymmetric (n, n) jet
    s[i][j] = s_ij, with the coincidence checks run pair by pair."""
    i, j = grid(cof.dim, 2)
    upper = np.nonzero(i < j)
    pair = np.zeros(i.shape, dtype=np.intp)
    pair[upper] = np.arange(len(upper[0]))
    return skew_upper(skew_invariant(cof, inv, *upper)[pair])


@dataclass
class ThetaSystem:
    """theta_i = sum_j theta[i][j] omega_j; t is the symmetric gauge."""
    t: Jet                     # (n,)
    s: Jet                     # (n, n), s[i][j] = -s[j][i]
    theta: Jet                 # (n, n), theta[i][j] = t[j] + s[i][j]


def theta_system(cof: NormalizedCoframe, inv: BasisInvariant,
                 t: Optional[list] = None) -> ThetaSystem:
    n = cof.dim
    r = cof.order - 1
    t = (Jet.constant(np.zeros(n), n, r) if t is None
         else stack([ti.truncate(r) for ti in t]))
    s = skew_matrix(cof, inv)
    return ThetaSystem(t, s, t + s)


@dataclass
class ConnectionField:
    """Christoffel data at one point (n,) or a batch of points (B, n), jet-valued.

    gamma[c][a][b] are coordinate symbols (symmetric in a, b);
    frame_gamma[k][p][q] are frame symbols with q the derivative direction
    (nabla_{e_q} e_p = sum_k frame_gamma[k][p][q] e_k).
    """
    point: np.ndarray
    order: int
    gamma: Jet                 # (n, n, n)
    frame_gamma: Jet           # (n, n, n)
    frame: Jet                 # (n, n), as in the coframe

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    def gamma_values(self) -> np.ndarray:
        """Value parts G[c, a, b]: shape (n, n, n), or (B, n, n, n)."""
        return self.gamma.value


def canonical_christoffels(cof: NormalizedCoframe,
                           theta: ThetaSystem) -> ConnectionField:
    """Frame and coordinate symbols from the theta system by the closed
    form of the module docstring."""
    n = cof.dim
    r = cof.order - 1
    lam = cof.lam[:n].truncate(r)
    th = theta.theta
    # L[j][i] = D_i log lam_j, Q = (L - theta) / 2 and K[j][a] = Q[j][i] W_ia
    L = cof.frame_derivatives(cof.lam[:n]).transpose() / lam[:, None]
    Q = (L - th) * 0.5
    Wt = cof.omega[:n].truncate(r)
    K = ordered_sum(Q[:, i, None] * Wt[i] for i in range(n))
    k, p, q = grid(n, 3)
    fg = where(q == k, Q[k, p], 0.0)
    fg = where(p == k, Q[k, q] - L[k, q], fg)
    fg = where((p == k) & (q == k), -th[k, k], fg)
    # T[j][a][b] = lam_j d_a d_b f_j + W_ja K_jb + K_ja W_jb, and
    # gamma[c][a][b] = sum over j in order of E_j^c T[j][a][b]
    P = K[:, None] * Wt[:, :, None]
    T = lam[:, None, None] * cof.hess + (P + P.transpose(0, 2, 1))
    Et = cof.frame.truncate(r)
    gamma = ordered_sum(Et[j][:, None, None] * T[j] for j in range(n))
    return ConnectionField(cof.point, r, gamma, fg, cof.frame)


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


@dataclass
class CanonicalStructure:
    """Everything built at one point or batch: coframe, invariants, theta,
    connection."""
    cof: NormalizedCoframe
    invariant: BasisInvariant
    theta: ThetaSystem
    conn: ConnectionField


def canonical_structure(web: WebChart, point, order: int = 3,
                        t=None) -> CanonicalStructure:
    """Canonical connection of the (n+2)-subweb f_1..f_{n+2}.

    `point` is one point (n,) or a batch of points (B, n); every jet of the
    result then has coefficients (count,) or (count, B), and a batch
    column equals the structure at its point bit for bit.  `order` is the
    jet order of the web functions; the connection comes out
    with jets of order `order - 2`.  `t` is the symmetric gauge: None for
    t = 0, else n expression texts.
    """
    point = np.asarray(point, dtype=float)
    cof = normalize_coframe(web, point, order)
    inv = basis_invariants(cof, web, web.dim + 2)
    if t is not None:
        t = [expr.eval_field(expr.parse_expression(ti, web.dim), point,
                             order - 2) for ti in t]
    theta = theta_system(cof, inv, t)
    conn = canonical_christoffels(cof, theta)
    return CanonicalStructure(cof, inv, theta, conn)


def pointed_affine_connection(web: WebChart, point,
                              order: int = 3) -> CanonicalStructure:
    """Affine connection of the web pointed at web.pointed (default n+1).

    Re-indexes the pointed foliation into slot n+1 and uses the gauge
    t = 0, which keeps the pointed function affine for the result.
    """
    return canonical_structure(pointed_chart(web), point, order, t=None)
