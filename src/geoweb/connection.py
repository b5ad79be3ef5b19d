"""Canonical connection of a web: theta system and Christoffels.

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

from typing import Optional

import numpy as np

from . import expr
from .jets import (Jet, directional_derivative, grid, ordered_sum, skew_upper,
                   stack, where)
from .web import (NormalizedCoframe, WebChart, basis_invariants,
                  check_coincidence, normalize_coframe, skew_formula)


def skew_invariant(cof: NormalizedCoframe, a: Jet, i, j) -> Jet:
    """s_ij = (a_i d_j - a_j d_i) log(a_j / a_i) / (a_i - a_j), frame indices.

    Expanded through logarithmic derivatives so negative a-components are
    fine; only a_i != a_j and a_i, a_j != 0 are required.  `a` is the
    basis-invariant jet of one foliation.  i and j may be equal-length
    index arrays with i < j; the result then has their shape.
    """
    i, j = np.asarray(i), np.asarray(j)
    if np.any(i == j):
        raise ValueError("skew invariant needs distinct indices")
    if i.ndim == 0 and i > j:
        return -skew_invariant(cof, a, j, i)
    check_coincidence(a.coeffs[0][i], a.coeffs[0][j], i, j, cof.point)
    r = cof.order - 1
    d = directional_derivative(a, cof.frame)   # d[p][q] = D_p a_q
    u, v = a[i].truncate(r), a[j].truncate(r)
    return skew_formula(u, v, d[i, i] / u, d[i, j] / v, d[j, i] / u,
                        d[j, j] / v)


def skew_matrix(cof: NormalizedCoframe, a: Jet) -> Jet:
    """All skew invariants of the foliation with basis invariants `a`: the
    antisymmetric (n, n) jet s[i][j] = s_ij, with the coincidence checks
    run pair by pair."""
    i, j = grid(cof.dim, 2)
    upper = np.nonzero(i < j)
    pair = np.zeros(i.shape, dtype=np.intp)
    pair[upper] = np.arange(len(upper[0]))
    return skew_upper(skew_invariant(cof, a, *upper)[pair])


def extra_foliations(cof: NormalizedCoframe, web: WebChart) -> list:
    """The one reader of the foliations n+2..d: a list, in foliation order,
    of (a, s) jet pairs on the coframe `cof`, a the basis invariants
    (order cof.order) and s the `skew_matrix` of a (one order less).  The
    checks run foliation by foliation, vanishing a then coincidence."""
    out = []
    for k in range(web.dim + 2, web.d + 1):
        a = basis_invariants(cof, web, k)
        out.append((a, skew_matrix(cof, a)))
    return out


def theta_system(cof: NormalizedCoframe, s: Jet,
                 t: Optional[list] = None) -> Jet:
    """theta_i = sum_j theta[i][j] omega_j: the (n, n) jet theta[i][j] =
    t[j] + s[i][j] from the skew matrix s of foliation n+2 (as
    `extra_foliations` gives it) and the symmetric gauge t (None for
    t = 0)."""
    r = cof.order - 1
    t = (Jet.constant(np.zeros(cof.dim), cof.dim, r) if t is None
         else stack([ti.truncate(r) for ti in t]))
    return t + s


class ConnectionField:
    """Christoffel data at one point (n,) or a batch of points (B, n), jet-valued.

    gamma[c][a][b] are coordinate symbols (symmetric in a, b);
    frame_gamma[k][p][q] are frame symbols with q the derivative direction
    (nabla_{e_q} e_p = sum_k frame_gamma[k][p][q] e_k).
    """

    def __init__(self, point: np.ndarray, order: int, gamma: Jet,
                 frame_gamma: Jet, frame: Jet):
        self.point = point
        self.order = order
        self.gamma = gamma              # (n, n, n)
        self.frame_gamma = frame_gamma  # (n, n, n)
        self.frame = frame              # (n, n), as in the coframe

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    def gamma_values(self) -> np.ndarray:
        """Value parts G[c, a, b]: shape (n, n, n), or (B, n, n, n)."""
        return self.gamma.value


def canonical_christoffels(cof: NormalizedCoframe,
                           theta: Jet) -> ConnectionField:
    """Frame and coordinate symbols from the theta jet of `theta_system`
    by the closed form of the module docstring."""
    n = cof.dim
    r = cof.order - 1
    lam = cof.lam.truncate(r)
    # L[j][i] = D_i log lam_j, Q = (L - theta) / 2 and K[j][a] = Q[j][i] W_ia
    L = (directional_derivative(cof.lam, cof.frame).transpose()
         / lam[:, None])
    Q = (L - theta) * 0.5
    Wt = cof.omega.truncate(r)
    K = ordered_sum(Q[:, i, None] * Wt[i] for i in range(n))
    k, p, q = grid(n, 3)
    fg = where(q == k, Q[k, p], 0.0)
    fg = where(p == k, Q[k, q] - L[k, q], fg)
    fg = where((p == k) & (q == k), -theta[k, k], fg)
    # T[j][a][b] = lam_j d_a d_b f_j + W_ja K_jb + K_ja W_jb, and
    # gamma[c][a][b] = sum over j in order of E_j^c T[j][a][b]
    P = K[:, None] * Wt[:, :, None]
    T = lam[:, None, None] * cof.hess + (P + P.transpose(0, 2, 1))
    Et = cof.frame.truncate(r)
    gamma = ordered_sum(Et[j][:, None, None] * T[j] for j in range(n))
    return ConnectionField(cof.point, r, gamma, fg, cof.frame)


class CanonicalStructure:
    """Everything built at one point or batch: coframe, theta, connection,
    and the (a, s) pairs of foliations n+2..d that `extra_foliations`
    reads on that coframe."""

    def __init__(self, cof: NormalizedCoframe, theta: Jet,
                 conn: ConnectionField, foliations: list):
        self.cof = cof
        self.theta = theta      # (n, n), as theta_system returns it
        self.conn = conn
        self.foliations = foliations    # foliations[k - n - 2] = (a, s)


def canonical_structure(web: WebChart, point, order: int = 3,
                        t=None) -> CanonicalStructure:
    """Canonical connection of the (n+2)-subweb f_1..f_{n+2}, with the
    invariants of every foliation past n+1.

    `point` is one point (n,) or a batch of points (B, n); every jet of the
    result then has coefficients (count,) or (count, B), and a batch
    column equals the structure at its point bit for bit.  `order` is the
    jet order of the web functions; the connection comes out
    with jets of order `order - 2`.  `t` is the symmetric gauge: None for
    t = 0, else n expression texts.  Each web function is expanded once,
    and a point where any foliation n+2..d is out of general position
    raises the error `check` excludes it with.
    """
    point = np.asarray(point, dtype=float)
    cof = normalize_coframe(web, point, order)
    foliations = extra_foliations(cof, web)
    if t is not None:
        t = [expr.eval_field(expr.parse_expression(ti, web.dim), point,
                             order - 2) for ti in t]
    theta = theta_system(cof, foliations[0][1], t)
    conn = canonical_christoffels(cof, theta)
    return CanonicalStructure(cof, theta, conn, foliations)
