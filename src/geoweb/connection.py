"""Canonical connection of a web: theta system, Christoffels, gauge moves.

The skew invariants s_ij derived from the basis invariants of foliation n+2
fix the antisymmetric part of the theta matrix; the free gauge t fixes the
symmetric part.  Together with the frame structure functions they determine
the unique torsion-free connection making every web leaf totally geodesic
(one connection per gauge; different gauges are projectively equivalent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import expr
from .errors import CoincidentInvariants, batch_error
from .jets import Jet, value_array
from .web import (BasisInvariant, NormalizedCoframe, WebChart,
                  basis_invariants, normalize_coframe, pointed_chart)

# relative floor separating a_i = a_j coincidence from round-off
COINCIDENCE_FLOOR = 1e-10


def skew_invariant(cof: NormalizedCoframe, inv: BasisInvariant,
                   i: int, j: int) -> Jet:
    """s_ij = (a_i d_j - a_j d_i) log(a_j / a_i) / (a_i - a_j), frame indices.

    Expanded through logarithmic derivatives so negative a-components are
    fine; only a_i != a_j and a_i, a_j != 0 are required.
    """
    if i == j:
        raise ValueError("skew invariant needs distinct indices")
    if i > j:
        return -skew_invariant(cof, inv, j, i)
    u, v = inv.a[i], inv.a[j]
    u0, v0 = u.value, v.value
    scale = np.maximum(1.0, np.maximum(np.abs(u0), np.abs(v0)))
    close = np.abs(u0 - v0) <= COINCIDENCE_FLOOR * scale
    if np.any(close):
        vals = np.reshape(u0, -1)
        pts = np.reshape(cof.point, (-1, cof.dim))
        raise batch_error(CoincidentInvariants, close, lambda b:
                          "basis invariants a_%d and a_%d coincide (%g) at %s"
                          % (i + 1, j + 1, vals[b], np.array2string(pts[b])))
    r = cof.order - 1
    ut, vt = u.truncate(r), v.truncate(r)
    dj_u, dj_v = cof.frame_derivative(j, u), cof.frame_derivative(j, v)
    di_u, di_v = cof.frame_derivative(i, u), cof.frame_derivative(i, v)
    num = ut * (dj_v / vt - dj_u / ut) - vt * (di_v / vt - di_u / ut)
    return num / (ut - vt)


@dataclass
class ThetaSystem:
    """theta_i = sum_j theta[i][j] omega_j; t is the symmetric gauge."""
    t: list                    # n jets
    s: list                    # n x n jets, s[i][j] = -s[j][i]
    theta: list                # n x n jets, theta[i][j] = t[j] + s[i][j]
    thetaN2: list              # n jets: theta of foliation n+2 in the omega basis


def theta_system(cof: NormalizedCoframe, inv: BasisInvariant,
                 t: Optional[list] = None) -> ThetaSystem:
    n = cof.dim
    r = cof.order - 1
    if t is None:
        t = [Jet.constant(0.0, n, r) for _ in range(n)]
    else:
        t = [ti.truncate(r) if isinstance(ti, Jet)
             else Jet.constant(float(ti), n, r) for ti in t]
    zero = Jet.constant(0.0, n, r)
    s = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            sij = skew_invariant(cof, inv, i, j)
            s[i][j] = sij
            s[j][i] = -sij
    theta = [[t[j] + s[i][j] for j in range(n)] for i in range(n)]
    thetaN2 = []
    for i in range(n):
        da = cof.frame_derivative(i, inv.a[i])
        thetaN2.append(t[i] + da / inv.a[i].truncate(r))
    return ThetaSystem(t, s, theta, thetaN2)


@dataclass
class ConnectionField:
    """Christoffel data at one point (n,) or a batch of points (B, n), jet-valued.

    gamma[c][a][b] are coordinate symbols (symmetric in a, b);
    frame_gamma[k][p][q] are frame symbols with q the derivative direction
    (nabla_{e_q} e_p = sum_k frame_gamma[k][p][q] e_k).  frame/frame_gamma
    are None for connections not built from a web coframe.
    """
    point: np.ndarray
    order: int
    gamma: list
    frame_gamma: Optional[list] = None
    frame: Optional[list] = None

    @property
    def dim(self) -> int:
        return len(self.gamma)

    def gamma_values(self) -> np.ndarray:
        """Value parts G[c, a, b]: shape (n, n, n), or (B, n, n, n)."""
        n = self.dim
        return value_array(self.gamma, (n, n, n))


def canonical_christoffels(cof: NormalizedCoframe,
                           theta: ThetaSystem) -> ConnectionField:
    """Frame Christoffels from the theta system, then coordinate symbols."""
    n = cof.dim
    r = cof.order - 1
    c = cof.c
    th = theta.theta
    fg = [[[None] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for p in range(n):
            for q in range(n):
                if p == k and q == k:
                    fg[k][k][k] = -th[k][k]
                elif q == k:
                    fg[k][p][k] = (c[k][k][p] - th[k][p]) * 0.5
                elif p == k:
                    fg[k][k][q] = (c[k][q][k] - th[k][q]) * 0.5
                else:
                    fg[k][p][q] = c[k][q][p] * 0.5

    E = cof.frame
    Et = [[E[i][a].truncate(r) for a in range(n)] for i in range(n)]
    Wt = [[cof.omega[i][a].truncate(r) for a in range(n)] for i in range(n)]
    H = [[[None] * n for _ in range(n)] for _ in range(n)]
    for cc in range(n):
        for i in range(n):
            for j in range(n):
                acc = fg[0][j][i] * Et[0][cc]
                for k in range(1, n):
                    acc = acc + fg[k][j][i] * Et[k][cc]
                H[cc][i][j] = acc - cof.frame_derivative(i, E[j][cc])
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for cc in range(n):
        for a in range(n):
            for b in range(n):
                acc = None
                for i in range(n):
                    for j in range(n):
                        term = Wt[i][a] * Wt[j][b] * H[cc][i][j]
                        acc = term if acc is None else acc + term
                gamma[cc][a][b] = acc
    return ConnectionField(cof.point, r, gamma, fg, E)


@dataclass
class GaugeForm:
    """1-form values at a point (coordinate components)."""
    rho: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)


def projective_gauge_change(conn: ConnectionField, rho) -> ConnectionField:
    """Shift gamma'^c_ab = gamma^c_ab + delta^c_a rho_b + delta^c_b rho_a."""
    n = conn.dim
    comps = rho.rho if isinstance(rho, GaugeForm) else rho
    rj = []
    for comp in comps:
        if isinstance(comp, Jet):
            rj.append(comp.truncate(conn.order)
                      if comp.order > conn.order else comp)
        else:
            rj.append(Jet.constant(float(comp), n, conn.order))
    gamma = [[[conn.gamma[c][a][b] for b in range(n)] for a in range(n)]
             for c in range(n)]
    for c in range(n):
        for b in range(n):
            gamma[c][c][b] = gamma[c][c][b] + rj[b]
        for a in range(n):
            gamma[c][a][c] = gamma[c][a][c] + rj[a]
    frame_gamma = None
    if conn.frame_gamma is not None and conn.frame is not None:
        rho_frame = []
        for i in range(n):
            acc = None
            for a in range(n):
                ea = conn.frame[i][a]
                ea = ea.truncate(conn.order) if ea.order > conn.order else ea
                term = ea * rj[a]
                acc = term if acc is None else acc + term
            rho_frame.append(acc)
        frame_gamma = [[[conn.frame_gamma[k][p][q] for q in range(n)]
                        for p in range(n)] for k in range(n)]
        for k in range(n):
            for q in range(n):
                frame_gamma[k][k][q] = frame_gamma[k][k][q] + rho_frame[q]
            for p in range(n):
                frame_gamma[k][p][k] = frame_gamma[k][p][k] + rho_frame[p]
    return ConnectionField(conn.point, conn.order, gamma, frame_gamma,
                           conn.frame)


def projective_equivalence_check(conn_a: ConnectionField,
                                 conn_b: ConnectionField,
                                 tol: float = 1e-9):
    """Test whether two connections differ by a projective gauge shift.

    Works on value parts at one point; returns (is_equivalent, GaugeForm,
    residual) with rho_b = (G_B - G_A)^m_mb / (n + 1).
    """
    if conn_a.point.ndim != 1 or conn_b.point.ndim != 1:
        raise ValueError("projective_equivalence_check takes connections "
                         "at one point, not a batch")
    n = conn_a.dim
    diff = conn_b.gamma_values() - conn_a.gamma_values()
    rho = np.array([diff[:, :, b].trace() for b in range(n)]) / (n + 1)
    resid = 0.0
    for c in range(n):
        for a in range(n):
            for b in range(n):
                pred = (rho[b] if c == a else 0.0) + (rho[a] if c == b else 0.0)
                resid = max(resid, abs(diff[c, a, b] - pred))
    return resid <= tol, GaugeForm(rho), resid


@dataclass
class CanonicalStructure:
    """Everything built at one point or batch: coframe, invariants, theta,
    connection."""
    cof: NormalizedCoframe
    invariant: BasisInvariant
    theta: ThetaSystem
    conn: ConnectionField


def _resolve_gauge(t, point, n, order):
    if t is None:
        return None
    out = []
    for ti in t:
        if isinstance(ti, Jet):
            out.append(ti)
        elif isinstance(ti, str):
            out.append(expr.eval_field(expr.parse_expression(ti, n),
                                       point, order))
        elif isinstance(ti, (int, float)):
            out.append(float(ti))
        else:  # parsed expression tree
            out.append(expr.eval_field(ti, point, order))
    return out


def canonical_structure(web: WebChart, point, order: int = 3,
                        t=None) -> CanonicalStructure:
    """Canonical connection of the (n+2)-subweb f_1..f_{n+2}.

    `point` is one point (n,) or a batch of points (B, n); every jet of the
    result then has coefficients (count,) or (count, B), and a batch
    column equals the structure at its point bit for bit.  `order` is the
    jet order of the web functions; the connection comes out
    with jets of order `order - 2`.  `t` is the symmetric gauge: None for
    t = 0, else n entries (jets, numbers, or expression text/trees).
    """
    point = np.asarray(point, dtype=float)
    cof = normalize_coframe(web, point, order)
    inv = basis_invariants(cof, web, web.dim + 2)
    tj = _resolve_gauge(t, point, web.dim, max(order - 2, 0))
    theta = theta_system(cof, inv, tj)
    conn = canonical_christoffels(cof, theta)
    return CanonicalStructure(cof, inv, theta, conn)


def pointed_affine_connection(web: WebChart, point,
                              order: int = 3) -> CanonicalStructure:
    """Affine connection of the web pointed at web.pointed (default n+1).

    Re-indexes the pointed foliation into slot n+1 and uses the gauge
    t = 0, which keeps the pointed function affine for the result.
    """
    return canonical_structure(pointed_chart(web), point, order, t=None)


def gamma_evaluator(web: WebChart, t=None, order: int = 2):
    """Point -> coordinate Christoffel values, for geodesic integration."""
    def evaluate(x):
        return canonical_structure(web, x, order, t).conn.gamma_values()
    return evaluate
