"""Curvature tensors and the linearizability obstruction.

The canonical connection of a geodesic web is projectively flat exactly
when the web is locally a web of hyperplanes.  Projective flatness is
measured by the Weyl tensor for n >= 3 and by the third-order Cotton-type
obstruction for n = 2; both vanish on the whole projective class of a flat
connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .connection import ConnectionField, canonical_structure, skew_matrix
from .errors import OrderExhausted
from .invariants import (FAIL_FACTOR, SampleReport, aggregate_rows, classify,
                         sample_rows, skew_discrepancy)
from .jets import Jet, grid, ordered_sum, skew_upper
from .web import WebChart, basis_invariants

LINEARIZABLE_PASS_FACTOR = 1e-7


def riemann(conn: ConnectionField) -> Jet:
    """Jet-valued R^i_jkl = d_k G^i_lj - d_l G^i_kj + G G - G G terms."""
    n = conn.dim
    if conn.order < 1:
        raise OrderExhausted(
            "curvature needs connection jets of order >= 1, have %d"
            % conn.order)
    gt = conn.gamma.truncate(conn.order - 1)
    dg = conn.gamma.derivatives()      # dg[c][a][b][x] = d_x G^c_ab
    i, j, k, l = grid(n, 4)
    R = dg[i, l, j, k] - dg[i, k, j, l]
    for m in range(n):
        R = R + (gt[i, k, m] * gt[m, l, j] - gt[i, l, m] * gt[m, k, j])
    return skew_upper(R)


@dataclass
class CurvaturePack:
    """Curvature values at a point; weyl for n >= 3, cotton for n = 2.

    For a batch of points (B, n) every array gains a leading batch axis and
    `obstruction_norm` and `scale` give one value per row.
    """
    point: np.ndarray
    riemann: np.ndarray         # (n, n, n, n)
    ricci: np.ndarray           # (n, n)
    schouten: np.ndarray        # (n, n)
    weyl: Optional[np.ndarray]
    cotton: Optional[np.ndarray]

    def _row_max(self, arr, axes, floor=0.0):
        # max(floor, |entries|) over the trailing `axes` axes: a float at a
        # point, one value per row for a batch
        m = np.maximum(floor, np.abs(arr).reshape(
            arr.shape[:arr.ndim - axes] + (-1,)).max(-1))
        return float(m) if self.point.ndim == 1 else m

    def obstruction_norm(self):
        if self.weyl is not None:
            return self._row_max(self.weyl, 4)
        return self._row_max(self.cotton, 3)

    def scale(self):
        return self._row_max(self.riemann, 4, floor=1.0)


def projective_pack(conn: ConnectionField) -> CurvaturePack:
    """Ricci, projective Schouten, and the flatness obstruction.

    For n = 2 the obstruction is Y_jkl = nabla_k P_jl - nabla_l P_jk, which
    needs connection jets of order >= 2 (one more derivative than Weyl).
    """
    n = conn.dim
    R = riemann(conn)
    ric = ordered_sum(R[i, :, i] for i in range(n))
    P = (n * ric + ric.transpose()) / (n * n - 1.0)
    weyl = cotton = None
    if n >= 3:
        Rv, Pv = R.value, P.value
        i, j, k, l = grid(n, 4)
        weyl = np.where(i == k, Rv - Pv[..., j, l], Rv)
        weyl = np.where(i == l, weyl + Pv[..., j, k], weyl)
        weyl = np.where(i == j, weyl - (Pv[..., k, l] - Pv[..., l, k]), weyl)
    else:
        ro = conn.order - 1   # jet order of P
        if ro < 1:
            raise OrderExhausted(
                "the n = 2 obstruction needs connection jets of order >= 2")
        gt = conn.gamma.truncate(ro - 1)
        Pt = P.truncate(ro - 1)
        dP = P.derivatives()           # dP[j][l][k] = d_k P_jl
        k, j, l = grid(n, 3)
        # N[k][j][l] = nabla_k P_jl
        N = dP[j, l, k]
        for m in range(n):
            N = N - gt[m, k, j] * Pt[m, l] - gt[m, k, l] * Pt[j, m]
        j, k, l = grid(n, 3)
        cotton = skew_upper(N[k, j, l] - N[l, j, k]).value
    return CurvaturePack(conn.point, R.value, ric.value, P.value, weyl,
                         cotton)


def linearizability_verdict(web: WebChart, points,
                            order: Optional[int] = None) -> SampleReport:
    """Geodesicity plus obstruction-vanishing test over a point sample.

    Verdict 'linearizable' when the web is geodesic and the obstruction
    norm stays below 1e-7 times the curvature scale at every admissible
    point; 'not_linearizable' when geodesicity fails or the obstruction
    exceeds 1e-3 times the scale.  On a web with d > n+2 foliations the
    geodesicity discrepancy comes from the same structures: one pass, one
    exclusion list.
    """
    n = web.dim
    if order is None:
        order = 4 if n == 2 else 3
    extra = web.d > n + 2

    def measure(X):
        st = canonical_structure(web, X, order)
        # foliation n+2's skew matrix is theta's s; the others read only
        # values, which the coframe at order 1 gives bit for bit
        smats = [st.theta.s.value]
        if extra:
            low = st.cof.truncate(1)
            smats += [skew_matrix(low, basis_invariants(low, web, k)).value
                      for k in range(n + 3, web.d + 1)]
        pack = projective_pack(st.conn)
        return ((pack.obstruction_norm(), pack.scale())
                + (skew_discrepancy(smats) if extra else ()))

    what = ("obstruction", "discrepancy") if extra else ("obstruction",)
    rows, *geo_rows = sample_rows(measure, points, what, order)
    verdicts = [classify(r.value, r.scale, LINEARIZABLE_PASS_FACTOR,
                         FAIL_FACTOR) for r in rows if r.status == "ok"]
    rep = aggregate_rows("linearizability", rows, verdicts, "linearizable",
                         "not_linearizable")
    if extra:
        geo = rep.geodesicity = aggregate_rows(
            "geodesicity", geo_rows[0], [classify(r.value, r.scale) for r in
                                         geo_rows[0] if r.status == "ok"],
            "geodesic", "not_geodesic")
        rep.notes.append("geodesicity: %s" % geo.verdict)
        if geo.verdict == "not_geodesic":
            rep.verdict = "not_linearizable"
        elif geo.verdict == "inconclusive" and rep.verdict == "linearizable":
            rep.verdict = "inconclusive"
    return rep
