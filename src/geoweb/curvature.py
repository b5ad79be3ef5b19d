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

from .connection import ConnectionField, canonical_structure
from .errors import OrderExhausted
from .invariants import (FAIL_FACTOR, SampleReport, aggregate_rows, classify,
                         geodesicity_test, sample_rows)
from .jets import Jet, value_array
from .web import WebChart

LINEARIZABLE_PASS_FACTOR = 1e-7


def riemann(conn: ConnectionField):
    """Jet-valued R^i_jkl = d_k G^i_lj - d_l G^i_kj + G G - G G terms."""
    n = conn.dim
    if conn.order < 1:
        raise OrderExhausted(
            "curvature needs connection jets of order >= 1, have %d"
            % conn.order)
    g = conn.gamma
    r = conn.order - 1
    gt = [[[g[c][a][b].truncate(r) for b in range(n)] for a in range(n)]
          for c in range(n)]
    R = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    zero = Jet.constant(0.0, n, r)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(k, n):
                    if l == k:
                        R[i][j][k][k] = zero
                        continue
                    term = g[i][l][j].derivative(k) - g[i][k][j].derivative(l)
                    for m in range(n):
                        term = term + (gt[i][k][m] * gt[m][l][j]
                                       - gt[i][l][m] * gt[m][k][j])
                    R[i][j][k][l] = term
                    R[i][j][l][k] = -term
    return R


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
    ric = [[None] * n for _ in range(n)]
    for j in range(n):
        for l in range(n):
            acc = R[0][j][0][l]
            for i in range(1, n):
                acc = acc + R[i][j][i][l]
            ric[j][l] = acc
    P = [[(n * ric[j][l] + ric[l][j]) / (n * n - 1.0) for l in range(n)]
         for j in range(n)]
    Rv = value_array(R, (n, n, n, n))
    ricv = value_array(ric, (n, n))
    Pv = value_array(P, (n, n))
    batch = conn.point.shape[:-1]
    weyl = cotton = None
    if n >= 3:
        weyl = np.empty(Rv.shape)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        # a copy: for a batch the entry is a view into Rv
                        w = Rv[..., i, j, k, l].copy()
                        if i == k:
                            w -= Pv[..., j, l]
                        if i == l:
                            w += Pv[..., j, k]
                        if i == j:
                            w -= Pv[..., k, l] - Pv[..., l, k]
                        weyl[..., i, j, k, l] = w
    else:
        ro = conn.order - 1   # jet order of P
        if ro < 1:
            raise OrderExhausted(
                "the n = 2 obstruction needs connection jets of order >= 2")
        g = conn.gamma
        gt = [[[g[c][a][b].truncate(ro - 1) for b in range(n)]
               for a in range(n)] for c in range(n)]
        Pt = [[P[j][l].truncate(ro - 1) for l in range(n)] for j in range(n)]

        def nabla(k, j, l):
            acc = P[j][l].derivative(k)
            for m in range(n):
                acc = acc - gt[m][k][j] * Pt[m][l] - gt[m][k][l] * Pt[j][m]
            return acc

        cotton = np.zeros(batch + (n, n, n))
        for j in range(n):
            for k in range(n):
                for l in range(k + 1, n):
                    y = (nabla(k, j, l) - nabla(l, j, k)).value
                    cotton[..., j, k, l] = y
                    cotton[..., j, l, k] = -y
    return CurvaturePack(conn.point, Rv, ricv, Pv, weyl, cotton)


def linearizability_verdict(web: WebChart, points,
                            order: Optional[int] = None) -> SampleReport:
    """Geodesicity plus obstruction-vanishing test over a point sample.

    Verdict 'linearizable' when the web is geodesic and the obstruction
    norm stays below 1e-7 times the curvature scale at every admissible
    point; 'not_linearizable' when geodesicity fails or the obstruction
    exceeds 1e-3 times the scale.
    """
    n = web.dim
    if order is None:
        order = 4 if n == 2 else 3
    geo = geodesicity_test(web, points) if web.d > n + 2 else None

    def measure(X):
        pack = projective_pack(canonical_structure(web, X, order).conn)
        return pack.obstruction_norm(), pack.scale()

    rows = sample_rows(measure, points, "obstruction")
    verdicts = [classify(r.value, r.scale, LINEARIZABLE_PASS_FACTOR,
                         FAIL_FACTOR) for r in rows if r.status == "ok"]
    rep = aggregate_rows("linearizability", rows, verdicts, "linearizable",
                         "not_linearizable")
    rep.geodesicity = geo
    if geo is not None:
        rep.notes.append("geodesicity: %s" % geo.verdict)
        if geo.verdict == "not_geodesic":
            rep.verdict = "not_linearizable"
        elif geo.verdict == "inconclusive" and rep.verdict == "linearizable":
            rep.verdict = "inconclusive"
    return rep
