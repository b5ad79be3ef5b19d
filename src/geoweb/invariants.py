"""Residual tests: symmetrized covariant differential, totally-geodesic and
affine-function residuals, and the s-matrix geodesicity criterion.

A foliation omega is totally geodesic for a connection when d^s omega =
theta * omega (symmetric product) for some 1-form theta; a function is
affine when d^s df = 0.  For webs with d >= n+3 foliations the criterion
compares the skew invariants s_ij computed from each extra foliation: the
web is geodesic exactly when they all agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from . import expr
from .connection import ConnectionField, canonical_structure, skew_invariant
from .errors import DegenerateWebPoint, ZeroForm
from .web import WebChart, basis_invariants, normalize_coframe

PASS_FACTOR = 1e-8
FAIL_FACTOR = 1e-3
MAX_EXCLUDED_FRACTION = 0.2
# points per batched call: a batch holds every jet of the pipeline for all
# its points at once, under 20 MB at n = 4, order 3 for this many
MAX_BATCH = 512


@dataclass
class SymResidual:
    """Value of a symmetrized (0,2)-tensor at a point."""
    matrix: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.abs(self.matrix).max())


def sym_covariant_differential(conn: ConnectionField, omega) -> SymResidual:
    """(d^s omega)_ab = (d_a omega_b + d_b omega_a)/2 - sum_c G^c_ab omega_c.

    `omega` is a list of n jets of order >= 1 (coordinate components).
    """
    n = conn.dim
    w = np.array([om.value for om in omega])
    dw = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            dw[a, b] = omega[b].derivative(a).value
    g = conn.gamma_values()
    m = 0.5 * (dw + dw.T) - np.einsum("cab,c->ab", g, w)
    return SymResidual(m)


def residual_scale(omega) -> float:
    """Size of omega and its first derivatives, floored at 1."""
    n = len(omega)
    scale = 1.0
    for b in range(n):
        scale = max(scale, abs(omega[b].value))
        for a in range(n):
            scale = max(scale, abs(omega[b].derivative(a).value))
    return scale


def totally_geodesic_residual(conn: ConnectionField, omega):
    """Least-squares fit d^s omega = (theta omega + omega theta)/2.

    Returns (theta_fit, residual): theta_fit is the n-vector of 1-form
    values, residual the max-norm of the unexplained part.  The fit uses
    normal equations over the n(n+1)/2 upper-triangle equations.
    """
    n = conn.dim
    w = np.array([om.value for om in omega])
    if np.abs(w).max() == 0.0:
        raise ZeroForm("totally-geodesic residual of a vanishing form")
    target = sym_covariant_differential(conn, omega).matrix
    eqs = [(a, b) for a in range(n) for b in range(a, n)]
    A = np.zeros((len(eqs), n))
    m = np.zeros(len(eqs))
    for r, (a, b) in enumerate(eqs):
        for cc in range(n):
            A[r, cc] = 0.5 * ((cc == a) * w[b] + (cc == b) * w[a])
        m[r] = target[a, b]
    theta = np.linalg.solve(A.T @ A, A.T @ m)
    fit = 0.5 * (np.outer(theta, w) + np.outer(w, theta))
    residual = float(np.abs(target - fit).max())
    return theta, residual


def affine_function_residual(conn: ConnectionField, f) -> float:
    """Norm of d^s df for a function given as tree, text, or jet."""
    n = conn.dim
    if isinstance(f, str):
        f = expr.parse_expression(f, n)
    if not hasattr(f, "derivative"):
        f = expr.eval_field(f, conn.point, 2)
    df = [f.derivative(a) for a in range(n)]
    return sym_covariant_differential(conn, df).norm


def foliation_residual(web: WebChart, k: int, conn: ConnectionField):
    """Totally-geodesic data of foliation k (1-based) against `conn`.

    Returns (theta_fit, residual, scale); verdicts compare residual with
    PASS_FACTOR * scale and FAIL_FACTOR * scale.
    """
    fk = web.eval_function(k, conn.point, 2)
    df = [fk.derivative(a) for a in range(web.dim)]
    theta, residual = totally_geodesic_residual(conn, df)
    return theta, residual, residual_scale(df)


def classify(residual: float, scale: float, pass_factor: float = PASS_FACTOR,
             fail_factor: float = FAIL_FACTOR) -> str:
    if residual <= pass_factor * scale:
        return "pass"
    if residual >= fail_factor * scale:
        return "fail"
    return "inconclusive"


@dataclass
class PointRow:
    index: int
    point: np.ndarray
    status: str                 # ok | degenerate
    value: float = float("nan")  # discrepancy or obstruction norm
    scale: float = 1.0
    detail: str = ""


@dataclass
class SampleReport:
    kind: str
    verdict: str                # geodesic/not_geodesic/... | inconclusive
    rows: List[PointRow]
    max_value: float
    excluded_fraction: float
    vacuous: bool = False
    notes: List[str] = field(default_factory=list)
    geodesicity: "SampleReport" = None


def aggregate_rows(kind, rows, verdicts, pass_word, fail_word):
    n_total = len(rows)
    n_excluded = sum(1 for r in rows if r.status != "ok")
    frac = n_excluded / n_total if n_total else 0.0
    values = [r.value for r in rows if r.status == "ok"]
    max_value = max(values) if values else 0.0
    if n_total == 0 or frac > MAX_EXCLUDED_FRACTION:
        verdict = "inconclusive"
    elif "fail" in verdicts:
        verdict = fail_word
    elif verdicts and all(v == "pass" for v in verdicts):
        verdict = pass_word
    else:
        verdict = "inconclusive"
    return SampleReport(kind, verdict, rows, max_value, frac)


def map_sample(measure, points):
    """Apply `measure` to a point sample in as few batched calls as it allows.

    `measure(X)` takes a batch of points (B, n) and returns a tuple of
    results, each with a leading batch axis.  Returns one entry per point,
    in order: the tuple of that point's results, or the DegenerateWebPoint
    it raises on its own.  The sample runs in batches of at most MAX_BATCH
    points.  When a batch raises, the points the error's `rows` mark get
    the error its `detail` gives for them, the text of their single-point
    runs, and the rest runs again as one batch.  So a sample of up to
    MAX_BATCH points costs one batched call plus one for each check that
    excluded some of its points.  Overflow and invalid-value warnings are
    silenced: a point whose results are not finite is left for the caller
    to exclude.
    """
    points = np.asarray(points, dtype=float)
    out = [None] * len(points)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(points), MAX_BATCH):
            idx = np.arange(start, min(start + MAX_BATCH, len(points)))
            while len(idx):
                try:
                    res = measure(points[idx])
                except DegenerateWebPoint as e:
                    if e.rows is None or not np.any(e.rows):
                        raise
                    for b in np.flatnonzero(e.rows):
                        out[idx[b]] = type(e)(e.detail(b))
                    idx = idx[~e.rows]
                    continue
                for i, r in zip(idx, zip(*res)):
                    out[i] = r
                break
    return out


def sample_rows(measure, points, what):
    """PointRows from a `measure` returning (value, scale); see map_sample.

    A point whose value or scale is not finite is excluded as degenerate
    with the detail 'non-finite <what>'.
    """
    rows = []
    for idx, res in enumerate(map_sample(measure, points)):
        pt = np.asarray(points[idx], dtype=float)
        if isinstance(res, DegenerateWebPoint):
            rows.append(PointRow(idx, pt, "degenerate", detail=str(res)))
            continue
        value, scale = float(res[0]), float(res[1])
        if math.isfinite(value) and math.isfinite(scale):
            rows.append(PointRow(idx, pt, "ok", value, scale))
        else:
            rows.append(PointRow(idx, pt, "degenerate",
                                 detail="non-finite " + what))
    return rows


def extra_foliations(web: WebChart, X, order: int = 2):
    """Basis invariants and skew matrices of the foliations n+2..d at the
    points X (B, n): a list of (BasisInvariant, s) pairs in foliation order,
    s[b, i, j] = s_ij at point b.  The checks run foliation by foliation."""
    n = web.dim
    cof = normalize_coframe(web, X, order)
    out = []
    for k in range(n + 2, web.d + 1):
        inv = basis_invariants(cof, web, k)
        smat = np.zeros(X.shape[:-1] + (n, n))
        for i in range(n):
            for j in range(i + 1, n):
                val = skew_invariant(cof, inv, i, j).value
                smat[..., i, j] = val
                smat[..., j, i] = -val
        out.append((inv, smat))
    return out


def geodesicity_test(web: WebChart, points, order: int = 2) -> SampleReport:
    """Compare s_ij across all extra foliations at each sample point.

    Verdict 'geodesic' when every discrepancy max_{i<j,k<l} |s_ij^(k) -
    s_ij^(l)| stays below PASS_FACTOR times the s-scale; an (n+2)-web is
    vacuously geodesic.  The sample runs as one batch (see map_sample).
    """
    vacuous = web.d == web.dim + 2

    def measure(X):
        disc, scale = np.zeros(X.shape[:-1]), np.ones(X.shape[:-1])
        if vacuous:
            return disc, scale
        smats = [smat for _, smat in extra_foliations(web, X, order)]
        for sm in smats:
            scale = np.maximum(scale, np.abs(sm).max(axis=(-2, -1)))
        for a in range(len(smats)):
            for b in range(a + 1, len(smats)):
                disc = np.maximum(disc, np.abs(smats[a] - smats[b]).max(
                    axis=(-2, -1)))
        return disc, scale

    rows = sample_rows(measure, points, "discrepancy")
    verdicts = [classify(r.value, r.scale) for r in rows if r.status == "ok"]
    rep = aggregate_rows("geodesicity", rows, verdicts, "geodesic", "not_geodesic")
    rep.vacuous = vacuous
    if vacuous:
        rep.notes.append("d = n+2: geodesic by construction, no comparisons")
    return rep


def construction_residual_report(web: WebChart, points,
                                 order: int = 3) -> SampleReport:
    """Totally-geodesic residuals of the defining n+2 foliations.

    This is the by-construction check of the canonical connection; the
    verdict is 'geodesic' when every foliation passes at every point.
    """
    rows = []
    verdicts = []
    for idx, pt in enumerate(points):
        pt = np.asarray(pt, dtype=float)
        try:
            st = canonical_structure(web, pt, order)
            worst = 0.0
            status = "pass"
            for k in range(1, web.dim + 3):
                _, resid, scale = foliation_residual(web, k, st.conn)
                worst = max(worst, resid / scale)
                cls = classify(resid, scale)
                if cls == "fail":
                    status = "fail"
                elif cls == "inconclusive" and status == "pass":
                    status = "inconclusive"
            rows.append(PointRow(idx, pt, "ok", worst, 1.0))
            verdicts.append(status)
        except DegenerateWebPoint as e:
            rows.append(PointRow(idx, pt, "degenerate", detail=str(e)))
    return aggregate_rows("construction", rows, verdicts, "geodesic",
                          "not_geodesic")
