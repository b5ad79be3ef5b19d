"""The s-matrix geodesicity criterion over point samples, and the sample
reports the commands print.

For webs with d >= n+3 foliations the criterion compares the skew
invariants s_ij computed from each extra foliation: the web is geodesic
exactly when they all agree.  The residuals of the totally-geodesic and
affine-function equations, which the tests hold the connection to, are in
the tests' `oracles` module.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional

import numpy as np

from .connection import skew_matrix
from .errors import DegenerateWebPoint
from .jets import n_coeffs
from .web import WebChart, basis_invariants, normalize_coframe

PASS_FACTOR = 1e-8
FAIL_FACTOR = 1e-3
MAX_EXCLUDED_FRACTION = 0.2
# jet coefficients per batched call, points x n_coeffs(n, order): a batch
# holds every jet of the pipeline for all its points at once.  `linearize
# --random 10000` on xy4 / mixed3 / web4 (546 / 409 / 234 points a batch)
# took 0.6 / 1.0 / 2.8 s at 45 / 49 / 52 MB peak RSS; twice this cap was
# no faster at 52-64 MB, half of it 12 % slower at n = 4
MAX_BATCH = 8192


def classify(residual: float, scale: float, pass_factor: float = PASS_FACTOR,
             fail_factor: float = FAIL_FACTOR) -> str:
    if residual <= pass_factor * scale:
        return "pass"
    if residual >= fail_factor * scale:
        return "fail"
    return "inconclusive"


class PointRow:
    def __init__(self, index: int, point: np.ndarray, status: str,
                 value: float = float("nan"), scale: float = 1.0,
                 detail: str = ""):
        self.index = index
        self.point = point
        self.status = status    # ok | degenerate
        self.value = value      # discrepancy or obstruction norm
        self.scale = scale
        self.detail = detail


class SampleReport:
    def __init__(self, kind: str, verdict: str, rows: List[PointRow],
                 max_value: Optional[float], excluded_fraction: float):
        self.kind = kind
        self.verdict = verdict  # geodesic/not_geodesic/... | inconclusive
        self.rows = rows
        self.max_value = max_value  # None when no point was evaluated
        self.excluded_fraction = excluded_fraction
        self.vacuous = False
        self.notes: List[str] = []
        self.geodesicity: Optional[SampleReport] = None


def aggregate_rows(kind, rows, verdicts, pass_word, fail_word):
    n_total = len(rows)
    n_excluded = sum(1 for r in rows if r.status != "ok")
    frac = n_excluded / n_total if n_total else 0.0
    values = [r.value for r in rows if r.status == "ok"]
    max_value = max(values) if values else None
    if n_total == 0 or frac > MAX_EXCLUDED_FRACTION:
        verdict = "inconclusive"
    elif "fail" in verdicts:
        verdict = fail_word
    elif verdicts and all(v == "pass" for v in verdicts):
        verdict = pass_word
    else:
        verdict = "inconclusive"
    return SampleReport(kind, verdict, rows, max_value, frac)


def map_sample(measure, points, order=0):
    """Apply `measure` to a point sample in as few batched calls as it allows.

    `measure(X)` takes a batch of points (B, n) and returns a tuple of
    results, each with a leading batch axis.  Returns one entry per point,
    in order: the tuple of that point's results, or the DegenerateWebPoint
    it raises on its own.  The sample runs in batches of at most
    MAX_BATCH // n_coeffs(n, order) points, `order` being the jet order
    `measure` expands the web to.  When a batch raises, the points the
    error's `rows` mark get the error its `detail` gives for them, the
    text of their single-point runs, and the rest runs again as one batch.
    So a sample that fits one batch costs one batched call plus one for
    each check that excluded some of its points.  Overflow and
    invalid-value warnings are silenced: a point whose results are not
    finite is left for the caller to exclude.
    """
    points = np.asarray(points, dtype=float)
    out = [None] * len(points)
    size = max(1, MAX_BATCH // n_coeffs(points.shape[-1], order))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(points), size):
            idx = np.arange(start, min(start + size, len(points)))
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


def checked_results(measure, points, order, names):
    """map_sample with the results made floats: per point, (results, "")
    or, for a point it excludes, (None, detail).  A point whose result m is
    not finite is excluded as 'non-finite <names[m]>', for its first such
    result."""
    for res in map_sample(measure, points, order):
        if isinstance(res, DegenerateWebPoint):
            yield None, str(res)
            continue
        res = [float(x) for x in res]
        bad = next((w for w, x in zip(names, res) if not math.isfinite(x)),
                   None)
        yield (res, "") if bad is None else (None, "non-finite " + bad)


def sample_rows(measure, points, what, order):
    """One list of PointRows per name in `what`, from a `measure` returning
    a (value, scale) pair for each, one after the other; a point is
    excluded from every list alike (see checked_results)."""
    lists = [[] for _ in what]
    names = [w for w in what for _ in range(2)]
    for idx, (res, detail) in enumerate(checked_results(measure, points,
                                                        order, names)):
        pt = np.asarray(points[idx], dtype=float)
        for m, rows in enumerate(lists):
            rows.append(PointRow(idx, pt, "degenerate", detail=detail)
                        if res is None else
                        PointRow(idx, pt, "ok", *res[2 * m:2 * m + 2]))
    return lists


def extra_foliations(web: WebChart, X, order: int = 2):
    """Basis invariants and skew matrices of the foliations n+2..d at the
    points X (B, n): a list of (BasisInvariant, s) pairs in foliation order,
    s[b, i, j] = s_ij at point b.  The checks run foliation by foliation."""
    n = web.dim
    cof = normalize_coframe(web, X, order)
    out = []
    for k in range(n + 2, web.d + 1):
        inv = basis_invariants(cof, web, k)
        out.append((inv, skew_matrix(cof, inv).value))
    return out


def skew_discrepancy(smats):
    """Discrepancy max_{k<l} |s^(k) - s^(l)| and s-scale max(1, |s^(k)|)
    over the entries of the skew matrices s[b, i, j] of two or more
    foliations, one value per point."""
    disc, scale = np.zeros(smats[0].shape[:-2]), np.ones(smats[0].shape[:-2])
    for sm in smats:
        scale = np.maximum(scale, np.abs(sm).max(axis=(-2, -1)))
    for a, b in itertools.combinations(smats, 2):
        disc = np.maximum(disc, np.abs(a - b).max(axis=(-2, -1)))
    return disc, scale


def geodesicity_test(web: WebChart, points, order: int = 2) -> SampleReport:
    """Compare s_ij across all extra foliations at each sample point.

    Verdict 'geodesic' when every discrepancy max_{i<j,k<l} |s_ij^(k) -
    s_ij^(l)| stays below PASS_FACTOR times the s-scale; an (n+2)-web is
    vacuously geodesic.  The sample runs as one batch (see map_sample).
    """
    vacuous = web.d == web.dim + 2

    def measure(X):
        if vacuous:
            return np.zeros(X.shape[:-1]), np.ones(X.shape[:-1])
        return skew_discrepancy([smat for _, smat in
                                 extra_foliations(web, X, order)])

    rows, = sample_rows(measure, points, ("discrepancy",), order)
    verdicts = [classify(r.value, r.scale) for r in rows if r.status == "ok"]
    rep = aggregate_rows("geodesicity", rows, verdicts, "geodesic", "not_geodesic")
    rep.vacuous = vacuous
    if vacuous:
        rep.notes.append("d = n+2: geodesic by construction, no comparisons")
    return rep
