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

from .connection import extra_foliations
from .errors import DegenerateWebPoint
from .jets import n_coeffs
from .web import WebChart, normalize_coframe, projective_class

PASS_FACTOR = 1e-8
FAIL_FACTOR = 1e-3
MAX_EXCLUDED_FRACTION = 0.2
# jet coefficients per batched call, points x n_coeffs(n, order): a batch
# holds every jet of the pipeline for all its points at once.  `linearize
# --random 10000` on xy4 / mixed3 / web4 (546 / 409 / 234 points a batch)
# took 0.6 / 1.0 / 2.8 s at 45 / 49 / 52 MB peak RSS; twice this cap was
# no faster at 52-64 MB, half of it 12 % slower at n = 4
MAX_BATCH = 8192


def classify(residual: float, scale: float,
             pass_factor: float = PASS_FACTOR) -> str:
    """'pass' at most pass_factor times the scale, 'fail' at least
    FAIL_FACTOR times it, 'inconclusive' between."""
    if residual <= pass_factor * scale:
        return "pass"
    if residual >= FAIL_FACTOR * scale:
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
    def __init__(self, verdict: str, rows: List[PointRow],
                 max_value: Optional[float], excluded_fraction: float):
        self.verdict = verdict  # geodesic/not_geodesic/... | inconclusive
        self.rows = rows
        self.max_value = max_value  # None when no point was evaluated
        self.excluded_fraction = excluded_fraction
        self.notes: List[str] = []


def aggregate_rows(rows, pass_word, fail_word, pass_factor=PASS_FACTOR):
    """The SampleReport of a sample's PointRows, with their verdict, the
    largest evaluated value and the excluded fraction.  `classify` at
    `pass_factor` gives each evaluated row's class; the verdict is
    `fail_word` if any row fails, `pass_word` if every row passes,
    'inconclusive' otherwise, and also when the sample is empty or more
    than MAX_EXCLUDED_FRACTION of it was excluded."""
    n_total = len(rows)
    ok = [r for r in rows if r.status == "ok"]
    frac = (n_total - len(ok)) / n_total if n_total else 0.0
    verdicts = [classify(r.value, r.scale, pass_factor) for r in ok]
    max_value = max((r.value for r in ok), default=None)
    if n_total == 0 or frac > MAX_EXCLUDED_FRACTION:
        verdict = "inconclusive"
    elif "fail" in verdicts:
        verdict = fail_word
    elif verdicts and all(v == "pass" for v in verdicts):
        verdict = pass_word
    else:
        verdict = "inconclusive"
    return SampleReport(verdict, rows, max_value, frac)


def map_sample(measure, points, order, names):
    """Apply `measure` to a point sample in as few batched calls as it
    allows, and exclude the points it cannot measure.

    `measure(X)` takes a batch of points (B, n) and returns a tuple of
    results, each with a leading batch axis; names[m] names result m.
    Returns one entry per point, in order: (its results as floats, "") or,
    for a point it excludes, (None, detail).  A point is excluded with the
    detail of the DegenerateWebPoint it raises, the text of its
    single-point run, or, where its results are not all finite, as
    'non-finite <names[m]>' for its first such result m.  The sample runs
    in batches of at most MAX_BATCH // n_coeffs(n, order) points, `order`
    being the jet order `measure` expands the web to.  When a batch
    raises, the points the error's `rows` mark take its `detail` and the
    rest runs again as one batch.  So a sample that fits one batch costs
    one batched call plus one for each check that excluded some of its
    points.  Overflow and invalid-value warnings are silenced.
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
                        out[idx[b]] = None, e.detail(b)
                    idx = idx[~e.rows]
                    continue
                for i, r in zip(idx, zip(*res)):
                    r = [float(x) for x in r]
                    bad = next((m for m, x in enumerate(r)
                                if not math.isfinite(x)), None)
                    out[i] = ((r, "") if bad is None
                              else (None, "non-finite " + names[bad]))
                break
    return out


def sample_rows(measure, points, what, order):
    """One list of PointRows per name in `what`, from a `measure` returning
    a (value, scale) pair for each, one after the other; a point is
    excluded from every list alike, with the detail `map_sample` gives."""
    lists = [[] for _ in what]
    names = [w for w in what for _ in range(2)]
    for idx, (res, detail) in enumerate(map_sample(measure, points, order,
                                                   names)):
        pt = np.asarray(points[idx], dtype=float)
        for m, rows in enumerate(lists):
            rows.append(PointRow(idx, pt, "degenerate", detail=detail)
                        if res is None else
                        PointRow(idx, pt, "ok", *res[2 * m:2 * m + 2]))
    return lists


def invariant_table(web: WebChart, points):
    """The `invariants` table: its value columns, the projective classes
    a<k>_<i> and then the skew invariants s<k>_<ij> of every extra
    foliation k, and per point the row index, point, status, values,
    detail, with '' for each value of an excluded point.  The sample runs
    as one batch (see map_sample)."""
    n = web.dim
    extras = range(n + 2, web.d + 1)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    columns = (["a%d_%d" % (k, i + 1) for k in extras for i in range(n)]
               + ["s%d_%d%d" % (k, i + 1, j + 1) for k in extras
                  for i, j in pairs])

    def measure(X):
        found = extra_foliations(normalize_coframe(web, X, 2), web)
        return ([c for a, _ in found
                 for c in np.moveaxis(projective_class(a.value), -1, 0)]
                + [s.value[..., i, j] for _, s in found for i, j in pairs])

    rows = [[idx] + [float(x) for x in points[idx]]
            + (["degenerate"] + [""] * len(columns) if res is None
               else ["ok"] + res) + [detail]
            for idx, (res, detail) in enumerate(map_sample(
                measure, points, 2, ["invariant"] * len(columns)))]
    return columns, rows


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


def geodesicity_test(web: WebChart, points) -> SampleReport:
    """Compare s_ij across all extra foliations at each sample point.

    Verdict 'geodesic' when every discrepancy max_{i<j,k<l} |s_ij^(k) -
    s_ij^(l)| stays below PASS_FACTOR times the s-scale; an (n+2)-web is
    vacuously geodesic.  The sample runs as one batch (see map_sample).
    """
    vacuous = web.d == web.dim + 2

    def measure(X):
        if vacuous:
            return np.zeros(X.shape[:-1]), np.ones(X.shape[:-1])
        return skew_discrepancy([s.value for _, s in extra_foliations(
            normalize_coframe(web, X, 2), web)])

    rows, = sample_rows(measure, points, ("discrepancy",), 2)
    rep = aggregate_rows(rows, "geodesic", "not_geodesic")
    if vacuous:
        rep.notes.append("d = n+2: geodesic by construction, no comparisons")
    return rep
