"""Web charts, coframe normalization and basis invariants.

A web chart holds d scalar functions on an n-dimensional chart (d >= n+2)
whose level sets define d foliations by hypersurfaces.  The first n+1
functions are gauge-fixed so their 1-forms satisfy sum_i omega_i = 0 with
omega_{n+1} = df_{n+1}; the first n omegas then form a coframe whose dual
frame and structure functions feed the connection construction.  Every
remaining foliation is expressed in that coframe through its basis
invariants a_k1..a_kn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import expr
from .errors import (DegenerateWebPoint, OrderExhausted, SingularSystem,
                     batch_error)
from .jets import Jet, directional_derivative, jet_linear_solve, value_array

# relative floor below which a lambda or a-coefficient counts as vanishing
DEGENERACY_FLOOR = 1e-10


@dataclass
class WebChart:
    dim: int
    functions: list            # parsed expression trees
    sources: List[str]         # original expression text, same order
    pointed: Optional[int] = None   # 1-based foliation index
    center: Optional[np.ndarray] = None
    radius: float = 1.0
    labels: Optional[List[str]] = None
    digest: Optional[str] = None    # sha256 of the web file bytes parsed

    def __post_init__(self):
        n, d = self.dim, len(self.functions)
        if n < 2:
            raise ValueError("web dimension must be >= 2, got %d" % n)
        if d < n + 2:
            raise ValueError("a web needs at least n+2 functions, got %d" % d)
        if self.pointed is not None and not 1 <= self.pointed <= d:
            raise ValueError("pointed index %d out of range 1..%d"
                             % (self.pointed, d))
        if self.center is None:
            self.center = np.zeros(n)
        self.center = np.asarray(self.center, dtype=float)
        if self.center.shape != (n,):
            raise ValueError("domain center must have %d coordinates" % n)
        if not self.radius > 0:
            raise ValueError("domain radius must be positive")

    @property
    def d(self) -> int:
        return len(self.functions)

    @classmethod
    def from_strings(cls, dim, sources, pointed=None, center=None, radius=1.0,
                     labels=None):
        trees = [expr.parse_expression(s, dim) for s in sources]
        return cls(dim, trees, list(sources), pointed, center, radius, labels)

    def eval_function(self, k: int, point, order: int) -> Jet:
        """Jet of f_k (1-based) at a point (n,) or a batch of points (B, n)."""
        return expr.eval_field(self.functions[k - 1], point, order)


def reorder_chart(web: WebChart, indices) -> WebChart:
    """Chart with functions[indices[j]-1] in slot j+1 (indices 1-based)."""
    idx = [i - 1 for i in indices]
    labels = None if web.labels is None else [web.labels[i] for i in idx]
    return WebChart(web.dim, [web.functions[i] for i in idx],
                    [web.sources[i] for i in idx], None,
                    web.center.copy(), web.radius, labels)


def pointed_chart(web: WebChart) -> WebChart:
    """Move the pointed foliation (default n+1) into slot n+1."""
    p = web.pointed if web.pointed is not None else web.dim + 1
    others = [i for i in range(1, web.d + 1) if i != p]
    return reorder_chart(web, others[:web.dim] + [p] + others[web.dim:])


@dataclass
class NormalizedCoframe:
    """Gauge-fixed coframe data at one base point (n,) or a batch (B, n).

    `order` is the jet order of omega/frame/lambda entries (one less than
    the order the web functions were expanded to); `c` holds the frame
    commutator coefficients c^k_ij at one order less again.
    """
    point: np.ndarray
    order: int
    lam: list                  # n+1 jets, lam[n] == 1
    omega: list                # (n+1) x n jets, omega[i][a] dx_a components
    frame: list                # n x n jets, frame[i][a] d/dx_a components
    c: list                    # n x n x n jets, c[k][i][j] = -c[k][j][i]

    @property
    def dim(self) -> int:
        return len(self.frame)

    def frame_derivative(self, i: int, f: Jet) -> Jet:
        """Derivative of a jet along frame vector i (0-based)."""
        return directional_derivative(f, self.frame[i])


def _points(point):
    # a point (n,) or a batch (B, n) as rows
    return np.reshape(point, (-1, np.shape(point)[-1]))


def check_vanishing(values, point, name):
    """Raise DegenerateWebPoint at the points where one of the values (last
    axis of `values`, shape (k,) at a point (n,), (B, k) for a batch) is at
    most DEGENERACY_FLOOR times the largest magnitude (floored at 1),
    naming the first such value there by `name(i)`."""
    vals = np.abs(values)
    k = vals.shape[-1]
    scale = np.maximum(1.0, vals.max(axis=-1))
    low = (vals <= DEGENERACY_FLOOR * scale[..., None]).reshape(-1, k)
    if low.any():
        pts = _points(point)
        raise batch_error(DegenerateWebPoint, low.any(axis=1), lambda b:
                          "%s vanishes at %s" % (name(int(np.argmax(low[b]))),
                                                 np.array2string(pts[b])))


def _singular(what, point, e):
    # a SingularSystem of a jet solve, reported at the points it failed at
    pts = _points(point)
    return batch_error(DegenerateWebPoint, e.rows, lambda b: "%s at %s (%s)"
                       % (what, np.array2string(pts[b]), e.detail(b)))


def normalize_coframe(web: WebChart, point, order: int = 3) -> NormalizedCoframe:
    """Gauge-fix the first n+1 foliations at a point (n,) or a batch (B, n).

    `order` is the jet order for the web functions; it must be >= 2 so the
    structure functions (two derivatives of f) survive truncation.
    """
    n = web.dim
    if order < 2:
        raise OrderExhausted(
            "coframe normalization needs function jets of order >= 2")
    point = np.asarray(point, dtype=float)
    fs = [web.eval_function(i, point, order) for i in range(1, n + 2)]
    grads = [[f.derivative(a) for a in range(n)] for f in fs]
    A = [[grads[i][a] for i in range(n)] for a in range(n)]
    b = [-grads[n][a] for a in range(n)]
    try:
        lam = jet_linear_solve(A, b)
    except SingularSystem as e:
        raise _singular("coframe normalization is singular", point, e) \
            from None
    check_vanishing(value_array(lam, (n,)), point,
                    lambda i: "lambda_%d" % (i + 1))
    lam = lam + [Jet.constant(1.0, n, order - 1)]
    omega = [[lam[i] * grads[i][a] for a in range(n)] for i in range(n + 1)]

    W = [row[:] for row in omega[:n]]
    frame = []
    for j in range(n):
        ej = [Jet.constant(1.0 if i == j else 0.0, n, order - 1)
              for i in range(n)]
        try:
            frame.append(jet_linear_solve(W, ej))
        except SingularSystem as e:
            raise _singular("coframe is not invertible", point, e) from None

    cof = NormalizedCoframe(point, order - 1, lam, omega, frame, [])
    zero = Jet.constant(0.0, n, order - 2)
    c = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            # [frame_i, frame_j]^a = D_i E_j^a - D_j E_i^a
            bracket = [cof.frame_derivative(i, frame[j][a])
                       - cof.frame_derivative(j, frame[i][a])
                       for a in range(n)]
            for k in range(n):
                wk = [omega[k][a].truncate(order - 2) for a in range(n)]
                ckij = wk[0] * bracket[0]
                for a in range(1, n):
                    ckij = ckij + wk[a] * bracket[a]
                c[k][i][j] = ckij
                c[k][j][i] = -ckij
    cof.c = c
    return cof


@dataclass
class BasisInvariant:
    """Coefficients of foliation k in the basis coframe: sum a_i omega_i = -df_k."""
    foliation: int             # 1-based index into the chart
    a: list                    # n jets, order matching the coframe

    def projective_class(self) -> np.ndarray:
        """Representative of [a_1 : ... : a_n], largest component scaled to 1.

        Shape (n,) at a point, (B, n) for a batch.
        """
        vals = value_array(self.a, (len(self.a),))
        lead = np.argmax(np.abs(vals), axis=-1)[..., None]
        return vals / np.take_along_axis(vals, lead, axis=-1)


def basis_invariants(cof: NormalizedCoframe, web: WebChart,
                     k: int) -> BasisInvariant:
    """Basis invariants a_k1..a_kn of foliation k (1-based, k >= n+2)."""
    n = web.dim
    if not n + 2 <= k <= web.d:
        raise ValueError("foliation index %d outside n+2..d = %d..%d"
                         % (k, n + 2, web.d))
    fk = web.eval_function(k, cof.point, cof.order + 1)
    dfk = [fk.derivative(a) for a in range(n)]
    A = [[cof.omega[i][a] for i in range(n)] for a in range(n)]
    b = [-dfk[a] for a in range(n)]
    try:
        a = jet_linear_solve(A, b)
    except SingularSystem as e:
        raise _singular("basis-invariant system for foliation %d is singular"
                        % k, cof.point, e) from None
    check_vanishing(value_array(a, (n,)), cof.point, lambda i:
                    "basis invariant a_%d of foliation %d" % (i + 1, k))
    return BasisInvariant(k, a)
