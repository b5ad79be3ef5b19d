"""Web charts, coframe normalization and basis invariants.

A web chart holds d scalar functions on an n-dimensional chart (d >= n+2)
whose level sets define d foliations by hypersurfaces.  The first n+1
functions are gauge-fixed so their 1-forms satisfy sum_i omega_i = 0 with
omega_{n+1} = df_{n+1}; the first n omegas then form a coframe whose dual
frame, with lambda and the Hessians, feeds the connection construction.
Every remaining foliation is expressed in that coframe through its basis
invariants a_k1..a_kn.  The degeneracy checks (a singular coframe, a
vanishing lambda or a_i, coinciding a_i = a_j) and the skew-invariant
formula live here too, shared by the jet route and `fastgamma`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from . import expr
from .errors import (CoincidentInvariants, DegenerateWebPoint, OrderExhausted,
                     batch_error)
from .jets import Jet, directional_derivative, jet_linear_solve, stack

# relative floor below which a lambda or a-coefficient counts as vanishing
DEGENERACY_FLOOR = 1e-10
# kappa_inf of A = (d_a f_i) from which a point is out of general position
CONDITION_LIMIT = 1e12
# relative floor separating a_i = a_j coincidence from round-off
COINCIDENCE_FLOOR = 1e-10


class WebChart:
    def __init__(self, dim: int, functions: list, sources: List[str],
                 pointed: Optional[int] = None,
                 center: Optional[np.ndarray] = None, radius: float = 1.0,
                 labels: Optional[List[str]] = None,
                 digest: Optional[str] = None):
        self.dim = dim
        self.functions = functions      # parsed expression trees
        self.sources = sources          # original expression text, same order
        self.pointed = pointed          # 1-based foliation index
        self.center = center
        self.radius = radius
        self.labels = labels
        self.digest = digest            # sha256 of the web file bytes parsed
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


def pointed_order(web: WebChart) -> list:
    """The foliation indices (1-based) by slot, with the pointed foliation
    (default n+1) in slot n+1 and the others in file order around it."""
    p = web.pointed if web.pointed is not None else web.dim + 1
    others = [i for i in range(1, web.d + 1) if i != p]
    return others[:web.dim] + [p] + others[web.dim:]


class NormalizedCoframe:
    """Gauge-fixed coframe data at one base point (n,) or a batch (B, n).

    `order` is the jet order of omega/frame/lambda (one less than the
    order the web functions were expanded to); `hess`, the Hessians of
    f_1..f_n that `connection.canonical_christoffels` needs besides them,
    is one order less again.
    """

    def __init__(self, point: np.ndarray, order: int, lam: Jet, omega: Jet,
                 frame: Jet, hess: Jet):
        self.point = point
        self.order = order
        self.lam = lam          # (n+1,), lam[n] == 1
        self.omega = omega      # (n+1, n), omega[i][a] dx_a components
        self.frame = frame      # (n, n), frame[i][a] d/dx_a components
        self.hess = hess        # (n, n, n), hess[i][a][b] = d_a d_b f_i

    @property
    def dim(self) -> int:
        return self.frame.shape[0]

    def frame_derivatives(self, f: Jet) -> Jet:
        """D_i f for every frame vector i, along a new first shape axis."""
        return directional_derivative(f, self.frame)

    def truncate(self, order: int) -> "NormalizedCoframe":
        """The same coframe with jets of order `order` (1 <= order <=
        self.order); enough where only values of the invariants are read."""
        return NormalizedCoframe(self.point, order, self.lam.truncate(order),
                                 self.omega.truncate(order),
                                 self.frame.truncate(order),
                                 self.hess.truncate(order - 1))


def check_vanishing(values, point, name):
    """Raise DegenerateWebPoint at the points where one of the values (last
    axis of `values`, shape (k,) at a point (n,), (B, k) for a batch) is at
    most DEGENERACY_FLOOR times the largest magnitude (floored at 1),
    naming the first such value there by `name(i)`."""
    vals = np.abs(values)
    scale = np.maximum(1.0, vals.max(axis=-1))
    low = vals <= DEGENERACY_FLOOR * scale[..., None]
    if low.any():
        low = low.reshape(-1, vals.shape[-1])
        pts = np.reshape(point, (-1, np.shape(point)[-1]))
        raise batch_error(DegenerateWebPoint, low.any(axis=1), lambda b:
                          "%s vanishes at %s" % (name(int(np.argmax(low[b]))),
                                                 np.array2string(pts[b])))


def coframe_inverse(A, point):
    """A^-1 for A[a][i] = d_a f_i, (n, n) at a point (n,) or (B, n, n) for
    a batch (B, n), by one LAPACK inverse.  Both Christoffel routes decide
    singularity here: DegenerateWebPoint marks the points where kappa_inf(A)
    is not below CONDITION_LIMIT (inf if A is singular, NaN if not finite)."""
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:   # for the whole stack: a row fails below
        kappa = np.linalg.cond(A, np.inf)   # the same, inf where singular
    else:
        with np.errstate(over="ignore"):    # kappa is then inf
            kappa = (np.abs(A).sum(axis=-1).max(axis=-1)
                     * np.abs(inv).sum(axis=-1).max(axis=-1))
    bad = ~np.less(kappa, CONDITION_LIMIT)
    if bad.any():
        kappa = np.reshape(kappa, -1)
        pts = np.reshape(point, (-1, A.shape[-1]))
        raise batch_error(DegenerateWebPoint, bad, lambda b:
                          "coframe normalization is singular at %s "
                          "(condition number %.3g)"
                          % (np.array2string(pts[b]), kappa[b]))
    return inv


def check_coincidence(u0, v0, i, j, point):
    """Raise CoincidentInvariants at the points where the values u0 of a_i
    and v0 of a_j (frame indices) agree to COINCIDENCE_FLOOR times their
    size, floored at 1.  Index arrays i, j add a leading pair axis to the
    values (floats at a point, (B,) rows for a batch); the first failing
    pair raises."""
    scale = np.maximum(1.0, np.maximum(np.abs(u0), np.abs(v0)))
    close = np.abs(u0 - v0) <= COINCIDENCE_FLOOR * scale
    if close.any():
        i, j = np.atleast_1d(i), np.atleast_1d(j)
        close = close.reshape(len(i), -1)
        p = int(np.argmax(close.any(axis=1)))
        vals = np.reshape(u0, (len(i), -1))[p]
        pts = np.reshape(point, (-1, np.shape(point)[-1]))
        raise batch_error(CoincidentInvariants, close[p], lambda b:
                          "basis invariants a_%d and a_%d coincide (%g) at %s"
                          % (i[p] + 1, j[p] + 1, vals[b],
                             np.array2string(pts[b])))


def skew_formula(u, v, qi_u, qi_v, qj_u, qj_v):
    """s_ij from u = a_i, v = a_j and their logarithmic derivatives along
    frame vectors i and j (qi_u = D_i u / u, ...); jets or value arrays
    alike."""
    return (u * (qj_v - qj_u) - v * (qi_v - qi_u)) / (u - v)


def normalize_coframe(web: WebChart, point, order: int = 3) -> NormalizedCoframe:
    """Gauge-fix the first n+1 foliations at a point (n,) or a batch (B, n).

    `order` is the jet order for the web functions; it must be >= 2 so the
    Hessians of f survive truncation.  The `coframe_inverse` of
    A[a][i] = d_a f_i, lifted to jets by a solve against
    [-grad f_{n+1} | I], gives lambda and A^-1, whose row j over lambda_j
    is frame j: the coframe is diag(lambda) A^T.
    """
    n = web.dim
    if order < 2:
        raise OrderExhausted(
            "coframe normalization needs function jets of order >= 2")
    point = np.asarray(point, dtype=float)
    f = stack([web.eval_function(i, point, order) for i in range(1, n + 2)])
    grads = f.derivatives()            # grads[i][a] = d_a f_i
    rhs = stack([-grads[n], *Jet.constant(np.eye(n), n, order - 1)])
    A = grads[:n].transpose()
    sol = jet_linear_solve(A, rhs.transpose(),
                           coframe_inverse(A.value, point))
    check_vanishing(sol[:, 0].value, point, lambda i: "lambda_%d" % (i + 1))
    lam = stack([*sol[:, 0], 1.0])     # lam[n] = 1
    omega = lam[:, None] * grads
    frame = sol[:, 1:] / lam[:n, None]
    return NormalizedCoframe(point, order - 1, lam, omega, frame,
                             grads[:n].derivatives())


class BasisInvariant:
    """Coefficients of foliation k in the basis coframe: sum a_i omega_i = -df_k."""

    def __init__(self, foliation: int, a: Jet):
        self.foliation = foliation  # 1-based index into the chart
        self.a = a                  # (n,), order matching the coframe

    def projective_class(self) -> np.ndarray:
        """Representative of [a_1 : ... : a_n], largest component scaled to 1.

        Shape (n,) at a point, (B, n) for a batch.
        """
        vals = self.a.value
        lead = np.argmax(np.abs(vals), axis=-1)[..., None]
        return vals / np.take_along_axis(vals, lead, axis=-1)


def basis_invariants(cof: NormalizedCoframe, web: WebChart,
                     k: int) -> BasisInvariant:
    """Basis invariants a_k1..a_kn of foliation k (1-based, k >= n+2):
    sum_i a_i omega_i = -df_k on frame j reads a_j = -D_j f_k."""
    n = web.dim
    if not n + 2 <= k <= web.d:
        raise ValueError("foliation index %d outside n+2..d = %d..%d"
                         % (k, n + 2, web.d))
    a = -cof.frame_derivatives(web.eval_function(k, cof.point, cof.order + 1))
    check_vanishing(a.value, cof.point, lambda i:
                    "basis invariant a_%d of foliation %d" % (i + 1, k))
    return BasisInvariant(k, a)
