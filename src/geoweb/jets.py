"""Truncated multivariate Taylor arithmetic (jets) of order 0..4.

A jet stores the coefficients of a scalar function's Taylor expansion at a
base point, indexed by multi-indices in graded lexicographic order
(degree-major, x1-major within a degree).  The stored coefficient for a
multi-index alpha is the scaled derivative  d^alpha f / alpha!, so arithmetic
on jets is exact polynomial arithmetic truncated at the chosen order.

The Taylor kernels work on coefficient arrays of shape (count, *batch): the
truncated product `coeff_mul`, the composition `coeff_compose` of a
univariate series with a jet (Griewank & Walther, *Evaluating Derivatives*,
ch. 13), and the table `SERIES` of univariate series.  `expr.eval_coeffs`
runs them over a point batch to expand web functions, powers and
elementary functions included.  A `Jet` holds the coefficients of one
point, shape (count,), or of a batch of points, shape (count, B), and
carries the field arithmetic (+ - * /) the connection and curvature code
needs; a point jet (a constant) broadcasts against a batch.  Every batch
column goes through the arithmetic of a point jet, so it equals that jet
bit for bit.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .errors import (DomainError, MixedContext, OrderExhausted,
                     SingularSystem, batch_error)

MAX_ORDER = 4


def backend_name() -> str:
    """Name of the jet kernel implementation: always 'python'."""
    return "python"


def n_coeffs(dim: int, order: int) -> int:
    """Number of stored coefficients: C(dim + order, order)."""
    return math.comb(dim + order, order)


def _degree_block(dim, deg):
    if dim == 1:
        return [(deg,)]
    block = []
    for first in range(deg, -1, -1):
        for rest in _degree_block(dim - 1, deg - first):
            block.append((first,) + rest)
    return block


@lru_cache(maxsize=None)
def exponents(dim: int, order: int):
    """Multi-index layout: degree blocks 0..order, x1-major inside a block."""
    out = []
    for deg in range(order + 1):
        out.extend(_degree_block(dim, deg))
    return tuple(out)


# `scatter` caches the flattened (slot, column) index that `coeff_mul`
# accumulates its products with, for the last batch width it was built for
# only, so a process that sees many sample sizes keeps one index per table
_Tables = namedtuple("_Tables", "count index ia ib io diff scatter")


@lru_cache(maxsize=None)
def _tables(dim, order):
    if dim < 1:
        raise ValueError("jet dim must be >= 1, got %d" % dim)
    if not 0 <= order <= MAX_ORDER:
        raise ValueError("jet order must be in 0..%d, got %d" % (MAX_ORDER, order))
    exps = exponents(dim, order)
    index = {e: i for i, e in enumerate(exps)}
    # product table, sorted by (output, left, right) so that a lower-order
    # table is the per-slot prefix of a higher-order one (exact truncation
    # consistency)
    trip = []
    for a, ea in enumerate(exps):
        da = sum(ea)
        for b, eb in enumerate(exps):
            if da + sum(eb) <= order:
                eo = tuple(p + q for p, q in zip(ea, eb))
                trip.append((index[eo], a, b))
    trip.sort()
    io = np.array([t[0] for t in trip], dtype=np.intp)
    ia = np.array([t[1] for t in trip], dtype=np.intp)
    ib = np.array([t[2] for t in trip], dtype=np.intp)
    diff = []
    if order >= 1:
        lower = exponents(dim, order - 1)
        lower_index = {e: i for i, e in enumerate(lower)}
        for axis in range(dim):
            src, dst, fac = [], [], []
            for i, e in enumerate(exps):
                if e[axis] > 0:
                    shifted = list(e)
                    shifted[axis] -= 1
                    src.append(i)
                    dst.append(lower_index[tuple(shifted)])
                    fac.append(float(e[axis]))
            diff.append((np.array(src, dtype=np.int32),
                         np.array(dst, dtype=np.int32),
                         np.array(fac)))
    return _Tables(len(exps), index, ia, ib, io, tuple(diff), {})


# ---------------------------------------------------------------------------
# Taylor kernels over coefficient arrays of shape (count, *batch)


def _align(a, b):
    # a point's coefficients (count,) broadcast against a batch's (count, B)
    if a.ndim < b.ndim:
        return a[:, None], b
    if b.ndim < a.ndim:
        return a, b[:, None]
    return a, b


def coeff_mul(a, b, tb):
    """Truncated product of two coefficient arrays.

    ``(tb.ia, tb.ib, tb.io)`` enumerate every pair of monomials whose
    product stays within the truncation order; entry t adds
    ``a[ia[t]] * b[ib[t]]`` into slot ``io[t]``.  ``np.bincount`` adds the
    entries of each (slot, batch column) in table order, so every column
    sums exactly as the product of its point jets does.  The batch axes of
    ``a`` and ``b`` broadcast.
    """
    if a.ndim != b.ndim:
        a, b = _align(a, b)
    prod = a[tb.ia] * b[tb.ib]
    if prod.ndim == 1:
        return np.bincount(tb.io, weights=prod, minlength=tb.count)
    width = prod.size // len(tb.io)
    index = tb.scatter.get(width)
    if index is None:
        index = (tb.io[:, None] * width + np.arange(width)).reshape(-1)
        tb.scatter.clear()
        tb.scatter[width] = index
    out = np.bincount(index, weights=prod.reshape(-1),
                      minlength=tb.count * width)
    return out.reshape((tb.count,) + prod.shape[1:])


def coeff_compose(u, series, tb):
    """Evaluate sum_j series[j] * (u - u0)^j, truncated.

    ``series`` holds the scaled derivatives of the outer function at the
    value part u0 of ``u`` (floats for one jet, arrays over the batch).
    Powers are accumulated in ascending degree so a lower-order run is an
    exact prefix of a higher-order one.
    """
    out = np.zeros(u.shape)
    out[0] = series[0]
    if len(series) == 1:
        return out
    utilde = u.copy()
    utilde[0] = 0.0
    power = utilde.copy()
    out += series[1] * power
    for j in range(2, len(series)):
        power = coeff_mul(power, utilde, tb)
        out += series[j] * power
    return out


# Univariate series: SERIES[name](u0, order) -> [f(u0), f'(u0), ...,
# f^(order)(u0) / order!].  u0 is a float or an array over the batch; the
# entries use plain arithmetic and numpy ufuncs only and check no domain.


def _recip_series(u0, order):
    out = []
    term = 1.0 / u0
    for _ in range(order + 1):
        out.append(term)
        term = -term / u0
    return out


def _exp_series(u0, order):
    out = []
    term = np.exp(u0)
    for j in range(order + 1):
        out.append(term)
        term = term / (j + 1)
    return out


def _log_series(u0, order):
    # powers of u0 by repeated product: `**` on an array and on a float
    # round differently
    out = [np.log(u0)]
    sign = 1.0
    upow = 1.0
    for j in range(1, order + 1):
        upow = upow * u0
        out.append(sign / (j * upow))
        sign = -sign
    return out


def _sqrt_series(u0, order):
    out = []
    term = np.sqrt(u0)
    for j in range(order + 1):
        out.append(term)
        term = term * ((0.5 - j) / ((j + 1) * u0))
    return out


def _cycle_series(cycle, order):
    out = []
    fact = 1.0
    for j in range(order + 1):
        if j > 0:
            fact *= j
        out.append(cycle[j % 4] / fact)
    return out


def _sin_series(u0, order):
    s, c = np.sin(u0), np.cos(u0)
    return _cycle_series((s, c, -s, -c), order)


def _cos_series(u0, order):
    s, c = np.sin(u0), np.cos(u0)
    return _cycle_series((c, -s, -c, s), order)


def _atan_series(u0, order):
    phi = np.arctan(u0)
    cphi = np.cos(phi)
    out = [phi]
    cpow = 1.0
    for j in range(1, order + 1):
        cpow = cpow * cphi
        out.append(cpow * np.sin(j * (phi + 0.5 * math.pi)) / j)
    return out


SERIES = {"recip": _recip_series, "exp": _exp_series, "log": _log_series,
          "sqrt": _sqrt_series, "sin": _sin_series, "cos": _cos_series,
          "atan": _atan_series}


class Jet:
    """Dense truncated Taylor expansion over `dim` variables.

    `coeffs` has shape (count,) for one point or (count, B) for a batch of
    B points.
    """

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim: int, order: int, coeffs):
        tb = _tables(dim, order)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim not in (1, 2) or coeffs.shape[0] != tb.count:
            raise ValueError(
                "expected %d coefficients for dim %d order %d, got shape %s"
                % (tb.count, dim, order, coeffs.shape)
            )
        self.dim = dim
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def constant(cls, value: float, dim: int, order: int) -> "Jet":
        c = np.zeros(n_coeffs(dim, order))
        c[0] = value
        return cls(dim, order, c)

    @classmethod
    def variable(cls, axis: int, value: float, dim: int, order: int) -> "Jet":
        """Jet of the coordinate function x_{axis+1} at the given value."""
        if not 0 <= axis < dim:
            raise ValueError("axis %d out of range for dim %d" % (axis, dim))
        c = np.zeros(n_coeffs(dim, order))
        c[0] = value
        if order >= 1:
            c[1 + axis] = 1.0
        return cls(dim, order, c)

    @property
    def value(self):
        """Value part: a float for a point, the (B,) row for a batch."""
        if self.coeffs.ndim == 1:
            return float(self.coeffs[0])
        return self.coeffs[0]

    @property
    def grad(self):
        """First-derivative vector (zeros when order is 0)."""
        if self.order == 0:
            return np.zeros(self.dim)
        return self.coeffs[1:1 + self.dim].copy()

    def coeff(self, alpha):
        """Coefficient of the monomial with multi-index `alpha`."""
        tb = _tables(self.dim, self.order)
        try:
            c = self.coeffs[tb.index[tuple(alpha)]]
        except KeyError:
            raise ValueError("multi-index %r not stored at order %d"
                             % (tuple(alpha), self.order)) from None
        return float(c) if self.coeffs.ndim == 1 else c

    def truncate(self, order: int) -> "Jet":
        if order == self.order:
            return self
        if order > self.order:
            raise ValueError("cannot truncate order %d up to %d"
                             % (self.order, order))
        return Jet(self.dim, order, self.coeffs[:n_coeffs(self.dim, order)].copy())

    def derivative(self, axis: int) -> "Jet":
        """Partial derivative along coordinate axis (0-based); drops one order."""
        if self.order == 0:
            raise OrderExhausted("cannot differentiate an order-0 jet")
        if not 0 <= axis < self.dim:
            raise ValueError("axis %d out of range for dim %d" % (axis, self.dim))
        tb = _tables(self.dim, self.order)
        src, dst, fac = tb.diff[axis]
        c = self.coeffs
        out = np.zeros((n_coeffs(self.dim, self.order - 1),) + c.shape[1:])
        out[dst] = c[src] * (fac if c.ndim == 1 else fac[:, None])
        return Jet(self.dim, self.order - 1, out)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.dim != self.dim or other.order != self.order:
                raise MixedContext(
                    "jet contexts differ: dim %d/%d, order %d/%d"
                    % (self.dim, other.dim, self.order, other.order)
                )
            return other
        if isinstance(other, numbers.Real):
            return None  # handled as a scalar
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            c = self.coeffs.copy()
            c[0] += float(other)
            return Jet(self.dim, self.order, c)
        a, b = _align(self.coeffs, o.coeffs)
        return Jet(self.dim, self.order, a + b)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.dim, self.order, -self.coeffs)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            c = self.coeffs.copy()
            c[0] -= float(other)
            return Jet(self.dim, self.order, c)
        a, b = _align(self.coeffs, o.coeffs)
        return Jet(self.dim, self.order, a - b)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return Jet(self.dim, self.order, self.coeffs * float(other))
        c = coeff_mul(self.coeffs, o.coeffs, _tables(self.dim, self.order))
        return Jet(self.dim, self.order, c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            if float(other) == 0.0:
                raise DomainError("division by zero scalar")
            return Jet(self.dim, self.order, self.coeffs / float(other))
        return self * _reciprocal(o)

    def __rtruediv__(self, other):
        if not isinstance(other, numbers.Real):
            return NotImplemented
        return float(other) * _reciprocal(self)

    def __repr__(self):
        if self.coeffs.ndim == 2:
            return "Jet(dim=%d, order=%d, batch=%d)" % (
                self.dim, self.order, self.coeffs.shape[1])
        return "Jet(dim=%d, order=%d, value=%.6g)" % (self.dim, self.order,
                                                      self.value)


def _reciprocal(u: Jet) -> Jet:
    if np.any(u.coeffs[0] == 0.0):
        raise batch_error(DomainError, u.coeffs[0] == 0.0,
                          lambda b: "division by a jet with zero value part")
    c = coeff_compose(u.coeffs, SERIES["recip"](u.value, u.order),
                      _tables(u.dim, u.order))
    return Jet(u.dim, u.order, c)


def value_array(jets, shape):
    """Value parts of nested lists of jets, shape `shape`, as one array.

    The result has shape batch + shape: the batch axis of the jets (none
    for points) leads, and a point jet among batch jets is broadcast.
    """
    flat = list(jets)
    for _ in shape[1:]:
        flat = [j for row in flat for j in row]
    batch = np.broadcast_shapes(*(j.coeffs.shape[1:] for j in flat))
    out = np.empty(batch + tuple(shape))
    for idx, j in zip(np.ndindex(*shape), flat):
        out[(Ellipsis,) + idx] = j.coeffs[0]
    return out


def jet_linear_solve(A, b):
    """Solve A x = b for jet vectors by Gaussian elimination.

    The entries are point jets or batch jets (a point entry broadcasts).
    Each batch column pivots on its own value parts, taking the first
    largest; a best pivot below 1e-12 times the largest entry magnitude of
    the column's matrix raises SingularSystem (degenerate point upstream).
    A column goes through the products and sums of a point solve, so it
    equals the solve of its point jets bit for bit.
    """
    m = len(A)
    if any(len(r) != m for r in A) or len(b) != m:
        raise ValueError("jet_linear_solve needs a square system")
    if m == 0:
        return []
    first = A[0][0]
    for e in [e for r in A for e in r] + list(b):
        first._coerce(e)
    dim, order = first.dim, first.order
    tb = _tables(dim, order)
    rows = [[e.coeffs for e in A[r]] + [b[r].coeffs] for r in range(m)]
    # a point entry among batch entries becomes a read-only broadcast view
    shape = max((c.shape for row in rows for c in row), key=len)
    rows = [[c if c.shape == shape else np.broadcast_to(c[:, None], shape)
             for c in row] for row in rows]
    floor = 1e-12 * np.abs(value_array(A, (m, m))).max(axis=(-2, -1))
    for col in range(m):
        column = np.array([rows[r][col][0] for r in range(col, m)])
        piv = col + np.argmax(np.abs(column), axis=0)
        best = np.take_along_axis(column, (piv - col)[None], axis=0)[0]
        low = np.abs(best) <= floor
        if np.any(low):
            best_b = np.reshape(best, -1)
            floor_b = np.reshape(np.broadcast_to(floor, np.shape(best)), -1)
            raise batch_error(SingularSystem, low, lambda b:
                              "pivot %g below floor %g in column %d"
                              % (best_b[b], floor_b[b], col))
        for r in range(col + 1, m):
            hit = piv == r
            if np.all(hit):
                rows[col], rows[r] = rows[r], rows[col]
            elif np.any(hit):
                for c in range(col, m + 1):
                    rows[col][c], rows[r][c] = (
                        np.where(hit, rows[r][c], rows[col][c]),
                        np.where(hit, rows[col][c], rows[r][c]))
        d = rows[col][col]
        inv = coeff_compose(d, SERIES["recip"](d[0], order), tb)
        for r in range(m):
            if r != col:
                f = coeff_mul(rows[r][col], inv, tb)
                for c in range(col, m + 1):
                    rows[r][c] = rows[r][c] - coeff_mul(f, rows[col][c], tb)
    out = []
    for i in range(m):
        d = rows[i][i]
        inv = coeff_compose(d, SERIES["recip"](d[0], order), tb)
        out.append(Jet(dim, order, coeff_mul(rows[i][m], inv, tb)))
    return out


def directional_derivative(f: Jet, v) -> Jet:
    """Derivative of f along the vector v (components jets or scalars)."""
    if f.order == 0:
        raise OrderExhausted("directional derivative needs order >= 1")
    out = None
    for axis in range(f.dim):
        term = f.derivative(axis)
        vc = v[axis]
        if isinstance(vc, Jet):
            if vc.order > term.order:
                vc = vc.truncate(term.order)
            elif vc.order < term.order:
                term = term.truncate(vc.order)
        term = term * vc
        out = term if out is None else out + term
    return out
