"""Truncated multivariate Taylor arithmetic (jets) of order 0..4.

A jet stores the coefficients of a function's Taylor expansion at a base
point, indexed by multi-indices in graded lexicographic order
(degree-major, x1-major within a degree).  The stored coefficient for a
multi-index alpha is the scaled derivative  d^alpha f / alpha!, so arithmetic
on jets is exact polynomial arithmetic truncated at the chosen order.

The Taylor kernels work on coefficient arrays, coefficients first: the
truncated product `coeff_mul`, the composition `coeff_compose` of a
univariate series with a jet (Griewank & Walther, *Evaluating Derivatives*,
ch. 13), and the table `SERIES` of univariate series.  `expr.eval_coeffs`
runs them over a point batch to expand web functions.  A `Jet` expands a
whole tensor field in one array (count, *shape, *batch): the tensor's
shape axes, then at most one batch axis over points; a scalar jet has
shape ().  Its arithmetic broadcasts entry by entry, shape axes aligned on
the right as in numpy and a point jet against a batch, and indexing the
shape axes gives sub-jets.  Every entry and batch column goes through the
products and sums of its scalar point jet, so it equals that jet bit for
bit; contractions sum in a fixed order (`ordered_sum`) for the same reason.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections import namedtuple
from functools import lru_cache, reduce

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
# Taylor kernels over coefficient arrays of shape (count, *entries)


def coeff_mul(a, b, tb):
    """Truncated product of two coefficient arrays.

    ``(tb.ia, tb.ib, tb.io)`` enumerate every pair of monomials whose
    product stays within the truncation order; entry t adds
    ``a[ia[t]] * b[ib[t]]`` into slot ``io[t]``.  ``np.bincount`` adds the
    terms of each (slot, tensor entry, batch column) in table order, so
    every entry and column sums exactly as the product of scalar point jets
    does.  The trailing axes of ``a`` and ``b`` broadcast; a point's
    (count,) also broadcasts against a batch's (count, B).
    """
    if a.ndim != b.ndim:
        # a point's coefficients (count,) against a batch's (count, B)
        a, b = (a[:, None], b) if a.ndim < b.ndim else (a, b[:, None])
    # `take` gathers as a[tb.ia] does, without fancy indexing's overhead
    prod, right = a.take(tb.ia, 0), b.take(tb.ib, 0)
    if prod.shape == right.shape:
        prod *= right               # one product array fewer at the peak
    else:
        prod = prod * right
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
    # a batch of no points: bincount of nothing is an integer array
    return out.astype(float, copy=False).reshape((tb.count,) + prod.shape[1:])


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
    power = utilde
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
    # e^u0 / j!, each term the one before over j; over 1 is exact
    out = [np.exp(u0)]
    for j in range(1, order + 1):
        out.append(out[-1] / j if j > 1 else out[-1])
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
    """Dense truncated Taylor expansion of a tensor field over `dim` variables.

    `coeffs` has shape (count, *shape, *batch) with `rank` shape axes and
    at most one batch axis: (count,) for a scalar at one point.
    """

    __slots__ = ("dim", "order", "coeffs", "rank")

    def __init__(self, dim: int, order: int, coeffs, rank: int = 0):
        tb = _tables(dim, order)
        coeffs = np.asarray(coeffs, dtype=float)
        if (coeffs.shape[:1] != (tb.count,)
                or not 0 <= coeffs.ndim - 1 - rank <= 1):
            raise ValueError("expected %d coefficients, %d shape axes and at "
                             "most one batch axis, got shape %s"
                             % (tb.count, rank, coeffs.shape))
        self.dim = dim
        self.order = order
        self.coeffs = coeffs
        self.rank = rank

    @classmethod
    def constant(cls, value, dim: int, order: int) -> "Jet":
        """Jet of a constant scalar, or of a constant tensor given as array."""
        value = np.asarray(value, dtype=float)
        c = np.zeros((n_coeffs(dim, order),) + value.shape)
        c[0] = value
        return cls(dim, order, c, value.ndim)

    @property
    def shape(self) -> tuple:
        return self.coeffs.shape[1:1 + self.rank]

    @property
    def batched(self) -> bool:
        return self.coeffs.ndim > 1 + self.rank

    @property
    def value(self):
        """Value part: a float for a scalar at one point, else an array
        with the batch axis (if any) first, then the shape axes."""
        v = self.coeffs[0]
        if v.ndim == 0:
            return float(v)
        return np.moveaxis(v, -1, 0) if self.batched else v

    def truncate(self, order: int) -> "Jet":
        if order == self.order:
            return self
        if order > self.order:
            raise ValueError("cannot truncate order %d up to %d"
                             % (self.order, order))
        return Jet(self.dim, order,
                   self.coeffs[:n_coeffs(self.dim, order)].copy(), self.rank)

    def derivatives(self) -> "Jet":
        """All first partials, one order lower, along a new last shape axis
        over the coordinates."""
        if self.order == 0:
            raise OrderExhausted("cannot differentiate an order-0 jet")
        c = self.coeffs
        out = np.zeros((n_coeffs(self.dim, self.order - 1),) + self.shape
                       + (self.dim,) + c.shape[1 + self.rank:])
        keep = (slice(None),) * self.rank
        for axis, (src, dst, fac) in enumerate(
                _tables(self.dim, self.order).diff):
            out[(dst,) + keep + (axis,)] = c[src] * fac.reshape(
                (-1,) + (1,) * (c.ndim - 1))
        return Jet(self.dim, self.order - 1, out, self.rank + 1)

    # -- the shape axes -----------------------------------------------------

    def __getitem__(self, key) -> "Jet":
        """Sub-jet by numpy indexing of the shape axes; the batch axis is
        kept.  Index arrays among the keys must be adjacent."""
        if not isinstance(key, tuple):
            key = (key,)
        used = sum(k is not None and k is not Ellipsis for k in key)
        if used > self.rank:
            raise IndexError("%d indices for a jet of rank %d"
                             % (used, self.rank))
        for pos, k in enumerate(key):
            if k is Ellipsis:
                key = (key[:pos] + (slice(None),) * (self.rank - used)
                       + key[pos + 1:])
                break
        c = self.coeffs[(slice(None),) + key]
        return Jet(self.dim, self.order, c,
                   c.ndim - self.coeffs.ndim + self.rank)

    def __len__(self):
        if self.rank == 0:
            raise TypeError("len() of a scalar jet")
        return self.coeffs.shape[1]

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def transpose(self, *axes) -> "Jet":
        """Permute the shape axes; reverse them when no axes are given."""
        axes = axes or tuple(range(self.rank))[::-1]
        perm = ((0,) + tuple(1 + a for a in axes)
                + tuple(range(1 + self.rank, self.coeffs.ndim)))
        return Jet(self.dim, self.order, self.coeffs.transpose(perm),
                   self.rank)

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

    def _operands(self, other: "Jet"):
        # both coefficient arrays laid out to broadcast (shape axes aligned
        # on the right as in numpy, the batch axis last), the result's rank
        if self.rank == other.rank and self.batched == other.batched:
            return self.coeffs, other.coeffs, self.rank
        rank = max(self.rank, other.rank)
        batched = self.batched or other.batched
        return _spread(self, rank, batched), _spread(other, rank, batched), rank

    def _binary(self, other, on_jets, on_number):
        # self (op) other, for a jet of this context or a real number
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return Jet(self.dim, self.order,
                       on_number(self.coeffs, float(other)), self.rank)
        a, b, rank = self._operands(o)
        return Jet(self.dim, self.order, on_jets(a, b), rank)

    def __add__(self, other):
        return self._binary(other, np.add, _shift)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.dim, self.order, -self.coeffs, self.rank)

    def __sub__(self, other):
        return self._binary(other, np.subtract, lambda c, x: _shift(c, -x))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: coeff_mul(
            a, b, _tables(self.dim, self.order)), np.multiply)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * _reciprocal(other)
        if isinstance(other, numbers.Real) and float(other) == 0.0:
            raise DomainError("division by zero scalar")
        return self._binary(other, None, np.true_divide)

    def __rtruediv__(self, other):
        if not isinstance(other, numbers.Real):
            return NotImplemented
        return float(other) * _reciprocal(self)

    def __repr__(self):
        return "Jet(dim=%d, order=%d, rank=%d, coeffs %s)" % (
            self.dim, self.order, self.rank, self.coeffs.shape)


def _shift(c, x):
    # a number added to a jet moves its value part only
    c = c.copy()
    c[0] += x
    return c


def _spread(j: Jet, rank: int, batched: bool):
    # coefficients of j with size-1 axes for the shape and batch axes it lacks
    c = j.coeffs
    pad = (1,) * (rank - j.rank)
    tail = (1,) if batched and not j.batched else ()
    if pad or tail:
        c = c.reshape(c.shape[:1] + pad + c.shape[1:] + tail)
    return c


def _reciprocal(u: Jet) -> Jet:
    zero = u.coeffs[0] == 0.0
    if np.any(zero):
        rows = zero.reshape(-1, zero.shape[-1]).any(axis=0) if u.batched \
            else True
        raise batch_error(DomainError, rows,
                          lambda b: "division by a jet with zero value part")
    c = coeff_compose(u.coeffs, SERIES["recip"](u.coeffs[0], u.order),
                      _tables(u.dim, u.order))
    return Jet(u.dim, u.order, c, u.rank)


def stack(items) -> Jet:
    """One jet from jets of one context and numbers, along a new first
    shape axis; their shapes and batch axes broadcast."""
    first = next(j for j in items if isinstance(j, Jet))
    parts = [Jet.constant(j, first.dim, first.order)
             if first._coerce(j) is None else j for j in items]
    rank = max(j.rank for j in parts)
    batched = any(j.batched for j in parts)
    arrays = [_spread(j, rank, batched) for j in parts]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    return Jet(first.dim, first.order,
               np.stack([np.broadcast_to(a, shape) for a in arrays], axis=1),
               rank + 1)


def where(mask, a: Jet, b):
    """Entries of `a` where `mask` holds and of `b` (a jet or a number)
    elsewhere; `mask` spans the shape axes."""
    mask = np.asarray(mask)
    if a._coerce(b) is None:
        b = Jet.constant(b, a.dim, a.order)
    ca, cb, rank = a._operands(b)
    mask = mask.reshape((1,) * (1 + rank - mask.ndim) + mask.shape
                        + (1,) * (ca.ndim - 1 - rank))
    return Jet(a.dim, a.order, np.where(mask, ca, cb), rank)


@lru_cache(maxsize=None)
def grid(n: int, rank: int) -> np.ndarray:
    """The index arrays of an n x ... x n tensor of the given rank, as
    np.indices gives them; cached and read-only."""
    out = np.indices((n,) * rank)
    out.flags.writeable = False
    return out


def skew_upper(t: Jet) -> Jet:
    """The jet antisymmetric in the last two shape axes that equals `t`
    above their diagonal: `t` transposed and negated below it, zero on it."""
    i, j = grid(t.shape[-1], 2)
    swap = tuple(range(t.rank - 2)) + (t.rank - 1, t.rank - 2)
    return where(i < j, t, where(i > j, -t.transpose(*swap), 0.0))


def _times_values(R, c):
    # sum_p R[i, p] c[:, p, j], in the order of p, for value matrices R
    # (m, m, *batch) and coefficients c (count, m, k, *batch)
    return ordered_sum(R[None, :, p, None] * c[:, p, None]
                       for p in range(len(R)))


def jet_linear_solve(A, b, inv=None):
    """Solve A x = b over jets by lifting one inverse of A's value part.

    `A` is an (m, m) jet and `b` an (m,) or (m, k) jet; nested lists of
    scalar jets are stacked on entry, and a point jet broadcasts against a
    batch.  `inv` is R = A0^-1 for A0 = A.value, as `np.linalg.inv` gives
    it; taken here when not given, where an exactly singular A0 raises
    SingularSystem.  N = -R (A - A0) has no value part, so
    x = sum_{s <= order} N^s R b exactly; Horner's rule x <- R b + N x sums
    it, step s at order s.  Sums run in a fixed order, so each batch column
    equals its point solve bit for bit.
    """
    if not isinstance(A, Jet):
        A = stack([stack(row) for row in A])
    if not isinstance(b, Jet):
        b = stack(b)
    A._coerce(b)
    m = len(A)
    if A.shape != (m, m) or b.shape[:1] != (m,) or b.rank > 2:
        raise ValueError("jet_linear_solve needs a square system")
    if inv is None:
        try:
            inv = np.linalg.inv(A.value)
        except np.linalg.LinAlgError:
            raise SingularSystem("the matrix is singular") from None
    batched = A.batched or b.batched
    # R laid out as A's coefficients, (m, m, *batch), and contiguous: the
    # products below take its memory order, and a strided one slows them
    R = (np.ascontiguousarray(np.moveaxis(inv, 0, -1)) if A.batched
         else np.reshape(inv, (m, m) + (1,) * batched))
    N = _times_values(-R, _spread(A, 2, batched))
    N[0] = 0.0
    x = Rb = _times_values(R, _spread(b if b.rank == 2 else b[:, None], 2,
                                      batched))
    for s in range(1, A.order + 1):
        cs, tb = n_coeffs(A.dim, s), _tables(A.dim, s)
        x = np.concatenate((Rb[:cs] + ordered_sum(
            coeff_mul(N[:cs, :, j, None], x[:cs, None, j], tb)
            for j in range(m)), Rb[cs:]))
    return Jet(A.dim, A.order, x if b.rank == 2 else x[:, :, 0], b.rank)


def directional_derivative(f: Jet, v) -> Jet:
    """Derivative of f along v: one vector (a jet of shape (dim,), or a
    list of jets and numbers), or a jet of vectors along its last axis,
    whose other axes then lead the shape of the result."""
    if f.order == 0:
        raise OrderExhausted("directional derivative needs order >= 1")
    if not isinstance(v, Jet):
        v = stack(v)
    df = f.derivatives()
    r = min(v.order, df.order)
    df, v = df.truncate(r), v.truncate(r)
    return ordered_sum(df[..., axis] * v[(Ellipsis, axis) + (None,) * f.rank]
                       for axis in range(f.dim))


def ordered_sum(terms):
    """Left-to-right sum of jets: the one order every contraction sums in,
    so that each entry adds up as the scalar jets it replaces did."""
    return reduce(operator.add, terms)
