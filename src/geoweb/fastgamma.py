"""Batched value-level pipeline for canonical Christoffels (gauge t = 0).

Geodesic integration evaluates the connection thousands of times, one
point at a time, where the tensor-shaped jet route is still 5 to 7 times
slower (order 2, median of 100 interleaved calls on a 2-core x86-64
machine: 2.8 / 3.9 / 5.2 ms against 0.51 / 0.64 / 0.70 ms here on the
benchmark webs xy4 / mixed3 / web4).  This module takes the order-2
coefficient arrays of the web functions for a whole batch of points from
`expr.eval_coeffs`, the walk that also gives each per-point `Jet`, so a
batch column equals the per-point jet bit for bit.  It then derives
lambda, the frame, the structure functions and the derivatives of the
basis invariants by matrix calculus on their values, and hands those to
the jet route's own checks and formulas (`web.check_vanishing`,
`connection.check_coincidence`, `connection.skew_formula`,
`connection.frame_christoffels`) with the batch axis moved last, so every
entry is a (B,) row.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import expr, jets
from .connection import check_coincidence, frame_christoffels, skew_formula
from .errors import DegenerateWebPoint, batch_error
from .web import WebChart, check_vanishing


def batched_values(tree, X) -> np.ndarray:
    """Function values over a batch of points (order-0 evaluation)."""
    return expr.eval_coeffs(tree, X, 0)[0]


@lru_cache(maxsize=None)
def _hessian_slots(n):
    # slot[a][b]: where an order-2 jet stores the x_a x_b coefficient,
    # which is the Hessian entry over 2 on the diagonal and 1 off it
    index, unit = jets._tables(n, 2).index, np.eye(n, dtype=int)
    slot = [[index[tuple(unit[a] + unit[b])] for b in range(n)]
            for a in range(n)]
    return np.array(slot), 1.0 + np.eye(n)[:, :, None]


def _grad_hess(tree, X):
    # (B, n) gradients and (B, n, n) Hessians from the order-2 jets
    n = X.shape[1]
    co = expr.eval_coeffs(tree, X, 2)
    slot, fac = _hessian_slots(n)
    return co[1:1 + n].T.copy(), (co[slot] * fac).transpose(2, 0, 1)


def _solve(A, rhs, what, X):
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        # LAPACK stops at an exactly zero pivot of the LU factorization,
        # whose determinant is then exactly zero too
        singular = np.linalg.det(A) == 0.0
        raise batch_error(DegenerateWebPoint, singular, lambda b: "%s at %s"
                          % (what, np.array2string(X[b]))) from None


def batched_gamma_evaluator(web: WebChart):
    """Point batch (B, n) -> coordinate Christoffel values (B, n, n, n).

    Implements the canonical connection with gauge t = 0 for the subweb
    f_1..f_{n+2}; raises DegenerateWebPoint, whose `rows` mark the
    inadmissible points, when any point in the batch is inadmissible.
    """
    n = web.dim
    trees = web.functions[:n + 2]

    def evaluate(X):
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        grads, hesses = zip(*(_grad_hess(t, X) for t in trees))

        A = np.stack(grads[:n], axis=2)              # A[b,a,i] = d_a f_i
        what = "coframe normalization is singular"
        lam = _solve(A, -grads[n][:, :, None], what, X)[:, :, 0]
        check_vanishing(lam, X, lambda i: "lambda_%d" % (i + 1))
        dA = np.stack(hesses[:n], axis=2)            # dA[b,a,i,c]
        rhsd = -hesses[n] - np.einsum("baic,bi->bac", dA, lam)
        dlam = _solve(A, rhsd, what, X)              # (B, i, c)

        B = X.shape[0]
        lamf = np.concatenate([lam, np.ones((B, 1))], axis=1)
        dlamf = np.concatenate([dlam, np.zeros((B, 1, n))], axis=1)
        Gall = np.stack(grads[:n + 1], axis=1)       # (B, n+1, a)
        Hall = np.stack(hesses[:n + 1], axis=1)      # (B, n+1, a, c)
        Om = lamf[:, :, None] * Gall
        dOm = dlamf[:, :, None, :] * Gall[:, :, :, None] \
            + lamf[:, :, None, None] * Hall

        W = Om[:, :n, :]                             # (B, i, a)
        dW = dOm[:, :n, :, :]                        # (B, i, a, c)
        # the frame: E[j][a] = V[a, j]
        V = _solve(W, np.eye(n), "coframe is not invertible", X)
        dV = -np.einsum("bpi,biqc,bqj->bpjc", V, dW, V)
        FD = np.einsum("bpi,bajp->bija", V, dV)      # D_i E[j][a]
        bracket = FD - FD.transpose(0, 2, 1, 3)
        cst = np.einsum("bka,bija->bkij", W, bracket)

        M = W.transpose(0, 2, 1)                     # M[b,a,i] = omega_i[a]
        what = ("basis-invariant system for foliation %d is singular"
                % (n + 2))
        av = _solve(M, -grads[n + 1][:, :, None], what, X)[:, :, 0]
        check_vanishing(av, X, lambda i: "basis invariant a_%d of "
                        "foliation %d" % (i + 1, n + 2))
        dM = dW.transpose(0, 2, 1, 3)
        rhsa = -hesses[n + 1] - np.einsum("baic,bi->bac", dM, av)
        da = _solve(M, rhsa, what, X)                # (B, i, c)
        Da = np.einsum("bcj,bic->bij", V, da)        # D_j a_i

        # the batch axis last: a[i], Da[i][j] = D_j a_i, c[k][i][j] and
        # theta[i][j] are (B,) rows
        a, Da = av.T, Da.transpose(1, 2, 0)
        i, j = np.nonzero(np.less(*jets.grid(n, 2)))
        check_coincidence(a[i], a[j], i, j, X)
        s = skew_formula(a[i], a[j], Da[i, i], Da[j, i], Da[i, j], Da[j, j])
        theta = np.zeros((n, n, B))
        theta[i, j] = s
        theta[j, i] = -s
        fg = frame_christoffels(cst.transpose(1, 2, 3, 0), theta)
        fg = np.ascontiguousarray(fg.transpose(3, 0, 1, 2))

        H = np.einsum("bkji,bck->bcij", fg, V) - FD.transpose(0, 3, 1, 2)
        G = np.einsum("bia,bjd,bcij->bcad", W, W, H)
        return G[0] if single else G

    return evaluate
