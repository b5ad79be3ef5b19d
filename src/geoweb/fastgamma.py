"""Batched value-level pipeline for canonical Christoffels (gauge t = 0).

Geodesic integration evaluates the connection thousands of times, which is
too slow through per-point jet objects.  This module takes the order-2
coefficient arrays of the web functions for a whole batch of points from
`expr.eval_coeffs`, the walk that also gives each per-point `Jet`, so a
batch column equals the per-point jet bit for bit.  It then derives
lambda, the frame, the structure functions, the skew invariants and the
coordinate Christoffels by explicit matrix calculus, which a
cross-validation test checks against the jet-level connection.
"""

from __future__ import annotations

import numpy as np

from . import expr, jets
from .errors import DegenerateWebPoint
from .web import DEGENERACY_FLOOR, WebChart
from .connection import COINCIDENCE_FLOOR


def batched_values(tree, X) -> np.ndarray:
    """Function values over a batch of points (order-0 evaluation)."""
    return expr.eval_coeffs(tree, X, 0)[0]


def _value_grad_hess(tree, X):
    n = X.shape[1]
    co = expr.eval_coeffs(tree, X, 2)
    val = co[0]
    grad = co[1:1 + n].T.copy()          # (B, n)
    exps = jets.exponents(n, 2)
    hess = np.empty((X.shape[0], n, n))
    for idx in range(1 + n, len(exps)):
        e = exps[idx]
        axes = [a for a in range(n) if e[a] > 0]
        if len(axes) == 1:
            a = axes[0]
            hess[:, a, a] = 2.0 * co[idx]
        else:
            a, b = axes
            hess[:, a, b] = co[idx]
            hess[:, b, a] = co[idx]
    return val, grad, hess


def _solve(A, rhs, what):
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        raise DegenerateWebPoint("%s system is singular in batch" % what) \
            from None


def _check_floor(vals, floor_rel, what):
    # vals (B, k): every component must clear the per-row relative floor
    scale = np.maximum(1.0, np.abs(vals).max(axis=1))
    bad = np.abs(vals) <= floor_rel * scale[:, None]
    if np.any(bad):
        b = int(np.argwhere(bad)[0, 0])
        raise DegenerateWebPoint("%s vanishes at batch row %d" % (what, b))


def batched_gamma_evaluator(web: WebChart):
    """Point batch (B, n) -> coordinate Christoffel values (B, n, n, n).

    Implements the canonical connection with gauge t = 0 for the subweb
    f_1..f_{n+2}; raises DegenerateWebPoint when any point in the batch is
    inadmissible.
    """
    n = web.dim
    trees = web.functions[:n + 2]

    def evaluate(X):
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        vgh = [_value_grad_hess(t, X) for t in trees]
        grads = [v[1] for v in vgh]
        hesses = [v[2] for v in vgh]

        A = np.stack(grads[:n], axis=2)              # A[b,a,i] = d_a f_i
        lam = _solve(A, -grads[n][:, :, None],
                     "coframe normalization")[:, :, 0]
        _check_floor(lam, DEGENERACY_FLOOR, "lambda")
        dA = np.stack(hesses[:n], axis=2)            # dA[b,a,i,c]
        rhsd = -hesses[n] - np.einsum("baic,bi->bac", dA, lam)
        dlam = _solve(A, rhsd, "coframe normalization")   # (B,i,c)

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
        try:
            V = np.linalg.inv(W)                     # (B, a, j): E[j][a]=V[a,j]
        except np.linalg.LinAlgError:
            raise DegenerateWebPoint("coframe is not invertible in batch") \
                from None
        dV = -np.einsum("bpi,biqc,bqj->bpjc", V, dW, V)
        FD = np.einsum("bpi,bajp->bija", V, dV)      # D_i E[j][a]
        bracket = FD - FD.transpose(0, 2, 1, 3)
        cst = np.einsum("bka,bija->bkij", W, bracket)

        M = W.transpose(0, 2, 1)                     # M[b,a,i] = omega_i[a]
        av = _solve(M, -grads[n + 1][:, :, None],
                    "basis invariant")[:, :, 0]
        _check_floor(av, DEGENERACY_FLOOR, "basis invariant")
        dM = dW.transpose(0, 2, 1, 3)
        rhsa = -hesses[n + 1] - np.einsum("baic,bi->bac", dM, av)
        da = _solve(M, rhsa, "basis invariant")      # (B, i, c)
        Da = np.einsum("bcj,bic->bij", V, da)        # D_j a_i

        theta = np.zeros((B, n, n))
        for i in range(n):
            for j in range(i + 1, n):
                ai, aj = av[:, i], av[:, j]
                den = ai - aj
                scale = np.maximum(1.0, np.maximum(np.abs(ai), np.abs(aj)))
                if np.any(np.abs(den) <= COINCIDENCE_FLOOR * scale):
                    raise DegenerateWebPoint(
                        "basis invariants a_%d and a_%d coincide in batch"
                        % (i + 1, j + 1))
                num = ai * (Da[:, j, j] / aj - Da[:, i, j] / ai) \
                    - aj * (Da[:, j, i] / aj - Da[:, i, i] / ai)
                sij = num / den
                theta[:, i, j] = sij
                theta[:, j, i] = -sij

        fg = np.empty((B, n, n, n))
        for k in range(n):
            for p in range(n):
                for q in range(n):
                    if p == k and q == k:
                        fg[:, k, k, k] = -theta[:, k, k]
                    elif q == k:
                        fg[:, k, p, k] = 0.5 * (cst[:, k, k, p]
                                                - theta[:, k, p])
                    elif p == k:
                        fg[:, k, k, q] = 0.5 * (cst[:, k, q, k]
                                                - theta[:, k, q])
                    else:
                        fg[:, k, p, q] = 0.5 * cst[:, k, q, p]

        H = np.einsum("bkji,bck->bcij", fg, V) - FD.transpose(0, 3, 1, 2)
        G = np.einsum("bia,bjd,bcij->bcad", W, W, H)
        return G[0] if single else G

    return evaluate
