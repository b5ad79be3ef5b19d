"""Batched value-level pipeline for canonical Christoffels (gauge t = 0).

Geodesic integration evaluates the connection thousands of times, one
point at a time, where the tensor-shaped jet route is still 6 to 9 times
slower (order 2, median of 100 interleaved calls on a 2-core x86-64
machine: 1.1 / 1.5 / 2.0 ms against 0.18 / 0.20 / 0.21 ms here on the
benchmark webs xy4 / mixed3 / web4).  `batched_gamma_evaluator` compiles
the web functions once into an `expr.compile_program` program, the
evaluation that also gives each per-point `Jet`, so a batch column equals
the per-point jet bit for bit, and builds its index arrays once.  Each
call takes the order-2 coefficients of all functions for a whole batch of
points, derives lambda, the frame, the structure functions and the
derivatives of the basis invariants by matrix calculus on their values,
and hands those to the jet route's own checks and formulas
(`web.check_vanishing`, `connection.check_coincidence`,
`connection.skew_formula`, `connection.frame_christoffels`) with the
batch axis moved last, so every entry is a (B,) row.
"""

from __future__ import annotations

import numpy as np

from . import expr, jets
from .connection import check_coincidence, frame_christoffels, skew_formula
from .errors import DegenerateWebPoint, batch_error
from .web import WebChart, check_vanishing


def batched_values(tree, X) -> np.ndarray:
    """Function values over a batch of points (order-0 evaluation)."""
    return expr.eval_coeffs(tree, X, 0)[0]


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
    The web functions are compiled, and the index arrays built, once here.
    """
    n = web.dim
    program = expr.compile_program(web.functions[:n + 2])
    # slot[a][b]: where an order-2 jet stores the x_a x_b coefficient,
    # which is the Hessian entry over 2 on the diagonal and 1 off it
    index, unit = jets._tables(n, 2).index, np.eye(n, dtype=int)
    slot = np.array([[index[tuple(unit[a] + unit[b])] for b in range(n)]
                     for a in range(n)])
    fac = 1.0 + np.eye(n)
    eye = np.eye(n)
    i, j = np.nonzero(np.less(*jets.grid(n, 2)))
    singular = "coframe normalization is singular"
    basis = "basis-invariant system for foliation %d is singular" % (n + 2)
    pads = {}                  # batch size -> the last row of lamf, dlamf

    def evaluate(X):
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        B = X.shape[0]
        # the functions in order, so the first that fails names the error;
        # then one gather of all gradients and Hessians from the (B, n+2,
        # count) coefficients, grads[b, f, a] = d_a f and hesses[b, f, a, c].
        # einsum sums in an order that follows the memory layout of its
        # operands, so the arrays it reads, directly or through W and dW,
        # are C-contiguous in the axis order shown
        co = np.ascontiguousarray(program(X, 2).transpose(2, 0, 1))
        grads = co[:, :, 1:1 + n]
        hesses = co[:, :, slot] * fac

        A = grads[:, :n].transpose(0, 2, 1)         # A[b,a,i] = d_a f_i
        lam = _solve(A, -grads[:, n, :, None], singular, X)[:, :, 0]
        check_vanishing(lam, X, lambda i: "lambda_%d" % (i + 1))
        dA = np.ascontiguousarray(hesses[:, :n].transpose(0, 2, 1, 3))
        rhsd = -hesses[:, n] - np.einsum("baic,bi->bac", dA, lam)
        dlam = _solve(A, rhsd, singular, X)          # (B, i, c)

        if B not in pads:
            pads[B] = np.ones((B, 1)), np.zeros((B, 1, n))
        one, zero = pads[B]
        lamf = np.concatenate([lam, one], axis=1)
        dlamf = np.concatenate([dlam, zero], axis=1)
        Gall = grads[:, :n + 1]                      # (B, n+1, a)
        Hall = hesses[:, :n + 1]                     # (B, n+1, a, c)
        Om = lamf[:, :, None] * Gall
        dOm = dlamf[:, :, None, :] * Gall[:, :, :, None] \
            + lamf[:, :, None, None] * Hall

        W = Om[:, :n, :]                             # (B, i, a)
        dW = dOm[:, :n, :, :]                        # (B, i, a, c)
        # the frame: E[j][a] = V[a, j]
        V = _solve(W, eye, "coframe is not invertible", X)
        dV = -np.einsum("bpi,biqc,bqj->bpjc", V, dW, V)
        FD = np.einsum("bpi,bajp->bija", V, dV)      # D_i E[j][a]
        bracket = FD - FD.transpose(0, 2, 1, 3)
        cst = np.einsum("bka,bija->bkij", W, bracket)

        M = W.transpose(0, 2, 1)                     # M[b,a,i] = omega_i[a]
        av = _solve(M, -grads[:, n + 1, :, None], basis, X)[:, :, 0]
        check_vanishing(av, X, lambda i: "basis invariant a_%d of "
                        "foliation %d" % (i + 1, n + 2))
        dM = dW.transpose(0, 2, 1, 3)
        rhsa = -hesses[:, n + 1] - np.einsum("baic,bi->bac", dM, av)
        da = _solve(M, rhsa, basis, X)               # (B, i, c)
        Da = np.einsum("bcj,bic->bij", V, da)        # D_j a_i

        # the batch axis last: a[i], Da[i][j] = D_j a_i, c[k][i][j] and
        # theta[i][j] are (B,) rows
        a, Da = av.T, Da.transpose(1, 2, 0)
        ai, aj = a[i], a[j]
        check_coincidence(ai, aj, i, j, X)
        s = skew_formula(ai, aj, Da[i, i], Da[j, i], Da[i, j], Da[j, j])
        theta = np.zeros((n, n, B))
        theta[i, j] = s
        theta[j, i] = -s
        fg = frame_christoffels(cst.transpose(1, 2, 3, 0), theta)
        fg = np.ascontiguousarray(fg.transpose(3, 0, 1, 2))

        H = np.einsum("bkji,bck->bcij", fg, V) - FD.transpose(0, 3, 1, 2)
        G = np.einsum("bia,bjd,bcij->bcad", W, W, H)
        return G[0] if single else G

    return evaluate
