"""Batched value-level pipeline for canonical Christoffels (gauge t = 0).

Geodesic integration evaluates the connection two RK4 stage points a call,
thousands of times; the tensor-shaped jet route is 10 to 12 times slower
(order 2, one point a call, medians of 41 interleaved rounds of 50 points
in one process on a noisy 2-core x86-64 machine, three runs: for example
1.9 / 2.0 / 2.7 ms against 0.18 / 0.20 / 0.23 ms here on the benchmark
webs xy4 / mixed3 / web4).  The web functions are compiled once into the
`expr.compile_program` program that also gives each per-point `Jet`, so a
batch column, and each row of a call, is bit for bit its point alone.  A
call inverts A = (d_a f_i) once by the jet route's `web.coframe_inverse`,
and takes from A^-1 by batched matrix products lambda and its derivative,
the frame V = A^-T diag(1/lambda), inverse of the coframe
W = diag(lambda) A^T, and the basis invariants and their derivatives, for
the checks and the skew formula of `web` that the jet route calls too.
Then it evaluates on values the closed form that
`connection.canonical_christoffels` evaluates on jets (derived in the
`connection` docstring), with E_j^c lambda_j = (A^-1)_jc and theta = s:

    Gamma^c_ab = sum_j (A^-1)_jc (d_a d_b f_j + d_a f_j K_jb + K_ja d_b f_j)
"""

from __future__ import annotations

import numpy as np

from . import expr, jets
from .web import (WebChart, check_coincidence, check_vanishing,
                  coframe_inverse, skew_formula)


def batched_values(tree, X) -> np.ndarray:
    """Function values over a batch of points (order-0 evaluation)."""
    return expr.eval_coeffs(tree, X, 0)[0]


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
    # the pairs i < j, then the same pairs reversed: s_ji comes out as
    # -s_ij bit for bit
    i, j = np.nonzero(np.less(*jets.grid(n, 2)))
    m = len(i)
    i, j = np.concatenate((i, j)), np.concatenate((j, i))
    # a.take(rows) gathers a_i, a_j, a_i, a_j and the flat Da.take(cross)
    # D_i a_i, D_i a_j, D_j a_i, D_j a_j for every pair; `take` gathers
    # as fancy indexing does, at a fraction of its overhead
    rows = np.array([i, j, i, j])
    cross = rows * n + np.array([i, i, j, j])
    # theta's skew part as a dense matrix: entry (i, j) of the pair list
    # reads s_ij, the diagonal the trailing zero
    skew = np.full((n, n), 2 * m)
    skew[i, j] = np.arange(2 * m)
    skew = skew.reshape(-1)

    def evaluate(X):
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None]
        B = X.shape[0]
        # the functions in order, so the first that fails names the error,
        # then grads[b, f, a] = d_a f and hesses[b, f, a, c] in one gather
        # from the (B, n+2, count) coefficients; matmul sums in an order
        # that follows operand layout, so these layouts fix the last bits
        co = np.ascontiguousarray(program(X, 2).transpose(2, 0, 1))
        grads = co[:, :, 1:1 + n]
        hesses = co.take(slot, 2) * fac

        A = grads[:, :n].transpose(0, 2, 1)         # A[b,a,i] = d_a f_i
        Ainv = coframe_inverse(A, X)
        lam = -(Ainv @ grads[:, n, :, None])[:, :, 0]
        check_vanishing(lam, X, lambda i: "lambda_%d" % (i + 1))
        # rhs[b,a,c] = -d_a d_c f_{n+1} - sum_i lam_i d_a d_c f_i
        Hn = hesses[:, :n].reshape(B, n, n * n)
        rhs = -hesses[:, n] - (lam[:, None] @ Hn).reshape(B, n, n)
        dlam = Ainv @ rhs                            # (B, i, c)

        # the coframe W = diag(lam) A^T, row i omega_i = lam_i df_i, and
        # the frame V = W^-1 = A^-T diag(1/lam): E[j][a] = V[a, j]
        W = lam[:, :, None] * grads[:, :n]           # (B, i, a)
        dW = dlam[:, :, None, :] * grads[:, :n, :, None] \
            + lam[:, :, None, None] * hesses[:, :n]  # (B, i, a, c)
        V = Ainv.transpose(0, 2, 1) / lam[:, None, :]

        # the basis invariants solve W^T a = -g_{n+2}, and W^-T = V^T
        av = -(grads[:, n + 1, None] @ V)[:, 0]
        check_vanishing(av, X, lambda i: "basis invariant a_%d of "
                        "foliation %d" % (i + 1, n + 2))
        dWf = dW.reshape(B, n, n * n)
        rhs = -hesses[:, n + 1] - (av[:, None] @ dWf).reshape(B, n, n)
        Da = V.transpose(0, 2, 1) @ rhs @ V          # D_j a_i = Da[b, i, j]

        # ar[b, :, p] = a_i, a_j, a_i, a_j and q the log derivatives
        # D_i a_i / a_i, D_i a_j / a_j, D_j a_i / a_i, D_j a_j / a_j
        ar = av.take(rows, 1)
        check_coincidence(ar[:, 0, :m].T, ar[:, 1, :m].T, i[:m], j[:m], X)
        q = Da.reshape(B, n * n).take(cross, 1) / ar
        s = np.zeros((B, 2 * m + 1))
        s[:, :-1] = skew_formula(ar[:, 0], ar[:, 1], *q.transpose(1, 0, 2))

        # the closed form: L[j, i] = D_i log lam_j, Q = (L - theta) / 2,
        # K = Q W and G = A^-T (Hessians + d f K + (d f K)^T)
        Q = (dlam @ V) / lam[:, :, None] - s.take(skew, 1).reshape(B, n, n)
        K = (Q * 0.5) @ W
        P = grads[:, :n, :, None] * K[:, :, None, :]
        T = hesses[:, :n] + (P + P.transpose(0, 1, 3, 2))
        G = (Ainv.transpose(0, 2, 1) @ T.reshape(B, n, n * n)).reshape(
            B, n, n, n)
        return G[0] if single else G

    return evaluate
