"""Batched value-level pipeline for canonical Christoffels (gauge t = 0).

Geodesic integration evaluates the connection thousands of times, two
RK4 stage points a call (2B rows for B geodesics), where the
tensor-shaped jet route is still 9 to 13 times slower (order 2, one
point a call, medians of 41 interleaved rounds of 50 points in one
process on a noisy 2-core x86-64 machine: 2.1 / 3.1 / 3.7 ms against
0.22 / 0.30 / 0.28 ms here on the benchmark webs xy4 / mixed3 / web4).
`batched_gamma_evaluator` compiles the web functions once into an
`expr.compile_program` program, the evaluation that also gives each
per-point `Jet`, so a batch column equals the per-point jet bit for bit,
and builds its index arrays once.  Each row of a call is also the call at
that point alone, bit for bit, which is what lets the integrator stack
its stages.  Each call takes the order-2 coefficients of all functions
for a whole batch of points and, like the jet route, factors one matrix,
A = (d_a f_i), here with one `np.linalg.inv`.  Everything else follows
from A^-1 by batched matrix products: lambda and its derivative, the
frame V = A^-T diag(1/lambda), which inverts the coframe
W = diag(lambda) A^T, the structure functions, and the basis invariants
and their derivatives, whose matrix W^T has the inverse V^T.  The values
go to the jet route's own checks and formulas (`web.check_vanishing`,
`connection.check_coincidence`, `connection.skew_formula`,
`connection.frame_christoffels`) with the batch axis moved last, so
every entry is a (B,) row.
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
    i, j = np.nonzero(np.less(*jets.grid(n, 2)))
    # Da[rows, cols] gathers D_i a_i, D_i a_j, D_j a_i, D_j a_j for
    # every pair i < j
    rows, cols = np.array([i, j, i, j]), np.array([i, i, j, j])

    def evaluate(X):
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        B = X.shape[0]
        # the functions in order, so the first that fails names the error;
        # then one gather of all gradients and Hessians from the (B, n+2,
        # count) coefficients, grads[b, f, a] = d_a f and hesses[b, f, a, c];
        # einsum and matmul sum in an order that follows operand layout, so
        # the layouts below fix the last bits of a batch
        co = np.ascontiguousarray(program(X, 2).transpose(2, 0, 1))
        grads = co[:, :, 1:1 + n]
        hesses = co[:, :, slot] * fac

        A = grads[:, :n].transpose(0, 2, 1)         # A[b,a,i] = d_a f_i
        try:
            Ainv = np.linalg.inv(A)
        except np.linalg.LinAlgError:
            # LAPACK stops at an exactly zero pivot of the LU factorization,
            # whose determinant is then exactly zero too
            raise batch_error(DegenerateWebPoint, np.linalg.det(A) == 0.0,
                              lambda b: "coframe normalization is singular "
                              "at %s" % np.array2string(X[b])) from None
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
        # dV[b,c] = -V dW[..., c] V, derivative index c first
        dV = -(V[:, None] @ dW.transpose(0, 3, 1, 2) @ V[:, None])
        FD = np.einsum("bpi,bpaj->bija", V, dV)      # D_i E[j][a]
        bracket = FD - FD.transpose(0, 2, 1, 3)
        cst = np.einsum("bka,bija->bkij", W, bracket)

        # the basis invariants solve W^T a = -g_{n+2}, and W^-T = V^T
        av = -(grads[:, n + 1, None] @ V)[:, 0]
        check_vanishing(av, X, lambda i: "basis invariant a_%d of "
                        "foliation %d" % (i + 1, n + 2))
        dWf = dW.reshape(B, n, n * n)
        rhs = -hesses[:, n + 1] - (av[:, None] @ dWf).reshape(B, n, n)
        Da = V.transpose(0, 2, 1) @ rhs @ V          # D_j a_i = Da[b, i, j]

        # the batch axis last: a[i], Da[i][j] = D_j a_i, c[k][i][j] and
        # theta[i][j] are (B,) rows
        a, Da = av.T, Da.transpose(1, 2, 0)
        ai, aj = a[i], a[j]
        check_coincidence(ai, aj, i, j, X)
        s = skew_formula(ai, aj, *Da[rows, cols])
        theta = np.zeros((n, n, B))
        theta[i, j] = s
        theta[j, i] = -s
        fg = frame_christoffels(cst.transpose(1, 2, 3, 0), theta)
        fg = np.ascontiguousarray(fg.transpose(3, 0, 1, 2))

        H = np.einsum("bkji,bck->bcij", fg, V) - FD.transpose(0, 3, 1, 2)
        G = W.transpose(0, 2, 1)[:, None] @ H @ W[:, None]
        return G[0] if single else G

    return evaluate
