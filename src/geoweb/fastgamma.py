"""Batched value-level pipeline for canonical Christoffels (gauge t = 0).

Geodesic integration evaluates the connection two RK4 stage points a call,
thousands of times; the tensor-shaped jet route is 15 to 19 times slower
(order 2, one point a call, medians of 21 interleaved rounds of 50 points
in one process on a noisy 2-core x86-64 machine: 1.62 / 2.56 / 2.77 ms
against 0.11 / 0.16 / 0.15 ms here on the benchmark webs xy4 / mixed3 /
web4).  The web functions are compiled once into the
`expr.compile_program` program that also gives each per-point `Jet`, so a
batch column, and each row of a call, is bit for bit its point alone.

`_frame` inverts A = (d_a f_i) by the LAPACK gufunc behind
`np.linalg.inv` and takes from A^-1 by batched matrix products lambda and
its derivative, the frame V = A^-T diag(1/lambda), inverse of the coframe
W = diag(lambda) A^T, and L = D log lambda.  Where f_1..f_{n+1} are
affine by form (`_affine`: all benchmark webs), their gradients and
Hessians are the same bits at every point, so is that frame, and the
evaluator computes both once, when it is built, at the chart center, as a
batch of one that broadcasts over any call.  A call then expands f_{n+2}
alone, by a program of its own, where its coordinates are within the
reach of f_1..f_{n+1} (`_reach`): there none of their values overflows
and nothing else of theirs can fail, so that program raises the
`DomainError`s the program over all n + 2 functions would raise.  A call
past the reach (a NaN, an inf, or on the benchmark webs a batch whose
sum of squares overflows) runs the program over all n + 2 functions with the frame built
once; so does every call elsewhere (a curved frame, an empty batch, or a
center frame that raises or fails the screen's kappa or lambda bound),
which computes the frame from its own expansion.  From either source, the
gradients and Hessians of f_1..f_n and of f_{n+2} feed one closed form.
A call takes from the frame by matrix products the basis invariants and
their derivatives, for the skew formula of `web` that the jet route calls
too.  Then it evaluates on values the closed form that
`connection.canonical_christoffels` evaluates on jets (derived in the
`connection` docstring), with E_j^c lambda_j = (A^-1)_jc and theta = s:

    Gamma^c_ab = sum_j (A^-1)_jc (d_a d_b f_j + d_a f_j K_jb + K_ja d_b f_j)

With two points a call, the time goes to the fixed cost of each numpy
operation, so a call runs under one `np.errstate` and checks admissibility
once: after G is formed, one bound over the batch (`_screen`), whose
frame part (`_frame_bounds`) is reduced once where the frame is built
once, clears the four checks of the jet route at once.  Only where it
does not clear (a NaN, an inf, an empty batch, a point near a limit) do
`coframe_inverse`, `check_vanishing` on lambda and on a, and
`check_coincidence` run, in that order, on the frame of every row, so the
points excluded and the texts are those of the jet route.

One call on a 2-row stage pair takes 53 / 71 / 63 us on xy4 / mixed3 /
web4 with the frame built once and f_{n+2} expanded alone, against
61 / 82 / 75 us when such a call expanded all n + 2 functions (0.84 to
0.87 times over three runs; medians of 41 interleaved rounds of 200 calls
in one process, same machine).  Of that, the rows-last layout of the skew
formula's operands gives about 5 % and the frame part of the screen
reduced once 2.5 to 4 %; at 512 rows a call takes 0.55 to 0.71 times as
long.  On the curved-frame test webs, which build the frame per call and
reduce it in the screen's second pass, a call takes 1.00 to 1.05 times as
long, and their RK4 runs stay within noise.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

from . import expr, jets
from .errors import DegenerateWebPoint
from .web import (COINCIDENCE_FLOOR, CONDITION_LIMIT, DEGENERACY_FLOOR,
                  WebChart, check_coincidence, check_vanishing,
                  coframe_inverse, skew_formula)


def batched_values(tree, X) -> np.ndarray:
    """Function values over a batch of points (order-0 evaluation)."""
    return expr.eval_coeffs(tree, X, 0)[0]


def _frame_bounds(A, AinvT, lam):
    """The frame's part of `_screen`'s bound over a batch: 2 n^2 max|A|
    max|A^-T|, min|lambda| and max|lambda|, NaN for an empty batch."""
    if not len(A):
        return np.nan, np.nan, np.nan
    n = A.shape[-1]
    # |A|, |A^-T| and |lambda| in one buffer, whose maxima over those runs
    # take one call; a NaN makes every reduction over its run NaN
    x = np.abs(np.concatenate((A, AinvT, lam), axis=None))
    k = A.size
    amax, imax, lmax = np.maximum.reduceat(x, (0, k, 2 * k)).tolist()
    lmin = float(np.minimum.reduce(x[2 * k:]))
    return 2.0 * n * n * amax * imax, lmin, lmax


def _screen(bounds, av, gap) -> bool:
    """True when one bound over the whole batch shows that no point fails
    `coframe_inverse`, `check_vanishing` on lambda or on a, or
    `check_coincidence` on the differences `gap` of a_i and a_j (i < j),
    given the `_frame_bounds` of the batch's frames.

    The bound is each check's own screen with one scale for the three
    value checks: 2 n^2 max|A| max|A^-T| below CONDITION_LIMIT, as in
    `coframe_inverse`, and every |lambda_i|, |a_i| and |a_i - a_j| above
    its floor times the largest |lambda_i| or |a_i| (floored at 1), which
    is at least the scale each check gives that value.  False on a NaN,
    an inf or an empty batch.
    """
    if not av.size:
        return False
    kappa, lmin, lmax = bounds
    # |a| and |gap| in one buffer, as in `_frame_bounds`; a comparison
    # with NaN fails
    x = np.abs(np.concatenate((av, gap), axis=None))
    k = av.size
    vmin, gmin = np.minimum.reduceat(x, (0, k)).tolist()
    scale = max(1.0, lmax, float(np.maximum.reduce(x[:k])))
    return (kappa < CONDITION_LIMIT
            and lmin > DEGENERACY_FLOOR * scale
            and vmin > DEGENERACY_FLOOR * scale
            and gmin > COINCIDENCE_FLOOR * scale)


def _constant(node) -> bool:
    """True for a tree without variables, which the compiled program
    folds to a float (or to a node that raises when run)."""
    if isinstance(node, expr.Var):
        return False
    if isinstance(node, expr.BinOp):
        return _constant(node.left) and _constant(node.right)
    if isinstance(node, (expr.Neg, expr.Call)):
        return _constant(node.arg)
    return True


def _affine(node) -> bool:
    """True when the tree is affine in x by its form: variables, folded
    constants, +, -, negation, and products with or quotients by a folded
    constant.  Its compiled program then gives derivative coefficients
    that do not depend on the point, bit for bit: every operation on them
    is a sum, a negation, or a product or quotient by a float."""
    if isinstance(node, expr.Var) or _constant(node):
        return True
    if isinstance(node, expr.Neg):
        return _affine(node.arg)
    if not isinstance(node, expr.BinOp):
        return False
    left, right = node.left, node.right
    if node.op in "+-":
        return _affine(left) and _affine(right)
    if node.op == "*":
        return (_constant(left) and _affine(right)
                or _affine(left) and _constant(right))
    return node.op == "/" and _affine(left) and _constant(right)


# the largest magnitude `_reach` lets a value computed in an affine tree
# take: 2^24 below the float range, far more than the rounding of the
# hundred nested operations a tree may have can add
_VALUE_LIMIT = 2.0 ** 1000


def _reach(node):
    """(slope, offset, reach) of an affine tree whose constants fold: at a
    point whose coordinates are at most R in magnitude the tree's value is
    at most slope R + offset, and for R below `reach` so is every value
    its compiled program computes at most _VALUE_LIMIT, so none overflows.
    A reach of 0 holds at no point."""
    if _constant(node):
        return 0.0, abs(expr._compile(node)), np.inf
    if isinstance(node, expr.Var):
        slope, offset, reach = 1.0, 0.0, np.inf
    elif isinstance(node, expr.Neg):
        return _reach(node.arg)
    elif node.op in "+-":
        s1, o1, r1 = _reach(node.left)
        s2, o2, r2 = _reach(node.right)
        slope, offset, reach = s1 + s2, o1 + o2, min(r1, r2)
    else:
        # a product with, or a quotient by, a folded constant
        const, tree = ((node.left, node.right) if _constant(node.left)
                       else (node.right, node.left))
        scale = abs(expr._compile(const))
        slope, offset, reach = _reach(tree)
        if node.op == "*":
            slope, offset = slope * scale, offset * scale
        else:
            slope, offset = slope / scale, offset / scale
    if not (slope < np.inf and offset < _VALUE_LIMIT):
        return slope, offset, 0.0
    if slope:
        reach = min(reach, (_VALUE_LIMIT - offset) / slope)
    return slope, offset, reach


def _frame(grads, hesses):
    """The normalized frame of f_1..f_{n+1} over a batch, from gradients
    grads[b, f, a] = d_a f and Hessians hesses[b, f, a, c] of f_1..f_{n+1}
    (later functions ignored): A[b, a, i] = d_a f_i, the transpose of its
    inverse A^-T, lambda, the coframe W = diag(lambda) A^T with its
    derivative dW flattened to (B, n, n^2), the frame V = W^-1 =
    A^-T diag(1/lambda) and V^T, and L[b, j, i] = D_i log lambda_j."""
    B, n = len(grads), grads.shape[-1]
    A = grads[:, :n].transpose(0, 2, 1)
    # the LAPACK gufunc np.linalg.inv calls, without its type checks; a
    # singular row comes out NaN, which the screen sends to
    # `coframe_inverse`
    Ainv = _umath_linalg.inv(A, signature="d->d")
    lam = -(Ainv @ grads[:, n, :, None])[:, :, 0]
    # rhs[b,a,c] = -d_a d_c f_{n+1} - sum_i lam_i d_a d_c f_i
    Hn = hesses[:, :n].reshape(B, n, n * n)
    rhs = -hesses[:, n] - (lam[:, None] @ Hn).reshape(B, n, n)
    dlam = Ainv @ rhs                                # (B, i, c)
    # row i of W is omega_i = lam_i df_i, and E[j][a] = V[a, j]
    W = lam[:, :, None] * grads[:, :n]               # (B, i, a)
    dW = dlam[:, :, None, :] * grads[:, :n, :, None] \
        + lam[:, :, None, None] * hesses[:, :n]      # (B, i, a, c)
    AinvT = Ainv.transpose(0, 2, 1)
    V = AinvT / lam[:, None, :]
    L = (dlam @ V) / lam[:, :, None]
    return (A, AinvT, lam, W, dW.reshape(B, n, n * n), V,
            V.transpose(0, 2, 1), L)


def batched_gamma_evaluator(web: WebChart):
    """Point batch (B, n) -> coordinate Christoffel values (B, n, n, n).

    Implements the canonical connection with gauge t = 0 for the subweb
    f_1..f_{n+2}; raises DegenerateWebPoint, whose `rows` mark the
    inadmissible points, when any point in the batch is inadmissible.
    The web functions are compiled, and the index arrays built, once here;
    so is the frame, where f_1..f_{n+1} are affine (see `_affine`).
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

    # the program runs inside this call's errstate, so not inside its own
    # too: `np.errstate` decorates it by `functools.wraps`
    run = program.__wrapped__

    def expand(prog, X):
        # the functions in order, so the first that fails names the error,
        # then grads[b, f, a] = d_a f and hesses[b, f, a, c] in one gather
        # from the (B, functions, count) coefficients; matmul sums in an
        # order that follows operand layout, so these layouts fix the
        # last bits
        co = np.ascontiguousarray(prog(X, 2).transpose(2, 0, 1))
        return co[:, :, 1:1 + n], co.take(slot, 2) * fac

    # Where f_1..f_{n+1} are affine their gradients and Hessians, so the
    # frame, are the same bits at every point: one row of them, taken at
    # the center, broadcasts over any batch.  It is kept only if it clears
    # the screen's kappa and lambda bounds (lambda standing in for a, with
    # no pair of a near), so a call's screen decides on the same values.
    fixed = None
    if all(map(_affine, web.functions[:n + 1])):
        head = expr.compile_program(web.functions[:n + 1]).__wrapped__
        try:
            with np.errstate(over="ignore", divide="ignore",
                             invalid="ignore"):
                grads, hesses = expand(head, web.center[None])
                frame = _frame(grads, hesses)
                bounds = _frame_bounds(*frame[:3])
                if _screen(bounds, frame[2], np.array([np.inf])):
                    fixed = frame, bounds, grads[:, :n], hesses[:, :n]
        except DegenerateWebPoint:      # DomainError among them
            pass
    if fixed is not None:
        # Within the reach no value of f_1..f_{n+1} overflows, and nothing
        # else in them can fail at a point, so the program over f_{n+2}
        # alone raises what the program over all n + 2 functions would
        tail = expr.compile_program(web.functions[n + 1:n + 2]).__wrapped__
        reach = min(_reach(f)[2] for f in web.functions[:n + 1])
        reach2 = reach * reach

    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def evaluate(X):
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None]
        B = X.shape[0]
        # grads[:, k] and hesses[:, k] are those of f_{n+2}
        if fixed is None or not B:
            grads, hesses = expand(run, X)
            frame = _frame(grads, hesses)
            bounds = _frame_bounds(*frame[:3])
            gf, Hf, k = grads[:, :n], hesses[:, :n], n + 1
        else:
            frame, bounds, gf, Hf = fixed
            # every |x_a| is at most |X|, and the sum of squares is NaN or
            # inf where a coordinate is
            if np.vdot(X, X) < reach2:
                (grads, hesses), k = expand(tail, X), 0
            else:
                (grads, hesses), k = expand(run, X), n + 1
        A, AinvT, lam, W, dWf, V, VT, L = frame

        # the basis invariants solve W^T a = -g_{n+2}, and W^-T = V^T
        av = -(grads[:, k, None] @ V)[:, 0]
        rhs = -hesses[:, k] - (av[:, None] @ dWf).reshape(B, n, n)
        Da = VT @ rhs @ V                            # D_j a_i = Da[b, i, j]

        # ar[:, p, b] = a_i, a_j, a_i, a_j at row b and q the log
        # derivatives D_i a_i / a_i, D_i a_j / a_j, D_j a_i / a_i,
        # D_j a_j / a_j, with the rows last: the skew formula then runs on
        # contiguous operands, which cost less to dispatch than the
        # strided ones of the rows-first layout, for the same bits
        ar = av.T.take(rows, 0)
        q = Da.reshape(B, n * n).T.take(cross, 0) / ar
        s = np.zeros((2 * m + 1, B))
        s[:-1] = skew_formula(ar[0], ar[1], *q)

        # the closed form: Q = (L - theta) / 2, K = Q W and
        # G = A^-T (Hessians + d f K + (d f K)^T)
        Q = L - s.take(skew, 0).T.reshape(B, n, n)
        K = (Q * 0.5) @ W
        P = gf[:, :, :, None] * K[:, :, None, :]
        T = Hf + (P + P.transpose(0, 1, 3, 2))
        G = (AinvT @ T.reshape(B, n, n * n)).reshape(B, n, n, n)

        u, v = ar[0, :m], ar[1, :m]                  # a_i, a_j for i < j
        if not _screen(bounds, av, u - v):
            # the checks in the order their values arise, on the frame of
            # every row; the first that fails raises, as it did before G
            # was formed
            coframe_inverse(np.broadcast_to(A, (B, n, n)), X)
            check_vanishing(np.broadcast_to(lam, (B, n)), X,
                            lambda i: "lambda_%d" % (i + 1))
            check_vanishing(av, X, lambda i: "basis invariant a_%d of "
                            "foliation %d" % (i + 1, n + 2))
            check_coincidence(u, v, i[:m], j[:m], X)
        return G[0] if single else G

    return evaluate
