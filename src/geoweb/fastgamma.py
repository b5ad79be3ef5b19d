"""Batched value-level pipeline for canonical Christoffels (gauge t = 0).

Geodesic integration evaluates the connection two RK4 stage points a call,
thousands of times.  Such a call takes 30 / 48 / 45 us on the benchmark
webs xy4 / mixed3 / web4 (`BENCH_20.json`'s attribution, 2-core x86-64),
and the tensor-shaped jet route takes 26 to 35 times as long for one
point (order 2; medians of 11 interleaved rounds in one process on the
same kind of machine).  The web functions are compiled once into the
`expr.compile_program` program that also gives each per-point `Jet`, so a
batch column, and each row of a call, is bit for bit its point alone.

`_frame` inverts A = (d_a f_i) by the LAPACK gufunc behind
`np.linalg.inv` and takes from A^-1 by batched matrix products lambda and
its derivative, the frame V = A^-T diag(1/lambda), inverse of the coframe
W = diag(lambda) A^T, and L = D log lambda.  A call takes from the frame
by matrix products the basis invariants and their derivatives, for the
skew formula of `web` that the jet route calls too.  Then it evaluates on
values the closed form that `connection.canonical_christoffels` evaluates
on jets (derived in the `connection` docstring), with
E_j^c lambda_j = (A^-1)_jc and theta = s:

    Gamma^c_ab = sum_j (A^-1)_jc (d_a d_b f_j + d_a f_j K_jb + K_ja d_b f_j)

The chain is written as two halves on either side of the skew formula:
`invariants` takes f_{n+2}'s order-2 coefficients to a, and to a and D a
at the entries the formula reads; `christoffels` takes the skew entries s
to Gamma.  Where f_1..f_{n+1} are affine by form (all benchmark webs),
their gradients and Hessians are the same bits at every point, so is the
frame, and L, dW and the Hessians of f_1..f_n are 0.
Each half is then a linear map with constant coefficients, and the
evaluator computes both matrices when it is built, at the chart center,
as the images of the unit inputs (Jacobian preaccumulation: Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008).  It keeps them
if the frame clears the screen's kappa and lambda bounds.  Both halves
then map 0 to 0: A, A^-T and lambda are finite, and every operation on
the Hessian slots of an affine tree is a sum, a negation, a product
with a finite float or a quotient by a nonzero one, so those slots, L
and dW are exactly +-0.  A call then runs the program over f_{n+2}
alone, one product with the first map, the skew formula and one product
with the second map.  Each row is its own (1, k) @ (k, l) product, so
its bits do not depend on the batch.  Where A = I, as on every benchmark
and corpus web, the entries of the maps are 0, -1/2, -1 and -2, one
nonzero entry in a column, so each product is one rounded term, the bits
of the chain; on a sheared frame (A not I) the products sum several
terms and agree with the chain to round-off.  The program over f_{n+2}
alone runs where the coordinates are within the reach of f_1..f_{n+1}:
there none of their values overflows and nothing else of theirs can
fail, so it raises the `DomainError`s the program over all n + 2
functions would raise.  A call past the reach (a NaN, an inf, or on the
benchmark webs a batch whose sum of squares overflows) runs the program
over all n + 2 functions and reads f_{n+2} from it.  Every call elsewhere (a curved
frame, or a center frame that raises or fails the screen) expands all
n + 2 functions, computes the frame from them and runs both halves.

With two points a call, the time goes to the fixed cost of each numpy
operation, so a call runs under one `np.errstate` and checks admissibility
once: after G is formed, one bound over the batch (`_screen`), whose
frame part (`_frame_bounds`) is reduced once where the frame is built
once, clears the four checks of the jet route at once.  Only where it
does not clear (a NaN, an inf, an empty batch, a point near a limit)
does a call run the per-row rules of `web` on the frame of every row, in
the jet route's order: `coframe_inverse`, `check_vanishing` on lambda and
on a, and `check_coincidence`.  So the points excluded and the texts are
those of the jet route.
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
    """Function values over a batch of points (order-0 evaluation).  No
    module of the package calls it; `perfbench/spans.py` wraps it by
    name."""
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

    The bound: 2 n^2 max|A| max|A^-T| below CONDITION_LIMIT (kappa_inf(A)
    is at most n^2 max|A| max|A^-1| at every point, and the factor 2
    covers the rounding of the rule's row sums), and every |lambda_i|,
    |a_i| and |a_i - a_j| above its floor times the largest |lambda_i| or
    |a_i| (floored at 1), which is at least the scale each rule gives that
    value.  False on a NaN, an inf or an empty batch.
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


# the largest magnitude `_affine_bound` lets a value computed in an affine
# tree take: 2^24 below the float range, far more than the rounding of the
# hundred nested operations a tree may have can add
_VALUE_LIMIT = 2.0 ** 1000


def _affine_bound(node):
    """None unless the tree is affine in x by its form: variables,
    constants, +, -, negation, and products with or quotients by a
    constant.  Its compiled program then gives derivative coefficients
    that do not depend on the point, bit for bit: every operation on them
    is a sum, a negation, or a product or quotient by a float.

    Else (slope, offset, reach).  A tree without variables has slope 0,
    offset its folded magnitude and reach inf.  For any other, at a point
    whose coordinates are at most R in magnitude the tree's value is at
    most slope R + offset, and for R below `reach` so is every value its
    compiled program computes at most _VALUE_LIMIT, so none overflows;
    the reach is at most _VALUE_LIMIT, and 0 where the bound holds at no
    point (a slope or an offset past the float range).  The tree must
    compile (`expr.compile_program`): every constant folds, and no
    divisor folds to 0.
    """
    if isinstance(node, expr.Var):
        return 1.0, 0.0, _VALUE_LIMIT
    walked = [_affine_bound(kid) for kid in node._fields()
              if isinstance(kid, expr._Node)]
    if None in walked:
        return None
    if all(w[2] == np.inf for w in walked):
        # no variable: the program folds the tree to a float
        return 0.0, abs(expr._compile(node)), np.inf
    if isinstance(node, expr.Neg):
        return walked[0]
    if isinstance(node, expr.Call) or node.op == "^":
        return None
    (s1, o1, r1), (s2, o2, r2) = walked
    if node.op in "+-":
        slope, offset, reach = s1 + s2, o1 + o2, min(r1, r2)
    elif r2 < np.inf and (r1 < np.inf or node.op == "/"):
        # a product of two trees with variables, or a quotient by one
        return None
    else:
        # a product with, or a quotient by, a constant of magnitude scale
        scale, (slope, offset, reach) = ((o1, walked[1]) if r1 == np.inf
                                         else (o2, walked[0]))
        op = expr._FLOAT_OPS[node.op]
        slope, offset = op(slope, scale), op(offset, scale)
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
    so is the frame, where f_1..f_{n+1} are affine (`_affine_bound`), and
    with it the two linear maps that then stand for the closed form.  A
    constant subexpression with no finite value, or a division by a
    constant 0, raises DomainError here.
    """
    n = web.dim
    # compiled first, so every tree `_affine_bound` walks folds its
    # constants
    program = expr.compile_program(web.functions[:n + 2])
    # slot[a][b]: where an order-2 jet stores the x_a x_b coefficient,
    # which is the Hessian entry over 2 on the diagonal and 1 off it
    tables, unit = jets._tables(n, 2), np.eye(n, dtype=int)
    slot = np.array([[tables.index[tuple(unit[a] + unit[b])]
                      for b in range(n)] for a in range(n)])
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

    def coefficients(prog, X):
        # the functions in order, so the first that fails names the error,
        # as (B, functions, count); matmul sums in an order that follows
        # operand layout, so this layout fixes the last bits
        return np.ascontiguousarray(prog(X, 2).transpose(2, 0, 1))

    def invariants(g, H, V, VT, dWf):
        # the first half, linear in the gradient g (B, n) and Hessian H
        # (B, n, n) of f_{n+2}: a, then a_i, a_j, a_i, a_j and D_i a_i,
        # D_i a_j, D_j a_i, D_j a_j of every pair as (4, 2 m, B), rows
        # last: the skew formula then runs on contiguous operands, which
        # cost less to dispatch than strided ones, for the same bits.  The
        # basis invariants solve W^T a = -g, and W^-T = V^T
        B = len(g)
        av = -(g[:, None] @ V)[:, 0]
        rhs = -H - (av[:, None] @ dWf).reshape(B, n, n)
        Da = VT @ rhs @ V                            # D_j a_i = Da[b, i, j]
        return (av, av.T.take(rows, 0),
                Da.reshape(B, n * n).T.take(cross, 0))

    def christoffels(s, AinvT, W, L, gf, Hf):
        # the second half, affine in the skew entries s (2 m, B): the
        # closed form with Q = (L - theta) / 2, K = Q W and
        # G = A^-T (Hessians + d f K + (d f K)^T)
        B = s.shape[1]
        theta = np.concatenate((s, np.zeros((1, B)))).take(skew, 0).T
        K = ((L - theta.reshape(B, n, n)) * 0.5) @ W
        P = gf[:, :, :, None] * K[:, :, None, :]
        T = Hf + (P + P.transpose(0, 1, 3, 2))
        return (AinvT @ T.reshape(B, n, n * n)).reshape(B, n, n, n)

    # Where f_1..f_{n+1} are affine their gradients and Hessians, so the
    # frame, are the same bits at every point: they are taken once, at the
    # center.  The frame is used only if it clears the screen's kappa and
    # lambda bounds (lambda standing in for a, with no pair of a near), so
    # a call's screen decides on the same values.  With it the first half
    # is linear in f_{n+2}'s coefficients and the second linear in s (L
    # and the Hessians of f_1..f_n are +-0), so each is one matrix, its
    # image of the unit inputs.
    maps = None
    affine = [_affine_bound(f) for f in web.functions[:n + 1]]
    if None not in affine:
        head = expr.compile_program(web.functions[:n + 1]).__wrapped__
        try:
            with np.errstate(over="ignore", divide="ignore",
                             invalid="ignore"):
                co = coefficients(head, web.center[None])
                grads, hesses = co[:, :, 1:1 + n], co.take(slot, 2) * fac
                A, AinvT, lam, W, dWf, V, VT, L = _frame(grads, hesses)
                bounds = _frame_bounds(A, AinvT, lam)
                if _screen(bounds, lam, np.array([np.inf])):
                    # each half on the unit inputs, the first on f_{n+2}'s
                    # coefficients
                    count, k = tables.count, 2 * m
                    basis = np.eye(count)
                    av, ar, dar = invariants(basis[:, 1:1 + n],
                                             basis.take(slot, 1) * fac,
                                             V, VT, dWf)
                    first = np.concatenate((av.T, ar, dar), None).reshape(
                        -1, count).T
                    second = christoffels(
                        np.eye(k), AinvT, W, L, grads[:, :n],
                        hesses[:, :n]).reshape(k, -1)
                    maps = (np.ascontiguousarray(first), second, bounds, A,
                            lam)
        except DegenerateWebPoint:      # DomainError among them
            pass
    if maps is not None:
        # Within the reach no value of f_1..f_{n+1} overflows, and nothing
        # else in them can fail at a point, so the program over f_{n+2}
        # alone raises what the program over all n + 2 functions would
        tail = expr.compile_program(web.functions[n + 1:n + 2]).__wrapped__
        reach = min(b[2] for b in affine)
        reach2 = reach * reach

    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def evaluate(X):
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None]
        B = X.shape[0]
        if maps is None:
            co = coefficients(run, X)
            grads, hesses = co[:, :, 1:1 + n], co.take(slot, 2) * fac
            A, AinvT, lam, W, dWf, V, VT, L = _frame(grads, hesses)
            bounds = _frame_bounds(A, AinvT, lam)
            av, ar, dar = invariants(grads[:, n + 1], hesses[:, n + 1], V,
                                     VT, dWf)
        else:
            first, second, bounds, A, lam = maps
            # every |x_a| is at most |X|, and the sum of squares is NaN or
            # inf where a coordinate is; f_{n+2} is the last function of
            # either program.  Each row is its own (1, count) @ (count, k)
            # product, so its bits do not depend on the batch
            prog = tail if np.vdot(X, X) < reach2 else run
            r = (coefficients(prog, X)[:, -1:] @ first)[:, 0]
            av = r[:, :n]
            ar, dar = np.ascontiguousarray(r[:, n:].T).reshape(2, 4, 2 * m, B)
        q = dar / ar
        s = skew_formula(ar[0], ar[1], *q)
        if maps is None:
            G = christoffels(s, AinvT, W, L, grads[:, :n], hesses[:, :n])
        else:
            # rows contiguous, as in the first product: BLAS sums a strided
            # row in another order
            G = (np.ascontiguousarray(s.T)[:, None] @ second).reshape(
                B, n, n, n)

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
