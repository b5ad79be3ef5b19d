"""The degeneracy checks of `web`: their batch-wide screens, and the one
screen of `fastgamma` for all four, never change an exclusion.

Each check first tries one sufficient bound over the whole batch and runs
its per-row rule only where that bound does not clear.  The per-row rules
are copied here as they were before the screens; on rows that straddle
every bound, the checks must raise or pass as the copies do, with the same
`rows` and the same texts.
"""

import numpy as np
import pytest

from geoweb import fastgamma
from geoweb.errors import CoincidentInvariants, DegenerateWebPoint, \
    batch_error
from geoweb.web import (COINCIDENCE_FLOOR, CONDITION_LIMIT, DEGENERACY_FLOOR,
                        WebChart, check_coincidence, check_vanishing,
                        coframe_inverse)


def rule_vanishing(values, point, name):
    vals = np.abs(values)
    scale = np.maximum(1.0, vals.max(axis=-1))
    low = vals <= DEGENERACY_FLOOR * scale[..., None]
    if low.any():
        low = low.reshape(-1, vals.shape[-1])
        pts = np.reshape(point, (-1, np.shape(point)[-1]))
        raise batch_error(DegenerateWebPoint, low.any(axis=1), lambda b:
                          "%s vanishes at %s" % (name(int(np.argmax(low[b]))),
                                                 np.array2string(pts[b])))


def rule_inverse(A, point):
    try:
        inv = np.linalg.inv(A)
        with np.errstate(over="ignore"):
            kappa = (np.abs(A).sum(axis=-1).max(axis=-1)
                     * np.abs(inv).sum(axis=-1).max(axis=-1))
    except np.linalg.LinAlgError:
        kappa = np.linalg.cond(A, np.inf)
    bad = ~np.less(kappa, CONDITION_LIMIT)
    if bad.any():
        kappa = np.reshape(kappa, -1)
        pts = np.reshape(point, (-1, A.shape[-1]))
        raise batch_error(DegenerateWebPoint, bad, lambda b:
                          "coframe normalization is singular at %s "
                          "(condition number %.3g)"
                          % (np.array2string(pts[b]), kappa[b]))
    return inv


def rule_coincidence(u0, v0, i, j, point):
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


def outcome(check, *args):
    """What a check does: its result, or its error's type, text, rows and
    the texts of every failing row."""
    with np.errstate(all="ignore"):
        try:
            return "returned", check(*args)
        except DegenerateWebPoint as e:
            rows = np.atleast_1d(e.rows)
            return (type(e), str(e), rows.tolist(),
                    [e.detail(b) for b in np.flatnonzero(rows)])


def assert_same(check, rule, *args):
    got, want = outcome(check, *args), outcome(rule, *args)
    if want[0] == "returned":
        assert got[0] == "returned"
        if want[1] is None:
            assert got[1] is None
        else:
            assert np.array_equal(got[1], want[1], equal_nan=True)
    else:
        assert got == want
    return want[0]


def points(B, n):
    return np.arange(B * n, dtype=float).reshape(B, n) / 10.0


def step(x, k):
    """x moved k units in the last place (k may be negative)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return x


# -- kappa: the rule's bound 1e12 and the screen's 1e12 / (2 n^2) ----------

def _scaled(n, c):
    # kappa_inf(diag(1, .., 1, 1/c)) = c for c >= 1
    A = np.eye(n)
    A[-1, -1] = 1.0 / c
    return A


def _kappa_batches():
    rng = np.random.default_rng(3)
    out = []
    for n in (2, 3, 4):
        edges = [CONDITION_LIMIT, CONDITION_LIMIT / (2 * n * n),
                 CONDITION_LIMIT / (n * n)]
        cs = [step(c, k) for c in edges for k in (-3, -1, 0, 1, 3)]
        cs += [c * f for c in edges for f in (1 - 1e-9, 1 + 1e-9)]
        # each alone, and all of them as one batch
        for c in cs:
            out.append(("n%d-alone-%.17g" % (n, c), _scaled(n, c)[None]))
        out.append(("n%d-all" % n, np.stack([_scaled(n, c) for c in cs])))
        # the rows the rule admits, the screen's bound among them
        near = [c for c in cs if c < CONDITION_LIMIT / 2]
        out.append(("n%d-admissible" % n,
                    np.stack([_scaled(n, c) for c in near])))
        # well-conditioned rows whose scales, mixed in one batch, put
        # 2 n^2 max|A| max|A^-1| past the bound; one of them at a point
        A = rng.standard_normal((6, n, n)) + 3 * np.eye(n)
        A[2] *= 1e6
        A[3] *= 1e-6
        out.append(("n%d-random" % n, A))
        out.append(("n%d-point" % n, A[0]))
        out.append(("n%d-point-past" % n, _scaled(n, 2 * CONDITION_LIMIT)))
        # kappa about 2 (n - 1) / eps near the bound, with max|A| max|A^-1|
        # near kappa / n^2: A = J + eps I, J all ones
        for kappa in (0.9 * CONDITION_LIMIT, 1.1 * CONDITION_LIMIT):
            dense = np.ones((n, n)) + 2 * (n - 1) / kappa * np.eye(n)
            out.append(("n%d-dense-%.2g" % (n, kappa), dense[None]))
        # an exactly singular row, a NaN row, an inf row, an empty batch
        for tag, bad in (("singular", np.zeros((n, n))),
                         ("nan", np.full((n, n), np.nan)),
                         ("inf", np.where(np.eye(n) > 0, np.inf, 0.0))):
            B = A.copy()
            B[4] = bad
            out.append(("n%d-%s" % (n, tag), B))
        out.append(("n%d-empty" % n, np.empty((0, n, n))))
    return out


KAPPA = _kappa_batches()


@pytest.mark.parametrize("A", [a for _, a in KAPPA],
                         ids=[name for name, _ in KAPPA])
def test_coframe_inverse_excludes_as_the_rule(A):
    n = A.shape[-1]
    X = points(len(A), n) if A.ndim == 3 else np.arange(n) / 10.0
    assert_same(coframe_inverse, rule_inverse, A, X)


def test_kappa_cases_straddle_the_bounds():
    results = [outcome(rule_inverse, A,
                       points(len(A), A.shape[-1]) if A.ndim == 3
                       else np.zeros(A.shape[-1]))[0] for _, A in KAPPA]
    assert "returned" in results and DegenerateWebPoint in results


# -- vanishing: |value| at DEGENERACY_FLOOR times the row's scale ----------

def _vanishing_batches():
    f = DEGENERACY_FLOOR
    out = []
    for scale in (0.5, 1.0, 7.0, 1e6):
        s = max(1.0, scale)
        for k in (-2, -1, 0, 1, 2):
            low = step(f * s, k)
            for sign in (1.0, -1.0):
                row = [sign * low, scale, -0.3]
                out.append(("s%g-k%d-%+g" % (scale, k, sign),
                            np.array([row])))
    # rows fine alone, but past the screen: one row's scale is another's
    # floor
    out.append(("mixed-scale", np.array([[2e-10, 1.0, 0.5],
                                         [3.0, 40.0, -5.0]])))
    out.append(("mixed-low", np.array([[1e-10, 1.0, 0.5],
                                       [3.0, 40.0, -5.0]])))
    out.append(("clear", np.array([[0.3, 1.0, -0.5], [3.0, 40.0, -5.0]])))
    out.append(("point", np.array([0.3, 1.0, -0.5])))
    out.append(("point-low", np.array([0.3, 1e-11, -0.5])))
    out.append(("nan", np.array([[0.3, 1.0, -0.5], [np.nan, 1.0, 2.0]])))
    out.append(("inf", np.array([[0.3, 1.0, -0.5], [np.inf, 1.0, 2.0]])))
    out.append(("zero", np.array([[0.3, 1.0, -0.5], [0.0, 1.0, 2.0]])))
    out.append(("empty", np.empty((0, 3))))
    return out


VANISHING = _vanishing_batches()


@pytest.mark.parametrize("values", [v for _, v in VANISHING],
                         ids=[name for name, _ in VANISHING])
def test_check_vanishing_excludes_as_the_rule(values):
    X = points(len(values), 2) if values.ndim == 2 else np.array([0.1, 0.2])

    def name(i):
        return "lambda_%d" % (i + 1)

    assert_same(check_vanishing, rule_vanishing, values, X, name)


def test_vanishing_cases_straddle_the_bound():
    results = [outcome(rule_vanishing, v, np.zeros(2), str)[0]
               for _, v in VANISHING if v.ndim == 1 or len(v) == 1]
    assert "returned" in results and DegenerateWebPoint in results


# -- coincidence: |a_i - a_j| at COINCIDENCE_FLOOR times their scale ------

def _coincidence_batches():
    f = COINCIDENCE_FLOOR
    i, j = np.array([0, 0, 1]), np.array([1, 2, 2])
    out = []
    for base in (0.25, 1.0, -3.0, 5e5):
        s = max(1.0, abs(base))
        for k in (-2, -1, 0, 1, 2):
            gap = step(f * s, k)
            # pairs (3, B=2): the middle pair's second row near the bound
            u = np.array([[0.1, 0.2], [base, base], [2.0, 0.7]])
            v = np.array([[0.6, -0.4], [base, base + gap], [-1.0, 0.9]])
            out.append(("b%g-k%d" % (base, k), (u, v, i, j)))
    u = np.array([[0.1, 0.2], [1.0, 50.0], [2.0, 0.7]])
    out.append(("mixed-scale",
                (u, u + np.array([[0.5, 0.5], [3e-10, 1.0], [1.0, 1.0]]),
                 i, j)))
    out.append(("clear", (u, u + 0.5, i, j)))
    out.append(("point", (np.float64(0.3), np.float64(0.3 + 2e-10), 0, 1)))
    out.append(("point-close", (np.float64(0.3), np.float64(0.3), 0, 1)))
    for tag, bad in (("nan", np.nan), ("inf", np.inf)):
        w = u.copy()
        w[1, 1] = bad
        out.append((tag, (w, u + 0.5, i, j)))
        out.append((tag + "-both", (w, w, i, j)))
    out.append(("empty", (np.empty((3, 0)), np.empty((3, 0)), i, j)))
    return out


COINCIDENCE = _coincidence_batches()


@pytest.mark.parametrize("case", [c for _, c in COINCIDENCE],
                         ids=[name for name, _ in COINCIDENCE])
def test_check_coincidence_excludes_as_the_rule(case):
    u, v, i, j = case
    X = points(u.shape[-1], 3) if np.ndim(u) == 2 else np.array([0.1, 0.2])
    assert_same(check_coincidence, rule_coincidence, u, v, i, j, X)


def test_coincidence_cases_straddle_the_bound():
    results = [outcome(rule_coincidence, *c,
                       points(c[0].shape[-1], 3) if np.ndim(c[0]) == 2
                       else np.zeros(2))[0] for _, c in COINCIDENCE]
    assert "returned" in results and CoincidentInvariants in results


# -- fastgamma's one screen: the four checks, with one bound for all -------
#
# The evaluator forms G first and then tries one bound over the whole batch
# for all four checks; where it does not clear, the checks run in their
# order.  Its outcome must be that of the same evaluator with no screen and
# the rule copies above in place of the checks: raise or return, the rows,
# the texts, and the bits of G.  The webs below are n-webs whose A, lambda
# and basis invariants a are exact functions of x_n, so rows can be put a
# few units in the last place from each check's limit.


def _web(n, fn, fn1, fn2):
    """The n-web x_1, .., x_{n-1}, fn, -(x_1 + .. + x_{n-1} + fn1) and
    2 x_1 + .. + n x_{n-1} + fn2, with fn, fn1 and fn2 in x_n alone."""
    head = ["x%d" % (k + 1) for k in range(n - 1)]
    lin = "+".join("%d*x%d" % (k + 2, k + 1) for k in range(n - 1))
    return WebChart.from_strings(n, head + [
        fn, "-(%s+%s)" % ("+".join(head), fn1), "%s+%s" % (lin, fn2)])


def _rows(n, last):
    """Points (0.1, .., 0.1, x_n) for each x_n."""
    X = np.full((len(last), n), 0.1)
    X[:, -1] = last
    return X


def _screen_cases():
    f, g = DEGENERACY_FLOOR, COINCIDENCE_FLOOR
    out = []
    for n in (2, 3):
        # A = diag(1, .., 1, x_n): kappa_inf(A) = 1 / x_n; lambda = 1 and
        # a = -(2, .., n + 1) whatever x_n
        web = _web(n, "0.5*x%d*x%d" % (n, n), "0.5*x%d*x%d" % (n, n),
                   "%g*x%d*x%d" % (0.5 * (n + 1), n, n))
        edges = [CONDITION_LIMIT, CONDITION_LIMIT / (2 * n * n)]
        last = [1.0 / step(c, k) for c in edges for k in (-3, -1, 0, 1, 3)]
        out += [("n%d-kappa-%.17g" % (n, x), web, _rows(n, [x]))
                for x in last]
        out.append(("n%d-kappa-all" % n, web, _rows(n, [0.2] + last)))
        out.append(("n%d-singular" % n, web, _rows(n, [0.2, 0.0, 0.3])))
        # lambda = (1, .., 1, 2 x_n) and a = -(2, .., n, n + 1): the rule
        # scales lambda by 1, the screen by n + 1
        web = _web(n, "x%d" % n, "x%d*x%d" % (n, n),
                   "%d*x%d*x%d" % (n + 1, n, n))
        last = [sign * step(f, k) / 2 for k in (-2, -1, 0, 1, 2)
                for sign in (1.0, -1.0)]
        out += [("n%d-lambda-%.17g" % (n, x), web, _rows(n, [x]))
                for x in last]
        # lambda_n = 0 makes a inf or NaN; the lambda check comes first
        out.append(("n%d-lambda-zero" % n, web, _rows(n, [0.2, 0.0])))
        # every check passes, but not the screen's one scale
        out.append(("n%d-union" % n, web,
                    _rows(n, [0.2, f, 2.0 * f])))
        # lambda = 1 and a = -(2, .., n, 2 x_n): a_n at the rule's floor
        # n DEGENERACY_FLOOR, and close to a_{n-1} = -n
        web = _web(n, "x%d" % n, "x%d" % n, "x%d*x%d" % (n, n))
        low = DEGENERACY_FLOOR * float(n)
        last = [sign * step(low, k) / 2 for k in (-2, -1, 0, 1, 2)
                for sign in (1.0, -1.0)]
        out += [("n%d-a-%.17g" % (n, x), web, _rows(n, [x])) for x in last]
        # |a_n - a_{n-1}| = n - 2 x_n, exact, the nearest gaps on either
        # side of n COINCIDENCE_FLOOR
        ulp = np.spacing(float(n) / 2)
        below = np.floor(g * n / ulp) * ulp
        last = [(n - gap) / 2 for gap in (below - ulp, below, below + ulp,
                                          below + 2 * ulp)]
        out += [("n%d-coincide-%.17g" % (n, x), web, _rows(n, [x]))
                for x in last]
        out.append(("n%d-coincide-all" % n, web, _rows(n, [0.2] + last)))
        # rows fine alone, past the screen together: one row's scale is
        # the other's floor
        out.append(("n%d-mixed" % n, web, _rows(n, [500.0, 1e-8])))
        out.append(("n%d-clear" % n, web, _rows(n, [0.2, 0.3])))
        out.append(("n%d-point" % n, web, _rows(n, [0.2])[0]))
        out.append(("n%d-point-low" % n, web, _rows(n, [1e-11])[0]))
        # non-finite input, which the compiled program rejects first
        for tag, bad in (("nan", np.nan), ("inf", np.inf)):
            out.append(("n%d-%s" % (n, tag), web, _rows(n, [0.2, bad])))
        out.append(("n%d-empty" % n, web, np.empty((0, n))))
    return out


SCREEN = _screen_cases()


def _unscreened(fast, X):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fastgamma, "_screen", lambda *args: False)
        mp.setattr(fastgamma, "coframe_inverse", rule_inverse)
        mp.setattr(fastgamma, "check_vanishing", rule_vanishing)
        mp.setattr(fastgamma, "check_coincidence", rule_coincidence)
        return fast(X)


def _screened(fast, X, said):
    real = fastgamma._screen

    def spy(*args):
        said.append(real(*args))
        return said[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fastgamma, "_screen", spy)
        return fast(X)


@pytest.mark.parametrize("web, X", [c[1:] for c in SCREEN],
                         ids=[c[0] for c in SCREEN])
def test_evaluator_excludes_as_the_rules(web, X):
    fast = fastgamma.batched_gamma_evaluator(web)
    assert_same(fast, lambda X: _unscreened(fast, X), X)


@pytest.mark.parametrize("web, X", [c[1:] for c in SCREEN],
                         ids=[c[0] for c in SCREEN])
def test_frame_per_call_excludes_as_hoisted(web, X):
    # the frame built per call, as it is where f_1..f_{n+1} are not
    # affine, against the rules and against the frame built once (the
    # webs whose A and lambda do not depend on x_n)
    fast = fastgamma.batched_gamma_evaluator(web)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fastgamma, "_affine", lambda node: False)
        per_call = fastgamma.batched_gamma_evaluator(web)
    assert_same(per_call, lambda X: _unscreened(per_call, X), X)
    assert_same(fast, per_call, X)


def test_screen_cases_straddle_every_check():
    seen = set()
    for name, web, X in SCREEN:
        said = []
        fast = fastgamma.batched_gamma_evaluator(web)
        result = outcome(lambda X: _screened(fast, X, said), X)[0]
        seen.add((name.split("-")[1], said[-1] if said else None,
                  result if result == "returned" else result.__name__))
    # each limit is met from both sides
    for check, error in (("kappa", "DegenerateWebPoint"),
                         ("lambda", "DegenerateWebPoint"),
                         ("a", "DegenerateWebPoint"),
                         ("coincide", "CoincidentInvariants")):
        assert (check, False, error) in seen, check
        assert {(check, True, "returned"),
                (check, False, "returned")} & seen, check
    # the screen clears a row at the a and coincidence floors
    for check in ("a", "coincide", "clear"):
        assert (check, True, "returned") in seen, check
    # the screen's own bound: every check passes where it does not clear
    for check in ("kappa", "lambda", "union", "mixed"):
        assert (check, False, "returned") in seen, check
    assert ("singular", False, "DegenerateWebPoint") in seen
    assert ("nan", None, "DomainError") in seen
    assert ("empty", False, "returned") in seen
