"""Truncated jet arithmetic against algebraic identities and FD oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoweb import jets
from geoweb.errors import (DomainError, MixedContext, OrderExhausted,
                           SingularSystem)
from geoweb.expr import eval_field, parse_expression

from conftest import SERIES_SOURCES, coeff, variable
from fdtools import partial_fd


def jet_of(source, point, order=4):
    dim = len(point)
    return eval_field(parse_expression(source, dim), point, order)


def fn_of(source, dim):
    tree = parse_expression(source, dim)
    return lambda y: eval_field(tree, y, 0).value


def test_layout_small():
    assert tuple(jets.exponents(2, 2)) == ((0, 0), (1, 0), (0, 1),
                                           (2, 0), (1, 1), (0, 2))
    assert jets.n_coeffs(2, 4) == 15
    assert jets.n_coeffs(3, 3) == 20


def test_backend_is_reported():
    assert jets.backend_name() == "python"


def test_variable_and_constant():
    x = variable(0, 1.5, dim=2, order=3)
    assert x.value == 1.5
    assert np.allclose(x.derivatives().value, [1.0, 0.0])
    c = jets.Jet.constant(4.0, dim=2, order=3)
    assert c.value == 4.0
    assert np.all(c.coeffs[1:] == 0.0)


def test_polynomial_product_exact():
    # (x1 + 2 x2) * (x1 - x2) = x1^2 + x1 x2 - 2 x2^2
    j = jet_of("(x1+2*x2)*(x1-x2)", (0.0, 0.0), order=2)
    assert coeff(j, (2, 0)) == 1.0
    assert coeff(j, (1, 1)) == 1.0
    assert coeff(j, (0, 2)) == -2.0


def test_truncate_is_prefix():
    j = jet_of("exp(x1)*sin(x2)", (0.3, -0.2), order=4)
    t = j.truncate(2)
    assert t.order == 2
    assert np.array_equal(t.coeffs, j.coeffs[:jets.n_coeffs(2, 2)])


def test_derivative_shifts_coefficients():
    j = jet_of("x1^3*x2", (0.7, 0.4), order=4)
    d = j.derivatives()[..., 0]
    assert d.order == 3
    # d/dx1 (x1^3 x2) = 3 x1^2 x2
    assert d.value == pytest.approx(3 * 0.7 ** 2 * 0.4, rel=1e-14)
    assert coeff(d, (2, 0)) == pytest.approx(3 * 0.4, rel=1e-14)


@pytest.mark.parametrize("source, point", SERIES_SOURCES)
def test_jet_matches_fd(source, point):
    j = jet_of(source, point, order=3)
    f = fn_of(source, 2)
    for alpha in jets.exponents(2, 3)[1:]:
        fd = partial_fd(f, point, alpha)
        fact = math.factorial(alpha[0]) * math.factorial(alpha[1])
        got = coeff(j, alpha) * fact
        assert got == pytest.approx(fd, rel=2e-6, abs=2e-6), \
            "%s alpha=%s" % (source, alpha)


def test_log_inverts_exp():
    back = jet_of("log(exp(x1+2*x2))", (0.3, -0.1))
    u = jet_of("x1+2*x2", (0.3, -0.1))
    assert np.allclose(back.coeffs, u.coeffs, atol=1e-14)


def test_sqrt_squares_back():
    u = jet_of("2+x1*x2", (0.5, 0.7))
    s = jet_of("sqrt(2+x1*x2)", (0.5, 0.7))
    assert np.allclose((s * s).coeffs, u.coeffs, atol=1e-13)


def test_pythagorean_identity():
    one = jet_of("sin(x1-x2^2)^2+cos(x1-x2^2)^2", (0.4, 0.3))
    expect = np.zeros_like(one.coeffs)
    expect[0] = 1.0
    assert np.allclose(one.coeffs, expect, atol=1e-14)


def test_reciprocal_identity():
    u = jet_of("1+x1+x1*x2", (0.2, 0.3), order=4)
    prod = u * (1.0 / u)
    expect = np.zeros_like(prod.coeffs)
    expect[0] = 1.0
    assert np.allclose(prod.coeffs, expect, atol=1e-14)


def test_power_variants_agree():
    point = (0.2, 0.1)
    u = jet_of("1.5+x1-x2", point)
    assert np.allclose(jet_of("(1.5+x1-x2)^3", point).coeffs,
                       (u * u * u).coeffs, atol=1e-13)
    assert np.allclose(jet_of("(1.5+x1-x2)^0.5", point).coeffs,
                       jet_of("sqrt(1.5+x1-x2)", point).coeffs, atol=1e-13)
    assert np.allclose(jet_of("(1.5+x1-x2)^-2", point).coeffs,
                       (1.0 / (u * u)).coeffs, atol=1e-12)


def test_domain_errors():
    zero = jets.Jet.constant(0.0, 2, 3)
    # the last five are constant subexpressions that have no finite value
    for source in ("log(x1-1)", "sqrt(x1-1)", "1/(x1-x2)", "x1/0",
                   "(x1-1)^0.5", "(-8)^(1/3)", "exp(1000)", "1/0", "log(0)",
                   "x1+10^400"):
        with pytest.raises(DomainError):
            jet_of(source, (0.0, 0.0), order=3)
    with pytest.raises(DomainError):
        1.0 / zero


def test_mixed_context_rejected():
    a = variable(0, 0.0, dim=2, order=3)
    b = variable(0, 0.0, dim=3, order=3)
    c = variable(0, 0.0, dim=2, order=2)
    with pytest.raises(MixedContext):
        a + b
    with pytest.raises(MixedContext):
        a * c


def test_jet_linear_solve_geometric_series():
    # (1 - x1) y = 1 at x1 = 0 gives y = 1 + x1 + x1^2 + ...
    one = jets.Jet.constant(1.0, 1, 4)
    x = variable(0, 0.0, 1, 4)
    y = jets.jet_linear_solve([[one - x]], [one])[0]
    assert np.allclose(y.coeffs, np.ones(5), atol=1e-14)


def test_jet_linear_solve_singular():
    z = jets.Jet.constant(0.0, 1, 2)
    with pytest.raises(SingularSystem):
        jets.jet_linear_solve([[z]], [jets.Jet.constant(1.0, 1, 2)])


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_jet_linear_solve_residual(dim, m):
    # A x - b in Jet arithmetic, on random jets A with a diagonally
    # dominant value part and derivatives of the same size, so that every
    # power of N in the lifted solve counts
    rng = np.random.default_rng(10 * dim + m)
    for order in range(5):
        count = jets.n_coeffs(dim, order)
        for batch in ((), (5,)):
            for k in ((), (3,)):
                a = rng.standard_normal((count, m, m) + batch)
                a[0] += 2.0 * m * np.eye(m)[(...,) + (None,) * len(batch)]
                b = rng.standard_normal((count, m) + k + batch)
                A = jets.Jet(dim, order, a, 2)
                rhs = jets.Jet(dim, order, b, 1 + len(k))
                x = jets.jet_linear_solve(A, rhs)
                ax = jets.ordered_sum(A[(slice(None), j) + (None,) * len(k)]
                                      * x[j] for j in range(m))
                scale = (np.abs(a).max() * np.abs(x.coeffs).max() * m
                         + np.abs(b).max())
                assert np.abs((ax - rhs).coeffs).max() <= 1e-12 * scale, \
                    (order, batch, k)


def test_directional_derivative_value():
    # f = x1 x2 at (1, 2); v = (x2, x1) as jets gives x2 + ... evaluated: 5
    f = jet_of("x1*x2", (1.0, 2.0), order=3)
    v = [jet_of("x2", (1.0, 2.0), order=3), jet_of("x1", (1.0, 2.0), order=3)]
    d = jets.directional_derivative(f, v)
    # D f = x2 * d(x1 x2)/dx1 + x1 * d(x1 x2)/dx2 = x2^2 + x1^2 -> 4 + 1
    assert d.value == pytest.approx(5.0, abs=1e-14)
    assert d.order == 2


def test_directional_derivative_exhausts_order():
    f = jet_of("x1*x2", (1.0, 2.0), order=0)
    v = [jet_of("x2", (1.0, 2.0), order=0), jet_of("x1", (1.0, 2.0), order=0)]
    with pytest.raises(OrderExhausted):
        jets.directional_derivative(f, v)


coeff_arrays = st.lists(
    st.floats(min_value=-4, max_value=4, allow_nan=False,
              allow_infinity=False),
    min_size=jets.n_coeffs(2, 3), max_size=jets.n_coeffs(2, 3))


@settings(max_examples=40, deadline=None)
@given(coeff_arrays, coeff_arrays)
def test_truncation_consistency(ca, cb):
    # multiplying then truncating equals truncating then multiplying
    a = jets.Jet(2, 3, np.array(ca))
    b = jets.Jet(2, 3, np.array(cb))
    full = (a * b).truncate(2)
    cut = a.truncate(2) * b.truncate(2)
    assert np.array_equal(full.coeffs, cut.coeffs)


@settings(max_examples=40, deadline=None)
@given(coeff_arrays, coeff_arrays, coeff_arrays)
def test_product_is_associative_within_truncation(ca, cb, cc):
    a = jets.Jet(2, 3, np.array(ca))
    b = jets.Jet(2, 3, np.array(cb))
    c = jets.Jet(2, 3, np.array(cc))
    left = ((a * b) * c).coeffs
    right = (a * (b * c)).coeffs
    assert np.allclose(left, right, rtol=1e-12, atol=1e-9)
