"""Shared fixtures: the corpus of reference webs used across the suite."""

import os
import re
from collections import namedtuple

import numpy as np
import pytest

from geoweb import jets, webfile
from geoweb.jets import directional_derivative, grid, ordered_sum, where
from geoweb.web import WebChart

# Reference webs.  The first three building blocks of each n = 2 chart are
# x1, x2, -(x1+x2) so the normalized coframe is the coordinate coframe and
# hand computations stay tractable; the last slots carry the interesting
# functions.
CORPUS_SOURCES = {
    # flat: all functions linear, connection vanishes identically
    "parallel2": (2, ["x1", "x2", "-(x1+x2)", "x1+2*x2"]),
    "parallel3": (3, ["x1", "x2", "x3", "-(x1+x2+x3)", "x1+2*x2+3*x3"]),
    # curved connection, still linearizable (documented hand computation)
    "xy4": (2, ["x1", "x2", "-(x1+x2)", "x1+2*x2+x1*x2"]),
    # genuinely obstructed 4-web
    "curved4": (2, ["x1", "x2", "-(x1+x2)", "x1+2*x2+x1^2*x2"]),
    # n = 3 with a nonlinear slot, admissible on the whole domain ball
    "mixed3": (3, ["x1", "x2", "x3", "-(x1+x2+x3)",
                   "exp(x1)+2*x2+3*x3+x3^2"]),
    # five leaves of parallel lines: geodesic 5-web
    "lin5": (2, ["x1", "x2", "-(x1+x2)", "x1+2*x2", "x1+3*x2"]),
    # perturbed fifth foliation: not geodesic
    "pert5": (2, ["x1", "x2", "-(x1+x2)", "x1+2*x2", "x1+3*x2+x1^2*x2"]),
}

# Expressions exercising every series of the jet kernels, each at a point
# inside its domain.
SERIES_SOURCES = [
    ("exp(x1*x2)", (0.4, -0.3)),
    ("log(1+x1+x2^2)", (0.2, 0.5)),
    ("sqrt(4+x1-x2)", (0.3, 0.1)),
    ("sin(x1)*cos(x2)", (0.9, -0.7)),
    ("atan(x1-2*x2)", (0.25, 0.2)),
    ("(1+x1)/(2-x2)", (0.3, 0.4)),
    ("x1^x2", (1.7, 0.6)),
    ("x1/3+x2", (0.3, 0.2)),
]

_RADII = {"mixed3": 0.4}

# The web file whose functions use every kind of expression node.
NODES = os.path.join(os.path.dirname(__file__), "webs", "nodes.json")
# A geodesic 6-web that is not linearizable: the solutions of y'' = e^(2y)
# (x = x1, y = x2), with its Christoffels in closed form (tests/test_exp2y.py)
EXP2Y = os.path.join(os.path.dirname(__file__), "webs", "exp2y.json")

# Webs pulled back by x = psi(y), as (dimension, functions, the substitutes
# for x1, x2, ...).  Every corpus web has A = (d_a f_i) = I and an affine
# f_{n+1}, so lambda is constant and no f_i has a Hessian there; these two
# webs and the nodes web are where both are not so.
PULLBACKS = {
    "pulled2": (2, ["x1", "x1*x2+x2", "-(x1+x2)", "x1+2*x2+x1*x2+x1^2"],
                ["(x1+0.3*x2^2)", "(x2+0.2*x1*x2)"]),
    "pulled3": (3, CORPUS_SOURCES["mixed3"][1],
                ["(x1+0.2*x2*x3)", "(x2+0.3*x1^2)",
                 "(x3+0.1*x1*x2+0.2*x3^2)"]),
}
CURVED_FRAME_WEBS = ("nodes", "pulled2", "pulled3")


def variable(axis, value, dim, order):
    """Jet of the coordinate function x_{axis+1} at the given value."""
    c = np.zeros(jets.n_coeffs(dim, order))
    c[0] = value
    if order >= 1:
        c[1 + axis] = 1.0
    return jets.Jet(dim, order, c)


def coeff(jet, alpha):
    """A point jet's coefficient of the monomial with multi-index `alpha`."""
    return float(jet.coeffs[jets.exponents(jet.dim, jet.order).index(
        tuple(alpha))])


def monomials(n: int):
    """The texts of 1, x_i and x_i*x_j (i <= j) in n variables."""
    names = ["1"] + ["x%d" % (i + 1) for i in range(n)]
    out = list(names)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            out.append("x%d*x%d" % (i, j))
    return out


def poly_text(coefs, monos):
    return "+".join("(%.17g)*%s" % (c, m) for c, m in zip(coefs, monos))


# The frame route to the canonical connection, the reference for the closed
# form of `connection.canonical_christoffels`: the structure functions from
# the bracket of the frame, the frame symbols from them and theta, then the
# coordinate symbols from the frame symbols and the frame derivatives.
FrameRoute = namedtuple("FrameRoute", "c dframe frame_gamma gamma")


def bracket_structure_functions(cof):
    """c[k][i][j] = omega_k([E_i, E_j]) and dframe[i][j][a] = D_i E_j^a,
    one order below the coframe."""
    n = cof.dim
    dframe = directional_derivative(cof.frame, cof.frame)
    bracket = dframe - dframe.transpose(1, 0, 2)
    w = cof.omega[:n].truncate(cof.order - 1)
    c = ordered_sum(w[:, a, None, None] * bracket[..., a] for a in range(n))
    return jets.skew_upper(c), dframe


def frame_route(struct):
    """The FrameRoute of a `canonical_structure` result."""
    cof, th = struct.cof, struct.theta
    n = cof.dim
    c, dframe = bracket_structure_functions(cof)
    # fg[k][p][q]: (c[k][k][p] - th[k][p]) / 2 where q = k,
    # (c[k][q][k] - th[k][q]) / 2 where p = k, -th[k][k] where both,
    # c[k][q][p] / 2 elsewhere
    k, p, q = grid(n, 3)
    cqp = c[k, q, p]
    fg = where((p == k) | (q == k),
               (cqp - th[k, np.where(q == k, p, q)]) * 0.5, cqp * 0.5)
    fg = where((p == k) & (q == k), -th[k, k], fg)
    # gamma[c][a][b] = W_ia W_jb (fg[m][j][i] E_m^c - D_i E_j^c)
    E = cof.frame.truncate(cof.order - 1)
    W = cof.omega[:n].truncate(cof.order - 1)
    H = ordered_sum(fg[m].transpose() * E[m, :, None, None]
                    for m in range(n)) - dframe.transpose(2, 0, 1)
    gamma = ordered_sum(W[i, :, None] * W[j] * H[:, i, j, None, None]
                        for i in range(n) for j in range(n))
    return FrameRoute(c, dframe, fg, gamma)


def pull_back(sources, subst):
    """The functions with each x_a replaced by its substitute."""
    return [re.sub(r"x(\d)", lambda m: subst[int(m.group(1)) - 1], s)
            for s in sources]


# Webs whose f_1..f_{n+1} are affine but A = (d_a f_i) is not I, so each
# entry of the constant maps `fastgamma` builds for such a frame sums
# several nonzero terms: one written out, and mixed3 and the benchmark's
# web4 pulled back by a shear.
WEB4 = ["x1", "x2", "x3", "x4", "-(x1+x2+x3+x4)",
        "x1+2*x2+3*x3+4*x4+x1*x4+x2^2"]
SHEARED = {
    "sheared2": (2, ["x1+0.3*x2", "0.7*x1-x2", "-(x1+x2)/3",
                     "x1+2*x2+x1*x2"]),
    "sheared-mixed3": (3, pull_back(CORPUS_SOURCES["mixed3"][1], [
        "(x1+0.3*x2)", "(x2-0.2*x3)", "(x3+0.4*x1)"])),
    "sheared-web4": (4, pull_back(WEB4, [
        "(x1+0.3*x2)", "(x2-0.2*x3)", "(x3+0.4*x4)", "(x4+0.1*x1)"])),
}


def make_web(name: str) -> WebChart:
    """A corpus web, the nodes or exp2y web, a pulled-back or sheared web
    on the ball of radius 0.2 about the origin, or else the benchmark web
    perfbench/webs/<name>.json."""
    if name == "nodes":
        return webfile.load_webfile(NODES)
    if name == "exp2y":
        return webfile.load_webfile(EXP2Y)
    if name in PULLBACKS:
        dim, sources, subst = PULLBACKS[name]
        return WebChart.from_strings(dim, pull_back(sources, subst),
                                     radius=0.2)
    if name in SHEARED:
        return WebChart.from_strings(*SHEARED[name], radius=0.2)
    if name not in CORPUS_SOURCES:
        return webfile.load_webfile(os.path.join(
            os.path.dirname(__file__), os.pardir, "perfbench", "webs",
            name + ".json"))
    dim, sources = CORPUS_SOURCES[name]
    return WebChart.from_strings(dim, sources, radius=_RADII.get(name, 0.5))


@pytest.fixture(scope="session")
def corpus():
    return {name: make_web(name) for name in CORPUS_SOURCES}
