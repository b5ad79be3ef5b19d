"""Shared fixtures: the corpus of reference webs used across the suite."""

import os
import re

import numpy as np
import pytest

from geoweb import jets, webfile
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


def pull_back(sources, subst):
    """The functions with each x_a replaced by its substitute."""
    return [re.sub(r"x(\d)", lambda m: subst[int(m.group(1)) - 1], s)
            for s in sources]


def make_web(name: str) -> WebChart:
    """A corpus web, the nodes web, or a pulled-back web on the ball of
    radius 0.2 about the origin."""
    if name == "nodes":
        return webfile.load_webfile(NODES)
    if name in PULLBACKS:
        dim, sources, subst = PULLBACKS[name]
        return WebChart.from_strings(dim, pull_back(sources, subst),
                                     radius=0.2)
    dim, sources = CORPUS_SOURCES[name]
    return WebChart.from_strings(dim, sources, radius=_RADII.get(name, 0.5))


@pytest.fixture(scope="session")
def corpus():
    return {name: make_web(name) for name in CORPUS_SOURCES}
