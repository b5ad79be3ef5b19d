"""Shared fixtures: the corpus of reference webs used across the suite."""

import pytest

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


def make_web(name: str) -> WebChart:
    dim, sources = CORPUS_SOURCES[name]
    return WebChart.from_strings(dim, sources, radius=_RADII.get(name, 0.5))


@pytest.fixture(scope="session")
def corpus():
    return {name: make_web(name) for name in CORPUS_SOURCES}
