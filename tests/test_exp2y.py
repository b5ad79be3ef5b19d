"""A geodesic web that is not linearizable, with its connection in closed
form.

With x = x1 and y = x2, the geodesics of the projective structure of
y'' = e^(2y) are its solutions and the vertical lines.  y'^2 = e^(2y) + E is
a first integral and the equation does not depend on x, so for each energy
E the x1-translates of one solution form a foliation by geodesics:
x1 +- e^(-x2) for E = 0, x1 +- asinh(c e^(-x2)) / c for E = c^2.  With the
vertical lines x1 they make `tests/webs/exp2y.json`, a 6-web all of whose
foliations are totally geodesic for the structure with Gamma^2_11 = -e^(2 x2)
and every other Christoffel 0.  The structure is not flat: for y'' = F(x, y)
Lie's linearization test reduces to F_yy = 0 (Tresse 1896), and here
F_yy = 4 e^(2y).  That Gamma comes from the equation alone, so it checks
both Christoffel routes with no code in common with them.
"""

import os

import numpy as np
import pytest

from geoweb import cli, connection, fastgamma
from geoweb.webfile import load_webfile

from conftest import EXP2Y
from oracles import projective_fit

BENT = os.path.join(os.path.dirname(EXP2Y), "exp2y_bent.json")
SAMPLE = ("--random", "100", "--seed", "1")
POINTS = [(1 / 8, 1 / 16), (-1 / 4, 3 / 16), (0.0, -5 / 16)]


def header(capsys, argv):
    """(exit code, the report's `# key=value` lines as a dict, its rows)."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    meta = dict(line[2:].split("=", 1) for line in lines
                if line.startswith("# "))
    rows = [line for line in lines if not line.startswith("#")][1:]
    return code, meta, rows


def exact_gamma(x):
    g = np.zeros((2, 2, 2))
    g[1, 0, 0] = -np.exp(2 * x[1])
    return g


@pytest.mark.parametrize("command, path, verdict, code, key, bound", [
    ("check", EXP2Y, "geodesic", 0, "max_discrepancy", (0.0, 1e-12)),
    ("linearize", EXP2Y, "not_linearizable", 2, "max_obstruction",
     (1.0, np.inf)),
    ("check", BENT, "not_geodesic", 2, "max_discrepancy", (0.1, np.inf)),
], ids=["check", "linearize", "check-bent"])
def test_verdicts(capsys, command, path, verdict, code, key, bound):
    got, meta, rows = header(capsys, [command, path, *SAMPLE])
    assert (got, meta["verdict"]) == (code, verdict)
    assert meta["excluded_fraction"] == "0" and len(rows) == 100
    assert bound[0] <= float(meta[key]) <= bound[1]
    if command == "linearize":
        assert meta["note"] == "geodesicity: geodesic"


def test_both_routes_give_the_closed_form_projective_class():
    web = load_webfile(EXP2Y)
    routes = [
        [connection.canonical_structure(web, p).conn.gamma_values()
         for p in POINTS],
        fastgamma.batched_gamma_evaluator(web)(np.array(POINTS)),
    ]
    for gammas in routes:
        for p, g in zip(POINTS, gammas):
            _, resid = projective_fit(exact_gamma(p), g)
            assert resid <= 1e-13, p


def _ode_miss(report_rows, h):
    # largest |y''x' - x''y' - e^(2y) x'^3| along the trajectory, with the
    # derivatives in t by central differences
    xy = np.array([[float(c) for c in row.split(",")[1:3]]
                   for row in report_rows])
    d1 = (xy[2:] - xy[:-2]) / (2 * h)
    d2 = (xy[2:] - 2 * xy[1:-1] + xy[:-2]) / (h * h)
    x1, y1, x2, y2 = d1[:, 0], d1[:, 1], d2[:, 0], d2[:, 1]
    return np.abs(y2 * x1 - x2 * y1 - np.exp(2 * xy[1:-1, 1]) * x1 ** 3).max()


def test_extra_leaf_geodesic_keeps_its_leaf_and_solves_the_equation(capsys):
    misses = []
    for h in (1e-3, 5e-4):
        code, meta, rows = header(capsys, [
            "geodesic", EXP2Y, "--leaf", "6", "--from", "0.1,0.05",
            "--T", "0.5", "--h", repr(h)])
        assert code == 0 and int(meta["steps"]) == round(0.5 / h)
        assert float(meta["drift"]) <= 1e-12
        misses.append(_ode_miss(rows, h))
    # the central differences are second order: halving h quarters them
    assert misses[0] <= 1e-5
    assert misses[1] <= misses[0] / 3
