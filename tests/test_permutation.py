"""Metamorphic test: the `check` and `linearize` verdicts belong to the web,
so listing its foliations in another order must not change them.

Verdicts and exit codes are compared on every web file.  So are the
values of the flatness obstruction (Cotton for n = 2, Weyl for n >= 3)
under orders that keep the set f_1..f_{n+2}: the projective structure,
and so the obstruction, belongs to that subweb.  Riemann and the
verdict's scale max(1, |R|) belong to the gauge-0 representative, which
depends on the order, so they are not compared.
"""

import glob
import json
import os

import numpy as np
import pytest

from geoweb import cli
from geoweb.connection import canonical_structure
from geoweb.curvature import projective_pack
from geoweb.sampling import random_points
from geoweb.web import reorder_chart

from conftest import make_web

HERE = os.path.dirname(os.path.abspath(__file__))
WEB_FILES = sorted(glob.glob(os.path.join(HERE, "webs", "*.json"))
                   + glob.glob(os.path.join(HERE, os.pardir, "perfbench",
                                            "webs", "*.json")))

# a reversal, a rotation and a swap of the second and third foliations
PERMUTATIONS = {
    "reversed": lambda d: list(range(d))[::-1],
    "rotated": lambda d: list(range(1, d)) + [0],
    "swap23": lambda d: [0, 2, 1] + list(range(3, d)),
}


def verdict(capsys, command, path, count):
    code = cli.main([command, str(path), "--random", str(count),
                     "--seed", "1"])
    out = capsys.readouterr().out
    return code, [line for line in out.splitlines()
                  if line.startswith("# verdict=")]


def write_permuted(data, order, path):
    """Write the web with its functions in `order`; `pointed` and `labels`
    are dropped, since neither verdict reads them."""
    web = {k: v for k, v in data.items() if k not in ("pointed", "labels")}
    web["functions"] = [data["functions"][i] for i in order]
    path.write_text(json.dumps(web))
    return path


@pytest.mark.parametrize("command", ["check", "linearize"])
@pytest.mark.parametrize("web_file", WEB_FILES, ids=os.path.basename)
def test_verdict_does_not_depend_on_foliation_order(tmp_path, capsys,
                                                    web_file, command):
    with open(web_file) as fh:
        data = json.load(fh)
    d = len(data["functions"])
    base = verdict(capsys, command, write_permuted(
        data, range(d), tmp_path / "file_order.json"), 30)
    for name, order in PERMUTATIONS.items():
        permuted = write_permuted(data, order(d), tmp_path / (name + ".json"))
        assert verdict(capsys, command, permuted, 30) == base, name


# linearizable webs are left out: there the obstruction is round-off
# (at most 4e-16 on xy4)
@pytest.mark.parametrize("name", ["curved4", "mixed3", "web4", "exp2y",
                                  "nodes", "pulled2", "pulled3"])
def test_obstruction_values_do_not_depend_on_slot_order(name):
    web = make_web(name)
    n = web.dim
    X = random_points(web, 20, seed=1)

    def obstruction(order):
        chart = reorder_chart(web, [i + 1 for i in order]
                              + list(range(n + 3, web.d + 1)))
        pack = projective_pack(
            canonical_structure(chart, X, 4 if n == 2 else 3).conn)
        return (pack.cotton if n == 2 else pack.weyl).reshape(len(X), -1)

    base = obstruction(range(n + 2))
    size = np.abs(base).max(axis=1)
    for key, order in PERMUTATIONS.items():
        err = np.abs(obstruction(order(n + 2)) - base).max(axis=1)
        assert (err <= 1e-12 * size).all(), (key, (err / size).max())


# u, u + 1e-7·v, v, u + 2·v: lines in (u, v), so a linearizable 4-web whose
# first two foliations nearly coincide
NEAR_COINCIDENT = {
    "dimension": 2,
    "functions": ["x1 + 0.3*x2^2", "x1 + 0.3*x2^2 + 1e-7*(x2 + 0.2*x1*x2)",
                  "x2 + 0.2*x1*x2", "x1 + 0.3*x2^2 + 2*(x2 + 0.2*x1*x2)"],
    "domain": {"center": [0.0, 0.0], "radius": 0.3},
}


def near_coincident_verdict(tmp_path, capsys, order):
    path = write_permuted(NEAR_COINCIDENT, order, tmp_path / "near.json")
    return verdict(capsys, "linearize", path, 50)


def test_near_coincident_web_is_linearizable_in_a_conditioned_order(
        tmp_path, capsys):
    assert near_coincident_verdict(tmp_path, capsys, [0, 2, 1, 3]) == \
        (0, ["# verdict=linearizable"])


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: in file order A = (df1, df2) has condition number "
    "about 2e7, and the order-4 obstruction's round-off reads as "
    "not_linearizable"))
def test_near_coincident_web_is_linearizable_in_file_order(tmp_path, capsys):
    assert near_coincident_verdict(tmp_path, capsys, [0, 1, 2, 3]) == \
        (0, ["# verdict=linearizable"])
