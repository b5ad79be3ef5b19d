"""Command-line interface: exit codes, report layout, determinism."""

import csv
import gc
import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import geoweb
from geoweb import cli, connection, expr
from geoweb.report import Report, _csv_quote, format_number
from geoweb.web import basis_invariants, normalize_coframe
from geoweb.webfile import load_webfile

from oracles import pointed_chart


WEBS = {
    "xy4": {
        "dimension": 2,
        "functions": ["x1", "x2", "-(x1+x2)", "x1+2*x2+x1*x2"],
        "domain": {"center": [0.0, 0.0], "radius": 0.5},
    },
    "lin5": {
        "dimension": 2,
        "functions": ["x1", "x2", "-(x1+x2)", "x1+2*x2", "x1+3*x2"],
        "domain": {"center": [0.0, 0.0], "radius": 0.5},
    },
    "pert5": {
        "dimension": 2,
        "functions": ["x1", "x2", "-(x1+x2)", "x1+2*x2",
                      "x1+3*x2+x1*x1*x2"],
        "domain": {"center": [0.0, 0.0], "radius": 0.5},
    },
    "parallel2": {
        "dimension": 2,
        "functions": ["x1", "x2", "-(x1+x2)", "x1+2*x2"],
        "domain": {"center": [0.0, 0.0], "radius": 0.5},
    },
    "curved4": {
        "dimension": 2,
        "functions": ["x1", "x2", "-(x1+x2)", "x1+2*x2+x1*x1*x2"],
        "domain": {"center": [0.0, 0.0], "radius": 0.5},
    },
    # Same functions as xy4 but recentered so a third of the 3x3 grid
    # lands exactly on the line where the basis invariants coincide.
    "coincident": {
        "dimension": 2,
        "functions": ["x1", "x2", "-(x1+x2)", "x1+2*x2+x1*x2"],
        "domain": {"center": [-0.5, 0.5], "radius": 0.4},
    },
}


@pytest.fixture()
def webdir(tmp_path):
    for name, payload in WEBS.items():
        (tmp_path / (name + ".json")).write_text(json.dumps(payload))
    return tmp_path


def read_report(path):
    meta, rows = {}, []
    with open(path, newline="") as fh:
        table = []
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
            else:
                table.append(line)
        reader = csv.reader(table)
        header = next(reader)
        rows = list(reader)
    return meta, header, rows


@pytest.mark.parametrize(
    "argv, code",
    [
        (["check", "{d}/lin5.json"], 0),
        (["check", "{d}/pert5.json"], 2),
        (["linearize", "{d}/parallel2.json"], 0),
        (["linearize", "{d}/xy4.json"], 0),
        (["linearize", "{d}/curved4.json"], 2),
        (["linearize", "{d}/coincident.json", "--grid", "3"], 3),
        (["check", "{d}/absent.json"], 1),
        (["connection", "{d}/xy4.json", "--at", "0,0,0"], 1),
        (["connection", "{d}/xy4.json", "--at", "zero"], 1),
        (["geodesic", "{d}/xy4.json", "--from", "0,0", "--leaf", "9"], 1),
        (["check", "{d}/lin5.json", "--grid", "0"], 1),
        (["check", "{d}/lin5.json", "--nope"], 1),
        (["nosuchcommand"], 1),
        (["geodesic", "{d}/xy4.json", "--from", "0.1,0.05", "--leaf", "4",
          "--dir", "1,0", "--T", "inf"], 1),
        (["geodesic", "{d}/xy4.json", "--from", "0.1,0.05", "--leaf", "4",
          "--dir", "1,0", "--T", "nan"], 1),
        (["geodesic", "{d}/xy4.json", "--from", "0.1,0.05", "--leaf", "4",
          "--dir", "1,0", "--h", "nan"], 1),
        (["geodesic", "{d}/xy4.json", "--from", "0.1,0.05", "--leaf", "4",
          "--dir", "1,0", "--T", "1e300", "--h", "1e-300"], 1),
    ],
)
def test_exit_codes(webdir, capsys, argv, code):
    argv = [a.format(d=webdir) for a in argv]
    assert cli.main(argv) == code
    capsys.readouterr()


def test_short_function_list_is_invalid_input(tmp_path, capsys):
    bad = tmp_path / "short.json"
    bad.write_text(json.dumps({
        "dimension": 2,
        "functions": ["x1", "x2", "x1+x2"],
        "domain": {"center": [0.0, 0.0], "radius": 0.5},
    }))
    assert cli.main(["check", str(bad)]) == 1
    assert "invalid input" in capsys.readouterr().err


def run_geoweb(*argv):
    """Run `python -m geoweb` in a fresh process: (exit code, stdout, stderr)."""
    src = os.path.dirname(os.path.dirname(geoweb.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "geoweb", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


# the message names the innermost constant subexpression that does not
# fold, or the quotient whose divisor folds to 0
UNDEFINED = {
    "(-8)^(1/3)": "constant subexpression (-8)^(1/3) is not a finite real "
                  "number",
    "exp(1000)": "constant subexpression exp(1000) is not a finite real "
                 "number",
    "1/0": "constant subexpression 1/0 is not a finite real number",
    "x1/(2-2)": "division by zero in x1/(2 - 2)",
    "(1/0)^x1": "constant subexpression 1/0 is not a finite real number",
    "log(-1)*x1": "constant subexpression log(-1) is not a finite real "
                  "number",
}


@pytest.mark.parametrize("constant", list(UNDEFINED))
def test_undefined_constant_is_one_line_error(tmp_path, constant):
    bad = tmp_path / "const.json"
    bad.write_text(json.dumps({
        "dimension": 2,
        "functions": ["x1", "x2", "-(x1+x2)", "x1+2*x2+%s*x1" % constant],
        "domain": {"center": [0.0, 0.0], "radius": 0.5},
    }))
    code, out, err = run_geoweb("check", str(bad))
    assert (code, out) == (1, "")
    assert err == "geoweb: invalid input: functions[3]: %s\n" % (
        UNDEFINED[constant])


UNWRITABLE = {"directory": "Is a directory",
              "missing/dir/x.csv": "No such file or directory"}


@pytest.mark.parametrize("target", UNWRITABLE)
def test_unwritable_out_is_one_line_error(tmp_path, capsys, target):
    out_path = tmp_path / target
    if target == "directory":
        out_path.mkdir()
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "webs", "xy4.json")
    assert cli.main(["linearize", path, "--random", "3", "--seed", "1",
                     "--out", str(out_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "geoweb: error: cannot write --out %s: %s\n" % (
        out_path, UNWRITABLE[target])


# the entry run in a child as `python -m geoweb --version`; prints the exit
# code, the freeze count and whether the collector is on afterwards, and
# the number of collections that started before anything was frozen
_ENTRY_PROBE = (
    "import gc, json, runpy, sys\n"
    "if sys.argv[1] == 'off':\n"
    "    gc.disable()\n"
    "sys.argv[1:] = ['--version']\n"
    "early = []\n"
    "gc.collect()\n"
    "gc.callbacks.append(lambda phase, info: phase == 'start'\n"
    "                    and not gc.get_freeze_count() and early.append(1))\n"
    "try:\n"
    "    runpy.run_module('geoweb', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as e:\n"
    "    code = e.code\n"
    "print(json.dumps([code, gc.get_freeze_count(), gc.isenabled(),\n"
    "                  len(early)]))\n")


@pytest.mark.parametrize("collector", ["on", "off"])
def test_entry_freezes_the_import_heap(collector):
    src = os.path.dirname(os.path.dirname(geoweb.__file__))
    proc = subprocess.run([sys.executable, "-c", _ENTRY_PROBE, collector],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.stderr == ""
    version, result = proc.stdout.splitlines()
    assert version == "geoweb %s" % geoweb.__version__
    code, frozen, enabled, early = json.loads(result)
    assert code == 0
    assert frozen > 0
    assert enabled == (collector == "on")
    # the imports ran with the collector off
    assert early == 0


def test_main_leaves_the_collector_alone(capsys):
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    with pytest.raises(SystemExit):
        cli.main(["--version"])
    capsys.readouterr()
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


def test_installed_script_runs_the_module_entry():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"geoweb": "geoweb.__main__:run"}


@pytest.mark.parametrize("argv", [
    ["check", "{d}/lin5.json", "--random", "20", "--seed", "1"],
    ["connection", "{d}/xy4.json", "--at", "0.1,0.05"],
    ["linearize", "{d}/curved4.json", "--random", "20", "--seed", "1"],
    ["geodesic", "{d}/xy4.json", "--from", "0.1,0.05", "--leaf", "4",
     "--dir", "1,0", "--T", "0.05", "--h", "0.005"],
    ["invariants", "{d}/pert5.json", "--random", "10", "--seed", "1"],
], ids=lambda argv: argv[0])
def test_module_entry_matches_main(webdir, capsys, argv):
    argv = [a.format(d=webdir) for a in argv]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert run_geoweb(*argv) == (code, captured.out, captured.err)


def test_domain_failure_excludes_the_point(tmp_path):
    web = tmp_path / "log.json"
    web.write_text(json.dumps({
        "dimension": 2,
        "functions": ["x1", "x2", "-(x1+x2)", "log(x1+0.3)+x2"],
        "domain": {"center": [0.0, 0.0], "radius": 0.5},
    }))
    code, out, err = run_geoweb("linearize", str(web))
    assert (code, err) == (3, "")
    rows = list(csv.reader(line for line in out.splitlines()
                           if not line.startswith("#")))
    header, rows = rows[0], rows[1:]
    status, detail = header.index("status"), header.index("detail")
    degenerate = [r for r in rows if r[status] == "degenerate"]
    assert len(degenerate) == 3
    assert all("log" in r[detail] for r in degenerate)


def test_overflow_excludes_the_point(tmp_path):
    # exp(1000*x1) overflows at x1 = 0.85: without the check numpy warned
    # on stderr and the rows reported nan
    web = tmp_path / "overflow.json"
    web.write_text(json.dumps({
        "dimension": 2,
        "functions": ["x1", "x2", "-(x1+x2)", "x1+2*x2+exp(1000*x1)"],
        "domain": {"center": [0.5, 0.0], "radius": 0.5},
    }))
    code, out, err = run_geoweb("linearize", str(web))
    assert (code, err) == (3, "")
    assert "nan" not in out
    rows = list(csv.reader(line for line in out.splitlines()
                           if not line.startswith("#")))
    header, rows = rows[0], rows[1:]
    status, detail = header.index("status"), header.index("detail")
    overflow = [r for r in rows if "non-finite value" in r[detail]]
    assert [r[status] for r in overflow] == ["degenerate"] * 3
    # inside a random sample the excluded point sits between ok rows
    web.write_text(json.dumps({
        "dimension": 2,
        "functions": ["x1", "x2", "-(x1+x2)",
                      "x1+2*x2+x1*x2+exp(1000*(x1-0.8))"],
        "domain": {"center": [0.5, 0.0], "radius": 1.2},
    }))
    code, out, err = run_geoweb("linearize", str(web), "--random", "24",
                                "--seed", "3")
    assert (code, err) == (3, "")
    rows = [line.split(",") for line in out.splitlines()
            if not line.startswith("#")][1:]
    assert any("non-finite" in r[-1] for r in rows)
    assert sum(r[3] == "ok" for r in rows) >= 12


def test_overflowing_literal_is_one_line_error(tmp_path):
    bad = tmp_path / "literal.json"
    bad.write_text(json.dumps({
        "dimension": 2,
        "functions": ["x1", "x2", "-(x1+x2)", "x1+2*x2+1e999"],
        "domain": {"center": [0.0, 0.0], "radius": 0.5},
    }))
    code, out, err = run_geoweb("linearize", str(bad))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1, err
    assert "functions[3]" in err and "offset 8" in err and "1e999" in err


def _no_constant(name):
    raise ValueError("bare %s in a JSON report" % name)


@pytest.mark.parametrize("argv", [
    ["check", "{d}/pert5.json"],
    ["linearize", "{d}/curved4.json", "--random", "5"],
    ["linearize", "{d}/coincident.json"],
    ["linearize", "{d}/overflow.json"],
    ["linearize", "{d}/huge.json"],
    ["check", "{d}/huge.json"],
    ["invariants", "{d}/huge.json"],
    ["invariants", "{d}/lin5.json", "--grid", "2"],
    ["invariants", "{d}/coincident.json"],
    ["connection", "{d}/xy4.json", "--at", "0.1,0.2"],
    ["geodesic", "{d}/lin5.json", "--from", "0.1,0.05", "--leaf", "5",
     "--T", "0.05", "--h", "0.01"],
])
def test_json_reports_are_strict_json(webdir, tmp_path, argv):
    (webdir / "overflow.json").write_text(json.dumps({
        "dimension": 2,
        "functions": ["x1", "x2", "-(x1+x2)", "x1+2*x2+exp(1000*x1)"],
        "domain": {"center": [0.5, 0.0], "radius": 0.5},
    }))
    # finite web jets whose products overflow in the curvature code
    (webdir / "huge.json").write_text(json.dumps({
        "dimension": 2,
        "functions": ["x1", "x2", "-(x1+x2)", "x1+2*x2+1e200*x1^2*x2",
                      "x1+3*x2+x1*x2"],
        "domain": {"center": [0.5, 0.5], "radius": 0.5},
    }))
    out = tmp_path / "report.json"
    argv = [a.format(d=webdir) for a in argv]
    assert cli.main(argv + ["--format", "json", "--out", str(out)]) in (0, 2, 3)
    payload = json.loads(out.read_text(), parse_constant=_no_constant)
    path = webdir / os.path.basename(argv[1])
    assert payload["meta"]["sha256"] == \
        hashlib.sha256(path.read_bytes()).hexdigest()


def test_overflow_in_the_curvature_code_excludes_the_point(tmp_path):
    # the web jets are finite; their products overflow in the connection
    # and curvature code, which used to warn on stderr and report nan
    web = tmp_path / "huge.json"
    web.write_text(json.dumps({
        "dimension": 2,
        "functions": ["x1", "x2", "-(x1+x2)", "x1+2*x2+1e200*x1^2*x2"],
        "domain": {"center": [0.5, 0.5], "radius": 0.5},
    }))
    code, out, err = run_geoweb("linearize", str(web), "--format", "json")
    assert (code, err) == (3, "")
    payload = json.loads(out, parse_constant=_no_constant)
    assert payload["meta"]["excluded_fraction"] == 1
    assert payload["rows"] and all(
        r[3:] == ["degenerate", "", "", "non-finite obstruction"]
        for r in payload["rows"])


# every array these ask for is larger than a 57-bit address space, so the
# allocation fails at once, whatever the machine
@pytest.mark.parametrize("argv", [
    ["linearize", "{d}/xy4.json", "--random", "100000000000000000"],
    ["geodesic", "{d}/xy4.json", "--from", "0.1,0.05", "--leaf", "4",
     "--dir", "1,0", "--T", "1", "--h", "1e-17"],
])
def test_allocation_failure_is_one_line_error(webdir, capsys, argv):
    assert cli.main([a.format(d=webdir) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err
    assert err.startswith("geoweb: out of memory: Unable to allocate")


# past numpy's index range the allocation fails before any memory is asked
# for, with numpy's "Maximum allowed size exceeded"
@pytest.mark.parametrize("T, h, steps", [("1", "1e-300", "1e+300"),
                                         ("1e3", "1e-16", "1e+19")])
def test_step_count_past_array_range_names_options(webdir, capsys, T, h,
                                                   steps):
    argv = ["geodesic", "%s/xy4.json" % webdir, "--from", "0.1,0.1",
            "--leaf", "4", "--dir", "1,0", "--T", T, "--h", h]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", (
        "geoweb: invalid input: --T / --h asks for %s RK4 steps, more than "
        "an array can hold\n" % steps))


def test_connection_overflow_in_unprinted_coefficients(tmp_path, capsys):
    # the jets overflow past the values the report prints, which numpy
    # used to warn about on stderr
    web = tmp_path / "cubic.json"
    web.write_text(json.dumps({
        "dimension": 2,
        "functions": ["x1", "x2", "-(x1+x2)", "x1+2*x2+x1*x2+1e308*x1^3"],
        "domain": {"center": [0.0, 0.0], "radius": 0.5},
    }))
    assert cli.main(["connection", str(web), "--at", "1e-160,0.002"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "nan" not in out and "inf" not in out


def test_connection_refuses_a_non_finite_value(webdir, capsys, monkeypatch):
    real = connection.canonical_structure

    def overflowing(*args):
        struct = real(*args)
        struct.conn.gamma.coeffs[0, 1, 0, 1] = np.inf
        return struct

    monkeypatch.setattr(connection, "canonical_structure", overflowing)
    assert cli.main(["connection", str(webdir / "xy4.json"),
                     "--at", "0.1,0.2"]) == 1
    assert capsys.readouterr() == ("", "geoweb: computation failed: "
                                   "non-finite coord_gamma value at "
                                   "[0.1 0.2]\n")


def test_json_writer_refuses_nan():
    report = Report("check", {"max_discrepancy": float("nan")}, ["a"], [])
    with pytest.raises(ValueError):
        report.to_json()


def test_csv_rows_of_floats_read_as_cell_by_cell():
    # a row of floats is written with one format; every row must still read
    # as the cells formatted and quoted one by one
    rows = [[0.0, -0.0, 5e-324, float("nan")],
            [float("inf"), -1.5, 2.0 ** 70, 1 / 3],
            [1, "a,b", 2.5, np.float64(0.1)], [True, 'say "x"', 3.0, 10 ** 20],
            [], [0.1]]
    lines = Report("x", {}, list("abcd"), rows).to_csv().split("\n")
    assert lines[2:] == [",".join(_csv_quote(format_number(cell))
                                  for cell in row) for row in rows] + [""]


def test_connection_report_spot_values(webdir, tmp_path):
    out = tmp_path / "conn.csv"
    code = cli.main(["connection", str(webdir / "xy4.json"),
                     "--at", "0,0", "--out", str(out)])
    assert code == 0
    meta, header, rows = read_report(out)
    assert header == ["section", "k", "i", "j", "value"]
    cells = {(r[0], r[1], r[2], r[3]): float(r[4]) for r in rows}
    assert cells[("frame_gamma", "1", "1", "2")] == pytest.approx(-1.0, abs=1e-9)
    assert cells[("frame_gamma", "1", "2", "1")] == pytest.approx(-1.0, abs=1e-9)
    assert cells[("frame_gamma", "2", "1", "2")] == pytest.approx(1.0, abs=1e-9)
    assert cells[("theta", "", "1", "2")] == pytest.approx(2.0, abs=1e-9)
    assert cells[("a", "4", "1", "")] == pytest.approx(-1.0, abs=1e-12)
    assert cells[("a", "4", "2", "")] == pytest.approx(-2.0, abs=1e-12)
    assert cells[("a_class", "4", "1", "")] == pytest.approx(0.5, abs=1e-12)
    assert cells[("a_class", "4", "2", "")] == pytest.approx(1.0, abs=1e-12)
    # coordinate symmetry is visible in the report itself
    assert cells[("coord_gamma", "1", "1", "2")] == pytest.approx(
        cells[("coord_gamma", "1", "2", "1")], abs=1e-12)


def test_pointed_connection_rows_name_the_file_foliation(tmp_path):
    # pointing at foliation 4 puts the chart in the order [1, 2, 4, 3, 5]:
    # chart slot 4 holds foliation 3, and its rows say 3
    path = tmp_path / "pointed.json"
    path.write_text(json.dumps({
        "dimension": 2, "pointed": 4,
        "functions": ["x1", "x2", "-(x1+x2)", "x1+2*x2", "x1+3*x2+x1*x2"],
        "domain": {"center": [0.0, 0.0], "radius": 0.5}}))
    out = tmp_path / "conn.csv"
    assert cli.main(["connection", str(path), "--at", "0.1,0.2",
                     "--gauge", "pointed", "--out", str(out)]) == 0
    _, _, rows = read_report(out)
    got = {(r[1], r[2]): float(r[4]) for r in rows if r[0] == "a"}
    web = load_webfile(str(path))
    chart = pointed_chart(web)
    cof = normalize_coframe(chart, (0.1, 0.2), 3)
    for slot, foliation in ((4, "3"), (5, "5")):
        a = basis_invariants(cof, chart, slot).value
        for i in range(2):
            assert got.pop((foliation, str(i + 1))) == a[i]
    assert not got


@pytest.mark.parametrize("name", ["lin5", "sin6"])
@pytest.mark.parametrize("command, rest", [
    ("linearize", ["--random", "200"]), ("connection", ["--at", "0.1,0.2"])],
    ids=["linearize", "connection"])
def test_commands_expand_each_function_once_per_batch(monkeypatch, capsys,
                                                      name, command, rest):
    # the structure reads every foliation past n+1 on its own coframe, so a
    # batch of points costs one expansion of each of the d functions
    calls = []
    real = expr.eval_field

    def counting(tree, point, order):
        calls.append((id(tree), np.asarray(point).tobytes()))
        return real(tree, point, order)

    monkeypatch.setattr(expr, "eval_field", counting)
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "webs", name + ".json")
    cli.main([command, path, *rest])
    capsys.readouterr()
    batches = {point for _, point in calls}
    assert len(set(calls)) == len(calls) == load_webfile(path).d * len(
        batches), (len(calls), len(batches))


def test_connection_refuses_coincident_invariants_as_check_does(tmp_path,
                                                                capsys):
    # a_1 = a_2 = -1 for foliation 5 at the origin; check excludes the
    # point with the same text connection fails with
    path = tmp_path / "coincide5.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "functions": ["x1", "x2", "-(x1+x2)", "x1+2*x2+x1*x2",
                      "x1+x2+0.1*x1*x2"],
        "domain": {"center": [0.0, 0.0], "radius": 0.5}}))
    out = tmp_path / "check.csv"
    assert cli.main(["check", str(path), "--grid", "1",
                     "--out", str(out)]) == 3
    (row,) = read_report(out)[2]
    assert row[3] == "degenerate"
    assert row[-1] == "basis invariants a_1 and a_2 coincide (-1) at [0. 0.]"
    assert cli.main(["connection", str(path), "--at", "0,0"]) == 1
    assert capsys.readouterr() == ("", "geoweb: computation failed: %s\n"
                                   % row[-1])


def test_linearize_excludes_points_once_for_both_tests(tmp_path, capsys):
    # a_1 of foliation 5 vanishes on x1 = 0, a third of the 3 x 3 grid: the
    # geodesicity discrepancy and the obstruction share one exclusion list
    path = tmp_path / "vanish5.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "functions": ["x1", "x2", "-(x1+x2)", "x1+2*x2+x1*x2", "x1^2+3*x2"],
        "domain": {"center": [0.0, 0.0], "radius": 0.5}}))
    out = tmp_path / "lin.csv"
    assert cli.main(["linearize", str(path), "--grid", "3",
                     "--out", str(out)]) == 3
    meta, header, rows = read_report(out)
    assert meta["verdict"] == "inconclusive"
    assert meta["excluded_fraction"] == "0.33333333333333331"
    status, detail = header.index("status"), header.index("detail")
    for r in rows:
        if r[0] in ("3", "4", "5"):
            assert r[status] == "degenerate"
            assert r[detail].startswith(
                "basis invariant a_1 of foliation 5 vanishes at [")
        else:
            assert r[status] == "ok"


def test_geodesic_report(webdir, tmp_path):
    out = tmp_path / "geo.csv"
    code = cli.main(["geodesic", str(webdir / "lin5.json"),
                     "--from", "0.1,0.05", "--leaf", "5",
                     "--T", "0.5", "--h", "0.01", "--out", str(out)])
    assert code == 0
    meta, header, rows = read_report(out)
    assert "verdict" not in meta
    assert float(meta["drift"]) < 1e-8
    assert int(meta["steps"]) == 50
    assert header[:3] == ["t", "x1", "x2"]
    assert len(rows) == 51
    assert float(rows[0][0]) == 0.0
    assert float(rows[-1][0]) == pytest.approx(0.5, abs=1e-15)
    # leaf 5 stays on its level set: f5 column is constant
    col = header.index("f5")
    values = [float(r[col]) for r in rows]
    assert max(values) - min(values) < 1e-8


def _geodesic_along(webdir, capsys, direction):
    code = cli.main(["geodesic", str(webdir / "xy4.json"), "--from",
                     "0.1,0.05", "--leaf", "4", "--dir", direction,
                     "--T", "0.05", "--h", "0.005"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, ""), direction
    return captured.out


def _tangent(report):
    line, = (x for x in report.splitlines() if x.startswith("# tangent="))
    return np.array([float(x) for x in line.split("=")[1].split(",")])


@pytest.mark.parametrize("direction, like", [("1e308,1e308", "1,1"),
                                             ("1e-320,0", "1,0")])
def test_geodesic_takes_huge_and_tiny_directions(webdir, capsys, direction,
                                                 like):
    # the direction is scaled by a power of two before it is projected, so
    # the huge one does not overflow and the tiny one does not vanish
    tangent = _tangent(_geodesic_along(webdir, capsys, direction))
    assert np.abs(tangent - _tangent(_geodesic_along(webdir, capsys, like))
                  ).max() <= 1e-15
    # unit length, along the level set of f4 = x1 + 2 x2 + x1 x2
    assert np.linalg.norm(tangent) == pytest.approx(1.0, abs=1e-15)
    assert abs(tangent @ [1.05, 2.1]) <= 1e-15


def test_direction_scaled_by_a_power_of_two_keeps_the_bits(webdir, capsys):
    # 2^1023 in each entry, the largest power of two below the float range
    huge = _geodesic_along(webdir, capsys, "%r,%r" % ((2.0 ** 1023,) * 2))
    assert huge == _geodesic_along(webdir, capsys, "1,1")


def test_invariants_table(webdir, tmp_path):
    out = tmp_path / "inv.csv"
    code = cli.main(["invariants", str(webdir / "lin5.json"),
                     "--grid", "2", "--out", str(out)])
    assert code == 0
    meta, header, rows = read_report(out)
    assert header == ["index", "x1", "x2", "status",
                      "a4_1", "a4_2", "a5_1", "a5_2",
                      "s4_12", "s5_12", "detail"]
    assert len(rows) == 4
    assert [r[3] for r in rows] == ["ok"] * 4
    assert [int(r[0]) for r in rows] == [0, 1, 2, 3]


def test_invariants_marks_degenerate_rows(webdir, tmp_path):
    out = tmp_path / "inv.csv"
    code = cli.main(["invariants", str(webdir / "coincident.json"),
                     "--grid", "3", "--out", str(out)])
    assert code == 0
    meta, header, rows = read_report(out)
    statuses = {r[3] for r in rows}
    assert statuses == {"ok", "degenerate"}
    for row in rows:
        if row[3] == "degenerate":
            assert row[4:-1] == [""] * (len(header) - 5)
            assert row[-1] != ""


@pytest.mark.parametrize("command, web, fmt", [
    pytest.param("linearize", "curved4", "csv", id="csv"),
    pytest.param("linearize", "curved4", "json", id="json"),
    pytest.param("invariants", "pert5", "csv", id="invariants-csv"),
])
def test_reports_are_byte_identical(webdir, tmp_path, command, web, fmt):
    args = [command, str(webdir / (web + ".json")),
            "--random", "6", "--seed", "3", "--format", fmt]
    a, b = tmp_path / ("a." + fmt), tmp_path / ("b." + fmt)
    cli.main(args + ["--out", str(a)])
    cli.main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_json_format_round_trips(webdir, tmp_path):
    out = tmp_path / "check.json"
    cli.main(["check", str(webdir / "lin5.json"),
              "--format", "json", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["command"] == "check"
    assert payload["verdict"] == "geodesic"
    assert payload["columns"][0] == "index"
    assert len(payload["rows"]) >= 1


def test_stdout_when_no_out_file(webdir, capsys):
    code = cli.main(["check", str(webdir / "lin5.json")])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("# command=check")
    assert "# verdict=geodesic" in text


def test_grid_of_one_samples_the_domain_center(tmp_path):
    # np.linspace(-h, h, 1) is [-h]: a lattice of one point is the center
    path = tmp_path / "offcenter.json"
    path.write_text(json.dumps({**WEBS["lin5"], "domain": {
        "center": [0.125, -0.25], "radius": 0.3}}))
    out = tmp_path / "check.csv"
    assert cli.main(["check", str(path), "--grid", "1",
                     "--out", str(out)]) == 0
    meta, header, rows = read_report(out)
    assert (meta["grid"], meta["count"]) == ("1", "1")
    assert [r[:4] for r in rows] == [["0", "0.125", "-0.25", "ok"]]


# lin5 with its fifth function bent by 1e-5 x1^2: every discrepancy lies
# between the pass and fail factors, and no point is excluded
NEAR_LIN5 = {**WEBS["lin5"],
             "functions": WEBS["lin5"]["functions"][:4]
             + ["x1+3*x2+1e-5*x1^2"]}


def test_residual_between_the_factors_is_inconclusive(tmp_path):
    path = tmp_path / "near5.json"
    path.write_text(json.dumps(NEAR_LIN5))
    out = tmp_path / "check.csv"
    assert cli.main(["check", str(path), "--random", "20", "--seed", "1",
                     "--out", str(out)]) == 3
    meta, header, rows = read_report(out)
    assert meta["verdict"] == "inconclusive"
    assert meta["excluded_fraction"] == "0"
    assert float(meta["max_discrepancy"]) == pytest.approx(3.0e-5, rel=1e-3)
    assert {r[header.index("status")] for r in rows} == {"ok"}


def test_inconclusive_geodesicity_makes_linearizable_inconclusive(tmp_path):
    # the obstruction alone passes (0 on a flat frame); the geodesicity
    # pre-pass between the factors turns `linearizable` into inconclusive
    path = tmp_path / "near5.json"
    path.write_text(json.dumps(NEAR_LIN5))
    out = tmp_path / "lin.csv"
    assert cli.main(["linearize", str(path), "--random", "20", "--seed", "1",
                     "--out", str(out)]) == 3
    meta, header, rows = read_report(out)
    assert (meta["max_obstruction"], meta["excluded_fraction"]) == ("0", "0")
    assert meta["verdict"] == "inconclusive"
    assert meta["note"] == "geodesicity: inconclusive"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "geoweb" in capsys.readouterr().out


def test_geodesic_loads_only_the_modules_it_runs():
    # the benchmark's geodesic run on mixed3, in a fresh process: no module
    # of the other commands, no `dataclasses`, and no OpenSSL where CPython
    # has a built-in SHA-256
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "webs", "mixed3.json")
    argv = ["geodesic", path, "--from", "0.05,0.05,0.05", "--leaf", "5",
            "--T", "0.3", "--h", "0.001"]
    probe = ("import contextlib, io, json, sys\n"
             "from geoweb import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    status = cli.main(json.loads(sys.argv[1]))\n"
             "print(json.dumps([status, sorted(sys.modules)]))\n")
    src = os.path.dirname(os.path.dirname(geoweb.__file__))
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(argv)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.stderr == ""
    status, modules = json.loads(proc.stdout)
    assert status == 0
    assert "geoweb.geodesics" in modules
    assert not {"geoweb.connection", "geoweb.curvature", "geoweb.invariants",
                "geoweb.sampling", "dataclasses"} & set(modules)
    if any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
        assert "_hashlib" not in modules
    with open(path, "rb") as fh:
        data = fh.read()
    assert load_webfile(path).digest == hashlib.sha256(data).hexdigest()


# the module entry run in a child on the command in argv[1] (JSON); prints
# the exit code and the modules loaded by then
_MODULES_PROBE = (
    "import contextlib, io, json, runpy, sys\n"
    "sys.argv[1:] = json.loads(sys.argv[1])\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    try:\n"
    "        runpy.run_module('geoweb', run_name='__main__', alter_sys=True)\n"
    "    except SystemExit as e:\n"
    "        code = e.code\n"
    "print(json.dumps([code, sorted(sys.modules)]))\n")


@pytest.mark.parametrize("argv, code", [
    (["check", "{d}/lin5.json", "--random", "5", "--seed", "1"], 0),
    (["linearize", "{d}/curved4.json", "--random", "5", "--seed", "1"], 2),
    (["invariants", "{d}/pert5.json", "--random", "5", "--seed", "1"], 0),
    (["geodesic", "{d}/xy4.json", "--from", "0.1,0.05", "--leaf", "4",
      "--dir", "1,0", "--T", "0.01", "--h", "0.005"], 0),
    (["connection", "{d}/xy4.json", "--at", "0.1,0.05"], 0),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_no_command_loads_numpy_random_or_openssl(webdir, argv, code):
    # a seeded sample is drawn with the interpreter's own Mersenne Twister:
    # no process loads numpy's generators, `secrets` or, where CPython has
    # a built-in SHA-256 for the web file's digest, OpenSSL
    argv = [a.format(d=webdir) for a in argv]
    src = os.path.dirname(os.path.dirname(geoweb.__file__))
    proc = subprocess.run([sys.executable, "-c", _MODULES_PROBE,
                           json.dumps(argv)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.stderr == ""
    status, modules = json.loads(proc.stdout)
    assert status == code
    assert not {"numpy.random", "secrets"} & set(modules)
    if any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
        assert "_hashlib" not in modules


# a coordinate list that starts with a minus sign, after its flag or
# attached with "="; the two spellings must give the same report
NEGATIVE_COORDS = [
    ("connection", "--at", "-0.1,0.2", ()),
    ("connection", "--at", "-.1,-0.2", ()),
    ("geodesic", "--from", "-0.1,0.05",
     ("--leaf", "4", "--T", "0.01", "--h", "0.005")),
    ("geodesic", "--dir", "-1,0.5",
     ("--from", "0.1,0.05", "--leaf", "4", "--T", "0.01", "--h", "0.005")),
    ("geodesic", "--fr", "-0.1,0.05",
     ("--leaf", "4", "--T", "0.01", "--h", "0.005")),
]


@pytest.mark.parametrize("command, flag, value, rest", NEGATIVE_COORDS)
def test_negative_coordinates(webdir, capsys, command, flag, value, rest):
    web = str(webdir / "xy4.json")
    assert cli.main([command, web, flag + "=" + value, *rest]) == 0
    attached = capsys.readouterr()
    assert cli.main([command, web, flag, value, *rest]) == 0
    assert capsys.readouterr() == attached
    assert attached.err == ""


def test_missing_coordinate_value_is_one_line_error(webdir, capsys):
    assert cli.main(["geodesic", str(webdir / "xy4.json"), "--from",
                     "--leaf", "4"]) == 1
    assert capsys.readouterr().err == (
        "geoweb: error: argument --from: expected one argument\n")


@pytest.mark.parametrize("command, flag, value, rest, text", [
    ("connection", "--at", "nan,0.1", (), "--at expects finite coordinates, "
     "got 'nan,0.1'"),
    ("connection", "--at", "0.1,-inf", (), "--at expects finite "
     "coordinates, got '0.1,-inf'"),
    ("geodesic", "--from", "inf,0.05", ("--leaf", "4"), "--from expects "
     "finite coordinates, got 'inf,0.05'"),
    ("geodesic", "--dir", "nan,0", ("--from", "0.1,0.05", "--leaf", "4"),
     "--dir expects finite coordinates, got 'nan,0'"),
    ("geodesic", "--dir", "1e400,0", ("--from", "0.1,0.05", "--leaf", "4"),
     "--dir expects finite coordinates, got '1e400,0'"),
    ("geodesic", "--dir", "0,0", ("--from", "0.1,0.05", "--leaf", "4"),
     "--dir must not be the zero vector"),
    ("geodesic", "--dir", "-0.0,0", ("--from", "0.1,0.05", "--leaf", "4"),
     "--dir must not be the zero vector"),
], ids=["at-nan", "at-inf", "from-inf", "dir-nan", "dir-overflow",
        "dir-zero", "dir-negative-zero"])
def test_bad_coordinates_are_one_line_invalid_input(webdir, capsys, command,
                                                    flag, value, rest, text):
    assert cli.main([command, str(webdir / "xy4.json"), flag, value,
                     *rest]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "geoweb: invalid input: %s\n" % text


@pytest.mark.parametrize("command", ["check", "linearize", "invariants"])
@pytest.mark.parametrize("seed, text", [
    ("-5", "must be a non-negative integer, got -5"),
    ("five", "invalid int value: 'five'")])
def test_bad_seed_names_the_flag(webdir, capsys, command, seed, text):
    # refused while the arguments are parsed, before the web is read
    assert cli.main([command, str(webdir / "absent.json"), "--random", "1",
                     "--seed", seed]) == 1
    assert capsys.readouterr() == (
        "", "geoweb: error: argument --seed: %s\n" % text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_no_maximum_when_every_point_is_excluded(tmp_path, capsys, fmt):
    # f4 = -f3: the basis invariants a_1 and a_2 coincide at every point
    web = tmp_path / "dependent.json"
    web.write_text(json.dumps({
        "dimension": 2, "functions": ["x1", "x2", "-(x1+x2)", "x1+x2"],
        "domain": {"center": [0.0, 0.0], "radius": 0.5}}))
    out_path = tmp_path / ("report." + fmt)
    assert cli.main(["linearize", str(web), "--grid", "2", "--format", fmt,
                     "--out", str(out_path)]) == 3
    assert capsys.readouterr() == ("", "")
    if fmt == "csv":
        meta, _, rows = read_report(out_path)
    else:
        payload = json.loads(out_path.read_text())
        meta, rows = payload["meta"], payload["rows"]
        meta["verdict"] = payload["verdict"]
    assert "max_obstruction" not in meta
    assert float(meta["excluded_fraction"]) == 1.0
    assert meta["verdict"] == "inconclusive"
    assert len(rows) == 4


# f_i and phi(f_i) for a monotone phi have the same level sets, so the same
# web: no verdict may depend on which function names a foliation
REPARAMETRIZATIONS = ("exp(%s)", "atan(%s)", "(%s)+(%s)^3", "-2.5*(%s)+0.7",
                      "(%s)+0.25*(%s)^3", "0.2*(%s)^3+3*(%s)")


@pytest.mark.parametrize("name", ["xy4", "curved4", "lin5", "mixed3",
                                  "sin6", "cubic6"])
def test_verdicts_survive_reparametrizing_a_function(tmp_path, capsys, name):
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "perfbench", "webs", name + ".json")) as fh:
        payload = json.load(fh)
    commands = ["linearize"]
    if len(payload["functions"]) > payload["dimension"] + 2:
        commands.append("check")
    path = tmp_path / "web.json"

    def verdicts():
        path.write_text(json.dumps(payload))
        found = []
        for command in commands:
            code = cli.main([command, str(path), "--random", "20",
                             "--seed", "1"])
            out = capsys.readouterr().out
            found.append((code, [line for line in out.splitlines()
                                 if line.startswith("# verdict=")]))
        return found

    plain = verdicts()
    assert all(lines for _, lines in plain)
    functions = list(payload["functions"])
    for i, source in enumerate(functions):
        for phi in REPARAMETRIZATIONS:
            payload["functions"] = (functions[:i] + [phi.replace(
                "%s", source)] + functions[i + 1:])
            assert verdicts() == plain, (i, phi)
