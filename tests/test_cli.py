"""Command-line interface: exit codes, report layout, determinism."""

import csv
import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import geoweb
from geoweb import cli, connection
from geoweb.report import Report
from geoweb.web import basis_invariants, normalize_coframe, pointed_chart
from geoweb.webfile import load_webfile


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


@pytest.mark.parametrize("constant", ["(-8)^(1/3)", "exp(1000)", "1/0"])
def test_undefined_constant_is_one_line_error(tmp_path, constant):
    bad = tmp_path / "const.json"
    bad.write_text(json.dumps({
        "dimension": 2,
        "functions": ["x1", "x2", "-(x1+x2)", "x1+2*x2+%s*x1" % constant],
        "domain": {"center": [0.0, 0.0], "radius": 0.5},
    }))
    code, out, err = run_geoweb("check", str(bad))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    assert "functions[3]" in err and constant in err


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
        a = basis_invariants(cof, chart, slot).a.value
        for i in range(2):
            assert got.pop((foliation, str(i + 1))) == a[i]
    assert not got


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "geoweb" in capsys.readouterr().out


def test_geodesic_loads_only_the_modules_it_runs():
    # the benchmark's geodesic run on mixed3, in a fresh process: no module
    # of the other commands, and no OpenSSL where CPython has a built-in
    # SHA-256
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
                "geoweb.sampling"} & set(modules)
    if any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
        assert "_hashlib" not in modules
    with open(path, "rb") as fh:
        data = fh.read()
    assert load_webfile(path).digest == hashlib.sha256(data).hexdigest()


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
