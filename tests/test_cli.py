"""Command-line interface: exit codes, report layout, determinism."""

import csv
import json
import os
import subprocess
import sys

import pytest

import geoweb
from geoweb import cli


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
