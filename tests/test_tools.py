"""The measuring tools under `tools/`: the byte-identity check between two
checkouts, the same-process A/B, the BENCH writer and the code-line
count."""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "tools"))

import ab  # noqa: E402
import loc  # noqa: E402
import pairs  # noqa: E402
import same_bytes  # noqa: E402


def test_same_bytes_finds_no_difference_in_a_tree_against_itself():
    golden = same_bytes.golden_invocations(ROOT)
    assert golden["linearize-xy4"][:2] == ("linearize",
                                           "perfbench/webs/xy4.json")
    cases = {k: golden[k] for k in ("connection-xy4-zero", "geodesic-nodes")}
    assert same_bytes.differences(ROOT, ROOT, cases) == []
    code, out, err = same_bytes.run(ROOT, cases["connection-xy4-zero"])
    assert (code, err) == (0, b"")
    assert out.startswith(b"# command=connection\n")


def test_same_bytes_lists_every_benchmark_invocation_at_both_seeds():
    invs = same_bytes.benchmark_invocations(ROOT)
    assert len(invs) == 2 * 13
    assert invs["scan-order2/2/0"] == ("check", "perfbench/webs/lin5.json",
                                       "--random", "250", "--seed", "2")


def test_ab_round_of_a_tree_against_itself():
    diffs, rows = ab.compare(ROOT, ROOT, rounds=1)
    assert diffs == []
    names = [row[0] for row in rows]
    assert len(names) == 3 * (len(ab.BATCHES) + 2)
    assert {"rk4 xy4", "cli mixed3", "gamma web4 rows 64"} <= set(names)
    for name, parent_ms, change_ms, ratio, control in rows:
        assert 0 < min(parent_ms, change_ms) < 1e4, name
        assert 0 < min(ratio, control) < 1e3, name


def test_ab_refuses_to_time_a_tree_one_ulp_off(tmp_path):
    # a copy whose tangent vector is one ulp longer: every run differs from
    # its start on, and nothing is timed
    for part in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, part), tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    geodesics = tmp_path / "src" / "geoweb" / "geodesics.py"
    text = geodesics.read_text()
    assert text.count("    return t / nt\n") == 1
    geodesics.write_text(text.replace("    return t / nt\n",
                                      "    return t / nt * (1 + 2.0 ** -52)\n"))
    diffs, rows = ab.compare(ROOT, str(tmp_path), rounds=1)
    assert rows == []
    assert {label for label, _ in diffs} == {"xy4", "mixed3", "web4"}
    assert ("xy4", "tangent") in diffs and ("web4", "report") in diffs


def _run_result(failed, metrics):
    """The last stdout line of a benchmark run, as `perfbench/run.py`
    prints it."""
    return {"correct": failed == 0, "attempted": 40, "failed": failed,
            "metrics": {k: {"value": v, "unit": ""}
                        for k, v in metrics.items()}}


def test_pairs_alternate_which_side_runs_first():
    assert [pairs.order(k)[0] for k in (1, 2, 3, 4)] == [
        "parent", "change", "parent", "change"]
    assert pairs.order(2) == ("change", "parent")


def test_pairs_reads_a_benchmark_run():
    stdout = ('# environment {"nproc": 2, "python": "3.11.7"}\n'
              "# workload linearize-n2: 3 commands x 9 passes\n"
              + json.dumps(_run_result(0, {"peak_rss_mb": 32.5})) + "\n")
    env, result = pairs.parse_run(stdout)
    assert env == {"nproc": 2, "python": "3.11.7"}
    assert result["metrics"]["peak_rss_mb"]["value"] == 32.5


def test_pairs_summary_of_synthetic_runs():
    metrics = {"wall_ref.p50": "lower", "work_per_ref": "higher"}
    parent = [(0.60, 100.0), (0.62, 98.0), (0.58, 103.0), (0.61, 99.0),
              (0.59, 101.0)]
    change = [(0.55, 110.0), (0.56, 108.0), (0.59, 101.0), (0.54, 111.0),
              (0.59, 101.0)]
    records = [pairs.pair_record(
        k, 900 + k,
        {"parent": _run_result(0, dict(zip(metrics, p))),
         "change": _run_result(k == 3, dict(zip(metrics, c)))}, metrics)
        for k, (p, c) in enumerate(zip(parent, change), 1)]
    assert records[1]["first"] == "change"
    assert records[0]["parent"] == {"wall_ref.p50": 0.60,
                                    "work_per_ref": 100.0}
    entry = pairs.workload_entry(30.0, records, metrics)
    assert entry["seeds"] == [901, 902, 903, 904, 905]
    assert entry["failed"] == 1
    wall = entry["summary"]["wall_ref.p50"]
    assert wall["parent_median"] == 0.60 and wall["change_median"] == 0.56
    assert wall["ratio_of_medians"] == 0.56 / 0.60
    # inclusive quartiles of 5 values are the 2nd and 4th order statistics
    assert wall["parent_quartiles"] == [0.59, 0.61]
    assert wall["change_quartiles"] == [0.55, 0.59]
    assert wall["parent_iqr"] == 0.61 - 0.59
    # pair 3 is worse and pair 5 a tie on both metrics
    assert wall["pairs_better"] == "3 of 5"
    work = entry["summary"]["work_per_ref"]
    assert (work["better"], work["pairs_better"]) == ("higher", "3 of 5")
    assert work["parent_quartiles"] == [99.0, 101.0]
    # the file written after the first pair
    first = pairs.workload_entry(30.0, records[:1], metrics)["summary"]
    assert first["wall_ref.p50"]["parent_quartiles"] == [0.60, 0.60]
    assert first["wall_ref.p50"]["pairs_better"] == "1 of 1"


def test_loc_leaves_out_docstrings_comments_and_blank_lines():
    source = ('"""Module\ndocstring."""\n\n'
              "# a comment\n"
              "def f(x):\n"
              '    """One line."""\n'
              "    y = (x +  # trailing comment\n"
              "         1)\n"
              "\n"
              "    return '''not a\n"
              "    docstring'''\n")
    assert loc.code_lines(source) == 5


def test_loc_totals_the_package(capsys):
    assert loc.main([os.path.join(ROOT, "src", "geoweb")]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = [int(line.split()[0]) for line in lines]
    assert lines[-1].endswith(" total")
    assert sum(counts[:-1]) == counts[-1] > 0
    assert any(line.endswith("cli.py") for line in lines)
