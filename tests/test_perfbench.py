"""The benchmark harness against the program it measures.

`perfbench/spans.py` wraps geoweb functions by name and times the jet
kernels through the public `Jet` API; a rename or a changed signature
would only show as a failing `perfbench/run.py --trace 1`.  These checks
import the harness as it is and hold it to the program here.
"""

import importlib
import os

import numpy as np

from geoweb import cli, jets, report

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _spans(monkeypatch):
    # spans.py imports its sibling module `workloads` by plain name
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("spans")


def test_traced_functions_exist(monkeypatch):
    spans = _spans(monkeypatch)
    pairs = list(spans.TRACED) + [("fastgamma", "batched_gamma_evaluator")]
    for module, name in pairs:
        mod = importlib.import_module("geoweb." + module)
        assert callable(getattr(mod, name, None)), (module, name)
    assert callable(report.Report.render)


def test_jet_kernels_run(monkeypatch):
    spans = _spans(monkeypatch)
    mul_us, mflops, solve_us = spans.jet_kernels(jets, {(2, 2)}, 0)
    assert np.isfinite([mul_us, mflops, solve_us]).all()
    assert min(mul_us, mflops, solve_us) > 0


def test_geodesic_workload_passes_its_checks(monkeypatch):
    # the measured `geodesic` invocations at seed 1, in this process: exit
    # code, empty stderr, step count and leaf drift as the benchmark holds
    # them, so a change that would fail the benchmark fails here first
    spans = _spans(monkeypatch)
    workloads = importlib.import_module("workloads")
    monkeypatch.chdir(os.path.join(PERFBENCH, os.pardir))
    invocations = workloads.build("geodesic", 1).invocations
    assert len(invocations) == 3
    for inv in invocations:
        code, out, err = spans.call_main(cli.main, inv.argv)
        assert workloads.check_output(inv, code, out, err) == [], inv.argv
