"""The benchmark harness against the program it measures.

`perfbench/spans.py` wraps geoweb functions by name and times the jet
kernels through the public `Jet` API; a rename or a changed signature
would only show as a failing `perfbench/run.py --trace 1`.  `run.py`
itself probes `jets.backend_name()` before every run.  These checks
import the harness as it is and hold it to the program here.
"""

import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

from geoweb import cli, jets, report

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _perfbench(monkeypatch, name):
    # the harness modules import their siblings by plain name
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module(name)


def _spans(monkeypatch):
    return _perfbench(monkeypatch, "spans")


def test_traced_functions_exist(monkeypatch):
    spans = _spans(monkeypatch)
    pairs = list(spans.TRACED) + [("fastgamma", "batched_gamma_evaluator")]
    for module, name in pairs:
        mod = importlib.import_module("geoweb." + module)
        assert callable(getattr(mod, name, None)), (module, name)
    assert callable(report.Report.render)


def test_setup_probe_names_the_backend(monkeypatch):
    # every benchmark run starts with this probe and exits 2 if it fails
    run = _perfbench(monkeypatch, "run")
    probe = subprocess.run([sys.executable, "-c", run._ENV_PROBE],
                           env=run.program_env(), capture_output=True,
                           text=True, check=False)
    assert probe.returncode == 0, probe.stderr
    numpy_version, backend, path = probe.stdout.split(maxsplit=2)
    assert (numpy_version, backend) == (np.__version__, "python")
    assert os.path.abspath(path.strip()).startswith(run.SRC + os.sep)


def test_jet_kernels_run(monkeypatch):
    spans = _spans(monkeypatch)
    mul_us, mflops, solve_us = spans.jet_kernels(jets, {(2, 2)}, 0)
    assert np.isfinite([mul_us, mflops, solve_us]).all()
    assert min(mul_us, mflops, solve_us) > 0


def _workload_names():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("workloads").NAMES
    finally:
        sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("name", _workload_names())
def test_workload_passes_its_checks(monkeypatch, name):
    # the measured invocations at seed 1, in this process: exit code,
    # empty stderr, verdict, and the row count and exclusions of a sample
    # or the step count and leaf drift of a geodesic, as the benchmark
    # holds them, so a change that would fail the benchmark fails here
    # first
    spans = _spans(monkeypatch)
    workloads = importlib.import_module("workloads")
    monkeypatch.chdir(os.path.join(PERFBENCH, os.pardir))
    invocations = workloads.build(name, 1).invocations
    assert invocations
    for inv in invocations:
        code, out, err = spans.call_main(cli.main, inv.argv)
        assert workloads.check_output(inv, code, out, err) == [], inv.argv
