"""Traced in-process run: spans around the calls into each geoweb module.

The workload's invocations are replayed through `geoweb.cli.main` in this
process, in pairs of passes: one untraced, one with every function in
`TRACED` replaced, wherever a geoweb module binds it, by a wrapper that
records a span (id, parent, name, start, end, thread CPU time, points).
Spans stay in memory and are written as JSON lines at the end.  Only
public functions are wrapped; no private hook of the program is touched.

A layer's self time is the thread CPU time of its spans minus that of
their child spans on the same thread.  CPU time, not wall time, because
`invariants` runs rows on a thread pool where wall spans would include
waiting for the interpreter lock.  A span opened on a worker thread with
nothing open on it takes the main thread's open span as its parent.

Layers the workload's commands never call (curvature on `scan-order2`,
for instance) are measured by a probe that calls them on the workload's
own webs and points, at the order the CLI would use; `trace.probed_layers`
counts them.  The jet kernels are timed through public `Jet` arithmetic
and `jet_linear_solve` at the workload's (n, order) pairs.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

import workloads

# (module, function) pairs wrapped in spans; the span is "module.function".
# Entry points without a metric of their own (canonical_structure,
# linearizability_verdict, tangent_vector, batched_values) are traced so
# their self time is not counted in cli.unaccounted.
TRACED = (
    ("webfile", "load_webfile"),
    ("sampling", "random_points"),
    ("expr", "eval_field"),
    ("web", "normalize_coframe"),
    ("web", "basis_invariants"),
    ("connection", "canonical_structure"),
    ("connection", "skew_invariant"),
    ("connection", "theta_system"),
    ("connection", "canonical_christoffels"),
    ("curvature", "linearizability_verdict"),
    ("curvature", "riemann"),
    ("curvature", "projective_pack"),
    ("invariants", "geodesicity_test"),
    ("geodesics", "tangent_vector"),
    ("geodesics", "integrate_geodesic"),
    ("geodesics", "leaf_drift"),
    ("fastgamma", "batched_values"),
)

# spans whose `points` field is the size of a point-sample argument
_POINT_ARG = {"invariants.geodesicity_test": 1}

# layer metrics: name -> (span, statistic, scale, unit).  "per_call"
# divides self time by calls, "per_point" by the points field (calls when
# it is absent), "per_step" by RK4 steps; "calls" counts calls per pass
LAYER_METRICS = {
    "webfile.load_webfile.ms": ("webfile.load_webfile", "per_call", 1e3,
                                "ms"),
    "sampling.random_points.ms": ("sampling.random_points", "per_call", 1e3,
                                  "ms"),
    "expr.eval_field.us": ("expr.eval_field", "per_call", 1e6, "us"),
    "expr.eval_field.calls": ("expr.eval_field", "calls", 1, "count"),
    "web.normalize_coframe.ms_per_point": ("web.normalize_coframe",
                                           "per_point", 1e3, "ms"),
    "web.basis_invariants.ms_per_call": ("web.basis_invariants",
                                         "per_call", 1e3, "ms"),
    "connection.theta_system.ms_per_point": ("connection.theta_system",
                                             "per_point", 1e3, "ms"),
    "connection.canonical_christoffels.ms_per_point": (
        "connection.canonical_christoffels", "per_point", 1e3, "ms"),
    "connection.skew_invariant.us": ("connection.skew_invariant",
                                     "per_call", 1e6, "us"),
    "curvature.riemann.ms_per_point": ("curvature.riemann", "per_point",
                                       1e3, "ms"),
    "curvature.projective_pack.ms_per_point": ("curvature.projective_pack",
                                               "per_point", 1e3, "ms"),
    "invariants.geodesicity_test.ms_per_point": (
        "invariants.geodesicity_test", "per_point", 1e3, "ms"),
    "report.render.ms": ("report.Report.render", "per_call", 1e3, "ms"),
    "fastgamma.gamma_eval.us": ("fastgamma.gamma_eval", "per_call", 1e6,
                                "us"),
    "fastgamma.gamma_eval.calls": ("fastgamma.gamma_eval", "calls", 1,
                                   "count"),
    "geodesics.rk4_self.us_per_step": ("geodesics.integrate_geodesic",
                                       "per_step", 1e6, "us"),
    "geodesics.leaf_drift.ms": ("geodesics.leaf_drift", "per_call", 1e3,
                                "ms"),
}

PROBE_POINTS = 8        # points per web for layers the commands never call
PROBE_STEPS = 25        # RK4 steps of the probe geodesic
PROBE_H = 1e-3
KERNEL_REPEATS = 5      # median of this many timed loops per (n, order)
MUL_LOOP = 400          # jet products per timed loop
SOLVE_LOOP = 10         # linear solves per timed loop


class Tracer:
    """In-memory span recorder that wraps functions."""

    def __init__(self):
        self.spans = []       # (id, parent, name, t0, t1, cpu, thread, pts)
        self._ids = itertools.count(1)
        self._main_stack = []
        self._local = threading.local()

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        point_arg = _POINT_ARG.get(name)
        spans, ids, main_stack = self.spans, self._ids, self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = (stack[-1] if stack
                      else main_stack[-1] if main_stack else 0)
            sid = next(ids)
            stack.append(sid)
            c0 = time.thread_time_ns()
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                cpu = time.thread_time_ns() - c0
                stack.pop()
                pts = (len(args[point_arg]) if point_arg is not None
                       and len(args) > point_arg else None)
                spans.append((sid, parent, name, t0, t1, cpu,
                              threading.get_ident(), pts))
        return traced


@contextlib.contextmanager
def installed(tracer, geoweb_modules):
    """Wrap every TRACED function wherever a geoweb module binds it."""
    fastgamma, report = geoweb_modules["fastgamma"], geoweb_modules["report"]
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for mod_name, fn_name in TRACED:
        orig = getattr(geoweb_modules[mod_name], fn_name)
        wrapper = tracer.wrap("%s.%s" % (mod_name, fn_name), orig)
        for module in geoweb_modules.values():
            for attr, value in list(vars(module).items()):
                if value is orig:
                    replace(module, attr, wrapper)
    replace(report.Report, "render",
            tracer.wrap("report.Report.render", report.Report.render))
    make_evaluator = fastgamma.batched_gamma_evaluator

    def traced_evaluator(*args, **kwargs):
        return tracer.wrap("fastgamma.gamma_eval",
                           make_evaluator(*args, **kwargs))

    replace(fastgamma, "batched_gamma_evaluator", traced_evaluator)
    try:
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def self_times(spans):
    """Per span name: [calls, self CPU ns, points] over the given spans."""
    info = {s[0]: s for s in spans}
    child_cpu = {}
    for s in spans:
        parent = info.get(s[1])
        if parent is not None and parent[6] == s[6]:
            child_cpu[s[1]] = child_cpu.get(s[1], 0) + s[5]
    out = {}
    for s in spans:
        acc = out.setdefault(s[2], [0, 0, 0])
        acc[0] += 1
        acc[1] += s[5] - child_cpu.get(s[0], 0)
        acc[2] += s[7] if s[7] is not None else 1
    return out


def call_main(cli_main, argv):
    """Run the CLI in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def load_program(src):
    """Import geoweb from `src` and return its modules by short name."""
    sys.path.insert(0, src)
    import geoweb
    from geoweb import (cli, connection, curvature, expr, fastgamma,
                        geodesics, invariants, jets, report, sampling, web,
                        webfile)
    if not os.path.abspath(geoweb.__file__).startswith(src + os.sep):
        raise ImportError("geoweb imported from %s" % geoweb.__file__)
    mods = (cli, connection, curvature, expr, fastgamma, geodesics,
            invariants, jets, report, sampling, web, webfile)
    return {m.__name__.rsplit(".", 1)[1]: m for m in mods}


def probe_layers(mods, workload, seed):
    """Call every pipeline layer on the workload's webs and points."""
    import numpy as np

    for path in dict.fromkeys(inv.argv[1] for inv in workload.invocations):
        web = mods["webfile"].load_webfile(path)
        n = web.dim
        pts = mods["sampling"].random_points(web, PROBE_POINTS, seed)
        for p in pts:
            st = mods["connection"].canonical_structure(
                web, p, 4 if n == 2 else 3)
            mods["curvature"].projective_pack(st.conn)
        mods["invariants"].geodesicity_test(web, pts)
        evaluate = mods["fastgamma"].batched_gamma_evaluator(web)
        v0 = mods["geodesics"].tangent_vector(web, n + 2, web.center,
                                              np.ones(n))
        traj = mods["geodesics"].integrate_geodesic(
            evaluate, web.center, v0, PROBE_STEPS * PROBE_H, PROBE_H)
        mods["geodesics"].leaf_drift(web, n + 2, traj)


def jet_kernels(jets, pairs, seed):
    """Product and linear-solve timings through public Jet arithmetic.

    Returns (us per product, computed Mflop/s, us per solve), each the
    mean over the (n, order) pairs of the median of KERNEL_REPEATS loops.
    Flops are computed, not counted: a truncated product forms one
    multiply and one add for each of the C(2n+k, k) monomial pairs whose
    degrees sum to at most k."""
    import numpy as np

    rng = np.random.default_rng(seed)
    mul_us, solve_us, flops, mul_s = [], [], 0.0, 0.0
    for n, k in sorted(pairs):
        count = jets.n_coeffs(n, k)

        def jet():
            return jets.Jet(n, k, rng.standard_normal(count))

        a, b = jet(), jet()
        loops = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            for _ in range(MUL_LOOP):
                a * b
            loops.append((time.perf_counter() - t0) / MUL_LOOP)
        per_mul = statistics.median(loops)
        mul_us.append(per_mul * 1e6)
        flops += 2.0 * math.comb(2 * n + k, k)
        mul_s += per_mul
        # diagonally dominant, so every pivot clears the singularity floor
        A = [[jet() + (4.0 * n if i == j else 0.0) for j in range(n)]
             for i in range(n)]
        rhs = [jet() for _ in range(n)]
        loops = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            for _ in range(SOLVE_LOOP):
                jets.jet_linear_solve(A, rhs)
            loops.append((time.perf_counter() - t0) / SOLVE_LOOP)
        solve_us.append(statistics.median(loops) * 1e6)
    return (statistics.fmean(mul_us), flops / mul_s / 1e6,
            statistics.fmean(solve_us))


@dataclass
class TracedResult:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)


def run_traced(workload, seed, seconds, src, span_path):
    """Paired untraced/traced in-process passes for `seconds`, then probes."""
    mods = load_program(src)
    cli_main = mods["cli"].main
    result = TracedResult()
    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", cli_main)
    untraced_s = traced_s = 0.0
    first_stdout = {}
    rows = excluded = report_bytes = 0
    passes = 0
    start = time.perf_counter()
    pair_time = 0.0
    while passes < 1 or time.perf_counter() - start + pair_time <= seconds:
        pair_start = time.perf_counter()
        # alternate which pass goes first, so warm caches favour neither
        for traced in ((False, True) if passes % 2 == 0 else (True, False)):
            for inv in workload.invocations:
                if traced:
                    with installed(tracer, mods):
                        t0 = time.perf_counter()
                        code, out, err = call_main(traced_main, inv.argv)
                        traced_s += time.perf_counter() - t0
                    meta, header, body = workloads.parse_report(out)
                    rows += len(body)
                    excluded += workloads.count_excluded(header, body)
                    report_bytes += len(out.encode("utf-8"))
                else:
                    t0 = time.perf_counter()
                    code, out, err = call_main(cli_main, inv.argv)
                    untraced_s += time.perf_counter() - t0
                result.attempted += 1
                bad = workloads.check_output(inv, code, out, err)
                if first_stdout.setdefault(inv, out) != out:
                    bad.append("stdout differs between runs of the same argv"
                               " (traced=%s)" % traced)
                if bad:
                    result.failed += 1
                    result.problems.append("%s: %s" % (" ".join(inv.argv),
                                                       "; ".join(bad)))
        pair_time = time.perf_counter() - pair_start
        passes += 1

    replay = self_times(tracer.spans)
    probe_tracer = Tracer()
    unreached = {span for span, *_ in LAYER_METRICS.values()
                 if span not in replay}
    probe = {}
    if unreached:
        with installed(probe_tracer, mods):
            probe_layers(mods, workload, seed)
        probe = self_times(probe_tracer.spans)

    steps = {"replay": sum(inv.work for inv in workload.invocations
                           if inv.argv[0] == "geodesic") * passes,
             "probe": PROBE_STEPS * len({inv.argv[1]
                                         for inv in workload.invocations})}
    metrics = {}
    for name, (span, stat, scale, unit) in LAYER_METRICS.items():
        if stat == "calls":     # what the commands did; 0 if never called
            metrics[name] = (replay.get(span, (0,))[0] / passes, unit)
            continue
        source = "replay" if span in replay else "probe"
        calls, cpu_ns, points = (replay if source == "replay"
                                 else probe)[span]
        if stat == "per_step":
            value = cpu_ns * 1e-9 * scale / steps[source]
        else:
            value = cpu_ns * 1e-9 * scale / (
                points if stat == "per_point" else calls)
        metrics[name] = (value, unit)

    n_inv = len(workload.invocations) * passes
    main_calls, main_cpu, _ = replay["cli.main"]
    pairs = {(inv.dim, inv.order) for inv in workload.invocations}
    mul_us, mflops, solve_us = jet_kernels(mods["jets"], pairs, seed)
    metrics.update({
        "cli.main.s": (untraced_s / n_inv, "s"),
        "cli.unaccounted.ms": (main_cpu * 1e-6 / main_calls, "ms"),
        "jets.mul.us": (mul_us, "us"),
        "jets.mul.mflops": (mflops, "Mflop/s"),
        "jets.linear_solve.us": (solve_us, "us"),
        "report.bytes": (report_bytes / passes, "bytes"),
        "points.evaluated": (rows / passes, "count"),
        "points.excluded": (excluded / passes, "count"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
        "trace.probed_layers": (len(unreached), "count"),
    })
    result.metrics = metrics

    with open(span_path, "w", encoding="utf-8") as fh:
        for source, spans in (("replay", tracer.spans),
                              ("probe", probe_tracer.spans)):
            for sid, parent, name, t0, t1, cpu, thread, pts in spans:
                fh.write(json.dumps({
                    "source": source, "id": sid, "parent": parent,
                    "name": name, "start_ns": t0, "end_ns": t1,
                    "cpu_ns": cpu, "thread": thread, "points": pts}) + "\n")
    return result
