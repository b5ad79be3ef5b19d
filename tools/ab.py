"""Same-process A/B timing of two checkouts of geoweb.

    python tools/ab.py PARENT_ROOT CHANGE_ROOT

Loads `src/geoweb` of each root under its own package name in this one
process (the package imports itself only relatively), and the parent a
second time as the control.  It first checks that both sides give the
same bits: `batched_gamma_evaluator` on seeded batches of 2, 64 and 512
rows, and each RK4 run of the benchmark's `geodesic` workload at seed 1
(the start tangent, every state and velocity, the leaf drift and the
`geodesic` report).  Where any differs it prints what and exits 1.

It then times interleaved rounds of every target: one evaluator call at 2,
64 and 512 rows, `integrate_geodesic` on each run, and `cli.main` on each
invocation.  Within a round the side that goes first alternates, and so
it does in the parent-against-parent control.  For each target it prints
the best-of times of the parent and the change, the median of the
per-round ratios change / parent, and the control's median ratio, whose
distance from 1 shows the noise of the host.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import importlib.util
import io
import os
import statistics
import sys
import time

import numpy as np

import same_bytes

ROUNDS = 11
SEED = 1
BATCHES = (2, 64, 512)
# evaluator calls per timed loop, by batch rows
CALLS = {2: 200, 64: 50, 512: 10}
MODULES = ("cli", "fastgamma", "geodesics", "webfile")

sys.dont_write_bytecode = True      # leave both trees as they are


def load_package(root, name):
    """Import `root`/src/geoweb as the package `name`: its modules by
    short name."""
    for key in [k for k in sys.modules
                if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    path = os.path.join(os.path.abspath(root), "src", "geoweb")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"),
        submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {m: importlib.import_module("%s.%s" % (name, m)) for m in MODULES}


def geodesic_runs(change):
    """The `geodesic` workload's invocations at SEED, read from CHANGE:
    (label, argv) pairs, the web path relative to the root."""
    invs = same_bytes.benchmark_invocations(change)
    prefix = "geodesic/%d/" % SEED
    return [(os.path.basename(argv[1])[:-len(".json")], argv)
            for key, argv in invs.items() if key.startswith(prefix)]


class Side:
    """One checkout's targets, built once: the webs, seeded batches and
    the RK4 runs' starts, each from the checkout's own modules."""

    def __init__(self, mods, root, runs):
        self.mods = mods
        fg, geo = mods["fastgamma"], mods["geodesics"]
        self.cases = {}
        for label, argv in runs:
            opts = dict(zip(argv[2::2], argv[3::2]))
            web = mods["webfile"].load_webfile(os.path.join(root, argv[1]))
            n = web.dim
            leaf = int(opts["--leaf"])
            x0 = np.array(opts["--from"].split(","), dtype=float)
            direction = (np.ones(n) if "--dir" not in opts
                         else np.array(opts["--dir"].split(","), dtype=float))
            # the same seeded points on both sides, within a tenth of the
            # domain radius of the center
            rng = np.random.default_rng(SEED)
            batches = {rows: web.center + 0.1 * web.radius
                       * rng.uniform(-1, 1, (rows, n)) for rows in BATCHES}
            self.cases[label] = dict(
                web=web, leaf=leaf, x0=x0,
                v0=geo.tangent_vector(web, leaf, x0, direction),
                T=float(opts["--T"]), h=float(opts["--h"]),
                gamma=fg.batched_gamma_evaluator(web), batches=batches,
                argv=(argv[0], os.path.join(root, argv[1])) + tuple(argv[2:]))

    def evaluate(self, label, rows):
        case = self.cases[label]
        return case["gamma"](case["batches"][rows])

    def integrate(self, label):
        c = self.cases[label]
        return self.mods["geodesics"].integrate_geodesic(
            c["gamma"], c["x0"], c["v0"], c["T"], c["h"])

    def report(self, label):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.mods["cli"].main(list(self.cases[label]["argv"]))
        return code, out.getvalue()

    def fingerprint(self, label):
        """Every array and text the equal-bits check compares."""
        c = self.cases[label]
        traj = self.integrate(label)
        drift = self.mods["geodesics"].leaf_drift(c["web"], c["leaf"], traj)
        out = {"gamma rows %d" % rows: self.evaluate(label, rows).tobytes()
               for rows in BATCHES}
        out.update({"tangent": c["v0"].tobytes(),
                    "states": traj.states.tobytes(),
                    "velocities": traj.velocities.tobytes(),
                    "drift": np.float64(drift).tobytes()})
        code, text = self.report(label)
        # the report names its input by basename and digest, which the two
        # roots' copies of a benchmark web share
        out["report"] = (code, text)
        return out


def differences(parent, change):
    """(label, item) for every compared item whose bits differ."""
    out = []
    for label in change.cases:
        a, b = parent.fingerprint(label), change.fingerprint(label)
        out.extend((label, k) for k in a if a[k] != b[k])
    return out


def targets(side):
    """Target name -> (one timed loop, the calls it makes)."""
    out = {}
    for label in side.cases:
        for rows in BATCHES:
            def loop(label=label, rows=rows, k=CALLS[rows]):
                for _ in range(k):
                    side.evaluate(label, rows)
            out["gamma %s rows %d" % (label, rows)] = (loop, CALLS[rows])
        out["rk4 %s" % label] = (lambda label=label: side.integrate(label), 1)
        out["cli %s" % label] = (lambda label=label: side.report(label), 1)
    return out


def _time(fn, per):
    gc.collect()
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) / per


def interleave(a, b, rounds):
    """Per target: (a's times, b's times) over `rounds` rounds, with the
    side that goes first alternating from round to round."""
    ta, tb = targets(a), targets(b)
    times = {name: ([], []) for name in ta}
    for r in range(rounds):
        for name in ta:
            order = ((0, ta), (1, tb)) if r % 2 == 0 else ((1, tb), (0, ta))
            for k, side in order:
                times[name][k].append(_time(*side[name]))
    return times


def summary(times):
    """Per target: (best of a, best of b, median of b / a per round)."""
    return {name: (min(ta), min(tb),
                   statistics.median(y / x for x, y in zip(ta, tb)))
            for name, (ta, tb) in times.items()}


def compare(parent_root, change_root, rounds=ROUNDS):
    """The equal-bits check, then the timed rounds: (differences, rows),
    rows as (target, parent ms, change ms, ratio, control ratio), no rows
    when any bit differs."""
    runs = geodesic_runs(change_root)
    parent = Side(load_package(parent_root, "_ab_parent"), parent_root, runs)
    change = Side(load_package(change_root, "_ab_change"), change_root, runs)
    diffs = differences(parent, change)
    if diffs:
        return diffs, []
    control = Side(load_package(parent_root, "_ab_control"), parent_root,
                   runs)
    main = summary(interleave(parent, change, rounds))
    ctrl = summary(interleave(parent, control, rounds))
    return [], [(name, p * 1e3, c * 1e3, ratio, ctrl[name][2])
                for name, (p, c, ratio) in main.items()]


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 2:
        sys.stderr.write("usage: ab.py PARENT_ROOT CHANGE_ROOT\n")
        return 1
    diffs, rows = compare(*args)
    for label, item in diffs:
        print("differs: %s %s" % (label, item))
    if diffs:
        print("%d items differ; no timing" % len(diffs))
        return 1
    print("equal bits; %d rounds, best-of ms and median ratio change / "
          "parent" % ROUNDS)
    print("%-20s %10s %10s %7s %8s" % ("target", "parent", "change", "ratio",
                                       "control"))
    for name, p, c, ratio, ctrl in rows:
        print("%-20s %10.4f %10.4f %7.3f %8.3f" % (name, p, c, ratio, ctrl))
    return 0


if __name__ == "__main__":
    sys.exit(main())
