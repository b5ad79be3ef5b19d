#!/usr/bin/env python3
"""geoweb benchmark: fresh-process CLI workloads and a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With `--trace 0` the benchmark is a closed loop with one client: each
invocation is a fresh `python -m geoweb` process, started only after the
previous one has exited, on the workload's web files (see workloads.py).
It repeats whole passes over the workload's invocations for `--seconds`
(at least two passes, so every argv is run twice and its stdout compared)
and reports the end-to-end metrics (see `end_to_end_metrics`).  Every
invocation is bracketed by runs of a fixed reference process that does not
touch the program, and its wall time is reported in units of theirs.  With
`--trace 1` it replays the same invocations in-process through
`geoweb.cli.main` with spans around the calls into each module and reports
per-layer metrics (see spans.py).

The program comes from `src/` of the checkout (PYTHONPATH), never from an
installed copy; without it the benchmark exits 2 and prints no result.
The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are a readable
summary, and `.perfbench_out/` receives the environment record, the
per-invocation samples and the span file.

This process starts no threads of its own and does not import numpy in
`--trace 0` mode, so the load generator stays out of the measured
processes' way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

MIN_PASSES = 2          # every argv runs at least twice: determinism check
SETUP_FIRST = 3         # `--version` processes timed before the first pass;
                        # one more follows every pass
IMPORT_RUNS = 5         # fresh processes timing the two imports

_IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import geoweb.cli\n"
    "t2 = time.perf_counter()\n"
    "print(repr(t1 - t0), repr(t2 - t1))\n")

# The reference process: interpreter start-up, the numpy import and a loop
# of small-array products like the jet kernel's, the kinds of work the
# program does, with no geoweb code.  This machine's speed swings up to
# 1.6x in periods of seconds to minutes: over 30 s runs the median wall
# time spread 11-42% between runs (IQR over median, 10 seeds), while its
# ratio to the reference runs that bracket each invocation spread 2-10%.
_REFERENCE = (
    "import argparse, concurrent.futures, hashlib, json\n"
    "import numpy as np\n"
    "ia = np.array([0, 0, 1, 0, 2, 1, 0, 3, 1, 2, 4, 5, 0, 1, 2, 3, 4, 5,"
    " 6, 7, 8, 9], dtype=np.int32)\n"
    "ib = ia[::-1].copy()\n"
    "io = np.sort(ia)\n"
    "a = np.linspace(0.1, 1.0, 10)\n"
    "b = np.linspace(1.0, 2.0, 10)\n"
    "held = []\n"
    "for i in range(25000):\n"
    "    c = np.zeros(10)\n"
    "    np.add.at(c, io, a[ia] * b[ib])\n"
    "    held.append((float(c[0]), i))\n"
    "    if len(held) > 64:\n"
    "        held.clear()\n")

_ENV_PROBE = (
    "import numpy, geoweb\n"
    "from geoweb import jets\n"
    "print(numpy.__version__, jets.backend_name(), geoweb.__file__)\n")


class SetupError(Exception):
    """The program cannot be run from this checkout."""


def program_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def spawn(args, env):
    """Run `python ARGS` to completion: (exit code, wall s, peak RSS KiB,
    stdout, stderr).  Output goes through files, so no thread or pipe
    pump is needed; the child is reaped with wait4 for its rusage."""
    out_path = os.path.join(OUT_DIR, "child.stdout")
    err_path = os.path.join(OUT_DIR, "child.stderr")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable] + list(args), env,
                         file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with open(out_path, encoding="utf-8", newline="") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", newline="") as fh:
        stderr = fh.read()
    return (os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss,
            stdout, stderr)


def require_program(env):
    """Fail unless `python -m geoweb` runs from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "geoweb", "__init__.py")):
        raise SetupError("no geoweb sources under %s" % SRC)
    code, _, _, out, err = spawn(["-c", _ENV_PROBE], env)
    if code != 0:
        raise SetupError("cannot import geoweb: %s" % err.strip()[-300:])
    numpy_version, backend, path = out.split(maxsplit=2)
    if not os.path.abspath(path.strip()).startswith(SRC + os.sep):
        raise SetupError("geoweb imported from %s, not from %s"
                         % (path.strip(), SRC))
    return numpy_version, backend


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(numpy_version, backend):
    """What a result depends on besides the code: recorded with each run."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "jets_backend": backend,
        "GEOWEB_THREADS": os.environ.get("GEOWEB_THREADS", "<unset>"),
        "GEOWEB_JET_BACKEND": os.environ.get("GEOWEB_JET_BACKEND",
                                             "<unset>"),
    }


def setup_time(env):
    """Wall time of a fresh process until the CLI is ready (--version)."""
    code, wall, _, out, err = spawn(["-m", "geoweb", "--version"], env)
    if code != 0 or not out.startswith("geoweb "):
        raise SetupError("`geoweb --version` failed: %s"
                         % (err.strip() or out.strip())[-300:])
    return wall


def reference_time(env):
    """Wall time of one run of the reference process."""
    code, wall, _, _, err = spawn(["-c", _REFERENCE], env)
    if code != 0:
        raise SetupError("reference process failed: %s" % err.strip()[-300:])
    return wall


def run_closed_loop(workload, seconds, env):
    """Whole passes of fresh-process invocations until `seconds` is spent.

    Each invocation's sample is (wall s, wall over the mean of the
    reference runs just before and just after it, peak RSS KiB).  Set-up
    is timed a few times first and once after every pass, so its median
    samples the whole run and not one moment of machine speed."""
    setup_time(env)              # writes the bytecode caches; not timed
    reference_time(env)
    setup_times = [setup_time(env) for _ in range(SETUP_FIRST)]
    ref_before = reference_time(env)
    samples = {inv: [] for inv in workload.invocations}
    first_stdout = {}
    attempted = failed = 0
    problems = []
    start = time.perf_counter()
    passes, pass_time = 0, 0.0
    while passes < MIN_PASSES or \
            time.perf_counter() - start + pass_time <= seconds:
        pass_start = time.perf_counter()
        for inv in workload.invocations:
            code, wall, rss, out, err = spawn(["-m", "geoweb", *inv.argv],
                                              env)
            ref_after = reference_time(env)
            attempted += 1
            bad = workloads.check_output(inv, code, out, err)
            if first_stdout.setdefault(inv, out) != out:
                bad.append("stdout differs between runs of the same argv")
            if bad:
                failed += 1
                problems.append("%s: %s" % (" ".join(inv.argv),
                                            "; ".join(bad)))
            samples[inv].append((wall, 2 * wall / (ref_before + ref_after),
                                 rss))
            ref_before = ref_after
        pass_time = time.perf_counter() - pass_start
        passes += 1
        setup_times.append(setup_time(env))
    return setup_times, samples, attempted, failed, problems, passes


def _command_medians(samples, field):
    return [statistics.median(x[field] for x in s) for s in samples.values()]


def end_to_end_metrics(setup_times, samples):
    """The gated metrics of one run, and the same timings in seconds.

    Each command's invocations are reduced to their median first, then
    averaged over the workload's commands, so every command weighs the
    same in every run however many passes fit; a median over the pooled
    invocations would jump between commands of different length.
    wall_ref.p50 is that mean in reference-process units; work_per_ref is
    the work of one pass over the summed command medians.  wall_s.p50 and
    work_per_s are the same in seconds: printed and recorded, not gated."""
    wall_s, wall_ref, rss = (_command_medians(samples, i) for i in range(3))
    work = sum(inv.work for inv in samples)
    gated = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_ref.p50": (statistics.fmean(wall_ref), "ref"),
        "work_per_ref": (work / sum(wall_ref), "1/ref"),
        "peak_rss_mb": (statistics.fmean(rss) / 1024.0, "MB"),
    }
    seconds = {
        "wall_s.p50": (statistics.fmean(wall_s), "s"),
        "work_per_s": (work / sum(wall_s), "1/s"),
    }
    return gated, seconds


def import_times(env):
    """Medians of the numpy and geoweb.cli import times in fresh processes."""
    numpy_s, geoweb_s = [], []
    for _ in range(IMPORT_RUNS):
        code, _, _, out, err = spawn(["-c", _IMPORT_PROBE], env)
        if code != 0:
            raise SetupError("import probe failed: %s" % err.strip()[-300:])
        a, b = out.split()
        numpy_s.append(float(a))
        geoweb_s.append(float(b))
    return statistics.median(numpy_s), statistics.median(geoweb_s)


def write_json(name, payload):
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run(args):
    env = program_env()
    numpy_version, backend = require_program(env)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(numpy_version, backend)}
    workload = workloads.build(args.workload, args.seed)
    print("# environment %s" % json.dumps(record["environment"],
                                          sort_keys=True))
    if args.trace:
        import spans              # imports numpy and the program

        numpy_s, geoweb_s = import_times(env)
        result = spans.run_traced(workload, args.seed, args.seconds, SRC,
                                  os.path.join(OUT_DIR, "spans-%s-%d.jsonl"
                                               % (args.workload, args.seed)))
        metrics = {"setup.import_numpy_s": (numpy_s, "s"),
                   "setup.import_geoweb_s": (geoweb_s, "s"),
                   **result.metrics}
        attempted, failed, problems = (result.attempted, result.failed,
                                       result.problems)
        print("# workload %s: traced in-process run" % workload.name)
        for name, (value, unit) in metrics.items():
            print("#   %-46s %12.6g %s" % (name, value, unit))
    else:
        (setup_times, samples, attempted, failed, problems,
         passes) = run_closed_loop(workload, args.seconds, env)
        metrics, seconds = end_to_end_metrics(setup_times, samples)
        record["setup_samples_s"] = setup_times
        record["passes"] = passes
        record["seconds_metrics"] = {k: {"value": v, "unit": u}
                                     for k, (v, u) in seconds.items()}
        record["invocations"] = [
            {"argv": list(inv.argv), "work": inv.work,
             "wall_s": [x[0] for x in s], "wall_ref": [x[1] for x in s],
             "peak_rss_kib": [x[2] for x in s]}
            for inv, s in samples.items()]
        summarize(workload, {**metrics, **seconds}, samples, setup_times,
                  attempted, failed, passes)
    for line in problems[:20]:
        print("perfbench: FAILED %s" % line, file=sys.stderr)
    record.update(attempted=attempted, failed=failed, problems=problems,
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()})
    write_json("result-%s-%d-trace%d.json"
               % (args.workload, args.seed, args.trace), record)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": record["metrics"]}


def summarize(workload, metrics, samples, setup_times, attempted, failed,
              passes):
    """Readable table; names the throughput by the workload's unit."""
    n_inv = sum(len(s) for s in samples.values())
    print("# workload %s: %d commands x %d passes"
          % (workload.name, len(samples), passes))
    for name, (value, unit) in metrics.items():
        label = name.replace("work_", workload.unit + "_")
        count = len(setup_times) if name == "setup_s" else n_inv
        print("#   %-18s %12.6g %-5s (n=%d)" % (label, value, unit, count))
    print("#   %-18s %12.6g       (%d of %d)"
          % ("failed_frac", failed / attempted, failed, attempted))
    for inv, s in samples.items():
        print("#   %-50s median %.3f s  %.3f ref  (n=%d)"
              % (" ".join(inv.argv[:2]), statistics.median(x[0] for x in s),
                 statistics.median(x[1] for x in s), len(s)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        result = run(args)
    except SetupError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
