"""Check that two checkouts of geoweb print the same bytes.

    python tools/same_bytes.py PARENT_ROOT CHANGE_ROOT

Runs every `tests/test_golden.CASES` entry and every benchmark invocation
of `perfbench/workloads` at seeds 1 and 2 as a fresh `python -m geoweb`
process in each root, with that root as working directory and its `src`
first on PYTHONPATH, and compares exit code, stdout and stderr.  The
invocations are read from CHANGE_ROOT; web paths are relative to the root,
so each side reads its own copy.  Prints one line per difference and a
summary; exits 1 when any invocation differs, 0 otherwise.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

SEEDS = (1, 2)
WORKERS = 2


def _module(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod     # dataclasses look their module up there
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[name]
    return mod


def golden_invocations(root):
    """Case name -> argv after `python -m geoweb`, from test_golden.CASES,
    with web paths relative to `root`."""
    tests = os.path.join(root, "tests")
    sys.path[:0] = [os.path.join(root, "src"), tests]
    try:
        golden = _module(os.path.join(tests, "test_golden.py"),
                         "_same_bytes_golden")
    finally:
        del sys.path[:2]
    top = os.path.realpath(root)
    return {name: (command,
                   os.path.relpath(os.path.realpath(path), top), *args)
            for name, (command, path, args, _) in sorted(golden.CASES.items())}


def benchmark_invocations(root):
    """'<workload>/<seed>/<k>' -> argv of every benchmark invocation."""
    workloads = _module(os.path.join(root, "perfbench", "workloads.py"),
                        "_same_bytes_workloads")
    out = {}
    for name in workloads.NAMES:
        for seed in SEEDS:
            for k, inv in enumerate(workloads.build(name, seed).invocations):
                out["%s/%d/%d" % (name, seed, k)] = inv.argv
    return out


def run(root, argv):
    """(exit code, stdout, stderr) of `python -m geoweb argv` in root."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    done = subprocess.run([sys.executable, "-m", "geoweb", *argv],
                          cwd=root, env=env, capture_output=True)
    return done.returncode, done.stdout, done.stderr


def differences(parent, change, invocations):
    """The names of the invocations whose results differ between the two
    roots, each with the parts (exit, stdout, stderr) that differ."""
    names = list(invocations)
    with ThreadPoolExecutor(WORKERS) as pool:
        results = {root: list(pool.map(lambda n: run(root, invocations[n]),
                                       names))
                   for root in (parent, change)}
    out = []
    for name, a, b in zip(names, results[parent], results[change]):
        parts = [part for part, x, y in zip(("exit", "stdout", "stderr"),
                                            a, b) if x != y]
        if parts:
            out.append((name, parts))
    return out


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 2:
        sys.stderr.write("usage: same_bytes.py PARENT_ROOT CHANGE_ROOT\n")
        return 1
    parent, change = args
    invocations = {**golden_invocations(change),
                   **benchmark_invocations(change)}
    diffs = differences(parent, change, invocations)
    for name, parts in diffs:
        print("differs: %s (%s): %s" % (name, " ".join(invocations[name]),
                                        ", ".join(parts)))
    print("%d of %d invocations differ" % (len(diffs), len(invocations)))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
