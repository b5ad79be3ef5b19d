"""Benchmark workloads: CLI invocations made from a seed, and their checks.

Each workload is a fixed list of `python -m geoweb` invocations on the web
files in `perfbench/webs/`.  The seed only reaches the program as
`--seed S` for sampled commands and as a small offset of `--from` for
`geodesic`, so the same seed gives the same argv.  Every invocation carries
the exit code and verdict fixed for its web; `check_output` holds a run to
them.  This module imports nothing from the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

WEB_DIR = "perfbench/webs"

# largest relative leaf drift `geodesic` may report on a defining foliation
MAX_DRIFT = 1e-6


@dataclass(frozen=True)
class Invocation:
    argv: Tuple[str, ...]       # arguments after `python -m geoweb`
    exit_code: int              # expected exit code
    verdict: Optional[str]      # expected `# verdict=`, None if none printed
    work: int                   # sample points, or RK4 steps for geodesic
    dim: int                    # web dimension n
    order: int                  # jet order the command expands the web to


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str                   # what `Invocation.work` counts
    invocations: Tuple[Invocation, ...]


def _web(name):
    return "%s/%s.json" % (WEB_DIR, name)


def _sample(cmd, web, dim, count, seed, exit_code, verdict):
    # linearize expands to order 4 at n = 2 and order 3 otherwise;
    # check and invariants stop at order 2
    order = (4 if dim == 2 else 3) if cmd == "linearize" else 2
    return Invocation((cmd, _web(web), "--random", str(count),
                       "--seed", str(seed)),
                      exit_code, verdict, count, dim, order)


def _geodesic(web, dim, start, offset, leaf, direction, T, h):
    x0 = ",".join("%.6f" % (s + o) for s, o in zip(start, offset))
    argv = ("geodesic", _web(web), "--from", x0, "--leaf", str(leaf))
    if direction is not None:
        argv += ("--dir", direction)
    argv += ("--T", repr(T), "--h", repr(h))
    return Invocation(argv, 0, None, int(round(T / h)), dim, 2)


def _linearize_n2(seed, rng):
    # lin5 also runs the geodesicity pre-pass, since it has 5 > n + 2 leaves
    return (_sample("linearize", "curved4", 2, 200, seed, 2,
                    "not_linearizable"),
            _sample("linearize", "xy4", 2, 200, seed, 0, "linearizable"),
            _sample("linearize", "lin5", 2, 200, seed, 0, "linearizable"))


def _linearize_n3(seed, rng):
    return (_sample("linearize", "mixed3", 3, 70, seed, 2,
                    "not_linearizable"),
            _sample("linearize", "web4", 4, 20, seed, 2,
                    "not_linearizable"))


def _scan_order2(seed, rng):
    # `invariants` on lin5 is left out: it runs the same code as on sin6
    return (_sample("check", "lin5", 2, 250, seed, 0, "geodesic"),
            _sample("check", "sin6", 2, 250, seed, 2, "not_geodesic"),
            _sample("invariants", "sin6", 2, 250, seed, 0, None),
            _sample("check", "cubic6", 3, 100, seed, 2, "not_geodesic"),
            _sample("invariants", "cubic6", 3, 100, seed, 0, None))


def _geodesics(seed, rng):
    def offset(n):
        return [rng.uniform(-0.03, 0.03) for _ in range(n)]
    # xy4 runs along leaf 4 (the all-ones default direction is normal to
    # leaf 3, which exits 1); mixed3 leaves the admissible set near
    # t = 0.46 at unit speed, so its horizon stays at 0.3
    return (_geodesic("xy4", 2, (0.1, 0.05), offset(2), 4, "1,0", 1.0, 0.002),
            _geodesic("mixed3", 3, (0.05, 0.05, 0.05), offset(3), 5, None,
                      0.3, 0.001),
            _geodesic("web4", 4, (0.05, 0.05, 0.05, 0.05), offset(4), 6, None,
                      0.3, 0.001))


_BUILDERS = {
    "linearize-n2": ("points", _linearize_n2),
    "linearize-n3": ("points", _linearize_n3),
    "scan-order2": ("points", _scan_order2),
    "geodesic": ("rk4_steps", _geodesics),
}

NAMES = tuple(_BUILDERS)


def build(name: str, seed: int) -> Workload:
    """The workload's invocations for this seed; same seed, same argv."""
    unit, builder = _BUILDERS[name]
    return Workload(name, unit, builder(seed, random.Random(seed)))


def parse_report(stdout: str):
    """Split a CSV report into its `# key=value` preamble and data rows."""
    meta, rows, header = {}, [], None
    for line in stdout.splitlines():
        if header is None and line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line)
    return meta, header or [], rows


def check_output(inv: Invocation, exit_code: int, stdout: str,
                 stderr: str):
    """Problems with one invocation's result; an empty list means correct."""
    problems = []
    if exit_code != inv.exit_code:
        problems.append("exit %d, expected %d" % (exit_code, inv.exit_code))
    if stderr:
        problems.append("stderr: %s" % stderr.strip()[:200])
    meta, header, rows = parse_report(stdout)
    if meta.get("verdict") != inv.verdict:
        problems.append("verdict %r, expected %r"
                        % (meta.get("verdict"), inv.verdict))
    if inv.argv[0] == "geodesic":
        if meta.get("steps") != str(inv.work):
            problems.append("%s steps, expected %d"
                            % (meta.get("steps"), inv.work))
        try:
            drift = float(meta.get("drift", "nan"))
        except ValueError:
            drift = float("nan")
        if not drift <= MAX_DRIFT:
            problems.append("leaf drift %r above %g"
                            % (meta.get("drift"), MAX_DRIFT))
        return problems
    if len(rows) != inv.work:
        problems.append("%d rows, expected %d" % (len(rows), inv.work))
    if "excluded_fraction" in meta and meta["excluded_fraction"] != "0":
        problems.append("excluded_fraction=%s" % meta["excluded_fraction"])
    excluded = count_excluded(header, rows)
    if excluded:
        problems.append("%d excluded rows" % excluded)
    return problems


def count_excluded(header, rows) -> int:
    """Rows whose status column is not `ok` (sample reports only)."""
    if "status" not in header:
        return 0
    col = header.index("status")
    # status precedes any quoted detail text, so a plain split finds it
    return sum(1 for row in rows if row.split(",")[col] != "ok")
