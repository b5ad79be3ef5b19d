"""Command-line front end.

Subcommands:
  check       geodesicity verdict over a point sample
  connection  canonical connection data at a single point
  linearize   linearizability verdict over a point sample
  geodesic    integrate one geodesic and report leaf drift
  invariants  per-point table of basis-invariant classes and skew invariants

Exit codes: 0 affirmative verdict (or plain success), 2 negative verdict,
3 inconclusive, 1 input or runtime error.  Reports are deterministic:
identical inputs, flags and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import re
import sys

import numpy as np

# every command imports the modules only it runs, so a process loads and
# compiles no more of the package than its command needs
from . import __version__, webfile
from .errors import (DegenerateWebPoint, ExpressionError, GeowebError,
                     StepTooLarge, WebFileError)
from .report import Report, write_report
from .web import basis_invariants, pointed_order, reorder_chart

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2
EXIT_INCONCLUSIVE = 3

_VERDICT_EXIT = {
    "geodesic": EXIT_OK,
    "linearizable": EXIT_OK,
    "not_geodesic": EXIT_NEGATIVE,
    "not_linearizable": EXIT_NEGATIVE,
    "inconclusive": EXIT_INCONCLUSIVE,
}


class CLIError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIError(message)


# argparse reads an argument that starts with "-" as an option unless it is
# a lone number, so "--from -1,0.05" would miss its value
_COORD_FLAGS = ("--at", "--from", "--dir")
_NEGATIVE = re.compile(r"-\.?\d")


def _attach_coords(argv):
    """Write `--from -1,0.05` as `--from=-1,0.05` for each coordinate flag
    and each abbreviation of one (`--fr`), which argparse also accepts."""
    out = []
    for arg in argv:
        flag = out[-1] if out else ""
        if len(flag) > 2 and any(f.startswith(flag) for f in _COORD_FLAGS) \
                and _NEGATIVE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _parse_coords(text: str, n: int, flag: str) -> np.ndarray:
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise CLIError("%s expects numbers, got %r" % (flag, text))
    if len(vals) != n:
        raise CLIError("%s expects %d coordinates, got %d"
                       % (flag, n, len(vals)))
    return np.array(vals)


def _add_common(sub, sample=True):
    sub.add_argument("webfile", help="path to a JSON web file")
    sub.add_argument("--out", default=None, help="write the report here "
                     "instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    if sample:
        g = sub.add_mutually_exclusive_group()
        g.add_argument("--grid", type=int, default=None, metavar="K",
                       help="K^n lattice in the domain ball (default 3)")
        g.add_argument("--random", type=int, default=None, metavar="N",
                       help="N seeded uniform points in the domain ball")
        sub.add_argument("--seed", type=int, default=0,
                         help="PRNG seed for --random (default 0)")


def build_parser() -> _Parser:
    p = _Parser(prog="geoweb", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version",
                   version="geoweb %s" % __version__)
    subs = p.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser(
        "check", help="test whether the web is geodesic"))
    c = subs.add_parser("connection",
                        help="canonical connection at a point")
    _add_common(c, sample=False)
    c.add_argument("--at", required=True, metavar="COORDS",
                   help="evaluation point, e.g. '0.1,-0.2'")
    c.add_argument("--gauge", choices=("zero", "pointed"), default="zero")
    _add_common(subs.add_parser(
        "linearize", help="test local linearizability"))
    g = subs.add_parser("geodesic", help="integrate one geodesic")
    _add_common(g, sample=False)
    g.add_argument("--from", dest="start", required=True, metavar="COORDS")
    g.add_argument("--leaf", type=int, required=True, metavar="I",
                   help="1-based foliation index; the start velocity is "
                   "projected tangent to its leaf")
    g.add_argument("--dir", default=None, metavar="COORDS",
                   help="direction before projection (default all-ones)")
    g.add_argument("--T", type=float, default=1.0, help="time horizon")
    g.add_argument("--h", type=float, default=1e-3, help="RK4 step")
    _add_common(subs.add_parser(
        "invariants", help="table of basis and skew invariants"))
    return p


def _sample(web, args):
    from . import sampling

    if args.random is not None:
        pts = sampling.random_points(web, args.random, args.seed)
        meta = {"sampling": "random", "count": args.random,
                "seed": args.seed}
    else:
        k = args.grid if args.grid is not None else 3
        pts = sampling.grid_points(web, k)
        meta = {"sampling": "grid", "grid": k, "count": len(pts)}
    return pts, meta


def _base_meta(args, web):
    return {
        "tool": "geoweb",
        "version": __version__,
        "input": os.path.basename(args.webfile),
        "sha256": web.digest,
        "dimension": web.dim,
        "functions": web.d,
    }


def _point_columns(web):
    return ["x%d" % (a + 1) for a in range(web.dim)]


def _emit(args, out: Report) -> None:
    """Write the report to --out, or to stdout without one."""
    text = write_report(out, args.format, args.out)
    if args.out is None:
        sys.stdout.write(text)


def _verdict_report(args, web, command, rep, value, meta) -> int:
    """Emit a sample test's report, one row per point with its `value`."""
    meta = {**_base_meta(args, web), **meta, "max_" + value: rep.max_value,
            "excluded_fraction": rep.excluded_fraction}
    rows = [[r.index] + [float(x) for x in r.point]
            + [r.status, float(r.value) if r.status == "ok" else "",
               float(r.scale) if r.status == "ok" else "", r.detail]
            for r in rep.rows]
    _emit(args, Report(command, meta, ["index"] + _point_columns(web)
                       + ["status", value, "scale", "detail"],
                       rows, rep.verdict, list(rep.notes)))
    return _VERDICT_EXIT[rep.verdict]


def _cmd_check(args) -> int:
    from . import invariants

    web = webfile.load_webfile(args.webfile)
    pts, smeta = _sample(web, args)
    return _verdict_report(args, web, "check",
                           invariants.geodesicity_test(web, pts),
                           "discrepancy", smeta)


def _cmd_linearize(args) -> int:
    from . import curvature

    web = webfile.load_webfile(args.webfile)
    pts, smeta = _sample(web, args)
    smeta["obstruction"] = "cotton" if web.dim == 2 else "weyl"
    return _verdict_report(args, web, "linearize",
                           curvature.linearizability_verdict(web, pts),
                           "obstruction", smeta)


# huge jets may overflow in terms no printed value reads, as on a sample
@np.errstate(over="ignore", invalid="ignore")
def _cmd_connection(args) -> int:
    from . import connection

    web = webfile.load_webfile(args.webfile)
    point = _parse_coords(args.at, web.dim, "--at")
    # the chart's foliations by slot, labelled with the file's indices
    index = (pointed_order(web) if args.gauge == "pointed"
             else list(range(1, web.d + 1)))
    work = reorder_chart(web, index)
    struct = connection.canonical_structure(work, point)
    rows = []
    for k in range(web.dim + 2, work.d + 1):
        inv = basis_invariants(struct.cof, work, k)
        for section, values in (("a", inv.a.value),
                                ("a_class", inv.projective_class())):
            rows.extend([section, index[k - 1], i + 1, "", float(v)]
                        for i, v in enumerate(values))
    for section, values in (("theta", struct.theta.theta.value),
                            ("frame_gamma", struct.conn.frame_gamma.value),
                            ("coord_gamma", struct.conn.gamma_values())):
        for idx, v in np.ndenumerate(values):
            rows.append([section] + [""] * (3 - len(idx))
                        + [i + 1 for i in idx] + [float(v)])
    bad = next((r[0] for r in rows if not math.isfinite(r[-1])), None)
    if bad is not None:
        raise DegenerateWebPoint("non-finite %s value at %s"
                                 % (bad, np.array2string(point)))
    meta = {**_base_meta(args, web),
            "point": ",".join("%.17g" % x for x in point),
            "gauge": args.gauge}
    out = Report("connection", meta,
                 ["section", "k", "i", "j", "value"], rows)
    _emit(args, out)
    return EXIT_OK


def _cmd_geodesic(args) -> int:
    from . import fastgamma, geodesics

    web = webfile.load_webfile(args.webfile)
    n = web.dim
    x0 = _parse_coords(args.start, n, "--from")
    if not 1 <= args.leaf <= web.d:
        raise CLIError("--leaf must be in 1..%d" % web.d)
    direction = (np.ones(n) if args.dir is None
                 else _parse_coords(args.dir, n, "--dir"))
    v0 = geodesics.tangent_vector(web, args.leaf, x0, direction)
    gamma = fastgamma.batched_gamma_evaluator(web)
    traj = geodesics.integrate_geodesic(gamma, x0, v0, args.T, args.h)
    drift = geodesics.leaf_drift(web, args.leaf, traj)
    values = [fastgamma.batched_values(tree, traj.states)
              for tree in web.functions]
    names = (web.labels if web.labels is not None
             else ["f%d" % (k + 1) for k in range(web.d)])
    rows = np.column_stack((traj.times, traj.states, *values)).tolist()
    meta = {**_base_meta(args, web),
            "from": ",".join("%.17g" % x for x in x0),
            "leaf": args.leaf,
            "tangent": ",".join("%.17g" % x for x in v0),
            "T": args.T, "h": traj.step, "steps": len(traj.times) - 1,
            "drift": drift}
    out = Report("geodesic", meta,
                 ["t"] + _point_columns(web) + list(names), rows)
    _emit(args, out)
    return EXIT_OK


def invariant_rows(web, points):
    """Rows of the `invariants` table: index, point, status, the projective
    classes and skew invariants of every extra foliation, detail.  The
    sample runs as one batch (see `invariants.map_sample`)."""
    from . import invariants

    n = web.dim
    extras = web.d - n - 1
    pad = extras * n + extras * (n * (n - 1)) // 2

    def measure(X):
        found = invariants.extra_foliations(web, X)
        body = []
        for inv, _ in found:
            body.extend(np.moveaxis(inv.projective_class(), -1, 0))
        for _, smat in found:
            body.extend(smat[..., i, j] for i in range(n)
                        for j in range(i + 1, n))
        return body

    rows = []
    for idx, (res, detail) in enumerate(invariants.checked_results(
            measure, points, 2, itertools.repeat("invariant"))):
        rows.append([idx] + [float(x) for x in points[idx]]
                    + (["degenerate"] + [""] * pad if res is None
                       else ["ok"] + res) + [detail])
    return rows


def _cmd_invariants(args) -> int:
    web = webfile.load_webfile(args.webfile)
    pts, smeta = _sample(web, args)
    n = web.dim
    extras = range(n + 2, web.d + 1)
    cols = ["index"] + _point_columns(web) + ["status"]
    for k in extras:
        cols.extend("a%d_%d" % (k, i + 1) for i in range(n))
    for k in extras:
        cols.extend("s%d_%d%d" % (k, i + 1, j + 1)
                    for i in range(n) for j in range(i + 1, n))
    cols.append("detail")
    rows = invariant_rows(web, pts)
    meta = {**_base_meta(args, web), **smeta}
    out = Report("invariants", meta, cols, rows)
    _emit(args, out)
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "connection": _cmd_connection,
    "linearize": _cmd_linearize,
    "geodesic": _cmd_geodesic,
    "invariants": _cmd_invariants,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_coords(
            sys.argv[1:] if argv is None else argv))
        return _COMMANDS[args.command](args)
    except CLIError as e:
        sys.stderr.write("geoweb: error: %s\n" % e)
        return EXIT_ERROR
    except (WebFileError, ExpressionError, ValueError) as e:
        sys.stderr.write("geoweb: invalid input: %s\n" % e)
        return EXIT_ERROR
    except (DegenerateWebPoint, StepTooLarge) as e:
        sys.stderr.write("geoweb: computation failed: %s\n" % e)
        return EXIT_ERROR
    except GeowebError as e:
        sys.stderr.write("geoweb: %s\n" % e)
        return EXIT_ERROR
    except MemoryError as e:     # numpy names the array it could not allocate
        sys.stderr.write("geoweb: out of memory: %s\n" % e)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
