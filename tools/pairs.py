"""Alternating parent/change runs of the unchanged benchmark, written as a
BENCH file.

    python tools/pairs.py PARENT_ROOT CHANGE_ROOT --workload W --pairs K \\
        --seed0 S --out BENCH_<n>.json

Pair k (k = 1..K) runs `perfbench/run.py --workload W --seed S+k-1
--seconds T` once in each root, from that root, so each side measures its
own `src/`: the parent first when k is odd, the change first when k is
even.  T is the `run_seconds` of CHANGE_ROOT's BENCHMARK.json, the same
for both sides.  `--workload` may be given more than once; the workloads run one
after another.  The file is written again after every pair, so a cut run
leaves the pairs it finished.  For each workload it holds the seconds,
the seeds, the failed count, every pair's end-to-end metrics (the names
and directions in CHANGE_ROOT's BENCHMARK.json) and a summary per metric:
both medians, their ratio, the inclusive (linear-interpolation) quartiles
and IQRs, and in how many pairs the change was better.  The description,
the parent's name, the claim and notes are left to be written by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def order(k):
    """The sides of pair k in the order they run."""
    return SIDES if k % 2 else SIDES[::-1]


def parse_run(stdout):
    """(environment, result) from the stdout of one `perfbench/run.py`:
    the `# environment {...}` line and the JSON object on the last line."""
    env = {}
    for line in stdout.splitlines():
        if line.startswith("# environment "):
            env = json.loads(line[len("# environment "):])
    return env, json.loads(stdout.splitlines()[-1])


def run_once(root, workload, seed, seconds):
    """One benchmark run in `root`: (environment, result)."""
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds)],
        cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit("perfbench/run.py in %s exited %d: %s"
                         % (root, done.returncode, done.stderr[-300:]))
    return parse_run(done.stdout)


def pair_record(k, seed, results, names):
    """One entry of a workload's `pairs` from both sides' run results."""
    record = {"pair": k, "seed": seed, "first": order(k)[0]}
    for side in SIDES:
        metrics = results[side]["metrics"]
        record[side] = {name: metrics[name]["value"] for name in names}
    record.update({side + "_failed": results[side]["failed"]
                   for side in SIDES})
    record.update({side + "_attempted": results[side]["attempted"]
                   for side in SIDES})
    return record


def quartiles(values):
    if len(values) == 1:        # the file written after the first pair
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(pairs, metrics):
    """Per metric (name -> "lower" or "higher" is better): medians, their
    ratio, quartiles, IQRs and `pairs_better` over the pair records."""
    out = {}
    for name, better in metrics.items():
        sides = {side: [p[side][name] for p in pairs] for side in SIDES}
        q = {side: quartiles(v) for side, v in sides.items()}
        wins = sum((c < p) if better == "lower" else (c > p)
                   for p, c in zip(sides["parent"], sides["change"]))
        parent_median = statistics.median(sides["parent"])
        change_median = statistics.median(sides["change"])
        out[name] = {
            "better": better,
            "parent_median": parent_median,
            "change_median": change_median,
            "ratio_of_medians": change_median / parent_median,
            "parent_quartiles": q["parent"],
            "change_quartiles": q["change"],
            "parent_iqr": q["parent"][1] - q["parent"][0],
            "change_iqr": q["change"][1] - q["change"][0],
            "pairs_better": "%d of %d" % (wins, len(pairs)),
        }
    return out


def workload_entry(seconds, pairs, metrics):
    return {"seconds": seconds,
            "seeds": [p["seed"] for p in pairs],
            "failed": sum(p["parent_failed"] + p["change_failed"]
                          for p in pairs),
            "summary": summarize(pairs, metrics),
            "pairs": pairs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed0", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        declared = json.load(fh)
    metrics = {m["name"]: m["better"] for m in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    bench = {
        "description": "",
        "command": ("python3 perfbench/run.py --workload W --seed S "
                    "--seconds %g" % seconds),
        "pairing": ("parent and change runs alternate; within pair k the "
                    "parent runs first when k is odd, the change first when "
                    "k is even; pair k uses the k-th of its workload's seeds "
                    "for both"),
        "environment": {},
        "workloads": {},
    }
    for workload in args.workload:
        pairs = []
        for k in range(1, args.pairs + 1):
            seed = args.seed0 + k - 1
            results = {}
            for side in order(k):
                root = args.parent if side == "parent" else args.change
                env, results[side] = run_once(root, workload, seed, seconds)
                if side == "change":
                    bench["environment"] = env
            pairs.append(pair_record(k, seed, results, metrics))
            bench["workloads"][workload] = workload_entry(seconds, pairs,
                                                          metrics)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(bench, fh, indent=1)
                fh.write("\n")
            print("%s pair %d (seed %d): %s" % (
                workload, k, seed, ", ".join(
                    "%s %.4g/%.4g" % (name, pairs[-1]["parent"][name],
                                      pairs[-1]["change"][name])
                    for name in metrics)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
