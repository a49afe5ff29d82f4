#!/usr/bin/env python3
"""Appends one perf-trajectory point to BENCH_PERF.json.

A point compares interleaved perfbench runs of a parent commit and of a
change on one workload: the median of every end-to-end metric on each
side, and, from traced runs, the median per-layer split.

    python3 scripts/bench_trajectory.py --workload eval_ondemand \\
        --commit SHA --parent-commit SHA --seeds 1-10 --seconds 15 \\
        --host "4-vCPU AVX2 host, Release" \\
        --parent runs/parent_*.txt --change runs/change_*.txt \\
        [--traced-parent runs/tparent_*.txt --traced-change runs/tchange_*.txt] \\
        [--out BENCH_PERF.json]

Each input file is one run's stdout (`perfbench/run.py ... > file`); only
its last line, the JSON result, is read. Untraced files give the
end-to-end metrics, traced files (`--trace 1`) the layer split.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def result_metrics(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        sys.exit("bench_trajectory: %s is empty" % path)
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        sys.exit("bench_trajectory: %s is not a correct run" % path)
    return result["metrics"]


def medians(paths, names):
    runs = [result_metrics(p) for p in paths]
    out = {}
    for name in names:
        values = [r[name]["value"] for r in runs if name in r]
        if values:
            out[name] = statistics.median(values)
    return out


def compare(parent_paths, change_paths, spec):
    names = [m["name"] for m in spec]
    units = {m["name"]: m["unit"] for m in spec}
    parent = medians(parent_paths, names)
    change = medians(change_paths, names)
    out = {}
    for name in names:
        if name not in parent or name not in change:
            continue
        entry = {"unit": units[name], "parent": parent[name],
                 "change": change[name]}
        if parent[name]:
            entry["ratio"] = change[name] / parent[name]
        out[name] = entry
    return out


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--commit", required=True)
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--host", required=True)
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--traced-parent", nargs="*", default=[])
    ap.add_argument("--traced-change", nargs="*", default=[])
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_PERF.json"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    point = {
        "commit": args.commit,
        "parent_commit": args.parent_commit,
        "workload": args.workload,
        "seeds": parse_seeds(args.seeds),
        "seconds": args.seconds,
        "runs_per_side": len(args.change),
        "host": args.host,
        "end_to_end": compare(args.parent, args.change, bench["end_to_end"]),
    }
    if args.traced_parent and args.traced_change:
        point["traced_runs_per_side"] = len(args.traced_change)
        point["layers"] = compare(args.traced_parent, args.traced_change,
                                  bench["per_layer"])

    trajectory = {"points": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            trajectory = json.load(f)
    trajectory["points"].append(point)
    with open(args.out, "w") as f:
        json.dump(trajectory, f, indent=1)
        f.write("\n")
    print("appended %s point %d to %s" % (args.workload,
                                          len(trajectory["points"]), args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
