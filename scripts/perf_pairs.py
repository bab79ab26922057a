#!/usr/bin/env python3
"""Alternating perfbench pairs: a parent tree against a change tree.

Usage, from anywhere:

    python3 scripts/perf_pairs.py <parent-tree> <change-tree> \
        --workload W --pairs N [--seed0 K]

Each tree is a checkout of the repository (its own perfbench/run.py builds
it into its own .bench_build). Pair i runs both trees once on seed K + i,
untraced, one after the other, for the change tree's BENCHMARK.json
run_seconds; the side that runs first alternates with the seed, so a slow
spell of the host does not always land on the same side. perfbench itself
is run unchanged.

Prints one line per pair (each side's end-to-end metrics and whether every
answer was correct), then per metric the median of each side, the relative
change of the medians, the parent's interquartile range, and in how many
pairs the change was better. The end-to-end metrics and which direction is
better come from the change tree's BENCHMARK.json. Exits 1 when a run was
not correct or failed requests, 2 on bad arguments.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def benchmark_spec(tree):
    """(run_seconds, [(name, better)] of the end-to-end metrics) from
    BENCHMARK.json."""
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return (spec["run_seconds"],
            [(m["name"], m["better"]) for m in spec["end_to_end"]])


def run_once(tree, workload, seed, seconds):
    """One untraced perfbench run; returns its result JSON (a dict)."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "exit": proc.returncode}
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = {"correct": False, "attempted": 0, "failed": 0,
                  "metrics": {}}
    result["exit"] = proc.returncode
    return result


def value(result, name):
    metric = result["metrics"].get(name)
    return None if metric is None else metric["value"]


def quartiles(values):
    """(q1, q3) by the inclusive method; both the value itself for one."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args()
    trees = {"parent": os.path.abspath(args.parent_tree),
             "change": os.path.abspath(args.change_tree)}
    for tree in trees.values():
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            print("perf_pairs: no perfbench/run.py under %s" % tree,
                  file=sys.stderr)
            return 2
    if args.pairs < 1:
        print("perf_pairs: --pairs must be at least 1", file=sys.stderr)
        return 2
    seconds, metrics = benchmark_spec(trees["change"])

    runs = {"parent": [], "change": []}
    all_ok = True
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            pair[side] = run_once(trees[side], args.workload, seed, seconds)
            runs[side].append(pair[side])
        cells = []
        for side in ("parent", "change"):
            r = pair[side]
            ok = r["correct"] and r["failed"] == 0 and r["exit"] == 0
            all_ok = all_ok and ok
            shown = " ".join("%s=%.4g" % (name, value(r, name))
                             if value(r, name) is not None else name + "=?"
                             for name, _ in metrics)
            cells.append("%s[%s %s]" % (side, "ok" if ok else "NOT OK",
                                        shown))
        print("pair %d seed %d first=%s  %s" % (i + 1, seed, order[0],
                                                "  ".join(cells)))
        sys.stdout.flush()

    print("\n%-18s %12s %12s %8s %22s %6s" % (
        "metric", "parent p50", "change p50", "change", "parent q1..q3",
        "wins"))
    for name, better in metrics:
        pairs = [(value(p, name), value(c, name))
                 for p, c in zip(runs["parent"], runs["change"])]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            print("%-18s %12s" % (name, "missing"))
            continue
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        mp, mc = statistics.median(parent), statistics.median(change)
        wins = sum(1 for p, c in pairs
                   if (c < p if better == "lower" else c > p))
        q1, q3 = quartiles(parent)
        rel = (mc - mp) / mp if mp else float("nan")
        print("%-18s %12.5g %12.5g %+7.1f%% %10.5g..%-10.5g %3d/%d" % (
            name, mp, mc, 100.0 * rel, q1, q3, wins, len(pairs)))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
