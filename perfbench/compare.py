#!/usr/bin/env python3
"""Steadiness check for the benchmark: two sets of runs of one build.

    python3 perfbench/compare.py [--workloads train,http] [--json FILE]

Run from the repository root. For each workload, runs set A (seeds 1..10)
and set B (seeds 11..20) with --trace 0, interleaving the two sets, then one
run on a held-out seed (1000). Per end-to-end metric it prints each set's median and
quartiles (statistics.quantiles, n=4), the spread (Q3 - Q1) / median against
the metric's bound from BENCHMARK.json, and how far set B's median moved
from set A's in the direction that is worse. A metric is steady when every
spread except setup_s's is within a third of its bound and no median moved
by more than its bound. Exits non-zero when any run fails or any metric
is unsteady. --json writes every run's metrics for later comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_PER_SET = 10
HELDOUT_SEED = 1000


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    last = done.stdout.rstrip("\n").split("\n")[-1]
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    if done.returncode != 0 or not result or not result.get("correct"):
        sys.stderr.write(done.stdout[-3000:])
        raise SystemExit("compare: %s seed %d failed (exit %d)" % (workload, seed,
                                                                 done.returncode))
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="", help="comma-separated; default all")
    parser.add_argument("--json", default="", help="write every run's metrics here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    record = {"run_seconds": seconds, "runs_per_set": RUNS_PER_SET, "heldout_seed": HELDOUT_SEED}
    steady = True
    for workload in workloads:
        sets = ([], [])
        for i in range(RUNS_PER_SET):
            for s, runs in enumerate(sets):
                seed = 1 + s * RUNS_PER_SET + i
                runs.append(run_once(workload, seed, seconds))
                print("  %s seed %d done" % (workload, seed), file=sys.stderr)
        heldout = run_once(workload, HELDOUT_SEED, seconds)
        record[workload] = {"sets": sets, "heldout": heldout}

        print("\n%s (%d runs per set, run_seconds %d)" % (workload, RUNS_PER_SET, seconds))
        print("%-12s %12s %12s %12s %8s %8s %8s %12s  %s" %
              ("metric", "median A", "Q1 A", "Q3 A", "spreadA", "spreadB", "moved", "held-out",
               "verdict"))
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            a = summary([run[name] for run in sets[0]])
            b = summary([run[name] for run in sets[1]])
            sign = 1 if metric["better"] == "lower" else -1
            moved = sign * (b[0] - a[0]) / a[0] if a[0] else 0.0
            spread_ok = name == "setup_s" or max(a[3], b[3]) <= bound / 3
            verdict = "steady" if spread_ok and moved <= bound else "UNSTEADY"
            if name != "setup_s" and max(a[3], b[3]) > bound:
                verdict = "OVER BOUND"
            steady = steady and verdict == "steady"
            print("%-12s %12.5g %12.5g %12.5g %7.1f%% %7.1f%% %+7.1f%% %12.5g  %s (bound %g%%)" %
                  (name, a[0], a[1], a[2], 100 * a[3], 100 * b[3], 100 * moved,
                   heldout[name], verdict, 100 * bound))

    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
