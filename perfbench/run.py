#!/usr/bin/env python3
"""Build and run one workload of the QuickDrop end-to-end benchmark.

    python3 perfbench/run.py --workload train|http --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the libraries under
src/) into .bench_build/perfbench; later runs rebuild incrementally. The
workload's output is passed through, and its last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Exact results (digests, byte
and gradient counts) are kept per seed in .bench_build/perfbench-runs under a
CRC-64 of the built binary, so repeat runs of one build must reproduce them
and a build of different code starts afresh. The exit status is non-zero
when the build fails, when any output check fails, or when the run exceeds
its time limit; a run that did not finish prints no result line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_build", "perfbench-runs")
WORKLOADS = ("train", "http")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                sys.exit("perfbench: build timed out: " + " ".join(step))
            if done.returncode != 0:
                # A failed configure must not leave a cache that skips it next time.
                if step[1] == "-S":
                    try:
                        os.remove(os.path.join(BUILD, "CMakeCache.txt"))
                    except FileNotFoundError:
                        pass
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-40:]))
                sys.exit("perfbench: build failed (log: %s)" % log_path)
    return os.path.join(BUILD, target)


def parse_result(line):
    """Validates the benchmark's result line; returns it or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the tests of the benchmark's own code")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([binary], cwd=BUILD, timeout=RUN_TIMEOUT_S).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("perfbench")
    os.makedirs(RUNS, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace), "--out-dir", RUNS]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as timeout:
        partial = timeout.stdout or b""
        sys.stdout.write(partial.decode(errors="replace") if isinstance(partial, bytes)
                         else partial)
        sys.exit("perfbench: %s run exceeded %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = done.stdout.rstrip("\n").split("\n")
    result = parse_result(lines[-1]) if lines else None
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if result is None:
        sys.stdout.write(lines[-1] + "\n" if lines else "")
        sys.exit("perfbench: %s run printed no result (exit %d)" % (args.workload,
                                                                   done.returncode))
    sys.stdout.write(lines[-1] + "\n")
    sys.stdout.flush()
    sys.exit(done.returncode if done.returncode != 0 or result["correct"] else 1)


if __name__ == "__main__":
    main()
