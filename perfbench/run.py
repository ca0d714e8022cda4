#!/usr/bin/env python3
"""Benchmark of record for serve::QueryService.

One run:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the harness from the checkout's sources on first use (into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs it, and
prints its record line and, last, its result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 1 the request and replay spans are also written to
<build dir>/traces/<workload>-<seed>.jsonl.

Two sets of runs, each a directory of captured stdout files:
    python3 perfbench/run.py compare BASE_DIR NEW_DIR

Tests of the benchmark's own logic:
    python3 perfbench/run.py selftest
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("star_light", "join_saturated", "warm_zipf", "overload_open")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
HARNESS_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build(target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, target)


def valid_result(line):
    try:
        r = json.loads(line)
    except ValueError:
        return False
    if not isinstance(r, dict) or set(r) != RESULT_KEYS:
        return False
    if not isinstance(r["attempted"], int) or r["attempted"] < 1:
        return False
    if not isinstance(r["failed"], int) or not isinstance(r["correct"], bool):
        return False
    return all(isinstance(m.get("value"), (int, float)) and isinstance(m.get("unit"), str)
               for m in r["metrics"].values())


def run(argv):
    p = argparse.ArgumentParser(description="Run one workload of the benchmark.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args(argv)
    if a.seed < 0 or a.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    harness = build("perfbench_harness")
    if harness is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [harness, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-%d.jsonl" % (a.workload, a.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: harness timed out", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not valid_result(lines[-1]):
        print("perfbench: harness failed (exit %d)" % done.returncode, file=sys.stderr)
        return 1
    print("\n".join(lines[-2:]))
    return 0


def selftest():
    test = build("perfbench_selftest")
    if test is None or subprocess.run([test]).returncode != 0:
        return 1
    return subprocess.run([sys.executable, "-m", "unittest", "-q", "test_compare"],
                          cwd=HERE).returncode


def main(argv):
    if argv and argv[0] == "compare":
        sys.path.insert(0, HERE)
        import compare
        return compare.main(argv[1:])
    if argv and argv[0] == "selftest":
        return selftest()
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
