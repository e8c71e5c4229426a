#!/usr/bin/env python3
"""Builds and runs the ccsched solve benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a ccsched checkout.  The first run configures and
builds the benchmark (Release, see CMakeLists.txt) into .bench_build/; later
runs only re-check the build.  The benchmark prints its provenance, a metric
table and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Determinism check: the values that must not depend on timing (schedule
quality over the distinct problems, remap and portfolio work counts) are
stored per (binary, workload, seed, seconds, trace) under .bench_build/ on
the first run and compared on every later run; a mismatch makes the run
incorrect.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170
WORKLOADS = ("paper-portfolio", "random-schedule", "serve-mixed")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "engine" / "solver.hpp").is_file():
        fail("not inside a ccsched checkout (no src/engine/solver.hpp)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", "-DCCS_WERROR=OFF"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr so the last stdout line stays the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def commit():
    """The checkout's commit, when it is a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=dict(os.environ,
                                      GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_determinism(args, values):
    """Compares this run's timing-independent values with the first run's."""
    binary = hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]
    store = BUILD / "determinism" / binary
    store.mkdir(parents=True, exist_ok=True)
    path = store / (f"{args.workload}-{args.seed}-{args.seconds}-"
                    f"{args.trace}.json")
    if not path.is_file():
        path.write_text(json.dumps(values, sort_keys=True))
        return True
    previous = json.loads(path.read_text())
    if previous != values:
        print(f"determinism check failed: {previous} != {values}")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")

    build()
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--commit", commit()]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"benchmark exited with code {done.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    deterministic = check_determinism(args, result.pop("determinism"))
    result["correct"] = bool(result["correct"]) and deterministic
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
