#!/usr/bin/env python3
"""Builds and runs the lamb pipeline benchmark.

Run from the root of a lambmesh checkout:

    python3 pipebench/run.py --workload vend_hot --seed 1 --seconds 15 --trace 0

The first call configures and builds pipebench (and the lambmesh
libraries it links) under .bench_build/; later calls only re-check the
build. Build output goes to stderr; stdout is the benchmark's, and its
last line is one JSON object. With --trace 1 the Chrome-trace JSON of
the traced rounds is written to .bench_build/traces/<workload>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "pipebench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"pipebench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no lambmesh sources under ./src; run from the repository root")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "pipebench", "-j", "3"],
        stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "pipebench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, args.workload + ".json")]
    # The program's env knobs (engine, incremental solve, trace/metrics
    # dumps) would change what is measured; run with none of them set.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("LAMBMESH_")}
    try:
        done = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
