#!/usr/bin/env python3
"""Builds and runs the µGRPC benchmark; the last stdout line is the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Run from the repository root.  The first run configures and builds
perfbench/ (the library from src/ plus the driver binary) as a Release
build in .bench_build/; later runs rebuild incrementally.  Build output
goes to stderr.  The traced run (--trace 1) writes the driver's spans to
.bench_build/traces/<workload>.json.

Exit codes: 0 = a result line was printed (see its "correct" field);
1 = the benchmark could not build or run; 2 = usage error.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "ugrpc_perfbench")
WORKLOADS = ("write_ordered_sim", "read_fanout_udp", "bulk_echo_udp")
BUILD_TIMEOUT_S = 840
RUN_LIMIT_S = 170  # every run must end within 180 s


def non_negative_int(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def seconds_arg(text):
    value = non_negative_int(text)
    if not 1 <= value <= 60:
        raise argparse.ArgumentTypeError(f"expected 1..60 seconds, got {value}")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=non_negative_int)
    p.add_argument("--seconds", required=True, type=seconds_arg)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--corrupt-echo", action="store_true",
                   help="test hook: servers damage one reply; the run must report correct=false")
    return p.parse_args(argv)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; False on failure."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout,
                              cwd=ROOT).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src; run from a full checkout")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                          timeout=BUILD_TIMEOUT_S):
            fail("cmake configure failed")
    remaining = max(1.0, deadline - time.monotonic())
    if not run_logged(["cmake", "--build", BUILD, "--parallel", "4", "--target", "ugrpc_perfbench"],
                      timeout=remaining):
        fail("build failed")


def main(argv):
    args = parse_args(argv)
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}.json")]
    if args.corrupt_echo:
        cmd.append("--corrupt-echo")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
