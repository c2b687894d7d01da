#!/usr/bin/env python3
"""Build and run the host-speed benchmark of the DARTH-PUM simulator.

    python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
the benchmark (and the simulator library it compiles from src/) into
.bench_build/hostbench; later runs only check that build is current.
The benchmark's own output is passed through: its last stdout line is
the JSON result. Build output goes to stderr. Traced runs write their
Chrome Trace Event JSON to .bench_trace/<workload>-seed<n>.json.

Exit status is the benchmark's (0 = every check passed); a failed
build exits 2 without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
WORKLOADS = ("resnet_infer", "aes_encrypt", "serve_stream", "serve_mix")


def build():
    """Configure once, then bring the build up to date. True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # A configure that failed leaves a cache but no build file.
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: damage one output so a check fails")
    args = parser.parse_args()

    if not build():
        print("hostbench: build failed", file=sys.stderr)
        return 2

    # Per-run scratch space, removed here whatever the benchmark did.
    scratch = os.path.join(ROOT, ".bench_build", "scratch",
                           f"{args.workload}-{os.getpid()}")
    cmd = [os.path.join(BUILD, "hostbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            ROOT, ".bench_trace", f"{args.workload}-seed{args.seed}.json")]
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        # setup_s counts from here: the benchmark's process start.
        cmd += ["--t0-ns", str(time.monotonic_ns())]
        return subprocess.run(cmd, cwd=ROOT).returncode
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
