#!/usr/bin/env python3
"""Self-test of the host-speed benchmark: every output check can fail.

    python3 hostbench/selftest.py

For each workload it runs the benchmark through run.py, untraced and
traced, which must report correct=true and failed=0, and once with
--corrupt, which damages one output after the run and must report
correct=false and failed>0:

  resnet_infer  one logit of the first forward
  aes_encrypt   one ciphertext byte of the first block
  serve_stream  one byte inside the first live segment (replay must
                refuse the broken checksum chain)
  serve_mix     one output word of the first request (the per-request
                comparison must miss)

It also checks that the metric names each mode prints are exactly the
ones BENCHMARK.json lists, and that no per-run scratch directory is
left behind. Exits 0 when every expectation holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("resnet_infer", "aes_encrypt", "serve_stream", "serve_mix")
# Measured window of every self-test run: one round of each workload.
SECONDS = 1.0


def run(workload, trace=0, corrupt=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", str(SECONDS),
           "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt")
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stderr


def main():
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    spec = None
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)

    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        for trace in (0, 1):
            rc, res, err = run(w, trace=trace)
            mode = "traced" if trace else "untraced"
            expect(rc == 0 and res is not None and res["correct"] and
                   res["failed"] == 0,
                   f"{w}: {mode} run passes its checks")
            if spec and res:
                want = {m["name"]: m["unit"] for m in
                        spec["per_layer" if trace else "end_to_end"]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                expect(got == want,
                       f"{w}: {mode} metrics match BENCHMARK.json")
        rc, res, err = run(w, corrupt=True)
        expect(rc != 0 and res is not None and not res["correct"] and
               res["failed"] > 0,
               f"{w}: a corrupted output fails the run and counts as failed")
        if res and res["correct"]:
            print(err, file=sys.stderr)

    scratch = os.path.join(ROOT, ".bench_build", "scratch")
    left = os.listdir(scratch) if os.path.isdir(scratch) else []
    expect(not left, "no per-run scratch directory is left behind")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
