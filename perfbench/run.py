#!/usr/bin/env python3
"""Builds and runs the end-to-end completion-query benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cold --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (which builds restore_core
from the checkout's own sources) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls rebuild incrementally. Build output goes
to stderr, the benchmark's human-readable report too, and the last line of
stdout is the result JSON. With --trace 1 the spans are written to
<build dir>/spans-<workload>-<seed>.jsonl.

--smoke runs one fleet instead of five (for the self-test).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd, timeout):
    """Runs a build step, sending its output to stderr; True on success."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("timed out: " + " ".join(cmd), file=sys.stderr)
        return False
    return done.returncode == 0


def build(out):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                         BUILD_TIMEOUT_S):
            return False
    return run_quiet(["cmake", "--build", out, "-j", jobs], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(out, "restore_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(
            out, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    if args.smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
