#!/usr/bin/env python3
"""Runs every workload and checks the benchmark's output contract.

Runs every workload named in BENCHMARK.json, untraced and traced, and prints
each run's metrics with their units and its attempted and failed counts. It
checks that the last line of stdout is one JSON object with exactly the keys
correct/attempted/failed/metrics, that every answer was correct, and that
every metric BENCHMARK.json names for that mode (end_to_end untraced,
per_layer traced) is printed with its unit and nothing else is. Exits
non-zero on any failure. Run from the root of a source checkout:

    python3 perfbench/selftest.py          # short: one fleet, 3 seconds
    python3 perfbench/selftest.py --full   # five fleets, run_seconds
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload, trace, expected, seconds, smoke):
    """Returns a list of problems with one run (empty when fine)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", str(seconds),
           "--trace", trace] + (["--smoke"] if smoke else [])
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=900)
    lines = done.stdout.decode().strip().splitlines()
    if not lines:
        return ["no output, exit code %d" % done.returncode]
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        return ["last line is not JSON: %s" % e]
    problems = []
    if done.returncode != 0:
        problems.append("exit code %d" % done.returncode)
    print("%s --trace %s: attempted %s, failed %s, correct %s" % (
        workload, trace, result.get("attempted"), result.get("failed"),
        result.get("correct")))
    for name, m in sorted(result.get("metrics", {}).items()):
        print("    %-28s %14.4f %s" % (name, m.get("value", float("nan")),
                                      m.get("unit", "?")))
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return problems + ["keys %s" % sorted(result)]
    if result["correct"] is not True:
        problems.append("correct is %r" % result["correct"])
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append("%s is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    if result["failed"] != 0:
        problems.append("failed = %r" % result["failed"])
    metrics = result["metrics"]
    for name, unit in expected.items():
        if name not in metrics:
            problems.append("missing metric %s" % name)
            continue
        m = metrics[name]
        if set(m) != {"value", "unit"}:
            problems.append("%s has keys %s" % (name, sorted(m)))
        elif m["unit"] != unit:
            problems.append("%s unit %r, expected %r" % (name, m["unit"],
                                                         unit))
        elif not isinstance(m["value"], (int, float)):
            problems.append("%s value is not a number" % name)
        elif trace == "0" and m["value"] == 0:
            problems.append("end-to-end metric %s is 0" % name)
    for name in metrics:
        if name not in expected:
            problems.append("unexpected metric %s" % name)
    return problems


def main():
    full = "--full" in sys.argv[1:]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"] if full else 3
    failed = False
    for workload in spec["workloads"]:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[section]}
            problems = check_run(workload["name"], trace, expected, seconds,
                                 not full)
            status = "PASS" if not problems else "FAIL"
            print("%s %s --trace %s" % (status, workload["name"], trace))
            for p in problems:
                print("    " + p)
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
