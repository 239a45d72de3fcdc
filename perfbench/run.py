#!/usr/bin/env python3
"""Build and run the simulator throughput benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid8 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the
simulator library from src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset. The benchmark
binary's standard output is passed through; its last line is the JSON
result. Build output goes to standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build; return the benchmark binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources (src/) not found beside perfbench/; "
            "run from the root of a full checkout")
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    out = os.path.join(os.path.abspath(base), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out] + gen +
                     ["-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            die("build step failed: %s" % e)
        if rc != 0:
            die("build step failed (exit %d): %s" % (rc, " ".join(cmd)))
    return os.path.join(out, "perfbench")


def run_binary(binary, args):
    """Run the binary to completion; return (exit code, stdout lines)."""
    try:
        p = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    return p.returncode, p.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(res, dict) or set(res) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return res


def self_test(binary):
    """Check the catalogue against BENCHMARK.json, every workload's
    emitted names and units at tiny sizes, and the identity check."""
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rc, lines = run_binary(binary, ["--list-metrics"])
    catalogue = {m["name"]: m for m in json.loads("\n".join(lines))}
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            c = catalogue.get(m["name"])
            if c is None:
                problems.append("%s not emitted by the binary" % m["name"])
            elif (c["unit"], c["better"]) != (m["unit"], m["better"]):
                problems.append("%s: unit/better differ" % m["name"])
            elif kind == "per_layer" and not (c["layer"] and c["on"]):
                problems.append("%s: no layer/workload recorded"
                                % m["name"])
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            rc, lines = run_binary(binary, [
                "--workload", w["name"], "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny"])
            res = parse_result(lines)
            if rc != 0 or res is None:
                problems.append("%s trace=%d: no result" % (w["name"], trace))
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expected[trace]:
                problems.append("%s trace=%d: metrics %s, expected %s" % (
                    w["name"], trace, sorted(got), sorted(expected[trace])))
            if not res["correct"] or res["failed"]:
                problems.append("%s trace=%d: failed cells" % (
                    w["name"], trace))
            print("self-test: %s trace=%d emits %d metrics" % (
                w["name"], trace, len(got)))
    rc, lines = run_binary(binary, ["--self-test"])
    print("\n".join(lines))
    if rc != 0:
        problems.append("identity self-test failed")
    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and not a.workload:
        ap.error("--workload is required")
    binary = build()
    if a.self_test:
        return self_test(binary)
    rc, lines = run_binary(binary, [
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace)])
    if rc != 0 or parse_result(lines) is None:
        # Leave no result line behind a failed run.
        print("\n".join(l for l in lines if l.startswith("#")))
        die("benchmark failed (exit %d)" % rc)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
