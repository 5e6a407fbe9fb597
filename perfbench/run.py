#!/usr/bin/env python3
"""Benchmark command for the rbcast reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout. Builds perfbench/ (a CMake project that
compiles ../src) into $CARGO_TARGET_DIR (default .bench_build), then runs
the workload in a child process of its own, so peak RSS and set-up time
belong to that workload alone. The child checks the run's output for
correctness and prints its metrics; this script prints them and, as the
last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 runs the workload twice,
untraced then traced, reports the traced run's per-layer metrics plus
trace.overhead_frac (traced over untraced CPU per delivery, minus one), and
writes the traced run's spans to .bench_out/spans-<workload>.jsonl.

Workloads: wan96_control, wan32_lossy_batched, udp32_loopback (see
perfbench/README.md). Exit status: 0 when the run passed its checks, 1 when
they failed or the run could not be made, 2 on a usage error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wan96_control", "wan32_lossy_batched", "udp32_loopback")
CHILD_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/ beside perfbench/ - nothing to build")
        return None
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "rbcast_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed:", " ".join(cmd))
            return None
    return os.path.join(build_dir, "rbcast_perfbench")


def run_child(binary, args):
    """Runs one workload process; returns (human lines, result dict)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: workload run timed out")
        return None, None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("perfbench: workload run exited with", proc.returncode)
        return None, None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: workload printed no result")
        return None, None
    return lines[:-1], result


def metrics_of(table):
    return {name: {"value": m["value"], "unit": m["unit"]}
            for name, m in table.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--horizon-scale", type=float, default=1.0,
                        help="shrink (<1) the DES stream and drain "
                             "(the benchmark's own tests)")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--horizon-scale", repr(args.horizon_scale)]

    if args.trace == 0:
        lines, result = run_child(
            binary, common + ["--seconds", repr(args.seconds)])
        if result is None:
            return 1
        print("\n".join(lines))
        metrics = metrics_of(result["e2e"])
    else:
        # Both halves share the time budget and do the same work.
        half = repr(max(args.seconds / 2, 1.0))
        _, base = run_child(
            binary, common + ["--seconds", half, "--single", "1"])
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, "spans-%s.jsonl" % args.workload)
        lines, result = run_child(
            binary, common + ["--seconds", half, "--trace", "1",
                              "--spans-out", spans])
        if base is None or result is None:
            return 1
        print("\n".join(lines))
        print("spans written to", os.path.relpath(spans, ROOT))
        metrics = metrics_of(result["layer"])
        untraced = base["e2e"]["cpu_us_per_delivery"]["value"]
        traced = result["e2e"]["cpu_us_per_delivery"]["value"]
        metrics["trace.overhead_frac"] = {
            "value": traced / untraced - 1.0, "unit": "ratio"}
        result["correct"] = result["correct"] and base["correct"]
        for e in base["errors"]:
            print("CHECK FAILED (untraced baseline):", e)

    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
