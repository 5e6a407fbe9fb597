#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_perfbench.py

Runs perfbench/run.py (which builds the benchmark on first use) and checks:
the same seed prints the same delivery digest; a different seed changes
it; the metric names printed equal those in BENCHMARK.json, untraced and
traced, on every workload; and a forced-short horizon reports
undelivered pairs instead of crashing. Takes about a minute.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

# Short DES runs: a quarter of the stream and drain.
QUICK = ["--horizon-scale", "0.25"]


def run(workload, seed, seconds=2, trace=0, extra=()):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)] + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def digest(lines):
    for line in lines:
        m = re.match(r"digest ([0-9a-f]{16}) ", line)
        if m:
            return m.group(1)
    raise AssertionError("no digest line in output")


def benchmark_names(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[section]}


class DigestTest(unittest.TestCase):
    def test_same_seed_same_digest_other_seed_differs(self):
        _, a, _ = run("wan32_lossy_batched", 7, extra=QUICK)
        _, b, _ = run("wan32_lossy_batched", 7, extra=QUICK)
        _, c, _ = run("wan32_lossy_batched", 8, extra=QUICK)
        self.assertEqual(digest(a), digest(b))
        self.assertNotEqual(digest(a), digest(c))


class MetricNamesTest(unittest.TestCase):
    def check(self, workload, extra=()):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, _, result = run(workload, 3, seconds=4, trace=trace,
                                  extra=extra)
            self.assertEqual(code, 0, (workload, trace))
            self.assertTrue(result["correct"], (workload, trace))
            self.assertEqual(set(result["metrics"]),
                             benchmark_names(section), (workload, trace))
            for m in result["metrics"].values():
                self.assertEqual(set(m), {"value", "unit"})

    def test_wan96_control(self):
        self.check("wan96_control", QUICK)

    def test_wan32_lossy_batched(self):
        self.check("wan32_lossy_batched", QUICK)

    def test_udp32_loopback(self):
        self.check("udp32_loopback")


class ShortHorizonTest(unittest.TestCase):
    def test_short_horizon_reports_undelivered(self):
        code, lines, result = run("wan32_lossy_batched", 5, trace=1,
                                  extra=["--horizon-scale", "0.02"])
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["metrics"]["undelivered_frac"]["value"], 0)
        self.assertTrue(any(l.startswith("undelivered_frac ") for l in lines))


if __name__ == "__main__":
    unittest.main(verbosity=2)
