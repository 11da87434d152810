#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test.py

1. Builds and runs perfbench_selftest (simulator determinism, every output
   check firing on corrupted state, the traced run's time partition).
2. Runs every workload briefly with --trace 0 and --trace 1 and checks that
   the last line names exactly the metrics of BENCHMARK.json, each with its
   unit, that the run is correct and that no operation failed.
3. Checks that the benchmark fails, without printing a result, in a
   directory holding only BENCHMARK.json and the benchmark's files (it
   cannot build without the library sources).
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def bench(workload, trace, cwd=ROOT, seconds="1"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", seconds,
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


class SelfTest(unittest.TestCase):
    def test_selftest_binary(self):
        binary = run.build("perfbench_selftest")
        proc = subprocess.run([binary], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:])


class MetricNames(unittest.TestCase):
    def check(self, trace, section):
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                proc = bench(w["name"], trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(sorted(result), ["attempted", "correct",
                                                  "failed", "metrics"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(got, expected)
                for n, m in result["metrics"].items():
                    self.assertEqual(sorted(m), ["unit", "value"], n)
                    if section == "end_to_end":
                        self.assertGreater(m["value"], 0, n)

    def test_end_to_end_names_and_units(self):
        self.check(0, "end_to_end")

    def test_per_layer_names_and_units(self):
        self.check(1, "per_layer")


class BareDirectory(unittest.TestCase):
    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            for p in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(d, p),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench(SPEC["workloads"][0]["name"], 0, cwd=d)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
