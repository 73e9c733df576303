#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

Builds perfbench/ (see run.py), runs the C++ tests (tests.cpp), and checks
that BENCHMARK.json and the benchmark's metric declarations agree: every
metric in the file is declared with the same unit, direction and scope, and
every declared metric is in the file. Run from the repository root.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the sibling build helper)
import steady  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


class Bench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build_dir = run.build(targets=("perfbench", "perfbench_tests"))
        cls.bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        out = subprocess.run([str(cls.build_dir / "perfbench"),
                              "--list-metrics"],
                             check=True, capture_output=True, text=True)
        cls.declared = {m["name"]: m for m in json.loads(out.stdout)}

    def test_cpp_tests_pass(self):
        subprocess.run([str(self.build_dir / "perfbench_tests")], check=True)

    def test_benchmark_json_matches_declarations(self):
        listed = set()
        for scope in ("end_to_end", "per_layer"):
            for m in self.bench[scope]:
                d = self.declared.get(m["name"])
                self.assertIsNotNone(d, m["name"])
                self.assertEqual(d["unit"], m["unit"], m["name"])
                self.assertEqual(d["better"], m["better"], m["name"])
                self.assertEqual(d["scope"], scope, m["name"])
                listed.add(m["name"])
        self.assertEqual(listed, set(self.declared))

    def test_bounds_and_setup_metric(self):
        e2e = {m["name"]: m for m in self.bench["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        bounds = [m["bound"] for m in e2e.values()]
        self.assertTrue(all(0 < b <= 0.25 for b in bounds))
        self.assertEqual(e2e["setup_s"]["bound"], max(bounds))

    def test_bad_arguments_exit_nonzero(self):
        exe = str(self.build_dir / "perfbench")
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1",
                      "--trace", "0"],
                     ["--workload", "eager_ring", "--seed", "1"]):
            proc = subprocess.run([exe, *args], capture_output=True)
            self.assertEqual(proc.returncode, 2)
            self.assertEqual(proc.stdout, b"")

    def test_spread_rule(self):
        s = steady.summary([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        self.assertEqual(s["median"], 5.5)
        self.assertAlmostEqual(s["spread"], (8.25 - 2.75) / 5.5)
        higher = {"better": "higher"}
        self.assertAlmostEqual(steady.worse_by(higher, 100.0, 90.0), 0.10)
        self.assertAlmostEqual(steady.worse_by(higher, 100.0, 110.0), -0.10)


if __name__ == "__main__":
    unittest.main()
