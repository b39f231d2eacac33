#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

- The unit check runs htap_bench_selftest: percentile and tail-count rules,
  windowed percentiles, the commit-to-visible lag matcher and span self time
  on synthetic traces.
- The smoke test runs every workload run.py accepts at tiny scale, untraced
  and traced, and asserts that each passes its correctness gate and prints
  every metric BENCHMARK.json names, with its unit and a finite value.
"""

import math
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.bench = run.spec()

    def test_arithmetic_selftest(self):
        proc = subprocess.run([run.SELFTEST], stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_smoke_every_workload_prints_every_metric(self):
        for workload in run.workloads(self.bench):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, lines, result = run.run_workload(
                        workload, seed=7, seconds=1, trace=trace, smoke=True)
                    self.assertIsNotNone(result, "\n".join(lines[-20:]))
                    self.assertEqual(code, 0, "\n".join(lines[-20:]))
                    self.assertTrue(result["correct"])
                    self.assertEqual(run.check_result(result, trace, self.bench), [])
                    for name, metric in result["metrics"].items():
                        self.assertTrue(math.isfinite(metric["value"]), name)


if __name__ == "__main__":
    unittest.main()
