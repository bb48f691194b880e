"""Unit tests of bench/perf_ab.py's comparison, on canned perfbench
result lines and the repository's BENCHMARK.json bounds (no build).

Run from this directory: python3 -m unittest test_perf_ab
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "bench"))
import perf_ab  # noqa: E402

with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
VALUES = {"ops_per_s": 10.0, "op_ms_p50": 80.0, "op_ms_tail": 200.0,
          "peak_rss_mb": 300.0, "setup_s": 0.01}


def line(failed=0, drop=(), **values):
    """One result line as perfbench/run.py prints it last."""
    metrics = {name: {"value": values.get(name, VALUES[name]),
                      "unit": UNITS[name]}
               for name in UNITS if name not in drop}
    return json.dumps({"correct": failed == 0, "attempted": 64,
                       "failed": failed, "metrics": metrics})


def results(workload=None, lines=()):
    """Five runs of every workload at VALUES, except that the named
    workload's runs print `lines`; each is parsed from driver output."""
    return {w: [perf_ab.parse_result("config: {}\n" + printed)
                for printed in (lines if w == workload else [line()] * 5)]
            for w in WORKLOADS}


class CompareTest(unittest.TestCase):
    def verdict(self, workload=None, lines=()):
        _, failures = perf_ab.compare(BENCH, results(),
                                      results(workload, lines))
        return failures

    def test_equal_medians_pass(self):
        self.assertEqual(self.verdict(), [])

    def test_paper_grid_ops_drop_of_one_percent_passes(self):
        self.assertEqual(
            self.verdict("paper-grid", [line(ops_per_s=9.9)] * 5), [])

    def test_paper_grid_ops_drop_of_three_percent_fails(self):
        failures = self.verdict("paper-grid", [line(ops_per_s=9.7)] * 5)
        self.assertEqual(len(failures), 1)
        self.assertIn("paper-grid ops_per_s", failures[0])

    def test_other_workload_ops_drop_of_three_percent_passes(self):
        self.assertEqual(
            self.verdict("tenant-mix", [line(ops_per_s=9.7)] * 5), [])

    def test_tenant_mix_rss_rise_of_twenty_percent_fails(self):
        failures = self.verdict("tenant-mix",
                                [line(peak_rss_mb=360.0)] * 5)
        self.assertEqual(len(failures), 1)
        self.assertIn("tenant-mix peak_rss_mb", failures[0])

    def test_failed_share_rise_fails(self):
        failures = self.verdict("secure-rw",
                                [line(failed=1)] + [line()] * 4)
        self.assertEqual(len(failures), 1)
        self.assertIn("secure-rw: failed share rose", failures[0])

    def test_missing_metric_fails(self):
        failures = self.verdict("secure-rw",
                                [line(drop=("op_ms_tail",))] * 5)
        self.assertEqual(len(failures), 1)
        self.assertIn("secure-rw op_ms_tail: missing", failures[0])

    def test_median_ignores_one_outlier(self):
        self.assertEqual(
            self.verdict("paper-grid",
                         [line(ops_per_s=5.0)] + [line()] * 4), [])


if __name__ == "__main__":
    unittest.main()
