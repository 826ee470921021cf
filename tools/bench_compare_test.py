#!/usr/bin/env python3
"""Checks that tools/bench_compare.py records every google-benchmark time
unit as milliseconds. Feeds it tools/testdata/gbench_units.json, a small
benchmark document with ns, us, ms and s rows plus one aggregate row.

    python3 tools/bench_compare_test.py
"""

import importlib.util
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "testdata", "gbench_units.json")


def load_bench_compare():
    spec = importlib.util.spec_from_file_location(
        "bench_compare", os.path.join(HERE, "bench_compare.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class RecordUnits(unittest.TestCase):
    def setUp(self):
        with open(FIXTURE) as f:
            report = json.load(f)
        self.results = {"benchmarks": {}}
        load_bench_compare().record(self.results, "after", report)

    def ms(self, name):
        return self.results["benchmarks"][name]["after"]["real_time_ms"]

    def test_every_unit_is_normalized_to_ms(self):
        self.assertAlmostEqual(self.ms("BM_Nanos"), 2.5)
        self.assertAlmostEqual(self.ms("BM_Micros"), 0.884)
        self.assertAlmostEqual(self.ms("BM_Millis"), 12.5)
        self.assertAlmostEqual(self.ms("BM_Seconds"), 1500.0)

    def test_aggregates_are_skipped_and_counters_kept(self):
        self.assertNotIn("BM_Millis_mean", self.results["benchmarks"])
        counters = self.results["benchmarks"]["BM_Nanos"]["after"]["counters"]
        self.assertEqual(counters, {"states_visited": 42})


if __name__ == "__main__":
    sys.exit(unittest.main())
