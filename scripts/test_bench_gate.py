#!/usr/bin/env python3
"""Self-test of scripts/bench_gate.py's record loader and comparator.

Every committed BENCH_*.json must compare clean against itself, each
doctored copy must give exactly its expected violation, and corrupt or
workless records must raise MalformedRecord.

Usage: scripts/test_bench_gate.py [SMOKE_DIR]
  SMOKE_DIR  directory of records written by the harness smoke runs (the
             ctest smoke entries write <build>/smoke/*.json). Each one is
             schema-checked and compared against itself, without the work
             floor: smoke cells run for less than 100 us. The --apps
             entry's record must hold exactly the apps it asked for.
"""

import copy
import glob
import json
import os
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_gate  # noqa: E402

TOLERANCE = 25.0
SMOKE_DIR = None


def committed_records():
    paths = sorted(glob.glob(os.path.join(bench_gate.REPO, "BENCH_*.json")))
    return {os.path.splitext(os.path.basename(p))[0]: bench_gate.load_record(p)
            for p in paths}


def has_baseline(rec, row):
    return any(r["app"] == row["app"] and r["config"] == "baseline" and
               r["threads"] == row["threads"] for r in rec["rows"])


class CommittedRecords(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.records = committed_records()

    def setUp(self):
        self.assertTrue(self.records, "no committed BENCH_*.json")

    def violations(self, name, fresh):
        return bench_gate.compare(name, self.records[name], fresh,
                                  TOLERANCE)[0]

    def find(self, pred):
        """(record name, row index) of the first row matching pred."""
        for name, rec in self.records.items():
            for i, row in enumerate(rec["rows"]):
                if pred(rec, row):
                    return name, i
        self.fail("no committed row fits this test")

    def assert_one(self, name, fresh, needle):
        v = self.violations(name, fresh)
        self.assertEqual(len(v), 1, v)
        self.assertIn(needle, v[0])

    def test_every_record_matches_itself(self):
        for name, rec in self.records.items():
            self.assertEqual(self.violations(name, rec), [], name)

    def test_median_times_1_5(self):
        # A row whose app has no baseline, so only rule 1 can fire.
        name, i = self.find(lambda rec, row: not has_baseline(rec, row))
        fresh = copy.deepcopy(self.records[name])
        row = fresh["rows"][i]
        row["samples"] = [s * 1.5 for s in row["samples"]]
        self.assert_one(name, fresh, "median")

    def test_improvement_moved_30_points(self):
        # Speed up the row with the largest improvement by 30 points; from
        # +20% up, its median moves by less than the tolerance.
        best = None
        for name, rec in self.records.items():
            for i, row in enumerate(rec["rows"]):
                if row["config"] == "baseline" or not has_baseline(rec, row):
                    continue
                base = next(r for r in rec["rows"]
                            if r["app"] == row["app"] and
                            r["config"] == "baseline" and
                            r["threads"] == row["threads"])
                imp = statistics.median(base["samples"]) / \
                    statistics.median(row["samples"]) - 1.0
                if best is None or imp > best[0]:
                    best = (imp, name, i)
        self.assertIsNotNone(best)
        imp, name, i = best
        self.assertGreaterEqual(imp, 0.20)
        fresh = copy.deepcopy(self.records[name])
        row = fresh["rows"][i]
        k = (1.0 + imp) / (1.0 + imp + 0.30)
        row["samples"] = [s * k for s in row["samples"]]
        self.assert_one(name, fresh, "improvement")

    def test_deleted_row(self):
        name, i = self.find(lambda rec, row: row["config"] != "baseline")
        fresh = copy.deepcopy(self.records[name])
        del fresh["rows"][i]
        self.assert_one(name, fresh, "missing from fresh run")

    def test_read_elided_heap_halved(self):
        name, i = self.find(lambda rec, row: row["threads"] == 1 and
                            row["counters"].get("read_elided_heap", 0) > 0)
        fresh = copy.deepcopy(self.records[name])
        counters = fresh["rows"][i]["counters"]
        counters["read_elided_heap"] //= 2
        self.assert_one(name, fresh, "read_elided_heap")


class MalformedRecords(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(prefix="bench_gate_test_")
        self.rec = copy.deepcopy(next(iter(committed_records().values())))

    def tearDown(self):
        self.tmp.cleanup()

    def assert_malformed(self, text):
        path = os.path.join(self.tmp.name, "BENCH_doctored.json")
        with open(path, "w") as f:
            f.write(text)
        with self.assertRaises(bench_gate.MalformedRecord):
            bench_gate.load_record(path)

    def test_zero_commits(self):
        self.rec["rows"][0]["counters"]["commits"] = 0
        self.assert_malformed(json.dumps(self.rec))

    def test_one_microsecond_row(self):
        row = self.rec["rows"][0]
        row["samples"] = [1e-6] * len(row["samples"])
        self.assert_malformed(json.dumps(self.rec))

    def test_unparseable_json(self):
        self.assert_malformed('{"experiment": "fig10", "rows": [')


class SmokeRecords(unittest.TestCase):
    def test_smoke_records_are_well_formed(self):
        if SMOKE_DIR is None:
            self.skipTest("no SMOKE_DIR given")
        paths = sorted(glob.glob(os.path.join(SMOKE_DIR, "*.json")))
        self.assertTrue(paths, f"no smoke records in {SMOKE_DIR}")
        for path in paths:
            rec = bench_gate.load_record(path, work_floor=False)
            self.assertTrue(rec["rows"], path)
            v, _ = bench_gate.compare(os.path.basename(path), rec, rec,
                                      TOLERANCE, work_floor=False)
            self.assertEqual(v, [], path)

    def test_apps_filter_record(self):
        # smoke_bench_fig10_apps runs fig10 with --apps kmeans-high,
        # vacation-low: its record must hold rows for exactly those apps.
        # The entry is bench-smoke; cells that skip that label lack it.
        if SMOKE_DIR is None:
            self.skipTest("no SMOKE_DIR given")
        path = os.path.join(SMOKE_DIR, "smoke_bench_fig10_apps.json")
        if not os.path.exists(path):
            self.skipTest(f"{path} not written in this cell")
        rec = bench_gate.load_record(path, work_floor=False)
        self.assertEqual({row["app"] for row in rec["rows"]},
                         {"kmeans-high", "vacation-low"}, path)


if __name__ == "__main__":
    if len(sys.argv) > 1 and not sys.argv[1].startswith("-"):
        SMOKE_DIR = sys.argv.pop(1)
    unittest.main()
