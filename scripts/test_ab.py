#!/usr/bin/env python3
"""Unit tests for the A/B driver's summary functions (scripts/ab.py).

They run no benchmark:

    python3 -m unittest discover -s scripts -p test_ab.py
"""
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ab  # noqa: E402

THROUGHPUT = {"name": "throughput_mops", "unit": "Mops/s", "better": "higher", "bound": 0.25}
LATENCY = {"name": "latency_p50_us", "unit": "us", "better": "lower", "bound": 0.25}

# A tight parent: median 100, IQR 0.5 (q1 99.75, q3 100.25).
PARENT = [99.0, 99.5, 99.75, 99.75, 100.0, 100.0, 100.25, 100.25, 100.5, 101.0]


class Quantiles(unittest.TestCase):
    def test_match_perfbench_vectors(self):
        v = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(ab.quantile(v, 0.25), 2.0)
        self.assertEqual(ab.quantile(v, 0.75), 4.0)
        self.assertEqual(ab.quantile([1.0, 2.0], 0.25), 1.25)
        self.assertEqual(ab.quantile([], 0.5), 0.0)

    def test_summary(self):
        s = ab.summary(PARENT)
        self.assertEqual((s["median"], s["q1"], s["q3"], s["iqr"]), (100.0, 99.75, 100.25, 0.5))


class Wins(unittest.TestCase):
    def test_ties_count_for_neither_side(self):
        c = ab.cell(THROUGHPUT, [1.0, 1.0, 2.0], [1.0, 2.0, 1.0])
        self.assertEqual((c["wins"], c["losses"], c["n"]), (1, 1, 3))

    def test_nine_of_ten_is_a_gain_and_eight_is_not(self):
        base = [1000.0] * 10
        nine = ab.cell(THROUGHPUT, base, [1100.0] * 9 + [900.0])
        self.assertEqual(nine["wins"], 9)
        self.assertTrue(nine["gain"])
        eight = ab.cell(THROUGHPUT, base, [1100.0] * 8 + [900.0] * 2)
        self.assertEqual(eight["wins"], 8)
        self.assertFalse(eight["gain"])

    def test_gain_needs_the_medians_apart_by_more_than_the_parent_iqr(self):
        # 10/10 wins, but the change median sits inside the parent's IQR.
        parent = [90.0, 95.0, 100.0, 105.0, 110.0] * 2
        change = [p + 1.0 for p in parent]
        c = ab.cell(THROUGHPUT, parent, change)
        self.assertEqual(c["wins"], 10)
        self.assertTrue(c["within_noise"])
        self.assertFalse(c["gain"])

    def test_direction_follows_better(self):
        parent = [50.0] * 10
        lower = [40.0] * 10
        latency = ab.cell(LATENCY, parent, lower)
        self.assertEqual(latency["wins"], 10)
        self.assertTrue(latency["gain"])
        throughput = ab.cell(THROUGHPUT, parent, lower)
        self.assertEqual(throughput["losses"], 10)
        self.assertFalse(throughput["gain"])


class Regression(unittest.TestCase):
    def test_bound_on_throughput(self):
        self.assertTrue(ab.cell(THROUGHPUT, PARENT, [p * 0.74 for p in PARENT])["regression"])
        self.assertFalse(ab.cell(THROUGHPUT, PARENT, [p * 0.76 for p in PARENT])["regression"])

    def test_bound_on_latency(self):
        self.assertTrue(ab.cell(LATENCY, PARENT, [p * 1.26 for p in PARENT])["regression"])
        self.assertFalse(ab.cell(LATENCY, PARENT, [p * 1.24 for p in PARENT])["regression"])

    def test_better_is_never_a_regression(self):
        self.assertFalse(ab.cell(LATENCY, PARENT, [p * 0.5 for p in PARENT])["regression"])


class Unresolved(unittest.TestCase):
    # Median 100, q1 70, q3 130: an IQR of 60% of the median.
    WIDE = [40.0, 60.0, 70.0, 70.0, 100.0, 100.0, 130.0, 130.0, 140.0, 160.0]

    def test_parent_iqr_beyond_bound(self):
        c = ab.cell(THROUGHPUT, self.WIDE, list(self.WIDE))
        self.assertTrue(c["unresolved"])
        self.assertFalse(ab.cell(THROUGHPUT, PARENT, list(PARENT))["unresolved"])

    def test_resolved_when_every_change_run_beats_every_parent_run(self):
        above = [161.0 + i for i in range(10)]
        below = [39.0 - i for i in range(10)]
        self.assertFalse(ab.cell(THROUGHPUT, self.WIDE, above)["unresolved"])
        self.assertFalse(ab.cell(LATENCY, self.WIDE, below)["unresolved"])
        # One change run inside the parent's range keeps it unresolved.
        self.assertTrue(ab.cell(THROUGHPUT, self.WIDE, above[:9] + [150.0])["unresolved"])


class Seeds(unittest.TestCase):
    def test_same_trees_same_seeds(self):
        self.assertEqual(ab.seeds("a" * 40, "b" * 40), ab.seeds("a" * 40, "b" * 40))
        self.assertEqual(len(ab.seeds("a" * 40, "b" * 40)), ab.PAIRS)

    def test_either_tree_changes_the_seeds(self):
        s = ab.seeds("a" * 40, "b" * 40)
        self.assertNotEqual(s, ab.seeds("c" * 40, "b" * 40))
        self.assertNotEqual(s, ab.seeds("a" * 40, "c" * 40))
        self.assertNotEqual(s, ab.seeds("b" * 40, "a" * 40))

    def test_order_alternates(self):
        self.assertEqual(ab.order(0), ("parent", "change"))
        self.assertEqual(ab.order(1), ("change", "parent"))


class Verdict(unittest.TestCase):
    def record(self, runs=None, failed=(0, 0), cells=()):
        side = {"runs": runs or [], "attempted": 100}
        return {
            "sides": {
                "parent": dict(side, failed=failed[0]),
                "change": dict(side, failed=failed[1]),
            },
            "cells": list(cells),
        }

    def test_clean_record_passes(self):
        self.assertEqual(ab.problems(self.record()), [])

    def test_failed_run_fails(self):
        run = {"workload": "pairs", "seed": 1, "exit": 0, "correct": False}
        self.assertEqual(len(ab.problems(self.record(runs=[run]))), 2)

    def test_larger_failed_share_fails(self):
        self.assertEqual(len(ab.problems(self.record(failed=(0, 1)))), 1)
        self.assertEqual(ab.problems(self.record(failed=(1, 1))), [])

    def test_regression_fails(self):
        c = dict(ab.cell(THROUGHPUT, PARENT, [p * 0.5 for p in PARENT]), workload="pairs")
        self.assertEqual(len(ab.problems(self.record(cells=[c]))), 1)


class Plumbing(unittest.TestCase):
    def test_build_command_from_the_benchmark_command(self):
        cmd = ["cargo", "run", "--release", "--manifest-path", "p/Cargo.toml", "--", "--x", "1"]
        build = ["cargo", "build", "--release", "--manifest-path", "p/Cargo.toml"]
        self.assertEqual(ab.build_command(cmd), build)
        self.assertEqual(cmd[1], "run", "the benchmark command is left as it is")

    def test_parse_output(self):
        out = (
            '# topology {"cores": 2, "pinned": false, "cpu": "x", "seed": 1, '
            '"source_digest": "ab"}\n'
            "end_to_end throughput_mops = 1 Mops/s\n"
            '{"correct": true, "attempted": 5, "failed": 0, "metrics": {}}\n'
        )
        topology, result = ab.parse_output(out)
        self.assertEqual(topology["source_digest"], "ab")
        self.assertEqual(result["attempted"], 5)
        self.assertEqual(ab.parse_output("garbage\n"), (None, None))

    def test_dump_puts_flat_lists_and_objects_on_one_line(self):
        record = {
            "values": [1.5, 2.0],
            "nested": {"seeds": [1, 2], "cpu": "a [b]"},
            "runs": [{"pair": 0, "exit": 0}],
        }
        text = ab.dump(record)
        self.assertIn('"values": [1.5, 2.0]', text)
        self.assertIn('"seeds": [1, 2]', text)
        self.assertIn('"cpu": "a [b]"', text)
        self.assertIn('{"pair": 0, "exit": 0}', text)
        self.assertEqual(json.loads(text), record)


if __name__ == "__main__":
    unittest.main()
