"""Tests of run.py's own rules.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The helper's tests (seed derivation, byte identity with the job layer,
served-bytes checks) run with

    cargo test --release --manifest-path perfbench/helper/Cargo.toml
"""

import collections
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(run.tail_rank(10))
        self.assertIsNone(run.tail_rank(19))
        self.assertEqual(run.tail_rank(20), 500)
        self.assertEqual(run.tail_rank(39), 500)
        self.assertEqual(run.tail_rank(40), 750)
        self.assertEqual(run.tail_rank(99), 750)
        self.assertEqual(run.tail_rank(100), 900)
        self.assertEqual(run.tail_rank(130), 900)
        self.assertEqual(run.tail_rank(200), 950)
        self.assertEqual(run.tail_rank(999), 950)
        self.assertEqual(run.tail_rank(1000), 990)
        self.assertEqual(run.tail_rank(9999), 990)
        self.assertEqual(run.tail_rank(10000), 999)

    def test_every_rank_leaves_ten_beyond(self):
        for n in range(1, 3000):
            pm = run.tail_rank(n)
            if pm is None:
                continue
            values = list(range(n))
            cut = run.percentile(values, pm)
            self.assertGreaterEqual(sum(v > cut for v in values), 10, n)

    def test_tail_falls_back_to_the_maximum(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, "max"))
        self.assertTrue(math.isnan(run.tail([])[0]))
        self.assertTrue(math.isnan(run.median([])))
        value, label = run.tail([float(i) for i in range(1, 101)])
        self.assertEqual(label, "p90")
        self.assertAlmostEqual(value, 90.1)

    def test_percentile_interpolates(self):
        self.assertEqual(run.percentile([1.0, 2.0, 3.0, 4.0], 500), 2.5)
        self.assertEqual(run.percentile([5.0], 990), 5.0)


class FailureCounting(unittest.TestCase):
    def test_failures_count_against_attempts(self):
        t = run.Tally()
        self.assertTrue(t.op(True))
        self.assertFalse(t.op(False, "cell 3: panic"))
        t.op(True)
        t.op(False, "request 9: queue_full")
        self.assertEqual((t.attempted, t.failed), (4, 2))
        self.assertEqual(t.ok_rate(), 0.5)
        self.assertEqual(t.notes, ["cell 3: panic", "request 9: queue_full"])

    def test_an_empty_tally_is_all_ok(self):
        self.assertEqual(run.Tally().ok_rate(), 1.0)

    def test_served_failures(self):
        """Error answers, missing answers and served bytes that differ
        from the cold run are all failed operations."""
        recs = {
            1: {"cell": 0, "ok": True, "digest": "aa", "id": 1},
            2: {"cell": 0, "ok": True, "digest": "bb", "id": 2},
            3: {"cell": 1, "ok": False, "code": "queue_full", "id": 3},
            4: {"cell": 1, "id": 4},
        }

        class FakeHelper:
            def call(self, cmd):
                return {"ok": True, "differ": ["bb"], "checked": 10, "wrong": 1}

        t = run.Tally()
        for rid, r in recs.items():
            t.op(r.get("ok", False), "request %d" % rid)
        solo, correct, wrong = run.verify_served(FakeHelper(), ["l0", "l1"], recs, t)
        self.assertEqual(set(solo), {0})
        self.assertEqual((correct, wrong), (18, 2))
        # 4 requests + 1 verification attempted; 2 unanswered/errored and
        # 1 differing byte string failed.
        self.assertEqual((t.attempted, t.failed), (5, 3))


    def test_a_failing_traced_cell_is_counted_and_its_span_closed(self):
        """A cell whose layer command fails is a failed operation; the
        traced run goes on, and its span table still adds up."""

        class FakeHelper:
            def call(self, cmd):
                name, cell = cmd.split(" ")
                if name == "execute" and cell == "1":
                    raise run.HelperError("execute: panic: boom")
                return {"ok": True, "units": [["nv.l1", 1000, 3]],
                        "digest": "aa", "checked": 5, "wrong": 0, "note": ""}

        t, tracer = run.Tally(), run.Tracer()
        cells = run.run_cells(FakeHelper(), 3, 1, t, tracer=tracer)
        self.assertEqual((t.attempted, t.failed), (3, 1))
        self.assertEqual(sorted(cells.latency), [0, 2])
        self.assertEqual(cells.correct, 10)
        self.assertTrue(all(s["dur"] is not None for s in tracer.spans))
        self.assertEqual(tracer.self_times()["cell"][0], 3)


class ServeSchedule(unittest.TestCase):
    lines = ["cell%d" % i for i in range(26)]
    hot = [0, 1, 2, 3, 4, 16, 20, 22]

    def schedule(self, seed, seconds):
        return run.serve_schedule(self.lines, self.hot, seed, seconds)

    def test_same_seed_same_stream(self):
        a = self.schedule(7, 10)
        self.assertEqual(a, self.schedule(7, 10))
        self.assertNotEqual(a, self.schedule(8, 10))

    def test_the_request_multiset_does_not_depend_on_the_seed(self):
        count = lambda seed: collections.Counter(c for _, c in self.schedule(seed, 20))
        self.assertEqual(count(1), count(2))

    def test_every_sweep_cell_misses_equally_often(self):
        counts = collections.Counter(c for _, c in self.schedule(3, 20) if c not in self.hot)
        sweep = len(self.lines) - len(self.hot)
        cycles = round(20 * run.SWEEP_RATE_HZ / sweep)
        twins = math.ceil(run.TWIN_SHARE * cycles)
        self.assertEqual(set(counts.values()), {cycles + twins})
        self.assertEqual(len(counts), sweep)


if __name__ == "__main__":
    unittest.main()
