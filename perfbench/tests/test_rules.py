"""Self-tests of the benchmark's sampling rules and request schedule.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from pb import loadgen, stats, workloads  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_samples_needed(self):
        self.assertEqual(stats.samples_needed(0.5), 20)
        self.assertEqual(stats.samples_needed(0.9), 100)
        self.assertEqual(stats.samples_needed(0.99), 1000)

    def test_refuses_thin_tails(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(list(range(19)), 0.5)
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(list(range(99)), 0.9)
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(list(range(999)), 0.99)

    def test_ten_samples_beyond(self):
        for q, n in ((0.5, 20), (0.9, 100), (0.99, 1000)):
            values = list(range(n))
            p = stats.percentile(values, q)
            self.assertGreaterEqual(sum(v > p for v in values), 10)

    def test_workload_sizes_meet_the_rule(self):
        self.assertGreaterEqual(workloads.WARM_REQUESTS,
                                stats.samples_needed(0.99))
        self.assertGreaterEqual(workloads.COLD_REQUESTS,
                                stats.samples_needed(0.9))


HOT = ["/in/h%d.bench" % i for i in range(4)]
COLD = ["/in/c%d.bench" % i for i in range(30)]


class Schedule(unittest.TestCase):
    def test_deterministic_per_seed(self):
        a = loadgen.build_schedule(7, HOT, COLD, 200, 150.0)
        b = loadgen.build_schedule(7, HOT, COLD, 200, 150.0)
        c = loadgen.build_schedule(8, HOT, COLD, 200, 150.0)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)

    def test_arrivals_increase_at_the_rate(self):
        s = loadgen.build_schedule(3, HOT, COLD, 2000, 150.0)
        times = [r["t"] for r in s]
        self.assertEqual(times, sorted(times))
        rate = len(s) / times[-1]
        self.assertAlmostEqual(rate, 150.0, delta=15.0)

    def test_warm_cold_classification(self):
        s = loadgen.build_schedule(5, HOT, COLD, 300, 150.0)
        warm = [r for r in s if r["cls"] == "warm"]
        cold = [r for r in s if r["cls"] == "cold"]
        self.assertEqual(len(warm), 300)
        self.assertTrue(all(r["design"] in HOT for r in warm))
        # Each cold design is named exactly once and never by a warm request.
        self.assertEqual(sorted(r["design"] for r in cold), sorted(COLD))
        self.assertEqual(len({r["id"] for r in s}), len(s))

    def test_cold_specs_are_distinct_from_the_hot_set(self):
        cold = workloads.cold_specs()
        self.assertEqual(len(cold), len(set(cold)))
        self.assertTrue(all(":" in spec for spec in cold))
        self.assertFalse(set(cold) & set(workloads.HOT))


if __name__ == "__main__":
    unittest.main()
