"""Self-tests that need the built tools: generator and work counters.

Builds into $CARGO_TARGET_DIR (default .bench_build) like run.py does.

    python3 -m unittest discover -s perfbench/tests
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

from pb import procs, workloads  # noqa: E402

TOOLS = None


def setUpModule():
    global TOOLS
    TOOLS = procs.build(HERE, os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build")), workloads.JOBS)


def gen(out_dir, seed, specs):
    out = subprocess.run(
        [os.path.join(TOOLS, "perfbench_gen"), out_dir, str(seed)] + specs,
        check=True, capture_output=True, text=True).stdout
    return [line.split()[0] for line in out.splitlines()]


def sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Generator(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        specs = ["b03s", "b08s:1", "b14s:2"]
        with tempfile.TemporaryDirectory() as a, \
                tempfile.TemporaryDirectory() as b:
            first = [sha(p) for p in gen(a, 5, specs)]
            again = [sha(p) for p in gen(b, 5, specs)]
            other = [sha(p) for p in gen(b, 6, specs)]
        self.assertEqual(first, again)
        self.assertTrue(all(x != y for x, y in zip(first, other)))

    def test_cold_designs_are_new_content(self):
        cold = workloads.cold_specs()[:8]
        with tempfile.TemporaryDirectory() as d:
            hot = {sha(p) for p in gen(d, 2, workloads.HOT)}
            fresh = [sha(p) for p in gen(d, 2, cold)]
        self.assertEqual(len(set(fresh)), len(fresh))
        self.assertFalse(hot & set(fresh))


class WorkCounters(unittest.TestCase):
    COUNTERS = ("wordrec.cones_hashed", "wordrec.pairs_compared",
                "wordrec.subtrees_diffed", "wordrec.reduction_trials")

    def traced(self, paths, jobs):
        out = subprocess.run(
            [os.path.join(TOOLS, "perfbench_trace"), "--netrev",
             os.path.join(TOOLS, "netrev"), "--jobs", str(jobs)] + paths,
            check=True, capture_output=True, text=True).stdout
        doc = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(doc["failed"], 0, doc["failures"])
        return {k: doc["metrics"][k] for k in self.COUNTERS}

    def test_repeat_across_runs_and_jobs(self):
        with tempfile.TemporaryDirectory() as d:
            paths = gen(d, 3, ["b03s", "b08s", "b12s", "b14s"])
            runs = [self.traced(paths, jobs) for jobs in (1, 4, 4)]
        self.assertGreater(runs[0]["wordrec.reduction_trials"], 0)
        self.assertEqual(runs[0], runs[1])
        self.assertEqual(runs[1], runs[2])


if __name__ == "__main__":
    unittest.main()
