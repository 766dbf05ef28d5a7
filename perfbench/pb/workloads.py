"""The four workloads: how each sets up, what it times and what it checks."""

import concurrent.futures
import hashlib
import json
import os
import subprocess
import time

from pb import loadgen
from pb.procs import BenchError, Daemon, family_cpu, family_hwm_mb, run
from pb.stats import TooFewSamples, median, percentile

FAMILY = ["b03s", "b04s", "b05s", "b07s", "b08s", "b11s",
          "b12s", "b13s", "b14s", "b15s", "b17s", "b18s"]
GIANT = "b19s"
BATCH_DRAWS = 3            # family-batch: each profile drawn at this many indices
# Serve traffic: warm and cold requests name designs of the same size
# (~9K gates), so the classes differ only in cache state.  Hot designs are
# draws 901.. of the profiles; cold designs are draws 1..COLD_REQUESTS.
HOT = ["b14s:901", "b14s:902", "b14s:903", "b15s:901", "b15s:902", "b15s:903"]
COLD_PROFILES = ["b14s", "b15s"]
WARM_REQUESTS = 1000       # p99 of the warm class has 10 samples beyond it
COLD_REQUESTS = 100        # p90 of the cold class has 10 samples beyond it
# Open-loop arrival rate (requests/s), the same for both serve workloads: a
# constant near half the in-process daemon's closed-loop capacity on this
# mix when the benchmark was written (441 requests/s on a 4-CPU Xeon,
# Release; 366 under --isolate=2).  Kept fixed so that later versions are
# compared under the same offered load.
OPEN_RATE = 200.0
CONNS = 4                  # client connections: one per CPU
MIN_SETUPS = 5             # set-up rounds at least; setup_s is their median
MIN_REPEATS = 3            # CLI workloads time at least this many runs
ANCHORS = ["b03s", "b08s", "b13s"]  # identified at the default seed every run
DEFAULT_SEED = 1
JOBS = 4

DIGESTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "digests.json")


def canonical_sha(text):
    """Digest of a JSON document independent of its formatting."""
    doc = json.loads(text)
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":"))
                          .encode()).hexdigest()


def raw_member(text, key):
    """The raw bytes of a top-level member's value in a JSON document."""
    marker = '"%s":' % key
    at = text.find(marker)
    if at < 0:
        raise ValueError("no member " + key)
    start = at + len(marker)
    _, end = json.JSONDecoder().raw_decode(text, start)
    return text[start:end]


class Run:
    """State shared by one invocation: tools, paths and the tally."""

    def __init__(self, tools, work, seed, seconds, record):
        self.netrev = os.path.join(tools, "netrev")
        self.gen_exe = os.path.join(tools, "perfbench_gen")
        self.trace_exe = os.path.join(tools, "perfbench_trace")
        self.loadgen_exe = os.path.join(tools, "perfbench_loadgen")
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.record = record
        self.attempted = 0
        self.failures = []
        self.report = []   # human-readable lines printed before the result
        with open(DIGESTS) as f:
            self.digests = json.load(f)

    # -- bookkeeping -------------------------------------------------------
    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def note(self, line):
        self.report.append(line)

    def check_digest(self, path, identify_text):
        """Compares an identify document of a default-seed input with the
        checked-in digest, keyed by the input's file name."""
        key = os.path.basename(path)
        sha = canonical_sha(identify_text)
        if self.record:
            self.digests.setdefault("identify", {})[key] = sha
            return
        want = self.digests.get("identify", {}).get(key)
        self.check(want == sha, "identify digest mismatch for " + key
                   + ("" if want else " (no digest recorded)"))

    # -- inputs ------------------------------------------------------------
    def gen(self, specs, seed=None):
        """Generates specs at the seed; returns their paths in order."""
        seed = self.seed if seed is None else seed
        out = subprocess.run(
            [self.gen_exe, os.path.join(self.work, "in"), str(seed)] + specs,
            check=True, capture_output=True, text=True).stdout
        return [os.path.abspath(line.split()[0]) for line in out.splitlines()]

    def cli(self, args, tag):
        return run([self.netrev] + args, os.path.join(self.work, tag + ".out"))

    def anchors(self):
        """Untimed identify of small designs at the default seed, every run."""
        for path in self.gen(ANCHORS, DEFAULT_SEED):
            res = self.cli(["identify", path, "--json"], "anchor")
            if self.check(res.rc == 0, "anchor identify %s exit %d"
                          % (path, res.rc)):
                self.check_digest(path, res.out.decode())

    def setup_round(self, paths):
        """One set-up round of a CLI workload: `netrev stats` over every
        input.  Returns its total wall time."""
        total = 0.0
        for p in paths:
            res = self.cli(["stats", p], "stats")
            self.check(res.rc == 0, "stats %s exit %d" % (p, res.rc))
            total += res.wall
        return total

    def repeat_cli(self, args, tag, paths):
        """Runs a CLI job repeatedly until its runs add up to the measuring
        time, at least MIN_REPEATS times.  Every run must exit 0 and print
        the same bytes.  A set-up round over `paths` precedes each run, and
        more follow the last until there are MIN_SETUPS: the host's load
        drifts within a run, and set-up rounds spread over the whole run see
        the same drift as the runs.  Returns (results, set-up totals)."""
        results, setups = [], []
        timed = 0.0
        while len(results) < MIN_REPEATS or timed < self.seconds:
            setups.append(self.setup_round(paths))
            res = self.cli(args, tag)
            self.check(res.rc == 0, "%s exit %d" % (tag, res.rc))
            if results:
                self.check(res.out == results[0].out,
                           "%s output differs between runs" % tag)
            results.append(res)
            timed += res.wall
        while len(setups) < MIN_SETUPS:
            setups.append(self.setup_round(paths))
        self.note("setup rounds (s): " + " ".join("%.3f" % x for x in setups))
        return results, setups


def cli_metrics(r, results, setups, units):
    n = len(results)
    r.note("run walls (s): " + " ".join("%.3f" % x.wall for x in results))
    r.note("run cpu (s): " + " ".join("%.3f" % x.cpu for x in results))
    wall = median([x.wall for x in results])
    return {
        "wall_s": (wall, "s", n),
        "cpu_s": (median([x.cpu for x in results]), "s", n),
        "peak_rss_mb": (median([x.rss_mb for x in results]), "MB", n),
        "setup_s": (median(setups), "s", len(setups)),
        # units / wall_s: the same measurement as wall_s, not a new one.
        "requests_per_s": (units / wall, "1/s", n),
    }


def giant_identify(r):
    r.anchors()
    [path] = r.gen([GIANT])
    results, setups = r.repeat_cli(
        ["identify", path, "--json", "--jobs", str(JOBS)], "giant", [path])
    text = results[0].out.decode()
    doc = json.loads(text)
    r.check(doc.get("schema_version") == 1 and doc.get("degraded") is None
            and doc["stats"]["reduction_trials"] > 0,
            "giant identify document malformed or degraded")
    if r.seed == DEFAULT_SEED:
        r.check_digest(path, text)
    r.note("giant: %d reduction trials, %d unified subgroups"
           % (doc["stats"]["reduction_trials"],
              doc["stats"]["unified_subgroups"]))
    return cli_metrics(r, results, setups, 1), {}


def family_specs():
    return ["%s:%d" % (p, i) for i in range(1, BATCH_DRAWS + 1) for p in FAMILY]


def family_batch(r):
    r.anchors()
    specs = family_specs()
    paths = r.gen(specs)
    results, setups = r.repeat_cli(
        ["batch"] + paths + ["--json", "--jobs", str(JOBS)], "batch", paths)
    doc = json.loads(results[0].out.decode())
    summary = doc["summary"]
    r.check(summary["ok"] == summary["total"] == len(paths),
            "batch summary %s" % summary)
    for spec, path, entry in zip(specs, paths, doc["entries"]):
        r.check(entry["status"] == "ok", "batch entry %s %s"
                % (spec, entry["status"]))
        r.check(entry["lift"]["equivalence"]["verdict"] == "equivalent",
                "lift verdict for %s" % spec)
        if r.seed == DEFAULT_SEED:
            r.check_digest(path, json.dumps(entry["identify"]))
    return cli_metrics(r, results, setups, len(paths)), {}


# -- serve workloads -----------------------------------------------------

CLI_FOR_OP = {
    "identify": (["identify", "--json"], None),
    "lift": (["lift"], None),
    "evaluate": (["evaluate", "--json"], None),
    "lint": (["evaluate", "--json"], "analysis"),  # lint bytes = evaluate's
}


def oneshot_bytes(r, op, path, tag):
    """(exit code, result bytes) of the one-shot CLI run the daemon must
    reproduce byte for byte."""
    args, member = CLI_FOR_OP[op]
    res = run([r.netrev, args[0], path] + args[1:],
              os.path.join(r.work, tag + ".out"))
    text = res.out.decode().rstrip("\n")
    if res.rc == 0 and member:
        text = raw_member(text, member)
    return res.rc, text


def cold_specs():
    """Designs the daemon has never seen: fresh draws of mid-size profiles."""
    return ["%s:%d" % (COLD_PROFILES[i % len(COLD_PROFILES)], i + 1)
            for i in range(COLD_REQUESTS)]


def warm_daemon(d, reqs, copies):
    """Sends every request `copies` times at once and waits for all replies,
    so each of `copies` workers computes it once.  Returns the statuses."""
    statuses = []
    for req in reqs:
        conns = [loadgen.Conn(d.host, d.port) for _ in range(copies)]
        for c in conns:
            c.send(req)
        for c in conns:
            statuses.append(json.loads(c.read_line())["status"])
            c.close()
    return statuses


def start_warm_daemon(r, args, warm_list, copies):
    """Daemon start to listening plus warming the hot set into every cache
    that will serve it; returns (daemon, seconds)."""
    start = time.perf_counter()
    daemon = Daemon(r.netrev, args, os.path.join(r.work, "serve.log"))
    try:
        statuses = warm_daemon(daemon, warm_list, copies)
    except BaseException:
        daemon.stop()
        raise
    seconds = time.perf_counter() - start
    for status in statuses:
        r.check(status == "ok", "warm-up request status " + status)
    return daemon, seconds


def loadgen_run(r, daemon, mode, reqs, keys, replies):
    """One run of the compiled load generator; returns its output lines.
    The first result bytes of each key are kept in `replies`."""
    job_path = os.path.join(r.work, "job-%s.txt" % mode)
    with open(job_path, "w") as f:
        f.write("%s %d %d\n" % (daemon.host, daemon.port, CONNS))
        for q in reqs:
            f.write("%.9f %s %d %s\n" % (q["t"], q["cls"],
                                         keys[(q["op"], q["design"])],
                                         loadgen.request_line(q)))
    gen = subprocess.run([r.loadgen_exe, mode, job_path, replies],
                         capture_output=True, text=True, timeout=150)
    if not r.check(gen.returncode == 0, "load generator exit %d: %s"
                   % (gen.returncode, gen.stderr.strip()[-300:])):
        raise BenchError("load generator failed")
    return gen.stdout.splitlines()


def check_against_cli(r, keys, replies):
    """Each key's served bytes must equal the one-shot CLI bytes."""
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        futures = {k: pool.submit(oneshot_bytes, r, k[0], k[1], "cli%d" % i)
                   for k, i in keys.items()}
        for (op, path), fut in futures.items():
            rc, text = fut.result()
            if not r.check(rc == 0, "one-shot %s %s exit %d" % (op, path, rc)):
                continue
            served = os.path.join(replies, "k%d.json" % keys[(op, path)])
            if not r.check(os.path.exists(served),
                           "no reply for %s %s" % (op, path)):
                continue
            with open(served) as f:
                r.check(f.read() == text, "served %s %s differs from the "
                        "one-shot CLI bytes" % (op, path))
            if op == "lift":
                r.check(json.loads(text)["equivalence"]["verdict"]
                        == "equivalent", "lift verdict for " + path)
            if op == "identify" and r.seed == DEFAULT_SEED:
                r.check_digest(path, text)


def serve_workload(r, name):
    isolated = name == "serve-isolated"
    args = (["--isolate=2", "--jobs", "2"] if isolated
            else ["--jobs", str(JOBS)])
    # A queue deep enough that nothing is shed, and a cache big enough for
    # the whole request list, so nothing is evicted.
    args += ["--max-queue", "4096", "--cache-entries", "8192"]
    copies = 2 if isolated else 1

    r.anchors()
    hot = r.gen(HOT)
    cold = r.gen(cold_specs())
    schedule = loadgen.build_schedule(r.seed, hot, cold, WARM_REQUESTS,
                                      OPEN_RATE)
    keys = {}
    for q in schedule:
        keys.setdefault((q["op"], q["design"]), len(keys))
    warm_list = [{"id": "w%d" % i, "op": op, "design": path}
                 for i, (op, path) in enumerate(
                     (op, p) for p in hot for op, _ in loadgen.OP_WEIGHTS)]

    replies = os.path.join(r.work, "replies")
    os.makedirs(replies)
    open_s = schedule[-1]["t"]
    setups = []

    # Open loop on the first daemon: latencies, CPU and memory.
    daemon, seconds = start_warm_daemon(r, args, warm_list, copies)
    setups.append(seconds)
    try:
        cpu0 = family_cpu(daemon.pid)
        lines = loadgen_run(r, daemon, "open", schedule, keys, replies)
        cpu_s = family_cpu(daemon.pid) - cpu0
        rss = family_hwm_mb(daemon.pid)
        stats = loadgen.call(daemon.host, daemon.port, "stats")["result"]
        health = loadgen.call(daemon.host, daemon.port, "health")["result"]
    finally:
        rc = daemon.stop()
    r.check(rc == 6, "daemon exit %d (6 = drained)" % rc)

    # Closed loop: each pass sends the same list to a fresh, warmed daemon,
    # so cold requests are cold again and the pass measures capacity on the
    # mix.  Replaying cold designs to one daemon would instead time cache
    # hits, and under --isolate which worker a request happens to reach.
    start = time.perf_counter()
    while (len(setups) < MIN_SETUPS
           or time.perf_counter() - start < r.seconds - open_s):
        daemon, seconds = start_warm_daemon(r, args, warm_list, copies)
        setups.append(seconds)
        try:
            lines += loadgen_run(r, daemon, "closed", schedule, keys, replies)
        finally:
            rc = daemon.stop()
        r.check(rc == 6, "daemon exit %d (6 = drained)" % rc)
    check_against_cli(r, keys, replies)

    lat = {"warm": [], "cold": []}
    late, walls = [], []
    for line in lines:
        f = line.split()
        if f[0] == "pass":
            walls.append(float(f[1]))
            continue
        # open <id> <class> <status> <latency_ms> <late_ms> <same>
        # closed <id> <status> <same>
        status, same = (f[3], f[6]) if f[0] == "open" else (f[2], f[3])
        ok = r.check(status == "ok" and same == "1",
                     "%s request %s: status %s, bytes %s"
                     % (f[0], f[1], status,
                        "same" if same == "1" else "differ"))
        if f[0] == "open":
            lat[f[2]].append(float(f[4]) if ok else float("inf"))
            late.append(float(f[5]))
    r.check(len(late) == len(schedule) and len(walls) == len(setups) - 1,
            "load generator output incomplete")
    r.note("closed-loop pass walls (s): "
           + " ".join("%.3f" % x for x in walls))
    r.note("setup rounds (s): " + " ".join("%.3f" % x for x in setups))

    wall = median(walls)
    metrics = {
        "wall_s": (wall, "s", len(walls)),
        "cpu_s": (cpu_s, "s", 1),
        "peak_rss_mb": (rss, "MB", 1),
        "setup_s": (median(setups), "s", len(setups)),
        # requests / wall_s: the same measurement as wall_s, not a new one.
        "requests_per_s": (len(schedule) / wall, "1/s", len(walls)),
    }
    served = {}
    for cls, q in (("warm", 0.5), ("warm", 0.99), ("cold", 0.5),
                   ("cold", 0.9)):
        name_q = "%s_p%d_ms" % (cls, round(q * 100))
        try:
            served[name_q] = (percentile(lat[cls], q), "ms", len(lat[cls]))
        except TooFewSamples as e:
            r.note("%s not reported: %s" % (name_q, e))
    served["loadgen.late_ms_p99"] = (percentile(late, 0.99), "ms", len(late))
    cache = stats["cache"]
    r.note("daemon: cache hits %d misses %d evictions %d; shed %d; "
           "workers restarted %d" % (
               cache["hits"], cache["misses"], cache["evictions"],
               stats["requests"]["overloaded"],
               health["serve"]["workers"]["restarted"]))
    return metrics, served


WORKLOADS = {
    "giant-identify": giant_identify,
    "family-batch": family_batch,
    "serve-mixed": lambda r: serve_workload(r, "serve-mixed"),
    "serve-isolated": lambda r: serve_workload(r, "serve-isolated"),
}
