"""Traced run: per-layer metrics from perfbench_trace (src/trace.cpp).

perfbench_trace links the netrev libraries, wraps each module's public calls in
spans and harvests the counters the program already keeps.  It runs over the
same generated inputs as the workload's timed run; the serve workloads trace
their hot set plus the first TRACE_COLD cold designs.
"""

import json
import os
import subprocess

from pb import workloads as w
from pb.procs import BenchError

TRACE_COLD = 12

# name -> unit, in the order BENCHMARK.json lists them.
UNITS = {
    "parser.parse_s": "s",
    "parser.mb_per_s": "MB/s",
    "netlist.compact_build_ms": "ms",
    "netlist.compact_bytes_per_gate": "B/gate",
    "wordrec.identify_s": "s",
    "wordrec.grouping_s": "s",
    "wordrec.hashing_cpu_s": "s",
    "wordrec.matching_cpu_s": "s",
    "wordrec.control_cpu_s": "s",
    "wordrec.reduction_cpu_s": "s",
    "wordrec.cones_hashed": "count",
    "wordrec.pairs_compared": "count",
    "wordrec.subtrees_diffed": "count",
    "wordrec.reduction_trials": "count",
    "wordrec.reduction_us_per_trial": "us",
    "wordrec.unified_share": "ratio",
    "wordrec.trial_yield": "ratio",
    "sim.sample_ms": "ms",
    "sim.vectors_per_s": "1/s",
    "lift.lift_s": "s",
    "lift.ops": "count",
    "lift.verified_share": "ratio",
    "analysis.dataflow_s": "s",
    "analysis.lint_s": "s",
    "analysis.findings": "count",
    "eval.evaluate_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.evictions": "count",
    "cache.hit_ratio": "ratio",
    "cache.warm_hit_ms": "ms",
    "batch.run_s": "s",
    "batch.parallel_efficiency": "ratio",
    "protocol.exec_warm_ms_p50": "ms",
    "protocol.exec_cold_ms": "ms",
    "protocol.response_kb": "KB",
    "serve.overhead_ms_p50": "ms",
    "serve.queue_max": "count",
    "serve.shed": "count",
    "supervisor.roundtrip_ms_p50": "ms",
    "supervisor.ipc_ms_p50": "ms",
    "supervisor.restarts": "count",
    "thread_pool.utilisation": "ratio",
    "trace.overhead_share": "ratio",
}


def inputs(r, workload):
    """The generated designs a workload's traced run walks."""
    if workload == "giant-identify":
        return r.gen([w.GIANT])
    if workload == "family-batch":
        return r.gen(w.family_specs())
    return r.gen(w.HOT) + r.gen(w.cold_specs()[:TRACE_COLD])


def run_traced(r, workload):
    r.anchors()
    paths = inputs(r, workload)
    jobs = 2 if workload == "serve-isolated" else w.JOBS
    spans_dir = os.path.join(os.path.dirname(os.path.dirname(r.work)), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-%d.json" % (workload, r.seed))
    proc = subprocess.run(
        [r.trace_exe, "--netrev", r.netrev, "--jobs", str(jobs),
         "--seconds", str(r.seconds), "--spans", spans] + paths,
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError("perfbench_trace exit %d: %s"
                         % (proc.returncode, proc.stderr.strip()[-500:]))
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    r.attempted += doc["attempted"]
    r.failures.extend(doc["failures"])
    r.failures.extend(["perfbench_trace check failed"] *
                      (doc["failed"] - len(doc["failures"])))
    r.note("perfbench_trace: %d pass(es); spans in %s"
           % (doc["passes"], os.path.relpath(spans)))
    got = doc["metrics"]
    missing = set(UNITS) - set(got)
    if missing:
        raise BenchError("perfbench_trace lacks " + ", ".join(sorted(missing)))
    return {name: (got[name], unit, doc["passes"])
            for name, unit in UNITS.items()}
