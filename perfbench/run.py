#!/usr/bin/env python3
"""netrev benchmark command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds netrev and the benchmark tools into
$CARGO_TARGET_DIR (default .bench_build), generates the workload's inputs
from the seed, times the workload, checks every output, and prints a host
block, a human-readable metric table and, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}.  --trace 1 reports the
per-layer metrics of perfbench_trace instead of the end-to-end ones.
See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from pb import procs, trace, workloads  # noqa: E402


def host_block(build_dir):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = "unknown"
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ("host: nproc=%d cpu=%r build=%s python=%s"
            % (os.cpu_count(), model, build_type, platform.python_version()))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="rewrite digests.json from this run (default seed)")
    args = ap.parse_args()
    if args.record_digests and args.seed != workloads.DEFAULT_SEED:
        ap.error("--record-digests needs the default seed")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    try:
        tools = procs.build(HERE, build_dir, workloads.JOBS)
    except (procs.BenchError, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    work = os.path.join(build_dir, "runs", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    r = workloads.Run(tools, work, args.seed, args.seconds, args.record_digests)
    try:
        if args.trace:
            metrics = trace.run_traced(r, args.workload)
            extra = {}
        else:
            metrics, extra = workloads.WORKLOADS[args.workload](r)
    except procs.BenchError as e:
        # No complete metric set: report the reason and no result.
        print("perfbench: %s" % e, file=sys.stderr)
        for what in r.failures[:20]:
            print("FAILED: " + what, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.record_digests:
        with open(workloads.DIGESTS, "w") as f:
            json.dump(r.digests, f, indent=1, sort_keys=True)
            f.write("\n")

    print(host_block(build_dir))
    print("workload: %s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for name, (value, unit, n) in list(metrics.items()) + list(extra.items()):
        print("  %-34s %14.4f %-6s n=%d" % (name, value, unit, n))
    attempted = max(r.attempted, 1)
    failed = len(r.failures)
    print("  %-34s %14.4f %-6s n=%d" % ("failed_share", failed / attempted,
                                        "ratio", attempted))
    for line in r.report:
        print("  " + line)
    for what in r.failures[:20]:
        print("FAILED: " + what)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
