"""One workload in one single-threaded process.

Started by ``run.py``, never by hand.  It sets up the workload's inputs,
repeats passes over the job list until ``--seconds`` would be exceeded (at
least one pass), optionally appends one traced pass, and prints one JSON
object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy

import workloads
from spans import Tracer


def run_pass(jobs, tracer=None):
    """Run every job once; return (wall seconds, attempted, failure messages)."""
    ctx = {}
    failures = []
    start = time.perf_counter()
    for job_id, job in jobs:
        if tracer is not None:
            tracer.job = job_id
        try:
            job(ctx)
        except Exception as exc:  # a failed job is counted, never fatal
            failures.append("%s: %s: %s" % (job_id, type(exc).__name__, exc))
    return time.perf_counter() - start, len(jobs), failures


def _threads() -> int:
    """OS threads of this process (Linux), or -1 where unknown."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return -1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() of the parent at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    setup = workloads.WORKLOADS[args.workload]
    scratch = Path(args.scratch)
    jobs = setup(args.seed, scratch)
    setup_s = time.monotonic() - args.spawned_at
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    walls, attempted, failures = [], 0, []
    begin = time.perf_counter()
    while True:
        wall, n, failed = run_pass(jobs)
        walls.append(wall)
        attempted += n
        failures += failed
        if time.perf_counter() - begin + wall > args.seconds:
            break
    out.update(walls=walls, peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    if args.trace:
        tracer = Tracer()
        tracer.install(workloads)
        try:
            tracer.job = "setup"
            traced_jobs = setup(args.seed, scratch)
            first_span = len(tracer.spans)
            wall, n, failed = run_pass(traced_jobs, tracer)
        finally:
            tracer.remove()
        attempted += n
        failures += failed
        tracer.write(scratch / ("trace_%s_seed%d.jsonl" % (args.workload, args.seed)))
        out.update(traced_wall=wall, layers=tracer.metrics(),
                   unattributed_s=wall - tracer.top_level_time(first_span))

    out.update(
        attempted=attempted,
        failed=len(failures),
        failures=failures[:20],
        env={
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "threads": _threads(),
        },
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
