"""Run the benchmark and keep its results in a BENCH file.

    python3 tools/bench.py --label NAME --seed N [--workload W ...] [--checkout DIR]

Runs ``perfbench/run.py`` of a source checkout (``--checkout``, by default
this one) once per workload (by default all three), untraced and for the
benchmark's 30 seconds, and appends one record per workload to
``BENCH_<NAME>.json`` at the root of this repository: the seed, the
seconds, the trace flag, the checkout's commit and the last JSON line that
``run.py`` printed.  Run it again with the same label, for
example with another seed or alternating with another label, to add more
runs to the same file.  A run that exits non-zero is recorded with its exit
code and no result, and makes the script exit 1 after the others.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("stepsem", "netscale", "sweep")
SECONDS = 30  # BENCHMARK.json's run_seconds
TRACE = 0


def _commit(checkout: Path) -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _run(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(TRACE)]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    record = {"workload": workload, "seed": seed, "seconds": SECONDS, "trace": TRACE, "exit": done.returncode}
    if done.returncode == 0 and lines:
        record["result"] = json.loads(lines[-1])
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", choices=WORKLOADS, help="repeatable; default: all three")
    parser.add_argument("--checkout", type=Path, default=ROOT, help="source checkout to benchmark")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "perfbench" / "run.py").is_file():
        print("error: %s holds no perfbench/run.py" % checkout, file=sys.stderr)
        return 2

    target = ROOT / ("BENCH_%s.json" % args.label)
    bench = json.loads(target.read_text()) if target.exists() else {"label": args.label, "runs": []}
    commit = _commit(checkout)
    failed = False
    for workload in args.workload or WORKLOADS:
        record = dict(_run(checkout, workload, args.seed), commit=commit)
        failed |= record["exit"] != 0
        bench["runs"].append(record)
        target.write_text(json.dumps(bench, indent=1) + "\n")
        print(json.dumps(record))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
