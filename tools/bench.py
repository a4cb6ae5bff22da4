"""Run the benchmark and keep its results in a BENCH file, or compare two.

    python3 tools/bench.py --label NAME --seed N [--workload W ...] [--checkout DIR]
    python3 tools/bench.py --compare A.json B.json

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
import statistics
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


def _metrics(path: Path) -> dict:
    """(workload, seed) -> the metrics of each run with a result, in file
    order."""
    out: dict = {}
    for record in json.loads(path.read_text())["runs"]:
        if "result" in record:
            metrics = {name: m["value"] for name, m in record["result"]["metrics"].items()}
            out.setdefault((record["workload"], record["seed"]), []).append(metrics)
    return out


def verdict(xs: list, ys: list, bound: float, better: str) -> str:
    """The verdict on one metric of one workload, from A's runs ``xs`` and
    B's runs ``ys`` paired in order.  ``bound`` is BENCHMARK.json's, read as
    a fraction of A's median (0.25: a quarter of it):

    - ``gain``: B wins at least 9 of 10 pairs (ties count for neither) and
      the medians differ by more than A's interquartile range;
    - ``regression``: B's median is worse than A's by more than the bound;
    - ``unresolved``: A's interquartile range is wider than the bound, unless
      every B run reads better than every A run;
    - ``same`` otherwise."""
    sign = 1.0 if better == "lower" else -1.0
    a, b = [sign * x for x in xs], [sign * y for y in ys]  # lower is better from here on
    low, _, high = statistics.quantiles(a, n=4) if len(a) > 1 else a * 3
    gap = statistics.median(a) - statistics.median(b)  # positive where B is better
    limit = bound * abs(statistics.median(a))
    if 10 * sum(y < x for x, y in zip(a, b)) >= 9 * len(a) and gap > high - low:
        return "gain"
    if -gap > limit:
        return "regression"
    if high - low > limit and not max(b) < min(a):
        return "unresolved"
    return "same"


def compare(a_path: Path, b_path: Path) -> None:
    a, b = _metrics(a_path), _metrics(b_path)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    print("%-9s %-12s %10s %10s %21s %8s  %s"
          % ("workload", "metric", "A median", "B median", "A quartiles", "B better", "verdict"))
    for workload in WORKLOADS:
        pairs = [(x, y) for key in sorted(set(a) & set(b)) if key[0] == workload for x, y in zip(a[key], b[key])]
        if not pairs:
            continue
        for metric in metrics:
            name = metric["name"]
            xs, ys = [x[name] for x, _ in pairs], [y[name] for _, y in pairs]
            low, _, high = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
            wins = sum(y < x if metric["better"] == "lower" else y > x for x, y in zip(xs, ys))
            print("%-9s %-12s %10.4f %10.4f %10.4f %10.4f %4d/%-3d  %s"
                  % (workload, name, statistics.median(xs), statistics.median(ys), low, high, wins, len(pairs),
                     verdict(xs, ys, metric["bound"], metric["better"])))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two BENCH files instead of running")
    parser.add_argument("--label", help="the file written is BENCH_<label>.json")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workload", action="append", choices=WORKLOADS, help="repeatable; default: all three")
    parser.add_argument("--checkout", type=Path, default=ROOT, help="source checkout to benchmark")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.label is None or args.seed is None:
        parser.error("--label and --seed are required to run the benchmark")
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
