"""Benchmark of dtsipbc: one command, three workloads.

    python3 perfbench/run.py --workload stepsem|netscale|sweep --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing is installed or built, the
package is imported from ``src/``.  Each workload runs in its own process
with one BLAS thread.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics ``setup_s`` (median of several
  fresh-process set-ups), ``wall_s`` (median over the passes that fit in
  ``--seconds``, at least one) and ``peak_rss_mb``;
* ``--trace 1``: the per-layer metrics of one extra traced pass, and
  ``trace.overhead_s``, the traced pass minus the untraced median.

The lines above it say the same for a reader, with ``fail_ratio`` and the
environment (Python, numpy, cores, BLAS threads).  See ``BENCHMARK.json``
for why each workload was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stepsem", "netscale", "sweep")
SETUP_PROBES = 6  # extra fresh-process set-ups; with the main worker's, 7 samples
DEADLINE_S = 170.0  # the whole run, setup probes included


def _worker(args, scratch: Path, deadline: float, setup_only: bool) -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--scratch", str(scratch)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError("workload process exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _line(name: str, value, unit: str, note: str = "") -> None:
    print("%-26s %14s %-6s %s" % (name, value if isinstance(value, str) else "%.6g" % value, unit, note))


def _report_layers(result: dict, wall_s: float) -> dict:
    print("untraced wall_s %.6g s (median); traced pass %.6g s" % (wall_s, result["traced_wall"]))
    metrics = {}
    for name, value, unit, note in result["layers"]:
        if unit == "s":
            note = "%5.1f%% of untraced wall_s" % (100.0 * value / wall_s)
        _line(name, value if unit != "count" else str(value), unit, note)
        metrics[name] = {"value": value, "unit": unit}
    _line("(benchmark's own checks)", result["unattributed_s"], "s",
          "%5.1f%% of untraced wall_s" % (100.0 * result["unattributed_s"] / wall_s))
    overhead = result["traced_wall"] - wall_s
    _line("trace.overhead_s", overhead, "s")
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "dtsipbc" / "__init__.py").is_file():
        print("error: %s holds no dtsipbc sources (src/dtsipbc); run from a source checkout" % ROOT,
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    scratch = ROOT / ".perfbench_runs" / ("%s-seed%d" % (args.workload, args.seed))
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            setups = [_worker(args, scratch, deadline, True)["setup_s"] for _ in range(SETUP_PROBES)]
        result = _worker(args, scratch, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    env = result["env"]
    print("perfbench %s seed=%d seconds=%d: Python %s, numpy %s, nproc %s, OPENBLAS_NUM_THREADS=%s, "
          "worker threads %s" % (args.workload, args.seed, args.seconds, env["python"], env["numpy"],
                                  env["nproc"], env["OPENBLAS_NUM_THREADS"], env["threads"]))
    for message in result["failures"]:
        print("FAILED %s" % message)
    walls = result["walls"]
    wall_s = statistics.median(walls)
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = _report_layers(result, wall_s)
    else:
        setups.append(result["setup_s"])
        setup_s = statistics.median(setups)
        _line("setup_s", setup_s, "s", "median of %d set-ups: %s" % (len(setups), " ".join("%.4f" % s for s in setups)))
        _line("wall_s", wall_s, "s", "median of %d passes: %s" % (len(walls), " ".join("%.4f" % w for w in walls)))
        _line("peak_rss_mb", result["peak_rss_mb"], "MiB")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
        }
    _line("fail_ratio", failed / attempted, "ratio", "%d failed / %d attempted jobs" % (failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
