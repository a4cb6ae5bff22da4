"""Run one list of CLI commands on two source checkouts and compare the
results byte for byte.

    python3 tools/clidiff.py A B

Runs ``python -m dtsipbc.cli`` from ``A/src`` under ``PYTHONHASHSEED=0`` and
from ``B/src`` under ``PYTHONHASHSEED=12345``, in fresh processes, with the
same commands on each:

* ``ts``, ``rg`` and ``box`` (JSON and DOT), ``checkiso``, ``solve`` (JSON,
  CSV and ``--quotient``), ``quotient`` (the default ``--tol`` and 1e-8) and
  ``checkeq`` on every bundled model of A and on shm-3, the shared-memory
  system with three processors, in both variants;
* ``sweep`` on both bundled shared-memory models: plain, ``--quotient``,
  ``--per-point`` and ``--per-point --quotient``;
* ``sweep`` of ``shared_memory_abstract`` on a two-axis grid (``rho`` and
  the immediate weight ``l``), plain and ``--per-point``, and on a ``rho``
  range whose middle point, 1.0, is out of range (an input error);
* ``sweep`` of ``shared_memory_abstract`` over grids of several blocks of
  points: 999 points, plain, ``--per-point``, ``--quotient`` and
  ``--quotient --tol 1e-8``, and a ``rho`` range whose point 1.0, out of
  range, lies in its second block;
* ``sweep --quotient`` and ``sweep --per-point --quotient`` of a
  generated 4-state model whose partition changes along the grid: 4, 4, 3,
  4 and 4 blocks over ``rho`` = 0.1 … 0.5, so that the quotient route
  solves three runs of points that share a partition;
* ``ts``, ``box``, ``solve`` and ``quotient`` on four models that are input
  errors: an unbound parameter, a probability of 1.5, a barred root and a
  root that is not regular.

It compares the exit code, stdout, stderr and every file written under
``--out``; the one difference it ignores is the ``--out`` directory named in
the ``wrote ...`` lines.  It prints the runs that differ and exits 1 if any
do, else 0.  Given the same checkout twice, it checks that no output depends
on the hash seed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
SEEDS = ("0", "12345")
OUT = "--out"  # in a command, stands for --out and the run's own directory
SWEEP = "rho=0.05:0.95:0.05"
SWEEP_2D = ("--param", "rho=0.1:0.9:0.2", "--param", "l=1:3:1")
SWEEP_MIDDLE_OUT = "rho=0.2:1.8:0.4"  # 0.2, 0.6, 1.0, 1.4, 1.8
# grids of more points than one solver block holds (404 for 9 states)
SWEEP_BLOCKS = "rho=0.001:0.999:0.001"
SWEEP_LATE_OUT = "rho=0.9:1.05:0.0002"  # 1.0 is point 501
# a model whose quotient has 4, 4, 3, 4 and 4 blocks over SWEEP_RUNS: at
# rho = 0.3 both branches step alike and their middle states merge
RUNS_MODEL = ("param rho = 0.1\n"
              "root = [({c},0.5) * ((({a},0.5);({b},rho)) [] (({a},0.5);({b},0.3))) * Stop]\n"
              "index wait = phi[2] + phi[3]\n")
SWEEP_RUNS = "rho=0.1:0.5:0.1"
ERROR_MODELS = {
    "unbound.dtsi": "root = ({a},rho)\n",
    "prob15.dtsi": "root = ({a},1.5)\n",
    "barred.dtsi": "root = ~({a},0.5)\n",
    "irregular.dtsi": "root = [({a},0.5) * (({b},0.5)||({c},0.5)) * ({d},0.5)]\n",
}


def _shm_text(n: int, abstract: bool) -> str:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    return inputs.shm_text(n, abstract)


def commands(a: Path, models: Path) -> List[List[str]]:
    """The command lines, without the program name; model files are written
    under ``models``."""
    names = sorted(p.stem for p in (a / "src" / "dtsipbc" / "models").glob("*.dtsi"))
    for variant, abstract in (("abstract", True), ("concrete", False)):
        path = models / ("shm3-%s.dtsi" % variant)
        path.write_text(_shm_text(3, abstract))
        names.append(str(path))
    out: List[List[str]] = []
    for m in names:
        out += [
            ["ts", m], ["ts", m, "--format", "dot", OUT],
            ["rg", m], ["rg", m, "--format", "dot", OUT],
            ["box", m, OUT], ["box", m, "--format", "dot", OUT],
            ["checkiso", m],
            ["solve", m, OUT], ["solve", m, "--format", "csv", OUT], ["solve", m, "--quotient", OUT],
            ["quotient", m, OUT], ["quotient", m, "--tol", "1e-8", OUT],
            ["checkeq", m],
        ]
    for m in ("shared_memory", "shared_memory_abstract"):
        for flags in ([], ["--quotient"], ["--per-point"], ["--per-point", "--quotient"]):
            out.append(["sweep", m, "--param", SWEEP, *flags, OUT])
    out += [["sweep", "shared_memory_abstract", *SWEEP_2D, OUT],
            ["sweep", "shared_memory_abstract", *SWEEP_2D, "--per-point", OUT],
            ["sweep", "shared_memory_abstract", "--param", SWEEP_MIDDLE_OUT, OUT],
            ["sweep", "shared_memory_abstract", "--param", SWEEP_BLOCKS, OUT],
            ["sweep", "shared_memory_abstract", "--param", SWEEP_BLOCKS, "--per-point", OUT],
            ["sweep", "shared_memory_abstract", "--param", SWEEP_BLOCKS, "--quotient", OUT],
            ["sweep", "shared_memory_abstract", "--param", SWEEP_BLOCKS, "--quotient", "--tol", "1e-8", OUT],
            ["sweep", "shared_memory_abstract", "--param", SWEEP_LATE_OUT, OUT]]
    path = models / "runs.dtsi"
    path.write_text(RUNS_MODEL)
    out += [["sweep", str(path), "--param", SWEEP_RUNS, *flags, OUT]
            for flags in (["--quotient"], ["--per-point", "--quotient"])]
    for name, text in ERROR_MODELS.items():
        path = models / name
        path.write_text(text)
        out += [[command, str(path)] for command in ("ts", "box", "solve", "quotient")]
    return out


def run(checkout: Path, seed: str, argv: List[str], out: Path, cwd: Path) -> Tuple[int, str, str, Dict[str, bytes]]:
    """Exit code, stdout with the ``--out`` directory masked, stderr, and
    the written files by relative path."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONHASHSEED=seed)
    args = [arg for a in argv for arg in ((OUT, str(out)) if a == OUT else (a,))]
    done = subprocess.run([sys.executable, "-m", "dtsipbc.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    stdout = "".join(line.replace(str(out), "<out>") if line.startswith("wrote ") else line
                     for line in done.stdout.splitlines(keepends=True))
    files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return done.returncode, stdout, done.stderr, files


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/clidiff.py A B", file=sys.stderr)
        return 2
    checkouts = [Path(p).resolve() for p in argv]
    for checkout in checkouts:
        if not (checkout / "src" / "dtsipbc" / "cli.py").is_file():
            print("no dtsipbc source under %s" % checkout, file=sys.stderr)
            return 2
    scratch = Path(tempfile.mkdtemp(prefix="clidiff-"))
    try:
        (scratch / "models").mkdir()
        runs = commands(checkouts[0], scratch / "models")

        def both(k: int):
            return [run(checkout, seed, runs[k], scratch / side / str(k), scratch)
                    for checkout, seed, side in zip(checkouts, SEEDS, "AB")]

        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(both, range(len(runs))))
    finally:
        shutil.rmtree(scratch)
    differing = 0
    for argv_k, (a, b) in zip(runs, results):
        parts = [what for what, x, y in zip(("exit code", "stdout", "stderr"), a, b) if x != y]
        names = sorted(name for name in set(a[3]) | set(b[3]) if a[3].get(name) != b[3].get(name))
        if names:
            parts.append("files %s" % ", ".join(names))
        if parts:
            differing += 1
            print("differs: dtsipbc %s: %s" % (" ".join(argv_k), "; ".join(parts)))
    print("%d of %d runs differ" % (differing, len(runs)))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
