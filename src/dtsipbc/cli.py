"""Command-line driver: parse models, build semantics, solve, reduce, sweep.

Exit codes: 0 success, 1 analysis failure (no unique steady state, systems
not isomorphic or not equivalent, state-space cap, an index undefined on the
solution), 2 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import export
from .equiv import bisim_equivalent_ts, lump, quotient
from .markov import AnalysisError, Chain, StackResult, evaluate_index_stack, solve_chain, solve_stack
from .models import bundled_model_names, load_model
from .netsem import box_of, build_rg, check_safe_clean
from .opsem import SemanticsError, StateSpaceLimit, build_ts, ts_isomorphic
from .parser import ModelFile, ParseError, grid_block, grid_point, grid_size

ANALYSIS_ERROR, INPUT_ERROR = 1, 2


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _parse_param(text: str) -> Tuple[str, object]:
    if "=" not in text:
        raise CliError("bad --param %r, expected name=value or name=start:stop:step" % text, INPUT_ERROR)
    name, _, value = text.partition("=")
    try:
        numbers = tuple(float(p) for p in value.split(":"))
    except ValueError:
        raise CliError("bad --param %r, %r is not a number" % (text, value), INPUT_ERROR) from None
    if len(numbers) == 1:
        return name, numbers[0]
    if len(numbers) != 3:
        raise CliError("bad sweep range %r, expected start:stop:step" % value, INPUT_ERROR)
    if not numbers[2] > 0:
        raise CliError("bad sweep range %r, the step must be positive" % value, INPUT_ERROR)
    return name, numbers


def _load(args) -> Tuple[ModelFile, Dict[str, object]]:
    """The model, and its ``--param`` values: numbers, and for ``sweep``
    (start, stop, step) ranges.  A name given twice, one the model neither
    declares nor reads, or a range given to another command is an input
    error."""
    try:
        model = load_model(args.model)
    except FileNotFoundError as exc:
        raise CliError(str(exc), INPUT_ERROR)
    except OSError as exc:  # a directory, or a file that cannot be read
        raise CliError("cannot read model %s: %s" % (args.model, exc.strerror or exc), INPUT_ERROR)
    except UnicodeDecodeError as exc:
        raise CliError("cannot read model %s: not UTF-8 text (%s at byte %d)" % (args.model, exc.reason, exc.start),
                       INPUT_ERROR)
    except ParseError as exc:
        raise CliError("parse error: %s" % exc, INPUT_ERROR)
    known = model.parameter_names()
    overrides: Dict[str, object] = {}
    for item in args.param:
        name, value = _parse_param(item)
        if name in overrides:
            raise CliError("--param %s is given twice" % name, INPUT_ERROR)
        if name not in known:
            raise CliError("model has no parameter named %r" % name, INPUT_ERROR)
        if isinstance(value, tuple) and args.command != "sweep":
            raise CliError("--param %s is a range; ranges belong to sweep" % name, INPUT_ERROR)
        overrides[name] = value
    return model, overrides


def _instantiate(model: ModelFile, overrides: Dict[str, float]):
    try:
        return model.instantiate(overrides)
    except (ParseError, ValueError) as exc:
        raise CliError(str(exc), INPUT_ERROR)


def _index_columns(indices: Dict[str, tuple], chain: Chain, solved: StackResult,
                   grid: Optional[Dict[str, object]] = None, first: int = 0) -> Dict[str, List[float]]:
    """The named index values at every point of a solved chain, one list per
    index.  The first point where the solver or an index fails is an
    analysis failure, with the solver's error there, or else that of the
    first index undefined there (a division by zero, a state the chain does
    not have); when a sweep ``grid`` is given, the message names the point,
    the chain's point k being the grid's point ``first + k``."""
    evaluated = {name: evaluate_index_stack(expr, chain, solved) for name, expr in indices.items()}
    failed = np.not_equal(np.array(solved.errors, dtype=object), None)
    for _, errors in evaluated.values():
        failed |= np.not_equal(np.array(errors, dtype=object), None)
    if failed.any():
        k = int(np.argmax(failed))
        error = solved.errors[k] or next(
            AnalysisError("index %s: %s" % (name, errors[k])) for name, (_, errors) in evaluated.items()
            if errors[k] is not None
        )
        if grid is not None:
            raise CliError("analysis error at %s: %s" % (grid_point(grid, first + k), error), ANALYSIS_ERROR)
        detail = ""
        if error.closed_classes:
            detail = "; closed classes: %s" % [[i + 1 for i in c] for c in error.closed_classes]
        raise CliError("analysis error: %s%s" % (error, detail), ANALYSIS_ERROR)
    return {name: values.tolist() for name, (values, _) in evaluated.items()}


def _emit(args, filename: str, text: str) -> None:
    if args.out:
        target = Path(args.out) / filename
        _write(target, text)
        print("wrote %s" % target)
    else:
        sys.stdout.write(text)


def _write(target: Path, text: str) -> None:
    """Write a file under ``--out``, making its directory; a path that
    cannot be written is an input error."""
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError("cannot write %s: %s" % (target, exc.strerror or exc), INPUT_ERROR)


def _selected_indices(model: ModelFile, names: Optional[List[str]]) -> Dict[str, tuple]:
    if not names:
        return dict(model.indices)
    out = {}
    for name in names:
        if name not in model.indices:
            raise CliError("model defines no index named %r" % name, INPUT_ERROR)
        out[name] = model.indices[name]
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ts(args) -> int:
    model, overrides = _load(args)
    ts = build_ts(_instantiate(model, overrides), max_states=args.max_states)
    if args.format == "dot":
        _emit(args, "ts.dot", export.ts_dot(ts))
    else:
        _emit(args, "ts.json", export.dumps(export.ts_json(ts, include_members=args.members)))
    tangible = sum(s.tangible for s in ts.states)
    print("states: %d (%d tangible, %d vanishing)" % (len(ts.states), tangible, len(ts.states) - tangible),
          file=sys.stderr)
    return 0


def cmd_box(args) -> int:
    model, overrides = _load(args)
    expr = _instantiate(model, overrides)
    box = box_of(expr)
    if args.format == "dot":
        _emit(args, "net.dot", export.box_dot(box))
    else:
        _emit(args, "net.json", export.dumps(export.box_json(box)))
    report = check_safe_clean(box, max_states=args.max_states)
    if not report.ok:
        raise CliError(
            "structural check failed: safe=%s clean=%s witness=%s"
            % (report.safe, report.clean, report.unsafe_witness or report.unclean_witness),
            ANALYSIS_ERROR,
        )
    print("net: %d places, %d transitions; safe and clean over %d markings"
          % (len(box.places), len(box.transitions), report.marking_count), file=sys.stderr)
    return 0


def cmd_rg(args) -> int:
    model, overrides = _load(args)
    expr = _instantiate(model, overrides)
    rg = build_rg(box_of(expr), max_states=args.max_states)
    if args.format == "dot":
        _emit(args, "rg.dot", export.ts_dot(rg, name="rg"))
    else:
        _emit(args, "rg.json", export.dumps(export.ts_json(rg)))
    return 0


def cmd_checkiso(args) -> int:
    model, overrides = _load(args)
    expr = _instantiate(model, overrides)
    ts = build_ts(expr, max_states=args.max_states)
    box = box_of(expr)
    rg = build_rg(box, max_states=args.max_states)
    report = check_safe_clean(box, max_states=args.max_states)
    mapping = ts_isomorphic(ts, rg, tol=args.tol)
    if mapping is None:
        print("NOT isomorphic: ts has %d states, rg has %d" % (len(ts.states), len(rg.states)))
        return ANALYSIS_ERROR
    if not report.ok:
        print("isomorphic, but the net is not safe/clean (witness %s)"
              % (report.unsafe_witness or report.unclean_witness))
        return ANALYSIS_ERROR
    print("isomorphic: %d states correspond; net safe and clean" % len(mapping))
    return 0


def cmd_solve(args) -> int:
    model, overrides = _load(args)
    indices = _selected_indices(model, args.index)
    ts = build_ts(_instantiate(model, overrides), max_states=args.max_states)
    chain = quotient(ts, quantum=args.tol).chain() if args.quotient else Chain.from_ts(ts)
    solved = solve_stack(chain)
    values = {name: column[0] for name, column in _index_columns(indices, chain, solved).items()}
    result = solved.result(0, chain)
    if args.format == "csv":
        _emit(args, "states.csv", export.states_csv(result))
    else:
        _emit(args, "solve.json", export.dumps(export.solve_json(result, values)))
    for name in sorted(values):
        print("index %s = %.10g" % (name, values[name]), file=sys.stderr)
    return 0


def cmd_quotient(args) -> int:
    model, overrides = _load(args)
    ts = build_ts(_instantiate(model, overrides), max_states=args.max_states)
    q = quotient(ts, quantum=args.tol)
    payload = export.quotient_json(q)
    try:
        result = solve_chain(q.chain())
        payload["solution"] = export.solve_json(result)
    except AnalysisError as exc:
        payload["solution_error"] = str(exc)
    _emit(args, "quotient.json", export.dumps(payload))
    print("blocks: %d (from %d states)" % (q.size, len(ts.states)), file=sys.stderr)
    return 0


def cmd_checkeq(args) -> int:
    model, overrides = _load(args)
    if model.peer is None:
        raise CliError("model defines no peer expression to compare against", INPUT_ERROR)
    root = _instantiate(model, overrides)
    try:
        peer = model.instantiate_peer(overrides)
    except (ParseError, ValueError) as exc:
        raise CliError(str(exc), INPUT_ERROR)
    result = bisim_equivalent_ts(build_ts(root, max_states=args.max_states),
                                 build_ts(peer, max_states=args.max_states), quantum=args.tol)
    if result.equivalent:
        print("equivalent: initial states share a block (%d blocks over the union)" % result.partition.size)
        return 0
    print("NOT equivalent: initial states lie in different blocks")
    return ANALYSIS_ERROR


def _input_error(grid: Dict[str, object], first: int, error: Optional[ValueError], chain: Chain
                 ) -> Tuple[int, Optional[CliError]]:
    """The number of points of a block's ``chain``, from grid point
    ``first`` on, before the first that is an input error, and that error:
    where a step probability is not finite, because a state's immediate
    weights sum past the float range, or else ``error``, the value out of
    range after the chain's last point."""
    undefined = ~np.isfinite(chain.probs)
    failing = np.flatnonzero(undefined.any(axis=1))
    if failing.size:
        k = int(failing[0])
        state = int(chain.sources[np.argmax(undefined[k])])
        return k, CliError("at %s: the immediate weights of state %d sum past the float range"
                           % (grid_point(grid, first + k), state + 1), INPUT_ERROR)
    return len(chain.probs), None if error is None else CliError(str(error), INPUT_ERROR)


# the entries of the (points, n, n) stack that a sweep solves at once: a
# block of max(1, _SWEEP_BUDGET // n**2) points of an n-state system, so
# that a sweep's memory grows with neither its grid nor its block
_SWEEP_BUDGET = 1 << 15


def _runs(chain: Chain, quantum: Optional[float]):
    """The runs of consecutive points of a block's chain that are solved as
    one stack, each with its first point: without a ``quantum``, the chain
    itself; with one (``--quotient``), each run of points that lump by one
    partition, as the chain over its blocks at those points.  Equal
    partitions of one chain's points give lumped chains that differ only in
    their probabilities."""
    if quantum is None:
        yield 0, chain
        return
    start = 0
    points = (lump(chain.point(k, chain.keys), quantum=quantum) for k in range(len(chain.probs)))
    for _, run in itertools.groupby(points, key=lambda lumped: lumped[0].block_of):
        chains = [lumped for _, lumped in run]
        yield start, replace(chains[0], probs=np.concatenate([c.probs for c in chains]))
        start += len(chains)


def _sweep_blocks(args, base_ts, model: ModelFile, indices, grid):
    """The grid solved a block of points at a time: for each block, its
    first point and the point after its last, the index values there, one
    list per index, and the solutions when ``--per-point`` writes them.

    Each block is one chain, ``base_ts`` at the leaf values of its slice of
    the grid, and each of its runs (``_runs``) is solved as one stack: the
    whole block, or with ``--quotient`` each run of points whose quotients
    share a partition, as the partition depends on the values.  It fails at
    the first point, and with the error, where a point-by-point run would:
    a point's input error comes after any analysis error at an earlier
    point."""
    size = len(base_ts.states)
    points = max(1, _SWEEP_BUDGET // (size * size))
    for first in range(0, grid_size(grid), points):
        leaves, error = model.leaf_grid(grid_block(grid, first, first + points))
        chain = Chain.from_ts(base_ts, leaves)
        valid, input_error = _input_error(grid, first, error, chain)
        if valid:
            chain = replace(chain, probs=chain.probs[:valid])  # only the points before the input error are solved
            values: Dict[str, List[float]] = {name: [] for name in indices}
            results = []
            for start, run in _runs(chain, args.tol if args.quotient else None):
                solved = solve_stack(run)
                for name, column in _index_columns(indices, run, solved, grid, first + start).items():
                    values[name] += column
                if args.per_point:
                    # a system's state keys serialize the values, so each point has its own
                    rows = leaves[start:start + len(run.probs)].tolist()
                    keys = [run.keys if args.quotient else base_ts.keys_at(dict(enumerate(row, 1))) for row in rows]
                    results += [solved.result(k, run.point(k, point_keys)) for k, point_keys in enumerate(keys)]
            yield first, first + valid, values, results
        if input_error is not None:
            raise input_error


class _Extrema:
    """The extrema lines of a sweep, read a block of points at a time.

    For each index it keeps its least and its greatest finite value so far,
    each with its grid tuple, the point's ``swept`` columns: a tie in value
    goes to the least (greatest) grid tuple, and then to the earliest
    point.  Each block makes one pick over the entry kept, which comes
    first, and the block's points."""

    def __init__(self, swept: List[str], names: List[str]):
        self.swept, self.names = swept, names
        self.kept: Dict[Tuple[str, bool], List[float]] = {}

    def add(self, columns: Dict[str, List[float]]) -> None:
        for name in self.names:
            block = np.array([columns[c] for c in [name, *self.swept]], dtype=float)
            for largest in (False, True):
                kept = self.kept.get((name, largest))
                table = block if kept is None else np.column_stack((kept, block))
                finite = np.flatnonzero(np.isfinite(table[0]))
                if finite.size:
                    sign = -1.0 if largest else 1.0
                    # lexsort is stable and sorts by its last key first: the value
                    k = finite[np.lexsort(sign * table[::-1, finite])[0]]
                    self.kept[name, largest] = table[:, k].tolist()

    def lines(self) -> List[str]:
        """A line per index with finite values: its least and greatest, and
        where."""

        def where(at: List[float]) -> str:
            return ",".join("%s=%s" % (p, v) for p, v in zip(self.swept, at))

        lines = []
        for name in self.names:
            if (name, False) in self.kept:
                lo, hi = self.kept[name, False], self.kept[name, True]
                lines.append("index %s: min %.6g at %s; max %.6g at %s" % (name, lo[0], where(lo[1:]), hi[0],
                                                                          where(hi[1:])))
        return lines


@contextlib.contextmanager
def _staged(args):
    """Where a sweep writes its table and its point files: an open text
    file, and the directory for point files (None without ``--out``).

    Both are staged, and published only when the block ends without an
    error, so that a failing sweep writes nothing: under ``--out``, in a
    hidden directory there, whose files then replace ``sweep.csv`` and the
    files of ``points/``; on stdout, in a spooled temporary file that is
    then copied to stdout.  A directory of ``--out`` that the sweep made is
    removed again when it fails."""
    if not args.out:
        with tempfile.SpooledTemporaryFile(max_size=1 << 20, mode="w+", encoding="utf-8") as spool:
            yield spool, None
            spool.seek(0)
            shutil.copyfileobj(spool, sys.stdout)
        return
    out = Path(args.out)
    target = out / "sweep.csv"
    made = list(itertools.takewhile(lambda d: not d.exists(), [out, *out.parents]))
    try:
        out.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(prefix=".sweep-", dir=out))
    except OSError as exc:
        raise CliError("cannot write %s: %s" % (target, exc.strerror or exc), INPUT_ERROR)
    published = False
    try:
        with open(stage / "sweep.csv", "w", encoding="utf-8") as table:
            yield table, stage / "points"
        if (stage / "points").is_dir():
            (out / "points").mkdir(exist_ok=True)
            for path in sorted((stage / "points").iterdir()):
                os.replace(path, out / "points" / path.name)
        os.replace(stage / "sweep.csv", target)
        published = True
    except OSError as exc:
        raise CliError("cannot write %s: %s" % (target, exc.strerror or exc), INPUT_ERROR)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
        if not published:
            for directory in made:
                with contextlib.suppress(OSError):
                    directory.rmdir()
    print("wrote %s" % target)


def cmd_sweep(args) -> int:
    model, overrides = _load(args)
    indices = _selected_indices(model, args.index)
    if not indices:
        raise CliError("no indices to evaluate: define some in the model or pass --index", INPUT_ERROR)
    if args.per_point and not args.out:
        raise CliError("--per-point writes one file per point and needs --out", INPUT_ERROR)
    try:
        grid = model.sweep_grid(overrides)
    except ValueError as exc:  # a range with a step <= 0, a bound not finite, too many points
        raise CliError(str(exc), INPUT_ERROR)
    if grid_size(grid) <= 1:
        raise CliError("sweep needs at least one ranged parameter (name=start:stop:step)", INPUT_ERROR)
    steps = {name: rng[2] for name, rng in model.sweep_axes(overrides)}
    swept = sorted(steps)
    names = sorted(indices)
    for name in names:
        if name in steps:  # the two would share one column of sweep.csv
            raise CliError("index %s has the name of a swept parameter" % name, INPUT_ERROR)
    base_ts = build_ts(_instantiate(model, grid_point(grid, 0)), max_states=args.max_states)

    note = "sweep over %s; grid steps %s" % (",".join(swept), ",".join(str(steps[n]) for n in swept))
    extrema = _Extrema(swept, names)
    with _staged(args) as (table, points):
        for first, stop, values, results in _sweep_blocks(args, base_ts, model, indices, grid):
            columns: Dict[str, List[float]] = {name: grid[name][first:stop].tolist() for name in swept}
            columns.update(values)
            table.write(export.sweep_csv(swept, names, columns, header_note=note, header=first == 0))
            for k, result in enumerate(results, first + 1):
                _write(points / ("point_%05d.csv" % k), export.states_csv(result))
            extrema.add(columns)

    for line in extrema.lines():
        print(line, file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------


def _add_common(sub, with_format=True):
    sub.add_argument("model", help="bundled model name (%s) or path to a .dtsi file" % ", ".join(bundled_model_names()))
    sub.add_argument("--param", action="append", default=[], help="name=value or name=start:stop:step")
    sub.add_argument("--out", help="directory for artifacts (default: stdout)")
    sub.add_argument("--max-states", type=int, default=100_000)
    sub.add_argument("--tol", type=float, default=1e-9, help="probability comparison tolerance")
    if with_format:
        sub.add_argument("--format", choices=("json", "dot"), default="json")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dtsipbc", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    ts = commands.add_parser("ts", help="build the transition system")
    _add_common(ts)
    ts.add_argument("--members", action="store_true", help="include class members in the JSON")
    ts.set_defaults(func=cmd_ts)

    box = commands.add_parser("box", help="build the net and check safeness/cleanness")
    _add_common(box)
    box.set_defaults(func=cmd_box)

    rg = commands.add_parser("rg", help="build the net's reachability graph")
    _add_common(rg)
    rg.set_defaults(func=cmd_rg)

    checkiso = commands.add_parser("checkiso", help="verify the transition system matches the reachability graph")
    _add_common(checkiso, with_format=False)
    checkiso.set_defaults(func=cmd_checkiso)

    solve = commands.add_parser("solve", help="stationary analysis and performance indices")
    _add_common(solve, with_format=False)
    solve.add_argument("--format", choices=("json", "csv"), default="json")
    solve.add_argument("--index", action="append", help="evaluate only this named index (repeatable)")
    solve.add_argument("--quotient", action="store_true",
                       help="solve the bisimulation quotient instead; phi[k], psi[k] and sj[k] then read "
                            "quotient block k, as numbered in quotient.json")
    solve.set_defaults(func=cmd_solve)

    quot = commands.add_parser("quotient", help="reduce modulo step stochastic bisimulation")
    _add_common(quot, with_format=False)
    quot.set_defaults(func=cmd_quotient)

    checkeq = commands.add_parser("checkeq", help="decide equivalence of the model's root and peer")
    _add_common(checkeq, with_format=False)
    checkeq.set_defaults(func=cmd_checkeq)

    sweep = commands.add_parser("sweep", help="evaluate indices over a parameter grid")
    _add_common(sweep, with_format=False)
    sweep.add_argument("--index", action="append", help="evaluate only this named index (repeatable)")
    sweep.add_argument("--quotient", action="store_true",
                       help="evaluate on the quotient chain; phi[k], psi[k] and sj[k] then read quotient "
                            "block k, as numbered in quotient.json")
    sweep.add_argument("--jobs", type=int, default=min(8, os.cpu_count() or 1),
                       help="accepted for compatibility and ignored: points are solved one after another")
    sweep.add_argument("--per-point", action="store_true", help="also write one state CSV per grid point")
    sweep.set_defaults(func=cmd_sweep)

    return parser


# one parser for every call of ``main``: building it takes milliseconds and
# leaves hundreds of objects in reference cycles for the garbage collector
_parser = functools.lru_cache(maxsize=None)(build_arg_parser)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if not args.tol > 0:
            raise CliError("--tol must be positive, got %r" % args.tol, INPUT_ERROR)
        if not sys.float_info.min <= args.tol < math.inf:
            raise CliError("--tol must be finite and at least %r, got %r" % (sys.float_info.min, args.tol),
                           INPUT_ERROR)
        if not args.max_states > 0:
            raise CliError("--max-states must be positive, got %d" % args.max_states, INPUT_ERROR)
        return args.func(args)
    # the message only: the exception would keep its traceback's frames alive
    except CliError as exc:
        message, code = str(exc), exc.code
    except StateSpaceLimit as exc:
        message, code = str(exc), ANALYSIS_ERROR
    except RecursionError:  # a size cap, as the state-space limit is
        message, code = "model nested too deeply (recursion limit %d)" % sys.getrecursionlimit(), ANALYSIS_ERROR
    except SemanticsError as exc:  # a malformed model
        message, code = str(exc), INPUT_ERROR
    except BrokenPipeError:
        return 0
    print("error: %s" % message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
