"""Command-line driver: parse models, build semantics, solve, reduce, sweep.

Exit codes: 0 success, 1 analysis failure (no unique steady state, systems
not isomorphic or not equivalent, state-space cap, an index undefined on the
solution), 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import export
from .equiv import bisim_equivalent_ts, quotient
from .markov import AnalysisError, Chain, StackResult, evaluate_index_stack, solve_chain, solve_stack
from .models import bundled_model_names, load_model
from .netsem import box_of, build_rg, check_safe_clean
from .opsem import SemanticsError, StateSpaceLimit, build_ts, ts_isomorphic
from .parser import ModelFile, ParseError, grid_point, grid_size

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


def _input_error(grid: Dict[str, object], leaves: np.ndarray, error: Optional[ValueError], probs: np.ndarray,
                 sources: np.ndarray) -> Tuple[int, Optional[CliError]]:
    """The number of grid points before the first that is an input error,
    and that error: where a step probability in ``probs`` (one row per
    point, one column per arc, from the states ``sources``) is not finite,
    because a state's immediate weights sum past the float range, or else
    ``error``, the value out of range after the ``leaves`` rows."""
    undefined = ~np.isfinite(probs)
    failing = np.flatnonzero(undefined.any(axis=1))
    if failing.size:
        k = int(failing[0])
        state = int(sources[np.argmax(undefined[k])])
        return k, CliError("at %s: the immediate weights of state %d sum past the float range"
                           % (grid_point(grid, k), state + 1), INPUT_ERROR)
    return len(leaves), None if error is None else CliError(str(error), INPUT_ERROR)


def _sweep_quotient(args, base_ts, model: ModelFile, indices, grid):
    """Index values on the quotient chain at each point, one list per index,
    one reweighted system after another (the partition depends on the
    values), and the solutions when ``--per-point`` writes them."""
    leaves, error = model.leaf_grid(grid)
    readiness = base_ts.readiness()
    valid, input_error = _input_error(grid, leaves, error, readiness.probabilities(leaves), readiness.source)
    values: Dict[str, List[float]] = {name: [] for name in indices}
    results = []
    for k, row in enumerate(leaves[:valid].tolist()):
        chain = quotient(base_ts.reweight(dict(enumerate(row, 1))), quantum=args.tol).chain()
        solved = solve_stack(chain)
        for name, column in _index_columns(indices, chain, solved, grid, k).items():
            values[name] += column
        if args.per_point:
            results.append(solved.result(0, chain))
    if input_error is not None:
        raise input_error
    return values, results


def _sweep_batch(args, base_ts, model: ModelFile, indices, grid):
    """Index values at every point, one list per index, from one chain of
    the whole grid solved at once, and the solutions when ``--per-point``
    writes them.  It fails at the first point, and with the error, where a
    point-by-point run would: a point's input error comes after any
    analysis error at an earlier point."""
    leaves, error = model.leaf_grid(grid)
    chain = Chain.from_ts(base_ts, leaves)
    valid, input_error = _input_error(grid, leaves, error, chain.probs, chain.sources)
    if valid < len(leaves):
        leaves, chain = leaves[:valid], replace(chain, probs=chain.probs[:valid])
    solved = solve_stack(chain)
    values = _index_columns(indices, chain, solved, grid)
    if input_error is not None:
        raise input_error
    results = []
    if args.per_point:
        # state keys serialize the values, so each point has its own
        results = [solved.result(k, chain.point(k, base_ts.keys_at(dict(enumerate(row, 1)))))
                   for k, row in enumerate(leaves.tolist())]
    return values, results


def _extrema(swept: List[str], names: List[str], columns: Dict[str, List[float]]) -> List[str]:
    """A line per index with finite values: its least and greatest, and where.

    Each is the pick of ``min`` (or ``max``) over the pairs (value, grid
    tuple) of the finite values, the grid tuple holding the ``swept``
    columns: a tie in value goes to the least (greatest) grid tuple, and
    then to the earliest point."""
    at = [np.array(columns[p]) for p in swept]

    def pick(values: np.ndarray, finite: np.ndarray, largest: bool) -> int:
        best = values[finite].max() if largest else values[finite].min()
        tied = finite[values[finite] == best]
        sign = -1.0 if largest else 1.0
        # lexsort is stable and sorts by its last key first
        return int(tied[np.lexsort([sign * column[tied] for column in reversed(at)])[0]])

    def where(k: int) -> str:
        return ",".join("%s=%s" % (p, columns[p][k]) for p in swept)

    lines = []
    for name in names:
        values = np.array(columns[name])
        finite = np.flatnonzero(np.isfinite(values))
        if finite.size:
            lo, hi = pick(values, finite, False), pick(values, finite, True)
            lines.append("index %s: min %.6g at %s; max %.6g at %s"
                         % (name, columns[name][lo], where(lo), columns[name][hi], where(hi)))
    return lines


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
    base_ts = build_ts(_instantiate(model, grid_point(grid, 0)), max_states=args.max_states)

    sweep = _sweep_quotient if args.quotient else _sweep_batch
    values, results = sweep(args, base_ts, model, indices, grid)
    # an index named as a swept parameter takes its column, as in a row dictionary
    columns: Dict[str, List[float]] = {name: grid[name].tolist() for name in swept}
    columns.update(values)

    note = "sweep over %s; grid steps %s" % (",".join(swept), ",".join(str(steps[n]) for n in swept))
    _emit(args, "sweep.csv", export.sweep_csv(swept, sorted(indices), columns, header_note=note))

    for k, result in enumerate(results):
        _write(Path(args.out) / "points" / ("point_%05d.csv" % (k + 1)), export.states_csv(result))

    for line in _extrema(swept, sorted(indices), columns):
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
    solve.add_argument("--quotient", action="store_true", help="solve the bisimulation quotient instead")
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
    sweep.add_argument("--quotient", action="store_true", help="evaluate on the quotient chain")
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
