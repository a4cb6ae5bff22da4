"""Command-line driver: parse models, build semantics, solve, reduce, sweep.

Exit codes: 0 success, 1 analysis failure (no unique steady state, systems
not isomorphic or not equivalent, state-space cap, an index undefined on the
solution), 2 input error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import export
from .equiv import bisim_equivalent_ts, quotient
from .markov import AnalysisError, Chain, ChainStack, evaluate_index, evaluate_index_stack, solve_chain, solve_stack
from .models import bundled_model_names, load_model
from .netsem import box_of, build_rg, check_safe_clean
from .opsem import SemanticsError, StateSpaceLimit, build_ts, ts_isomorphic
from .parser import ModelFile, ParseError

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


def _split_params(raw: List[str]) -> Tuple[Dict[str, float], Dict[str, Tuple[float, float, float]]]:
    scalars: Dict[str, float] = {}
    ranges: Dict[str, Tuple[float, float, float]] = {}
    for item in raw or []:
        name, value = _parse_param(item)
        if isinstance(value, tuple):
            ranges[name] = value
        else:
            scalars[name] = value
    return scalars, ranges


def _load(args) -> ModelFile:
    try:
        return load_model(args.model)
    except FileNotFoundError as exc:
        raise CliError(str(exc), INPUT_ERROR)
    except ParseError as exc:
        raise CliError("parse error: %s" % exc, INPUT_ERROR)


def _instantiate(model: ModelFile, overrides: Dict[str, float]):
    try:
        return model.instantiate(overrides)
    except (ParseError, ValueError) as exc:
        raise CliError(str(exc), INPUT_ERROR)


def _build_ts(expr, max_states: int):
    try:
        return build_ts(expr, max_states=max_states)
    except StateSpaceLimit as exc:
        raise CliError(str(exc), ANALYSIS_ERROR)
    except SemanticsError as exc:
        raise CliError(str(exc), INPUT_ERROR)


def _index_values(indices: Dict[str, tuple], result) -> Dict[str, float]:
    """Named index values; an index undefined on this solution (a division by
    zero, a state the chain does not have) is an analysis failure."""
    values = {}
    for name, expr in indices.items():
        try:
            values[name] = evaluate_index(expr, result)
        except (ZeroDivisionError, ValueError) as exc:
            raise AnalysisError("index %s: %s" % (name, exc)) from None
    return values


def _emit(args, filename: str, text: str) -> None:
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        target = out_dir / filename
        target.write_text(text, encoding="utf-8")
        print("wrote %s" % target)
    else:
        sys.stdout.write(text)


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
    model = _load(args)
    scalars, _ = _split_params(args.param)
    ts = _build_ts(_instantiate(model, scalars), args.max_states)
    if args.format == "dot":
        _emit(args, "ts.dot", export.ts_dot(ts))
    else:
        _emit(args, "ts.json", export.dumps(export.ts_json(ts, include_members=args.members)))
    tangible = sum(s.tangible for s in ts.states)
    print("states: %d (%d tangible, %d vanishing)" % (len(ts.states), tangible, len(ts.states) - tangible),
          file=sys.stderr)
    return 0


def cmd_box(args) -> int:
    model = _load(args)
    scalars, _ = _split_params(args.param)
    expr = _instantiate(model, scalars)
    try:
        box = box_of(expr)
    except SemanticsError as exc:
        raise CliError(str(exc), INPUT_ERROR)
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
    model = _load(args)
    scalars, _ = _split_params(args.param)
    expr = _instantiate(model, scalars)
    try:
        rg = build_rg(box_of(expr), max_states=args.max_states)
    except StateSpaceLimit as exc:
        raise CliError(str(exc), ANALYSIS_ERROR)
    if args.format == "dot":
        _emit(args, "rg.dot", export.ts_dot(rg, name="rg"))
    else:
        _emit(args, "rg.json", export.dumps(export.ts_json(rg)))
    return 0


def cmd_checkiso(args) -> int:
    model = _load(args)
    scalars, _ = _split_params(args.param)
    expr = _instantiate(model, scalars)
    ts = _build_ts(expr, args.max_states)
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
    model = _load(args)
    scalars, _ = _split_params(args.param)
    indices = _selected_indices(model, args.index)
    ts = _build_ts(_instantiate(model, scalars), args.max_states)
    try:
        if args.quotient:
            chain = quotient(ts).chain()
        else:
            chain = Chain.from_ts(ts)
        result = solve_chain(chain)
        values = _index_values(indices, result)
    except AnalysisError as exc:
        detail = ""
        if exc.closed_classes:
            detail = "; closed classes: %s" % [[i + 1 for i in c] for c in exc.closed_classes]
        raise CliError("analysis error: %s%s" % (exc, detail), ANALYSIS_ERROR)
    if args.format == "csv":
        _emit(args, "states.csv", export.states_csv(result))
    else:
        _emit(args, "solve.json", export.dumps(export.solve_json(result, values)))
    for name in sorted(values):
        print("index %s = %.10g" % (name, values[name]), file=sys.stderr)
    return 0


def cmd_quotient(args) -> int:
    model = _load(args)
    scalars, _ = _split_params(args.param)
    ts = _build_ts(_instantiate(model, scalars), args.max_states)
    q = quotient(ts)
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
    model = _load(args)
    scalars, _ = _split_params(args.param)
    if model.peer is None:
        raise CliError("model defines no peer expression to compare against", INPUT_ERROR)
    root = _instantiate(model, scalars)
    try:
        peer = model.instantiate_peer(scalars)
    except (ParseError, ValueError) as exc:
        raise CliError(str(exc), INPUT_ERROR)
    result = bisim_equivalent_ts(_build_ts(root, args.max_states), _build_ts(peer, args.max_states),
                                 quantum=args.tol)
    if result.equivalent:
        print("equivalent: initial states share a block (%d blocks over the union)" % result.partition.size)
        return 0
    print("NOT equivalent: initial states lie in different blocks")
    return ANALYSIS_ERROR


def _leaf_values(model: ModelFile, point: Dict[str, float]) -> Dict[int, float]:
    try:
        return model.leaf_values(point)
    except ValueError as exc:
        raise CliError(str(exc), INPUT_ERROR)


def _sweep_indices_at(base_ts, model: ModelFile, indices, point: Dict[str, float],
                      use_quotient: bool, remap_members: bool = False):
    ts = base_ts.reweight(_leaf_values(model, point), remap_members=remap_members)
    chain = quotient(ts).chain() if use_quotient else Chain.from_ts(ts)
    result = solve_chain(chain)
    values = {name: float(v) for name, v in _index_values(indices, result).items()}
    return result, values


def _sweep_per_point(args, base_ts, model: ModelFile, indices, points):
    """Index values at each point, one reweighted chain after another, and
    the solutions when ``--per-point`` writes them."""
    values, results = [], []
    for point in points:
        try:
            result, at = _sweep_indices_at(base_ts, model, indices, point, args.quotient,
                                           remap_members=args.per_point)
        except AnalysisError as exc:
            raise CliError("analysis error at %s: %s" % (point, exc), ANALYSIS_ERROR)
        values.append(at)
        if args.per_point and args.out:
            results.append(result)
    return values, results


def _sweep_batch(base_ts, model: ModelFile, indices, points) -> List[Dict[str, float]]:
    """Index values at every point, from one stack of chains solved at once.
    It fails at the first point, and with the error, where the per-point
    route would."""
    leaf_rows, input_error = [], None
    for point in points:
        try:
            leaf_rows.append(list(_leaf_values(model, point).values()))
        except CliError as exc:
            input_error = exc  # raised after any analysis error at an earlier point
            break
    chains = ChainStack.from_ts(base_ts, np.array(leaf_rows))
    solved = solve_stack(chains)
    evaluated = {name: evaluate_index_stack(expr, chains, solved) for name, expr in indices.items()}
    failed = np.array([e is not None for e in solved.errors])
    for _, messages in evaluated.values():
        failed |= np.array([m is not None for m in messages])
    if failed.any():
        k = int(np.argmax(failed))
        error = solved.errors[k] or next(
            AnalysisError("index %s: %s" % (name, messages[k])) for name, (_, messages) in evaluated.items()
            if messages[k] is not None
        )
        raise CliError("analysis error at %s: %s" % (points[k], error), ANALYSIS_ERROR)
    if input_error is not None:
        raise input_error
    series = {name: values.tolist() for name, (values, _) in evaluated.items()}
    return [{name: series[name][k] for name in indices} for k in range(len(points))]


def cmd_sweep(args) -> int:
    model = _load(args)
    scalars, ranges = _split_params(args.param)
    indices = _selected_indices(model, args.index)
    if not indices:
        raise CliError("no indices to evaluate: define some in the model or pass --index", INPUT_ERROR)
    points = model.sweep_points(ranges)
    if scalars:
        points = [dict(p, **scalars) for p in points]
    if len(points) <= 1:
        raise CliError("sweep needs at least one ranged parameter (name=start:stop:step)", INPUT_ERROR)
    swept = sorted(ranges) or sorted(
        name for name, spec in model.params.items() if spec.sweep is not None
    )
    base_ts = _build_ts(_instantiate(model, points[0]), args.max_states)

    results = []
    if args.quotient or args.per_point:
        values, results = _sweep_per_point(args, base_ts, model, indices, points)
    else:
        values = _sweep_batch(base_ts, model, indices, points)
    rows: List[Dict[str, float]] = []
    for point, at in zip(points, values):
        row = {name: point[name] for name in swept}
        row.update(at)
        rows.append(row)

    note = "sweep over %s; grid steps %s" % (
        ",".join(swept),
        ",".join(str(ranges[n][2]) if n in ranges else str(model.params[n].sweep[2]) for n in swept),
    )
    text = export.sweep_csv(swept, sorted(indices), rows, header_note=note)
    _emit(args, "sweep.csv", text)

    if results:
        points_dir = Path(args.out) / "points"
        points_dir.mkdir(parents=True, exist_ok=True)
        for k, result in enumerate(results):
            name = "point_%05d.csv" % (k + 1)
            (points_dir / name).write_text(export.states_csv(result), encoding="utf-8")

    grid = [tuple(row[p] for p in swept) for row in rows]
    for name in sorted(indices):
        finite = [(row[name], at) for row, at in zip(rows, grid) if math.isfinite(row[name])]
        if not finite:
            continue
        lo, lo_at = min(finite)
        hi, hi_at = max(finite)
        where = lambda at: ",".join("%s=%s" % (p, v) for p, v in zip(swept, at))
        print("index %s: min %.6g at %s; max %.6g at %s" % (name, lo, where(lo_at), hi, where(hi_at)),
              file=sys.stderr)
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


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        if not args.tol > 0:
            raise CliError("--tol must be positive, got %r" % args.tol, INPUT_ERROR)
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
