"""The three workloads: their inputs, job lists and per-job reference checks.

Each workload's ``setup`` generates and parses its inputs from the seed and
returns the fixed job list of one pass.  A job raises ``Mismatch`` when an
output differs from its reference; every reference comes from outside the
layer being timed (the other semantics, a closed form, a published value).

The layer functions are imported by name into this module, so the traced run
can wrap them under the names this module calls them by.
"""

from __future__ import annotations

import csv
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import inputs
from dtsipbc import cli, export
from dtsipbc.equiv import bisim_equivalent_ts, quotient
from dtsipbc.markov import AnalysisError, Chain, evaluate_index, solve_chain
from dtsipbc.models import bundled_model_names, model_text
from dtsipbc.netsem import box_of, build_rg, check_safe_clean
from dtsipbc.opsem import State, Transition, TransitionSystem, build_ts, ts_isomorphic
from dtsipbc.parser import ModelFile, parse_model, parse_static

MAX_STATES = 20_000
LUMP_TOL = 1e-10  # quotient phi against block-summed phi (acceptance criterion 6)
RANDOM_TERMS = 200
NETSCALE_N = 7
SWEEP_STEP = "0.0005"  # coarsest step that keeps criterion 3's arg-extrema checkable

# acceptance criterion 3: index -> (max or min, value, value tol, at rho, rho tol)
SWEEP_EXTREMA = {
    "availability": (max, 0.0797, 5e-4, 0.7433, 5e-3),
    "run_through": (min, 12.5516, 5e-3, 0.7433, 5e-3),
    "utilization": (min, 0.9203, 5e-4, 0.7433, 5e-3),
    "emergence_rate": (max, 0.0751, 5e-4, 0.7743, 5e-3),
    "two_request_prob": (max, 0.0517, 5e-4, 0.8484, 5e-3),
}


class Mismatch(Exception):
    """An output differs from its reference."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


Job = Tuple[str, Callable[[Dict[str, object]], None]]


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------


def _solve_or_refuse(chain: Chain):
    """Steady state, or None when the chain has none.  The solver's own
    consistency failures are not verdicts and stay errors."""
    try:
        return solve_chain(chain)
    except AnalysisError as exc:
        if "disagree" in str(exc):
            raise
        return None


def _check_lumping(label: str, q, result) -> None:
    reduced = solve_chain(q.chain())
    for k, block in enumerate(q.partition.blocks):
        summed = sum(float(result.phi[i]) for i in block)
        check(abs(float(reduced.phi[k]) - summed) <= LUMP_TOL,
              "%s: quotient phi[%d] differs from the block sum" % (label, k + 1))


def _check_export(label: str, result, values: Dict[str, float]) -> None:
    payload = json.loads(export.dumps(export.solve_json(result, values)))
    phi = [row["phi"] for row in payload["states"]]
    check(phi == [float(x) for x in result.phi], "%s: solve.json phi differs from the solution" % label)
    check(payload["indices"] == {k: v for k, v in sorted(values.items())},
          "%s: solve.json indices differ from the evaluated ones" % label)


# ---------------------------------------------------------------------------
# stepsem: the step semantics on small and medium terms
# ---------------------------------------------------------------------------


# label -> (states, tangible states, bisimulation blocks), None where not
# pinned: acceptance criterion 1 and the shm-n closed forms
EXPECTED_SIZES = {
    "ts_example": (5, 4, None),
    "shared_memory": (9, 6, None),
    "shared_memory_abstract": (None, None, 6),
    "shm3-abstract": (inputs.shm_rg_size(3), None, inputs.shm_abstract_blocks(3)),
}


def _term_job(label: str, make_expr: Callable[[], object], model: Optional[ModelFile] = None) -> Job:
    def job(ctx: Dict[str, object]) -> None:
        expr = make_expr()
        ts = build_ts(expr, max_states=MAX_STATES)
        rg = build_rg(box_of(expr), max_states=MAX_STATES)
        check(ts_isomorphic(ts, rg) is not None, "%s: TS and RG are not isomorphic" % label)
        ctx[label] = ts
        result = _solve_or_refuse(Chain.from_ts(ts))
        q = quotient(ts)
        if result is not None:
            indices = model.indices if model is not None else {}
            values = {name: evaluate_index(ix, result) for name, ix in indices.items()}
            _check_export(label, result, values)
            _check_lumping(label, q, result)
        states, tangible, blocks = EXPECTED_SIZES.get(label, (None, None, None))
        got = (len(ts.states), sum(s.tangible for s in ts.states), q.size)
        for want, have, what in zip((states, tangible, blocks), got, ("states", "tangible states", "blocks")):
            check(want is None or want == have, "%s: %d %s, expected %s" % (label, have, what, want))

    return label, job


def _checkeq_job(label: str, left: str, right: str, equivalent: bool) -> Job:
    def job(ctx: Dict[str, object]) -> None:
        verdict = bisim_equivalent_ts(ctx[left], ctx[right]).equivalent
        check(verdict == equivalent, "%s: equivalence verdict %s, expected %s" % (label, verdict, equivalent))

    return label, job


def _generator_job(n: int, abstract: bool, model: ModelFile, bundled: str) -> Job:
    """shm-n generator at n = 2 against the bundled hand-written model."""
    label = "shm%d-%s" % (n, "abstract" if abstract else "concrete")

    def job(ctx: Dict[str, object]) -> None:
        expr = model.instantiate()
        ts = build_ts(expr, max_states=MAX_STATES)
        rg = build_rg(box_of(expr), max_states=MAX_STATES)
        check(len(rg.states) == inputs.shm_rg_size(n), "%s: %d markings" % (label, len(rg.states)))
        check(ts_isomorphic(ts, ctx[bundled]) is not None, "%s: differs from bundled %s" % (label, bundled))
        ctx[label] = ts

    return label, job


def setup_stepsem(seed: int, scratch: Path) -> List[Job]:
    jobs: List[Job] = []
    for name in bundled_model_names():
        model = parse_model(model_text(name))
        jobs.append(_term_job(name, model.instantiate, model))
        if model.peer is not None:
            jobs.append(_term_job(name + ":peer", model.instantiate_peer))
    for abstract, bundled in ((True, "shared_memory_abstract"), (False, "shared_memory")):
        jobs.append(_generator_job(2, abstract, parse_model(inputs.shm_text(2, abstract)), bundled))
    shm3 = parse_model(inputs.shm_text(3, True))
    jobs.append(_term_job("shm3-abstract", shm3.instantiate, shm3))
    rng = random.Random(seed)
    for k in range(RANDOM_TERMS):
        expr = parse_static(inputs.random_regular_text(rng, max_activities=8, max_sync=2))
        jobs.append(_term_job("random-%03d" % k, lambda e=expr: e))
    jobs.append(_checkeq_job("checkeq:ssbsspt_pair", "ssbsspt_pair", "ssbsspt_pair:peer", True))
    jobs.append(_checkeq_job("checkeq:shm2", "shm2-abstract", "shm2-concrete", False))
    return jobs


# ---------------------------------------------------------------------------
# netscale: nets, chains and reduction on shm-7
# ---------------------------------------------------------------------------


def renumbered(ts: TransitionSystem, perm: Sequence[int]) -> TransitionSystem:
    """Copy of ``ts`` whose state i is state perm[i]."""
    states: List[Optional[State]] = [None] * len(ts.states)
    for i, state in enumerate(ts.states):
        states[perm[i]] = state
    transitions = [Transition(perm[t.source], t.step, t.prob, perm[t.target]) for t in ts.transitions]
    transitions.sort(key=lambda t: t.source)
    return TransitionSystem(states, transitions, perm[ts.initial], ts.expr)


def _netscale_job(n: int, abstract: bool, model: ModelFile, perm: List[int]) -> Job:
    label = "shm%d-%s" % (n, "abstract" if abstract else "concrete")
    markings = inputs.shm_rg_size(n)

    def job(ctx: Dict[str, object]) -> None:
        box = box_of(model.instantiate())
        report = check_safe_clean(box, max_states=MAX_STATES)
        check(report.safe and report.clean, "%s: net is not safe and clean" % label)
        rg = build_rg(box, max_states=MAX_STATES)
        check(len(rg.states) == markings, "%s: %d markings, expected %d" % (label, len(rg.states), markings))
        check(ts_isomorphic(rg, renumbered(rg, perm)) is not None, "%s: RG not isomorphic to its renumbering" % label)
        result = solve_chain(Chain.from_ts(rg))
        q = quotient(rg)
        want = inputs.shm_abstract_blocks(n) if abstract else markings
        check(q.size == want, "%s: %d blocks, expected %d" % (label, q.size, want))
        _check_lumping(label, q, result)

    return label, job


def setup_netscale(seed: int, scratch: Path) -> List[Job]:
    rng = random.Random(seed)
    jobs = []
    for abstract in (True, False):
        model = parse_model(inputs.shm_text(NETSCALE_N, abstract))
        jobs.append(_netscale_job(NETSCALE_N, abstract, model, inputs.renumbering(rng, inputs.shm_rg_size(NETSCALE_N))))
    return jobs


# ---------------------------------------------------------------------------
# sweep: the CLI parameter sweep of acceptance criterion 3
# ---------------------------------------------------------------------------


def _read_sweep(path: Path) -> List[Dict[str, float]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def setup_sweep(seed: int, scratch: Path) -> List[Job]:
    # the model is parsed here only to validate the CLI's input; the CLI
    # parses it again inside the timed pass, as a user's sweep would
    model = parse_model(model_text("shared_memory_abstract"))
    missing = sorted(set(SWEEP_EXTREMA) - set(model.indices))
    if missing:
        raise ValueError("shared_memory_abstract lacks indices %s" % missing)
    out = scratch / "sweep"
    step = float(SWEEP_STEP)
    points = round(1 / step) - 1
    argv = ["sweep", "shared_memory_abstract", "--param", "rho=%s:%r:%s" % (SWEEP_STEP, 1 - step, SWEEP_STEP),
            "--jobs", "1", "--out", str(out)]

    def job(ctx: Dict[str, object]) -> None:
        (out / "sweep.csv").unlink(missing_ok=True)
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()) as err:
            code = cli.main(argv)
        check(code == 0, "sweep exited %d: %s" % (code, err.getvalue().strip()))
        rows = _read_sweep(out / "sweep.csv")
        check(len(rows) == points, "sweep wrote %d rows, expected %d" % (len(rows), points))
        for name, (best, value, vtol, at, atol) in SWEEP_EXTREMA.items():
            got, got_at = best((row[name], row["rho"]) for row in rows)
            check(abs(got - value) <= vtol and abs(got_at - at) <= atol,
                  "%s: extremum %.6g at rho=%.4f, expected %.4f at %.4f" % (name, got, got_at, value, at))

    return [("sweep", job)]


# workload name -> setup(seed, scratch directory) returning one pass's jobs
WORKLOADS = {"stepsem": setup_stepsem, "netscale": setup_netscale, "sweep": setup_sweep}
