"""Traced run: wrap the layers' public functions, record spans and counts.

The wrappers replace module and class attributes only between ``install``
and ``remove``, so the untraced runs execute the program unchanged.  A span
is (name, start, end, parent span, job id); spans stay in memory until
``write`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from dtsipbc import cli, export, models
from dtsipbc.equiv import Quotient
from dtsipbc.markov import AnalysisError, Chain
from dtsipbc.opsem import Engine, TransitionSystem
from dtsipbc.parser import ModelFile

# span name -> per-layer time metric its self time adds to
LAYER_OF_SPAN = {
    "parse_model": "parser.parse_s",
    "parse_static": "parser.parse_s",
    "ModelFile.instantiate": "parser.instantiate_s",
    "ModelFile.instantiate_peer": "parser.instantiate_s",
    "build_ts": "opsem.build_ts_s",
    "ts_isomorphic": "opsem.iso_s",
    "TransitionSystem.reweight": "opsem.reweight_s",
    "box_of": "netsem.box_s",
    "build_rg": "netsem.rg_s",
    "check_safe_clean": "netsem.safe_clean_s",
    "Chain.from_ts": "markov.chain_s",
    "Quotient.chain": "markov.chain_s",
    "solve_chain": "markov.solve_s",
    "evaluate_index": "markov.index_s",
    "quotient": "equiv.quotient_s",
    "bisim_equivalent_ts": "equiv.checkeq_s",
    "solve_json": "export.s",
    "dumps": "export.s",
    "sweep_csv": "export.s",
    "cli.main": "cli.self_s",
}

TIME_METRICS = sorted(set(LAYER_OF_SPAN.values()))
COUNT_METRICS = (
    "parser.instantiate_calls",
    "opsem.states",
    "opsem.transitions",
    "opsem.class_members",
    "netsem.net_transitions",
    "netsem.markings",
    "netsem.arcs",
    "markov.solves",
    "markov.solved_states",
    "markov.no_steady_state",
    "equiv.blocks",
)


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or None, job id]
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self.job: Optional[str] = None
        self._open: List[int] = []
        self._patches: List[tuple] = []

    # -- wrapping -------------------------------------------------------------

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _wrap(self, name: str, fn: Callable, before: Optional[Callable] = None,
              after: Optional[Callable] = None, refused: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.job]
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except AnalysisError:
                if refused is not None:
                    refused(self)
                raise
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return traced

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        original = vars(owner)[attr]
        if isinstance(original, staticmethod):
            replacement = staticmethod(self._wrap(name, original.__func__, **hooks))
        else:
            replacement = self._wrap(name, original, **hooks)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self, caller) -> None:
        """Wrap every layer entry point under the names ``caller`` (the
        workload module), the CLI and the model loader call it by."""
        for owner in (caller, cli):
            for attr in ("build_ts", "ts_isomorphic", "box_of", "build_rg", "check_safe_clean",
                         "solve_chain", "evaluate_index", "quotient", "bisim_equivalent_ts",
                         "parse_model", "parse_static"):
                if attr in vars(owner):
                    self.patch(owner, attr, attr, **_HOOKS.get(attr, {}))
        self.patch(models, "parse_model", "parse_model")
        for attr in ("solve_json", "dumps", "sweep_csv"):
            self.patch(export, attr, attr)
        self.patch(ModelFile, "instantiate", "ModelFile.instantiate", after=_after_instantiate)
        self.patch(ModelFile, "instantiate_peer", "ModelFile.instantiate_peer", after=_after_instantiate)
        self.patch(TransitionSystem, "reweight", "TransitionSystem.reweight")
        self.patch(Chain, "from_ts", "Chain.from_ts")
        self.patch(Quotient, "chain", "Quotient.chain")
        self.patch(cli, "main", "cli.main")

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self time per span name: duration minus the time of direct children
        (spans never overlap, every workload being single-threaded)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, float] = {}
        for k, (name, start, end, _parent, _job) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child_time[k]
        return out

    def top_level_time(self, first: int = 0) -> float:
        """Time covered by top-level spans from span index ``first`` on."""
        return sum(end - start for _n, start, end, parent, _j in self.spans[first:] if parent is None)

    def metrics(self) -> List[Tuple[str, float, str, str]]:
        """Per-layer metrics as (name, value, unit, note); a ratio's note is
        its base."""
        times = {name: 0.0 for name in TIME_METRICS}
        for span_name, seconds in self.self_times().items():
            times[LAYER_OF_SPAN[span_name]] += seconds
        out = [(name, times[name], "s", "") for name in TIME_METRICS]
        out += [(name, self.counts.get(name, 0), "count", "") for name in COUNT_METRICS]
        for name, num, den in (("opsem.operative_ratio", "opsem.operatives", "opsem.class_members"),
                               ("equiv.reduction", "equiv.blocks", "equiv.quotient_states")):
            a, b = self.counts.get(num, 0), self.counts.get(den, 0)
            out.append((name, a / b if b else 0.0, "ratio", "base %d / %d" % (a, b)))
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


# -- count hooks: they run outside the span of the call they count ------------


def _give_engine(tracer: Tracer, args, kwargs) -> None:
    # no caller passes its own engine; keep one so that the closure classes
    # it cached can be counted after the call
    kwargs["engine"] = Engine()


def _after_build_ts(tracer: Tracer, args, kwargs, ts) -> None:
    engine = kwargs["engine"]
    tracer.count("opsem.states", len(ts.states))
    tracer.count("opsem.transitions", len(ts.transitions))
    tracer.count("opsem.class_members", sum(len(engine.closure(s.members[0])) for s in ts.states))
    tracer.count("opsem.operatives", sum(len(s.members) for s in ts.states))


def _after_build_rg(tracer: Tracer, args, kwargs, rg) -> None:
    tracer.count("netsem.markings", len(rg.states))
    tracer.count("netsem.arcs", len(rg.transitions))


def _after_box_of(tracer: Tracer, args, kwargs, box) -> None:
    tracer.count("netsem.net_transitions", len(box.transitions))


def _before_solve(tracer: Tracer, args, kwargs) -> None:
    tracer.count("markov.solves", 1)
    tracer.count("markov.solved_states", args[0].size)


def _no_steady_state(tracer: Tracer) -> None:
    tracer.count("markov.no_steady_state", 1)


def _after_instantiate(tracer: Tracer, args, kwargs, expr) -> None:
    tracer.count("parser.instantiate_calls", 1)


def _after_quotient(tracer: Tracer, args, kwargs, q) -> None:
    tracer.count("equiv.blocks", q.size)
    tracer.count("equiv.quotient_states", len(q.source.states))


_HOOKS = {
    "build_ts": {"before": _give_engine, "after": _after_build_ts},
    "build_rg": {"after": _after_build_rg},
    "box_of": {"after": _after_box_of},
    "solve_chain": {"before": _before_solve, "refused": _no_steady_state},
    "quotient": {"after": _after_quotient},
}
