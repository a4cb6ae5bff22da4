"""Stable JSON, CSV and DOT renderings of semantic artifacts.

Every emitter sorts its collections, so identical inputs produce byte
identical files.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from typing import Dict, List, Optional, Sequence

from .equiv import Quotient
from .expr import Activity, numbering_str
from .markov import SolveResult
from .netsem import DtsiBox
from .opsem import TransitionSystem, step_key
from .parser import serialize

__all__ = [
    "activity_json",
    "ts_json",
    "box_json",
    "quotient_json",
    "solve_json",
    "states_csv",
    "sweep_csv",
    "ts_dot",
    "box_dot",
    "dumps",
]


def _num(x: float):
    if math.isinf(x):
        return "inf"
    return x


def activity_json(u: Activity) -> Dict[str, object]:
    return {
        "part": str(u.part),
        "kind": "immediate" if u.immediate else "stochastic",
        "value": u.value,
        "numbering": numbering_str(u.num),
    }


def ts_json(ts: TransitionSystem, include_members: bool = False) -> Dict[str, object]:
    states = []
    for i, s in enumerate(ts.states):
        row: Dict[str, object] = {"id": i + 1, "key": s.key, "kind": s.kind}
        if include_members and s.members:
            row["members"] = [serialize(m) for m in s.members]
        states.append(row)
    transitions = [
        {
            "source": t.source + 1,
            "step": [activity_json(u) for u in step_key(t.step)],
            "prob": t.prob,
            "target": t.target + 1,
        }
        for t in sorted(ts.transitions, key=lambda t: (t.source, step_key(t.step)))
    ]
    return {"initial": ts.initial + 1, "states": states, "transitions": transitions}


def box_json(box: DtsiBox) -> Dict[str, object]:
    places = [{"name": p.name, "label": p.label} for p in sorted(box.places)]
    transitions = []
    for t in sorted(box.transitions):
        transitions.append(
            {
                "activity": activity_json(t.activity),
                "pre": [{"place": name, "weight": w} for name, w in t.pre.items],
                "post": [{"place": name, "weight": w} for name, w in t.post.items],
            }
        )
    return {
        "places": places,
        "transitions": transitions,
        "initial_marking": [name for name, _ in box.initial_marking().items],
    }


def quotient_json(q: Quotient) -> Dict[str, object]:
    chain = q.chain()
    blocks = [
        {"id": k + 1, "key": chain.keys[k], "kind": "tangible" if chain.tangible[k] else "vanishing",
         "members": [i + 1 for i in block]}
        for k, block in enumerate(q.partition.blocks)
    ]
    labels = [str(label) for label in chain.labels]
    arcs = [
        {"source": i + 1, "label": labels[k], "prob": p, "target": j + 1}
        for i, k, p, j in zip(chain.sources.tolist(), chain.label_ids.tolist(), chain.probs[0].tolist(),
                              chain.targets.tolist())
    ]
    return {"initial": chain.initial + 1, "blocks": blocks, "transitions": arcs}


def solve_json(result: SolveResult, indices: Optional[Dict[str, float]] = None) -> Dict[str, object]:
    out: Dict[str, object] = {
        "states": [
            {k: (_num(v) if isinstance(v, float) else v) for k, v in row.items()}
            for row in result.state_rows()
        ],
        "dtmc": [[float(x) for x in row] for row in result.dtmc],
        "edtmc": [[float(x) for x in row] for row in result.edtmc],
        "closed_class": [i + 1 for i in result.closed_class],
        "edtmc_periodic": result.edtmc_periodic,
        "dtmc_periodic": result.dtmc_periodic,
    }
    if result.edtmc_periodic or result.dtmc_periodic:
        out["note"] = "stationary distribution exists but is not limiting (periodic chain)"
    if indices is not None:
        out["indices"] = {k: _num(v) for k, v in sorted(indices.items())}
    return out


_CSV_FIELDS = ["state", "key", "kind", "sojourn_mean", "sojourn_variance", "psi_star", "psi", "phi"]


def states_csv(result: SolveResult) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in result.state_rows():
        row = dict(row)
        for field in ("sojourn_mean", "sojourn_variance", "psi_star", "psi", "phi"):
            row[field] = repr(_num(row[field])) if isinstance(row[field], float) else row[field]
        writer.writerow(row)
    return buf.getvalue()


def sweep_csv(param_names: List[str], index_names: List[str], columns: Dict[str, Sequence[float]],
              header_note: str = "") -> str:
    """The sweep table, one row per grid point, from one column of values
    per parameter and index: each value's ``repr``, comma-separated (a float
    repr or an identifier never needs the quotes of a CSV field)."""
    names = param_names + index_names
    rows = map(",".join, zip(*[map(repr, columns[name]) for name in names]))
    note = ["# %s" % header_note] if header_note else []
    return "\n".join(itertools.chain(note, [",".join(names)], rows, [""]))


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def ts_dot(ts: TransitionSystem, name: str = "ts") -> str:
    lines = ["digraph %s {" % name, "  rankdir=LR;"]
    for i, s in enumerate(ts.states):
        shape = "ellipse" if s.tangible else "box"
        lines.append('  s%d [label="s%d" shape=%s];' % (i + 1, i + 1, shape))
    for t in sorted(ts.transitions, key=lambda t: (t.source, step_key(t.step))):
        label = ",".join(str(u) for u in step_key(t.step)) or "{}"
        lines.append('  s%d -> s%d [label="%s %.6g"];' % (t.source + 1, t.target + 1, _dot_escape(label), t.prob))
    lines.append("}")
    return "\n".join(lines) + "\n"


def box_dot(box: DtsiBox, name: str = "net") -> str:
    lines = ["digraph %s {" % name, "  rankdir=LR;"]
    for k, p in enumerate(sorted(box.places)):
        lines.append('  p%d [label="%s:%s" shape=circle];' % (k, _dot_escape(p.name), p.label))
    place_id = {p.name: k for k, p in enumerate(sorted(box.places))}
    for k, t in enumerate(sorted(box.transitions)):
        style = "bold" if t.activity.immediate else "solid"
        lines.append('  t%d [label="%s" shape=box style=%s];' % (k, _dot_escape(str(t.activity)), style))
        for pname, w in t.pre.items:
            suffix = ' label="%d"' % w if w != 1 else ""
            lines.append("  p%d -> t%d [%s];" % (place_id[pname], k, suffix.strip()))
        for pname, w in t.post.items:
            suffix = ' label="%d"' % w if w != 1 else ""
            lines.append("  t%d -> p%d [%s];" % (k, place_id[pname], suffix.strip()))
    lines.append("}")
    return "\n".join(lines) + "\n"


def dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
