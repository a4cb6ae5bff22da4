"""Shared test helpers: model loading, random regular terms, state mapping."""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

import pytest

from dtsipbc.models import bundled_model_names, load_model
from dtsipbc.opsem import TransitionSystem, build_ts


def instantiate(name: str, **params):
    return load_model(name).instantiate(params or None)


def ts_of(name: str, **params) -> TransitionSystem:
    return build_ts(instantiate(name, **params))


def bundled_roots():
    """(label, term) of every bundled model's root and peer."""
    for name in bundled_model_names():
        model = load_model(name)
        yield name, model.instantiate()
        if model.peer is not None:
            yield name + ":peer", model.instantiate_peer()


_BASE = {}


def fast_ts(name: str, **params) -> TransitionSystem:
    """Transition system at a parameter point, rebuilt from a cached base by
    reweighting (the step structure does not depend on the parameter values)."""
    if name not in _BASE:
        model = load_model(name)
        _BASE[name] = (model, build_ts(model.instantiate()))
    model, base = _BASE[name]
    if not params:
        return base
    return base.reweight(model.leaf_values(params))


def step_prob(ts: TransitionSystem, step, i: int) -> float:
    """The probability of ``step`` in state ``i``, read off ``ts.outgoing(i)``."""
    (prob,) = [t.prob for t in ts.outgoing(i) if t.step == step]
    return prob


def move_prob(ts: TransitionSystem, i: int, j: int) -> float:
    """The probability of moving from state ``i`` to state ``j`` in one step."""
    return sum(t.prob for t in ts.outgoing(i) if t.target == j)


def label_strings(step) -> List[str]:
    return sorted(str(u.part) for u in step)


def walk(ts: TransitionSystem, source: int, labels: Sequence[str], skip: Sequence[int] = ()) -> int:
    """Least target of a transition from ``source`` with the given step label.

    Symmetric systems may offer several equally labeled transitions; taking
    the least target (and letting callers skip already assigned states) picks
    one consistent branch assignment.
    """
    want = sorted(labels)
    hits = sorted(
        t.target
        for t in ts.outgoing(source)
        if label_strings(t.step) == want and t.target not in skip
    )
    assert hits, "no %s transition out of state %d" % (want, source + 1)
    return hits[0]


def shared_memory_order(ts: TransitionSystem, r1: str, r2: str, d1: str, d2: str) -> List[int]:
    """Map the nine shared-memory states onto the conventional numbering
    (initial, idle, requested-1, requested-2, granted-1, both-requested,
    granted-2, granted-1-waiting-2, granted-2-waiting-1) by walking labels.

    For the abstract variant the two processors are symmetric, so any
    consistent branch assignment is fine; pass identical labels for both.
    """
    s1 = ts.initial
    s2 = walk(ts, s1, ["{a}"])
    s3 = walk(ts, s2, [r1])
    s4 = walk(ts, s2, [r2], skip=[s3])
    s6 = walk(ts, s2, [r1, r2])
    s5 = walk(ts, s3, [d1])
    s7 = walk(ts, s4, [d2], skip=[s5])
    s8 = walk(ts, s5, [r2])
    s9 = walk(ts, s7, [r1], skip=[s8])
    order = [s1, s2, s3, s4, s5, s6, s7, s8, s9]
    assert sorted(order) == list(range(9))
    return order


# Relabeling terms: no bundled model and no random term relabels
RELABELING_TERMS = [
    "({a},0.5)[f: a->b, b->a]",
    "(({a},0.5);({b},0.3))[f: a<->b]",
    "((({a},0.5)[f: a<->c]) || ({c^},0.4)) sy c",
    "((({a},0.5)[f: a<->c]) || ({c^},0.4)) sy c rs c",
    "[({a},0.5) * (({b},0.5)[f: b<->d]) * ({d},0.2)]",
    "((({a,b},#2)[f: a<->b]) [] ({c},#1)) ; ({d},0.5)",
    "(([({x},0.5) * ({a},0.3) * Stop])[f: a<->e] || ({e^},0.7)) sy e",
]


# ---------------------------------------------------------------------------
# Random regular terms (text form, so the parser is exercised as well)
# ---------------------------------------------------------------------------

_ACTIONS = ["a", "b", "c", "d"]


def _value(rng: random.Random) -> str:
    return "%.3f" % rng.uniform(0.1, 0.9)


def _weight(rng: random.Random) -> str:
    return "#%.2f" % rng.uniform(0.5, 3.0)


def _part(rng: random.Random) -> str:
    k = rng.choice([1, 1, 1, 2])
    actions = []
    for _ in range(k):
        name = rng.choice(_ACTIONS)
        if rng.random() < 0.3:
            name += "^"
        actions.append(name)
    return "{%s}" % ",".join(actions)


def _activity(rng: random.Random, immediate: Optional[bool] = None) -> str:
    if immediate is None:
        immediate = rng.random() < 0.25
    return "(%s,%s)" % (_part(rng), _weight(rng) if immediate else _value(rng))


def random_regular_text(
    rng: random.Random,
    max_activities: int = 6,
    max_sync: int = 2,
) -> str:
    """Random regular term; parallel composition is kept out of iteration
    bodies and the number of activities and synchronizations is bounded."""
    syncs = [rng.randint(0, max_sync)]

    def gen(budget: int, allow_par: bool) -> str:
        # allow_par=False is the iteration-body grammar: no parallel at the
        # top level, but the right arm of ";" and iteration terminators are
        # back in the unrestricted grammar
        if budget <= 1 or rng.random() < 0.25:
            text = _activity(rng)
        else:
            ops = ["seq", "cho", "ite"]
            if allow_par:
                ops += ["par", "par"]
            op = rng.choice(ops)
            if op == "ite" and budget >= 3:
                b1 = rng.randint(1, budget - 2)
                b2 = rng.randint(1, budget - b1 - 1)
                init = gen(b1, allow_par)
                body = gen(b2, False)
                term = gen(budget - b1 - b2, True) if rng.random() < 0.5 else "Stop"
                text = "[%s * %s * %s]" % (init, body, term)
            else:
                if op == "ite":
                    op = "seq"
                b1 = rng.randint(1, budget - 1)
                left_par = allow_par if op != "par" else True
                right_par = True if op in ("seq", "par") else allow_par
                lhs = gen(b1, left_par)
                rhs = gen(budget - b1, right_par)
                glyph = {"seq": ";", "cho": "[]", "par": "||"}[op]
                text = "(%s%s%s)" % (lhs, glyph, rhs)
        if syncs[0] > 0 and rng.random() < 0.3:
            syncs[0] -= 1
            action = rng.choice(_ACTIONS)
            text = "(%s sy %s)" % (text, action)
            if rng.random() < 0.5:
                text = "(%s rs %s)" % (text, action)
        return text

    return gen(rng.randint(1, max_activities), True)


# ---------------------------------------------------------------------------
# Shared-memory family
# ---------------------------------------------------------------------------


# index lines over the nine states of shared_memory_abstract that use every
# vector, every operator, unary minus and multi-part steps
INDEX_FORMS = [
    "index mixed = psi[2] - psistar[5] + psi[9] / psistar[2]",
    "index sojourn = sj[2] * var[3] + var[1] - sj[4] / sj[6]",
    "index steps = steprob[{r}] + steprob[{r},{r}] * 3 - steprob[{d}] / steprob[{m}]",
    "index negated = -(phi[2] - -phi[3])",
]


def shm_text(n: int, abstract: bool = True) -> str:
    """Model text of the shared-memory system with ``n`` processors.

    At n = 2 this is the bundled ``shared_memory_abstract`` (or, with
    ``abstract=False``, ``shared_memory``) model; the abstract variant drops
    the processor index from the request, grant and release actions.
    """

    def own(name: str, i: int) -> str:
        return name if abstract else "%s%d" % (name, i)

    lines = ["param rho = 0.5", "param l = 1"]
    for i in range(1, n + 1):
        lines.append(
            "P%d = [({x%d},rho) * (({%s},rho);({%s,y%d},#l);({%s,z%d},rho)) * Stop]"
            % (i, i, own("r", i), own("d", i), i, own("m", i), i)
        )
    grab = ",".join("x%d^" % i for i in range(1, n + 1))
    serve = " [] ".join("(({y%d^},#l);({z%d^},rho))" % (i, i) for i in range(1, n + 1))
    lines.append("MEM = [({a,%s},rho) * (%s) * Stop]" % (grab, serve))
    procs = " || ".join("P%d" % i for i in range(1, n + 1))
    sync = ",".join("%s%d" % (c, i) for c in "xyz" for i in range(1, n + 1))
    lines.append("root = (%s || MEM) sr(%s)" % (procs, sync))
    return "\n".join(lines) + "\n"


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)
