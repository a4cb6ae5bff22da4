"""Reference implementations that only the tests use.

Each re-derives the slow, plain way what the program computes fast:

* by brute force over single terms or whole enumerated classes, what the
  step semantics computes compositionally;
* by one hand-written rule list per node kind, the bar-moving rules that
  the program reads off one table of port groups;
* by ``Multiset`` arithmetic on named places, what the net semantics
  computes on index-coded markings;
* by scalar loops, what the solver vectorizes.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from dtsipbc.expr import (
    Act,
    Action,
    Activity,
    Cho,
    DCho,
    DIte,
    DPar,
    DRel,
    DRst,
    DSeq,
    DSyn,
    DynamicExpr,
    Ite,
    Multiset,
    Over,
    Par,
    Rel,
    Rst,
    Seq,
    Syn,
    Under,
    sync_activities,
)
from dtsipbc.netsem import DtsiBox, NetTransition, StructureReport, enabled, fire, marking_key
from dtsipbc.opsem import (
    Engine,
    SemanticsError,
    State,
    StateSpaceLimit,
    Step,
    Transition,
    TransitionSystem,
    _forward_root,
    _rewrites,
    _saturate_step,
    step_key,
)
from dtsipbc.parser import serialize


# ---------------------------------------------------------------------------
# Bar-moving rules, written out per node kind
# ---------------------------------------------------------------------------


def forward_root(d: DynamicExpr) -> List[DynamicExpr]:
    """The forward bar-moving rules at the root of ``d``."""
    out: List[DynamicExpr] = []
    if isinstance(d, Over):
        e = d.expr
        if isinstance(e, Seq):
            out.append(DSeq(Over(e.left), e.right))
        elif isinstance(e, Cho):
            out.append(DCho(Over(e.left), e.right))
            out.append(DCho(e.left, Over(e.right)))
        elif isinstance(e, Par):
            out.append(DPar(Over(e.left), Over(e.right)))
        elif isinstance(e, Rel):
            out.append(DRel(Over(e.child), e.func))
        elif isinstance(e, Rst):
            out.append(DRst(Over(e.child), e.action))
        elif isinstance(e, Syn):
            out.append(DSyn(Over(e.child), e.action))
        elif isinstance(e, Ite):
            out.append(DIte(Over(e.init), e.body, e.term))
    elif isinstance(d, DSeq):
        if isinstance(d.left, Under):
            out.append(DSeq(d.left.expr, Over(d.right)))
        if isinstance(d.right, Under):
            out.append(Under(Seq(d.left, d.right.expr)))
    elif isinstance(d, DCho):
        if isinstance(d.left, Under):
            out.append(Under(Cho(d.left.expr, d.right)))
        if isinstance(d.right, Under):
            out.append(Under(Cho(d.left, d.right.expr)))
    elif isinstance(d, DPar):
        if isinstance(d.left, Under) and isinstance(d.right, Under):
            out.append(Under(Par(d.left.expr, d.right.expr)))
    elif isinstance(d, DRel):
        if isinstance(d.child, Under):
            out.append(Under(Rel(d.child.expr, d.func)))
    elif isinstance(d, DRst):
        if isinstance(d.child, Under):
            out.append(Under(Rst(d.child.expr, d.action)))
    elif isinstance(d, DSyn):
        if isinstance(d.child, Under):
            out.append(Under(Syn(d.child.expr, d.action)))
    elif isinstance(d, DIte):
        if isinstance(d.init, Under):
            out.append(DIte(d.init.expr, Over(d.body), d.term))
        if isinstance(d.body, Under):
            out.append(DIte(d.init, Over(d.body.expr), d.term))
            out.append(DIte(d.init, d.body.expr, Over(d.term)))
        if isinstance(d.term, Under):
            out.append(Under(Ite(d.init, d.body, d.term.expr)))
    return out


def backward_root(d: DynamicExpr) -> List[DynamicExpr]:
    """The backward bar-moving rules at the root of ``d``: each forward rule
    read right to left."""
    out: List[DynamicExpr] = []
    if isinstance(d, DSeq):
        if isinstance(d.left, Over):
            out.append(Over(Seq(d.left.expr, d.right)))
        if isinstance(d.right, Over):
            out.append(DSeq(Under(d.left), d.right.expr))
    elif isinstance(d, Under):
        e = d.expr
        if isinstance(e, Seq):
            out.append(DSeq(e.left, Under(e.right)))
        elif isinstance(e, Cho):
            out.append(DCho(Under(e.left), e.right))
            out.append(DCho(e.left, Under(e.right)))
        elif isinstance(e, Par):
            out.append(DPar(Under(e.left), Under(e.right)))
        elif isinstance(e, Rel):
            out.append(DRel(Under(e.child), e.func))
        elif isinstance(e, Rst):
            out.append(DRst(Under(e.child), e.action))
        elif isinstance(e, Syn):
            out.append(DSyn(Under(e.child), e.action))
        elif isinstance(e, Ite):
            out.append(DIte(e.init, e.body, Under(e.term)))
    elif isinstance(d, DCho):
        if isinstance(d.left, Over):
            out.append(Over(Cho(d.left.expr, d.right)))
        if isinstance(d.right, Over):
            out.append(Over(Cho(d.left, d.right.expr)))
    elif isinstance(d, DPar):
        if isinstance(d.left, Over) and isinstance(d.right, Over):
            out.append(Over(Par(d.left.expr, d.right.expr)))
    elif isinstance(d, DRel):
        if isinstance(d.child, Over):
            out.append(Over(Rel(d.child.expr, d.func)))
    elif isinstance(d, DRst):
        if isinstance(d.child, Over):
            out.append(Over(Rst(d.child.expr, d.action)))
    elif isinstance(d, DSyn):
        if isinstance(d.child, Over):
            out.append(Over(Syn(d.child.expr, d.action)))
    elif isinstance(d, DIte):
        if isinstance(d.init, Over):
            out.append(Over(Ite(d.init.expr, d.body, d.term)))
        if isinstance(d.body, Over):
            out.append(DIte(Under(d.init), d.body.expr, d.term))
            out.append(DIte(d.init, Under(d.body.expr), d.term))
        if isinstance(d.term, Over):
            out.append(DIte(d.init, Under(d.body), d.term.expr))
    return out


def rewrites(d: DynamicExpr, root_rule) -> List[DynamicExpr]:
    """Apply a root rule at every dynamic position of ``d``."""
    out = list(root_rule(d))
    if isinstance(d, (Over, Under)):
        return out
    if isinstance(d, DSeq):
        if isinstance(d.left, DynamicExpr):
            out.extend(DSeq(g, d.right) for g in rewrites(d.left, root_rule))
        if isinstance(d.right, DynamicExpr):
            out.extend(DSeq(d.left, g) for g in rewrites(d.right, root_rule))
    elif isinstance(d, DCho):
        if isinstance(d.left, DynamicExpr):
            out.extend(DCho(g, d.right) for g in rewrites(d.left, root_rule))
        if isinstance(d.right, DynamicExpr):
            out.extend(DCho(d.left, g) for g in rewrites(d.right, root_rule))
    elif isinstance(d, DPar):
        out.extend(DPar(g, d.right) for g in rewrites(d.left, root_rule))
        out.extend(DPar(d.left, g) for g in rewrites(d.right, root_rule))
    elif isinstance(d, DRel):
        out.extend(DRel(g, d.func) for g in rewrites(d.child, root_rule))
    elif isinstance(d, DRst):
        out.extend(DRst(g, d.action) for g in rewrites(d.child, root_rule))
    elif isinstance(d, DSyn):
        out.extend(DSyn(g, d.action) for g in rewrites(d.child, root_rule))
    elif isinstance(d, DIte):
        if isinstance(d.init, DynamicExpr):
            out.extend(DIte(g, d.body, d.term) for g in rewrites(d.init, root_rule))
        if isinstance(d.body, DynamicExpr):
            out.extend(DIte(d.init, g, d.term) for g in rewrites(d.body, root_rule))
        if isinstance(d.term, DynamicExpr):
            out.extend(DIte(d.init, d.body, g) for g in rewrites(d.term, root_rule))
    return out


def closure(g: DynamicExpr) -> FrozenSet[DynamicExpr]:
    """Every member of the class of ``g``, by exhaustive rewriting with the
    rules above."""
    seen = {g}
    frontier = [g]
    while frontier:
        d = frontier.pop()
        for nxt in rewrites(d, forward_root) + rewrites(d, backward_root):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


# ---------------------------------------------------------------------------
# Classes by enumeration
# ---------------------------------------------------------------------------


def enumerated_class(engine: Engine, g: DynamicExpr) -> Tuple[Tuple[DynamicExpr, ...], bool, bool]:
    """Operative members in serialization order and the initial and final
    flags of the class of ``g``, read off the whole enumerated closure."""
    members = engine.closure(g)
    ops = tuple(sorted((d for d in members if not _rewrites(d, _forward_root)), key=serialize))
    return ops, engine.is_initial(g), engine.is_final(g)


# ---------------------------------------------------------------------------
# Potentially and currently executable step sets of one operative term
# ---------------------------------------------------------------------------


def potential_steps(h: DynamicExpr) -> FrozenSet[Step]:
    """Non-empty activity sets a single operative term could execute, ignoring
    the pre-emption by immediates (downward closed by construction)."""
    if isinstance(h, Over):
        if isinstance(h.expr, Act):
            return frozenset((frozenset((h.expr.activity,)),))
        raise SemanticsError("not an operative term: %s" % serialize(h))
    if isinstance(h, Under):
        return frozenset()
    if isinstance(h, (DSeq, DCho)):
        child = h.left if isinstance(h.left, DynamicExpr) else h.right
        return potential_steps(child)
    if isinstance(h, DPar):
        left = potential_steps(h.left)
        right = potential_steps(h.right)
        combined = set(left) | set(right)
        for s1 in left:
            for s2 in right:
                combined.add(s1 | s2)
        return frozenset(combined)
    if isinstance(h, DRel):
        return frozenset(
            frozenset(h.func.apply_activity(u) for u in s) for s in potential_steps(h.child)
        )
    if isinstance(h, DRst):
        a, ah = Action(h.action), Action(h.action, True)
        return frozenset(
            s
            for s in potential_steps(h.child)
            if all(a not in u.part and ah not in u.part for u in s)
        )
    if isinstance(h, DSyn):
        action = Action(h.action)
        out = set()
        for s in potential_steps(h.child):
            out.update(_saturate_step(s, action))
        return frozenset(out)
    if isinstance(h, DIte):
        child = next(x for x in (h.init, h.body, h.term) if isinstance(x, DynamicExpr))
        return potential_steps(child)
    raise TypeError(repr(h))


def current_steps(h: DynamicExpr) -> FrozenSet[Step]:
    """Steps a single operative term can execute right now: all potential ones
    when they are uniformly stochastic or uniformly immediate, otherwise only
    the immediate-only ones (immediates pre-empt)."""
    can = potential_steps(h)
    stoch_only = all(not u.immediate for s in can for u in s)
    imm_only = all(u.immediate for s in can for u in s)
    if stoch_only or imm_only:
        return can
    return frozenset(s for s in can if all(u.immediate for u in s))


def member_tangible(h: DynamicExpr) -> bool:
    """No immediate step among the currently executable ones of this term."""
    return all(not u.immediate for s in current_steps(h) for u in s)


# ---------------------------------------------------------------------------
# Net semantics on named places
# ---------------------------------------------------------------------------


def syn_box(n: DtsiBox, action: str) -> DtsiBox:
    """Synchronization closure by a full pairwise scan of the pool."""
    a, ah = Action(action), Action(action, True)
    pool: Dict[Activity, NetTransition] = {t.activity: t for t in n.transitions}
    frontier = list(pool.values())
    while frontier:
        t = frontier.pop()
        for u in list(pool.values()):
            if t.activity.immediate != u.activity.immediate:
                continue
            if t.activity.content & u.activity.content:
                continue
            for v, w in ((t, u), (u, t)):
                if a in v.activity.part and ah in w.activity.part:
                    merged_act = sync_activities(v.activity, w.activity, a)
                    if merged_act not in pool:
                        merged = NetTransition(merged_act, v.pre + w.pre, v.post + w.post)
                        pool[merged_act] = merged
                        frontier.append(merged)
    return DtsiBox(n.places, tuple(sorted(pool.values())))


def marking_tangible(box: DtsiBox, marking: Multiset) -> bool:
    ena = enabled(box, marking)
    return not any(t.activity.immediate for t in ena)


def firing_groups(box: DtsiBox, marking: Multiset) -> List[Tuple[NetTransition, ...]]:
    """Every subset of enabled transitions whose joint preset fits the marking."""
    ena = enabled(box, marking)
    groups: List[Tuple[NetTransition, ...]] = []

    def extend(start: int, chosen: List[NetTransition], used: Multiset) -> None:
        for k in range(start, len(ena)):
            t = ena[k]
            joint = used + t.pre
            if joint.issubset(marking):
                chosen.append(t)
                groups.append(tuple(chosen))
                extend(k + 1, chosen, joint)
                chosen.pop()

    extend(0, [], Multiset())
    if marking_tangible(box, marking):
        groups.append(())
    return groups


def group_ready(group: Tuple[NetTransition, ...], ena: List[NetTransition], tangible: bool) -> float:
    if not tangible:
        return sum(t.activity.value for t in group)
    prob = 1.0
    chosen = set(group)
    for t in group:
        prob *= t.activity.value
    for u in ena:
        if u not in chosen:
            prob *= 1.0 - u.activity.value
    return prob


def fire_prob(box: DtsiBox, marking: Multiset, group) -> float:
    group = tuple(sorted(group))
    groups = firing_groups(box, marking)
    if group not in groups:
        raise SemanticsError("transition set is not fireable here")
    ena = enabled(box, marking)
    tangible = marking_tangible(box, marking)
    total = sum(group_ready(g, ena, tangible) for g in groups)
    return group_ready(group, ena, tangible) / total


def build_rg(box: DtsiBox, initial: Optional[Multiset] = None, max_states: int = 100_000) -> TransitionSystem:
    """Reachability graph by ``enabled``, ``fire`` and the firing groups of
    each ``Multiset`` marking."""
    start = box.initial_marking() if initial is None else initial
    index: Dict[Multiset, int] = {}
    markings: List[Multiset] = []
    states: List[State] = []
    step_rows: List[List[Tuple[Tuple[NetTransition, ...], int]]] = []

    def intern(m: Multiset) -> int:
        idx = index.get(m)
        if idx is None:
            idx = len(markings)
            if idx >= max_states:
                raise StateSpaceLimit(max_states)
            index[m] = idx
            markings.append(m)
            states.append(State(marking_key(m), (), True))
            step_rows.append([])
        return idx

    intern(start)
    cursor = 0
    while cursor < len(markings):
        i = cursor
        cursor += 1
        m = markings[i]
        tangible = marking_tangible(box, m)
        states[i] = State(states[i].key, (), tangible)
        groups = firing_groups(box, m)
        groups.sort(key=lambda g: step_key(frozenset(t.activity for t in g)))
        for g in groups:
            target = intern(fire(box, m, g) if g else m)
            step_rows[i].append((g, target))

    transitions: List[Transition] = []
    for i, rows in enumerate(step_rows):
        m = markings[i]
        ena = enabled(box, m)
        tangible = states[i].tangible
        total = sum(group_ready(g, ena, tangible) for g, _ in rows)
        for g, j in rows:
            prob = group_ready(g, ena, tangible) / total
            step = frozenset(t.activity for t in g)
            transitions.append(Transition(i, step, prob, j))

    rg = TransitionSystem(states, transitions, 0, None)
    rg.markings = markings  # type: ignore[attr-defined]
    return rg


def check_safe_clean(box: DtsiBox, max_states: int = 100_000) -> StructureReport:
    """Safeness and cleanness read off the markings of the reference graph."""
    markings: List[Multiset] = build_rg(box, max_states=max_states).markings  # type: ignore[attr-defined]
    entries = box.entries()
    exits = box.exits()
    report = StructureReport(True, True, len(markings))
    for m in markings:
        if any(n > 1 for _, n in m.items):
            report.safe = False
            report.unsafe_witness = marking_key(m)
        if entries.issubset(m) and m != entries:
            report.clean = False
            report.unclean_witness = marking_key(m)
        if exits.issubset(m) and m != exits:
            report.clean = False
            report.unclean_witness = marking_key(m)
    return report


# ---------------------------------------------------------------------------
# Solver loops
# ---------------------------------------------------------------------------


def compensated_residual(a, b, vec):
    """b - a vec, one scalar product and one exact row sum at a time."""
    k = a.shape[0]
    rows = []
    for i in range(k):
        terms = [a[i, j] * vec[j] for j in range(k)]
        rows.append(b[i] - math.fsum(terms))
    return np.asarray(rows)
