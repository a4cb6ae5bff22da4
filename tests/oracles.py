"""Reference implementations that only the tests use.

Each re-derives the slow, plain way what the program computes fast:

* by brute force over single terms or whole enumerated classes, what the
  step semantics computes compositionally;
* by one hand-written rule list per node kind, the bar-moving rules that
  the program reads off one table of port groups, and the step derivation
  that the program writes as one generic rule and a table of step maps;
* by ``Multiset`` arithmetic on named places, what the net semantics
  computes on index-coded markings;
* by scalar loops, one matrix and one state at a time, what the solver
  computes on stacks of matrices;
* by one product per step in set order, the step probabilities that the
  program compiles into index arrays (``opsem.Readiness``);
* by instantiating, reweighting and solving one grid point after another,
  what the sweep computes for the whole grid at once.
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
from dtsipbc.markov import (
    AnalysisError,
    Chain,
    SojournStats,
    SolveResult,
    StationaryResult,
    evaluate_index,
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
    leaf_values_of,
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
# Step probabilities, one state at a time in set order
# ---------------------------------------------------------------------------


def ready(step: Step, singles, tangible: bool) -> float:
    """Readiness of ``step`` in a state whose single-activity steps are
    ``singles``: the product of its activities' probabilities and of one
    minus each other single's (tangible), or the sum of its weights."""
    if not tangible:
        return sum(u.value for u in step)
    prob = 1.0
    for u in step:
        prob *= u.value
    for v in singles:
        if v not in step:
            prob *= 1.0 - v.value
    return prob


def singles_of(steps) -> set:
    """The activities that form a step on their own."""
    return {next(iter(s)) for s in steps if len(s) == 1}


def normalized(i: int, pairs: List[Tuple[Step, int]], tangible: bool) -> List[Transition]:
    """The transitions of state ``i``, one per (step, target) pair, each with
    its step's readiness divided by the total over the state's steps."""
    singles = singles_of(s for s, _ in pairs)
    readiness = [ready(s, singles, tangible) for s, _ in pairs]
    total = sum(readiness)
    return [Transition(i, s, r / total, j) for (s, j), r in zip(pairs, readiness)]


def ready_prob(ts: TransitionSystem, step: Step, i: int) -> float:
    """Readiness (stochastic) or cumulative weight (immediate) of an
    executable step of state ``i``."""
    steps = ts.exec_steps(i)
    if step not in steps:
        raise SemanticsError("step %r is not executable in state %d" % (sorted(map(str, step)), i + 1))
    return ready(step, singles_of(steps), ts.states[i].tangible)


def reweight(ts: TransitionSystem, leaf_values: Dict[int, float]) -> TransitionSystem:
    """``ts`` with new base values per leaf: every activity rebuilt, every
    state normalized again."""

    def remap(u: Activity) -> Activity:
        return Activity(u.part, u.immediate, tuple((i, leaf_values.get(i, v)) for i, v in u.leaves), u.num)

    pairs: List[List[Tuple[Step, int]]] = [[] for _ in ts.states]
    for t in ts.transitions:
        pairs[t.source].append((frozenset(remap(u) for u in t.step), t.target))
    transitions = []
    for i, state_pairs in enumerate(pairs):
        transitions += normalized(i, state_pairs, ts.states[i].tangible)
    return TransitionSystem(list(ts.states), transitions, ts.initial, ts.expr)


# ---------------------------------------------------------------------------
# Step derivation, and the potentially and currently executable step sets,
# of one operative term
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


def derive(h: DynamicExpr) -> Tuple[Tuple[Step, DynamicExpr], ...]:
    """Every non-empty step of one operative term with its target, in
    step-key order, by one hand-written rule per node kind."""
    out: Dict[Step, DynamicExpr] = {}

    def put(step: Step, target: DynamicExpr) -> None:
        old = out.get(step)
        if old is not None and old != target:
            raise SemanticsError("step %s from %s reaches two targets" % ([str(u) for u in step], serialize(h)))
        out[step] = target

    if isinstance(h, Over):
        if isinstance(h.expr, Act):
            put(frozenset((h.expr.activity,)), Under(h.expr))
    elif isinstance(h, Under):
        pass
    elif isinstance(h, DSeq):
        dyn_left = isinstance(h.left, DynamicExpr)
        for step, tgt in derive(h.left if dyn_left else h.right):
            put(step, DSeq(tgt, h.right) if dyn_left else DSeq(h.left, tgt))
    elif isinstance(h, DCho):
        dyn_left = isinstance(h.left, DynamicExpr)
        for step, tgt in derive(h.left if dyn_left else h.right):
            put(step, DCho(tgt, h.right) if dyn_left else DCho(h.left, tgt))
    elif isinstance(h, DPar):
        left_steps, right_steps = derive(h.left), derive(h.right)
        for step, tgt in left_steps:
            put(step, DPar(tgt, h.right))
        for step, tgt in right_steps:
            put(step, DPar(h.left, tgt))
        for s1, t1 in left_steps:
            for s2, t2 in right_steps:
                if next(iter(s1)).immediate == next(iter(s2)).immediate:
                    put(s1 | s2, DPar(t1, t2))
    elif isinstance(h, DRel):
        for step, tgt in derive(h.child):
            put(frozenset(h.func.apply_activity(u) for u in step), DRel(tgt, h.func))
    elif isinstance(h, DRst):
        a, ah = Action(h.action), Action(h.action, True)
        for step, tgt in derive(h.child):
            if all(a not in u.part and ah not in u.part for u in step):
                put(step, DRst(tgt, h.action))
    elif isinstance(h, DSyn):
        for step, tgt in derive(h.child):
            for merged in _saturate_step(step, Action(h.action)):
                put(merged, DSyn(tgt, h.action))
    elif isinstance(h, DIte):
        if isinstance(h.init, DynamicExpr):
            for step, tgt in derive(h.init):
                put(step, DIte(tgt, h.body, h.term))
        elif isinstance(h.body, DynamicExpr):
            for step, tgt in derive(h.body):
                put(step, DIte(h.init, tgt, h.term))
        else:
            for step, tgt in derive(h.term):
                put(step, DIte(h.init, h.body, tgt))
    else:
        raise TypeError(repr(h))
    return tuple(sorted(out.items(), key=lambda kv: step_key(kv[0])))


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


def exit_mass(pm, i: int) -> float:
    return float(np.delete(pm[i], i).sum())


def sojourn_stats(chain: Chain) -> SojournStats:
    n = chain.size
    avg = np.zeros(n)
    var = np.zeros(n)
    sl = np.ones(n)
    for i in range(n):
        p = chain.pm[i, i]
        leave = exit_mass(chain.pm, i)
        if p > 0:
            sl[i] = math.inf if leave == 0.0 else 1.0 / leave
        if chain.tangible[i]:
            if leave == 0.0:
                avg[i] = math.inf
                var[i] = math.inf
            else:
                avg[i] = 1.0 / leave
                with np.errstate(divide="ignore"):
                    var[i] = p / leave**2
    return SojournStats(avg, var, sl)


def edtmc_tpm(chain: Chain) -> np.ndarray:
    n = chain.size
    out = np.zeros((n, n))
    for i in range(n):
        leave = exit_mass(chain.pm, i)
        if leave == 0.0:
            continue
        out[i] = chain.pm[i] / leave
        out[i, i] = 0.0
        out[i] /= out[i].sum()
    return out


def stationary_on_class(sub, residual_tol: float):
    k = sub.shape[0]
    gen = sub.copy()
    for i in range(k):
        gen[i, i] = -exit_mass(sub, i)
    a = gen.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    x = np.linalg.solve(a, b)
    best = None
    for _ in range(5):
        x = x / x.sum()
        resid = compensated_residual(a, b, x)
        true_res = float(np.max(np.abs(x @ gen)))
        if best is None or true_res < best[1]:
            best = (x.copy(), true_res)
        if true_res <= residual_tol * 0.01:
            break
        x = x + np.linalg.solve(a, resid)
    x, true_res = best
    x = np.where(np.abs(x) < 1e-300, 0.0, np.clip(x, 0.0, None))
    x = x / x.sum()
    return x, float(np.max(np.abs(x @ gen)))


def closed_classes(tpm) -> List[List[int]]:
    """The closed communication classes, from the states that each state
    reaches: a state's class is closed when every state it reaches reaches
    it back, and the class is then all that it reaches."""
    adjacency = [np.nonzero(tpm[i] > 0)[0].tolist() for i in range(tpm.shape[0])]
    reach = []
    for s in range(len(adjacency)):
        seen, todo = {s}, [s]
        while todo:
            for w in adjacency[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach.append(seen)
    closed = {tuple(sorted(r)) for s, r in enumerate(reach) if all(s in reach[w] for w in r)}
    return sorted(list(c) for c in closed)


def class_period(tpm, comp: List[int]) -> int:
    """The gcd of the level differences of a breadth-first walk of a class."""
    members = set(comp)
    level = {comp[0]: 0}
    queue = [comp[0]]
    g = 0
    for v in queue:
        for w in np.nonzero(tpm[v] > 0)[0].tolist():
            if w not in members:
                continue
            if w not in level:
                level[w] = level[v] + 1
                queue.append(w)
            g = math.gcd(g, level[v] + 1 - level[w])
    return abs(g) if g else 1


def steady_state(tpm, residual_tol: float = 1e-10) -> StationaryResult:
    n = tpm.shape[0]
    closed = closed_classes(tpm)
    if len(closed) != 1:
        raise AnalysisError(
            "chain has %d closed communication classes; expected one" % len(closed),
            closed_classes=closed,
        )
    comp = closed[0]
    pmf = np.zeros(n)
    if len(comp) == 1 and tpm[comp[0]].sum() == 0:
        pmf[comp[0]] = 1.0
        return StationaryResult(pmf, comp, periodic=False)
    sub = tpm[np.ix_(comp, comp)]
    row_sums = sub.sum(axis=1)
    if not np.allclose(row_sums, 1.0, atol=1e-9):
        raise AnalysisError("closed class is not stochastic (row sums %s)" % row_sums)
    x, residual = stationary_on_class(sub, residual_tol)
    if residual > residual_tol:
        raise AnalysisError("stationary solve residual %.2e exceeds %.2e" % (residual, residual_tol))
    pmf[comp] = x
    return StationaryResult(pmf, comp, periodic=class_period(tpm, comp) > 1)


def solve_chain(chain: Chain, cross_check_tol: float = 1e-10) -> SolveResult:
    """The solver one matrix and one state at a time."""
    stats = sojourn_stats(chain)
    p_full = chain.pm.copy()
    p_emb = edtmc_tpm(chain)
    emb = steady_state(p_emb)
    full = steady_state(p_full)
    comp = emb.closed_class
    if full.closed_class != comp:
        raise AnalysisError("embedded and full chains disagree on the closed class")
    n = chain.size
    phi = np.zeros(n)
    if any(math.isinf(stats.average[i]) for i in comp):
        if len(comp) > 1:
            raise AnalysisError("infinite sojourn inside a non-trivial closed class")
        if not chain.tangible[comp[0]]:
            raise AnalysisError("absorbing vanishing state: time cannot progress")
        phi[comp[0]] = 1.0
    else:
        weighted = emb.pmf * np.where(np.isinf(stats.average), 0.0, stats.average)
        total = weighted.sum()
        if total <= 0:
            raise AnalysisError("no tangible state carries stationary probability")
        phi = weighted / total
    tangible_mass = sum(full.pmf[i] for i in range(n) if chain.tangible[i])
    phi_b = np.array([full.pmf[i] / tangible_mass if chain.tangible[i] else 0.0 for i in range(n)])
    if np.max(np.abs(phi - phi_b)) > cross_check_tol:
        raise AnalysisError("steady-state routes disagree by %.2e" % float(np.max(np.abs(phi - phi_b))))
    return SolveResult(chain, stats, p_full, p_emb, full.pmf, emb.pmf, phi, comp, emb.periodic, full.periodic)


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------


def sweep_rows(model, base_ts: TransitionSystem, indices, points) -> List[Dict[str, float]]:
    """Index values at each grid point, one point at a time: instantiate the
    model, reweight the base transition system, build the chain, solve it,
    evaluate the indices.  The first failure raises the ``AnalysisError``
    message the CLI reports, naming its point."""
    rows = []
    for point in points:
        ts = reweight(base_ts, leaf_values_of(model.instantiate(point)))
        try:
            result = solve_chain(Chain.from_ts(ts))
            values = {}
            for name, expr in indices.items():
                try:
                    values[name] = evaluate_index(expr, result)
                except (ZeroDivisionError, ValueError) as exc:
                    raise AnalysisError("index %s: %s" % (name, exc)) from None
        except AnalysisError as exc:
            raise AnalysisError("analysis error at %s: %s" % (point, exc)) from None
        rows.append(values)
    return rows
