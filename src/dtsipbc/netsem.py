"""Compositional Petri boxes, the step firing rule and reachability graphs.

Boxes are safe labeled nets with entry/internal/exit place typing.  Operators
splice operand boxes by place multiplication: sequence merges exit with entry
places pairwise, choice merges the entries and the exits of both operands,
iteration fuses the initializer's exits, the body's entries and exits and the
terminator's entries into one looping interface.  Transitions are identified
with enumerated activities, so reachability graphs are directly comparable to
transition systems of expressions.

Reachability graphs and the safe/clean check explore a box compiled once
into index-coded form (``_Net``): markings are tuples of token counts per
place, transitions carry their presets and postsets as (place, count) pairs
and their activity values, and firing adds and subtracts counts.  Only the
reachable markings are turned back into ``Multiset`` objects and key
strings.  ``enabled`` and ``fire`` keep working on ``Multiset`` markings of
the box itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .expr import (
    Act,
    Action,
    Activity,
    Cho,
    Ite,
    Multiset,
    Par,
    Rel,
    Rst,
    Seq,
    StaticExpr,
    Syn,
    _children,
    _rebuild,
    is_regular,
    sync_activities,
)
from .opsem import SemanticsError, State, StateSpaceLimit, Step, Transition, TransitionSystem

__all__ = [
    "Place",
    "NetTransition",
    "DtsiBox",
    "box_of",
    "enabled",
    "fire",
    "fire_prob",
    "build_rg",
    "check_safe_clean",
    "StructureReport",
]

ENTRY, INTERNAL, EXIT = "e", "i", "x"


@dataclass(frozen=True, order=True)
class Place:
    name: str
    label: str  # 'e' | 'i' | 'x'


@dataclass(frozen=True, order=True)
class NetTransition:
    activity: Activity
    pre: Multiset
    post: Multiset


@dataclass(frozen=True)
class DtsiBox:
    """Plain labeled net; transition labels are constant activities."""

    places: Tuple[Place, ...]
    transitions: Tuple[NetTransition, ...]

    def __post_init__(self):
        if not (self.places or self.transitions):
            raise ValueError("a box needs at least one place or transition")
        names = [p.name for p in self.places]
        if len(set(names)) != len(names):
            raise ValueError("duplicate place names")
        for t in self.transitions:
            if not t.pre.items or not t.post.items:
                raise ValueError("every transition needs a nonempty pre- and postset")

    def entries(self) -> Multiset:
        return Multiset.from_iterable(p.name for p in self.places if p.label == ENTRY)

    def exits(self) -> Multiset:
        return Multiset.from_iterable(p.name for p in self.places if p.label == EXIT)

    def initial_marking(self) -> Multiset:
        return self.entries()

    def final_marking(self) -> Multiset:
        return self.exits()


# ---------------------------------------------------------------------------
# Compositional construction
# ---------------------------------------------------------------------------


def _leaf_box(activity: Activity) -> DtsiBox:
    e = Place("e%d" % activity.num, ENTRY)
    x = Place("x%d" % activity.num, EXIT)
    t = NetTransition(activity, Multiset.of(e.name), Multiset.of(x.name))
    return DtsiBox((e, x), (t,))


def _reroute(ms: Multiset, takes_part: Dict[str, List[str]]) -> Multiset:
    counts: Dict[str, int] = {}
    for name, n in ms.items:
        for target in takes_part.get(name, [name]):
            counts[target] = counts.get(target, 0) + n
    return Multiset.from_counts(counts)


def _splice(boxes: Sequence[DtsiBox], merges: Sequence[Tuple[Sequence[Sequence[Place]], str]]) -> DtsiBox:
    """The boxes side by side, with the place groups of each (groups, label)
    of ``merges`` multiplied: one new place of that label per combination of
    one place from each group, taking part in the arcs of its components."""
    new_places: List[Place] = []
    takes_part: Dict[str, List[str]] = {}
    for groups, label in merges:
        for combo in itertools.product(*groups):
            place = Place("(%s)" % "|".join(p.name for p in combo), label)
            new_places.append(place)
            for p in combo:
                takes_part.setdefault(p.name, []).append(place.name)
    absorbed = {p.name for groups, _ in merges for group in groups for p in group}
    places = [p for box in boxes for p in box.places if p.name not in absorbed] + new_places
    transitions = tuple(
        NetTransition(t.activity, _reroute(t.pre, takes_part), _reroute(t.post, takes_part))
        for box in boxes
        for t in box.transitions
    )
    return DtsiBox(tuple(places), transitions)


def _places(box: DtsiBox, label: str) -> List[Place]:
    return [p for p in box.places if p.label == label]


def _seq_box(n1: DtsiBox, n2: DtsiBox) -> DtsiBox:
    return _splice((n1, n2), [((_places(n1, EXIT), _places(n2, ENTRY)), INTERNAL)])


def _cho_box(n1: DtsiBox, n2: DtsiBox) -> DtsiBox:
    entries = (_places(n1, ENTRY), _places(n2, ENTRY))
    exits = (_places(n1, EXIT), _places(n2, EXIT))
    return _splice((n1, n2), [(entries, ENTRY), (exits, EXIT)])


def _par_box(n1: DtsiBox, n2: DtsiBox) -> DtsiBox:
    return DtsiBox(n1.places + n2.places, n1.transitions + n2.transitions)


def _ite_box(n1: DtsiBox, n2: DtsiBox, n3: DtsiBox) -> DtsiBox:
    loop = (_places(n1, EXIT), _places(n2, ENTRY), _places(n2, EXIT), _places(n3, ENTRY))
    return _splice((n1, n2, n3), [(loop, INTERNAL)])


def _rel_box(n: DtsiBox, func) -> DtsiBox:
    transitions = tuple(
        NetTransition(func.apply_activity(t.activity), t.pre, t.post) for t in n.transitions
    )
    return DtsiBox(n.places, transitions)


def _rst_box(n: DtsiBox, action: str) -> DtsiBox:
    a, ah = Action(action), Action(action, True)
    transitions = tuple(t for t in n.transitions if a not in t.activity.part and ah not in t.activity.part)
    return DtsiBox(n.places, transitions)


def _syn_box(n: DtsiBox, action: str) -> DtsiBox:
    """Close the box under pairwise synchronization on ``action``.

    Only a transition holding a and one holding a-hat can synchronize, so
    each transition is tested against such partners alone, taken in the
    order they joined the pool."""
    a, ah = Action(action), Action(action, True)
    pool: Dict[Activity, NetTransition] = {t.activity: t for t in n.transitions}
    order: List[NetTransition] = []
    content: List[frozenset] = []
    has_a: List[bool] = []
    has_ah: List[bool] = []
    holds_a: List[int] = []
    holds_ah: List[int] = []

    def join(t: NetTransition) -> None:
        k = len(order)
        order.append(t)
        content.append(t.activity.content)
        has_a.append(a in t.activity.part)
        has_ah.append(ah in t.activity.part)
        if has_a[k]:
            holds_a.append(k)
        if has_ah[k]:
            holds_ah.append(k)

    for t in pool.values():
        join(t)
    frontier = list(range(len(order)))
    while frontier:
        i = frontier.pop()
        t = order[i]
        partners = sorted(set(holds_ah if has_a[i] else ()) | set(holds_a if has_ah[i] else ()))
        for k in partners:
            u = order[k]
            if t.activity.immediate != u.activity.immediate or content[i] & content[k]:
                continue
            for (v, x), (w, y) in (((t, i), (u, k)), ((u, k), (t, i))):
                if has_a[x] and has_ah[y]:
                    merged_act = sync_activities(v.activity, w.activity, a)
                    if merged_act not in pool:
                        merged = NetTransition(merged_act, v.pre + w.pre, v.post + w.post)
                        pool[merged_act] = merged
                        frontier.append(len(order))
                        join(merged)
    return DtsiBox(n.places, tuple(sorted(pool.values())))


def box_of(expr: StaticExpr) -> DtsiBox:
    """Compositional net of a regular term, transitions labeled by activities."""
    if not is_regular(expr):
        raise SemanticsError("expression is not regular")
    return _box_of(expr)


# kind -> the box combinator, applied to the boxes of the subtrees and then
# to the node's other fields
_COMBINATOR = {
    Act: _leaf_box,
    Seq: _seq_box,
    Cho: _cho_box,
    Par: _par_box,
    Rel: _rel_box,
    Rst: _rst_box,
    Syn: _syn_box,
    Ite: _ite_box,
}


def _box_of(e: StaticExpr) -> DtsiBox:
    return _rebuild(e, [_box_of(c) for c in _children(e)], _COMBINATOR[type(e)])


# ---------------------------------------------------------------------------
# Firing rule
# ---------------------------------------------------------------------------


def enabled(box: DtsiBox, marking: Multiset) -> List[NetTransition]:
    """Transitions with sufficient tokens; immediate ones pre-empt stochastic."""
    fireable = [t for t in box.transitions if t.pre.issubset(marking)]
    if any(t.activity.immediate for t in fireable):
        fireable = [t for t in fireable if t.activity.immediate]
    return sorted(fireable)


def fire(box: DtsiBox, marking: Multiset, group: Iterable[NetTransition]) -> Multiset:
    """Fire a set of transitions at once; no self-concurrency, so sets only."""
    group = list(group)
    ena = set(enabled(box, marking))
    if not all(t in ena for t in group):
        raise SemanticsError("transition set is not enabled")
    pre = Multiset()
    post = Multiset()
    for t in group:
        pre = pre + t.pre
        post = post + t.post
    if not pre.issubset(marking):
        raise SemanticsError("transition set is not enabled as a set")
    return marking - pre + post


def fire_prob(box: DtsiBox, marking: Multiset, group: Iterable[NetTransition]) -> float:
    """Normalized probability that exactly this transition set fires."""
    group = tuple(sorted(group))
    net = _Net(box, marking)
    m = net.encode(marking)
    ena, tangible = net.enabled(m)
    groups = net.groups(m, ena, tangible)
    named = [tuple(net.transitions[k] for k in g) for g in groups]
    if group not in named:
        raise SemanticsError("transition set is not fireable here")
    total = sum(net.ready(g, ena, tangible) for g in groups)
    return net.ready(groups[named.index(group)], ena, tangible) / total


# ---------------------------------------------------------------------------
# Index-coded nets
# ---------------------------------------------------------------------------

Counts = Tuple[int, ...]  # a marking: token count per place index
Group = Tuple[int, ...]  # transition indices fired together, ascending


class _Net:
    """A box compiled once for exploring its markings.

    Places are numbered in name order and a marking is the tuple of their
    token counts.  Transitions are numbered in sorted order, which is the
    order of ``enabled``; presets and postsets become (place, count) pairs,
    and each activity's value and immediacy are read once.
    """

    def __init__(self, box: DtsiBox, marking: Multiset):
        names = set(marking).union(
            (p.name for p in box.places), *(t.pre for t in box.transitions), *(t.post for t in box.transitions)
        )
        self.names = sorted(names)
        self._place = {x: k for k, x in enumerate(self.names)}
        self.transitions = sorted(box.transitions)
        self.pre = [self._pairs(t.pre) for t in self.transitions]
        self.post = [self._pairs(t.post) for t in self.transitions]
        self.value = [t.activity.value for t in self.transitions]
        self.immediate = [t.activity.immediate for t in self.transitions]
        # equal transitions share one identity and equal activities one rank,
        # as they do in the set and step-order comparisons of the firing rule
        first: Dict[NetTransition, int] = {}
        self.same = [first.setdefault(t, k) for k, t in enumerate(self.transitions)]
        rank = {u: r for r, u in enumerate(sorted({t.activity for t in self.transitions}))}
        self._rank = [rank[t.activity] for t in self.transitions]
        self._steps: Dict[Group, Tuple[Tuple[int, ...], Step]] = {}

    def _pairs(self, ms: Multiset) -> Tuple[Tuple[int, int], ...]:
        return tuple((self._place[x], n) for x, n in ms.items)

    def encode(self, marking: Multiset) -> Counts:
        counts = [0] * len(self.names)
        for p, n in self._pairs(marking):
            counts[p] = n
        return tuple(counts)

    def decode(self, m: Counts) -> Multiset:
        return Multiset(tuple((x, n) for x, n in zip(self.names, m) if n))

    def enabled(self, m: Counts) -> Tuple[List[int], bool]:
        """``enabled`` as indices, and whether the marking is tangible."""
        ena = [k for k, pre in enumerate(self.pre) if all(m[p] >= n for p, n in pre)]
        if any(self.immediate[k] for k in ena):
            return [k for k in ena if self.immediate[k]], False
        return ena, True

    def groups(self, m: Counts, ena: List[int], tangible: bool) -> List[Group]:
        """Every subset of ``ena`` whose joint preset fits ``m``, in
        depth-first order, then the empty group when ``m`` is tangible."""
        free = list(m)
        chosen: List[int] = []
        out: List[Group] = []

        def extend(start: int) -> None:
            for pos in range(start, len(ena)):
                k = ena[pos]
                pre = self.pre[k]
                if all(free[p] >= n for p, n in pre):
                    for p, n in pre:
                        free[p] -= n
                    chosen.append(k)
                    out.append(tuple(chosen))
                    extend(pos + 1)
                    chosen.pop()
                    for p, n in pre:
                        free[p] += n

        extend(0)
        if tangible:
            out.append(())
        return out

    def fire(self, m: Counts, g: Group) -> Counts:
        counts = list(m)
        for k in g:
            for p, n in self.pre[k]:
                counts[p] -= n
            for p, n in self.post[k]:
                counts[p] += n
        return tuple(counts)

    def ready(self, g: Group, ena: List[int], tangible: bool) -> float:
        """Unnormalized probability (tangible) or weight (vanishing) of
        firing exactly ``g`` among ``ena``."""
        if not tangible:
            return sum(self.value[k] for k in g)
        prob = 1.0
        for k in g:
            prob *= self.value[k]
        chosen = {self.same[k] for k in g}
        for u in ena:
            if self.same[u] not in chosen:
                prob *= 1.0 - self.value[u]
        return prob

    def step(self, g: Group) -> Tuple[Tuple[int, ...], Step]:
        """The step of ``g`` (its activity set), built once per group, and
        a key that orders steps as ``step_key`` does."""
        found = self._steps.get(g)
        if found is None:
            found = (tuple(sorted({self._rank[k] for k in g})), frozenset(self.transitions[k].activity for k in g))
            self._steps[g] = found
        return found


Row = Tuple[List[int], bool, List[Tuple[Group, int]]]  # enabled, tangible, (group, target) arcs


def _explore(net: _Net, start: Counts, max_states: int) -> Tuple[List[Counts], List[Row]]:
    """Reachable markings in breadth-first order, each with its enabled
    transitions, tangibility and firing groups in step order."""
    index: Dict[Counts, int] = {}
    markings: List[Counts] = []

    def intern(m: Counts) -> int:
        idx = index.get(m)
        if idx is None:
            idx = len(markings)
            if idx >= max_states:
                raise StateSpaceLimit(max_states)
            index[m] = idx
            markings.append(m)
        return idx

    intern(start)
    rows: List[Row] = []
    while len(rows) < len(markings):
        m = markings[len(rows)]
        ena, tangible = net.enabled(m)
        groups = net.groups(m, ena, tangible)
        groups.sort(key=lambda g: net.step(g)[0])
        rows.append((ena, tangible, [(g, intern(net.fire(m, g))) for g in groups]))
    return markings, rows


# ---------------------------------------------------------------------------
# Reachability graph
# ---------------------------------------------------------------------------


def marking_key(marking: Multiset) -> str:
    return str(marking)


def build_rg(box: DtsiBox, initial: Optional[Multiset] = None, max_states: int = 100_000) -> TransitionSystem:
    """Reachability graph under the step firing rule, shaped like a transition
    system (steps are the activity sets of the fired transitions)."""
    start = box.initial_marking() if initial is None else initial
    net = _Net(box, start)
    counts, rows = _explore(net, net.encode(start), max_states)
    markings = [net.decode(m) for m in counts]
    states = [State(marking_key(m), (), tangible) for m, (_, tangible, _) in zip(markings, rows)]
    transitions: List[Transition] = []
    for i, (ena, tangible, arcs) in enumerate(rows):
        ready = [net.ready(g, ena, tangible) for g, _ in arcs]
        total = sum(ready)
        for (g, j), r in zip(arcs, ready):
            transitions.append(Transition(i, net.step(g)[1], r / total, j))

    rg = TransitionSystem(states, transitions, 0, None)
    rg.markings = markings  # type: ignore[attr-defined]
    return rg


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


@dataclass
class StructureReport:
    safe: bool
    clean: bool
    marking_count: int
    unsafe_witness: Optional[str] = None
    unclean_witness: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.safe and self.clean


def check_safe_clean(box: DtsiBox, max_states: int = 100_000) -> StructureReport:
    """Verify one-boundedness and entry/exit cleanness over reachable markings."""
    start = box.initial_marking()
    net = _Net(box, start)
    markings, _ = _explore(net, net.encode(start), max_states)
    interfaces = (net.encode(box.entries()), net.encode(box.exits()))
    report = StructureReport(True, True, len(markings))
    for m in markings:
        if any(n > 1 for n in m):
            report.safe = False
            report.unsafe_witness = marking_key(net.decode(m))
        for interface in interfaces:
            if m != interface and all(n >= k for n, k in zip(m, interface)):
                report.clean = False
                report.unclean_witness = marking_key(net.decode(m))
    return report
