"""Compositional Petri boxes, the step firing rule and reachability graphs.

Boxes are safe labeled nets with entry/internal/exit place typing.  Operators
splice operand boxes by place multiplication: sequence merges exit with entry
places pairwise, choice merges the entries and the exits of both operands,
iteration fuses the initializer's exits, the body's entries and exits and the
terminator's entries into one looping interface.  Transitions are identified
with enumerated activities, so reachability graphs are directly comparable to
transition systems of expressions.

Each box is compiled once into index-coded form (``_Net``, cached on the
box).  A marking is one int with a fixed-width field of token counts per
place and a guard bit above each field, so a preset test is one subtraction
and a mask, and firing adds one precomputed difference.  The fields are wide
enough that no count can overflow before the state cap stops the run.  The
box's net explores the markings reachable from the initial marking once:
``check_safe_clean`` and ``build_rg`` read the same exploration, in either
order, and ``build_rg`` releases its per-marking rows once it has read them.
Only the reachable markings are turned back into ``Multiset`` objects and
key strings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

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
    _rebuild,
    fold,
    is_regular,
    sync_activities,
)
from .opsem import SemanticsError, State, StateSpaceLimit, Step, Transition, TransitionSystem

__all__ = [
    "Place",
    "NetTransition",
    "DtsiBox",
    "box_of",
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

    @cached_property
    def _net(self) -> "_Net":
        """The box compiled for exploring its markings, with the exploration
        from its initial marking once that has run."""
        return _Net(self)


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


def _holds(activity: Activity, action: str) -> Tuple[bool, bool]:
    """Whether the activity's multiaction holds ``action``, and whether it
    holds its conjugate, read in one pass over the multiaction."""
    held = [False, False]
    for x, _ in activity.part.items:
        if x.name == action:
            held[x.conjugated] = True
    return held[0], held[1]


def _rst_box(n: DtsiBox, action: str) -> DtsiBox:
    return DtsiBox(n.places, tuple(t for t in n.transitions if not any(_holds(t.activity, action))))


def _syn_box(n: DtsiBox, action: str) -> DtsiBox:
    """Close the box under pairwise synchronization on ``action``.

    Only a transition holding a and one holding a-hat can synchronize, so
    each transition is tested against such partners alone, taken in the
    order they joined the pool."""
    a = Action(action)
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
        held, hat_held = _holds(t.activity, action)
        has_a.append(held)
        has_ah.append(hat_held)
        if held:
            holds_a.append(k)
        if hat_held:
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
                        if merged_act.immediate and math.isinf(merged_act.value):
                            raise SemanticsError("the immediate weights synchronized on %s sum past the float range"
                                                 % action)
                        merged = NetTransition(merged_act, v.pre + w.pre, v.post + w.post)
                        pool[merged_act] = merged
                        frontier.append(len(order))
                        join(merged)
    return DtsiBox(n.places, tuple(sorted(pool.values(), key=_activity_order)))


def _activity_order(t: NetTransition) -> tuple:
    """The order of ``NetTransition``s within one pool, as plain tuples: the
    activities of a pool are distinct, so theirs decides it, and an
    ``Activity`` orders by its multiaction's ((name, conjugated), count)
    pairs, then ``immediate``, then ``leaves``."""
    act = t.activity
    return tuple(((x.name, x.conjugated), count) for x, count in act.part.items), act.immediate, act.leaves


def box_of(expr: StaticExpr) -> DtsiBox:
    """Compositional net of a regular term, transitions labeled by activities."""
    if not is_regular(expr):
        raise SemanticsError("expression is not regular")
    return fold(expr, lambda e, boxes: _rebuild(e, boxes, _COMBINATOR[type(e)]))


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


# ---------------------------------------------------------------------------
# Index-coded nets
# ---------------------------------------------------------------------------


class _Group:
    """Transitions fired together, as ascending indices, with what the
    firing rule reads of them: their step (activity set), a key that
    orders steps as ``step_key`` does, their identities (equal transitions
    share one), and the product and the sum of their values, multiplied and
    added in index order.  A group is built on first use, as a child of the
    group without its last transition, and kept until ``build_rg`` releases
    the exploration that fired it."""

    __slots__ = ("members", "step", "key", "chosen", "prod", "weight", "children")

    def __init__(self, members, step, key, chosen, prod, weight):
        self.members: Tuple[int, ...] = members
        self.step: Step = step
        self.key: Tuple[int, ...] = key
        self.chosen: frozenset = chosen
        self.prod: float = prod
        self.weight: float = weight
        self.children: Dict[int, "_Group"] = {}


Row = Tuple[List[int], bool, List[Tuple[_Group, int]]]  # enabled, tangible, (group, target) arcs


class _Net:
    """A box compiled once for exploring its markings.

    Places are numbered in name order.  A marking is one int holding a field
    of ``width`` bits per place, place k at bit k * (width + 1), and a zero
    guard bit above each field; ``guard`` has every guard bit set.  A preset
    ``pre`` fits marking ``m`` when ``((m | guard) - pre) & guard == guard``
    (no field borrows from its guard), and firing is ``m - pre + post``.
    Transitions are numbered in sorted order; each activity's value and
    immediacy are read once.

    ``explored`` keeps the exploration from the box's initial marking once
    it has finished: its markings, and its rows until ``build_rg`` takes
    them.
    """

    def __init__(self, box: DtsiBox):
        names = {p.name for p in box.places}.union(*(t.pre for t in box.transitions),
                                                   *(t.post for t in box.transitions))
        self.names = sorted(names)
        self.place = {x: k for k, x in enumerate(self.names)}
        self.transitions = sorted(box.transitions)
        self.initial = box.initial_marking()
        self.interfaces = (box.entries(), box.exits())
        self.value = [t.activity.value for t in self.transitions]
        self.immediate = [t.activity.immediate for t in self.transitions]
        # equal transitions share one identity and equal activities one rank,
        # as they do in the set and step-order comparisons of the firing rule
        first: Dict[NetTransition, int] = {}
        self.same = [first.setdefault(t, k) for k, t in enumerate(self.transitions)]
        rank = {u: r for r, u in enumerate(sorted({t.activity for t in self.transitions}))}
        self._rank = [rank[t.activity] for t in self.transitions]
        self.empty = _Group((), frozenset(), (), frozenset(), 1.0, 0)
        # a step fires each transition at most once, so it adds at most
        # ``growth`` tokens to a place
        self.growth = sum(t.post.cardinality for t in self.transitions)
        self.heaviest = max((n for t in self.transitions for _, n in t.pre.items), default=0)
        self.width = 0
        self.explored: Optional[Tuple[List[int], Optional[List[Row]]]] = None

    def fit(self, tokens: int) -> None:
        """Widen the fields, if needed, to hold ``tokens`` tokens and every
        preset.  The kept exploration was packed narrower and is dropped."""
        width = max(tokens, self.heaviest, 1).bit_length()
        if width <= self.width:
            return
        self.width = width
        self.stride = stride = width + 1
        self.mask = (1 << width) - 1
        self.guard = sum(1 << (k * stride + width) for k in range(len(self.names)))
        # every bit of a field but its lowest: a marking is unsafe where it
        # has one of them set
        self.high = sum((self.mask ^ 1) << (k * stride) for k in range(len(self.names)))
        self.pre = [self.encode(t.pre) for t in self.transitions]
        self.delta = [self.encode(t.post) - pre for t, pre in zip(self.transitions, self.pre)]
        self.explored = None

    def encode(self, marking: Multiset) -> int:
        return sum(n << (self.place[x] * self.stride) for x, n in marking.items)

    def decode(self, m: int) -> Multiset:
        stride, mask, names = self.stride, self.mask, self.names
        items = []
        k = 0  # the place of the lowest field left in m
        while m:
            skip = ((m & -m).bit_length() - 1) // stride
            m >>= skip * stride
            k += skip
            items.append((names[k], m & mask))
            m >>= stride
            k += 1
        return Multiset(tuple(items))

    def covers(self, m: int, sub: int) -> bool:
        """Whether marking ``m`` holds every token of ``sub``."""
        guard = self.guard
        return ((m | guard) - sub) & guard == guard

    def enabled(self, m: int) -> Tuple[List[int], bool]:
        """The enabled transitions, immediate ones pre-empting stochastic
        ones, as indices, and whether the marking is tangible."""
        guard = self.guard
        free = m | guard
        ena = [k for k, pre in enumerate(self.pre) if (free - pre) & guard == guard]
        if any(self.immediate[k] for k in ena):
            return [k for k in ena if self.immediate[k]], False
        return ena, True

    def groups(self, m: int, ena: List[int], tangible: bool) -> List[Tuple[_Group, int]]:
        """Every subset of ``ena`` whose joint preset fits ``m``, in
        depth-first order, then the empty group when ``m`` is tangible;
        each with the change firing it makes to ``m``."""
        guard, pre, delta = self.guard, self.pre, self.delta
        out: List[Tuple[_Group, int]] = []
        # (next position in ena, group, tokens left free, change so far)
        stack = [(0, self.empty, m | guard, 0)]
        while stack:
            start, group, free, change = stack.pop()
            for pos in range(start, len(ena)):
                k = ena[pos]
                rest = free - pre[k]
                if rest & guard == guard:
                    child = group.children.get(k) or self._child(group, k)
                    moved = change + delta[k]
                    out.append((child, moved))
                    # the groups that extend child come before child's siblings
                    stack.append((pos + 1, group, free, change))
                    stack.append((pos + 1, child, rest, moved))
                    break
        if tangible:
            out.append((self.empty, 0))
        return out

    def _child(self, group: _Group, k: int) -> _Group:
        members = group.members + (k,)
        child = _Group(
            members,
            group.step | {self.transitions[k].activity},
            tuple(sorted({self._rank[j] for j in members})),
            group.chosen | {self.same[k]},
            group.prod * self.value[k],
            group.weight + self.value[k],
        )
        group.children[k] = child
        return child

    def ready(self, ena: List[int], tangible: bool, groups: List[_Group]) -> List[float]:
        """Unnormalized probability (tangible) or weight (vanishing) of
        firing exactly each of ``groups`` among ``ena``: a probability is
        the group's product times 1 - value of each other enabled
        transition, in index order."""
        if not tangible:
            return [g.weight for g in groups]
        others = [(self.same[u], 1.0 - self.value[u]) for u in ena]
        out = []
        for g in groups:
            prob, chosen = g.prod, g.chosen
            for u, rest in others:
                if u not in chosen:
                    prob *= rest
            out.append(prob)
        return out

    def explore(self, max_states: int) -> Tuple[List[int], List[Row]]:
        """The markings reachable from the initial one in breadth-first
        order, each with its enabled transitions, tangibility and firing
        groups in step order."""
        # the marking with index i lies at most i steps from the start, and
        # a marking with an index of max_states or more stops the run
        self.fit(max((n for _, n in self.initial.items), default=0) + max_states * self.growth)
        index: Dict[int, int] = {}
        markings: List[int] = []

        def intern(m: int) -> int:
            idx = index.get(m)
            if idx is None:
                idx = len(markings)
                if idx >= max_states:
                    raise StateSpaceLimit(max_states)
                index[m] = idx
                markings.append(m)
            return idx

        intern(self.encode(self.initial))
        rows: List[Row] = []
        while len(rows) < len(markings):
            m = markings[len(rows)]
            ena, tangible = self.enabled(m)
            arcs = self.groups(m, ena, tangible)
            arcs.sort(key=_step_order)
            rows.append((ena, tangible, [(g, intern(m + change)) for g, change in arcs]))
        return markings, rows

    def release(self, markings: List[int]) -> None:
        """Keep ``markings`` as the exploration, without its rows, and drop
        the groups built so far; only an exploration reads them."""
        self.explored = (markings, None)
        self.empty = _Group((), frozenset(), (), frozenset(), 1.0, 0)

    def reachable(self, max_states: int) -> Tuple[List[int], Optional[List[Row]]]:
        """The exploration from the initial marking, run once and kept."""
        if self.explored is None:
            self.explored = self.explore(max_states)
        markings, rows = self.explored
        if len(markings) > max_states:
            raise StateSpaceLimit(max_states)
        return markings, rows


def _step_order(arc: Tuple[_Group, int]) -> Tuple[int, ...]:
    return arc[0].key


# ---------------------------------------------------------------------------
# Reachability graph
# ---------------------------------------------------------------------------


def marking_key(marking: Multiset) -> str:
    return str(marking)


def build_rg(box: DtsiBox, max_states: int = 100_000) -> TransitionSystem:
    """Reachability graph under the step firing rule, shaped like a transition
    system (steps are the activity sets of the fired transitions).  A
    marking whose immediate weights sum past the float range has no step
    probabilities, and is refused as ``build_ts`` refuses its state."""
    net = box._net
    counts, rows = net.reachable(max_states)
    if rows is None:  # an earlier graph took them
        counts, rows = net.explore(max_states)
    net.release(counts)
    markings = [net.decode(m) for m in counts]
    states = [State(marking_key(m), (), tangible) for m, (_, tangible, _) in zip(markings, rows)]
    transitions: List[Transition] = []
    for i, (ena, tangible, arcs) in enumerate(rows):
        ready = net.ready(ena, tangible, [g for g, _ in arcs])
        total = sum(ready)
        if not math.isfinite(total):
            raise SemanticsError("the immediate weights of state %d sum past the float range" % (i + 1))
        transitions += [Transition(i, g.step, r / total, j) for (g, j), r in zip(arcs, ready)]

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
    net = box._net
    markings, _ = net.reachable(max_states)
    interfaces = [net.encode(interface) for interface in net.interfaces]
    report = StructureReport(True, True, len(markings))
    for m in markings:
        if m & net.high:
            report.safe = False
            report.unsafe_witness = marking_key(net.decode(m))
        for interface in interfaces:
            if m != interface and net.covers(m, interface):
                report.clean = False
                report.unclean_witness = marking_key(net.decode(m))
    return report
