"""Core algebra: actions, multisets, activities and process expression trees.

Values of every class here are immutable and hashable, so they can be shared
freely between threads and used as dictionary keys (state keys, step labels).

The 17 kinds of expression node are described once, in ``_KINDS``: the
subtree fields in order, the other fields (``activity``, ``func``,
``action``) and the static or barred counterpart (``Seq`` and ``DSeq``).
Tree walks are visits of ``fold``, one post-order walk on an explicit
stack; a visit reads a node through ``_children`` and ``_rebuild`` and
names only the kinds it treats specially, so no walk re-lists every kind.
What differs per kind is kept in tables keyed by kind: the bar-moving rules
and the step maps of the derivation (``opsem``), the box operators
(``netsem``), and the surface syntax that the printer and template
instantiation share (``parser``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

__all__ = [
    "Action",
    "Multiset",
    "Numbering",
    "numbering_content",
    "numbering_str",
    "Activity",
    "Relabeling",
    "StaticExpr",
    "Act",
    "Seq",
    "Cho",
    "Par",
    "Rel",
    "Rst",
    "Syn",
    "Ite",
    "DynamicExpr",
    "Over",
    "Under",
    "DSeq",
    "DCho",
    "DPar",
    "DRel",
    "DRst",
    "DSyn",
    "DIte",
    "STOP_ACTION",
    "stop_expr",
    "is_stop",
    "sync_parts",
    "sync_activities",
    "apply_relabel",
    "is_regular",
    "is_iteration_body",
    "underlying",
    "renumber",
    "activities_of",
    "is_dynamic",
    "fold",
]


# ---------------------------------------------------------------------------
# Actions and multisets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Action:
    """Elementary action or its conjugate (the hat form)."""

    name: str
    conjugated: bool = False

    def conjugate(self) -> "Action":
        return Action(self.name, not self.conjugated)

    def __str__(self) -> str:
        return self.name + ("^" if self.conjugated else "")


@dataclass(frozen=True, order=True)
class Multiset:
    """Finite multiset with orderable elements, kept as sorted (item, count) pairs.

    Sum and difference follow the bag laws (M+M')(x) = M(x)+M'(x) and
    (M-M')(x) = max(0, M(x)-M'(x)); difference saturates at zero.
    """

    items: Tuple[Tuple[Any, int], ...] = ()

    @staticmethod
    def of(*elements: Any) -> "Multiset":
        return Multiset.from_iterable(elements)

    @staticmethod
    def from_iterable(elements: Iterable[Any]) -> "Multiset":
        counts: dict = {}
        for x in elements:
            counts[x] = counts.get(x, 0) + 1
        return Multiset(tuple(sorted(counts.items())))

    @staticmethod
    def from_counts(counts: Mapping[Any, int]) -> "Multiset":
        return Multiset(tuple(sorted((x, n) for x, n in counts.items() if n > 0)))

    def count(self, x: Any) -> int:
        for y, n in self.items:
            if y == x:
                return n
        return 0

    def __contains__(self, x: Any) -> bool:
        return self.count(x) > 0

    def __iter__(self) -> Iterator[Any]:
        """Iterate over distinct elements."""
        return (x for x, _ in self.items)

    def elements(self) -> Iterator[Any]:
        """Iterate over elements with multiplicity."""
        for x, n in self.items:
            for _ in range(n):
                yield x

    @property
    def cardinality(self) -> int:
        return sum(n for _, n in self.items)

    def __bool__(self) -> bool:
        return bool(self.items)

    def __add__(self, other: "Multiset") -> "Multiset":
        counts = dict(self.items)
        for x, n in other.items:
            counts[x] = counts.get(x, 0) + n
        return Multiset.from_counts(counts)

    def __sub__(self, other: "Multiset") -> "Multiset":
        counts = dict(self.items)
        for x, n in other.items:
            counts[x] = max(0, counts.get(x, 0) - n)
        return Multiset.from_counts(counts)

    def issubset(self, other: "Multiset") -> bool:
        return all(other.count(x) >= n for x, n in self.items)

    def keys(self) -> Tuple[Any, ...]:
        return tuple(x for x, _ in self.items)

    def __str__(self) -> str:
        parts = []
        for x, n in self.items:
            parts.extend([str(x)] * n)
        return "{%s}" % ",".join(parts)


# ---------------------------------------------------------------------------
# Numberings
# ---------------------------------------------------------------------------

# A numbering is a leaf (int) or an ordered pair of numberings, encoding the
# binary synchronization tree.  Identity of activities uses only the content.
Numbering = Union[int, Tuple["Numbering", "Numbering"]]


def numbering_content(num: Numbering) -> frozenset:
    if isinstance(num, int):
        return frozenset((num,))
    left, right = num
    return numbering_content(left) | numbering_content(right)


def numbering_str(num: Numbering) -> str:
    if isinstance(num, int):
        return str(num)
    left, right = num
    return "(%s)(%s)" % (numbering_str(left), numbering_str(right))


# ---------------------------------------------------------------------------
# Hashed nodes
# ---------------------------------------------------------------------------


def _node(cls):
    """Frozen, ordered dataclass whose hash is computed once per instance.

    The hash is the dataclass field hash, so equal trees still hash equal;
    keeping it on the node lets memo tables keyed by deep trees hash every
    node once instead of re-walking the subtree on each lookup.  It is left
    out of the pickled state, because string hashes differ between processes.
    """
    cls = dataclass(frozen=True, order=True)(cls)
    field_hash = cls.__hash__

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = field_hash(self)
        return h

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


# ---------------------------------------------------------------------------
# Activities
# ---------------------------------------------------------------------------


@_node
class Activity:
    """Stochastic or immediate multiaction occurrence.

    ``leaves`` maps each leaf number of the numbering to the base probability
    or weight it contributes; the effective value is the product (stochastic)
    or the sum (immediate) over the sorted leaves, which makes activities
    produced by synchronizing the same set in different orders compare equal.
    The numbering tree itself is kept for display only and is excluded from
    equality and ordering.
    """

    part: Multiset
    immediate: bool
    leaves: Tuple[Tuple[int, float], ...]
    num: Numbering = field(compare=False)

    @staticmethod
    def make(part: Multiset, immediate: bool, value: float, leaf: int) -> "Activity":
        Activity.check_value(immediate, value)
        return Activity(part, immediate, ((leaf, value),), leaf)

    @staticmethod
    def value_bounds(immediate: bool) -> Tuple[float, float]:
        """The open interval a base value lies in: weights are positive and
        finite, probabilities lie strictly in (0;1)."""
        return (0.0, math.inf) if immediate else (0.0, 1.0)

    @staticmethod
    def range_error(immediate: bool, value: float) -> ValueError:
        """The error for a base value outside ``value_bounds``."""
        if immediate:
            return ValueError("immediate weight must be positive and finite, got %r" % value)
        return ValueError("probability must lie strictly in (0;1), got %r" % value)

    @staticmethod
    def check_value(immediate: bool, value: float) -> None:
        low, high = Activity.value_bounds(immediate)
        if not low < value < high:
            raise Activity.range_error(immediate, value)

    @property
    def value(self) -> float:
        vals = [v for _, v in self.leaves]
        return weight_sum(vals) if self.immediate else math.prod(vals)

    @property
    def content(self) -> frozenset:
        return frozenset(i for i, _ in self.leaves)

    def __str__(self) -> str:
        if self.immediate:
            return "(%s,#%r)" % (self.part, self.value)
        return "(%s,%r)" % (self.part, self.value)

    def tagged(self) -> str:
        return "%s:%s" % (self, numbering_str(self.num))


def weight_sum(weights: Iterable[float]) -> float:
    """The exact sum of immediate weights (``math.fsum``), or inf where it
    passes the float range."""
    try:
        return math.fsum(weights)
    except OverflowError:  # fsum raises where a partial sum overflows
        return math.inf


def sync_parts(alpha: Multiset, beta: Multiset, a: Action) -> Multiset:
    """Merge two multiactions over an action/conjugate pair, removing one of each."""
    ah = a.conjugate()
    if not ((a in alpha and ah in beta) or (ah in alpha and a in beta)):
        raise ValueError("multiactions %s and %s are not synchronizable on %s" % (alpha, beta, a))
    return alpha + beta - Multiset.of(a, ah)


def sync_activities(u: Activity, v: Activity, a: Action) -> Activity:
    """Fuse two activities over ``a``: probabilities multiply, weights add."""
    if u.immediate != v.immediate:
        raise ValueError("cannot synchronize a stochastic activity with an immediate one")
    if u.content & v.content:
        raise ValueError("self-synchronization is not allowed")
    part = sync_parts(u.part, v.part, a)
    leaves = tuple(sorted(u.leaves + v.leaves))
    return Activity(part, u.immediate, leaves, (u.num, v.num))


# ---------------------------------------------------------------------------
# Relabelings
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Relabeling:
    """Bijection on actions that preserves conjugation, given on base names."""

    pairs: Tuple[Tuple[str, str], ...]

    def __post_init__(self) -> None:
        mapping = dict(self.pairs)
        if len(mapping) != len(self.pairs):
            raise ValueError("relabeling maps a name twice")
        if sorted(mapping) != sorted(mapping.values()):
            raise ValueError("relabeling is not a bijection: domain and range differ")

    @staticmethod
    def swap(*swaps: Tuple[str, str]) -> "Relabeling":
        pairs = []
        for x, y in swaps:
            pairs.append((x, y))
            if x != y:
                pairs.append((y, x))
        return Relabeling(tuple(sorted(set(pairs))))

    def apply_action(self, act: Action) -> Action:
        mapping = dict(self.pairs)
        return Action(mapping.get(act.name, act.name), act.conjugated)

    def apply_part(self, part: Multiset) -> Multiset:
        return Multiset.from_iterable(self.apply_action(x) for x in part.elements())

    def apply_activity(self, u: Activity) -> Activity:
        return Activity(self.apply_part(u.part), u.immediate, u.leaves, u.num)

    def __str__(self) -> str:
        done = set()
        chunks = []
        for x, y in self.pairs:
            if x in done:
                continue
            if dict(self.pairs).get(y) == x and x != y:
                chunks.append("%s<->%s" % tuple(sorted((x, y))))
                done.update((x, y))
            else:
                chunks.append("%s->%s" % (x, y))
                done.add(x)
        return "[f: %s]" % ", ".join(sorted(chunks))


def apply_relabel(f: Relabeling, step: Iterable[Activity]) -> frozenset:
    """Relabel every activity of a step elementwise; kinds and numberings stay."""
    return frozenset(f.apply_activity(u) for u in step)


# ---------------------------------------------------------------------------
# Static expressions
# ---------------------------------------------------------------------------


class StaticExpr:
    """Base class for process structure trees."""

    __slots__ = ()


@_node
class Act(StaticExpr):
    activity: Activity


@_node
class Seq(StaticExpr):
    left: StaticExpr
    right: StaticExpr


@_node
class Cho(StaticExpr):
    left: StaticExpr
    right: StaticExpr


@_node
class Par(StaticExpr):
    left: StaticExpr
    right: StaticExpr


@_node
class Rel(StaticExpr):
    child: StaticExpr
    func: Relabeling


@_node
class Rst(StaticExpr):
    child: StaticExpr
    action: str


@_node
class Syn(StaticExpr):
    child: StaticExpr
    action: str


@_node
class Ite(StaticExpr):
    init: StaticExpr
    body: StaticExpr
    term: StaticExpr


# The non-terminating process is an abbreviation for a restricted activity
# over a reserved action that no surface-syntax model can mention.
STOP_ACTION = "%stop"


def stop_expr(leaf: int = 0) -> StaticExpr:
    act = Activity.make(Multiset.of(Action(STOP_ACTION)), False, 0.5, leaf)
    return Rst(Act(act), STOP_ACTION)


def is_stop(e: StaticExpr) -> bool:
    return (
        isinstance(e, Rst)
        and e.action == STOP_ACTION
        and isinstance(e.child, Act)
        and e.child.activity.part == Multiset.of(Action(STOP_ACTION))
    )


def is_regular(e: StaticExpr) -> bool:
    """Check the regular grammar: no parallel composition at the top level of
    any iteration body."""
    return fold(e, _regularity, _static_children)[0]


def is_iteration_body(e: StaticExpr) -> bool:
    return fold(e, _regularity, _static_children)[1]


def _regularity(e: StaticExpr, operands: Sequence[Tuple[bool, bool]]) -> Tuple[bool, bool]:
    """(regular, regular as an iteration body) of ``e``, from those of its subtrees."""
    if isinstance(e, Ite):
        (init, init_body), (_, body), (term, _) = operands
        return init and body and term, init_body and body and term
    regular = all(r for r, _ in operands)
    if isinstance(e, Seq):
        return regular, operands[0][1] and operands[1][0]
    return regular, not isinstance(e, Par) and all(b for _, b in operands)


def activities_of(e: StaticExpr) -> Tuple[Activity, ...]:
    """All activity occurrences in source order."""
    found: List[Activity] = []

    def visit(node, _):
        if isinstance(node, Act):
            found.append(node.activity)

    fold(e, visit, _static_children)
    return tuple(found)


def renumber(e: StaticExpr, start: int = 1) -> StaticExpr:
    """Assign fresh leaf numbers 1..n to activity occurrences, left to right."""
    return _renumbered(e, start, _static_children)


def _renumbered(e, start: int, children: Callable):
    """``e`` with fresh leaf numbers from ``start`` on, left to right, over
    the subtrees that ``children`` lists."""
    counter = [start - 1]

    def visit(node, operands):
        if isinstance(node, Act):
            counter[0] += 1
            u = node.activity
            base = u.leaves[0][1] if len(u.leaves) == 1 else u.value
            return Act(Activity(u.part, u.immediate, ((counter[0], base),), counter[0]))
        return _rebuild(node, operands)

    return fold(e, visit, children)


# ---------------------------------------------------------------------------
# Dynamic expressions
# ---------------------------------------------------------------------------


class DynamicExpr:
    """Static skeleton annotated with bars marking the active components."""

    __slots__ = ()


@_node
class Over(DynamicExpr):
    expr: StaticExpr


@_node
class Under(DynamicExpr):
    expr: StaticExpr


@_node
class DSeq(DynamicExpr):
    # exactly one side is dynamic
    left: Union[StaticExpr, DynamicExpr]
    right: Union[StaticExpr, DynamicExpr]


@_node
class DCho(DynamicExpr):
    left: Union[StaticExpr, DynamicExpr]
    right: Union[StaticExpr, DynamicExpr]


@_node
class DPar(DynamicExpr):
    left: DynamicExpr
    right: DynamicExpr


@_node
class DRel(DynamicExpr):
    child: DynamicExpr
    func: Relabeling


@_node
class DRst(DynamicExpr):
    child: DynamicExpr
    action: str


@_node
class DSyn(DynamicExpr):
    child: DynamicExpr
    action: str


@_node
class DIte(DynamicExpr):
    # exactly one of the three arguments is dynamic
    init: Union[StaticExpr, DynamicExpr]
    body: Union[StaticExpr, DynamicExpr]
    term: Union[StaticExpr, DynamicExpr]


def is_dynamic(x: object) -> bool:
    return isinstance(x, DynamicExpr)


def underlying(g: Union[StaticExpr, DynamicExpr]) -> StaticExpr:
    """Strip every bar, recovering the static skeleton."""

    def visit(g, operands):
        if isinstance(g, StaticExpr):
            return g
        if isinstance(g, (Over, Under)):
            return g.expr
        return _rebuild(g, operands, _kind(g).counterpart)

    # the walk ends at each bar and each static subtree
    return fold(g, visit, lambda g: [] if isinstance(g, (StaticExpr, Over, Under)) else _children(g))


# ---------------------------------------------------------------------------
# The node kinds
# ---------------------------------------------------------------------------


class _Kind(NamedTuple):
    subtrees: Tuple[str, ...]  # the fields holding subtrees, in order
    attributes: Tuple[str, ...]  # the other fields; they follow the subtrees
    counterpart: Optional[type]  # the static kind of a barred one, and back


# each operator: its static kind, its barred kind, and their shared fields
_OPERATORS = (
    (Seq, DSeq, ("left", "right"), ()),
    (Cho, DCho, ("left", "right"), ()),
    (Par, DPar, ("left", "right"), ()),
    (Rel, DRel, ("child",), ("func",)),
    (Rst, DRst, ("child",), ("action",)),
    (Syn, DSyn, ("child",), ("action",)),
    (Ite, DIte, ("init", "body", "term"), ()),
)
_KINDS = {
    Act: _Kind((), ("activity",), None),
    Over: _Kind(("expr",), (), None),
    Under: _Kind(("expr",), (), None),
    **{static: _Kind(subtrees, attributes, dynamic) for static, dynamic, subtrees, attributes in _OPERATORS},
    **{dynamic: _Kind(subtrees, attributes, static) for static, dynamic, subtrees, attributes in _OPERATORS},
}


def _kind(node: object) -> _Kind:
    try:
        return _KINDS[type(node)]
    except KeyError:
        raise TypeError("not an expression: %r" % (node,)) from None


def _children(node: Union[StaticExpr, DynamicExpr]) -> List[Union[StaticExpr, DynamicExpr]]:
    """The subtrees of ``node``, in field order."""
    return [getattr(node, name) for name in _kind(node).subtrees]


def fold(root, visit: Callable[[Any, Sequence], Any], children: Callable[[Any], Sequence] = _children):
    """``visit(node, results)`` for every node of the tree under ``root``,
    bottom-up and left to right, where ``results`` holds the visits of
    ``children(node)`` in order; returns the visit of ``root``.  The walk
    keeps an explicit stack, so it takes any depth of nesting."""
    order = []  # each node and its number of children; reversed, a post-order
    stack = [root]
    while stack:
        node = stack.pop()
        below = children(node)
        order.append((node, len(below)))
        stack.extend(below)
    results: list = []
    for node, n in reversed(order):
        operands = results[len(results) - n:]
        del results[len(results) - n:]
        results.append(visit(node, operands))
    return results[0]


def _static_children(e: StaticExpr) -> List[StaticExpr]:
    if not isinstance(e, StaticExpr):
        raise TypeError("not a static expression: %r" % (e,))
    return _children(e)


def _attributes(node) -> list:
    """The fields of ``node`` that hold no subtree, in field order."""
    return [getattr(node, name) for name in _kind(node).attributes]


def _rebuild(node, children: Sequence, make: Optional[Callable] = None):
    """``make(*children, *_attributes(node))``; ``make`` defaults to the kind
    of ``node``."""
    return (make or type(node))(*children, *_attributes(node))
