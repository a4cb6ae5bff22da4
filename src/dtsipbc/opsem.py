"""Step operational semantics: bar rewriting, step derivation, transition systems.

States are structural-equivalence classes of barred expressions: the closure
of a term under the bar-moving rules, which are written once, as one table
of port groups (``_PORT_GROUPS``), and read forwards and backwards.  A state
is represented by its operative members (those no forward rule rewrites),
which the derivation rules start from.  They are computed from the classes
of the subterms, never by enumerating the class: equivalent expressions
denote the same marking of the box, so the class of a parallel composition
is the product of its components' classes, and the class of any other node
joins the classes of its dynamic argument that the same table links
(``Engine._summary``).  ``Engine.closure`` still enumerates whole classes;
it is the reference the tests check the summaries against.

A step is a set of activities executed in one clock tick (stochastic) or
instantaneously (immediate).  Immediate steps pre-empt stochastic ones, which
is enforced twice: locally, through the guards of the derivation rules at
choice, parallel and iteration positions (evaluated against whole equivalence
classes, so that structurally equivalent terms agree), and globally, when a
class containing a derivable immediate step refuses the empty tick.

Probabilities follow the discrete-time reading: every stochastic activity
executable in a tangible state tosses its own coin, the results are
conditioned on forming an executable set, and weights of immediate activities
are normalized directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .expr import (
    Act,
    Action,
    Activity,
    DCho,
    DIte,
    DPar,
    DRel,
    DRst,
    DSeq,
    DSyn,
    DynamicExpr,
    Multiset,
    Over,
    StaticExpr,
    Under,
    _KINDS,
    _attributes,
    _children,
    _kind,
    _rebuild,
    apply_relabel,
    is_regular,
    sync_activities,
    underlying,
)
from .parser import serialize

__all__ = [
    "SemanticsError",
    "StateSpaceLimit",
    "Step",
    "step_key",
    "step_label",
    "State",
    "Transition",
    "TransitionSystem",
    "Engine",
    "inaction_closure",
    "build_ts",
    "ts_isomorphic",
    "leaf_values_of",
    "Readiness",
]

Step = FrozenSet[Activity]

EMPTY_STEP: Step = frozenset()


class SemanticsError(Exception):
    """An invariant of the step semantics failed; indicates a malformed model."""


class StateSpaceLimit(Exception):
    def __init__(self, limit: int):
        super().__init__("state-space limit of %d exceeded" % limit)
        self.limit = limit


def step_key(step: Step) -> Tuple[Activity, ...]:
    return tuple(sorted(step))


def step_label(step: Step):
    """Multiset of multiaction parts of a step (what an observer sees)."""
    return Multiset.from_iterable(u.part for u in step)


def is_immediate_step(step: Step) -> bool:
    return bool(step) and next(iter(step)).immediate


# ---------------------------------------------------------------------------
# Bar rewriting
# ---------------------------------------------------------------------------


# The bar-moving rules of structural equivalence, as port groups per barred
# kind.  A port (k, bar) is the k-th argument under that bar, the whole node
# under it when k is None, and every argument under it at once when k is ALL
# (the two rules of parallel composition).  The ports of a group denote the
# same marking of the box, and each port of a group and the next one are the
# two sides of one rule.  Read forward, a rule leaves the side that holds an
# overbar on the whole node or an underbar on an argument: the bar moves into
# the node, or on past the argument.  Read backward, it goes the other way.
ALL = "all"
_UNARY_GROUPS = (((None, Over), (0, Over)), ((0, Under), (None, Under)))
_PORT_GROUPS = {
    DSeq: (((None, Over), (0, Over)), ((0, Under), (1, Over)), ((1, Under), (None, Under))),
    DCho: (((0, Over), (None, Over), (1, Over)), ((0, Under), (None, Under), (1, Under))),
    DPar: (((None, Over), (ALL, Over)), ((ALL, Under), (None, Under))),
    DIte: (
        ((None, Over), (0, Over)),
        ((0, Under), (1, Over), (1, Under), (2, Over)),
        ((2, Under), (None, Under)),
    ),
    DRel: _UNARY_GROUPS,
    DRst: _UNARY_GROUPS,
    DSyn: _UNARY_GROUPS,
}
_GROUP_OF = {kind: {port: group for group in groups for port in group} for kind, groups in _PORT_GROUPS.items()}


def _root_rule(forward: bool):
    """The rewrites of a dynamic expression at its root, by the rules of
    ``_PORT_GROUPS`` read forward or backward."""
    moves = {kind: [] for kind in _PORT_GROUPS}  # per kind, (from port, to port) pairs
    for kind, groups in _PORT_GROUPS.items():
        for group in groups:
            for p, q in zip(group, group[1:]):
                if (q[0] is None) == (q[1] is Over):  # a forward rule leaves q
                    p, q = q, p
                moves[kind].append((p, q) if forward else (q, p))

    def rule(d: DynamicExpr) -> List[DynamicExpr]:
        root_bar = type(d) if isinstance(d, (Over, Under)) else None
        node = d.expr if root_bar else d
        kind = _kind(node).counterpart if root_bar else type(d)
        if kind is None:  # a barred activity
            return []
        args = _children(node)
        out: List[DynamicExpr] = []
        for (k, bar), (j, end) in moves[kind]:
            # take the bar off at port (k, bar) ...
            if k is None and bar is root_bar:
                bare = args
            elif k is ALL and all(isinstance(x, bar) for x in args):
                bare = [x.expr for x in args]
            elif k not in (None, ALL) and isinstance(args[k], bar):
                bare = args[:k] + [args[k].expr] + args[k + 1:]
            else:
                continue
            # ... and put it on at port (j, end)
            if j is None:
                out.append(end(_rebuild(node, bare, _kind(node).counterpart)))
            else:
                out.append(_rebuild(node, [end(x) if j in (i, ALL) else x for i, x in enumerate(bare)], kind))
        return out

    return rule


_forward_root = _root_rule(True)
_backward_root = _root_rule(False)


def _rewrites(d: DynamicExpr, root_rule) -> List[DynamicExpr]:
    """Apply a root rule at every dynamic position of ``d``."""
    out = root_rule(d)
    children = _children(d)
    for k, child in enumerate(children):
        if isinstance(child, DynamicExpr):
            out.extend(_rebuild(d, children[:k] + [g] + children[k + 1:]) for g in _rewrites(child, root_rule))
    return out


# ---------------------------------------------------------------------------
# States, transitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class State:
    key: str
    members: Tuple[DynamicExpr, ...]
    tangible: bool

    @property
    def kind(self) -> str:
        return "tangible" if self.tangible else "vanishing"


@dataclass(frozen=True)
class Transition:
    source: int
    step: Step
    prob: float
    target: int


@dataclass
class TransitionSystem:
    """Reachable step-labeled probabilistic transition system of a term."""

    states: List[State]
    transitions: List[Transition]
    initial: int = 0
    expr: Optional[StaticExpr] = None
    _out: Optional[List[List[Transition]]] = field(default=None, repr=False)
    _labels: Optional[Tuple[List[Multiset], List[List[int]]]] = field(default=None, repr=False, compare=False)
    _readiness: Optional["Readiness"] = field(default=None, repr=False, compare=False)

    def outgoing(self, i: int) -> List[Transition]:
        if self._out is None:
            out: List[List[Transition]] = [[] for _ in self.states]
            for t in self.transitions:
                out[t.source].append(t)
            self._out = out
        return self._out[i]

    def labels(self) -> List[Multiset]:
        """The distinct step labels; ``label_ids`` indexes into this list."""
        return self._label_table()[0]

    def label_ids(self, i: int) -> List[int]:
        """Label of each transition of ``outgoing(i)``, in the same order, as
        its index in ``labels()``.  Each distinct step's label is built once
        and kept, as the ``outgoing`` lists are."""
        return self._label_table()[1][i]

    def _label_table(self) -> Tuple[List[Multiset], List[List[int]]]:
        if self._labels is None:
            labels: List[Multiset] = []
            id_of_label: Dict[Multiset, int] = {}
            id_of_step: Dict[Step, int] = {}
            ids: List[List[int]] = []
            for i in range(len(self.states)):
                row = []
                for t in self.outgoing(i):
                    k = id_of_step.get(t.step)
                    if k is None:
                        label = step_label(t.step)
                        k = id_of_label.setdefault(label, len(labels))
                        if k == len(labels):
                            labels.append(label)
                        id_of_step[t.step] = k
                    row.append(k)
                ids.append(row)
            self._labels = (labels, ids)
        return self._labels

    def exec_steps(self, i: int) -> List[Step]:
        return [t.step for t in self.outgoing(i)]

    def tangible_states(self) -> List[int]:
        return [i for i, s in enumerate(self.states) if s.tangible]

    def vanishing_states(self) -> List[int]:
        return [i for i, s in enumerate(self.states) if not s.tangible]

    def step_prob(self, step: Step, i: int) -> float:
        """Probability to execute ``step`` in state ``i``."""
        for t in self.outgoing(i):
            if t.step == step:
                return t.prob
        raise SemanticsError("step %r is not executable in state %d" % (sorted(map(str, step)), i + 1))

    def move_prob(self, i: int, j: int) -> float:
        return sum(t.prob for t in self.outgoing(i) if t.target == j)

    def pm_matrix(self):
        n = len(self.states)
        pm = np.zeros((n, n))
        for t in self.transitions:
            pm[t.source, t.target] += t.prob
        return pm

    # -- parameter sweeps ---------------------------------------------------

    def readiness(self) -> "Readiness":
        """The readiness formulas of this system, compiled on first use and
        kept."""
        if self._readiness is None:
            self._readiness = Readiness(
                [s.tangible for s in self.states], [(t.source, step_key(t.step), t.target) for t in self.transitions]
            )
        return self._readiness

    def reweight(self, leaf_values: Dict[int, float]) -> "TransitionSystem":
        """Same structure with new base probabilities and weights per leaf.

        The step structure of the semantics does not depend on the numeric
        values, so a parameter point needs only new activity values and step
        probabilities, which ``readiness`` gives.  The states and ``expr``
        are this system's: their expressions keep the old values.
        """
        readiness = self.readiness()
        row = readiness.leaf_row(leaf_values)
        probs = readiness.probabilities(row[None])[0].tolist()
        values = row.tolist()
        activities = [
            Activity(u.part, u.immediate, tuple((i, values[i - 1]) for i, _ in u.leaves), u.num)
            for u in readiness.activities
        ]
        transitions = [
            Transition(t.source, frozenset(activities[c] for c in columns), p, t.target)
            for t, columns, p in zip(self.transitions, readiness.columns, probs)
        ]
        return TransitionSystem(list(self.states), transitions, self.initial, self.expr)

    def keys_at(self, leaf_values: Dict[int, float]) -> List[str]:
        """The state keys at other leaf values: each state's first member,
        serialized with those values."""
        return [serialize(_remap_leaves(s.members[0], leaf_values)) for s in self.states]


def _remap_leaves(node, leaf_values: Dict[int, float]):
    """Rebuild an expression with new base values at the given leaves."""
    if isinstance(node, Act):
        u = node.activity
        leaves = tuple((i, leaf_values.get(i, v)) for i, v in u.leaves)
        return Act(Activity(u.part, u.immediate, leaves, u.num))
    return _rebuild(node, [_remap_leaves(c, leaf_values) for c in _children(node)])


def leaf_values_of(expr: StaticExpr) -> Dict[int, float]:
    """Base value carried by every activity leaf of a numbered expression."""
    from .expr import activities_of

    out: Dict[int, float] = {}
    for u in activities_of(expr):
        for i, v in u.leaves:
            out[i] = v
    return out


class Readiness:
    """The readiness formulas of a transition system, as index arrays: the
    one place where activity values become step probabilities.

    They give the transition probabilities at one or many parameter points,
    from a matrix of leaf values with one row per point and, in column
    ``c``, the base value of leaf ``c + 1``.  Probabilities in (0;1) and
    positive weights keep every transition, so only the values change.

    An activity's value is the product (stochastic) or the ``fsum``
    (immediate) of its leaves.  A tangible transition's readiness is the
    product of its activities' values and of ``1 - value`` for each
    single-activity step of its state that it does not take; a vanishing
    one's is the sum of its activities' weights.  Both follow step-key
    order, given transitions in step-key order per state, as ``build_ts``
    makes them.  A transition's probability is its readiness divided by the
    sum over its state's transitions.
    """

    def __init__(self, tangible: Sequence[bool], transitions: Sequence[Tuple[int, Tuple[Activity, ...], int]]):
        """``tangible`` has one flag per state, ``transitions`` one (source,
        step key, target) triple per transition, in the system's order."""
        self.size = len(tangible)
        self.source = np.array([i for i, _, _ in transitions], dtype=np.intp)
        self.target = np.array([j for _, _, j in transitions], dtype=np.intp)
        column: Dict[Activity, int] = {}
        # each transition's step as activity columns, in step-key order
        self.columns: List[List[int]] = [[column.setdefault(u, len(column)) for u in key] for _, key, _ in transitions]
        self.activities: List[Activity] = list(column)
        # the single-activity steps of each state, in the order of its
        # transitions (step-key order, in a system from ``build_ts``)
        singles: List[Dict[int, None]] = [{} for _ in range(self.size)]
        for (i, _, _), columns in zip(transitions, self.columns):
            if len(columns) == 1:
                singles[i][columns[0]] = None
        # factor columns: 0 holds ones, 1 + c activity c's value, 1 + n + c
        # one minus it, and 1 + 2n zeros (n activities)
        n = len(self.activities)
        products: List[List[int]] = []
        sums: List[List[int]] = []
        for (i, _, _), columns in zip(transitions, self.columns):
            taken = [1 + c for c in columns]
            if tangible[i]:
                products.append(taken + [1 + n + c for c in singles[i] if c not in columns])
            else:
                sums.append(taken)
        self._tangible = np.array([tangible[i] for i, _, _ in transitions], dtype=bool)
        self._products = _padded(products, 0)
        self._sums = _padded(sums, 1 + 2 * n)
        self._value_leaves = [(u.immediate, [leaf - 1 for leaf, _ in u.leaves]) for u in self.activities]

    def leaf_row(self, leaf_values: Optional[Dict[int, float]] = None) -> np.ndarray:
        """Leaf values for ``probabilities``: each activity's own, or the
        one ``leaf_values`` gives for its leaf."""
        leaf_values = leaf_values or {}
        row = np.zeros(max([0] + [leaf for u in self.activities for leaf, _ in u.leaves]))
        for u in self.activities:
            for leaf, value in u.leaves:
                row[leaf - 1] = leaf_values.get(leaf, value)
        return row

    def probabilities(self, leaf_values: np.ndarray) -> np.ndarray:
        """Transition probabilities, one row per point, one column per
        transition of the system, in its order."""
        points = leaf_values.shape[0]
        values = np.empty((points, len(self.activities)))
        for k, (immediate, leaves) in enumerate(self._value_leaves):
            if immediate and len(leaves) > 2:
                values[:, k] = [math.fsum(row) for row in leaf_values[:, leaves].tolist()]
                continue
            value = leaf_values[:, leaves[0]]
            for leaf in leaves[1:]:
                # the sum of two floats is their fsum; products go left to right, as math.prod
                value = value + leaf_values[:, leaf] if immediate else value * leaf_values[:, leaf]
            values[:, k] = value
        ones, zeros = np.ones((points, 1)), np.zeros((points, 1))
        factors = np.concatenate([ones, values, 1.0 - values, zeros], axis=1)
        ready = np.empty((points, len(self.source)))
        ready[:, self._tangible] = _folded(factors, self._products, np.multiply)
        ready[:, ~self._tangible] = _folded(factors, self._sums, np.add)
        total = np.zeros((points, self.size))
        np.add.at(total, (slice(None), self.source), ready)
        return ready / total[:, self.source]

    def matrices(self, probs: np.ndarray) -> np.ndarray:
        """One-step probability matrices, ``(points, states, states)``, with
        parallel transitions added in order, as ``pm_matrix`` does."""
        pm = np.zeros((probs.shape[0], self.size, self.size))
        np.add.at(pm, (slice(None), self.source, self.target), probs)
        return pm


def _padded(rows: List[List[int]], fill: int) -> np.ndarray:
    width = max([1] + [len(r) for r in rows])
    return np.array([r + [fill] * (width - len(r)) for r in rows], dtype=np.intp).reshape(len(rows), width)


def _folded(factors: np.ndarray, index: np.ndarray, op) -> np.ndarray:
    """``op`` over each row of ``index``'s factor columns, left to right."""
    out = factors[:, index[:, 0]]
    for k in range(1, index.shape[1]):
        out = op(out, factors[:, index[:, k]])
    return out


# ---------------------------------------------------------------------------
# The derivation engine
# ---------------------------------------------------------------------------


# operative members of a class, whether it holds Over(e), whether it holds Under(e)
Summary = Tuple[FrozenSet[DynamicExpr], bool, bool]


class Engine:
    """Caches class summaries and step derivations.

    A state's operative members are computed from the classes of its
    subterms (see ``_summary``); ``closure`` still enumerates a whole class
    and is kept as the reference the tests compare against.

    The derivation rules are applied without their stochastic guards; the
    pre-emption of stochastic steps by immediate ones is enforced once per
    equivalence class, after restriction has filtered the derived steps.
    Evaluating the priority on the class (instead of on subterms) is what
    makes it agree with the net semantics, where restricted immediate
    transitions do not exist and therefore cannot pre-empt anything.
    """

    def __init__(self, closure_limit: int = 10**6):
        self.closure_limit = closure_limit
        self._closures: Dict[DynamicExpr, FrozenSet[DynamicExpr]] = {}
        self._summaries: Dict[DynamicExpr, Summary] = {}
        self._operative: Dict[FrozenSet[DynamicExpr], Tuple[DynamicExpr, ...]] = {}
        self._derived: Dict[DynamicExpr, Tuple[Tuple[Step, DynamicExpr], ...]] = {}

    # -- structural equivalence --------------------------------------------

    def closure(self, g: DynamicExpr) -> FrozenSet[DynamicExpr]:
        """Every member of the class of ``g``, by exhaustive rewriting."""
        cached = self._closures.get(g)
        if cached is not None:
            return cached
        seen = {g}
        frontier = [g]
        while frontier:
            d = frontier.pop()
            for nxt in _rewrites(d, _forward_root) + _rewrites(d, _backward_root):
                if nxt not in seen:
                    seen.add(nxt)
                    if len(seen) > self.closure_limit:
                        raise StateSpaceLimit(self.closure_limit)
                    frontier.append(nxt)
        result = frozenset(seen)
        for member in result:
            self._closures[member] = result
        return result

    def operatives(self, g: DynamicExpr) -> Tuple[DynamicExpr, ...]:
        """Members of the class of ``g`` that no forward rule rewrites, in
        serialization order."""
        ops = self._summary(g)[0]
        cached = self._operative.get(ops)
        if cached is None:
            cached = self._operative[ops] = tuple(sorted(ops, key=serialize))
        return cached

    def is_initial(self, g: DynamicExpr) -> bool:
        return Over(underlying(g)) in self.closure(g)

    def is_final(self, g: DynamicExpr) -> bool:
        return Under(underlying(g)) in self.closure(g)

    def _summary(self, g: DynamicExpr) -> Summary:
        """Operatives and initial/final flags of the class of ``g``, from the
        classes of its subterms.

        Equivalent dynamic expressions denote the same marking of the box, so
        a class splits along the term structure: a parallel class is the
        product of its components' classes, and the class of a node with one
        dynamic argument joins the argument classes its root rules link.
        """
        cached = self._summaries.get(g)
        if cached is not None:
            return cached
        if isinstance(g, (Over, Under)):
            if isinstance(g.expr, Act):
                result = (frozenset((g,)), isinstance(g, Over), isinstance(g, Under))
            else:
                # one root rule away from a compound node of the same class
                root_rule = _forward_root if isinstance(g, Over) else _backward_root
                result = self._summary(root_rule(g)[0])
        elif isinstance(g, DPar):
            left_ops, left_initial, left_final = self._summary(g.left)
            right_ops, right_initial, right_final = self._summary(g.right)
            ops = {
                DPar(x, y)
                for x in left_ops
                for y in right_ops
                if not (isinstance(x, Under) and isinstance(y, Under))
            }
            final = left_final and right_final
            if final:
                ops.add(Under(underlying(g)))
            result = (frozenset(ops), left_initial and right_initial, final)
        else:
            result = self._linked(g)
        self._summaries[g] = result
        return result

    def _linked(self, g: DynamicExpr) -> Summary:
        """Summary of a node with one dynamic argument: a fixed point over the
        argument classes that the node's links reach from the one in ``g``."""
        kind, group_of = type(g), _GROUP_OF[type(g)]
        args, attributes = _children(g), _attributes(g)
        at = next(k for k, x in enumerate(args) if isinstance(x, DynamicExpr))
        static: Optional[List[object]] = None  # args with the skeleton at ``at``
        ops = set()
        whole = set()
        active = set()
        todo = [(at, args[at])]
        seen = set(todo)
        while todo:
            k, child = todo.pop()
            child_ops, initial, final = self._summary(child)
            around = args if k == at else static
            for x in child_ops:
                # Under(child) would rewrite forward at this node's root
                if not isinstance(x, Under):
                    ops.add(kind(*around[:k], x, *around[k + 1:], *attributes))
            for bar, reached in ((Over, initial), (Under, final)):
                group = group_of[(k, bar)]
                if not reached or group in active:
                    continue
                active.add(group)
                if static is None:
                    static = list(args)
                    static[at] = underlying(args[at])
                for j, end in group:
                    if j is None:
                        whole.add(end)
                        continue
                    port = (j, end(static[j]))
                    if port not in seen:
                        seen.add(port)
                        todo.append(port)
        if Under in whole:
            ops.add(Under(underlying(g)))
        return frozenset(ops), Over in whole, Under in whole

    # -- step derivation ------------------------------------------------------

    def derive(self, h: DynamicExpr) -> Tuple[Tuple[Step, DynamicExpr], ...]:
        """All non-empty steps derivable from one operative expression."""
        cached = self._derived.get(h)
        if cached is not None:
            return cached
        result = tuple(sorted(self._derive(h).items(), key=lambda kv: step_key(kv[0])))
        self._derived[h] = result
        return result

    def class_steps(self, members: Iterable[DynamicExpr]) -> Dict[Step, DynamicExpr]:
        """Executable steps of a whole equivalence class, priority applied."""
        merged: Dict[Step, DynamicExpr] = {}
        for h in members:
            for step, tgt in self.derive(h):
                merged.setdefault(step, tgt)
        if any(is_immediate_step(s) for s in merged):
            merged = {s: t for s, t in merged.items() if is_immediate_step(s)}
        return merged

    def _derive(self, h: DynamicExpr) -> Dict[Step, DynamicExpr]:
        out: Dict[Step, DynamicExpr] = {}

        def put(step: Step, target: DynamicExpr) -> None:
            old = out.get(step)
            if old is not None and old != target:
                raise SemanticsError(
                    "step %s from %s reaches two targets" % ([str(u) for u in step], serialize(h))
                )
            out[step] = target

        if isinstance(h, Over):
            if isinstance(h.expr, Act):
                u = h.expr.activity
                put(frozenset((u,)), Under(h.expr))
            return out
        if isinstance(h, Under):
            return out
        if isinstance(h, DPar):
            left_steps = self.derive(h.left)
            right_steps = self.derive(h.right)
            for step, tgt in left_steps:
                put(step, DPar(tgt, h.right))
            for step, tgt in right_steps:
                put(step, DPar(h.left, tgt))
            for (s1, t1), (s2, t2) in itertools.product(left_steps, right_steps):
                if is_immediate_step(s1) == is_immediate_step(s2):
                    put(s1 | s2, DPar(t1, t2))
            return out
        # one dynamic argument: its steps, mapped by the kind, lead to the
        # node rebuilt around the argument's targets
        kind = type(h)
        get_fields, step_map = _ONE_ARGUMENT[kind]
        args = get_fields(h)
        at = 0
        while not isinstance(args[at], DynamicExpr):
            at += 1
        before, after = args[:at], args[at + 1:]
        derived = [(step, kind(*before, tgt, *after)) for step, tgt in self.derive(args[at])]
        for step, target in step_map(h, derived) if step_map else derived:
            put(step, target)
        return out


def _relabeled(node: DRel, derived: List[Tuple[Step, DynamicExpr]]) -> Iterable[Tuple[Step, DynamicExpr]]:
    """The steps with every activity relabeled."""
    return ((apply_relabel(node.func, step), target) for step, target in derived)


def _restricted(node: DRst, derived: List[Tuple[Step, DynamicExpr]]) -> Iterable[Tuple[Step, DynamicExpr]]:
    """The steps in which no activity holds the action or its conjugate."""
    return ((step, target) for step, target in derived
            if not any(x.name == node.action for u in step for x in u.part))


def _synchronized(node: DSyn, derived: List[Tuple[Step, DynamicExpr]]) -> Iterable[Tuple[Step, DynamicExpr]]:
    """Each step's closure under pairwise synchronization on the action."""
    action = Action(node.action)
    return ((merged, target) for step, target in derived for merged in _saturate_step(step, action))


# How the (step, target) pairs of the dynamic argument, with the node rebuilt
# around each target, become the node's own: relabeling renames the steps,
# restriction drops some, synchronization closes each under synchronization.
# Every other kind keeps them as they are.
_STEP_MAPS = {DRel: _relabeled, DRst: _restricted, DSyn: _synchronized}

# per barred operator kind, for the generic rule: a getter of all fields of a
# node at once, in constructor order (the subtrees, then the other fields),
# and the step map
_ONE_ARGUMENT = {
    kind: (attrgetter(*_KINDS[kind].subtrees, *_KINDS[kind].attributes), _STEP_MAPS.get(kind)) for kind in _PORT_GROUPS
}


def _saturate_step(step: Step, a: Action) -> List[Step]:
    """Close one derived step under pairwise synchronization on ``a``."""
    ah = a.conjugate()
    seen = {step}
    frontier = [step]
    while frontier:
        current = frontier.pop()
        items = sorted(current)
        for u, v in itertools.permutations(items, 2):
            if u.immediate != v.immediate or (u.content & v.content):
                continue
            if a in u.part and ah in v.part:
                w = sync_activities(u, v, a)
                merged = (current - {u, v}) | {w}
                if merged not in seen:
                    seen.add(merged)
                    frontier.append(merged)
    return sorted(seen, key=step_key)


# ---------------------------------------------------------------------------
# Transition-system construction
# ---------------------------------------------------------------------------


def inaction_closure(g: DynamicExpr, engine: Optional[Engine] = None) -> State:
    """The structural-equivalence class of ``g`` as a semantic state."""
    engine = engine or Engine()
    members = engine.operatives(g)
    if not members:
        raise SemanticsError("no operative member for %s" % serialize(g))
    steps = engine.class_steps(members)
    tangible = not any(is_immediate_step(s) for s in steps)
    return State(serialize(members[0]), members, tangible)


def build_ts(expr: StaticExpr, max_states: int = 100_000, engine: Optional[Engine] = None) -> TransitionSystem:
    """Breadth-first construction of the transition system of ``~expr``."""
    if not is_regular(expr):
        raise SemanticsError("expression is not regular: %s" % serialize(expr))
    engine = engine or Engine()

    index: Dict[Tuple[DynamicExpr, ...], int] = {}
    states: List[State] = []
    step_data: List[List[Tuple[Tuple[Activity, ...], Step, int]]] = []

    def intern(g: DynamicExpr) -> int:
        members = engine.operatives(g)
        idx = index.get(members)
        if idx is None:
            idx = len(states)
            if idx >= max_states:
                raise StateSpaceLimit(max_states)
            index[members] = idx
            states.append(State(serialize(members[0]), members, True))
            step_data.append([])
        return idx

    intern(Over(expr))
    cursor = 0
    while cursor < len(states):
        i = cursor
        cursor += 1
        members = states[i].members
        # collect every derivation of each executable step, then intern the
        # targets in sorted step order so that state numbering is stable
        variants: Dict[Step, List[DynamicExpr]] = {}
        for h in members:
            for step, tgt in engine.derive(h):
                variants.setdefault(step, []).append(tgt)
        if any(is_immediate_step(s) for s in variants):
            variants = {s: t for s, t in variants.items() if is_immediate_step(s)}
            tangible = False
        else:
            tangible = True
        keyed = {step_key(step): step for step in variants}
        triples: List[Tuple[Tuple[Activity, ...], Step, int]] = []
        for key in sorted(keyed):
            targets = {intern(t) for t in variants[keyed[key]]}
            if len(targets) != 1:
                raise SemanticsError("step from state %d reaches two distinct classes" % (i + 1))
            triples.append((key, keyed[key], targets.pop()))
        if tangible:
            triples.insert(0, ((), EMPTY_STEP, i))
        states[i] = State(states[i].key, members, tangible)
        step_data[i] = triples

    for i, triples in enumerate(step_data):
        if states[i].tangible:
            singles = {key[0] for key, _, _ in triples if len(key) == 1}
            if singles != {u for key, _, _ in triples for u in key}:
                raise SemanticsError("subset closure violated in state %d" % (i + 1))

    # not kept on the system: callers that hold many systems would hold
    # their index arrays too; ``readiness`` compiles them on first use
    flat = [(i, key, step, j) for i, triples in enumerate(step_data) for key, step, j in triples]
    readiness = Readiness([s.tangible for s in states], [(i, key, j) for i, key, _, j in flat])
    probs = readiness.probabilities(readiness.leaf_row()[None])[0].tolist()
    transitions = [Transition(i, step, p, j) for (i, _, step, j), p in zip(flat, probs)]
    return TransitionSystem(states, transitions, 0, expr)


# ---------------------------------------------------------------------------
# Isomorphism of labeled probabilistic transition systems
# ---------------------------------------------------------------------------


def ts_isomorphic(a, b, tol: float = 1e-9) -> Optional[Dict[int, int]]:
    """Bijection preserving the initial state, step labels and probabilities.

    Works for any pair of transition-system shaped objects (expression
    semantics or net reachability graphs) whose steps are activity sets.
    Returns the state mapping, or None when the systems differ.
    """
    if len(a.states) != len(b.states) or len(a.transitions) != len(b.transitions):
        return None

    def groups(ts, i):
        # a frozenset keeps its hash, so steps key the groups directly
        by_label: Dict[Step, List[Tuple[float, int]]] = {}
        for t in ts.outgoing(i):
            by_label.setdefault(t.step, []).append((t.prob, t.target))
        return by_label

    def kind(ts, i) -> bool:
        return ts.states[i].tangible

    def solve(obligations, mapping, reverse):
        # extends its arguments in place; _branch hands it copies, so a
        # failed alternative leaves nothing behind
        while obligations:
            i, j = obligations.pop()
            if i in mapping:
                if mapping[i] != j:
                    return None
                continue
            if j in reverse:
                return None
            if kind(a, i) != kind(b, j):
                return None
            ga, gb = groups(a, i), groups(b, j)
            if set(ga) != set(gb):
                return None
            mapping[i] = j
            reverse[j] = i
            local: List[Tuple[List[Tuple[float, int]], List[Tuple[float, int]]]] = []
            for label, la in ga.items():
                lb = gb[label]
                if len(la) != len(lb):
                    return None
                if len(la) == 1:
                    if abs(la[0][0] - lb[0][0]) > tol:
                        return None
                    obligations.append((la[0][1], lb[0][1]))
                else:
                    local.append((la, lb))
            if local:
                return _branch(local, obligations, mapping, reverse, solve, tol)
        return mapping

    def _branch(local, obligations, mapping, reverse, cont, tol):
        la, lb = local[0]
        rest = local[1:]
        for perm in itertools.permutations(range(len(lb))):
            if all(abs(la[k][0] - lb[p][0]) <= tol for k, p in enumerate(perm)):
                new_obl = obligations + [(la[k][1], lb[p][1]) for k, p in enumerate(perm)]
                if rest:
                    result = _branch(rest, new_obl, mapping, reverse, cont, tol)
                else:
                    result = cont(new_obl, dict(mapping), dict(reverse))
                if result is not None:
                    return result
        return None

    return solve([(a.initial, b.initial)], {}, {})
