"""Step operational semantics: structural equivalence, step derivation, transition systems.

States are structural-equivalence classes of barred expressions: the terms
that the bar-moving rules link, which are written once, as one table of
port groups (``_PORT_GROUPS``).  Equivalent expressions denote the same
marking of the box, so a class is interned as a tree of class ids
(``Engine``): the class of a parallel composition is the pair of its
components' classes, the class of any other node is the set of classes of
its dynamic argument that the table links, and a barred activity is a leaf.
No term is rewritten: the tree is the only reading of the table here.
Steps are derived per class, from the steps of the component classes, and
lead to class ids.  A state's key is the least serialization of its
operative members (those no forward rule rewrites), composed from the
components' least ones; the members themselves are enumerated only on
demand (``State.members``), and ``Engine.closure`` enumerates every member
of a class from the tree.

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
from collections import abc
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

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
    Par,
    Rel,
    Rst,
    StaticExpr,
    Syn,
    Under,
    _attributes,
    _children,
    _kind,
    _rebuild,
    apply_relabel,
    fold,
    is_regular,
    sync_activities,
    weight_sum,
)
from .parser import binding_level, compose, serialize

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
# The bar-moving rules
# ---------------------------------------------------------------------------


# The bar-moving rules of structural equivalence, as port groups per barred
# kind.  A port (k, bar) is the k-th argument under that bar, the whole node
# under it when k is None, and every argument under it at once when k is ALL
# (the two rules of parallel composition).  The ports of a group denote the
# same marking of the box, and each port of a group and the next one are the
# two sides of one rule.  Read forward, a rule leaves the side that holds an
# overbar on the whole node or an underbar on an argument: the bar moves into
# the node, or on past the argument.  Read backward, it goes the other way.
# The class tree reads the groups directly and rewrites no term; the
# rewriting reading is the tests' reference (``tests/oracles.py``).
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


# ---------------------------------------------------------------------------
# States, transitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class State:
    """One state: a structural-equivalence class of dynamic expressions.

    ``key`` is the least serialization of an operative member, and
    ``members`` the operative members in serialization order.  A state of
    ``build_ts`` or ``inaction_closure`` holds a lazy ``Members`` sequence,
    which compares by identity, so two such states (and two systems) are
    equal only if they share that sequence."""

    key: str
    members: Sequence[DynamicExpr]
    tangible: bool

    @property
    def kind(self) -> str:
        return "tangible" if self.tangible else "vanishing"


class Transition(NamedTuple):
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
    _out: Optional[List[List[Transition]]] = field(default=None, repr=False, compare=False)
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

    def visit(node, operands):
        if isinstance(node, Act):
            u = node.activity
            leaves = tuple((i, leaf_values.get(i, v)) for i, v in u.leaves)
            return Act(Activity(u.part, u.immediate, leaves, u.num))
        return _rebuild(node, operands)

    return fold(node, visit)


class Readiness:
    """The readiness formulas of a transition system, as index arrays: the
    one place where activity values become step probabilities.

    They give the transition probabilities at one or many parameter points,
    from a matrix of leaf values with one row per point and, in column
    ``c``, the base value of leaf ``c + 1``.  Probabilities in (0;1) and
    positive weights keep every transition, so only the values change.

    An activity's value is the product (stochastic) or the ``fsum``
    (immediate, inf past the float range) of its leaves.  A tangible transition's readiness is the
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

    # immediate weights may sum past the float range, quietly: an activity's
    # weight is then inf, and its state's probabilities nan
    @np.errstate(over="ignore")
    def probabilities(self, leaf_values: np.ndarray) -> np.ndarray:
        """Transition probabilities, one row per point, one column per
        transition of the system, in its order: nan at a state whose
        readiness total is infinite."""
        points = leaf_values.shape[0]
        values = np.empty((points, len(self.activities)))
        for k, (immediate, leaves) in enumerate(self._value_leaves):
            if immediate and len(leaves) > 2:
                values[:, k] = [weight_sum(row) for row in leaf_values[:, leaves].tolist()]
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
        total[np.isinf(total)] = np.nan
        return ready / total[:, self.source]


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
# The class tree
# ---------------------------------------------------------------------------


_BAR_LEVEL = binding_level(Under)

# The target of a step, built on demand: a class id, a pair (left, right) of
# targets (the parallel class of the two), or (skeleton, k, target) (the
# class of the skeleton's barred kind with the target at argument k).
Target = Union[int, tuple]

# the target class of a step whose derivations reach two classes
_CONFLICT = -1


class _Class:
    """One interned structural-equivalence class.

    ``shape`` says how its operative members are made:

    * ``(Act,)``: ``Over(skel)`` of an activity, or no member but the final
      one;
    * ``(DPar, left, right)``: ``DPar(x, y)`` for every member ``x`` of the
      class ``left`` and ``y`` of ``right``, except pairs of two underbarred
      terms, which rewrite to ``Under(skel)``;
    * ``(kind, ports)``: a node with one dynamic argument, rebuilt around
      every member of the argument class ``c`` at each port ``(k, c)`` that is
      not underbarred there (that one rewrites at the node's root), the
      other arguments being the skeleton's.

    A final class has ``Under(skel)`` as one more operative member.  ``count``
    is the number of the others, and ``least`` the one among them with the
    least serialization, as (text, member); its text binds at ``level``.
    """

    __slots__ = ("skel", "initial", "final", "count", "least", "level", "shape", "under")

    def __init__(self, skel: StaticExpr, initial: bool, final: bool, count: int,
                 least: Optional[Tuple[str, DynamicExpr]], level: int, shape: tuple):
        self.skel = skel
        self.initial = initial
        self.final = final
        self.count = count
        self.least = least
        self.level = level
        self.shape = shape
        self.under: Optional[str] = None  # the text of Under(skel), on first use


class Engine:
    """Interns structural-equivalence classes as a tree of class ids and
    derives the steps of whole classes.

    Equivalent dynamic expressions denote the same marking of the box, so a
    class splits along the term structure.  The class of a parallel
    composition is the pair of its components' class ids.  The class of a
    node with one dynamic argument is the set of argument classes, each at
    its argument position, that the node's bar-moving rules link (the
    ports of ``_PORT_GROUPS``).  The class of a barred activity is a leaf.
    No class is enumerated to build it: a class keeps its flags, the number
    of its operative members (those no forward rule rewrites) and the least
    serialization among them, composed from its components' least ones.
    The members themselves are enumerated only on demand: the operative
    ones by ``members``, and every member by ``closure``.

    The steps of a class are the union of its members' derivations, and
    derive from its components' steps: the steps of a parallel class are
    the left class's, the right class's and the union of every pair of one
    of each of the same kind (immediate or stochastic), and a node with one
    dynamic argument maps its argument classes' steps through ``_STEP_MAPS``.
    A step's target is a class id.  The derivation rules are applied
    without their stochastic guards; the pre-emption of stochastic steps by
    immediate ones is enforced once per state's class, after restriction
    has filtered the derived steps (``steps``).  Evaluating the priority on
    the class (instead of on subterms) is what makes it agree with the net
    semantics, where restricted immediate transitions do not exist and
    therefore cannot pre-empt anything.
    """

    def __init__(self):
        self._classes: List[_Class] = []
        self._bar_ids: Dict[DynamicExpr, int] = {}  # Over(e) or Under(e) -> class id
        self._pair_ids: Dict[Tuple[int, int], int] = {}  # component class ids -> class id
        self._port_ids: Dict[Tuple[StaticExpr, int, int], int] = {}  # (skeleton, k, argument class id) -> class id
        self._class_steps: Dict[int, Dict[Step, Target]] = {}  # class id -> its steps (``_steps``)

    # -- structural equivalence --------------------------------------------

    def closure(self, g: DynamicExpr) -> FrozenSet[DynamicExpr]:
        """Every member of the class of ``g``, enumerated from the class tree."""
        return frozenset(self._every(self.class_of(g)))

    def class_of(self, g: DynamicExpr) -> int:
        """The id of the class of ``g``."""
        if isinstance(g, (Over, Under)):
            cid = self._bar_ids.get(g)
            if cid is None:
                if isinstance(g.expr, Act):
                    over = isinstance(g, Over)
                    cid = self._add(_Class(g.expr, over, not over, int(over), (serialize(g), g) if over else None,
                                           _BAR_LEVEL, (Act,)))
                else:
                    # the same marking as the bar at the other end of its port group
                    static = _children(g.expr)
                    group = _GROUP_OF[_kind(g.expr).counterpart][(None, type(g))]
                    j, end = next(port for port in group if port[0] is not None)
                    if j is ALL:
                        cid = self._pair(*(self.class_of(end(x)) for x in static))
                    else:
                        cid = self._port(g.expr, j, self.class_of(end(static[j])))
                self._bar_ids[g] = cid
            return cid
        if isinstance(g, DPar):
            return self._pair(self.class_of(g.left), self.class_of(g.right))
        args = _children(g)
        at = next(k for k, x in enumerate(args) if isinstance(x, DynamicExpr))
        arg = self.class_of(args[at])
        args[at] = self._classes[arg].skel
        return self._port(_rebuild(g, args, _kind(g).counterpart), at, arg)

    def key(self, cid: int) -> str:
        """The least serialization of an operative member of the class."""
        return self._first(cid)[0]

    def members(self, cid: int) -> "Members":
        """The operative members of the class, in serialization order."""
        return Members(self, cid)

    def _add(self, c: _Class) -> int:
        self._classes.append(c)
        return len(self._classes) - 1

    def _pair(self, left: int, right: int) -> int:
        """The class of ``DPar(x, y)`` for ``x`` of class ``left`` and ``y``
        of class ``right``."""
        cid = self._pair_ids.get((left, right))
        if cid is None:
            lc, rc = self._classes[left], self._classes[right]
            # serializations are balanced, so none is a proper prefix of
            # another, and the members of a class that are not underbarred
            # print at one binding level: the least pair joins the least
            # left text with the least right text allowed beside it, and the
            # candidates on a side are its least member that is not
            # underbarred and Under(skel)
            best = min(((compose(DPar, [(tx, lx), (ty, ly)]), x, y)
                        for tx, lx, x in self._sides(lc) for ty, ly, y in self._sides(rc)
                        if not (isinstance(x, Under) and isinstance(y, Under))),
                       key=itemgetter(0), default=None)
            count = lc.count * rc.count + lc.count * rc.final + lc.final * rc.count
            cid = self._pair_ids[left, right] = self._add(_Class(
                Par(lc.skel, rc.skel), lc.initial and rc.initial, lc.final and rc.final, count,
                None if best is None else (best[0], DPar(best[1], best[2])), binding_level(DPar), (DPar, left, right)))
        return cid

    def _sides(self, c: _Class) -> List[Tuple[str, int, DynamicExpr]]:
        """The candidates for the least member of a pair on one side: the
        least member that is not underbarred and ``Under(skel)``, each as
        (text, level, member)."""
        out = [(c.least[0], c.level, c.least[1])] if c.count else []
        if c.final:
            out.append((self._under_text(c), _BAR_LEVEL, Under(c.skel)))
        return out

    def _port(self, skel: StaticExpr, at: int, arg: int) -> int:
        """The class of the barred counterpart of ``skel`` with a member of
        class ``arg`` at argument ``at``: a fixed point over the argument
        classes that the node's port groups link to that one."""
        cid = self._port_ids.get((skel, at, arg))
        if cid is not None:
            return cid
        kind = _kind(skel).counterpart
        group_of = _GROUP_OF[kind]
        static = _children(skel)
        ports: List[Tuple[int, int]] = []
        whole = set()
        active = set()
        todo = [(at, arg)]
        seen = set(todo)
        while todo:
            k, c = todo.pop()
            ports.append((k, c))
            child = self._classes[c]
            for bar, reached in ((Over, child.initial), (Under, child.final)):
                group = group_of[(k, bar)]
                if not reached or group in active:
                    continue
                active.add(group)
                for j, end in group:
                    if j is None:
                        whole.add(end)
                        continue
                    port = (j, self.class_of(end(static[j])))
                    if port not in seen:
                        seen.add(port)
                        todo.append(port)
        attributes = _attributes(skel)
        # the texts of the arguments that stay static beside a port; a node
        # with one argument has none (printing its skeleton at every level
        # of a deep chain of wrappers would cost more than the rest)
        texts = [(serialize(x), binding_level(type(x))) for x in static] if len(static) > 1 else [None]
        count = 0
        best = None
        for k, c in ports:
            child = self._classes[c]
            count += child.count
            if child.count:
                text = compose(kind, texts[:k] + [(child.least[0], child.level)] + texts[k + 1:], attributes)
                if best is None or text < best[0]:
                    best = (text, k, child.least[1])
        least = None
        if best is not None:
            text, k, x = best
            least = (text, kind(*static[:k], x, *static[k + 1:], *attributes))
        cid = self._add(_Class(skel, Over in whole, Under in whole, count, least, binding_level(kind), (kind, tuple(ports))))
        for k, c in ports:
            self._port_ids[(skel, k, c)] = cid
        return cid

    def _under_text(self, c: _Class) -> str:
        if c.under is None:
            c.under = serialize(Under(c.skel))
        return c.under

    def _first(self, cid: int) -> Tuple[str, DynamicExpr]:
        """The operative member with the least serialization, and that text."""
        c = self._classes[cid]
        if c.final and (c.least is None or self._under_text(c) < c.least[0]):
            return self._under_text(c), Under(c.skel)
        return c.least

    def _size(self, cid: int) -> int:
        c = self._classes[cid]
        return c.count + c.final

    def _operatives(self, cid: int) -> List[DynamicExpr]:
        """Every operative member of the class, enumerated."""
        c = self._classes[cid]
        out = self._proper(cid)
        if c.final:
            out.append(Under(c.skel))
        return out

    def _every(self, cid: int) -> List[DynamicExpr]:
        """Every member of the class: the members of its shape and the barred
        skeleton at the ends the class reaches."""
        c = self._classes[cid]
        shape = c.shape
        if shape[0] is Act:
            out = []
        elif shape[0] is DPar:
            out = [DPar(x, y) for x in self._every(shape[1]) for y in self._every(shape[2])]
        else:
            kind, ports = shape
            static, attributes = _children(c.skel), _attributes(c.skel)
            out = [kind(*static[:k], x, *static[k + 1:], *attributes) for k, a in ports for x in self._every(a)]
        if c.initial:
            out.append(Over(c.skel))
        if c.final:
            out.append(Under(c.skel))
        return out

    def _proper(self, cid: int) -> List[DynamicExpr]:
        """The operative members of the class that are not ``Under(skel)``."""
        c = self._classes[cid]
        shape = c.shape
        if shape[0] is Act:
            return [c.least[1]] if c.count else []
        if shape[0] is DPar:
            return [DPar(x, y) for x in self._operatives(shape[1]) for y in self._operatives(shape[2])
                    if not (isinstance(x, Under) and isinstance(y, Under))]
        kind, ports = shape
        static, attributes = _children(c.skel), _attributes(c.skel)
        return [kind(*static[:k], x, *static[k + 1:], *attributes) for k, a in ports for x in self._proper(a)]

    # -- step derivation ------------------------------------------------------

    def steps(self, cid: int) -> Tuple[List[Tuple[Tuple[Activity, ...], Step, int]], bool]:
        """The executable steps of the class in step-key order, as (step key,
        step, target class id), and whether the class is tangible: if any
        immediate step is derivable, only immediate steps are executable.
        The target is ``_CONFLICT`` where a step reaches two classes."""
        steps = self._steps(cid)
        tangible = not any(is_immediate_step(s) for s in steps)
        if not tangible:
            steps = {s: t for s, t in steps.items() if is_immediate_step(s)}
        return sorted(((step_key(s), s, self._resolve(t)) for s, t in steps.items()), key=itemgetter(0)), tangible

    def _steps(self, cid: int) -> Dict[Step, Target]:
        """Every step of a member of the class with its target, priority not
        applied.  Targets are built lazily (``Target``): most steps of a
        component are dropped by a restriction or by priority further up,
        and their targets are never interned."""
        out = self._class_steps.get(cid)
        if out is not None:
            return out
        c = self._classes[cid]
        out = {}

        def put(step: Step, target: Target) -> None:
            old = out.setdefault(step, target)
            if old is not target and self._resolve(old) != self._resolve(target):
                out[step] = _CONFLICT

        shape = c.shape
        if shape[0] is Act:
            if c.initial:
                put(frozenset((c.skel.activity,)), self.class_of(Under(c.skel)))
        elif shape[0] is DPar:
            _, left, right = shape
            left_steps = [(s, t, is_immediate_step(s)) for s, t in self._steps(left).items()]
            right_steps = [(s, t, is_immediate_step(s)) for s, t in self._steps(right).items()]
            for s, t, _ in left_steps:
                put(s, _CONFLICT if t == _CONFLICT else (t, right))
            for s, t, _ in right_steps:
                put(s, _CONFLICT if t == _CONFLICT else (left, t))
            for s1, t1, immediate in left_steps:
                for s2, t2, other in right_steps:
                    if immediate == other:
                        put(s1 | s2, _CONFLICT if _CONFLICT in (t1, t2) else (t1, t2))
        else:
            kind, ports = shape
            step_map = _STEP_MAPS.get(kind)
            for k, arg in ports:
                derived = [(s, _CONFLICT if t == _CONFLICT else (c.skel, k, t)) for s, t in self._steps(arg).items()]
                for s, t in step_map(c.skel, derived) if step_map else derived:
                    put(s, t)
        self._class_steps[cid] = out
        return out

    def _resolve(self, target: Target) -> int:
        """The class id of a target."""
        if type(target) is int:
            return target
        if len(target) == 2:
            return self._pair(self._resolve(target[0]), self._resolve(target[1]))
        skel, k, t = target
        return self._port(skel, k, self._resolve(t))


class Members(abc.Sequence):
    """The operative members of one class of an ``Engine``, in serialization
    order.  The first comes from the class tree; the others are enumerated
    on first use.  It compares by identity, as enumerating two classes to
    compare them would cost what the tree saves."""

    __slots__ = ("_engine", "_cid", "_all")

    def __init__(self, engine: Engine, cid: int):
        self._engine = engine
        self._cid = cid
        self._all: Optional[Tuple[DynamicExpr, ...]] = None

    def _enumerated(self) -> Tuple[DynamicExpr, ...]:
        if self._all is None:
            self._all = tuple(sorted(self._engine._operatives(self._cid), key=serialize))
        return self._all

    def __len__(self) -> int:
        return self._engine._size(self._cid)

    def __getitem__(self, i):
        if i == 0:
            return self._engine._first(self._cid)[1]
        return self._enumerated()[i]

    def __iter__(self):
        return iter(self._enumerated())

    def __repr__(self) -> str:
        return "Members(%r)" % (self._enumerated(),)


def _relabeled(node: Rel, derived: List[Tuple[Step, Target]]) -> Iterable[Tuple[Step, Target]]:
    """The steps with every activity relabeled."""
    return ((apply_relabel(node.func, step), target) for step, target in derived)


def _restricted(node: Rst, derived: List[Tuple[Step, Target]]) -> Iterable[Tuple[Step, Target]]:
    """The steps in which no activity holds the action or its conjugate."""
    a = Action(node.action)
    held, conjugate = _holders(derived, a, a.conjugate())
    return ((step, target) for step, target in derived if step.isdisjoint(held) and step.isdisjoint(conjugate))


def _synchronized(node: Syn, derived: List[Tuple[Step, Target]]) -> Iterable[Tuple[Step, Target]]:
    """Each step's closure under pairwise synchronization on the action."""
    a = Action(node.action)
    held, conjugate = _holders(derived, a, a.conjugate())
    for step, target in derived:
        if step.isdisjoint(held) or step.isdisjoint(conjugate):  # nothing to synchronize
            yield step, target
        else:
            for merged in _saturate_step(step, a):
                yield merged, target


def _holders(derived: List[Tuple[Step, Target]], *actions: Action) -> List[FrozenSet[Activity]]:
    """Per action, the activities of the derived steps that hold it.  Each
    activity is looked at once, however many steps it is in; a step is then
    checked with one set operation."""
    activities = set().union(*(step for step, _ in derived))
    return [frozenset(u for u in activities if a in u.part) for a in actions]


# How the (step, target) pairs of a node's dynamic argument, each target
# taken to the node's class around it, become the node's own: relabeling
# renames the steps, restriction drops some, synchronization closes each
# under synchronization.  Every other kind keeps them as they are.  A map
# reads only the other fields of the node (its skeleton, here).
_STEP_MAPS = {DRel: _relabeled, DRst: _restricted, DSyn: _synchronized}


def _saturate_step(step: Step, a: Action) -> List[Step]:
    """Close one derived step under pairwise synchronization on ``a``."""
    ah = a.conjugate()
    seen = {step}
    frontier = [step]
    while frontier:
        current = frontier.pop()
        items = sorted(current)
        takers = [v for v in items if ah in v.part]
        # the synchronizable pairs, in the order of itertools.permutations(items, 2)
        for u in (u for u in items if a in u.part):
            for v in takers:
                if v is u or u.immediate != v.immediate or (u.content & v.content):
                    continue
                merged = (current - {u, v}) | {sync_activities(u, v, a)}
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
    cid = engine.class_of(g)
    return State(engine.key(cid), engine.members(cid), engine.steps(cid)[1])


def build_ts(expr: StaticExpr, max_states: int = 100_000, engine: Optional[Engine] = None) -> TransitionSystem:
    """Breadth-first construction of the transition system of ``~expr``."""
    if not is_regular(expr):
        raise SemanticsError("expression is not regular: %s" % serialize(expr))
    own = engine is None
    engine = engine or Engine()

    index: Dict[int, int] = {}  # class id -> state number
    classes: List[int] = []

    def intern(cid: int) -> int:
        idx = index.get(cid)
        if idx is None:
            idx = len(classes)
            if idx >= max_states:
                raise StateSpaceLimit(max_states)
            index[cid] = idx
            classes.append(cid)
        return idx

    intern(engine.class_of(Over(expr)))
    tangible: List[bool] = []
    step_data: List[List[Tuple[Tuple[Activity, ...], Step, int]]] = []
    while len(step_data) < len(classes):
        i = len(step_data)
        # targets are interned in step-key order, so state numbering is stable
        steps, tangible_i = engine.steps(classes[i])
        triples: List[Tuple[Tuple[Activity, ...], Step, int]] = []
        for key, step, target in steps:
            if target == _CONFLICT:
                raise SemanticsError("step from state %d reaches two distinct classes" % (i + 1))
            triples.append((key, step, intern(target)))
        if tangible_i:
            triples.insert(0, ((), EMPTY_STEP, i))
        tangible.append(tangible_i)
        step_data.append(triples)

    for i, triples in enumerate(step_data):
        if tangible[i]:
            singles = {key[0] for key, _, _ in triples if len(key) == 1}
            if singles != {u for key, _, _ in triples for u in key}:
                raise SemanticsError("subset closure violated in state %d" % (i + 1))

    states = [State(engine.key(cid), engine.members(cid), t) for cid, t in zip(classes, tangible)]
    if own:
        # the states keep the engine (``State.members`` enumerates from its
        # classes), but nothing reads the step caches again
        engine._class_steps.clear()
    # not kept on the system: callers that hold many systems would hold
    # their index arrays too; ``readiness`` compiles them on first use
    flat = [(i, key, step, j) for i, triples in enumerate(step_data) for key, step, j in triples]
    readiness = Readiness(tangible, [(i, key, j) for i, key, _, j in flat])
    probs = readiness.probabilities(readiness.leaf_row()[None])[0]
    undefined = np.flatnonzero(~np.isfinite(probs))
    if undefined.size:
        raise SemanticsError("the immediate weights of state %d sum past the float range"
                             % (flat[undefined[0]][0] + 1))
    transitions = [Transition(i, step, p, j) for (i, _, step, j), p in zip(flat, probs.tolist())]
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
    return _solve(a, b, tol, [(a.initial, b.initial)], {}, {})


def _groups(ts, i: int) -> Dict[Step, List[Tuple[float, int]]]:
    # a frozenset keeps its hash, so steps key the groups directly
    by_label: Dict[Step, List[Tuple[float, int]]] = {}
    for t in ts.outgoing(i):
        by_label.setdefault(t.step, []).append((t.prob, t.target))
    return by_label


def _solve(a, b, tol: float, obligations, mapping, reverse):
    # extends its arguments in place; _branch hands it copies, so a failed
    # alternative leaves nothing behind
    while obligations:
        i, j = obligations.pop()
        if i in mapping:
            if mapping[i] != j:
                return None
            continue
        if j in reverse:
            return None
        if a.states[i].tangible != b.states[j].tangible:
            return None
        ga, gb = _groups(a, i), _groups(b, j)
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
            return _branch(a, b, tol, local, obligations, mapping, reverse)
    return mapping


def _branch(a, b, tol: float, local, obligations, mapping, reverse):
    la, lb = local[0]
    rest = local[1:]
    for perm in itertools.permutations(range(len(lb))):
        if all(abs(la[k][0] - lb[p][0]) <= tol for k, p in enumerate(perm)):
            new_obl = obligations + [(la[k][1], lb[p][1]) for k, p in enumerate(perm)]
            if rest:
                result = _branch(a, b, tol, rest, new_obl, mapping, reverse)
            else:
                result = _solve(a, b, tol, new_obl, dict(mapping), dict(reverse))
            if result is not None:
                return result
    return None
