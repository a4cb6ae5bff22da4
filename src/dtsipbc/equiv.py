"""Step stochastic bisimulation: signature refinement, cross-checks, quotients.

Two states are bisimilar when, for every multiset of multiactions and every
equivalence class, their aggregate probabilities of stepping into that class
under that label coincide.  The coarsest such partition is the fixpoint of
whole-signature refinement; probabilities are quantized before hashing so
that floating-point noise does not split blocks.  Signatures key on the
integer label ids that the transition system interns once
(``TransitionSystem.label_ids``), never on rebuilt label multisets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .expr import Multiset, StaticExpr
from .markov import Chain
from .opsem import State, Transition, TransitionSystem, build_ts

__all__ = [
    "Partition",
    "pm_a",
    "largest_autobisim",
    "union_ts",
    "bisim_equivalent",
    "Quotient",
    "quotient",
]

DEFAULT_QUANTUM = 1e-9


@dataclass
class Partition:
    """Disjoint blocks covering the state space, ordered by least member."""

    blocks: List[List[int]]
    block_of: List[int]

    @property
    def size(self) -> int:
        return len(self.blocks)


def pm_a(ts: TransitionSystem, state: int, label: Multiset, targets: Iterable[int]) -> float:
    """Aggregate probability of steps with the given multiaction part landing
    in the given set of states."""
    target_set = set(targets)
    labels = ts.labels()
    return sum(
        t.prob
        for t, k in zip(ts.outgoing(state), ts.label_ids(state))
        if t.target in target_set and labels[k] == label
    )


def _aggregate(ts: TransitionSystem, state: int, block_of: Sequence[int]) -> Dict[Tuple[int, int], float]:
    """Probability of each (label id, target block) pair out of a state."""
    agg: Dict[Tuple[int, int], float] = {}
    for t, k in zip(ts.outgoing(state), ts.label_ids(state)):
        key = (k, block_of[t.target])
        agg[key] = agg.get(key, 0.0) + t.prob
    return agg


def _signature(ts: TransitionSystem, state: int, block_of: Sequence[int], quantum: float):
    agg = _aggregate(ts, state, block_of)
    if quantum > 0:
        items = tuple(sorted((lbl, blk, round(p / quantum)) for (lbl, blk), p in agg.items()))
    else:
        items = tuple(sorted((lbl, blk, p) for (lbl, blk), p in agg.items()))
    return (ts.states[state].tangible, items)


def _refine(ts: TransitionSystem, quantum: float) -> Partition:
    n = len(ts.states)
    block_of = [0] * n
    while True:
        groups: Dict[Tuple[int, object], List[int]] = {}
        for i in range(n):
            key = (block_of[i], _signature(ts, i, block_of, quantum))
            groups.setdefault(key, []).append(i)
        blocks = sorted(groups.values(), key=min)
        if len(blocks) == len(set(block_of)):
            final = sorted(([sorted(b) for b in blocks]), key=min)
            block_of = [0] * n
            for k, b in enumerate(final):
                for i in b:
                    block_of[i] = k
            return Partition(final, block_of)
        for k, b in enumerate(blocks):
            for i in b:
                block_of[i] = k


def largest_autobisim(ts: TransitionSystem, quantum: float = DEFAULT_QUANTUM) -> Partition:
    """Coarsest partition in which every block has one outgoing signature."""
    part = _refine(ts, quantum)
    for block in part.blocks:
        kinds = {ts.states[i].tangible for i in block}
        if len(kinds) != 1:
            raise AssertionError("a bisimulation block mixes tangible and vanishing states")
    return part


def union_ts(a: TransitionSystem, b: TransitionSystem) -> TransitionSystem:
    """Disjoint union with origin-tagged state keys; initial state is a's."""
    states = [State("L:" + s.key, s.members, s.tangible) for s in a.states]
    states += [State("R:" + s.key, s.members, s.tangible) for s in b.states]
    offset = len(a.states)
    transitions = list(a.transitions)
    transitions += [Transition(t.source + offset, t.step, t.prob, t.target + offset) for t in b.transitions]
    return TransitionSystem(states, transitions, a.initial, None)


@dataclass
class BisimResult:
    equivalent: bool
    partition: Partition
    union: TransitionSystem
    initial_pair: Tuple[int, int]


def bisim_equivalent(
    e1: StaticExpr,
    e2: StaticExpr,
    quantum: float = DEFAULT_QUANTUM,
    max_states: int = 100_000,
) -> BisimResult:
    """Decide step stochastic bisimulation equivalence of two terms."""
    ts1 = build_ts(e1, max_states=max_states)
    ts2 = build_ts(e2, max_states=max_states)
    return bisim_equivalent_ts(ts1, ts2, quantum)


def bisim_equivalent_ts(ts1: TransitionSystem, ts2: TransitionSystem, quantum: float = DEFAULT_QUANTUM) -> BisimResult:
    both = union_ts(ts1, ts2)
    part = largest_autobisim(both, quantum)
    i, j = ts1.initial, len(ts1.states) + ts2.initial
    return BisimResult(part.block_of[i] == part.block_of[j], part, both, (i, j))


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------


@dataclass
class Quotient:
    """Transition system over bisimulation blocks, with its chain view."""

    partition: Partition
    source: TransitionSystem
    _chain: Chain

    @property
    def size(self) -> int:
        return self.partition.size

    def chain(self) -> Chain:
        """The chain over the blocks: block ``k`` has the key listing its
        members, and its arcs are sorted by label, then target block."""
        return self._chain


def quotient(
    ts: TransitionSystem,
    part: Optional[Partition] = None,
    quantum: float = DEFAULT_QUANTUM,
    check_tol: float = 1e-9,
) -> Quotient:
    """Collapse a transition system by a step stochastic autobisimulation.

    The partition defaults to the largest one.  Block-level probabilities are
    taken from the least representative and verified against every other
    member, so a partition that is not an autobisimulation is rejected.
    """
    if part is None:
        part = largest_autobisim(ts, quantum)
    labels = ts.labels()
    keys: List[str] = []
    tangible: List[bool] = []
    indptr = [0]
    arcs: List[Tuple[Tuple[int, int], float]] = []  # ((label id, target block), probability)
    for k, block in enumerate(part.blocks):
        keys.append("{%s}" % ",".join("s%d" % (i + 1) for i in block))
        kinds = {ts.states[i].tangible for i in block}
        if len(kinds) != 1:
            raise AssertionError("quotient block %d mixes state kinds" % (k + 1))
        tangible.append(kinds.pop())

        per_member = [_aggregate(ts, i, part.block_of) for i in block]
        rep = per_member[0]
        for other in per_member[1:]:
            if set(other) != set(rep) or any(abs(other[k2] - rep[k2]) > check_tol for k2 in rep):
                raise AssertionError("partition is not an autobisimulation (block %d)" % (k + 1))
        arcs += sorted(rep.items(), key=lambda arc: (labels[arc[0][0]], arc[0][1]))
        indptr.append(len(arcs))

    chain = Chain(keys, tangible, labels, np.array(indptr, dtype=np.intp),
                  np.array([lbl for (lbl, _), _ in arcs], dtype=np.intp),
                  np.array([blk for (_, blk), _ in arcs], dtype=np.intp),
                  np.array([[p for _, p in arcs]]), part.block_of[ts.initial])
    return Quotient(part, ts, chain)
