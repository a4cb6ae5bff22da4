"""Step stochastic bisimulation: signature refinement, cross-checks, quotients.

Two states are bisimilar when, for every multiset of multiactions and every
equivalence class, their aggregate probabilities of stepping into that class
under that label coincide.  The coarsest such partition is the fixpoint of
whole-signature refinement; probabilities are quantized before hashing so
that floating-point noise does not split blocks.  Signatures key on the
integer label ids that the transition system interns once
(``TransitionSystem.label_ids``), never on rebuilt label multisets, and are
computed for all states at once from the arc arrays of the system's
``Chain``.  ``lump`` collapses a chain's first point by a bisimulation, so
that a point of a sweep's chain lumps without a system of its own;
``quotient`` is ``lump`` of a system's chain.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .expr import StaticExpr
from .markov import Chain
from .opsem import State, Transition, TransitionSystem, build_ts

__all__ = [
    "Partition",
    "largest_autobisim",
    "union_ts",
    "bisim_equivalent",
    "Quotient",
    "lump",
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


def _check_quantum(quantum: float) -> None:
    """A quantum is 0, for exact comparison, or a finite float of the normal
    range: below it, p / quantum overflows for probabilities near one."""
    if math.isnan(quantum) or quantum > 0 and not sys.float_info.min <= quantum < math.inf:
        raise ValueError("quantum must be 0 or a finite float of at least %r, got %r"
                         % (sys.float_info.min, quantum))


def _rows(chain: Chain, block_of: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The probability of each (label id, target block) pair out of each
    state: the source, label id, target block and sum of each pair, sorted
    by source, label id, then block.  The arcs are sorted stably, so each
    pair sums its arcs in arc order, as adding them one at a time does."""
    source = chain.sources
    targets = block_of[chain.targets]
    order = np.lexsort((targets, chain.label_ids, source))
    source, labels, targets = source[order], chain.label_ids[order], targets[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (source[1:] != source[:-1]) | (labels[1:] != labels[:-1]) | (targets[1:] != targets[:-1])
    sums = np.zeros(int(first.sum()))
    np.add.at(sums, np.cumsum(first) - 1, chain.probs[0, order])
    return source[first], labels[first], targets[first], sums


# one (label id, target block, probability) entry of a state's signature
_ENTRY = np.dtype([("label", "<i8"), ("block", "<i8"), ("value", "<f8")])


def _refine(chain: Chain, quantum: float) -> Tuple[Partition, Tuple[np.ndarray, ...]]:
    """Whole-signature refinement from the single block: each round keys
    every state by its block, its kind and the bytes of its (label id,
    target block, quantized probability) entries, and numbers the new
    blocks by their least members, until no block splits.  ``np.rint``
    buckets as ``round`` does below 2**53, and above it both keep the
    float's own value.  The last round's ``_rows`` come with the
    partition: that round numbered the blocks as the one before it did."""
    n = chain.size
    block_of = np.zeros(n, dtype=np.intp)
    count = min(n, 1)
    while True:
        rows = source, labels, targets, sums = _rows(chain, block_of)
        entries = np.empty(len(sums), dtype=_ENTRY)
        entries["label"], entries["block"] = labels, targets
        entries["value"] = np.rint(sums / quantum) if quantum > 0 else sums
        data = entries.tobytes()
        bounds = (np.searchsorted(source, np.arange(n + 1)) * _ENTRY.itemsize).tolist()
        ids: Dict[Tuple[int, bool, bytes], int] = {}
        # states in order, so that each block is numbered when its least member is met
        refined = [ids.setdefault((block, kind, data[lo:hi]), len(ids))
                   for block, kind, lo, hi in zip(block_of.tolist(), chain.tangible, bounds, bounds[1:])]
        block_of = np.array(refined, dtype=np.intp)
        if len(ids) == count:
            blocks: List[List[int]] = [[] for _ in range(count)]
            for i, k in enumerate(refined):
                blocks[k].append(i)
            return Partition(blocks, refined), rows
        count = len(ids)


def largest_autobisim(ts: TransitionSystem, quantum: float = DEFAULT_QUANTUM) -> Partition:
    """Coarsest partition in which every block has one outgoing signature.
    ``quantum`` is the bucket width of the probabilities compared, or 0 to
    compare them exactly."""
    _check_quantum(quantum)
    part, _ = _refine(Chain.from_ts(ts), quantum)
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
        """The chain over the blocks, as ``lump`` builds it."""
        return self._chain


def lump(chain: Chain, part: Optional[Partition] = None, quantum: float = DEFAULT_QUANTUM
         ) -> Tuple[Partition, Chain]:
    """Collapse the first point of a chain by a step stochastic
    autobisimulation: the partition, by default the largest one, and the
    chain over its blocks, in which block ``k`` has the key listing its
    members and its arcs are sorted by label, then target block.

    Block-level probabilities are taken from the least representative and
    verified against every other member, within the partition's own
    coarseness (``quantum``, and at least 1e-9), so a partition that is not
    an autobisimulation is rejected: at the first block that mixes state
    kinds or has a member that steps otherwise.
    """
    _check_quantum(quantum)
    if part is None:
        part, rows = _refine(chain, quantum)
    else:
        rows = _rows(chain, np.asarray(part.block_of, dtype=np.intp))
    source, labels, targets, sums = rows
    block_of = np.asarray(part.block_of, dtype=np.intp)
    reps = np.array([block[0] if block else 0 for block in part.blocks], dtype=np.intp)
    rep = reps[block_of]
    tangible = np.asarray(chain.tangible, dtype=bool)

    # every row against the row at the same place in its representative's
    start = np.searchsorted(source, np.arange(chain.size + 1))
    length = start[1:] - start[:-1]
    twin = np.minimum(start[rep[source]] + np.arange(len(source)) - start[source], max(len(source) - 1, 0))
    tol = max(quantum, 1e-9)
    differs = (labels != labels[twin]) | (targets != targets[twin]) | (np.abs(sums - sums[twin]) > tol)
    unlike = length != length[rep]
    unlike[source[differs]] = True
    mixed = np.bincount(block_of, minlength=len(reps)) == 0  # an empty block has no kind
    mixed[block_of[tangible != tangible[rep]]] = True
    stray = np.zeros(len(reps), dtype=bool)
    stray[block_of[unlike]] = True
    failing = np.flatnonzero(mixed | stray)
    if failing.size:
        k = failing[0]
        if mixed[k]:
            raise AssertionError("quotient block %d mixes state kinds" % (k + 1))
        raise AssertionError("partition is not an autobisimulation (block %d)" % (k + 1))

    # each block steps as its representative, arcs sorted by label, then
    # target block; the labels are ranked once
    rank = np.empty(len(chain.labels), dtype=np.intp)
    rank[sorted(range(len(chain.labels)), key=chain.labels.__getitem__)] = np.arange(len(chain.labels))
    kept = np.flatnonzero(rep[source] == source)
    kept = kept[np.lexsort((targets[kept], rank[labels[kept]], block_of[source[kept]]))]
    keys = ["{%s}" % ",".join("s%d" % (i + 1) for i in block) for block in part.blocks]
    return part, Chain(keys, tangible[reps].tolist(), chain.labels, np.concatenate(([0], np.cumsum(length[reps]))),
                       labels[kept], targets[kept], sums[kept][None], part.block_of[chain.initial])


def quotient(ts: TransitionSystem, part: Optional[Partition] = None, quantum: float = DEFAULT_QUANTUM) -> Quotient:
    """Collapse a transition system by a step stochastic autobisimulation,
    by default the largest one: ``lump`` of its chain."""
    part, chain = lump(Chain.from_ts(ts), part, quantum)
    return Quotient(part, ts, chain)
