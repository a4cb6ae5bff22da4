"""Sojourn statistics, embedded and full chains, stationary solving.

The semi-Markov view of a transition system: tangible states hold for a
geometrically distributed number of ticks, vanishing states take zero time.
The embedded chain abstracts self-loops (zero diagonal); the full chain keeps
transition probabilities verbatim.  Both stationary vectors are computed by a
direct linear solve on the unique closed communication class, refined with
compensated residuals (Stewart, *Introduction to the Numerical Solution of
Markov Chains*, 1994).  Power iteration and the k-step distributions,
independent checks of the solver, are in ``tests/oracles.py``.

A chain holds its arcs once, as row-ordered arrays, with probabilities at
one or many points of a parameter grid; it sums them into one matrix per
point only when asked, and neither it nor a solution keeps one.  The
solver works on all points at once (``solve_stack``): the communication
classes and the closed class are computed once per support group and
shared by both routes, each of which keeps its own period (the embedded
chain's successors are the full chain's without self-loops); the linear
algebra runs for all points at once, and every check still runs at every
point.  ``solve_chain`` is the one-point case, and gives the bits that a
per-matrix computation gives: each row is reduced, and each system solved,
exactly as it would be on its own.

Performance indices are evaluated the same way: one walk of the index tree
over a stack of solutions (``evaluate_index_stack``), of which
``evaluate_index`` is the one-point case.
"""

from __future__ import annotations

import math
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .expr import Multiset, fold
from .opsem import TransitionSystem

__all__ = [
    "AnalysisError",
    "Chain",
    "SojournStats",
    "SolveResult",
    "StackResult",
    "solve_chain",
    "solve_stack",
    "evaluate_index",
    "evaluate_index_stack",
]



class AnalysisError(Exception):
    """Raised when a chain has no usable stationary regime."""

    def __init__(self, message: str, closed_classes: Optional[List[List[int]]] = None):
        super().__init__(message)
        self.closed_classes = closed_classes or []


@dataclass
class Chain:
    """State-labeled chain with step arcs, at one or many points of a
    parameter grid: the common input of every solver.

    The arcs are stored once, in row order: those of state ``i`` are
    ``indptr[i]:indptr[i + 1]``, arc ``k`` has the label
    ``labels[label_ids[k]]`` and the target ``targets[k]``, and
    ``probs[p, k]`` is its probability at point ``p``.  No n-by-n matrix is
    kept: ``matrices`` sums the arcs into a fresh stack when one is needed."""

    keys: List[str]
    tangible: List[bool]
    labels: List[Multiset]  # multisets of multiaction parts
    indptr: np.ndarray
    label_ids: np.ndarray
    targets: np.ndarray
    probs: np.ndarray
    initial: int = 0

    @staticmethod
    def from_ts(ts: TransitionSystem, leaf_values: Optional[np.ndarray] = None) -> "Chain":
        """The chain of ``ts`` at its own probabilities, or reweighted to
        each row of ``leaf_values`` (column ``c`` holds leaf ``c + 1``), as
        ``Chain.from_ts(ts.reweight(...))`` would build them one at a time.
        Transitions are taken by source, each source's in system order."""
        n = len(ts.states)
        if leaf_values is None:
            probs = np.array([[t.prob for t in ts.transitions]])
        else:
            probs = ts.readiness().probabilities(leaf_values)
        source = np.array([t.source for t in ts.transitions], dtype=np.intp)
        targets = np.array([t.target for t in ts.transitions], dtype=np.intp)
        if (np.diff(source) < 0).any():
            order = np.argsort(source, kind="stable")
            source, targets, probs = source[order], targets[order], probs[:, order]
        return Chain([s.key for s in ts.states], [s.tangible for s in ts.states], ts.labels(),
                     np.searchsorted(source, np.arange(n + 1)),
                     np.array([k for i in range(n) for k in ts.label_ids(i)], dtype=np.intp),
                     targets, probs, ts.initial)

    @property
    def size(self) -> int:
        return len(self.keys)

    @property
    def sources(self) -> np.ndarray:
        """The source state of every arc."""
        return np.repeat(np.arange(self.size), np.diff(self.indptr))

    def point(self, p: int, keys: List[str]) -> "Chain":
        """The chain at point ``p``, with the state keys given."""
        return replace(self, keys=keys, probs=self.probs[p:p + 1])

    def matrices(self, points: slice = slice(None)) -> np.ndarray:
        """A fresh ``(points, n, n)`` stack of the one-step matrices at
        ``points``; parallel arcs are added in arc order."""
        probs = self.probs[points]
        pm = np.zeros((probs.shape[0], self.size, self.size))
        np.add.at(pm, (slice(None), self.sources, self.targets), probs)
        return pm


@dataclass
class SojournStats:
    average: np.ndarray  # zero at vanishing states, +inf at absorbing tangible ones
    variance: np.ndarray
    loop_factor: np.ndarray  # self-loop abstraction factor


# the entries that _off_diagonal_sums gathers at a time
_GATHER_BLOCK = 1 << 16


def _off_diagonal_sums(m: np.ndarray) -> np.ndarray:
    """Row sums of a ``(points, k, k)`` stack without the diagonal.

    Summing only the off-diagonal entries avoids the cancellation of
    ``1 - m[i, i]`` when the self-loop dominates.  Each row's k - 1 entries
    are gathered into one contiguous row, the entries right of the diagonal
    moved left by one, so numpy sums them exactly as it sums
    ``np.delete(row, i)``.  Rows are gathered a block at a time, so that no
    copy of the whole stack is made.
    """
    points, k = m.shape[0], m.shape[-1]
    rows = max(1, _GATHER_BLOCK // max(1, points * k))
    out = np.empty((points, k))
    for lo in range(0, k, rows):
        hi = min(lo + rows, k)
        block = m[:, lo:hi]
        right = np.arange(k - 1) >= np.arange(lo, hi)[:, None]
        # C order: a row whose entries are not adjacent would be summed in
        # another order, with other rounding
        gathered = np.ascontiguousarray(np.where(right, block[:, :, 1:], block[:, :, :-1]))
        out[:, lo:hi] = gathered.sum(axis=-1)
    return out


def _sojourn(pm: np.ndarray, tangible: Sequence[bool]) -> Tuple[SojournStats, np.ndarray]:
    """Sojourn statistics of a stack, and the exit mass of every state."""
    p = np.diagonal(pm, axis1=1, axis2=2)
    leave = _off_diagonal_sums(pm)
    absorbing = leave == 0.0
    tangible = np.asarray(tangible, dtype=bool)
    # Python's float power, as in the scalar formula p / leave**2: it is not
    # always the correctly rounded square that leave * leave would give
    squares = np.array([v**2 for v in leave.ravel().tolist()]).reshape(leave.shape)
    # a subnormal exit mass gives an infinite mean, a square that underflows
    # an infinite variance, both quietly
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inverse = 1.0 / leave
        variance = np.where(absorbing, math.inf, p / squares)
    stats = SojournStats(
        np.where(tangible, inverse, 0.0),
        np.where(tangible, variance, 0.0),
        np.where(p > 0, inverse, 1.0),
    )
    return stats, leave


def _embedded(pm: np.ndarray, leave: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Self-loop abstracted matrices: zero diagonal, absorbing rows zero.
    ``out`` may be ``pm`` itself: each entry is read before it is written."""
    live = (leave != 0.0)[..., None]
    out = np.empty_like(pm) if out is None else out
    np.copyto(out, 0.0, where=~live)
    with np.errstate(over="ignore"):  # a self-loop over a subnormal exit mass
        np.divide(pm, leave[..., None], out=out, where=live)
    k = pm.shape[-1]
    out[:, np.arange(k), np.arange(k)] = 0.0
    # rescale away the division noise so rows sum to one exactly enough
    np.divide(out, out.sum(axis=-1, keepdims=True), out=out, where=live)
    return out


# ---------------------------------------------------------------------------
# Communication structure
# ---------------------------------------------------------------------------


def _adjacency(tpm: np.ndarray) -> List[List[int]]:
    """Successors of every state, in column order."""
    rows, cols = np.nonzero(tpm > 0)
    bounds = np.searchsorted(rows, np.arange(tpm.shape[0] + 1)).tolist()
    cols = cols.tolist()
    return [cols[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _classes(adjacency: List[List[int]]) -> Tuple[List[List[int]], List[List[int]]]:
    """Strongly connected components and the closed ones among them."""
    n = len(adjacency)
    index_of = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    components: List[List[int]] = []
    counter = [0]

    def strongconnect(root: int) -> None:
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index_of[v] = lowlink[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(adjacency[v])):
                w = adjacency[v][k]
                if index_of[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index_of[w])
            if advanced:
                continue
            if lowlink[v] == index_of[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(sorted(comp))
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])

    for v in range(n):
        if index_of[v] == -1:
            strongconnect(v)

    closed = []
    for comp in components:
        members = set(comp)
        if all(w in members for v in comp for w in adjacency[v]):
            closed.append(comp)
    return components, sorted(closed)


def _class_period(adjacency: List[List[int]], comp: List[int]) -> int:
    """The gcd of a class's level differences in a breadth-first walk."""
    members = set(comp)
    root = comp[0]
    level = {root: 0}
    queue = deque([root])
    g = 0
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if w not in members:
                continue
            if w not in level:
                level[w] = level[v] + 1
                queue.append(w)
            g = math.gcd(g, level[v] + 1 - level[w])
            if g == 1:  # a gcd never rises again
                return 1
    return abs(g) if g else 1


def _stationary_stack(tpm: np.ndarray, comp: List[int]) -> Tuple[np.ndarray, List[Optional[AnalysisError]]]:
    """One route's stationary row vectors (zero at transient states) on the
    closed class ``comp`` of a stack of matrices that share one support, and
    each point's ``AnalysisError`` (None where it solves); the class's
    matrices in ``tpm`` are overwritten with their generators."""
    points, n = tpm.shape[:2]
    pmf = np.zeros((points, n))
    errors: List[Optional[AnalysisError]] = [None] * points
    # a closed class of consecutive states is a slice: its matrices are a
    # view, which _stationary_on_class turns into generators in place
    span = slice(comp[0], comp[-1] + 1)
    consecutive = span.stop - span.start == len(comp)
    sub = tpm[:, span, span] if consecutive else tpm[np.ix_(np.arange(points), comp, comp)]
    row_sums = sub.sum(axis=-1)
    # np.isclose(row_sums, 1.0, atol=1e-9) spelled out: nan and inf fail
    stochastic = (abs(row_sums - 1.0) <= 1e-9 + 1e-5).all(axis=-1)
    for p in np.flatnonzero(~stochastic):
        errors[p] = AnalysisError("closed class is not stochastic (row sums %s)" % row_sums[p])
    solved = np.flatnonzero(stochastic)
    if len(comp) == 1:  # one state with its self-loop: the LU solve gives exactly 1.0, residual 0
        pmf[solved, comp[0]] = 1.0
        return pmf, errors
    try:
        parts = [(solved, *_stationary_on_class(sub if solved.size == points else sub[solved]))]
    except np.linalg.LinAlgError:
        # one singular system fails the whole stack: solve each point alone
        parts = []
        for p in solved.tolist():
            try:
                parts.append(([p], *_stationary_on_class(sub[[p]])))
            except np.linalg.LinAlgError:
                errors[p] = AnalysisError("stationary solve failed: singular matrix")
    for group, x, residual in parts:
        for p, r in zip(group, residual.tolist()):
            if r > _RESIDUAL_TOL:
                errors[p] = AnalysisError("stationary solve residual %.2e exceeds %.2e" % (r, _RESIDUAL_TOL))
        pmf[(group, span) if consecutive else np.ix_(group, comp)] = x
    return pmf, errors


def _compensated_residual(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """b - a x, each row summed exactly (the products round as scalar ones
    would, and ``math.fsum`` is exact).  Rows are multiplied and listed one
    at a time, so that neither a k-by-k product nor a k-by-k list of Python
    floats is ever held."""
    return np.asarray([bi - math.fsum((row * x).tolist()) for bi, row in zip(b.tolist(), a)])


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve every system of a stack; each gets the bits of its own solve."""
    return np.linalg.solve(a, b[..., None])[..., 0]


def _max_residual(x: np.ndarray, gen: np.ndarray) -> np.ndarray:
    """max |x gen| at every point."""
    return np.max(np.abs((x[:, None, :] @ gen)[:, 0, :]), axis=-1)


@contextmanager
def _lu_input(gen: np.ndarray, last: np.ndarray):
    """The LU input of ``_stationary_on_class``: a view of ``gen``
    transposed, whose last row of ones is ``gen``'s last column set to 1.0
    for as long as the block runs.  ``last``, the true column, is put back
    on every exit, a ``LinAlgError`` included."""
    a = gen.transpose(0, 2, 1)
    a[:, -1, :] = 1.0
    try:
        yield a
    finally:
        a[:, -1, :] = last


def _stationary_on_class(sub: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """LU solve of x(P - I) = 0, x summing to one, on one closed class, for
    a stack of matrices.

    The generator diagonal is assembled from the off-diagonal row masses so
    that nothing cancels when self-loops dominate, and iterative refinement
    with compensated residuals recovers the forward accuracy that a single
    LU pass loses on stiff chains (parameters close to 0 or 1).  Each point
    keeps its best of up to five rounds and leaves the loop once it
    converges.

    ``sub`` is overwritten with the generators, and LAPACK reads them
    through a transposed view (``_lu_input``), not a copy.  Their diagonal
    depends only on the off-diagonal entries, so solving them again solves
    the same systems.
    """
    points, k = sub.shape[:2]
    diag = np.arange(k)
    gen = sub
    gen[:, diag, diag] = -_off_diagonal_sums(gen)
    last = gen[:, :, -1].copy()
    b = np.zeros((points, k))
    b[:, -1] = 1.0

    with _lu_input(gen, last) as a:
        x = _solve(a, b)
    best = np.empty_like(x)
    best_res = np.empty(points)
    live = np.arange(points)
    for round_ in range(5):
        x = x / x.sum(axis=-1, keepdims=True)
        res = _max_residual(x, gen if live.size == points else gen[live])
        better = res < best_res[live] if round_ else np.ones(live.size, dtype=bool)
        best[live[better]] = x[better]
        best_res[live[better]] = res[better]
        going = ~(res <= _RESIDUAL_TOL * 0.01)
        live, x = live[going], x[going]
        if round_ == 4 or not live.size:
            break
        with _lu_input(gen, last) as a:
            resid = np.array([_compensated_residual(a[p], b[p], xp) for p, xp in zip(live.tolist(), x)])
            x = x + _solve(a if live.size == points else a[live], resid)
    x = np.where(np.abs(best) < 1e-300, 0.0, np.clip(best, 0.0, None))
    x = x / x.sum(axis=-1, keepdims=True)
    return x, _max_residual(x, gen)


# ---------------------------------------------------------------------------
# Semi-Markov solution
# ---------------------------------------------------------------------------


# the largest residual max |x (P - I)| of a stationary vector (refinement
# aims at a hundredth of it), and the largest disagreement between the two
# steady-state routes, that are taken for rounding rather than a solver bug
_RESIDUAL_TOL = _CROSS_CHECK_TOL = 1e-10


@dataclass
class SolveResult:
    """The solution of a chain's first point.  ``dtmc`` and ``edtmc`` are
    summed anew from the chain's arcs at each read."""

    chain: Chain
    sojourn: SojournStats
    psi: np.ndarray  # stationary PMF of the full chain
    psi_star: np.ndarray  # stationary PMF of the embedded chain
    phi: np.ndarray  # semi-Markov steady state (zero at vanishing states)
    closed_class: List[int]
    edtmc_periodic: bool
    dtmc_periodic: bool

    @property
    def dtmc(self) -> np.ndarray:
        """The one-step matrix."""
        return self.chain.matrices(slice(0, 1))[0]

    @property
    def edtmc(self) -> np.ndarray:
        """The self-loop abstracted one-step matrix: zero diagonal, absorbing
        rows zero."""
        pm = self.chain.matrices(slice(0, 1))
        return _embedded(pm, _off_diagonal_sums(pm))[0]

    def state_rows(self) -> List[Dict[str, object]]:
        rows = []
        for i in range(self.chain.size):
            rows.append(
                {
                    "state": i + 1,
                    "key": self.chain.keys[i],
                    "kind": "tangible" if self.chain.tangible[i] else "vanishing",
                    "sojourn_mean": float(self.sojourn.average[i]),
                    "sojourn_variance": float(self.sojourn.variance[i]),
                    "psi_star": float(self.psi_star[i]),
                    "psi": float(self.psi[i]),
                    "phi": float(self.phi[i]),
                }
            )
        return rows


@dataclass
class StackResult:
    """``solve_chain``'s results at every point of a stack: the arrays lead
    with the point axis, and ``errors[p]`` is the ``AnalysisError`` that
    ``solve_chain`` raises at point ``p``, or None where it succeeds (the
    arrays hold no meaningful values there)."""

    sojourn: SojournStats
    psi: np.ndarray
    psi_star: np.ndarray
    phi: np.ndarray
    closed_class: List[List[int]]
    edtmc_periodic: List[bool]
    dtmc_periodic: List[bool]
    errors: List[Optional[AnalysisError]]

    def result(self, p: int, chain: Chain) -> SolveResult:
        """The ``SolveResult`` of point ``p``, whose chain is ``chain``; it
        raises the point's error instead."""
        if self.errors[p] is not None:
            raise self.errors[p]
        sojourn = SojournStats(self.sojourn.average[p], self.sojourn.variance[p], self.sojourn.loop_factor[p])
        return SolveResult(chain, sojourn, self.psi[p], self.psi_star[p], self.phi[p], self.closed_class[p],
                           self.edtmc_periodic[p], self.dtmc_periodic[p])


def solve_chain(chain: Chain) -> SolveResult:
    """Stationary analysis by both routes, cross-checked.

    Route A weighs the embedded stationary vector by average sojourn times;
    route B restricts the full-chain stationary vector to tangible states.
    Their disagreement beyond ``_CROSS_CHECK_TOL`` means a solver bug, so it
    raises instead of returning silently wrong numbers.
    """
    return _solve_stack(chain, slice(0, 1)).result(0, chain)


def solve_stack(chain: Chain) -> StackResult:
    """``solve_chain`` at every point of a chain, without raising: a point
    fails, with the same error, exactly where ``solve_chain`` would."""
    return _solve_stack(chain, slice(None))


def _support_groups(pm: np.ndarray) -> List[np.ndarray]:
    """The points of equal support (positive entries) in a stack of
    one-step matrices.

    They are also the points of equal support in the embedded stack: in a
    live row, an embedded entry is positive exactly where the off-diagonal
    entry of ``pm`` is, and a row that ``_embedded`` zeroes has no
    off-diagonal support in either.  Only a division that rounds a positive
    entry (a subnormal one) to zero could break this, and that takes a
    divisor of 2 or more: ``_embedded`` divides by the row's off-diagonal
    mass and then by a row sum near one, both below 2 in a stochastic row."""
    points = pm.shape[0]
    if points == 1:
        return [np.zeros(1, dtype=np.intp)]
    support = np.packbits(pm.reshape(points, -1) > 0, axis=1)
    groups: Dict[bytes, List[int]] = {}
    for p, key in enumerate(support):
        groups.setdefault(key.tobytes(), []).append(p)
    return [np.array(group, dtype=np.intp) for group in groups.values()]


def _solve_stack(chain: Chain, at: slice) -> StackResult:
    """Both routes at the points ``at`` of ``chain``, on one stack: the
    full route solves on the one-step matrices, which then become the
    embedded ones in place for the embedded route (``_solve_group``).  No
    n-by-n array outlives the call."""
    pm = chain.matrices(at)
    points, n = pm.shape[:2]
    tangible = chain.tangible
    stats, leave = _sojourn(pm, tangible)
    out = StackResult(stats, np.zeros((points, n)), np.zeros((points, n)), np.zeros((points, n)),
                      [[]] * points, [False] * points, [False] * points, [None] * points)
    groups = _support_groups(pm)
    for group in groups:
        take = group if len(groups) > 1 else slice(None)  # one group: the stack itself, no copy
        psi, psi_star, phi, comp, emb_periodic, full_periodic, errors = _solve_group(
            pm[take], leave[take], stats.average[take], tangible)
        out.psi[take], out.psi_star[take], out.phi[take] = psi, psi_star, phi
        for k, p in enumerate(group.tolist()):
            out.closed_class[p] = comp
            out.edtmc_periodic[p] = emb_periodic
            out.dtmc_periodic[p] = full_periodic
            out.errors[p] = errors[k]
    return out


def _solve_group(pm: np.ndarray, leave: np.ndarray, average: np.ndarray, tangible: Sequence[bool]):
    """Both routes on points that share one support, on the one stack
    ``pm``, which is overwritten.  Their communication structure is read
    once, from the full chain: the embedded one has the same arcs less the
    self-loops, so the same classes, and each route's period comes from its
    own successor lists.  The full route solves first: it writes only the
    diagonal of the closed class's block (and restores the column it lends
    to the LU), which ``_embedded`` zeroes; ``leave`` was read before either
    route ran."""
    points, n = pm.shape[:2]
    adjacency = _adjacency(pm[0])
    _, closed = _classes(adjacency)
    if len(closed) != 1:
        error = AnalysisError("chain has %d closed communication classes; expected one" % len(closed),
                              closed_classes=closed)
        return np.zeros((points, n)), np.zeros((points, n)), np.zeros((points, n)), [], False, False, [error] * points
    comp = closed[0]
    if len(comp) > 1:
        psi, full_errors = _stationary_stack(pm, comp)
        psi_star, emb_errors = _stationary_stack(_embedded(pm, leave, out=pm), comp)
        full_periodic = _class_period(adjacency, comp) > 1
        emb_periodic = _class_period([[w for w in succ if w != v] for v, succ in enumerate(adjacency)], comp) > 1
    else:  # one absorbing state: no arc out of it in the embedded chain, at most its self-loop in the full one
        psi_star = np.repeat(np.eye(1, n, comp[0]), points, axis=0)
        psi, full_errors = _stationary_stack(pm, comp) if adjacency[comp[0]] else (psi_star.copy(), [None] * points)
        emb_errors, emb_periodic, full_periodic = [None] * points, False, False
    errors = [e or f for e, f in zip(emb_errors, full_errors)]

    def fail(where: np.ndarray, message: str) -> None:
        for p in np.flatnonzero(where):
            errors[p] = errors[p] or AnalysisError(message)

    phi = np.zeros((points, n))
    infinite = np.isinf(average)
    absorbed = infinite[:, comp].any(axis=-1)
    if absorbed.any():
        # the closed class is one absorbing tangible state
        if len(comp) > 1:
            fail(absorbed, "infinite sojourn inside a non-trivial closed class")
        elif not tangible[comp[0]]:
            fail(absorbed, "absorbing vanishing state: time cannot progress")
        phi[absorbed, comp[0]] = 1.0
    weighted = psi_star * np.where(infinite, 0.0, average)
    total = weighted.sum(axis=-1)
    fail(~absorbed & (total <= 0), "no tangible state carries stationary probability")
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(absorbed[:, None], phi, weighted / total[:, None])

    tangible_mass = np.zeros(points)
    for i in range(n):
        if tangible[i]:
            tangible_mass = tangible_mass + psi[:, i]
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_b = np.where(np.asarray(tangible, dtype=bool), psi / tangible_mass[:, None], 0.0)
    gap = np.max(np.abs(phi - phi_b), axis=-1)
    for p in np.flatnonzero(gap > _CROSS_CHECK_TOL):
        errors[p] = errors[p] or AnalysisError("steady-state routes disagree by %.2e" % gap[p])
    return psi, psi_star, phi, comp, emb_periodic, full_periodic, errors


# ---------------------------------------------------------------------------
# Performance indices
# ---------------------------------------------------------------------------


def evaluate_index(expr, result: SolveResult) -> float:
    """Evaluate a model-file index expression against a solved chain: point 0
    of ``evaluate_index_stack`` on a one-point view of ``result``.  An index
    undefined on the solution raises ``ZeroDivisionError`` (a division by
    zero) or ``ValueError`` (a state the chain does not have)."""
    vectors = {name: v[None] for name, v in _index_vectors(result).items()}
    values, errors = _evaluate_index(expr, result.chain, vectors)
    if errors[0] is not None:
        raise errors[0]
    return float(values[0])


def evaluate_index_stack(expr, chain: Chain, solved: StackResult) -> Tuple[np.ndarray, List[Optional[Exception]]]:
    """``evaluate_index`` at every point of a chain: the values, and at each
    point the error ``evaluate_index`` raises there, or None."""
    return _evaluate_index(expr, chain, _index_vectors(solved))


def _index_vectors(solved) -> Dict[str, np.ndarray]:
    """The state vectors of a ``SolveResult`` or a ``StackResult``, by the
    names an index reads them by."""
    return {"phi": solved.phi, "psi": solved.psi, "psistar": solved.psi_star,
            "sj": solved.sojourn.average, "var": solved.sojourn.variance}


def _evaluate_index(expr, chain: Chain, vectors: Dict[str, np.ndarray]):
    """Values and errors at every point, from ``(points, n)`` state vectors
    and the step arcs of ``chain``."""
    errors: List[Exception] = []
    # inf * 0, inf - inf and x / 0 give nan or inf, as Python floats do,
    # without a numpy warning (points past a failure are evaluated too)
    with np.errstate(all="ignore"):
        values, failure = _evaluate_stack(expr, chain, vectors, errors)
    return values, [errors[c - 1] if c else None for c in failure.tolist()]


def _zero_division_message() -> str:
    """The message of the ``ZeroDivisionError`` that Python's float division
    raises (it differs between versions)."""
    try:
        return str(1.0 / 0.0)
    except ZeroDivisionError as exc:
        return str(exc)


def _evaluate_stack(expr, chain: Chain, vectors: Dict[str, np.ndarray],
                    errors: List[Exception]) -> Tuple[np.ndarray, np.ndarray]:
    """Values and failure codes (0: defined, k: ``errors[k - 1]``); a point
    keeps the first failure in the order Python evaluates the expression,
    left operand before right, which is the order of ``fold``."""
    points = chain.probs.shape[0]
    defined = np.zeros(points, dtype=np.intp)

    def failing(error: Exception) -> int:
        errors.append(error)
        return len(errors)

    def visit(expr, operands):
        tag = expr[0]
        if tag == "num":
            return np.full(points, float(expr[1])), defined
        if tag == "neg":
            (values, failure), = operands
            return -values, failure
        if tag == "bin":
            op = expr[1]
            (lhs, lhs_failure), (rhs, rhs_failure) = operands
            failure = np.where(lhs_failure != 0, lhs_failure, rhs_failure)
            if op == "+":
                return lhs + rhs, failure
            if op == "-":
                return lhs - rhs, failure
            if op == "*":
                return lhs * rhs, failure
            if op == "/":
                by_zero = (rhs == 0.0) & (failure == 0)
                if by_zero.any():
                    failure = np.where(by_zero, failing(ZeroDivisionError(_zero_division_message())), failure)
                return lhs / rhs, failure
            raise ValueError("bad operator %r" % op)
        if tag == "vec":
            which, i = expr[1], expr[2] - 1
            if not 0 <= i < chain.size:
                return np.zeros(points), np.full(points, failing(ValueError("state index %d out of range" % (i + 1))))
            return vectors[which][:, i], defined
        if tag == "steprob":
            parts = Multiset.from_iterable(expr[1])
            taken = np.array([parts.issubset(label) for label in chain.labels], dtype=bool)[chain.label_ids]
            # each state's matching arcs, added in arc order
            here = np.zeros((points, chain.size))
            np.add.at(here, (slice(None), chain.sources[taken]), chain.probs[:, taken])
            phi = vectors["phi"]
            terms = np.where(phi == 0.0, 0.0, phi * here)
            total = np.zeros(points)
            for i in range(chain.size):
                total = total + terms[:, i]
            return total, defined
        raise ValueError("bad index expression %r" % (tag,))

    return fold(expr, visit, _index_operands)


def _index_operands(expr) -> tuple:
    """The operands of an index node, left to right."""
    return expr[1:] if expr[0] == "neg" else expr[2:] if expr[0] == "bin" else ()
