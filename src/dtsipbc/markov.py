"""Sojourn statistics, embedded and full chains, stationary and transient solving.

The semi-Markov view of a transition system: tangible states hold for a
geometrically distributed number of ticks, vanishing states take zero time.
The embedded chain abstracts self-loops (zero diagonal); the full chain keeps
transition probabilities verbatim.  Both stationary vectors are computed by a
direct linear solve on the unique closed communication class, refined with
compensated residuals (Stewart, *Introduction to the Numerical Solution of
Markov Chains*, 1994), with power iteration retained as an independent
oracle.

A chain holds its arcs once, as row-ordered arrays, with probabilities at
one or many points of a parameter grid, and one matrix per point.  The
solver works on all points at once (``solve_stack``): the communication
classes, the closed class and the period are computed once per support,
the linear algebra for all points at once, and every check still runs at
every point.  ``solve_chain`` is the one-point case, and gives the
bits that a per-matrix computation gives: each row is reduced, and each
system solved, exactly as it would be on its own.

Performance indices are evaluated the same way: one walk of the index tree
over a stack of solutions (``evaluate_index_stack``), of which
``evaluate_index`` is the one-point case.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .expr import Multiset, fold
from .opsem import TransitionSystem

__all__ = [
    "AnalysisError",
    "Chain",
    "SojournStats",
    "StationaryResult",
    "SolveResult",
    "StackResult",
    "sojourn_stats",
    "dtmc_tpm",
    "edtmc_tpm",
    "communication_classes",
    "steady_state",
    "power_iteration",
    "transient",
    "solve_chain",
    "solve_stack",
    "trace_prob",
    "reward_probability",
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
    ``probs[p, k]`` is its probability at point ``p``.  ``pm`` holds the
    ``(points, n, n)`` one-step matrices summed from them."""

    keys: List[str]
    tangible: List[bool]
    labels: List[Multiset]  # multisets of multiaction parts
    indptr: np.ndarray
    label_ids: np.ndarray
    targets: np.ndarray
    probs: np.ndarray
    initial: int = 0
    pm: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # parallel arcs are added in arc order
        self.pm = np.zeros((self.probs.shape[0], self.size, self.size))
        np.add.at(self.pm, (slice(None), self.sources, self.targets), self.probs)

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


@dataclass
class SojournStats:
    average: np.ndarray  # zero at vanishing states, +inf at absorbing tangible ones
    variance: np.ndarray
    loop_factor: np.ndarray  # self-loop abstraction factor


def _off_diagonal_sums(m: np.ndarray) -> np.ndarray:
    """Row sums of a ``(points, k, k)`` stack without the diagonal.

    Summing only the off-diagonal entries avoids the cancellation of
    ``1 - m[i, i]`` when the self-loop dominates.  Each row's k - 1 entries
    are gathered into one contiguous row, so numpy sums them exactly as it
    sums ``np.delete(row, i)``.  In row-major order the diagonal entries are
    every (k + 1)-th, so the gather is one strided copy.
    """
    points, k = m.shape[0], m.shape[-1]
    flat = np.ascontiguousarray(m).reshape(points, k * k)[:, 1:]
    return flat.reshape(points, k - 1, k + 1)[:, :, :-1].reshape(points, k, k - 1).sum(axis=-1)


def _sojourn(pm: np.ndarray, tangible: Sequence[bool]) -> Tuple[SojournStats, np.ndarray]:
    """Sojourn statistics of a stack, and the exit mass of every state."""
    p = np.diagonal(pm, axis1=1, axis2=2)
    leave = _off_diagonal_sums(pm)
    absorbing = leave == 0.0
    tangible = np.asarray(tangible, dtype=bool)
    # Python's float power, as in the scalar formula p / leave**2: it is not
    # always the correctly rounded square that leave * leave would give
    squares = np.array([v**2 for v in leave.ravel().tolist()]).reshape(leave.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        inverse = 1.0 / leave
        # a square that underflows gives an infinite variance, quietly
        variance = np.where(absorbing, math.inf, p / squares)
    stats = SojournStats(
        np.where(tangible, inverse, 0.0),
        np.where(tangible, variance, 0.0),
        np.where(p > 0, inverse, 1.0),
    )
    return stats, leave


def _embedded(pm: np.ndarray, leave: np.ndarray) -> np.ndarray:
    """Self-loop abstracted matrices: zero diagonal, absorbing rows zero."""
    live = (leave != 0.0)[..., None]
    out = np.zeros_like(pm)
    np.divide(pm, leave[..., None], out=out, where=live)
    k = pm.shape[-1]
    out[:, np.arange(k), np.arange(k)] = 0.0
    # rescale away the division noise so rows sum to one exactly enough
    np.divide(out, out.sum(axis=-1, keepdims=True), out=out, where=live)
    return out


def sojourn_stats(chain: Chain) -> SojournStats:
    stats, _ = _sojourn(chain.pm[:1], chain.tangible)
    return SojournStats(stats.average[0], stats.variance[0], stats.loop_factor[0])


def dtmc_tpm(chain: Chain) -> np.ndarray:
    return chain.pm[0].copy()


def edtmc_tpm(chain: Chain) -> np.ndarray:
    """Self-loop abstracted one-step matrix: zero diagonal, absorbing rows zero."""
    pm = chain.pm[:1]
    return _embedded(pm, _off_diagonal_sums(pm))[0]


# ---------------------------------------------------------------------------
# Communication structure
# ---------------------------------------------------------------------------


def _adjacency(tpm: np.ndarray) -> List[List[int]]:
    """Successors of every state, in column order."""
    rows, cols = np.nonzero(tpm > 0)
    bounds = np.searchsorted(rows, np.arange(tpm.shape[0] + 1)).tolist()
    cols = cols.tolist()
    return [cols[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def communication_classes(tpm: np.ndarray) -> Tuple[List[List[int]], List[List[int]]]:
    """Strongly connected components and the closed ones among them."""
    return _classes(_adjacency(tpm))


def _classes(adjacency: List[List[int]]) -> Tuple[List[List[int]], List[List[int]]]:
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
    return abs(g) if g else 1


@dataclass
class StationaryResult:
    pmf: np.ndarray
    closed_class: List[int]
    periodic: bool  # stationary distribution exists but is not limiting

    @property
    def limiting(self) -> bool:
        return not self.periodic


def steady_state(tpm: np.ndarray, residual_tol: float = 1e-10) -> StationaryResult:
    """Stationary row vector of a chain with a single closed communication class.

    Transient states get probability zero.  Chains whose closed class is
    periodic keep their unique stationary vector but are flagged as having no
    limiting distribution.  Several closed classes raise, carrying the class
    decomposition.
    """
    pmf, comp, periodic, errors = _stationary_stack(tpm[None], residual_tol)
    if errors[0] is not None:
        raise errors[0]
    return StationaryResult(pmf[0], comp, periodic)


def _stationary_stack(
    tpm: np.ndarray, residual_tol: float
) -> Tuple[np.ndarray, List[int], bool, List[Optional[AnalysisError]]]:
    """``steady_state`` of every matrix of a stack that shares one support:
    the stationary vectors, the closed class, whether it is periodic, and
    the error ``steady_state`` would raise at each point."""
    points, n = tpm.shape[:2]
    pmf = np.zeros((points, n))
    adjacency = _adjacency(tpm[0])
    _, closed = _classes(adjacency)
    if len(closed) != 1:
        error = AnalysisError(
            "chain has %d closed communication classes; expected one" % len(closed),
            closed_classes=closed,
        )
        return pmf, [], False, [error] * points
    comp = closed[0]
    errors: List[Optional[AnalysisError]] = [None] * points
    if len(comp) == 1 and not adjacency[comp[0]]:
        # absorbing row of an embedded chain
        pmf[:, comp[0]] = 1.0
        return pmf, comp, False, errors
    # a closed class of consecutive states is a slice: its matrices are a
    # view, which _stationary_on_class copies once; a gather here would put
    # a second (points, k, k) copy on a sweep's memory peak
    span = slice(comp[0], comp[-1] + 1)
    consecutive = span.stop - span.start == len(comp)
    sub = tpm[:, span, span] if consecutive else tpm[np.ix_(np.arange(points), comp, comp)]
    row_sums = sub.sum(axis=-1)
    stochastic = np.isclose(row_sums, 1.0, atol=1e-9).all(axis=-1)
    for p in np.flatnonzero(~stochastic):
        errors[p] = AnalysisError("closed class is not stochastic (row sums %s)" % row_sums[p])
    solved = np.flatnonzero(stochastic)
    try:
        parts = [(solved, *_stationary_on_class(sub if solved.size == points else sub[solved], residual_tol))]
    except np.linalg.LinAlgError:
        # one singular system fails the whole stack: solve each point alone
        parts = []
        for p in solved.tolist():
            try:
                parts.append(([p], *_stationary_on_class(sub[[p]], residual_tol)))
            except np.linalg.LinAlgError:
                errors[p] = AnalysisError("stationary solve failed: singular matrix")
    for group, x, residual in parts:
        for p, r in zip(group, residual.tolist()):
            if r > residual_tol:
                errors[p] = AnalysisError("stationary solve residual %.2e exceeds %.2e" % (r, residual_tol))
        pmf[(group, span) if consecutive else np.ix_(group, comp)] = x
    return pmf, comp, _class_period(adjacency, comp) > 1, errors


def _compensated_residual(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """b - a x, each row summed exactly (the products round as scalar ones
    would, and ``math.fsum`` is exact).  Rows are listed one at a time, so
    that no k-by-k list of Python floats is ever held."""
    return np.asarray([bi - math.fsum(row.tolist()) for bi, row in zip(b.tolist(), a * x)])


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve every system of a stack; each gets the bits of its own solve."""
    return np.linalg.solve(a, b[..., None])[..., 0]


def _max_residual(x: np.ndarray, gen: np.ndarray) -> np.ndarray:
    """max |x gen| at every point."""
    return np.max(np.abs((x[:, None, :] @ gen)[:, 0, :]), axis=-1)


def _stationary_on_class(sub: np.ndarray, residual_tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """LU solve of x(P - I) = 0, x summing to one, on one closed class, for
    a stack of matrices.

    The generator diagonal is assembled from the off-diagonal row masses so
    that nothing cancels when self-loops dominate, and iterative refinement
    with compensated residuals recovers the forward accuracy that a single
    LU pass loses on stiff chains (parameters close to 0 or 1).  Each point
    keeps its best of up to five rounds and leaves the loop once it
    converges.
    """
    points, k = sub.shape[:2]
    diag = np.arange(k)
    gen = sub.copy()
    gen[:, diag, diag] = -_off_diagonal_sums(gen)  # contiguous: a view would be copied again
    a = gen.transpose(0, 2, 1).copy()
    a[:, -1, :] = 1.0
    b = np.zeros((points, k))
    b[:, -1] = 1.0

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
        going = ~(res <= residual_tol * 0.01)
        live, x = live[going], x[going]
        if round_ == 4 or not live.size:
            break
        resid = np.array([_compensated_residual(a[p], b[p], xp) for p, xp in zip(live.tolist(), x)])
        x = x + _solve(a[live], resid)
    x = np.where(np.abs(best) < 1e-300, 0.0, np.clip(best, 0.0, None))
    x = x / x.sum(axis=-1, keepdims=True)
    return x, _max_residual(x, gen)


def power_iteration(
    tpm: np.ndarray,
    start: Optional[np.ndarray] = None,
    tol: float = 1e-12,
    max_iter: int = 10**6,
) -> np.ndarray:
    """Independent stationary oracle: damped iteration x(P+I)/2 from a PMF."""
    n = tpm.shape[0]
    x = np.full(n, 1.0 / n) if start is None else start.astype(float)
    half = 0.5 * (tpm + np.eye(n))
    # rows of an embedded chain may be zero at absorbing states; patch them to
    # self-loops so the damped matrix stays stochastic
    for i in range(n):
        if tpm[i].sum() == 0:
            half[i, i] = 1.0
    for _ in range(max_iter):
        nxt = x @ half
        if np.max(np.abs(nxt - x)) < tol:
            return nxt
        x = nxt
    return x


def transient(tpm: np.ndarray, steps: int, start: Optional[np.ndarray] = None, initial: int = 0) -> np.ndarray:
    """k-step distribution; the zero-step vector is the point mass at start."""
    n = tpm.shape[0]
    x = np.zeros(n)
    if start is None:
        x[initial] = 1.0
    else:
        x = start.astype(float)
    for _ in range(steps):
        x = x @ tpm
    return x


# ---------------------------------------------------------------------------
# Semi-Markov solution
# ---------------------------------------------------------------------------


# the largest disagreement between the two steady-state routes that is
# taken for rounding rather than a solver bug
_CROSS_CHECK_TOL = 1e-10


@dataclass
class SolveResult:
    chain: Chain
    sojourn: SojournStats
    dtmc: np.ndarray
    edtmc: np.ndarray
    psi: np.ndarray  # stationary PMF of the full chain
    psi_star: np.ndarray  # stationary PMF of the embedded chain
    phi: np.ndarray  # semi-Markov steady state (zero at vanishing states)
    closed_class: List[int]
    edtmc_periodic: bool
    dtmc_periodic: bool

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
    dtmc: np.ndarray
    edtmc: np.ndarray
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
        return SolveResult(chain, sojourn, self.dtmc[p], self.edtmc[p], self.psi[p], self.psi_star[p], self.phi[p],
                           self.closed_class[p], self.edtmc_periodic[p], self.dtmc_periodic[p])


def solve_chain(chain: Chain, cross_check_tol: float = _CROSS_CHECK_TOL) -> SolveResult:
    """Stationary analysis by both routes, cross-checked.

    Route A weighs the embedded stationary vector by average sojourn times;
    route B restricts the full-chain stationary vector to tangible states.
    Their disagreement beyond ``cross_check_tol`` means a solver bug, so it
    raises instead of returning silently wrong numbers.
    """
    return _solve_stack(chain.pm[:1].copy(), chain.tangible, cross_check_tol).result(0, chain)


def solve_stack(chain: Chain) -> StackResult:
    """``solve_chain`` at every point of a chain, without raising: a point
    fails, with the same error, exactly where ``solve_chain`` would."""
    return _solve_stack(chain.pm, chain.tangible, _CROSS_CHECK_TOL)


def _support_groups(*stacks: np.ndarray) -> List[np.ndarray]:
    """The points of equal support (positive entries) in every stack."""
    points = stacks[0].shape[0]
    if points == 1:
        return [np.zeros(1, dtype=np.intp)]
    support = np.packbits(np.concatenate([m.reshape(points, -1) > 0 for m in stacks], axis=1), axis=1)
    groups: Dict[bytes, List[int]] = {}
    for p, key in enumerate(support):
        groups.setdefault(key.tobytes(), []).append(p)
    return [np.array(group, dtype=np.intp) for group in groups.values()]


def _solve_stack(pm: np.ndarray, tangible: Sequence[bool], cross_check_tol: float) -> StackResult:
    points, n = pm.shape[:2]
    stats, leave = _sojourn(pm, tangible)
    emb = _embedded(pm, leave)
    out = StackResult(stats, pm, emb, np.zeros((points, n)), np.zeros((points, n)), np.zeros((points, n)),
                      [[]] * points, [False] * points, [False] * points, [None] * points)
    groups = _support_groups(pm, emb)
    for group in groups:
        take = group if len(groups) > 1 else slice(None)  # one group: views, no copies
        psi, psi_star, phi, comp, emb_periodic, full_periodic, errors = _solve_group(
            pm[take], emb[take], stats.average[take], tangible, cross_check_tol
        )
        out.psi[take], out.psi_star[take], out.phi[take] = psi, psi_star, phi
        for k, p in enumerate(group.tolist()):
            out.closed_class[p] = comp
            out.edtmc_periodic[p] = emb_periodic
            out.dtmc_periodic[p] = full_periodic
            out.errors[p] = errors[k]
    return out


def _solve_group(pm: np.ndarray, emb: np.ndarray, average: np.ndarray, tangible: Sequence[bool],
                 cross_check_tol: float):
    """Both routes on points that share one support."""
    points, n = pm.shape[:2]
    psi_star, comp, emb_periodic, emb_errors = _stationary_stack(emb, 1e-10)
    psi, full_comp, full_periodic, full_errors = _stationary_stack(pm, 1e-10)
    errors = [e or f for e, f in zip(emb_errors, full_errors)]

    def fail(where: np.ndarray, message: str) -> None:
        for p in np.flatnonzero(where):
            errors[p] = errors[p] or AnalysisError(message)

    if full_comp != comp:
        fail(np.ones(points, dtype=bool), "embedded and full chains disagree on the closed class")

    phi = np.zeros((points, n))
    if comp:
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
    for p in np.flatnonzero(gap > cross_check_tol):
        errors[p] = errors[p] or AnalysisError("steady-state routes disagree by %.2e" % gap[p])
    return psi, psi_star, phi, comp, emb_periodic, full_periodic, errors


# ---------------------------------------------------------------------------
# Step traces and performance indices
# ---------------------------------------------------------------------------


def trace_prob(chain: Chain, start: int, labels: Sequence[Multiset]) -> float:
    """Probability to execute a sequence of step labels from a state, summed
    over all matching step paths."""
    if not labels:
        return 1.0
    head, rest = labels[0], labels[1:]
    arcs = slice(chain.indptr[start], chain.indptr[start + 1])
    total = 0.0
    for k, prob, target in zip(chain.label_ids[arcs].tolist(), chain.probs[0, arcs].tolist(),
                                chain.targets[arcs].tolist()):
        if chain.labels[k] == head:
            total += prob * trace_prob(chain, target, rest)
    return total


def reward_probability(phi: np.ndarray, rewards: Sequence[float]) -> float:
    if any(not 0.0 <= r <= 1.0 for r in rewards):
        raise ValueError("rewards must lie in [0;1]")
    return float(np.dot(phi, np.asarray(rewards, dtype=float)))


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
