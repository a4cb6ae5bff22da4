"""Sojourn statistics, embedded and full chains, stationary and transient solving.

The semi-Markov view of a transition system: tangible states hold for a
geometrically distributed number of ticks, vanishing states take zero time.
The embedded chain abstracts self-loops (zero diagonal); the full chain keeps
transition probabilities verbatim.  Both stationary vectors are computed by a
direct linear solve on the unique closed communication class, with power
iteration retained as an independent oracle.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .expr import Multiset
from .opsem import TransitionSystem

__all__ = [
    "AnalysisError",
    "Chain",
    "StepArc",
    "SojournStats",
    "StationaryResult",
    "SolveResult",
    "sojourn_stats",
    "dtmc_tpm",
    "edtmc_tpm",
    "communication_classes",
    "steady_state",
    "power_iteration",
    "transient",
    "solve_chain",
    "trace_prob",
    "step_probability",
    "reward_probability",
    "evaluate_index",
]



class AnalysisError(Exception):
    """Raised when a chain has no usable stationary regime."""

    def __init__(self, message: str, closed_classes: Optional[List[List[int]]] = None):
        super().__init__(message)
        self.closed_classes = closed_classes or []


@dataclass(frozen=True)
class StepArc:
    label: Multiset  # multiset of multiaction parts
    prob: float
    target: int


@dataclass
class Chain:
    """State-labeled chain with step arcs; the common input of every solver."""

    keys: List[str]
    tangible: List[bool]
    pm: np.ndarray
    arcs: List[List[StepArc]]
    initial: int = 0

    @staticmethod
    def from_ts(ts: TransitionSystem) -> "Chain":
        n = len(ts.states)
        pm = np.zeros((n, n))
        arcs: List[List[StepArc]] = [[] for _ in range(n)]
        labels = ts.labels()
        for i in range(n):
            for t, k in zip(ts.outgoing(i), ts.label_ids(i)):
                pm[i, t.target] += t.prob
                arcs[i].append(StepArc(labels[k], t.prob, t.target))
        return Chain([s.key for s in ts.states], [s.tangible for s in ts.states], pm, arcs, ts.initial)

    @property
    def size(self) -> int:
        return len(self.keys)


@dataclass
class SojournStats:
    average: np.ndarray  # zero at vanishing states, +inf at absorbing tangible ones
    variance: np.ndarray
    loop_factor: np.ndarray  # self-loop abstraction factor


def _exit_mass(chain: Chain, i: int) -> float:
    # sum only the off-diagonal entries: both 1 - pm[i, i] and row.sum() minus
    # the diagonal cancel catastrophically when the self-loop dominates
    return float(np.delete(chain.pm[i], i).sum())


def sojourn_stats(chain: Chain) -> SojournStats:
    n = chain.size
    avg = np.zeros(n)
    var = np.zeros(n)
    sl = np.ones(n)
    for i in range(n):
        p = chain.pm[i, i]
        leave = _exit_mass(chain, i)
        if p > 0:
            sl[i] = math.inf if leave == 0.0 else 1.0 / leave
        if chain.tangible[i]:
            if leave == 0.0:
                avg[i] = math.inf
                var[i] = math.inf
            else:
                avg[i] = 1.0 / leave
                var[i] = p / leave**2
    return SojournStats(avg, var, sl)


def dtmc_tpm(chain: Chain) -> np.ndarray:
    return chain.pm.copy()


def edtmc_tpm(chain: Chain) -> np.ndarray:
    """Self-loop abstracted one-step matrix: zero diagonal, absorbing rows zero."""
    n = chain.size
    out = np.zeros((n, n))
    for i in range(n):
        leave = _exit_mass(chain, i)
        if leave == 0.0:
            continue
        out[i] = chain.pm[i] / leave
        out[i, i] = 0.0
        # rescale away the division noise so rows sum to one exactly enough
        out[i] /= out[i].sum()
    return out


# ---------------------------------------------------------------------------
# Communication structure
# ---------------------------------------------------------------------------


def communication_classes(tpm: np.ndarray) -> Tuple[List[List[int]], List[List[int]]]:
    """Strongly connected components and the closed ones among them."""
    n = tpm.shape[0]
    adjacency = [np.nonzero(tpm[i] > 0)[0].tolist() for i in range(n)]

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


def _class_period(tpm: np.ndarray, comp: List[int]) -> int:
    members = set(comp)
    root = comp[0]
    level = {root: 0}
    queue = deque([root])
    g = 0
    while queue:
        v = queue.popleft()
        for w in np.nonzero(tpm[v] > 0)[0]:
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
    n = tpm.shape[0]
    _, closed = communication_classes(tpm)
    if len(closed) != 1:
        raise AnalysisError(
            "chain has %d closed communication classes; expected one" % len(closed),
            closed_classes=closed,
        )
    comp = closed[0]
    pmf = np.zeros(n)
    if len(comp) == 1 and tpm[comp[0]].sum() == 0:
        # absorbing row of an embedded chain
        pmf[comp[0]] = 1.0
        return StationaryResult(pmf, comp, periodic=False)
    sub = tpm[np.ix_(comp, comp)]
    row_sums = sub.sum(axis=1)
    if not np.allclose(row_sums, 1.0, atol=1e-9):
        raise AnalysisError("closed class is not stochastic (row sums %s)" % row_sums)
    x, residual = _stationary_on_class(sub, residual_tol)
    if residual > residual_tol:
        raise AnalysisError("stationary solve residual %.2e exceeds %.2e" % (residual, residual_tol))
    pmf[comp] = x
    period = _class_period(tpm, comp)
    return StationaryResult(pmf, comp, periodic=period > 1)


def _compensated_residual(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """b - a x, each row summed exactly (the products round as scalar ones
    would, and ``math.fsum`` is exact).  Rows are listed one at a time, so
    that no k-by-k list of Python floats is ever held."""
    return np.asarray([bi - math.fsum(row.tolist()) for bi, row in zip(b.tolist(), a * x)])


def _stationary_on_class(sub: np.ndarray, residual_tol: float) -> Tuple[np.ndarray, float]:
    """LU solve of x(P - I) = 0, x summing to one, on one closed class.

    The generator diagonal is assembled from the off-diagonal row masses so
    that nothing cancels when self-loops dominate, and iterative refinement
    with compensated residuals recovers the forward accuracy that a single
    LU pass loses on stiff chains (parameters close to 0 or 1).
    """
    k = sub.shape[0]
    gen = sub.copy()
    for i in range(k):
        gen[i, i] = -float(np.delete(sub[i], i).sum())
    a = gen.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0

    x = np.linalg.solve(a, b)
    best = None
    for _ in range(5):
        x = x / x.sum()
        resid = _compensated_residual(a, b, x)
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


def solve_chain(chain: Chain, cross_check_tol: float = 1e-10) -> SolveResult:
    """Stationary analysis by both routes, cross-checked.

    Route A weighs the embedded stationary vector by average sojourn times;
    route B restricts the full-chain stationary vector to tangible states.
    Their disagreement beyond ``cross_check_tol`` means a solver bug, so it
    raises instead of returning silently wrong numbers.
    """
    stats = sojourn_stats(chain)
    p_full = dtmc_tpm(chain)
    p_emb = edtmc_tpm(chain)

    emb = steady_state(p_emb)
    full = steady_state(p_full)

    comp = emb.closed_class
    if full.closed_class != comp:
        raise AnalysisError("embedded and full chains disagree on the closed class")

    n = chain.size
    phi = np.zeros(n)
    if any(math.isinf(stats.average[i]) for i in comp):
        # the closed class is one absorbing tangible state
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
    phi_b = np.array(
        [full.pmf[i] / tangible_mass if chain.tangible[i] else 0.0 for i in range(n)]
    )
    if np.max(np.abs(phi - phi_b)) > cross_check_tol:
        raise AnalysisError(
            "steady-state routes disagree by %.2e" % float(np.max(np.abs(phi - phi_b)))
        )

    return SolveResult(
        chain=chain,
        sojourn=stats,
        dtmc=p_full,
        edtmc=p_emb,
        psi=full.pmf,
        psi_star=emb.pmf,
        phi=phi,
        closed_class=comp,
        edtmc_periodic=emb.periodic,
        dtmc_periodic=full.periodic,
    )


# ---------------------------------------------------------------------------
# Step traces and performance indices
# ---------------------------------------------------------------------------


def trace_prob(chain: Chain, start: int, labels: Sequence[Multiset]) -> float:
    """Probability to execute a sequence of step labels from a state, summed
    over all matching step paths."""
    if not labels:
        return 1.0
    head, rest = labels[0], labels[1:]
    total = 0.0
    for arc in chain.arcs[start]:
        if arc.label == head:
            total += arc.prob * trace_prob(chain, arc.target, rest)
    return total


def step_probability(chain: Chain, phi: np.ndarray, parts: Multiset) -> float:
    """Steady-state probability of performing a step containing the given
    multiset of multiactions."""
    total = 0.0
    for i in range(chain.size):
        if phi[i] == 0.0:
            continue
        here = sum(arc.prob for arc in chain.arcs[i] if parts.issubset(arc.label))
        total += float(phi[i]) * here
    return float(total)


def reward_probability(phi: np.ndarray, rewards: Sequence[float]) -> float:
    if any(not 0.0 <= r <= 1.0 for r in rewards):
        raise ValueError("rewards must lie in [0;1]")
    return float(np.dot(phi, np.asarray(rewards, dtype=float)))


def evaluate_index(expr, result: SolveResult) -> float:
    """Evaluate a model-file index expression against a solved chain."""
    tag = expr[0]
    if tag == "num":
        return float(expr[1])
    if tag == "neg":
        return -evaluate_index(expr[1], result)
    if tag == "bin":
        op, lhs, rhs = expr[1], evaluate_index(expr[2], result), evaluate_index(expr[3], result)
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            return lhs / rhs
        raise ValueError("bad operator %r" % op)
    if tag == "vec":
        which, i = expr[1], expr[2] - 1
        if not 0 <= i < result.chain.size:
            raise ValueError("state index %d out of range" % (i + 1))
        vectors = {
            "phi": result.phi,
            "psi": result.psi,
            "psistar": result.psi_star,
            "sj": result.sojourn.average,
            "var": result.sojourn.variance,
        }
        return float(vectors[which][i])
    if tag == "steprob":
        parts = Multiset.from_iterable(expr[1])
        return step_probability(result.chain, result.phi, parts)
    raise ValueError("bad index expression %r" % (tag,))
