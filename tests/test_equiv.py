"""Bisimulation refinement, equivalence pairs, quotients, preservation laws."""

import itertools
import math
import sys

import numpy as np
import pytest

from dtsipbc.equiv import (
    Partition,
    bisim_equivalent,
    largest_autobisim,
    quotient,
    union_ts,
)
from dtsipbc.expr import Act, Action, Activity, Multiset, activities_of
from dtsipbc.markov import Chain, solve_chain
from dtsipbc.models import load_model
from dtsipbc.netsem import box_of, build_rg
from dtsipbc.opsem import _remap_leaves, build_ts, ts_isomorphic
from dtsipbc.parser import parse_model, parse_static

import oracles
from oracles import trace_prob
from conftest import (bundled_roots, fast_ts, instantiate, make_rng, random_regular_text, shared_memory_order,
                      shm_text, ts_of)


def abstract_block_order(ts, part):
    """Quotient blocks in the conventional order (initial, idle, requested,
    granted, both-requested, granted-plus-waiting)."""
    order = shared_memory_order(ts, "{r}", "{r}", "{d}", "{d}")
    reference_blocks = [[0], [1], [2, 3], [4, 6], [5], [7, 8]]
    out = []
    for blk in reference_blocks:
        mine = {part.block_of[order[i]] for i in blk}
        assert len(mine) == 1, "expected the reference block to be one block here"
        out.append(mine.pop())
    assert sorted(out) == list(range(len(part.blocks)))
    return out


def pm_a(chain, state, label, targets):
    """Aggregate probability of the arcs of ``state`` with the multiaction
    part ``label`` into ``targets``, read off the chain's arc arrays."""
    arcs = range(chain.indptr[state], chain.indptr[state + 1])
    return sum(chain.probs[0, k] for k in arcs
               if chain.targets[k] in targets and chain.labels[chain.label_ids[k]] == label)


class TestPmA:
    def test_empty_label_is_the_self_loop(self):
        chain = Chain.from_ts(ts_of("choice_stoch"))
        assert pm_a(chain, 0, Multiset(), [0]) == pytest.approx(chain.matrices()[0, 0, 0])

    def test_split_choice_aggregates(self):
        chain = Chain.from_ts(build_ts(parse_static("({a},1/3)[]({a},1/3)")))
        label = Multiset.of(Multiset.of(Action("a")))
        assert pm_a(chain, 0, label, [1]) == pytest.approx(0.5, abs=1e-12)

    def test_vanishing_state_has_no_empty_step(self):
        chain = Chain.from_ts(ts_of("choice_imm"))
        assert pm_a(chain, 0, Multiset(), range(chain.size)) == 0.0

    def test_sums_to_move_prob(self):
        chain = Chain.from_ts(ts_of("shared_memory"))
        pm = chain.matrices()[0]
        for i in range(chain.size):
            for j in range(chain.size):
                total = sum(pm_a(chain, i, label, [j]) for label in chain.labels)
                assert total == pytest.approx(pm[i, j], abs=1e-12)


class TestRefinement:
    def test_symmetric_branches_lump(self):
        part = largest_autobisim(ts_of("qts_f"))
        assert part.blocks == [[0], [1], [2], [3, 4]]

    def test_distinct_signatures_stay_separate(self):
        part = largest_autobisim(ts_of("ts_example"))
        assert part.blocks == [[0], [1], [2], [3], [4]]

    def test_abstract_shared_memory_blocks(self):
        ts = ts_of("shared_memory_abstract")
        part = largest_autobisim(ts)
        assert len(part.blocks) == 6
        order = shared_memory_order(ts, "{r}", "{r}", "{d}", "{d}")
        blocks = {frozenset(b) for b in part.blocks}
        assert frozenset((order[2], order[3])) in blocks  # one request pending
        assert frozenset((order[4], order[6])) in blocks  # memory granted
        assert frozenset((order[7], order[8])) in blocks  # granted plus waiting

    def test_concrete_shared_memory_does_not_lump(self):
        part = largest_autobisim(ts_of("shared_memory"))
        assert len(part.blocks) == 9

    def test_no_block_mixes_kinds(self):
        for name in ("qts_f", "shared_memory_abstract", "ts_example"):
            ts = ts_of(name)
            part = largest_autobisim(ts)
            for block in part.blocks:
                assert len({ts.states[i].tangible for i in block}) == 1


def partition_of(blocks):
    """The partition of the given blocks, sorted as refinement sorts them."""
    blocks = sorted((sorted(b) for b in blocks if b), key=min)
    block_of = [0] * sum(len(b) for b in blocks)
    for k, block in enumerate(blocks):
        for i in block:
            block_of[i] = k
    return Partition(blocks, block_of)


def refinement_systems():
    """The bundled roots and peers, generated shm-2 to shm-5 as reachability
    graphs in both variants, 60 random terms, and the unions that checkeq
    refines."""
    systems = [build_ts(term) for _, term in bundled_roots()]
    for n in (2, 3, 5):
        for abstract in (True, False):
            systems.append(build_rg(box_of(parse_model(shm_text(n, abstract)).instantiate())))
    rng = make_rng(901)
    for _ in range(60):
        systems.append(build_ts(parse_static(random_regular_text(rng)), max_states=20_000))
    systems += [union_ts(a, b) for a, b in zip(systems[:8], systems[1:9])]
    return systems


class TestArrayRefinement:
    """Refinement and the quotient check on the chain's arrays, against the
    loops over each state's transitions and dictionaries of signatures."""

    @pytest.fixture(scope="class")
    def systems(self):
        return refinement_systems()

    @pytest.mark.parametrize("quantum", [1e-9, 1e-3, 0.0])
    def test_blocks_match_the_scalar_loop(self, systems, quantum):
        for ts in systems:
            got, want = largest_autobisim(ts, quantum), oracles.refine(ts, quantum)
            assert (got.blocks, got.block_of) == (want.blocks, want.block_of)

    def test_quotient_chain_matches_the_least_members(self, systems):
        for ts in systems:
            q = quotient(ts)
            rows, _ = oracles.quotient_arcs(ts, q.partition.blocks)
            assert oracles.arcs(q.chain()) == rows
            assert [p.hex() for _, _, p, _ in oracles.arcs(q.chain())] == [p.hex() for _, _, p, _ in rows]

    def test_rejections_match_block_by_block(self, systems):
        # coarsen, split and move states of the largest partition: the first
        # failing block and its message, or the same chain
        rng = make_rng(17)
        for ts in systems:
            blocks = largest_autobisim(ts).blocks
            for _ in range(6):
                trial = [list(b) for b in blocks]
                k, j = rng.randrange(len(trial)), rng.randrange(len(trial))
                move = rng.random()
                if move < 0.3 and k != j:
                    trial[k], trial[j] = trial[k] + trial[j], []
                elif move < 0.6 and len(trial[k]) > 1:
                    trial.append([trial[k].pop(rng.randrange(len(trial[k])))])
                elif k != j:
                    trial[j].append(trial[k].pop(rng.randrange(len(trial[k]))))
                part = partition_of(trial)
                want = oracles.quotient_failure(ts, part)
                if want is None:
                    rows, _ = oracles.quotient_arcs(ts, part.blocks)
                    assert oracles.arcs(quotient(ts, part).chain()) == rows
                else:
                    with pytest.raises(AssertionError) as got:
                        quotient(ts, part)
                    assert str(got.value) == want

    @pytest.mark.parametrize("quantum", [1e-8, 1e-6, 1e-3])
    def test_coarse_quanta_pass_their_own_check(self, systems, quantum):
        # the members of refinement's blocks agree within its own quantum
        for ts in systems:
            assert quotient(ts, quantum=quantum).partition.blocks == largest_autobisim(ts, quantum).blocks

    @pytest.mark.parametrize("quantum", [1e-320, 1e-308, math.inf, math.nan])
    def test_quantum_outside_the_normal_range_refused(self, quantum):
        ts = ts_of("shared_memory")
        for call in (largest_autobisim, lambda ts, quantum: quotient(ts, quantum=quantum)):
            with pytest.raises(ValueError, match="quantum must be 0 or a finite float"):
                call(ts, quantum)

    @pytest.mark.parametrize("quantum", [0.0, sys.float_info.min, 1e-300])
    def test_small_quanta_kept(self, quantum):
        # every probability of the chain stays finite over these quanta
        ts = ts_of("shared_memory_abstract")
        assert largest_autobisim(ts, quantum).blocks == oracles.refine(ts, quantum).blocks


class TestEquivalencePairs:
    def test_single_versus_split_choice(self):
        one = parse_static("({a},0.5)")
        two = parse_static("({a},1/3)[]({a},1/3)")
        result = bisim_equivalent(one, two)
        assert result.equivalent
        assert ts_isomorphic(build_ts(one), build_ts(two)) is None

    def test_late_versus_early_branching(self):
        model = load_model("ssbsspt_pair")
        result = bisim_equivalent(model.instantiate(), model.instantiate_peer())
        assert result.equivalent

    def test_different_labels_rejected(self):
        assert not bisim_equivalent(parse_static("({a},0.5)"), parse_static("({b},0.5)")).equivalent

    def test_different_probabilities_rejected(self):
        assert not bisim_equivalent(parse_static("({a},0.5)"), parse_static("({a},0.6)")).equivalent

    def test_isomorphic_systems_are_equivalent(self):
        # transition-system equality implies bisimulation equivalence
        e1 = parse_static("({a},0.5);({a^},0.5)")
        e2 = parse_static("(({a},0.5);({a^},0.5)) sy a")
        assert ts_isomorphic(build_ts(e1), build_ts(e2)) is not None
        assert bisim_equivalent(e1, e2).equivalent

    def test_random_terms_self_equivalent(self):
        rng = make_rng(11)
        for _ in range(10):
            e = parse_static(random_regular_text(rng))
            assert bisim_equivalent(e, e).equivalent


def _perturb_value(expr, leaf, factor):
    values = {i: v for u in activities_of(expr) for i, v in u.leaves}
    old = values[leaf]
    new = old * factor
    if old < 1.0:
        new = min(0.95, max(0.02, new))
        if abs(new - old) < 2e-3:
            new = old + 2e-3 if old < 0.5 else old - 2e-3
    return _remap_leaves(expr, {leaf: new})


def _rename_leaf_action(expr, leaf):
    def walk(node):
        if isinstance(node, Act):
            u = node.activity
            if u.num == leaf:
                first = sorted(u.part.keys())[0]
                part = (u.part - Multiset.of(first)) + Multiset.of(Action("zz"))
                return Act(Activity(part, u.immediate, u.leaves, u.num))
            return node
        from dtsipbc.expr import Cho, Ite, Par, Rel, Rst, Seq, Syn

        if isinstance(node, (Seq, Cho, Par)):
            return type(node)(walk(node.left), walk(node.right))
        if isinstance(node, Rel):
            return Rel(walk(node.child), node.func)
        if isinstance(node, Rst):
            return Rst(walk(node.child), node.action)
        if isinstance(node, Syn):
            return Syn(walk(node.child), node.action)
        if isinstance(node, Ite):
            return Ite(walk(node.init), walk(node.body), walk(node.term))
        raise TypeError(repr(node))

    return walk(expr)


class TestPerturbationRejection:
    def test_fifty_randomized_pairs(self):
        rng = make_rng(424242)
        rejected = 0
        attempts = 0
        while rejected < 50:
            attempts += 1
            assert attempts < 400, "generator keeps producing degenerate terms"
            text = random_regular_text(rng)
            expr = parse_static(text)
            ts = build_ts(expr)
            reachable = [u for t in ts.transitions for u in t.step]
            stoch_leaves = sorted({i for u in reachable if not u.immediate for i in u.content})
            all_leaves = sorted({i for u in reachable for i in u.content})
            if not all_leaves:
                continue
            if rejected % 2 == 0 and stoch_leaves:
                leaf = rng.choice(stoch_leaves)
                other = _perturb_value(expr, leaf, rng.choice([0.7, 1.4]))
            else:
                leaf = rng.choice(all_leaves)
                other = _rename_leaf_action(expr, leaf)
            assert not bisim_equivalent(expr, other).equivalent, (
                "perturbation of leaf %d went undetected in %s" % (leaf, text)
            )
            rejected += 1


class TestQuotient:
    def test_symmetric_branch_quotient_chain(self):
        chi, theta = 0.37, 0.61
        ts = ts_of("qts_f", chi=chi, theta=theta)
        q = quotient(ts)
        result = solve_chain(q.chain())
        assert np.allclose(result.sojourn.average, [2.0, 1 / chi, 0.0, 1 / theta], atol=1e-12)
        # the two branch targets lump, so the decision step now has one arc
        assert np.allclose(
            result.phi, [0, theta / (theta + chi), 0, chi / (theta + chi)], atol=1e-12
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_abstract_quotient_closed_forms(self, seed):
        rng = make_rng(7000 + seed)
        rho = rng.uniform(0.1, 0.9)
        ts = fast_ts("shared_memory_abstract", rho=rho)
        part = largest_autobisim(ts)
        q = quotient(ts, part)
        order = abstract_block_order(ts, part)
        result = solve_chain(q.chain())

        d2 = 1 + rho - rho**2
        sj = [1 / rho**3, 1 / (rho * (2 - rho)), 0, 1 / (rho * d2), 0, 1 / rho**2]
        assert np.allclose(result.sojourn.average[order], sj, rtol=1e-10, atol=1e-10)

        var = [
            (1 - rho**3) / rho**6,
            (1 - rho) ** 2 / (rho**2 * (2 - rho) ** 2),
            0,
            (1 - rho) ** 2 * (1 + rho) / (rho**2 * d2**2),
            0,
            (1 - rho**2) / rho**4,
        ]
        assert np.allclose(result.sojourn.variance[order], var, rtol=1e-9, atol=1e-9)

        p_star = np.array(
            [
                [0, 1, 0, 0, 0, 0],
                [0, 0, 2 * (1 - rho) / (2 - rho), 0, rho / (2 - rho), 0],
                [0, 0, 0, 1, 0, 0],
                [0, rho * (1 - rho) / d2, rho**2 / d2, 0, 0, (1 - rho**2) / d2],
                [0, 0, 0, 0, 0, 1],
                [0, 0, 1, 0, 0, 0],
            ]
        )
        assert np.allclose(result.edtmc[np.ix_(order, order)], p_star, atol=1e-10)

        den_star = 6 + 3 * rho - 9 * rho**2 + 2 * rho**3
        psi_star = np.array(
            [
                0,
                rho * (2 - 3 * rho + rho**2),
                2 + rho - 3 * rho**2 + rho**3,
                2 + rho - 3 * rho**2 + rho**3,
                rho**2 * (1 - rho),
                2 - rho - rho**2,
            ]
        ) / den_star
        assert np.allclose(result.psi_star[order], psi_star, atol=1e-10)

        den = 2 + rho - rho**2 - rho**3
        phi = np.array([0, rho**2 * (1 - rho), 0, rho * (2 - rho), 0, 2 - rho - rho**2]) / den
        assert np.allclose(result.phi[order], phi, atol=1e-10)

    def test_non_autobisimulation_rejected(self):
        ts = ts_of("ts_example")
        n = len(ts.states)
        bad = Partition([[i for i in range(n)]], [0] * n)
        with pytest.raises(AssertionError):
            quotient(ts, bad)


class TestPreservation:
    ERGODIC = ("ts_example", "qts_f", "shared_memory", "shared_memory_abstract")

    @pytest.mark.parametrize("name", ERGODIC)
    def test_stationary_probability_lumps(self, name):
        ts = ts_of(name)
        q = quotient(ts)
        full = solve_chain(Chain.from_ts(ts))
        reduced = solve_chain(q.chain())
        for k, block in enumerate(q.partition.blocks):
            assert reduced.phi[k] == pytest.approx(sum(full.phi[i] for i in block), abs=1e-10)

    @pytest.mark.parametrize("name", ERGODIC)
    def test_traces_lump(self, name):
        ts = ts_of(name)
        q = quotient(ts)
        full = solve_chain(Chain.from_ts(ts))
        reduced = solve_chain(q.chain())
        chain = Chain.from_ts(ts)
        qchain = q.chain()
        labels = sorted({qchain.labels[k] for k in qchain.label_ids.tolist()})
        sequences = [(lbl,) for lbl in labels]
        sequences += list(itertools.product(labels[:4], repeat=2))
        sequences += list(itertools.product(labels[:3], repeat=3))
        for sigma in sequences:
            for k, block in enumerate(q.partition.blocks):
                lhs = sum(full.phi[i] * trace_prob(chain, i, sigma) for i in block)
                rhs = reduced.phi[k] * trace_prob(qchain, k, sigma)
                assert lhs == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize("name", ERGODIC)
    def test_sojourn_lumps_blockwise(self, name):
        ts = ts_of(name)
        q = quotient(ts)
        full_stats = solve_chain(Chain.from_ts(ts)).sojourn
        red_stats = solve_chain(q.chain()).sojourn
        for k, block in enumerate(q.partition.blocks):
            for i in block:
                assert red_stats.average[k] == pytest.approx(full_stats.average[i], rel=1e-12)
                assert red_stats.variance[k] == pytest.approx(full_stats.variance[i], rel=1e-12)

    def test_cross_expression_preservation(self):
        model = load_model("ssbsspt_pair")
        e1, e2 = model.instantiate(), model.instantiate_peer()
        ts1, ts2 = build_ts(e1), build_ts(e2)
        result = bisim_equivalent(e1, e2)
        assert result.equivalent
        part = result.partition
        both = result.union
        phi1 = solve_chain(Chain.from_ts(ts1)).phi
        phi2 = solve_chain(Chain.from_ts(ts2)).phi
        offset = len(ts1.states)

        c_label = Multiset.of(Multiset.of(Action("c")))
        chain1, chain2 = Chain.from_ts(ts1), Chain.from_ts(ts2)
        for block in part.blocks:
            left = [i for i in block if i < offset]
            right = [i - offset for i in block if i >= offset]
            assert sum(phi1[i] for i in left) == pytest.approx(
                sum(phi2[j] for j in right), abs=1e-10
            )
            lhs = sum(phi1[i] * trace_prob(chain1, i, [c_label]) for i in left)
            rhs = sum(phi2[j] * trace_prob(chain2, j, [c_label]) for j in right)
            assert lhs == pytest.approx(rhs, abs=1e-10)

        # the block of the branching states has mean two and variance two
        branching = next(
            b for b in part.blocks
            if any(i < offset and trace_prob(chain1, i, [c_label]) > 0 for i in b)
        )
        stats1, stats2 = solve_chain(chain1).sojourn, solve_chain(chain2).sojourn
        for i in branching:
            stats, idx = (stats1, i) if i < offset else (stats2, i - offset)
            assert stats.average[idx] == pytest.approx(2.0, abs=1e-12)
            assert stats.variance[idx] == pytest.approx(2.0, abs=1e-12)
