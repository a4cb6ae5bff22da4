"""Sojourn vectors, chain extraction, stationary solving, traces, indices."""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from dtsipbc import markov
from dtsipbc.equiv import quotient
from dtsipbc.expr import Action, Multiset
from dtsipbc.markov import AnalysisError, Chain, _compensated_residual, evaluate_index, solve_chain, solve_stack
from dtsipbc.models import bundled_model_names, load_model, model_text
from dtsipbc.netsem import box_of, build_rg
from dtsipbc.opsem import TransitionSystem, build_ts, step_label
from dtsipbc.parser import parse_model, parse_static

from oracles import trace_prob
from conftest import (
    INDEX_FORMS,
    bundled_roots,
    fast_ts,
    make_rng,
    random_regular_text,
    shared_memory_order,
    shm_text,
    ts_of,
)

ERGODIC_MODELS = ("ts_example", "qts_f", "shared_memory", "shared_memory_abstract")
ABSORBING_MODELS = ("choice_stoch", "choice_imm", "sync_pair")


def chain_of(name, **params):
    return Chain.from_ts(fast_ts(name, **params))


def random_params(seed):
    rng = make_rng(seed)
    return {
        "rho": rng.uniform(0.1, 0.9),
        "chi": rng.uniform(0.1, 0.9),
        "theta": rng.uniform(0.1, 0.9),
        "phi": rng.uniform(0.1, 0.9),
        "l": rng.uniform(0.3, 4.0),
        "m": rng.uniform(0.3, 4.0),
    }


class TestRunningExampleClosedForms:
    @pytest.mark.parametrize("seed", range(20))
    def test_sojourn_and_chains(self, seed):
        p = random_params(seed)
        rho, chi, theta, phiv, l, m = (p[k] for k in ("rho", "chi", "theta", "phi", "l", "m"))
        result = solve_chain(chain_of("ts_example", **p))

        assert np.allclose(result.sojourn.average, [1 / rho, 1 / chi, 0, 1 / theta, 1 / phiv], atol=1e-10)
        assert np.allclose(
            result.sojourn.variance,
            [(1 - rho) / rho**2, (1 - chi) / chi**2, 0, (1 - theta) / theta**2, (1 - phiv) / phiv**2],
            atol=1e-9,
        )

        p_star = np.array(
            [
                [0, 1, 0, 0, 0],
                [0, 0, 1, 0, 0],
                [0, 0, 0, l / (l + m), m / (l + m)],
                [0, 1, 0, 0, 0],
                [0, 1, 0, 0, 0],
            ]
        )
        assert np.allclose(result.edtmc, p_star, atol=1e-12)

        p_full = np.array(
            [
                [1 - rho, rho, 0, 0, 0],
                [0, 1 - chi, chi, 0, 0],
                [0, 0, 0, l / (l + m), m / (l + m)],
                [0, theta, 0, 1 - theta, 0],
                [0, phiv, 0, 0, 1 - phiv],
            ]
        )
        assert np.allclose(result.dtmc, p_full, atol=1e-12)

        psi_star = np.array([0, 1 / 3, 1 / 3, l / (3 * (l + m)), m / (3 * (l + m))])
        assert np.allclose(result.psi_star, psi_star, atol=1e-10)

        den_psi = theta * phiv * (1 + chi) * (l + m) + chi * (phiv * l + theta * m)
        psi = np.array([0, theta * phiv * (l + m), chi * theta * phiv * (l + m), chi * phiv * l, chi * theta * m])
        assert np.allclose(result.psi, psi / den_psi, atol=1e-10)

        den_phi = theta * phiv * (l + m) + chi * (phiv * l + theta * m)
        phi = np.array([0, theta * phiv * (l + m), 0, chi * phiv * l, chi * theta * m])
        assert np.allclose(result.phi, phi / den_phi, atol=1e-10)


class TestSharedMemoryClosedForms:
    @pytest.mark.parametrize("seed", range(20))
    def test_sojourn_and_steady_state(self, seed):
        rng = make_rng(4000 + seed)
        rho = rng.uniform(0.1, 0.9)
        ts = fast_ts("shared_memory", rho=rho)
        order = shared_memory_order(ts, "{r1}", "{r2}", "{d1}", "{d2}")
        result = solve_chain(Chain.from_ts(ts))

        sj = np.array(
            [
                1 / rho**3,
                1 / (rho * (2 - rho)),
                0,
                0,
                1 / (rho * (1 + rho - rho**2)),
                0,
                1 / (rho * (1 + rho - rho**2)),
                1 / rho**2,
                1 / rho**2,
            ]
        )
        assert np.allclose(result.sojourn.average[order], sj, rtol=1e-10, atol=1e-10)

        var = np.array(
            [
                (1 - rho**3) / rho**6,
                (1 - rho) ** 2 / (rho**2 * (2 - rho) ** 2),
                0,
                0,
                (1 - rho) ** 2 * (1 + rho) / (rho**2 * (1 + rho - rho**2) ** 2),
                0,
                (1 - rho) ** 2 * (1 + rho) / (rho**2 * (1 + rho - rho**2) ** 2),
                (1 - rho**2) / rho**4,
                (1 - rho**2) / rho**4,
            ]
        )
        assert np.allclose(result.sojourn.variance[order], var, rtol=1e-9, atol=1e-9)

        d1 = 2 - rho
        d2 = 1 + rho - rho**2
        p_star = np.array(
            [
                [0, 1, 0, 0, 0, 0, 0, 0, 0],
                [0, 0, (1 - rho) / d1, (1 - rho) / d1, 0, rho / d1, 0, 0, 0],
                [0, 0, 0, 0, 1, 0, 0, 0, 0],
                [0, 0, 0, 0, 0, 0, 1, 0, 0],
                [0, rho * (1 - rho) / d2, 0, rho**2 / d2, 0, 0, 0, (1 - rho**2) / d2, 0],
                [0, 0, 0, 0, 0, 0, 0, 0.5, 0.5],
                [0, rho * (1 - rho) / d2, rho**2 / d2, 0, 0, 0, 0, 0, (1 - rho**2) / d2],
                [0, 0, 0, 1, 0, 0, 0, 0, 0],
                [0, 0, 1, 0, 0, 0, 0, 0, 0],
            ]
        )
        got = result.edtmc[np.ix_(order, order)]
        assert np.allclose(got, p_star, atol=1e-10)

        den = 2 * (2 + rho - rho**2 - rho**3)
        phi = np.array(
            [
                0,
                2 * rho**2 * (1 - rho),
                0,
                0,
                rho * (2 - rho),
                0,
                rho * (2 - rho),
                2 - rho - rho**2,
                2 - rho - rho**2,
            ]
        ) / den
        assert np.allclose(result.phi[order], phi, atol=1e-10)


class TestStationaryRelationships:
    @pytest.mark.parametrize("name", ERGODIC_MODELS)
    def test_full_from_embedded_stationary(self, name):
        result = solve_chain(chain_of(name))
        weighted = result.psi_star * result.sojourn.loop_factor
        assert np.allclose(result.psi, weighted / weighted.sum(), atol=1e-10)

    @pytest.mark.parametrize("name", ERGODIC_MODELS)
    def test_both_smc_routes_agree(self, name):
        result = solve_chain(chain_of(name))
        tangible_mass = sum(
            result.psi[i] for i in range(result.chain.size) if result.chain.tangible[i]
        )
        route_b = np.array(
            [
                result.psi[i] / tangible_mass if result.chain.tangible[i] else 0.0
                for i in range(result.chain.size)
            ]
        )
        assert np.allclose(result.phi, route_b, atol=1e-10)

    @pytest.mark.parametrize("name", ERGODIC_MODELS + ABSORBING_MODELS)
    def test_tpm_shapes(self, name):
        result = solve_chain(chain_of(name))
        p_full = result.dtmc
        assert np.allclose(p_full.sum(axis=1), 1.0, atol=1e-12)
        p_emb = result.edtmc
        assert np.all(np.diag(p_emb) == 0.0)
        for i in range(result.chain.size):
            row = p_emb[i].sum()
            assert row == pytest.approx(1.0, abs=1e-12) or row == 0.0

    @pytest.mark.parametrize("name", ERGODIC_MODELS + ABSORBING_MODELS)
    def test_same_communication_classes(self, name):
        result = solve_chain(chain_of(name))
        full_comps, full_closed = markov._classes(markov._adjacency(result.dtmc))
        emb_comps, emb_closed = markov._classes(markov._adjacency(result.edtmc))
        strip = lambda comps: sorted(map(tuple, comps))
        assert strip(full_comps) == strip(emb_comps)
        assert strip(full_closed) == strip(emb_closed)

    def test_one_structure_pass_serves_both_routes(self):
        # the solver reads the classes from the full chain once and derives
        # the embedded successor lists from it; each route's own reference,
        # on its own matrix, must agree (solve_stack's point is solve_chain's
        # result, and it also reports the chains that have no steady state)
        chains = [chain_of(name) for name in bundled_model_names()]
        chains += [Chain.from_ts(build_rg(box_of(parse_model(shm_text(3, abstract)).instantiate())))
                   for abstract in (True, False)]
        rng = make_rng(2417)
        chains += [Chain.from_ts(build_ts(parse_static(random_regular_text(rng)), max_states=20_000))
                   for _ in range(200)]
        for chain in chains:
            solved = solve_stack(chain)
            for tpm, periodic in ((chain.matrices()[0], solved.dtmc_periodic[0]),
                                  (oracles.edtmc_tpm(chain), solved.edtmc_periodic[0])):
                closed = oracles.closed_classes(tpm)
                if len(closed) != 1:
                    assert solved.closed_class[0] == [] and not periodic
                    assert solved.errors[0].closed_classes == closed
                    continue
                assert solved.closed_class[0] == closed[0]
                assert periodic == (oracles.class_period(tpm, closed[0]) > 1)

    @pytest.mark.parametrize("name", ABSORBING_MODELS)
    def test_absorbing_models_solve_to_point_mass(self, name):
        result = solve_chain(chain_of(name))
        assert result.phi.sum() == pytest.approx(1.0)
        final = result.closed_class[0]
        assert result.phi[final] == pytest.approx(1.0)
        assert math.isinf(result.sojourn.average[final])


class TestChainExtraction:
    @pytest.mark.parametrize("label", [label for label, _ in bundled_roots()] + ["shm3-rg"])
    def test_arcs_carry_step_labels(self, label):
        if label == "shm3-rg":
            ts = build_rg(box_of(parse_model(shm_text(3)).instantiate()))
        else:
            ts = build_ts(dict(bundled_roots())[label])
        chain = Chain.from_ts(ts)
        assert oracles.arcs(chain) == [
            (t.source, step_label(t.step), t.prob, t.target) for i in range(len(ts.states)) for t in ts.outgoing(i)
        ]
        assert chain.matrices()[0].tobytes() == oracles.pm_matrix(ts).tobytes()

    @staticmethod
    def assert_reference(chain, arcs, pm):
        assert oracles.arcs(chain) == arcs
        assert chain.matrices().shape == (1,) + pm.shape and chain.matrices()[0].tobytes() == pm.tobytes()

    def test_chain_is_the_row_by_row_reference(self):
        # the arcs and matrix of every chain, from a system and from its
        # quotient, against the reference loops: the bundled roots and peers
        # and shm-3 in both variants, each as a TS and an RG; random terms;
        # and a system whose transitions are not grouped by source; and a
        # sweep's chain of five points
        systems = []
        terms = [term for _, term in bundled_roots()]
        terms += [parse_model(shm_text(3, abstract)).instantiate() for abstract in (True, False)]
        for term in terms:
            systems += [build_ts(term), build_rg(box_of(term))]
        rng = make_rng(1515)
        systems += [build_ts(parse_static(random_regular_text(rng)), max_states=20_000) for _ in range(50)]
        ts = build_ts(load_model("shared_memory").instantiate())
        shuffled = TransitionSystem(list(ts.states), ts.transitions[1::2] + ts.transitions[::2], ts.initial, ts.expr)
        assert [t.source for t in shuffled.transitions] != sorted(t.source for t in shuffled.transitions)
        systems.append(shuffled)
        for ts in systems:
            chain = Chain.from_ts(ts)
            self.assert_reference(chain, *oracles.chain_arcs(ts))
            assert (chain.keys, chain.tangible, chain.initial) == (
                [s.key for s in ts.states], [s.tangible for s in ts.states], ts.initial)
            q = quotient(ts)
            qchain = q.chain()
            self.assert_reference(qchain, *oracles.quotient_arcs(ts, q.partition.blocks))
            assert qchain.initial == q.partition.block_of[ts.initial]
        model = load_model("shared_memory_abstract")
        base = build_ts(model.instantiate())
        points = [model.leaf_values({"rho": rho}) for rho in (0.001, 0.25, 0.5, 0.75, 0.999)]
        chain = Chain.from_ts(base, np.array([list(values.values()) for values in points]))
        assert chain.matrices().shape[0] == chain.probs.shape[0] == 5
        for k, values in enumerate(points):
            ts = base.reweight(values)
            want = Chain.from_ts(ts)
            got = chain.point(k, want.keys)
            assert oracles.arcs(got) == oracles.arcs(want)
            assert got.matrices().tobytes() == want.matrices().tobytes() == chain.matrices(slice(k, k + 1)).tobytes()
            assert (got.keys, got.tangible, got.initial) == (want.keys, want.tangible, want.initial)
            self.assert_reference(got, *oracles.chain_arcs(ts))


class TestStationarySolver:
    def test_single_state(self):
        r = solve_chain(Chain.from_ts(build_ts(parse_static("Stop"))))
        assert r.psi.tolist() == r.psi_star.tolist() == [1.0]

    def test_periodicity_flags(self):
        result = solve_chain(chain_of("ts_example"))
        assert result.edtmc_periodic  # three-phase loop
        assert not result.dtmc_periodic  # self-loops break the period

    def test_multiple_closed_classes_reported(self):
        e = parse_static(
            "[({a},0.5) * ({b},0.5) * Stop][]([({c},0.5) * ({d},0.5) * Stop])"
        )
        chain = Chain.from_ts(build_ts(e))
        with pytest.raises(AnalysisError) as err:
            solve_chain(chain)
        assert len(err.value.closed_classes) == 2

    @pytest.mark.parametrize("name", ERGODIC_MODELS)
    def test_power_iteration_oracle(self, name):
        result = solve_chain(chain_of(name))
        direct = result.psi
        iterated = oracles.power_iteration(result.dtmc)
        assert np.max(np.abs(direct - iterated)) < 1e-8

    @pytest.mark.parametrize("name", ERGODIC_MODELS)
    def test_closed_class_around_a_transient_state(self, name):
        # a transient state numbered inside the closed class, which leaves
        # for the state before it: the class is not consecutive, and its
        # gathered matrix solves to the same bits
        chain = chain_of(name)
        want = solve_chain(chain)
        t = want.closed_class[0] + 1
        moved = np.arange(chain.size) + (np.arange(chain.size) >= t)
        at = chain.indptr[t]
        got = solve_chain(Chain(chain.keys[:t] + ["t"] + chain.keys[t:],
                                chain.tangible[:t] + [True] + chain.tangible[t:], chain.labels, np.concatenate([chain.indptr[:t + 1], chain.indptr[t:] + 1]),
                                np.insert(chain.label_ids, at, 0), np.insert(moved[chain.targets], at, t - 1),
                                np.insert(chain.probs, at, 1.0, axis=1)))
        assert got.closed_class == [moved[c] for c in want.closed_class]
        assert got.psi[moved].tobytes() == want.psi.tobytes() and got.psi[t] == 0.0
        assert got.dtmc_periodic == want.dtmc_periodic

    def test_power_iteration_on_periodic_embedded_chain(self):
        result = solve_chain(chain_of("ts_example"))
        direct = result.psi_star
        start = np.zeros(result.chain.size)
        start[0] = 1.0
        iterated = oracles.power_iteration(result.edtmc, start=start)
        assert np.max(np.abs(direct - iterated)) < 1e-8

    def test_compensated_residual_matches_scalar_loop(self):
        rng = np.random.default_rng(11)
        for k in (1, 2, 7, 40):
            a = rng.uniform(-1, 1, (k, k)) * 10.0 ** rng.integers(-8, 9, (k, k))
            b = rng.uniform(-1, 1, k)
            x = rng.uniform(0, 1, k)
            assert _compensated_residual(a, b, x).tobytes() == oracles.compensated_residual(a, b, x).tobytes()

    def test_residual_contract(self):
        result = solve_chain(chain_of("shared_memory", rho=0.9999))
        gen = result.dtmc - np.eye(result.chain.size)
        assert np.max(np.abs(result.psi @ gen)) <= 1e-10


class TestMatricesOnDemand:
    """Chains and solutions hold arcs and vectors; their matrices are summed
    anew from the arcs, with the bits the stored matrices had."""

    @pytest.mark.parametrize("block", [None, 40], ids=["default-blocks", "small-blocks"])
    def test_off_diagonal_sums_match_one_strided_copy(self, monkeypatch, block):
        # stacks of 1, 2 and 1,999 points; k = 600 takes six blocks of rows
        # at one point, and blocks of 40 entries take one row each; a view
        # of a stack, as the solver passes a closed class's slice, and a
        # stack in Fortran order, whose gathered rows are not C-ordered
        if block:
            monkeypatch.setattr(markov, "_GATHER_BLOCK", block)
        rng = np.random.default_rng(17)
        for points in (1, 2, 1999):
            for k in (1, 2, 9) + ((600,) if points == 1 else ()):
                m = rng.uniform(0, 1, (points, k, k)) * 10.0 ** rng.integers(-12, 1, (points, k, k))
                for stack in (m, np.asfortranarray(m), m[:, 1:, 1:]):
                    if stack.shape[-1]:
                        want = oracles.off_diagonal_sums(stack)
                        assert markov._off_diagonal_sums(stack).tobytes() == want.tobytes(), (points, k)

    def test_solution_matrices(self):
        # the bundled roots and shm-3 in both variants, each as a system and
        # as its quotient
        systems = [build_ts(term) for _, term in bundled_roots()]
        systems += [build_rg(box_of(parse_model(shm_text(3, abstract)).instantiate())) for abstract in (True, False)]
        for ts in systems:
            q = quotient(ts)
            for chain, want in ((Chain.from_ts(ts), oracles.pm_matrix(ts)),
                                (q.chain(), oracles.quotient_arcs(ts, q.partition.blocks)[1])):
                result = solve_chain(chain)
                pm = want[None]
                embedded = markov._embedded(pm, oracles.off_diagonal_sums(pm))[0]
                assert result.dtmc.tobytes() == want.tobytes()
                assert result.edtmc.tobytes() == embedded.tobytes() == oracles.edtmc_tpm(chain).tobytes()

    def test_embedded_in_place(self):
        # rows that leave with probability zero, with and without a
        # self-loop, among ordinary ones; the stack's diagonal overwritten,
        # as the full route leaves it
        rng = np.random.default_rng(23)
        for points, k in ((1, 1), (3, 2), (5, 9), (2, 40)):
            pm = rng.random((points, k, k)) * 10.0 ** rng.integers(-12, 1, (points, k, k))
            pm[:, ::3] = 0.0
            pm[:, ::3, ::3] = np.eye(k)[::3, ::3]
            pm[:, 1::4] = 0.0
            pm /= np.where(pm.sum(axis=-1, keepdims=True) > 0, pm.sum(axis=-1, keepdims=True), 1.0)
            leave = markov._off_diagonal_sums(pm)
            want = markov._embedded(pm, leave)
            pm[:, np.arange(k), np.arange(k)] = -leave
            assert markov._embedded(pm, leave, out=pm) is pm
            assert pm.tobytes() == want.tobytes(), (points, k)

    @pytest.mark.parametrize("singular", [False, True], ids=["solved", "singular"])
    def test_stationary_on_class_leaves_the_generator(self, monkeypatch, singular):
        # LAPACK reads the generators through a transposed view whose last
        # row is set to ones while it solves; the column is put back after
        # the solve, and after a LinAlgError too
        if singular:
            def fail(a, b):
                raise np.linalg.LinAlgError("Singular matrix")
            monkeypatch.setattr(markov, "_solve", fail)
        rng = np.random.default_rng(29)
        for k in (2, 9, 40):
            sub = rng.random((4, k, k))
            sub /= sub.sum(axis=-1, keepdims=True)
            gen = sub.copy()
            gen[:, np.arange(k), np.arange(k)] = -oracles.off_diagonal_sums(sub)
            if singular:
                with pytest.raises(np.linalg.LinAlgError):
                    markov._stationary_on_class(sub)
            else:
                monkeypatch.setattr(markov, "_RESIDUAL_TOL", 1e-30)
                markov._stationary_on_class(sub)
            assert sub.tobytes() == gen.tobytes(), k

    def test_solve_chain_holds_no_dense_stack(self):
        # concrete shm-7, 577 states: the solver holds one stack, on which
        # both routes solve, and LAPACK reads a view of it (its own copy is
        # not traced); the peak is about 1.8 stacks with the chain's arcs
        # and the row blocks that _off_diagonal_sums gathers
        rg = build_rg(box_of(parse_model(shm_text(7, False)).instantiate()))
        unit = len(rg.states) ** 2 * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            chain = Chain.from_ts(rg)
            result = solve_chain(chain)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.phi.shape == (577,)
        assert peak - before <= 2.0 * unit and held - before <= 0.5 * unit, ((peak - before) / unit,
                                                                            (held - before) / unit)


class TestTransient:
    def test_zero_steps_is_point_mass(self):
        x = oracles.transient(chain_of("ts_example").matrices()[0], 0)
        assert x[0] == 1.0 and x.sum() == 1.0

    def test_one_step_is_first_row(self):
        p = chain_of("ts_example").matrices()[0]
        x = oracles.transient(p, 1)
        assert np.allclose(x, p[0], atol=1e-15)

    def test_recurrence(self):
        p = chain_of("shared_memory").matrices()[0]
        assert np.allclose(oracles.transient(p, 7), oracles.transient(p, 6) @ p, atol=1e-14)

    @pytest.mark.parametrize("name", ERGODIC_MODELS)
    def test_convergence_to_stationary(self, name):
        result = solve_chain(chain_of(name))
        stat = result.psi
        x = oracles.transient(result.dtmc, 4000)
        assert np.max(np.abs(x - stat)) < 1e-8


class TestTracesAndIndices:
    def test_branch_trace_probability(self):
        ts = ts_of("ssbsspt_pair")
        chain = Chain.from_ts(ts)
        c_label = Multiset.of(Multiset.of(Action("c")))
        # from the branching state both c-activities can fire, quarter each
        s3 = next(
            i
            for i in range(chain.size)
            if chain.tangible[i]
            and any(label == c_label for source, label, _, _ in oracles.arcs(chain) if source == i)
        )
        assert trace_prob(chain, s3, [c_label]) == pytest.approx(0.5, abs=1e-12)

    def test_empty_trace(self):
        chain = chain_of("ts_example")
        assert trace_prob(chain, 0, []) == 1.0

    def test_unmatched_trace(self):
        chain = chain_of("ts_example")
        nope = Multiset.of(Multiset.of(Action("zzz")))
        assert trace_prob(chain, 0, [nope]) == 0.0

    def test_two_step_trace(self):
        chain = chain_of("ts_example")
        a = Multiset.of(Multiset.of(Action("a")))
        b = Multiset.of(Multiset.of(Action("b")))
        assert trace_prob(chain, 0, [a, b]) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_shared_memory_indices(self, seed):
        rng = make_rng(5000 + seed)
        rho = rng.uniform(0.1, 0.9)
        model = load_model("shared_memory")
        result = solve_chain(Chain.from_ts(fast_ts("shared_memory", rho=rho)))
        den = 2 + rho - rho**2 - rho**3

        run_through = evaluate_index(model.indices["run_through"], result)
        assert run_through == pytest.approx(den / (rho**2 * (1 - rho)), rel=1e-10)

        utilization = evaluate_index(model.indices["utilization"], result)
        assert utilization == pytest.approx((2 + rho - 2 * rho**2) / den, abs=1e-10)

        emergence = evaluate_index(model.indices["emergence_rate"], result)
        assert emergence == pytest.approx(rho**3 * (1 - rho) * (2 - rho) / den, abs=1e-10)

        two_req = evaluate_index(model.indices["two_request_prob"], result)
        assert two_req == pytest.approx(rho**4 * (1 - rho) / den, abs=1e-10)

        first_req = evaluate_index(model.indices["first_request_prob"], result)
        assert first_req == pytest.approx(rho**2 * (2 + rho - 2 * rho**2) / (2 * den), abs=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_abstract_one_request_probability(self, seed):
        rng = make_rng(6000 + seed)
        rho = rng.uniform(0.1, 0.9)
        model = load_model("shared_memory_abstract")
        result = solve_chain(Chain.from_ts(fast_ts("shared_memory_abstract", rho=rho)))
        den = 2 + rho - rho**2 - rho**3
        got = evaluate_index(model.indices["one_request_prob"], result)
        assert got == pytest.approx(rho**2 * (2 - rho) * (1 + rho - rho**2) / den, abs=1e-10)

    def test_step_probability_direct(self):
        result = solve_chain(chain_of("choice_imm"))
        # absorbing final state never performs an a-step
        a_step = Multiset.of(Action("a"))
        assert evaluate_index(("steprob", (a_step,)), result) == 0.0
        assert oracles.step_probability(result.chain, result.phi, Multiset.of(a_step)) == 0.0

    def test_index_arithmetic(self):
        result = solve_chain(chain_of("ts_example"))
        expr = ("bin", "-", ("bin", "*", ("num", 2.0), ("num", 3.0)), ("neg", ("num", -1.0)))
        assert evaluate_index(expr, result) == pytest.approx(5.0)
        with pytest.raises(ValueError):
            evaluate_index(("vec", "phi", 99), result)


def index_cases():
    """(label, model text, parameter point) of every model with indices."""
    for name in bundled_model_names():
        if load_model(name).indices:
            yield name, model_text(name), {}
    for abstract in (True, False):
        request = "r" if abstract else "r1"
        yield "shm3-%s" % ("abstract" if abstract else "concrete"), shm_text(3, abstract) + (
            "index mix = phi[2] / sj[2] + steprob[{%s}] - psi[4] * psistar[3] + var[1]\n" % request), {}
    for rho in (0.01, 0.5, 0.99):
        yield "forms-%s" % rho, model_text("shared_memory_abstract") + "\n".join(INDEX_FORMS) + "\n", {"rho": rho}
    # an absorbing tangible state: infinite sojourns, and nan values
    yield "absorbing", model_text("choice_stoch") + "index z = sj[1] * phi[2] + sj[2] * phi[1]\n", {}


class TestOneIndexEvaluator:
    """``evaluate_index`` walks a one-point stack; ``oracles.evaluate_index``
    walks the tree in Python floats.  On the same solution they give the
    same bits, and fail with the same error."""

    @staticmethod
    def solved(text, **params):
        model = parse_model(text)
        return model, solve_chain(Chain.from_ts(build_ts(model.instantiate(params or None))))

    @pytest.mark.parametrize("text, params", [pytest.param(text, params, id=label)
                                              for label, text, params in index_cases()])
    def test_values_are_the_scalar_walks(self, text, params):
        model, result = self.solved(text, **params)
        for name, expr in model.indices.items():
            got, want = evaluate_index(expr, result), oracles.evaluate_index(expr, result)
            assert type(got) is float
            assert got == want or (math.isnan(got) and math.isnan(want)), (name, got, want)

    @pytest.mark.parametrize("index", ["1 / phi[1]", "phi[70]", "phi[2] / (phi[70] + 1)",
                                       "phi[3] + 1 / (phi[2] - phi[2])"])
    def test_failures_are_the_scalar_walks(self, index):
        # state 1 of shared_memory is transient (phi[1] = 0); it has 9 states
        model, result = self.solved(model_text("shared_memory") + "index z = %s\n" % index)
        with pytest.raises((ZeroDivisionError, ValueError)) as want:
            oracles.evaluate_index(model.indices["z"], result)
        with pytest.raises((ZeroDivisionError, ValueError)) as got:
            evaluate_index(model.indices["z"], result)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
