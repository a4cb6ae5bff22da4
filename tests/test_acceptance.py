"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import itertools

import numpy as np
import pytest

from dtsipbc.equiv import bisim_equivalent, largest_autobisim, quotient
from dtsipbc.expr import Action, Activity, Multiset
from dtsipbc.markov import Chain, evaluate_index, solve_chain
from dtsipbc.models import bundled_model_names, load_model
from dtsipbc.netsem import box_of, build_rg, check_safe_clean
from dtsipbc.opsem import build_ts, ts_isomorphic
from dtsipbc.parser import parse_static

import oracles
from oracles import trace_prob
from conftest import (RELABELING_TERMS, fast_ts, make_rng, move_prob, random_regular_text, shared_memory_order,
                      step_prob)
from test_equiv import _perturb_value, _rename_leaf_action, abstract_block_order
from test_opsem import oracle_exec, oracle_step_prob

TOL = 1e-10

ERGODIC = ("ts_example", "qts_f", "shared_memory", "shared_memory_abstract")


def _report(line: str) -> None:
    print("PASS %s" % line)


# ---------------------------------------------------------------------------


def test_criterion_1_state_spaces():
    ts = fast_ts("ts_example")
    assert len(ts.states) == 5
    assert sum(s.tangible for s in ts.states) == 4
    assert sum(not s.tangible for s in ts.states) == 1

    shm = fast_ts("shared_memory")
    assert len(shm.states) == 9
    assert sum(s.tangible for s in shm.states) == 6
    assert sum(not s.tangible for s in shm.states) == 3

    q = quotient(fast_ts("shared_memory_abstract"))
    assert q.size == 6
    _report("criterion 1: state spaces 5 (4+1), 9 (6+3), quotient 6")


def test_criterion_2_closed_forms():
    for seed in range(20):
        rng = make_rng(910_000 + seed)
        rho, chi = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        l, m = rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0)

        # execution probabilities of the two-way choices
        ts = build_ts(parse_static("({a},%r)[]({a},%r)" % (rho, chi)))
        a1 = frozenset([Activity.make(Multiset.of(Action("a")), False, rho, 1)])
        z = 1 - rho * chi
        assert abs(step_prob(ts, a1, 0) - rho * (1 - chi) / z) <= TOL
        assert abs(step_prob(ts, frozenset(), 0) - (1 - rho) * (1 - chi) / z) <= TOL
        assert abs(move_prob(ts, 0, 1) - (rho + chi - 2 * rho * chi) / z) <= TOL
        tsi = build_ts(parse_static("({a},#%r)[]({a},#%r)" % (l, m)))
        u1 = frozenset([Activity.make(Multiset.of(Action("a")), True, l, 1)])
        assert abs(step_prob(tsi, u1, 0) - l / (l + m)) <= TOL
        assert abs(move_prob(tsi, 0, 1) - 1.0) <= TOL

    for seed in range(20):
        rng = make_rng(920_000 + seed)
        p = dict(
            rho=rng.uniform(0.1, 0.9), chi=rng.uniform(0.1, 0.9),
            theta=rng.uniform(0.1, 0.9), phi=rng.uniform(0.1, 0.9),
            l=rng.uniform(0.3, 4.0), m=rng.uniform(0.3, 4.0),
        )
        rho, chi, theta, phiv, l, m = (p[k] for k in ("rho", "chi", "theta", "phi", "l", "m"))
        res = solve_chain(Chain.from_ts(fast_ts("ts_example", **p)))
        assert np.allclose(res.sojourn.average, [1 / rho, 1 / chi, 0, 1 / theta, 1 / phiv], atol=TOL)
        assert np.allclose(
            res.sojourn.variance,
            [(1 - rho) / rho**2, (1 - chi) / chi**2, 0, (1 - theta) / theta**2, (1 - phiv) / phiv**2],
            atol=1e-9,
        )
        w = l / (l + m)
        p_star = np.array([
            [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, w, 1 - w], [0, 1, 0, 0, 0], [0, 1, 0, 0, 0],
        ])
        assert np.allclose(res.edtmc, p_star, atol=TOL)
        assert np.allclose(res.psi_star, [0, 1 / 3, 1 / 3, w / 3, (1 - w) / 3], atol=TOL)
        den_psi = theta * phiv * (1 + chi) * (l + m) + chi * (phiv * l + theta * m)
        psi = np.array([0, theta * phiv * (l + m), chi * theta * phiv * (l + m), chi * phiv * l, chi * theta * m]) / den_psi
        assert np.allclose(res.psi, psi, atol=TOL)
        den_phi = theta * phiv * (l + m) + chi * (phiv * l + theta * m)
        phi = np.array([0, theta * phiv * (l + m), 0, chi * phiv * l, chi * theta * m]) / den_phi
        assert np.allclose(res.phi, phi, atol=TOL)

    for seed in range(20):
        rng = make_rng(930_000 + seed)
        rho = rng.uniform(0.1, 0.9)
        den = 2 + rho - rho**2 - rho**3

        shm = fast_ts("shared_memory", rho=rho)
        order = shared_memory_order(shm, "{r1}", "{r2}", "{d1}", "{d2}")
        res = solve_chain(Chain.from_ts(shm))
        phi_full = np.array([
            0, 2 * rho**2 * (1 - rho), 0, 0, rho * (2 - rho), 0,
            rho * (2 - rho), 2 - rho - rho**2, 2 - rho - rho**2,
        ]) / (2 * den)
        assert np.allclose(res.phi[order], phi_full, atol=TOL)

        abst = fast_ts("shared_memory_abstract", rho=rho)
        part = largest_autobisim(abst)
        q = quotient(abst, part)
        border = abstract_block_order(abst, part)
        qres = solve_chain(q.chain())
        phi_q = np.array([0, rho**2 * (1 - rho), 0, rho * (2 - rho), 0, 2 - rho - rho**2]) / den
        assert np.allclose(qres.phi[border], phi_q, atol=TOL)
        d2 = 1 + rho - rho**2
        p_star_q = np.array([
            [0, 1, 0, 0, 0, 0],
            [0, 0, 2 * (1 - rho) / (2 - rho), 0, rho / (2 - rho), 0],
            [0, 0, 0, 1, 0, 0],
            [0, rho * (1 - rho) / d2, rho**2 / d2, 0, 0, (1 - rho**2) / d2],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 1, 0, 0, 0],
        ])
        assert np.allclose(qres.edtmc[np.ix_(border, border)], p_star_q, atol=TOL)
    _report("criterion 2: closed forms at 20 random points each, tol 1e-10")


def test_criterion_3_sweep_extrema():
    model = load_model("shared_memory_abstract")
    base = fast_ts("shared_memory_abstract")
    wanted = ("availability", "run_through", "utilization", "emergence_rate", "two_request_prob")
    indices = {name: model.indices[name] for name in wanted}
    step = 1e-4
    rows = []
    rho = step
    while rho < 1.0 - step / 2:
        ts = base.reweight(model.leaf_values({"rho": rho}))
        res = solve_chain(Chain.from_ts(ts))
        rows.append((rho, {k: evaluate_index(ix, res) for k, ix in indices.items()}))
        rho = round(rho + step, 10)

    def argopt(name, best):
        series = [(vals[name], r) for r, vals in rows]
        return best(series)

    vmax, at_max = argopt("availability", max)
    assert abs(vmax - 0.0797) <= 5e-4 and abs(at_max - 0.7433) <= 5e-3
    vmin, at_min = argopt("run_through", min)
    assert abs(vmin - 12.5516) <= 5e-3 and abs(at_min - 0.7433) <= 5e-3
    umin, at_umin = argopt("utilization", min)
    assert abs(umin - 0.9203) <= 5e-4 and abs(at_umin - 0.7433) <= 5e-3
    emax, at_emax = argopt("emergence_rate", max)
    assert abs(emax - 0.0751) <= 5e-4 and abs(at_emax - 0.7743) <= 5e-3
    tmax, at_tmax = argopt("two_request_prob", max)
    assert abs(tmax - 0.0517) <= 5e-4 and abs(at_tmax - 0.8484) <= 5e-3
    _report(
        "criterion 3: extrema %.4f@%.4f, %.4f@%.4f, %.4f@%.4f, %.4f@%.4f, %.4f@%.4f"
        % (vmax, at_max, vmin, at_min, umin, at_umin, emax, at_emax, tmax, at_tmax)
    )


def test_criterion_4_cross_semantics():
    roots = []
    for name in bundled_model_names():
        model = load_model(name)
        roots.append((name, model.instantiate()))
        if model.peer is not None:
            roots.append((name + ":peer", model.instantiate_peer()))
    roots += [(text, parse_static(text)) for text in RELABELING_TERMS]
    for label, expr in roots:
        ts = build_ts(expr)
        box = box_of(expr)
        rg = build_rg(box)
        assert ts_isomorphic(ts, rg) is not None, label
        report = check_safe_clean(box)
        assert report.safe and report.clean, label

    rng = make_rng(880_000)
    for k in range(200):
        text = random_regular_text(rng, max_activities=6, max_sync=2)
        expr = parse_static(text)
        ts = build_ts(expr, max_states=20_000)
        box = box_of(expr)
        rg = build_rg(box, max_states=20_000)
        assert ts_isomorphic(ts, rg) is not None, text
        report = check_safe_clean(box, max_states=20_000)
        assert report.safe and report.clean, text
    _report("criterion 4: TS matches RG on %d bundled roots, %d relabeling terms and 200 random terms"
            % (len(roots) - len(RELABELING_TERMS), len(RELABELING_TERMS)))


def test_criterion_5_stationary_relationships():
    for name in ERGODIC:
        res = solve_chain(Chain.from_ts(fast_ts(name)))
        weighted = res.psi_star * res.sojourn.loop_factor
        assert np.allclose(res.psi, weighted / weighted.sum(), atol=TOL), name
        tangible_mass = sum(res.psi[i] for i in range(res.chain.size) if res.chain.tangible[i])
        route_b = np.array([
            res.psi[i] / tangible_mass if res.chain.tangible[i] else 0.0
            for i in range(res.chain.size)
        ])
        assert np.allclose(res.phi, route_b, atol=TOL), name
    for name in bundled_model_names():
        res = solve_chain(Chain.from_ts(fast_ts(name)))
        assert np.allclose(res.dtmc.sum(axis=1), 1.0, atol=1e-12), name
        assert np.all(np.diag(res.edtmc) == 0.0), name
    _report("criterion 5: stationary relationships and TPM shapes on all bundled models")


def test_criterion_6_equivalence_suite():
    one = parse_static("({a},0.5)")
    two = parse_static("({a},1/3)[]({a},1/3)")
    assert bisim_equivalent(one, two).equivalent
    assert ts_isomorphic(build_ts(one), build_ts(two)) is None

    pair = load_model("ssbsspt_pair")
    assert bisim_equivalent(pair.instantiate(), pair.instantiate_peer()).equivalent

    rng = make_rng(860_000)
    rejected = 0
    attempts = 0
    while rejected < 50:
        attempts += 1
        assert attempts < 400
        expr = parse_static(random_regular_text(rng))
        ts = build_ts(expr)
        reachable = [u for t in ts.transitions for u in t.step]
        stoch = sorted({i for u in reachable if not u.immediate for i in u.content})
        anyleaf = sorted({i for u in reachable for i in u.content})
        if not anyleaf:
            continue
        if rejected % 2 == 0 and stoch:
            other = _perturb_value(expr, rng.choice(stoch), rng.choice([0.6, 1.5]))
        else:
            other = _rename_leaf_action(expr, rng.choice(anyleaf))
        assert not bisim_equivalent(expr, other).equivalent
        rejected += 1

    for name in ERGODIC:
        ts = fast_ts(name)
        q = quotient(ts)
        full = solve_chain(Chain.from_ts(ts))
        red = solve_chain(q.chain())
        chain, qchain = Chain.from_ts(ts), q.chain()
        for k, block in enumerate(q.partition.blocks):
            assert abs(red.phi[k] - sum(full.phi[i] for i in block)) <= TOL
        labels = sorted({qchain.labels[k] for k in qchain.label_ids.tolist()})
        traces = [(lbl,) for lbl in labels]
        traces += list(itertools.product(labels[:3], repeat=2))
        traces += list(itertools.product(labels[:2], repeat=3))
        for sigma in traces:
            for k, block in enumerate(q.partition.blocks):
                lhs = sum(full.phi[i] * trace_prob(chain, i, sigma) for i in block)
                rhs = red.phi[k] * trace_prob(qchain, k, sigma)
                assert abs(lhs - rhs) <= TOL
        fs, rs = full.sojourn, red.sojourn
        for k, block in enumerate(q.partition.blocks):
            for i in block:
                assert rs.average[k] == pytest.approx(fs.average[i], rel=1e-12)
                assert rs.variance[k] == pytest.approx(fs.variance[i], rel=1e-12)

    # the branch block of the bisimilar pair keeps mean 2 and variance 2
    e1 = pair.instantiate()
    ts1 = build_ts(e1)
    c_label = Multiset.of(Multiset.of(Action("c")))
    chain1 = Chain.from_ts(ts1)
    stats = solve_chain(chain1).sojourn
    branch = next(
        i for i in range(chain1.size)
        if chain1.tangible[i] and trace_prob(chain1, i, [c_label]) > 0
    )
    assert stats.average[branch] == pytest.approx(2.0, abs=TOL)
    assert stats.variance[branch] == pytest.approx(2.0, abs=TOL)
    _report("criterion 6: equivalence pairs accepted, 50 perturbed pairs rejected, lumping laws hold")


def test_criterion_7_oracles():
    rng = make_rng(840_000)
    checked = 0
    while checked < 60:
        text = random_regular_text(rng, max_activities=3, max_sync=0)
        ts = build_ts(parse_static(text))
        for i, state in enumerate(ts.states):
            want_sets, want_tangible = oracle_exec(state.members)
            assert {t.step for t in ts.outgoing(i) if t.step} == want_sets, text
            assert state.tangible == want_tangible, text
            for t in ts.outgoing(i):
                if t.step:
                    assert t.prob == pytest.approx(
                        oracle_step_prob(t.step, want_sets, want_tangible), abs=1e-12
                    )
        checked += 1

    for name in ERGODIC:
        res = solve_chain(Chain.from_ts(fast_ts(name)))
        direct = res.psi
        iterated = oracles.power_iteration(res.dtmc)
        assert np.max(np.abs(direct - iterated)) < 1e-8, name
    _report("criterion 7: rule engine matches brute-force oracle; solver matches power iteration")
