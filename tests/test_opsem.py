"""Bar closures, executable steps, probabilities, transition systems.

The brute-force oracle here re-derives executable step sets from first
principles: it walks each class member for its barred activity occurrences,
applies relabeling and restriction along the path to the root, forms every
homogeneous subset whose occurrences sit in parallel branches, and lets
immediate sets pre-empt.  It shares no code with the rule engine's step
derivation.
"""

import dataclasses
import itertools
import math

import pytest

from dtsipbc.expr import (
    Act,
    Action,
    Activity,
    Cho,
    DCho,
    DPar,
    DRel,
    DRst,
    DSeq,
    DIte,
    DSyn,
    DynamicExpr,
    Multiset,
    Over,
    Par,
    Seq,
    Under,
)
from dtsipbc.models import bundled_model_names, load_model
from dtsipbc.netsem import box_of, build_rg
from dtsipbc.opsem import (
    Engine,
    SemanticsError,
    State,
    StateSpaceLimit,
    Transition,
    TransitionSystem,
    _backward_root,
    _forward_root,
    _remap_leaves,
    build_ts,
    inaction_closure,
    leaf_values_of,
    step_label,
    ts_isomorphic,
)
from dtsipbc.parser import parse_dynamic, parse_model, parse_static, serialize

import oracles
from conftest import (
    RELABELING_TERMS,
    bundled_roots,
    label_strings,
    make_rng,
    random_regular_text,
    shm_text,
    ts_of,
)
from oracles import current_steps, enumerated_class, member_tangible, potential_steps


def steps_as_parts(steps):
    return {tuple(sorted(str(u.part) for u in s)) for s in steps}


class TestInactionClosure:
    def test_choice_bar_distributes_both_ways(self):
        g = parse_dynamic("~(({a},0.5)[]({b},0.5))")
        closure = Engine().closure(g)
        texts = {serialize(d) for d in closure}
        assert "~({a},0.5)[]({b},0.5)" in texts
        assert "({a},0.5)[]~({b},0.5)" in texts

    def test_parallel_under_bars_merge(self):
        g = parse_dynamic("_({a},0.5)||_({b},0.5)")
        closure = Engine().closure(g)
        assert parse_dynamic("_(({a},0.5)||({b},0.5))") in closure

    def test_structural_equivalence_through_hidden_form(self):
        h = parse_dynamic("~({a},#1)[]({b},0.5)")
        h2 = parse_dynamic("({a},#1)[]~({b},0.5)")
        engine = Engine()
        assert h2 in engine.closure(h)
        assert engine.operatives(h) == engine.operatives(h2)

    def test_operatives_are_irreducible(self):
        g = parse_dynamic("~((({a},0.5);({b},0.5))||({c},0.5))")
        engine = Engine()
        for member in engine.operatives(g):
            state = inaction_closure(member, engine)
            assert member in state.members

    def test_initial_and_final_flags(self):
        engine = Engine()
        g = parse_dynamic("~({a},0.5)[]({b},0.5)")
        assert engine.is_initial(g)
        assert not engine.is_final(g)
        assert engine.is_final(parse_dynamic("_(({a},0.5)[]({b},0.5))"))

    def test_closure_guard(self):
        g = parse_dynamic("~((({a},0.5);({b},0.5));({c},0.5))")
        with pytest.raises(StateSpaceLimit):
            Engine(closure_limit=2).closure(g)


class TestCanNow:
    def test_single_barred_activity(self):
        g = parse_dynamic("~({a},0.4)")
        assert steps_as_parts(potential_steps(g)) == {("{a}",)}

    def test_mixed_parallel_choice(self):
        g = parse_dynamic("(~({a},#1)[]({b},#2))||~({c},0.5)")
        assert steps_as_parts(potential_steps(g)) == {("{a}",), ("{c}",), ("{a}", "{c}")}
        assert steps_as_parts(current_steps(g)) == {("{a}",)}
        assert not member_tangible(g)

    def test_final_term_has_no_steps(self):
        assert potential_steps(parse_dynamic("_(({a},0.5);({b},0.5))")) == frozenset()

    def test_hidden_vanishing_twin(self):
        h2 = parse_dynamic("({a},#1)[]~({b},0.5)")
        assert steps_as_parts(current_steps(h2)) == {("{b}",)}
        assert member_tangible(h2)

    def test_pure_stochastic_parallel_unchanged(self):
        g = parse_dynamic("~({a},0.5)||~({b},0.5)")
        assert current_steps(g) == potential_steps(g)
        assert len(potential_steps(g)) == 3

    def test_downward_closed(self):
        g = parse_dynamic("(~({a},0.5)||~({b},0.5))||~({c},0.5)")
        can = potential_steps(g)
        for s in can:
            for k in range(1, len(s)):
                for sub in itertools.combinations(s, k):
                    assert frozenset(sub) in can


class TestExec:
    def test_priority_pre_empts_structural_twin(self):
        # the class of (a,#1)[](b,1/2) contains a member that could do {b},
        # but the immediate twin wins
        ts = build_ts(parse_static("({a},#1)[]({b},0.5)"))
        labels = {tuple(label_strings(t.step)) for t in ts.outgoing(0)}
        assert labels == {("{a}",)}
        assert not ts.states[0].tangible

    def test_two_way_stochastic_choice(self):
        ts = build_ts(parse_static("({a},0.3)[]({a},0.5)"))
        steps = ts.exec_steps(0)
        assert len(steps) == 3 and frozenset() in steps

    def test_final_state_keeps_ticking(self):
        ts = build_ts(parse_static("({a},0.5)"))
        assert ts.exec_steps(1) == [frozenset()]
        assert ts.move_prob(1, 1) == 1.0

    def test_restriction_restores_tangibility(self):
        # the immediate branch is forbidden by restriction, so the stochastic
        # alternative must run (matches the net, where the immediate
        # transition does not exist at all)
        e = parse_static("(({a},#1)[]({b},0.5)) rs a")
        ts = build_ts(e)
        assert ts.states[0].tangible
        assert {tuple(label_strings(t.step)) for t in ts.outgoing(0)} == {(), ("{b}",)}


class TestProbabilities:
    @pytest.mark.parametrize("seed", range(20))
    def test_choice_closed_forms(self, seed):
        rng = make_rng(1000 + seed)
        rho, chi = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        ts = build_ts(parse_static("({a},%r)[]({a},%r)" % (rho, chi)))
        a1 = frozenset([Activity.make(Multiset.of(Action("a")), False, rho, 1)])
        a2 = frozenset([Activity.make(Multiset.of(Action("a")), False, chi, 2)])
        assert oracles.ready_prob(ts, a1, 0) == pytest.approx(rho * (1 - chi), abs=1e-14)
        assert oracles.ready_prob(ts, frozenset(), 0) == pytest.approx((1 - rho) * (1 - chi), abs=1e-14)
        assert ts.step_prob(a1, 0) == pytest.approx(rho * (1 - chi) / (1 - rho * chi), abs=1e-12)
        assert ts.step_prob(a2, 0) == pytest.approx(chi * (1 - rho) / (1 - rho * chi), abs=1e-12)
        assert ts.step_prob(frozenset(), 0) == pytest.approx(
            (1 - rho) * (1 - chi) / (1 - rho * chi), abs=1e-12
        )
        assert ts.move_prob(0, 1) == pytest.approx(
            (rho + chi - 2 * rho * chi) / (1 - rho * chi), abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_immediate_choice_closed_forms(self, seed):
        rng = make_rng(2000 + seed)
        l, m = rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0)
        ts = build_ts(parse_static("({a},#%r)[]({a},#%r)" % (l, m)))
        u1 = frozenset([Activity.make(Multiset.of(Action("a")), True, l, 1)])
        u2 = frozenset([Activity.make(Multiset.of(Action("a")), True, m, 2)])
        assert oracles.ready_prob(ts, u1, 0) == pytest.approx(l)
        assert oracles.ready_prob(ts, u2, 0) == pytest.approx(m)
        assert ts.step_prob(u1, 0) == pytest.approx(l / (l + m), abs=1e-12)
        assert ts.move_prob(0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_step_rejected(self):
        ts = build_ts(parse_static("({a},0.5)"))
        bogus = frozenset([Activity.make(Multiset.of(Action("z")), False, 0.5, 9)])
        with pytest.raises(SemanticsError):
            ts.step_prob(bogus, 0)

    def test_rows_are_distributions(self):
        for name in ("ts_example", "shared_memory", "choice_imm"):
            ts = ts_of(name)
            for i in range(len(ts.states)):
                assert sum(t.prob for t in ts.outgoing(i)) == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def bits(ts):
        """Each transition's source, step (as leaf numbers), target and the
        exact bits of its probability."""
        return [(t.source, sorted(tuple(i for i, _ in u.leaves) for u in t.step), t.target, t.prob.hex())
                for t in ts.transitions]

    def test_reweight_matches_rebuild(self):
        # build_ts at a point and the base system reweighted to it compute
        # every probability the same way, so they agree bit for bit
        for name in bundled_model_names():
            model = load_model(name)
            base = build_ts(model.instantiate())
            for point in ({}, {"rho": 0.7, "chi": 0.2, "l": 3.0}, {"rho": 0.999, "theta": 0.125, "m": 0.3}):
                point = {k: v for k, v in point.items() if k in model.parameter_names()}
                rebuilt = build_ts(model.instantiate(point))
                assert self.bits(base.reweight(model.leaf_values(point))) == self.bits(rebuilt), (name, point)
        rng = make_rng(99)
        for _ in range(40):
            text = random_regular_text(rng)
            target = parse_static(text)
            base = build_ts(target)
            rho = rng.uniform(0.1, 0.9)
            values = {i: (v if v >= 1 else min(0.9, max(0.1, v * rho * 2))) for i, v in leaf_values_of(target).items()}
            rebuilt = build_ts(_remap_leaves(target, values))
            assert self.bits(base.reweight(values)) == self.bits(rebuilt), text

    def test_reweight_matches_the_set_order_oracle(self):
        rng = make_rng(98)
        for _ in range(20):
            target = parse_static(random_regular_text(rng, max_activities=8, max_sync=3))
            base = build_ts(target, max_states=20_000)
            values = {i: (v * 1.5 if v >= 1 else v * 0.75) for i, v in leaf_values_of(target).items()}
            got, want = base.reweight(values), oracles.reweight(base, values)
            assert [t.step for t in got.transitions] == [t.step for t in want.transitions]
            for t, w in zip(got.transitions, want.transitions):
                assert t.prob == pytest.approx(w.prob, rel=1e-14, abs=0)


class TestTransitionSystems:
    def test_running_example_shape(self):
        ts = ts_of("ts_example")
        assert len(ts.states) == 5
        assert sum(s.tangible for s in ts.states) == 4
        assert [s.kind for s in ts.states].count("vanishing") == 1

    def test_shared_memory_shape(self):
        ts = ts_of("shared_memory")
        assert len(ts.states) == 9
        assert sum(s.tangible for s in ts.states) == 6

    def test_single_activity(self):
        ts = build_ts(parse_static("({a},0.5)"))
        assert len(ts.states) == 2
        assert ts.move_prob(0, 1) == pytest.approx(0.5)
        assert ts.move_prob(0, 0) == pytest.approx(0.5)

    def test_state_keys_are_least_serializations(self):
        ts = ts_of("choice_stoch")
        for s in ts.states:
            assert s.key == min(serialize(m) for m in s.members)

    def test_state_cap(self):
        with pytest.raises(StateSpaceLimit):
            build_ts(parse_static("({a},0.5)||({b},0.5)||({c},0.5)"), max_states=3)


class TestIsomorphism:
    def test_reflexive(self):
        ts = ts_of("ts_example")
        mapping = ts_isomorphic(ts, ts)
        assert mapping == {i: i for i in range(len(ts.states))}

    def test_probability_mismatch_detected(self):
        a = build_ts(parse_static("({a},0.5)"))
        b = build_ts(parse_static("({a},0.6)"))
        assert ts_isomorphic(a, b) is None

    def test_one_versus_split_choice(self):
        a = build_ts(parse_static("({a},0.5)"))
        b = build_ts(parse_static("({a},1/3)[]({a},1/3)"))
        assert ts_isomorphic(a, b) is None

    def test_synchronization_does_not_change_sequential_pair(self):
        a = build_ts(parse_static("({a},0.5);({a^},0.5)"))
        b = build_ts(parse_static("(({a},0.5);({a^},0.5)) sy a"))
        assert ts_isomorphic(a, b) is not None

    def test_backtracking_over_equally_labeled_arcs(self):
        # state 0 offers one step twice; only the crossed assignment of its
        # targets works, and the identity assignment fails one level deeper
        # after mapping a pair, which must not survive into the next attempt
        step = {name: frozenset({Activity.make(Multiset.of(Action(name)), False, 0.5, k)})
                for k, name in enumerate("uvxy")}

        def hand_ts(arcs):
            states = [State("s%d" % i, (), True) for i in range(5)]
            return TransitionSystem(states, [Transition(i, step[a], p, j) for i, a, p, j in arcs])

        a = hand_ts([(0, "u", 0.5, 1), (0, "u", 0.5, 2), (1, "v", 1.0, 3), (2, "v", 1.0, 4),
                     (3, "x", 1.0, 3), (4, "y", 1.0, 4)])
        b = hand_ts([(0, "u", 0.5, 1), (0, "u", 0.5, 2), (1, "v", 1.0, 3), (2, "v", 1.0, 4),
                     (3, "y", 1.0, 3), (4, "x", 1.0, 4)])
        assert ts_isomorphic(a, b) == {0: 0, 1: 2, 2: 1, 3: 4, 4: 3}
        c = hand_ts([(0, "u", 0.5, 1), (0, "u", 0.5, 2), (1, "v", 1.0, 3), (2, "v", 1.0, 4),
                     (3, "y", 1.0, 3), (4, "y", 1.0, 4)])
        assert ts_isomorphic(a, c) is None


# ---------------------------------------------------------------------------
# Brute-force executable-set oracle
# ---------------------------------------------------------------------------


def oracle_exec(members):
    """Executable steps of a class: every homogeneous set of unblocked barred
    activities in pairwise parallel positions, immediates pre-empting."""

    def collect(h, path):
        if isinstance(h, Over):
            return [(h.expr.activity, path)]
        if isinstance(h, Under):
            return []
        if isinstance(h, (DSeq, DCho)):
            from dtsipbc.expr import DynamicExpr

            child = h.left if isinstance(h.left, DynamicExpr) else h.right
            return collect(child, path + (("kid", 0),))
        if isinstance(h, DPar):
            return collect(h.left, path + (("par", "L"),)) + collect(h.right, path + (("par", "R"),))
        if isinstance(h, DRel):
            return [(h.func.apply_activity(u), p) for u, p in collect(h.child, path + (("kid", 0),))]
        if isinstance(h, DRst):
            a, ah = Action(h.action), Action(h.action, True)
            return [
                (u, p)
                for u, p in collect(h.child, path + (("kid", 0),))
                if a not in u.part and ah not in u.part
            ]
        if isinstance(h, DSyn):
            raise AssertionError("oracle only covers synchronization-free terms")
        if isinstance(h, DIte):
            from dtsipbc.expr import DynamicExpr

            child = next(x for x in (h.init, h.body, h.term) if isinstance(x, DynamicExpr))
            return collect(child, path + (("kid", 0),))
        raise TypeError(repr(h))

    def parallel(p1, p2):
        for (k1, t1), (k2, t2) in zip(p1, p2):
            if (k1, t1) != (k2, t2):
                return k1 == "par" and k2 == "par" and t1 != t2
        return False

    sets = set()
    for member in members:
        occurrences = collect(member, ())
        for size in range(1, len(occurrences) + 1):
            for combo in itertools.combinations(occurrences, size):
                kinds = {u.immediate for u, _ in combo}
                if len(kinds) != 1:
                    continue
                if all(parallel(p1, p2) for (_, p1), (_, p2) in itertools.combinations(combo, 2)):
                    sets.add(frozenset(u for u, _ in combo))
    if any(next(iter(s)).immediate for s in sets):
        sets = {s for s in sets if next(iter(s)).immediate}
        tangible = False
    else:
        tangible = True
    return sets, tangible


def oracle_step_prob(step, sets, tangible):
    if not tangible:
        return sum(u.value for u in step) / sum(sum(u.value for u in s) for s in sets)
    singles = {next(iter(s)) for s in sets if len(s) == 1}

    def pf(s):
        prob = 1.0
        for u in s:
            prob *= u.value
        for v in singles - set(s):
            prob *= 1 - v.value
        return prob

    total = pf(frozenset()) + sum(pf(s) for s in sets)
    return pf(step) / total


class TestExecOracle:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_terms_match(self, seed):
        rng = make_rng(3000 + seed)
        text = random_regular_text(rng, max_activities=3, max_sync=0)
        ts = build_ts(parse_static(text))
        for i, state in enumerate(ts.states):
            want_sets, want_tangible = oracle_exec(state.members)
            got = {s for s in ts.exec_steps(i) if s}
            assert got == want_sets, "Exec mismatch at state %d of %s" % (i + 1, text)
            assert state.tangible == want_tangible
            for t in ts.outgoing(i):
                if t.step:
                    expected = oracle_step_prob(t.step, want_sets, want_tangible)
                    assert t.prob == pytest.approx(expected, abs=1e-12)

    def test_priority_example_against_oracle(self):
        ts = build_ts(parse_static("(({a},#1)[]({b},0.5))||({c},0.5)"))
        for i, state in enumerate(ts.states):
            want_sets, want_tangible = oracle_exec(state.members)
            assert {s for s in ts.exec_steps(i) if s} == want_sets
            assert state.tangible == want_tangible


# ---------------------------------------------------------------------------
# Compositional classes against enumerated ones
# ---------------------------------------------------------------------------


def assert_classes_match(expr, every_member=False):
    """Each reachable class, summarized from subterms, equals the class read
    off its enumeration; with ``every_member``, starting from each member."""
    ts = build_ts(expr)
    engine, reference = Engine(), Engine()
    for state in ts.states:
        starts = reference.closure(state.members[0]) if every_member else state.members
        for g in starts:
            want = enumerated_class(reference, g)
            _, initial, final = engine._summary(g)
            assert (engine.operatives(g), initial, final) == want, serialize(g)
            assert want[0] == state.members


class TestCompositionalClasses:
    @pytest.mark.parametrize("expr", [pytest.param(e, id=label) for label, e in bundled_roots()]
                             + [pytest.param(parse_static(t), id=t) for t in RELABELING_TERMS])
    def test_bundled_roots(self, expr):
        assert_classes_match(expr)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_terms(self, seed):
        rng = make_rng(5000 + seed)
        assert_classes_match(parse_static(random_regular_text(rng, max_activities=8, max_sync=2)))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_terms_from_every_member(self, seed):
        rng = make_rng(6000 + seed)
        assert_classes_match(parse_static(random_regular_text(rng, max_activities=5, max_sync=1)), True)

    def test_build_ts_never_enumerates(self, monkeypatch):
        def refuse(self, g):
            raise AssertionError("Engine.closure called")

        monkeypatch.setattr(Engine, "closure", refuse)
        for label, expr in bundled_roots():
            assert build_ts(expr).states, label

    @pytest.mark.parametrize("abstract", [True, False])
    def test_shm3_matches_net(self, abstract):
        expr = parse_model(shm_text(3, abstract)).instantiate()
        ts = build_ts(expr)
        assert len(ts.states) == 21
        assert ts_isomorphic(ts, build_rg(box_of(expr))) is not None


# ---------------------------------------------------------------------------
# The rule table against the hand-written rules
# ---------------------------------------------------------------------------


def dynamic_subterms(g):
    """``g`` and every dynamic subterm of ``g``."""
    yield g
    for f in dataclasses.fields(g):
        child = getattr(g, f.name)
        if isinstance(child, DynamicExpr):
            yield from dynamic_subterms(child)


def assert_rules_match(expr):
    """At the root of every dynamic subterm of every member of every reachable
    class, the table's rewrites equal the hand-written ones, and each class
    enumerated with the table equals the one enumerated with them."""
    engine = Engine()
    subterms = set()
    for state in build_ts(expr).states:
        members = engine.closure(state.members[0])
        assert members == oracles.closure(state.members[0]), serialize(state.members[0])
        for g in members:
            subterms.update(dynamic_subterms(g))
    for d in subterms:
        assert set(_forward_root(d)) == set(oracles.forward_root(d)), serialize(d)
        assert set(_backward_root(d)) == set(oracles.backward_root(d)), serialize(d)


class TestRuleTable:
    @pytest.mark.parametrize("expr", [pytest.param(e, id=label) for label, e in bundled_roots()]
                             + [pytest.param(parse_static(t), id=t) for t in RELABELING_TERMS])
    def test_bundled_roots_and_relabelings(self, expr):
        assert_rules_match(expr)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_terms(self, seed):
        rng = make_rng(9000 + seed)
        assert_rules_match(parse_static(random_regular_text(rng, max_activities=8, max_sync=2)))


# ---------------------------------------------------------------------------
# Step derivation against the hand-written rules
# ---------------------------------------------------------------------------


def assert_derivations_match(expr):
    """On every operative of every reachable class, ``Engine.derive`` gives
    the hand-written rules' steps, targets and order, and its steps are the
    term's potential steps that do not mix immediate and stochastic
    activities (the parallel rule joins only steps of one kind)."""
    engine = Engine()
    for state in build_ts(expr).states:
        for h in state.members:
            got = engine.derive(h)
            assert got == oracles.derive(h), serialize(h)
            homogeneous = {s for s in potential_steps(h) if len({u.immediate for u in s}) == 1}
            assert {step for step, _ in got} == homogeneous, serialize(h)


class TestDerivationReference:
    @pytest.mark.parametrize("expr", [pytest.param(e, id=label) for label, e in bundled_roots()]
                             + [pytest.param(parse_static(t), id=t) for t in RELABELING_TERMS])
    def test_bundled_roots_and_relabelings(self, expr):
        assert_derivations_match(expr)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_terms(self, seed):
        rng = make_rng(11000 + seed)
        assert_derivations_match(parse_static(random_regular_text(rng, max_activities=8, max_sync=2)))
