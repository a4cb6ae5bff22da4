"""Bar closures, executable steps, probabilities, transition systems.

The brute-force oracle here re-derives executable step sets from first
principles: it walks each class member for its barred activity occurrences,
applies relabeling and restriction along the path to the root, forms every
homogeneous subset whose occurrences sit in parallel branches, and lets
immediate sets pre-empt.  It shares no code with the rule engine's step
derivation.
"""

import dataclasses
import gc
import itertools
import math
import weakref

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
    State,
    StateSpaceLimit,
    Transition,
    TransitionSystem,
    _remap_leaves,
    build_ts,
    inaction_closure,
    ts_isomorphic,
)
from dtsipbc.parser import parse_dynamic, parse_model, parse_static, serialize

import oracles
from conftest import (
    RELABELING_TERMS,
    bundled_roots,
    label_strings,
    make_rng,
    move_prob,
    random_regular_text,
    shm_text,
    step_prob,
    ts_of,
)
from oracles import current_steps, enumerated_class, member_tangible, potential_steps


def steps_as_parts(steps):
    return {tuple(sorted(str(u.part) for u in s)) for s in steps}


def flags(engine, g):
    """Whether the class of ``g`` is initial, and whether it is final."""
    c = engine._classes[engine.class_of(g)]
    return c.initial, c.final


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
        assert engine.class_of(h) == engine.class_of(h2)

    def test_operatives_are_irreducible(self):
        g = parse_dynamic("~((({a},0.5);({b},0.5))||({c},0.5))")
        engine = Engine()
        for member in engine.members(engine.class_of(g)):
            state = inaction_closure(member, engine)
            assert member in state.members

    def test_initial_and_final_flags(self):
        engine = Engine()
        g = parse_dynamic("~({a},0.5)[]({b},0.5)")
        assert flags(engine, g) == (True, False)
        assert flags(engine, parse_dynamic("_(({a},0.5)[]({b},0.5))"))[1]


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
        steps = [t.step for t in ts.outgoing(0)]
        assert len(steps) == 3 and frozenset() in steps

    def test_final_state_keeps_ticking(self):
        ts = build_ts(parse_static("({a},0.5)"))
        assert [t.step for t in ts.outgoing(1)] == [frozenset()]
        assert move_prob(ts, 1, 1) == 1.0

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
        assert step_prob(ts, a1, 0) == pytest.approx(rho * (1 - chi) / (1 - rho * chi), abs=1e-12)
        assert step_prob(ts, a2, 0) == pytest.approx(chi * (1 - rho) / (1 - rho * chi), abs=1e-12)
        assert step_prob(ts, frozenset(), 0) == pytest.approx(
            (1 - rho) * (1 - chi) / (1 - rho * chi), abs=1e-12
        )
        assert move_prob(ts, 0, 1) == pytest.approx(
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
        assert step_prob(ts, u1, 0) == pytest.approx(l / (l + m), abs=1e-12)
        assert move_prob(ts, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_step_rejected(self):
        ts = build_ts(parse_static("({a},0.5)"))
        bogus = frozenset([Activity.make(Multiset.of(Action("z")), False, 0.5, 9)])
        assert bogus not in [t.step for t in ts.outgoing(0)]

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
            values = {i: (v if v >= 1 else min(0.9, max(0.1, v * rho * 2)))
                      for i, v in oracles.leaf_values_of(target).items()}
            rebuilt = build_ts(_remap_leaves(target, values))
            assert self.bits(base.reweight(values)) == self.bits(rebuilt), text

    def test_reweight_matches_the_set_order_oracle(self):
        rng = make_rng(98)
        for _ in range(20):
            target = parse_static(random_regular_text(rng, max_activities=8, max_sync=3))
            base = build_ts(target, max_states=20_000)
            values = {i: (v * 1.5 if v >= 1 else v * 0.75) for i, v in oracles.leaf_values_of(target).items()}
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
        assert move_prob(ts, 0, 1) == pytest.approx(0.5)
        assert move_prob(ts, 0, 0) == pytest.approx(0.5)

    def test_state_keys_are_least_serializations(self):
        ts = ts_of("choice_stoch")
        for s in ts.states:
            assert s.key == min(serialize(m) for m in s.members)

    def test_state_cap(self):
        with pytest.raises(StateSpaceLimit):
            build_ts(parse_static("({a},0.5)||({b},0.5)||({c},0.5)"), max_states=3)

    def test_equality_ignores_the_cached_tables(self):
        # two systems of the same states and transitions are equal whether
        # or not their outgoing lists, labels or readiness were built
        ts = ts_of("shared_memory")
        a, b = (TransitionSystem(list(ts.states), list(ts.transitions), ts.initial, ts.expr) for _ in range(2))
        assert a == b
        a.outgoing(0)
        assert a == b
        a.labels()
        a.readiness()
        assert a == b and b == a


class TestIsomorphism:
    def test_reflexive(self):
        ts = ts_of("ts_example")
        mapping = ts_isomorphic(ts, ts)
        assert mapping == {i: i for i in range(len(ts.states))}

    def test_arguments_freed_without_the_cyclic_collector(self):
        # a graph kept alive by a reference cycle lingers until the cyclic
        # collector runs, which allocation-light callers reach seldom
        ts = ts_of("shared_memory")
        ref = weakref.ref(ts)
        gc.disable()
        try:
            assert ts_isomorphic(ts, ts) is not None
            del ts
            assert ref() is None
        finally:
            gc.enable()

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
            got = {t.step for t in ts.outgoing(i) if t.step}
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
            assert {t.step for t in ts.outgoing(i) if t.step} == want_sets
            assert state.tangible == want_tangible


# ---------------------------------------------------------------------------
# Compositional classes against enumerated ones
# ---------------------------------------------------------------------------


def assert_classes_match(expr, every_member=False):
    """Each reachable class equals the class read off its enumeration by
    rewriting, both as the class tree interns it and as sets of members
    built from the members of subterm classes, starting from each operative
    member; with ``every_member``, from each member.  The tree's composed
    key is the least serialization of the enumerated members, and its first
    member is the one with that text."""
    engine, member_classes = Engine(), oracles.MemberClasses()
    ts = build_ts(expr, engine=engine)
    for state in ts.states:
        want = enumerated_class(state.members[0])
        for g in oracles.closure(state.members[0]) if every_member else state.members:
            _, initial, final = member_classes.summary(g)
            assert (member_classes.operatives(g), initial, final) == want, serialize(g)
            cid = engine.class_of(g)
            members = engine.members(cid)
            assert (tuple(members), *flags(engine, g)) == want, serialize(g)
            assert len(members) == len(want[0]), serialize(g)
            assert engine.key(cid) == serialize(want[0][0]) == state.key, serialize(g)
            assert members[0] == want[0][0], serialize(g)
            assert want[0] == tuple(state.members)


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
    @pytest.mark.parametrize("n", [3, 5])
    def test_shm_matches_net(self, n, abstract):
        expr = parse_model(shm_text(n, abstract)).instantiate()
        ts = build_ts(expr)
        assert len(ts.states) == (n + 2) * 2 ** (n - 1) + 1
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


TABLE_FORWARD, TABLE_BACKWARD = oracles.table_rule(True), oracles.table_rule(False)


def assert_rules_match(expr):
    """Every reachable class, enumerated from the class tree starting from
    any of its members, equals the class enumerated by rewriting with the
    hand-written rules; and at the root of every dynamic subterm of every
    member, the table read as rewrite rules gives the hand-written rewrites.

    ``Engine.closure(g)`` enumerates the class id of ``g``, so it is called
    once per class, and every other member is checked to have that class id:
    a call per member would enumerate each class once per member (one class
    of the bundled shared-memory model has 832 members)."""
    engine = Engine()
    subterms = set()
    for state in build_ts(expr).states:
        first = state.members[0]
        members = oracles.closure(first)
        assert engine.closure(first) == members, serialize(first)
        for g in members:
            assert engine.class_of(g) == engine.class_of(first), serialize(g)
            subterms.update(dynamic_subterms(g))
    for d in subterms:
        assert set(TABLE_FORWARD(d)) == set(oracles.forward_root(d)), serialize(d)
        assert set(TABLE_BACKWARD(d)) == set(oracles.backward_root(d)), serialize(d)


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
    """On every reachable class, the class tree's steps are the union of the
    hand-written rules' derivations over the enumerated members with
    priority applied, in step-key order, and each leads to the class of
    every target the members reach by it.  Before priority, they are the
    members' potential steps that do not mix immediate and stochastic
    activities (the parallel rule joins only steps of one kind)."""
    engine = Engine()
    ts = build_ts(expr, engine=engine)
    number = {s.key: i for i, s in enumerate(ts.states)}
    for i, state in enumerate(ts.states):
        cid = engine.class_of(state.members[0])
        members = tuple(state.members)
        got, tangible = engine.steps(cid)
        want = oracles.class_steps(members)
        assert [step for _, step, _ in got] == [step for step, _ in want], state.key
        for (_, step, target), (_, targets) in zip(got, want):
            assert {engine.class_of(t) for t in targets} == {target}, state.key
        assert [t.target for t in ts.outgoing(i) if t.step] == [number[engine.key(target)] for _, _, target in got]
        assert tangible == state.tangible == all(not u.immediate for step, _ in want for u in step)
        homogeneous = {s for h in members for s in potential_steps(h) if len({u.immediate for u in s}) == 1}
        assert set(engine._steps(cid)) == homogeneous, state.key


class TestDerivationReference:
    @pytest.mark.parametrize("expr", [pytest.param(e, id=label) for label, e in bundled_roots()]
                             + [pytest.param(parse_static(t), id=t) for t in RELABELING_TERMS])
    def test_bundled_roots_and_relabelings(self, expr):
        assert_derivations_match(expr)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_terms(self, seed):
        rng = make_rng(11000 + seed)
        assert_derivations_match(parse_static(random_regular_text(rng, max_activities=8, max_sync=2)))
