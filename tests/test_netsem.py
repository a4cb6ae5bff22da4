"""Net construction, the step firing rule, reachability, structural checks."""

import numpy as np
import pytest

import oracles
from dtsipbc import netsem
from dtsipbc.expr import Action, Activity, Multiset
from dtsipbc.markov import Chain
from dtsipbc.netsem import (
    DtsiBox,
    NetTransition,
    Place,
    box_of,
    build_rg,
    check_safe_clean,
)
from dtsipbc.opsem import StateSpaceLimit, build_ts, ts_isomorphic
from dtsipbc.parser import parse_model, parse_static

from conftest import RELABELING_TERMS, bundled_roots, instantiate, make_rng, random_regular_text, shm_text, step_prob


class TestConstruction:
    def test_single_activity_box(self):
        box = box_of(parse_static("({a},0.7)"))
        assert [p.label for p in box.places] == ["e", "x"]
        (t,) = box.transitions
        assert str(t.activity.part) == "{a}" and t.activity.value == 0.7
        assert t.pre == box.entries() and t.post == box.exits()

    def test_sequence_merges_exit_with_entry(self):
        box = box_of(parse_static("({a},0.5);({b},0.5)"))
        labels = sorted(p.label for p in box.places)
        assert labels == ["e", "i", "x"]

    def test_choice_merges_both_interfaces(self):
        box = box_of(parse_static("({a},0.5)[]({b},0.5)"))
        assert sorted(p.label for p in box.places) == ["e", "x"]
        assert len(box.transitions) == 2

    def test_parallel_is_disjoint(self):
        box = box_of(parse_static("({a},0.5)||({b},0.5)"))
        assert sorted(p.label for p in box.places) == ["e", "e", "x", "x"]

    def test_restriction_removes_transitions(self):
        box = box_of(parse_static("(({a},0.5)[]({b},0.5)) rs a"))
        assert len(box.transitions) == 1
        assert str(box.transitions[0].activity.part) == "{b}"

    def test_synchronization_adds_silent_transition(self):
        box = box_of(parse_static("(({a},0.5);({a^},0.5)) sy a"))
        parts = sorted(str(t.activity.part) for t in box.transitions)
        assert parts == sorted(["{}", "{a^}", "{a}"])
        silent = next(t for t in box.transitions if not t.activity.part)
        assert silent.activity.value == pytest.approx(0.25)
        assert silent.pre.cardinality == 2

    def test_iteration_single_interface(self):
        box = box_of(parse_static("[({a},0.5) * ({b},0.5) * ({c},0.5)]"))
        internals = [p for p in box.places if p.label == "i"]
        assert len(internals) == 1
        body = next(t for t in box.transitions if str(t.activity.part) == "{b}")
        assert body.pre == body.post  # body loops on the interface

    def test_every_transition_connected(self):
        rng = make_rng(5)
        for _ in range(30):
            e = parse_static(random_regular_text(rng))
            box = box_of(e)
            names = {p.name for p in box.places}
            for t in box.transitions:
                assert t.pre.items and t.post.items
                assert set(t.pre.keys()) <= names and set(t.post.keys()) <= names


class TestFiringRule:
    """The firing rule, read off the reachability graph's first marking."""

    def setup_method(self):
        self.box = box_of(parse_static("({a},0.3)[]({a},0.5)"))
        self.rg = build_rg(self.box)

    def test_priority_of_immediates(self):
        rg = build_rg(box_of(parse_static("({a},#1)||({b},0.5)")))
        assert [[u.immediate for u in t.step] for t in rg.outgoing(0)] == [[True]]
        assert not rg.states[0].tangible

    def test_enabled_empty_marking(self):
        # without its entry places the box starts from the empty marking,
        # which enables nothing and keeps ticking
        rg = build_rg(DtsiBox(tuple(p for p in self.box.places if p.label != "e"), self.box.transitions))
        assert rg.markings == [Multiset()]
        assert [(t.step, t.prob, t.target) for t in rg.outgoing(0)] == [(frozenset(), 1.0, 0)]

    def test_fire_moves_tokens(self):
        (t1, t2) = sorted(self.box.transitions)
        (move,) = [t for t in self.rg.outgoing(0) if t.step == {t1.activity}]
        assert self.rg.markings[move.target] == self.box.exits()

    def test_fire_probabilities_match_expression(self):
        ts = build_ts(parse_static("({a},0.3)[]({a},0.5)"))
        for t in sorted(self.box.transitions):
            got = step_prob(self.rg, frozenset({t.activity}), 0)
            want = next(
                tr.prob
                for tr in ts.outgoing(0)
                if tr.step and next(iter(tr.step)).value == t.activity.value
            )
            assert got == pytest.approx(want, abs=1e-12)
        assert step_prob(self.rg, frozenset(), 0) == pytest.approx(
            (1 - 0.3) * (1 - 0.5) / (1 - 0.15), abs=1e-12
        )

    def test_vanishing_marking_weights(self):
        box = box_of(parse_static("({a},#1)[]({a},#2)"))
        (t1, t2) = sorted(box.transitions, key=lambda t: t.activity.value)
        rg = build_rg(box)
        assert step_prob(rg, frozenset({t1.activity}), 0) == pytest.approx(1 / 3)
        assert step_prob(rg, frozenset({t2.activity}), 0) == pytest.approx(2 / 3)

    def test_conflicting_set_rejected(self):
        # both transitions take the one entry token: no step fires both
        (t1, t2) = self.box.transitions
        assert frozenset({t1.activity, t2.activity}) not in [t.step for t in self.rg.outgoing(0)]

    def test_empty_step_keeps_marking(self):
        (stay,) = [t for t in self.rg.outgoing(0) if not t.step]
        assert stay.target == 0


class TestReachability:
    def test_running_example_rg(self):
        e = instantiate("ts_example")
        rg = build_rg(box_of(e))
        assert len(rg.states) == 5
        assert sum(s.tangible for s in rg.states) == 4
        assert ts_isomorphic(build_ts(e), rg) is not None

    def test_shared_memory_rg(self):
        e = instantiate("shared_memory")
        rg = build_rg(box_of(e))
        assert len(rg.states) == 9
        assert ts_isomorphic(build_ts(e), rg) is not None

    def test_rg_rows_are_distributions(self):
        rg = build_rg(box_of(instantiate("shared_memory")))
        for i in range(len(rg.states)):
            assert sum(t.prob for t in rg.outgoing(i)) == pytest.approx(1.0, abs=1e-12)

    def test_synchronized_sequential_pair(self):
        # the silent synchronized transition requires two tokens at once and
        # never fires, so the graph matches the unsynchronized one
        e1 = parse_static("({a},0.5);({a^},0.5)")
        e2 = parse_static("(({a},0.5);({a^},0.5)) sy a")
        assert ts_isomorphic(build_rg(box_of(e1)), build_rg(box_of(e2))) is not None


class TestStructure:
    @pytest.mark.parametrize("name", [
        "ts_example", "choice_stoch", "choice_imm", "sync_pair",
        "qts_f", "shared_memory", "shared_memory_abstract",
    ])
    def test_bundled_boxes_safe_and_clean(self, name):
        report = check_safe_clean(box_of(instantiate(name)))
        assert report.safe and report.clean

    def test_unsafe_witness_detected(self):
        # hand-made 2-bounded net: one transition feeding a place twice
        t = NetTransition(
            Activity.make(Multiset.of(Action("a")), False, 0.5, 1),
            Multiset.of("p"),
            Multiset.from_counts({"q": 2}),
        )
        box = DtsiBox((Place("p", "e"), Place("q", "x")), (t,))
        report = check_safe_clean(box)
        assert not report.safe and report.unsafe_witness == "{q,q}"
        assert report == oracles.check_safe_clean(box)
        assert_same_rg(build_rg(box), oracles.build_rg(box))


# ---------------------------------------------------------------------------
# Index-coded exploration against the Multiset-coded reference
# ---------------------------------------------------------------------------


def assert_same_rg(rg, ref):
    """Same keys, tangibility, markings, and transitions in the same order
    with the same steps, targets and probability bits."""
    assert [(s.key, s.tangible) for s in rg.states] == [(s.key, s.tangible) for s in ref.states]
    assert rg.markings == ref.markings
    assert [(t.source, t.step, t.prob.hex(), t.target) for t in rg.transitions] == [
        (t.source, t.step, t.prob.hex(), t.target) for t in ref.transitions
    ]


def assert_same_net_semantics(expr, monkeypatch):
    box = box_of(expr)
    with monkeypatch.context() as patched:
        patched.setattr(netsem, "_syn_box", oracles.syn_box)
        reference = box_of(expr)
    assert box == reference
    assert [t.activity.num for t in box.transitions] == [t.activity.num for t in reference.transitions]
    assert_same_rg(build_rg(box), oracles.build_rg(box))
    assert check_safe_clean(box) == oracles.check_safe_clean(box)
    return box


class TestAgainstReference:
    @pytest.mark.parametrize("expr", [pytest.param(e, id=label) for label, e in bundled_roots()]
                             + [pytest.param(parse_static(t), id=t) for t in RELABELING_TERMS])
    def test_bundled_roots(self, expr, monkeypatch):
        assert_same_net_semantics(expr, monkeypatch)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("abstract", [True, False])
    def test_shared_memory_family(self, n, abstract, monkeypatch):
        assert_same_net_semantics(parse_model(shm_text(n, abstract)).instantiate(), monkeypatch)

    @pytest.mark.parametrize("text", [
        "((({a},0.5)||({a},0.5))||({a^,a^},0.5)) sy a",
        "(({a^,a^},#1)||(({a},#2)||({a,b},#3))) sy a",
        "((({a},0.5);({b^},0.5))||(({a^,b},0.5)||({b^,a^},0.5))) sy a sy b",
    ])
    def test_multiway_synchronization(self, text, monkeypatch):
        assert_same_net_semantics(parse_static(text), monkeypatch)

    def test_random_terms(self, monkeypatch):
        rng = make_rng(7000)
        for _ in range(100):
            assert_same_net_semantics(parse_static(random_regular_text(rng, max_activities=8)), monkeypatch)

    def test_repeated_activities_and_transitions(self):
        # hand-made: one activity on two transitions, and one transition
        # listed twice; they count once in a step and in the non-firing
        # product, and steps are ordered by activities, not by transitions
        a, b, c = (Activity.make(Multiset.of(Action(x)), False, v, k)
                   for k, (x, v) in enumerate((("a", 0.5), ("b", 0.3), ("c", 0.4))))
        tb = NetTransition(b, Multiset.of("p"), Multiset.of("r"))
        box = DtsiBox(
            (Place("p", "e"), Place("q", "e"), Place("s", "e"), Place("r", "x")),
            (tb, NetTransition(a, Multiset.of("q"), Multiset.of("r")), tb,
             NetTransition(a, Multiset.of("p"), Multiset.of("r")), NetTransition(c, Multiset.of("s"), Multiset.of("r"))),
        )
        assert_same_rg(build_rg(box), oracles.build_rg(box))
        assert check_safe_clean(box) == oracles.check_safe_clean(box)

    def test_state_space_limit(self):
        box = box_of(parse_model(shm_text(3)).instantiate())
        assert len(build_rg(box, max_states=21).states) == 21
        for explore in (build_rg, oracles.build_rg, check_safe_clean, oracles.check_safe_clean):
            with pytest.raises(StateSpaceLimit):
                explore(box, max_states=20)


# ---------------------------------------------------------------------------
# The reachability graph numbers its states as the transition system does
# ---------------------------------------------------------------------------


def assert_same_chain(expr):
    """The chains of ``build_ts`` and of the box's reachability graph have
    the same rows, labels, targets, kinds and probability bits (only the
    state keys differ), at the model's values and at three rows of leaf
    values, with the immediate weights scaled past one."""
    ts = build_ts(expr, max_states=20_000)
    rg = build_rg(box_of(expr), max_states=20_000)
    width = max((leaf for t in ts.transitions for u in t.step for leaf, _ in u.leaves), default=0)
    table = np.random.default_rng(len(ts.transitions)).uniform(0.01, 0.99, (3, width))
    for leaf in {leaf for t in ts.transitions for u in t.step if u.immediate for leaf, _ in u.leaves}:
        table[:, leaf - 1] *= 5
    for leaves in (None, table):
        a, b = Chain.from_ts(ts, leaves), Chain.from_ts(rg, leaves)
        assert a.indptr.tobytes() == b.indptr.tobytes()
        assert [a.labels[k] for k in a.label_ids.tolist()] == [b.labels[k] for k in b.label_ids.tolist()]
        assert a.targets.tobytes() == b.targets.tobytes()
        assert a.tangible == b.tangible and a.initial == b.initial
        assert a.probs.tobytes() == b.probs.tobytes()


class TestSameNumbering:
    @pytest.mark.parametrize("expr", [pytest.param(e, id=label) for label, e in bundled_roots()])
    def test_bundled_roots(self, expr):
        assert_same_chain(expr)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("abstract", [True, False])
    def test_shared_memory_family(self, n, abstract):
        assert_same_chain(parse_model(shm_text(n, abstract)).instantiate())

    def test_random_terms(self):
        rng = make_rng(901)
        for _ in range(200):
            assert_same_chain(parse_static(random_regular_text(rng)))


# ---------------------------------------------------------------------------
# One compiled net per box, one exploration of its packed markings
# ---------------------------------------------------------------------------


def count_explorations(monkeypatch):
    """The max_states of every exploration the compiled nets run from now on."""
    calls = []
    explore = netsem._Net.explore

    def counted(net, max_states):
        calls.append(max_states)
        return explore(net, max_states)

    monkeypatch.setattr(netsem._Net, "explore", counted)
    return calls


def shm3_box():
    return box_of(parse_model(shm_text(3)).instantiate())


def token_box(post_counts, start=None):
    """One stochastic transition from the entry place p to ``post_counts``;
    with the counts ``start``, p is internal, and a first transition from
    the entry place s puts ``start`` on p and q."""
    a = Multiset.of(Action("a"))
    t = NetTransition(Activity.make(a, False, 0.5, 1), Multiset.of("p"), Multiset.from_counts(post_counts))
    if start is None:
        return DtsiBox((Place("p", "e"), Place("q", "x")), (t,))
    first = NetTransition(Activity.make(a, False, 0.5, 2), Multiset.of("s"), Multiset.from_counts(start))
    return DtsiBox((Place("s", "e"), Place("p", "i"), Place("q", "x")), (t, first))


class TestSharedExploration:
    @pytest.mark.parametrize("rg_first", [False, True], ids=["safe_clean_first", "rg_first"])
    def test_one_exploration_in_either_order(self, rg_first, monkeypatch):
        box = shm3_box()
        calls = count_explorations(monkeypatch)
        if rg_first:
            rg = build_rg(box)
            report = check_safe_clean(box)
        else:
            report = check_safe_clean(box)
            rg = build_rg(box)
        assert calls == [100_000]
        assert report == oracles.check_safe_clean(box) and report.marking_count == 21
        assert_same_rg(rg, oracles.build_rg(box))

    def test_graph_releases_the_rows(self, monkeypatch):
        box = shm3_box()
        first = build_rg(box)
        markings, rows = box._net.explored
        assert len(markings) == 21 and rows is None
        calls = count_explorations(monkeypatch)
        assert check_safe_clean(box).marking_count == 21
        assert calls == []
        # the rows are gone, so a second graph explores again
        assert_same_rg(build_rg(box), first)
        assert len(calls) == 1

    def test_state_cap_reads_the_kept_exploration(self, monkeypatch):
        box = shm3_box()
        check_safe_clean(box)
        calls = count_explorations(monkeypatch)
        assert len(build_rg(box, max_states=21).states) == 21
        for explore in (build_rg, check_safe_clean):
            with pytest.raises(StateSpaceLimit):
                explore(box, max_states=20)
        assert check_safe_clean(box, max_states=21).marking_count == 21
        assert calls == []

    def test_capped_exploration_keeps_nothing(self):
        box = shm3_box()
        for explore in (check_safe_clean, build_rg):
            with pytest.raises(StateSpaceLimit):
                explore(box, max_states=20)
            assert box._net.explored is None
        assert check_safe_clean(box, max_states=21).marking_count == 21

    def test_entry_place_no_transition_touches(self):
        # its token stays in every marking
        shm3 = shm3_box()
        box = DtsiBox(shm3.places + (Place("elsewhere", "e"),), shm3.transitions)
        rg = build_rg(box)
        assert len(rg.states) == 21 and all("elsewhere" in m for m in rg.markings)
        assert_same_rg(rg, oracles.build_rg(box))

    @pytest.mark.parametrize("cap", [1, 2, 5, 64, 1000])
    def test_growing_net_hits_the_cap(self, cap):
        # every firing puts three more tokens on q, so no field width is
        # enough for all markings
        box = token_box({"p": 1, "q": 3})
        for explore in (build_rg, check_safe_clean, oracles.build_rg):
            with pytest.raises(StateSpaceLimit):
                explore(box, max_states=cap)
        assert box._net.explored is None
        deep = token_box({"p": 1, "q": 3}, start={"p": 1, "q": 3 * 2 ** 40})
        with pytest.raises(StateSpaceLimit):
            build_rg(deep, max_states=cap)

    def test_many_tokens_on_a_place(self):
        # the first step puts 300 tokens on p; each later one takes a token
        # from p and puts three on q: 301 markings after the first, and q
        # ends with three times the tokens that p started with
        box = token_box({"q": 3}, start={"p": 300})
        rg = build_rg(box)
        assert len(rg.states) == 302 and rg.markings[-1] == Multiset.from_counts({"q": 900})
        assert_same_rg(rg, oracles.build_rg(box))
        assert check_safe_clean(box) == oracles.check_safe_clean(box)
