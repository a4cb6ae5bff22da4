"""Multisets, activities, synchronization and the syntactic predicates."""

import dataclasses
import pickle
import sys

import pytest
from hypothesis import given, strategies as st

from dtsipbc.expr import (
    _KINDS,
    Act,
    Action,
    Activity,
    DRst,
    DSeq,
    DynamicExpr,
    Multiset,
    Over,
    Relabeling,
    Rst,
    Seq,
    StaticExpr,
    activities_of,
    apply_relabel,
    fold,
    is_iteration_body,
    is_regular,
    numbering_content,
    numbering_str,
    renumber,
    sync_activities,
    sync_parts,
    underlying,
)
from dtsipbc.netsem import box_of
from dtsipbc.parser import parse_dynamic, parse_static, serialize


def A(name, conj=False):
    return Action(name, conj)


def ms(*names):
    return Multiset.from_iterable(A(n.rstrip("^"), n.endswith("^")) for n in names)


small_bags = st.lists(st.sampled_from(["a", "b", "c", "a^", "b^"]), max_size=6).map(lambda xs: ms(*xs))


class TestMultiset:
    @given(small_bags, small_bags)
    def test_sum_counts(self, m1, m2):
        total = m1 + m2
        for x in set(m1.keys()) | set(m2.keys()):
            assert total.count(x) == m1.count(x) + m2.count(x)
        assert total.cardinality == m1.cardinality + m2.cardinality

    @given(small_bags, small_bags)
    def test_difference_saturates(self, m1, m2):
        diff = m1 - m2
        for x in m1.keys():
            assert diff.count(x) == max(0, m1.count(x) - m2.count(x))

    @given(small_bags, small_bags)
    def test_sum_then_difference_restores(self, m1, m2):
        assert (m1 + m2) - m2 == m1

    @given(small_bags, small_bags)
    def test_subset_partial_order(self, m1, m2):
        assert m1.issubset(m1 + m2)
        if m1.issubset(m2) and m2.issubset(m1):
            assert m1 == m2

    def test_str_deterministic(self):
        assert str(ms("b", "a", "a^")) == "{a,a^,b}"
        assert str(Multiset()) == "{}"


class TestSyncParts:
    def test_conjugate_pair_vanishes(self):
        assert sync_parts(ms("a"), ms("a^"), A("a")) == ms()

    def test_duplicate_action_keeps_one(self):
        assert sync_parts(ms("a", "a"), ms("a^"), A("a")) == ms("a")

    def test_disjoint_rest_is_kept(self):
        assert sync_parts(ms("a", "c"), ms("a^", "b"), A("a")) == ms("b", "c")

    def test_commutative(self):
        assert sync_parts(ms("a", "c"), ms("a^", "b"), A("a")) == sync_parts(
            ms("a^", "b"), ms("a", "c"), A("a")
        )

    def test_rejects_non_synchronizable(self):
        with pytest.raises(ValueError):
            sync_parts(ms("a"), ms("b"), A("a"))


class TestSyncActivities:
    def test_probabilities_multiply(self):
        u = Activity.make(ms("a"), False, 0.5, 1)
        v = Activity.make(ms("a^"), False, 0.4, 2)
        w = sync_activities(u, v, A("a"))
        assert w.part == ms()
        assert w.value == pytest.approx(0.2, abs=1e-15)
        assert numbering_str(w.num) == "(1)(2)"
        assert numbering_content(w.num) == {1, 2}

    def test_weights_add(self):
        u = Activity.make(ms("d1", "y1"), True, 1.5, 1)
        v = Activity.make(ms("y1^"), True, 1.5, 2)
        w = sync_activities(u, v, A("y1"))
        assert w.part == ms("d1")
        assert w.immediate and w.value == pytest.approx(3.0)

    def test_memory_access_pair(self):
        u = Activity.make(ms("m1", "z1"), False, 0.7, 1)
        v = Activity.make(ms("z1^"), False, 0.7, 2)
        w = sync_activities(u, v, A("z1"))
        assert w.part == ms("m1")
        assert w.value == pytest.approx(0.49)

    def test_orders_coincide_up_to_numbering_content(self):
        u = Activity.make(ms("a"), False, 0.3, 1)
        v = Activity.make(ms("a^"), False, 0.6, 2)
        assert sync_activities(u, v, A("a")) == sync_activities(v, u, A("a"))

    def test_mixed_kinds_rejected(self):
        u = Activity.make(ms("a"), False, 0.3, 1)
        v = Activity.make(ms("a^"), True, 2.0, 2)
        with pytest.raises(ValueError):
            sync_activities(u, v, A("a"))

    def test_self_synchronization_rejected(self):
        u = Activity.make(ms("a", "a^"), False, 0.3, 1)
        with pytest.raises(ValueError):
            sync_activities(u, u, A("a"))


class TestNumbering:
    def test_leaf(self):
        assert numbering_content(1) == {1}

    def test_pair_ignores_order(self):
        assert numbering_content((1, 2)) == {1, 2} == numbering_content((2, 1))

    def test_nested(self):
        assert numbering_content((1, (2, 3))) == {1, 2, 3}
        assert numbering_str((1, (2, 3))) == "(1)((2)(3))"


class TestRelabeling:
    def test_identity(self):
        f = Relabeling(())
        u = Activity.make(ms("a"), False, 0.5, 1)
        assert apply_relabel(f, [u]) == frozenset([u])

    def test_swap_preserves_conjugates(self):
        f = Relabeling.swap(("a", "b"))
        u = Activity.make(ms("a", "b^"), False, 0.3, 1)
        (w,) = apply_relabel(f, [u])
        assert w.part == ms("b", "a^")
        assert w.value == pytest.approx(0.3)

    def test_empty_multiset(self):
        assert apply_relabel(Relabeling.swap(("a", "b")), []) == frozenset()

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError):
            Relabeling((("a", "b"),))  # b is not mapped back anywhere


class TestRegularity:
    def test_sequential_body_is_regular(self):
        e = parse_static("[({a},0.5) * (({b},0.5);({c},0.5)) * Stop]")
        assert is_regular(e)

    def test_parallel_body_is_not(self):
        e = parse_static("[({a},0.5) * (({b},0.5)||({c},0.5)) * ({d},0.5)]")
        assert not is_regular(e)

    def test_parallel_outside_iteration_is_fine(self):
        assert is_regular(parse_static("({a},0.5)||({b},0.5)"))

    def test_parallel_in_seq_tail_of_body_is_fine(self):
        e = parse_static("[({a},0.5) * (({b},0.5);(({c},0.5)||({d},0.5))) * Stop]")
        assert is_regular(e)
        assert not is_iteration_body(parse_static("({c},0.5)||({d},0.5)"))

    def test_activity_values_validated(self):
        with pytest.raises(ValueError):
            Activity.make(ms("a"), False, 1.0, 1)
        with pytest.raises(ValueError):
            Activity.make(ms("a"), False, 0.0, 1)
        with pytest.raises(ValueError):
            Activity.make(ms("a"), True, 0.0, 1)


class TestNodeHash:
    def test_cached_hash_is_not_pickled(self):
        # string hashes differ between processes, so an unpickled node must
        # compute its hash afresh
        g = parse_dynamic("~((({a},0.5);({b},0.5))||({c},0.5))")
        u = Activity.make(ms("a", "b^"), False, 0.5, 3)
        for node in (g, u):
            h = hash(node)
            assert node.__dict__["_hash"] == h
            copy = pickle.loads(pickle.dumps(node))
            assert "_hash" not in copy.__dict__
            assert copy == node and hash(copy) == h
        # the numbering stays out of equality, hashing and ordering
        renumbered = dataclasses.replace(u, num=7)
        assert renumbered == u and hash(renumbered) == hash(u)
        assert not renumbered < u and not u < renumbered


class TestNodeKinds:
    def test_table_describes_every_field(self):
        assert len(_KINDS) == 17
        for kind, info in _KINDS.items():
            assert info.subtrees + info.attributes == tuple(f.name for f in dataclasses.fields(kind))
            if info.counterpart is not None:
                assert _KINDS[info.counterpart].counterpart is kind
                assert issubclass(kind, StaticExpr) != issubclass(info.counterpart, StaticExpr)

    def test_underlying_strips_every_bar(self):
        static = "((({a},0.5)[f: a<->c])||[({b},#1) * ({c},0.5) * Stop]) sy c rs b"
        for dynamic in ("(~(({a},0.5)[f: a<->c])||[({b},#1) * _({c},0.5) * Stop]) sy c rs b",
                        "(_(({a},0.5)[f: a<->c])||~[({b},#1) * ({c},0.5) * Stop]) sy c rs b"):
            assert underlying(parse_dynamic(dynamic)) == parse_static(static)

    def test_renumber_keeps_shape_and_attributes(self):
        e = parse_static("((({a},0.5)[f: a<->c])||[({b},#1) * ({c},0.5) * Stop]) sy c rs b")
        shifted = renumber(e, 11)
        assert [u.num for u in activities_of(shifted)] == [11, 12, 13, 14]
        assert renumber(shifted) == e

    @pytest.mark.parametrize("walk", [activities_of, renumber, is_regular, is_iteration_body])
    def test_static_walks_refuse_other_values(self, walk):
        for value in (parse_dynamic("~({a},0.5)"), 42, StaticExpr(), None):
            with pytest.raises(TypeError):
                walk(value)

    def test_underlying_refuses_non_expressions(self):
        for value in (42, DynamicExpr(), None):
            with pytest.raises(TypeError):
                underlying(value)



class TestFold:
    def test_post_order_left_to_right(self):
        e = parse_static("[({a},0.5) * (({b},0.5);({c},0.5)) * Stop] rs d")
        seen = []
        fold(e, lambda node, operands: seen.append((type(node).__name__, len(operands))))
        assert seen == [("Act", 0), ("Act", 0), ("Act", 0), ("Seq", 2), ("Act", 0), ("Rst", 1),
                        ("Ite", 3), ("Rst", 1)]

    def test_results_of_the_children_in_order(self):
        e = parse_static("(({a},0.5);({b},0.5))[]({c},0.5)")
        names = fold(e, lambda node, operands: str(node.activity.part) if isinstance(node, Act) else list(operands))
        assert names == [["{a}", "{b}"], "{c}"]


DEPTH = 5000


def deep_terms(depth: int):
    """A sequence of ``depth`` activities, and an activity under ``depth``
    restrictions, each also with a bar on its first activity."""
    u = Activity.make(Multiset.of(Action("a")), False, 0.5, 0)
    sequence, barred_sequence = Act(u), Over(Act(u))
    chain, barred_chain = Act(u), Over(Act(u))
    for _ in range(depth - 1):
        sequence, barred_sequence = Seq(sequence, Act(u)), DSeq(barred_sequence, Act(u))
    for _ in range(depth):
        chain, barred_chain = Rst(chain, "b"), DRst(barred_chain, "b")
    return {"sequence": (sequence, barred_sequence, ";".join(["({a},0.5)"] * depth)),
            "chain": (chain, barred_chain, "({a},0.5)" + " rs b" * depth)}


class TestDepth:
    """Every tree walk outside the step semantics takes terms nested far
    deeper than Python's recursion limit."""

    @pytest.mark.parametrize("shape", ["sequence", "chain"])
    def test_walks(self, shape):
        assert sys.getrecursionlimit() < DEPTH
        term, barred, text = deep_terms(DEPTH)[shape]
        numbered = renumber(term)
        leaves = [u.num for u in activities_of(numbered)]
        assert leaves == list(range(1, len(leaves) + 1))
        assert is_regular(numbered) and is_iteration_body(numbered)
        # ``==`` on nodes recurses, so the trees are compared by their texts
        assert serialize(numbered) == serialize(underlying(barred)) == text

    # each operator of a sequence copies the transitions of its operands, so
    # the box of a sequence takes time quadratic in its length: 5,000
    # activities take minutes, and 1,100 pass the recursion limit
    @pytest.mark.parametrize("shape, depth", [("sequence", 1100), ("chain", DEPTH)])
    def test_box_of(self, shape, depth):
        assert sys.getrecursionlimit() < depth
        term, _, _ = deep_terms(depth)[shape]
        assert len(box_of(renumber(term)).transitions) == (depth if shape == "sequence" else 1)
