"""Surface syntax, numbering, model files, and the parse/serialize round trip."""

import math

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dtsipbc.expr import Act, Cho, DCho, DPar, Ite, Over, Par, Rst, Seq, Under, activities_of
from dtsipbc.models import bundled_model_names, load_model, model_text
from dtsipbc.opsem import build_ts
from dtsipbc.parser import (MAX_GRID_POINTS, ModelFile, ParamSpec, ParseError, parse_dynamic, parse_model, parse_static,
                            serialize, tokenize)

from conftest import INDEX_FORMS, RELABELING_TERMS, make_rng, random_regular_text, shm_text


class TestParseStatic:
    def test_single_activity(self):
        e = parse_static("({a},0.5)")
        assert isinstance(e, Act)
        u = e.activity
        assert str(u.part) == "{a}" and not u.immediate
        assert u.value == 0.5 and u.num == 1

    def test_choice_numbering_left_to_right(self):
        e = parse_static("({a},1/3)[]({a},1/3)")
        assert isinstance(e, Cho)
        nums = [u.num for u in activities_of(e)]
        assert nums == [1, 2]
        assert activities_of(e)[0].value == pytest.approx(1 / 3)

    def test_running_example_shape(self):
        e = parse_static(
            "[({a},0.9) * (({b},0.8);((({c},#1.5);({d},0.7)) [] (({e},#2.5);({f},0.6)))) * Stop]"
        )
        assert isinstance(e, Ite)
        assert isinstance(e.body, Seq)
        assert isinstance(e.body.right, Cho)
        kinds = [u.immediate for u in activities_of(e)]
        # a, b, c(imm), d, e(imm), f, then the hidden idle activity
        assert kinds == [False, False, True, False, True, False, False]
        assert [u.num for u in activities_of(e)] == list(range(1, 8))

    def test_precedence_layers(self):
        e = parse_static("({a},0.5);({b},0.5)[]({c},0.5)||({d},0.5)")
        assert isinstance(e, Par)
        assert isinstance(e.left, Cho)
        assert isinstance(e.left.left, Seq)

    def test_postfix_binds_tightest(self):
        e = parse_static("({a},0.5);({b},0.5) rs b")
        assert isinstance(e, Seq)
        assert isinstance(e.right, Rst)

    def test_scoping_sugar(self):
        e = parse_static("(({a},0.5)||({a^},0.5)) sr(a)")
        assert isinstance(e, Rst) and e.action == "a"
        assert serialize(e).endswith("sy a rs a")

    def test_conjugates_and_empty_part(self):
        e = parse_static("({a^,b},0.5);({},0.25)")
        parts = [str(u.part) for u in activities_of(e)]
        assert parts == ["{a^,b}", "{}"]

    def test_weight_marker(self):
        e = parse_static("({a},#2.5)")
        assert e.activity.immediate and e.activity.value == 2.5

    def test_errors_carry_positions(self):
        with pytest.raises(ParseError) as err:
            parse_static("({a},0.5) []")
        assert "line 1" in str(err.value)

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            parse_static("({a},1.5)")
        with pytest.raises(ValueError):
            parse_static("({a},#0)")

    def test_unknown_name_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_static("({a},0.5);Nope")
        assert "Nope" in str(err.value)

    def test_non_bijective_relabel_rejected(self):
        with pytest.raises(ParseError):
            parse_static("({a},0.5)[f: a->b]")

    @pytest.mark.parametrize("text, message", [
        ("({a},1/0)", "line 1, col 8: zero denominator"),
        ("({a},1.5/2)", "line 1, col 10: a fraction takes whole numbers"),
    ])
    def test_fraction_of_whole_numbers(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_static(text)

    def test_nested_iterations(self):
        text = "({a},0.5)"
        for _ in range(5000):
            text = "[%s * ({b},0.5) * Stop]" % text
        assert serialize(parse_static(text)) == text


class TestDynamic:
    def test_overline_prefix(self):
        g = parse_dynamic("~(({a},0.5);({b},0.5))")
        assert isinstance(g, Over) and isinstance(g.expr, Seq)

    def test_bar_distribution_forms(self):
        g = parse_dynamic("~({a},0.5)||~({b},0.5)")
        assert isinstance(g, DPar)
        g2 = parse_dynamic("_({a},0.5)[]({b},0.5)")
        assert isinstance(g2, DCho) and isinstance(g2.left, Under)

    def test_double_bar_rejected(self):
        with pytest.raises((ParseError, ValueError)):
            parse_dynamic("~({a},0.5);~({b},0.5)")

    def test_dynamic_round_trip(self):
        for text in ("~(({a},0.5);({b},0.5))", "~({a},0.5);({b},0.5)", "_({a},0.5)[]({b},0.5)"):
            g = parse_dynamic(text)
            assert parse_dynamic(serialize(g)) == g


class TestRoundTrip:
    def test_random_terms(self):
        rng = make_rng(7)
        for text in [random_regular_text(rng) for _ in range(300)] + RELABELING_TERMS:
            e = parse_static(text)
            assert parse_static(serialize(e)) == e

    def test_whitespace_insensitive(self):
        a = parse_static("({a},0.5) ; ( ({b},0.5) [] ({c},0.5) )")
        b = parse_static("({a},0.5);(({b},0.5)[]({c},0.5))")
        assert a == b


class TestPrinter:
    """``serialize`` against the recursive printer of ``oracles``."""

    @staticmethod
    def assert_printed_alike(expr):
        assert serialize(expr) == oracles.serialize(expr)
        for state in build_ts(expr).states:
            for member in state.members:
                assert serialize(member) == oracles.serialize(member)

    @pytest.mark.parametrize("name", bundled_model_names() + ["shm3a", "shm3c"])
    def test_every_member_of_every_state(self, name):
        if name.startswith("shm3"):
            model = parse_model(shm_text(3, abstract=name == "shm3a"))
        else:
            model = load_model(name)
        self.assert_printed_alike(model.instantiate())
        if model.peer is not None:
            self.assert_printed_alike(model.instantiate_peer())

    def test_random_terms(self):
        rng = make_rng(12)
        for _ in range(200):
            self.assert_printed_alike(parse_static(random_regular_text(rng)))


class TestModelFiles:
    def test_shared_memory_round_trip(self):
        from dtsipbc.models import model_text

        model = parse_model(model_text("shared_memory"))
        k = model.instantiate()
        assert parse_static(serialize(k)) == k

    def test_constants_and_root(self):
        model = parse_model(
            """
            // comment line
            A = ({a},0.5)
            B = A;({b},0.5)
            root = B[]A
            """
        )
        e = model.instantiate()
        assert isinstance(e, Cho)
        assert [u.num for u in activities_of(e)] == [1, 2, 3]

    def test_parameters_substitute(self):
        model = parse_model(
            """
            param rho = 0.25
            param l = 2
            root = ({a},rho);({b},#l)
            """
        )
        e = model.instantiate()
        us = activities_of(e)
        assert us[0].value == 0.25 and us[1].value == 2.0
        e2 = model.instantiate({"rho": 0.75})
        assert activities_of(e2)[0].value == 0.75

    def test_sweep_grid(self):
        model = parse_model(
            """
            param rho = 0.1:0.9:0.1
            root = ({a},rho)
            """
        )
        points = model.sweep_grid()["rho"].tolist()
        assert len(points) == 9
        assert [round(p, 3) for p in points] == [round(0.1 * k, 3) for k in range(1, 10)]

    @pytest.mark.parametrize("rng", [(0.1, 0.9, 0.1), (0.0005, 0.9995, 0.0005), (-1.0, 1.0, 0.3), (1e-300, 1e-299, 1e-301),
                                     (5.0, 4.0, 1.0), (1e15, 1e15 + 10, 0.7)])
    def test_range_values(self, rng):
        # start + k * step, rounded to 12 decimals, while it does not pass
        # the stop by more than 1e-9 of a step
        start, stop, step = rng
        want, k = [], 0
        while start + k * step <= stop + step * 1e-9:
            want.append(round(start + k * step, 12))
            k += 1
        got = ParamSpec(sweep=rng).grid()
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("rng", [(0.0, math.inf, 1.0), (-math.inf, 1.0, 0.5), (0.0, 1.0, math.inf),
                                     (math.nan, 1.0, 0.1), (0.0, math.nan, 0.1), (0.0, 1.0, math.nan)])
    def test_range_not_finite(self, rng):
        with pytest.raises(ValueError, match="is not finite$"):
            ParamSpec(sweep=rng).grid()

    def test_range_past_the_point_cap(self):
        assert len(ParamSpec(sweep=(1.0, float(MAX_GRID_POINTS), 1.0)).grid()) == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="has more than 1000000 points"):
            ParamSpec(sweep=(1.0, MAX_GRID_POINTS + 1.0, 1.0)).grid()

    def test_peer_definition(self):
        model = parse_model("root = ({a},0.5)\npeer = ({a},1/3)[]({a},1/3)")
        assert model.peer is not None
        assert isinstance(model.instantiate_peer(), Cho)

    def test_missing_root_rejected(self):
        with pytest.raises(ParseError):
            parse_model("A = ({a},0.5)")

    def test_errors_in_post_order(self):
        # a subtree's error comes before its parent's, and a left operand's
        # before the right one's
        with pytest.raises(ValueError, match="unbound parameter 'x'"):
            parse_model("root = ({a},x);({b},1.5)").instantiate()
        with pytest.raises(ValueError, match="probability must lie"):
            parse_model("root = ({a},0.5);({b},1.5)[]({c},y)").instantiate()
        with pytest.raises(ValueError, match="unbound parameter 'y'"):
            parse_dynamic("(~({a},0.5))||({b},y)")
        with pytest.raises(ValueError, match="both operands of"):
            parse_dynamic("(~({a},0.5))||({b},0.5)")

    def test_irregular_root_rejected(self):
        with pytest.raises(ValueError):
            parse_model("root = [({a},0.5) * (({b},0.5)||({c},0.5)) * ({d},0.5)]").instantiate()

    def test_index_expressions(self):
        model = parse_model(
            """
            root = ({a},0.5)
            index one = 1
            index combo = (2 + 3) * 4 - 6 / 2
            index named = phi[2] / sj[2]
            index stepq = steprob[{a},{b^}]
            """
        )
        assert model.indices["one"] == ("num", 1.0)
        assert model.indices["combo"][0] == "bin"
        assert model.indices["named"][0] == "bin"
        assert model.indices["stepq"][0] == "steprob"

    def test_state_number_is_whole(self):
        with pytest.raises(ParseError, match="line 2, col 15: expected a state number"):
            parse_model("root = ({a},0.5)\nindex i = phi[1.5]\n")


# every token of both grammars, and the statement separator
SPLICE_TOKENS = ["(", ")", "[", "]", "{", "}", ",", ";", "*", "#", "^", "~", "_", "||", "[]", "rs", "sy", "sr",
                 "f", ":", "<->", "->", "a", "b", "Stop", "A", "0.5", "1/3", "-", "+", "/", "=", "phi",
                 "steprob", "2", "\n"]


def spliced(rng, text, count=4):
    """``text``, ``count`` of its truncations at token boundaries, and
    ``count`` copies with one token inserted, deleted or replaced."""
    toks = [t.text for t in tokenize(text)[:-1]]
    out = [text]
    for _ in range(count):
        out.append(" ".join(toks[:rng.randrange(len(toks) + 1)]))
        copy, at = list(toks), rng.randrange(len(toks))
        edit = rng.randrange(3)
        if edit == 0:
            copy.insert(at, rng.choice(SPLICE_TOKENS))
        elif edit == 1:
            del copy[at]
        else:
            copy[at] = rng.choice(SPLICE_TOKENS)
        out.append(" ".join(copy))
    return out


def random_index_text(rng, depth=5) -> str:
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(["phi[2]", "sj[1]", "2", "0.5", "steprob[{a},{b^}]", "var[3]"])
    form = rng.choice(["-%s", "--%s", "(%s)", "((%s))", "%s + %s", "%s - %s", "%s * %s", "%s / %s", "-(%s - -%s)"])
    return form % tuple(random_index_text(rng, depth - 1) for _ in range(form.count("%s")))


class TestAgainstRecursiveDescent:
    """The operator-precedence loop against the recursive-descent parsers of
    ``oracles``: the same template, or the same error."""

    @staticmethod
    def assert_parsed_alike(parse, reference, text):
        def outcome(parse):
            try:
                return parse(text)
            except ValueError as exc:  # a ParseError, or an error of instantiation
                return type(exc), str(exc)

        assert outcome(parse) == outcome(reference), text

    def test_random_terms(self):
        rng = make_rng(13)
        texts = [rng.choice(["", "", "~", "_"]) + random_regular_text(rng) for _ in range(250)]
        for text in texts + RELABELING_TERMS * 10:
            for variant in spliced(rng, text):
                self.assert_parsed_alike(parse_static, oracles.parse_static, variant)
                self.assert_parsed_alike(parse_dynamic, oracles.parse_dynamic, variant)

    @pytest.mark.parametrize("name", bundled_model_names() + ["shm%d%s" % (n, v) for n in range(2, 6) for v in "ac"])
    def test_model_files(self, name):
        text = shm_text(int(name[3]), abstract=name[4] == "a") if name.startswith("shm") else model_text(name)
        self.assert_parsed_alike(parse_model, oracles.parse_model, text)

    def test_index_lines(self):
        rng = make_rng(14)
        lines = [form.partition(" = ")[2] for form in INDEX_FORMS] + [random_index_text(rng) for _ in range(250)]
        for line in lines:
            for variant in spliced(rng, line):
                text = "root = ({a},0.5)\nindex i = %s\n" % variant
                self.assert_parsed_alike(parse_model, oracles.parse_model, text)


_ATOMS = ["({a},0.5)", "({b^,c},1/3)", "({},#2)", "({a},rho)", "({a},1/0)", "({a},1.5/2)", "Stop", "A",
          # numbers outside the float range, and past the digit limit of int()
          "({a},#1e999)", "({a},1%s/1)" % ("0" * 400), "({a},1/1%s)" % ("0" * 400),
          "({a},#%s/%s)" % ("7" * 5001, "3" * 5001), "({a},#1%s)" % ("0" * 5000)]
_terms = st.recursive(st.sampled_from(_ATOMS), lambda term: st.one_of(
    st.tuples(term, st.sampled_from([";", "[]", "||"]), term).map(" ".join),
    st.tuples(st.sampled_from(["~", "_"]), term).map("".join),
    term.map("(%s)".__mod__),
    st.tuples(term, term, term).map("[%s * %s * %s]".__mod__),
    st.tuples(term, st.sampled_from([" rs a", " sy b", " sr(a,b)", "[f: a<->b]"])).map("".join),
), max_leaves=6)
_soup = st.lists(st.sampled_from(_ATOMS + SPLICE_TOKENS[:-1] + ["phi[2]", "steprob[{a}]", "rs a", "sr(a,b)"]),
                 max_size=10).map(" ".join)
_model_texts = st.lists(
    st.tuples(st.sampled_from(["root =", "peer =", "A =", "index i =", "param rho =", ""]), st.one_of(_terms, _soup))
    .map(" ".join),
    min_size=1, max_size=5,
).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(_model_texts)
def test_only_input_errors_escape(text):
    """Generated model texts, with unbalanced brackets, bars and blank
    lines: parsing and instantiation fail with a ``ValueError`` or not at
    all."""
    try:
        model = parse_model(text)
    except ValueError:
        return
    for instantiate in (model.instantiate, model.instantiate_peer):
        try:
            instantiate()
        except ValueError:
            pass
