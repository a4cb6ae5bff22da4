"""Reference implementations that only the tests use.

Each re-derives the slow, plain way what the program computes fast:

* by brute force over single terms or whole enumerated classes, what the
  step semantics computes compositionally;
* by sets of member terms built from the members of subterm classes, the
  classes that the step semantics interns as a tree of class ids;
* by rewriting terms, with one hand-written rule list per node kind, the
  structural-equivalence classes that the program reads off one table of
  port groups as a class tree; the same table read as rewrite rules is
  checked against the hand-written ones;
* by one hand-written rule per node kind, the step derivation that the
  program writes as one generic rule and a table of step maps;
* by one recursive call per node, the text that the program prints in one
  post-order walk through ``parser.compose``;
* by recursive descent, one method per precedence level, the templates and
  index trees that the program reads with one operator-precedence loop;
* by ``Multiset`` arithmetic on named places, what the net semantics
  computes on index-coded markings;
* by one arc at a time, row by row, the chains that the program stores
  as row-ordered arrays and sums into matrices in one place;
* by scalar loops, one matrix and one state at a time, what the solver
  computes on stacks of matrices;
* by one product per step in set order, the step probabilities that the
  program compiles into index arrays (``opsem.Readiness``);
* by Python float arithmetic, one index and one solution at a time, the
  index values that the program evaluates over a stack of solutions;
* by instantiating, reweighting and solving one grid point after another,
  what the sweep computes for the whole grid at once; by binding and
  range-checking one leaf of one point at a time, the leaf values that the
  program builds as one array, column by column; by one dictionary and one
  ``csv`` row per point, and ``min``/``max`` over (value, grid tuple)
  pairs, the table and the extrema that the program writes from columns.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from dtsipbc.expr import (
    Act,
    Action,
    Activity,
    Cho,
    DCho,
    DIte,
    DPar,
    DRel,
    DRst,
    DSeq,
    DSyn,
    DynamicExpr,
    Ite,
    Multiset,
    Over,
    Par,
    Rel,
    Relabeling,
    Rst,
    Seq,
    StaticExpr,
    Syn,
    Under,
    _attributes,
    _children,
    _kind,
    _rebuild,
    _renumbered,
    is_dynamic,
    is_stop,
    renumber,
    sync_activities,
    underlying,
)
from dtsipbc.markov import (
    AnalysisError,
    Chain,
    SojournStats,
    SolveResult,
    StationaryResult,
)
from dtsipbc.netsem import DtsiBox, NetTransition, StructureReport, enabled, fire, marking_key
from dtsipbc.opsem import (
    _GROUP_OF,
    _PORT_GROUPS,
    ALL,
    SemanticsError,
    State,
    StateSpaceLimit,
    Step,
    Transition,
    TransitionSystem,
    _saturate_step,
    leaf_values_of,
    step_key,
    step_label,
)
from dtsipbc.parser import (
    _PAR,
    _SYNTAX,
    _VECTOR_NAMES,
    ModelFile,
    ParamSpec,
    ParseError,
    Token,
    TokenStream,
    _expect_done,
    _instantiate,
    _bound,
    _parse_number,
    tokenize,
)


# ---------------------------------------------------------------------------
# The printer
# ---------------------------------------------------------------------------


def serialize(e) -> str:
    """The text of ``e``, one recursive call per node."""
    return _ser(e, _PAR)


def _ser(e, need: int) -> str:
    if isinstance(e, Act):
        return str(e.activity)
    syntax = _SYNTAX.get(type(e))
    if syntax is None:
        raise TypeError("cannot serialize %r" % (e,))
    _, level, form, operands, _ = syntax
    if isinstance(e, StaticExpr) and is_stop(e):
        text = "Stop"
    else:
        fields = [_ser(getattr(e, name), at) for name, at in operands] + _attributes(e)
        text = form % tuple(fields)
    return "(%s)" % text if level < need else text


# ---------------------------------------------------------------------------
# The parser, one method per precedence level
# ---------------------------------------------------------------------------


def parse_static(text: str, bindings: Optional[Dict[str, float]] = None) -> StaticExpr:
    tokens = TokenStream(tokenize(text))
    template = ExprParser(tokens, {}).parse()
    _expect_done(tokens)
    expr = _instantiate(template, bindings or {})
    if is_dynamic(expr):
        raise ParseError("expected a static expression, found bars", 1, 1)
    return renumber(expr)


def parse_dynamic(text: str, bindings: Optional[Dict[str, float]] = None) -> DynamicExpr:
    tokens = TokenStream(tokenize(text))
    template = ExprParser(tokens, {}).parse()
    _expect_done(tokens)
    expr = _instantiate(template, bindings or {})
    if not is_dynamic(expr):
        raise ParseError("expected bars on a dynamic expression", 1, 1)
    return _renumbered(expr, 1, _children)


def parse_model(text: str) -> ModelFile:
    """The model file of ``text``, each term and index read by recursive
    descent."""
    stream = TokenStream(tokenize(text, keep_newlines=True))
    model = ModelFile()
    while stream.peek().kind != "eof":
        if stream.peek().kind == "newline":
            stream.next()
            continue
        stmt: List[Token] = []
        while stream.peek().kind not in ("newline", "eof"):
            stmt.append(stream.next())
        head = stmt[0]
        sub = TokenStream(stmt[1:] + [Token("eof", "", head.line, 0)])
        if head.kind != "name":
            raise ParseError("expected a definition", head.line, head.col)
        if head.text == "param":
            name = sub.expect_name().text
            sub.expect("=")
            start = _parse_number(sub)
            if sub.accept(":"):
                stop = _parse_number(sub)
                sub.expect(":")
                step = _parse_number(sub)
                model.params[name] = ParamSpec(sweep=(start, stop, step))
            else:
                model.params[name] = ParamSpec(value=start)
        elif head.text == "index":
            name = sub.expect_name().text
            sub.expect("=")
            model.indices[name] = parse_index_expr(sub)
            _expect_done(sub)
        else:
            sub.expect("=")
            template = ExprParser(sub, dict(model.constants)).parse()
            _expect_done(sub)
            if head.text == "root":
                model.root = template
            elif head.text == "peer":
                model.peer = template
            else:
                if head.text in model.constants or head.text in ("Stop",):
                    raise ParseError("name %r is already defined" % head.text, head.line, head.col)
                model.constants[head.text] = template
    if model.root is None:
        raise ParseError("model defines no root expression", 1, 1)
    return model


def _parse_action(tokens: TokenStream) -> Tuple[str, bool]:
    name = tokens.expect_name().text
    conj = tokens.accept("^") is not None
    return name, conj


def _parse_activity(tokens: TokenStream) -> tuple:
    # '(' '{' actions '}' ',' value ')' with '(' already consumed
    tokens.expect("{")
    actions: List[Tuple[str, bool]] = []
    if not tokens.accept("}"):
        actions.append(_parse_action(tokens))
        while tokens.accept(","):
            actions.append(_parse_action(tokens))
        tokens.expect("}")
    tokens.expect(",")
    immediate = tokens.accept("#") is not None
    tok = tokens.peek()
    if tok.kind == "name":
        tokens.next()
        value = tok.text
    else:
        value = _parse_number(tokens)
    tokens.expect(")")
    return ("act", tuple(actions), immediate, value)


class ExprParser:
    def __init__(self, tokens: TokenStream, constants: Dict[str, tuple]):
        self.tokens = tokens
        self.constants = constants

    def parse(self) -> tuple:
        return self._parallel()

    def _parallel(self) -> tuple:
        node = self._choice()
        while self.tokens.accept("||"):
            node = ("par", node, self._choice())
        return node

    def _choice(self) -> tuple:
        node = self._sequence()
        while self.tokens.accept("[]"):
            node = ("cho", node, self._sequence())
        return node

    def _sequence(self) -> tuple:
        node = self._unary()
        while self.tokens.accept(";"):
            node = ("seq", node, self._unary())
        return node

    def _unary(self) -> tuple:
        node = self._prefixed()
        while True:
            tok = self.tokens.peek()
            if tok.kind == "name" and tok.text == "rs":
                self.tokens.next()
                node = ("rst", node, self.tokens.expect_name().text)
            elif tok.kind == "name" and tok.text == "sy":
                self.tokens.next()
                node = ("syn", node, self.tokens.expect_name().text)
            elif tok.kind == "name" and tok.text == "sr":
                self.tokens.next()
                self.tokens.expect("(")
                names = [self.tokens.expect_name().text]
                while self.tokens.accept(","):
                    names.append(self.tokens.expect_name().text)
                self.tokens.expect(")")
                for a in names:
                    node = ("syn", node, a)
                for a in names:
                    node = ("rst", node, a)
            elif tok.text == "[" and self._relabel_ahead():
                node = ("rel", node, self._parse_relabel())
            else:
                return node

    def _relabel_ahead(self) -> bool:
        nxt = self.tokens.tokens[self.tokens.pos + 1 : self.tokens.pos + 3]
        return len(nxt) == 2 and nxt[0].text == "f" and nxt[1].text == ":"

    def _parse_relabel(self) -> Relabeling:
        self.tokens.expect("[")
        self.tokens.expect("f")
        self.tokens.expect(":")
        pairs: List[Tuple[str, str]] = []
        while True:
            x = self.tokens.expect_name().text
            if self.tokens.accept("<->"):
                y = self.tokens.expect_name().text
                pairs.append((x, y))
                if x != y:
                    pairs.append((y, x))
            else:
                self.tokens.expect("->")
                y = self.tokens.expect_name().text
                pairs.append((x, y))
            if not self.tokens.accept(","):
                break
        self.tokens.expect("]")
        try:
            return Relabeling(tuple(sorted(set(pairs))))
        except ValueError as exc:
            raise self.tokens.error(str(exc))

    def _prefixed(self) -> tuple:
        if self.tokens.accept("~"):
            return ("over", self._prefixed())
        if self.tokens.accept("_"):
            return ("under", self._prefixed())
        return self._primary()

    def _primary(self) -> tuple:
        tok = self.tokens.peek()
        if tok.text == "(":
            self.tokens.next()
            if self.tokens.peek().text == "{":
                return _parse_activity(self.tokens)
            node = self._parallel()
            self.tokens.expect(")")
            return node
        if tok.text == "[":
            self.tokens.next()
            init = self._parallel()
            self.tokens.expect("*")
            body = self._parallel()
            self.tokens.expect("*")
            term = self._parallel()
            self.tokens.expect("]")
            return ("ite", init, body, term)
        if tok.kind == "name":
            if tok.text == "Stop":
                self.tokens.next()
                return ("stop",)
            if tok.text in self.constants:
                self.tokens.next()
                return self.constants[tok.text]
            raise self.tokens.error("unknown name %r" % tok.text)
        raise self.tokens.error("expected an expression, found %r" % (tok.text or "end of input"))


def parse_index_expr(tokens: TokenStream) -> tuple:
    def parse_sum():
        node = parse_term()
        while True:
            if tokens.accept("+"):
                node = ("bin", "+", node, parse_term())
            elif tokens.accept("-"):
                node = ("bin", "-", node, parse_term())
            else:
                return node

    def parse_term():
        node = parse_factor()
        while True:
            if tokens.accept("*"):
                node = ("bin", "*", node, parse_factor())
            elif tokens.accept("/"):
                node = ("bin", "/", node, parse_factor())
            else:
                return node

    def parse_factor():
        tok = tokens.peek()
        if tokens.accept("-"):
            return ("neg", parse_factor())
        if tokens.accept("("):
            node = parse_sum()
            tokens.expect(")")
            return node
        if tok.kind == "number":
            tokens.next()
            return ("num", float(tok.text))
        if tok.kind == "name" and tok.text in _VECTOR_NAMES:
            tokens.next()
            tokens.expect("[")
            idx = tokens.peek()
            if not idx.text.isdigit():  # as the program reads it: int() takes no decimals
                raise tokens.error("expected a state number")
            tokens.next()
            tokens.expect("]")
            return ("vec", tok.text, int(idx.text))
        if tok.kind == "name" and tok.text == "steprob":
            tokens.next()
            tokens.expect("[")
            parts = [_parse_index_multiaction(tokens)]
            while tokens.accept(","):
                parts.append(_parse_index_multiaction(tokens))
            tokens.expect("]")
            return ("steprob", tuple(parts))
        raise tokens.error("expected a number, phi[i], sj[i] or steprob[...]")

    return parse_sum()


def _parse_index_multiaction(tokens: TokenStream) -> Multiset:
    tokens.expect("{")
    actions: List[Action] = []
    if not tokens.accept("}"):
        name, conj = _parse_action(tokens)
        actions.append(Action(name, conj))
        while tokens.accept(","):
            name, conj = _parse_action(tokens)
            actions.append(Action(name, conj))
        tokens.expect("}")
    return Multiset.from_iterable(actions)


# ---------------------------------------------------------------------------
# Bar-moving rules, written out per node kind and read off the table
# ---------------------------------------------------------------------------


def forward_root(d: DynamicExpr) -> List[DynamicExpr]:
    """The forward bar-moving rules at the root of ``d``."""
    out: List[DynamicExpr] = []
    if isinstance(d, Over):
        e = d.expr
        if isinstance(e, Seq):
            out.append(DSeq(Over(e.left), e.right))
        elif isinstance(e, Cho):
            out.append(DCho(Over(e.left), e.right))
            out.append(DCho(e.left, Over(e.right)))
        elif isinstance(e, Par):
            out.append(DPar(Over(e.left), Over(e.right)))
        elif isinstance(e, Rel):
            out.append(DRel(Over(e.child), e.func))
        elif isinstance(e, Rst):
            out.append(DRst(Over(e.child), e.action))
        elif isinstance(e, Syn):
            out.append(DSyn(Over(e.child), e.action))
        elif isinstance(e, Ite):
            out.append(DIte(Over(e.init), e.body, e.term))
    elif isinstance(d, DSeq):
        if isinstance(d.left, Under):
            out.append(DSeq(d.left.expr, Over(d.right)))
        if isinstance(d.right, Under):
            out.append(Under(Seq(d.left, d.right.expr)))
    elif isinstance(d, DCho):
        if isinstance(d.left, Under):
            out.append(Under(Cho(d.left.expr, d.right)))
        if isinstance(d.right, Under):
            out.append(Under(Cho(d.left, d.right.expr)))
    elif isinstance(d, DPar):
        if isinstance(d.left, Under) and isinstance(d.right, Under):
            out.append(Under(Par(d.left.expr, d.right.expr)))
    elif isinstance(d, DRel):
        if isinstance(d.child, Under):
            out.append(Under(Rel(d.child.expr, d.func)))
    elif isinstance(d, DRst):
        if isinstance(d.child, Under):
            out.append(Under(Rst(d.child.expr, d.action)))
    elif isinstance(d, DSyn):
        if isinstance(d.child, Under):
            out.append(Under(Syn(d.child.expr, d.action)))
    elif isinstance(d, DIte):
        if isinstance(d.init, Under):
            out.append(DIte(d.init.expr, Over(d.body), d.term))
        if isinstance(d.body, Under):
            out.append(DIte(d.init, Over(d.body.expr), d.term))
            out.append(DIte(d.init, d.body.expr, Over(d.term)))
        if isinstance(d.term, Under):
            out.append(Under(Ite(d.init, d.body, d.term.expr)))
    return out


def backward_root(d: DynamicExpr) -> List[DynamicExpr]:
    """The backward bar-moving rules at the root of ``d``: each forward rule
    read right to left."""
    out: List[DynamicExpr] = []
    if isinstance(d, DSeq):
        if isinstance(d.left, Over):
            out.append(Over(Seq(d.left.expr, d.right)))
        if isinstance(d.right, Over):
            out.append(DSeq(Under(d.left), d.right.expr))
    elif isinstance(d, Under):
        e = d.expr
        if isinstance(e, Seq):
            out.append(DSeq(e.left, Under(e.right)))
        elif isinstance(e, Cho):
            out.append(DCho(Under(e.left), e.right))
            out.append(DCho(e.left, Under(e.right)))
        elif isinstance(e, Par):
            out.append(DPar(Under(e.left), Under(e.right)))
        elif isinstance(e, Rel):
            out.append(DRel(Under(e.child), e.func))
        elif isinstance(e, Rst):
            out.append(DRst(Under(e.child), e.action))
        elif isinstance(e, Syn):
            out.append(DSyn(Under(e.child), e.action))
        elif isinstance(e, Ite):
            out.append(DIte(e.init, e.body, Under(e.term)))
    elif isinstance(d, DCho):
        if isinstance(d.left, Over):
            out.append(Over(Cho(d.left.expr, d.right)))
        if isinstance(d.right, Over):
            out.append(Over(Cho(d.left, d.right.expr)))
    elif isinstance(d, DPar):
        if isinstance(d.left, Over) and isinstance(d.right, Over):
            out.append(Over(Par(d.left.expr, d.right.expr)))
    elif isinstance(d, DRel):
        if isinstance(d.child, Over):
            out.append(Over(Rel(d.child.expr, d.func)))
    elif isinstance(d, DRst):
        if isinstance(d.child, Over):
            out.append(Over(Rst(d.child.expr, d.action)))
    elif isinstance(d, DSyn):
        if isinstance(d.child, Over):
            out.append(Over(Syn(d.child.expr, d.action)))
    elif isinstance(d, DIte):
        if isinstance(d.init, Over):
            out.append(Over(Ite(d.init.expr, d.body, d.term)))
        if isinstance(d.body, Over):
            out.append(DIte(Under(d.init), d.body.expr, d.term))
            out.append(DIte(d.init, Under(d.body.expr), d.term))
        if isinstance(d.term, Over):
            out.append(DIte(d.init, Under(d.body), d.term.expr))
    return out


def rewrites(d: DynamicExpr, root_rule) -> List[DynamicExpr]:
    """Apply a root rule at every dynamic position of ``d``."""
    out = list(root_rule(d))
    if isinstance(d, (Over, Under)):
        return out
    if isinstance(d, DSeq):
        if isinstance(d.left, DynamicExpr):
            out.extend(DSeq(g, d.right) for g in rewrites(d.left, root_rule))
        if isinstance(d.right, DynamicExpr):
            out.extend(DSeq(d.left, g) for g in rewrites(d.right, root_rule))
    elif isinstance(d, DCho):
        if isinstance(d.left, DynamicExpr):
            out.extend(DCho(g, d.right) for g in rewrites(d.left, root_rule))
        if isinstance(d.right, DynamicExpr):
            out.extend(DCho(d.left, g) for g in rewrites(d.right, root_rule))
    elif isinstance(d, DPar):
        out.extend(DPar(g, d.right) for g in rewrites(d.left, root_rule))
        out.extend(DPar(d.left, g) for g in rewrites(d.right, root_rule))
    elif isinstance(d, DRel):
        out.extend(DRel(g, d.func) for g in rewrites(d.child, root_rule))
    elif isinstance(d, DRst):
        out.extend(DRst(g, d.action) for g in rewrites(d.child, root_rule))
    elif isinstance(d, DSyn):
        out.extend(DSyn(g, d.action) for g in rewrites(d.child, root_rule))
    elif isinstance(d, DIte):
        if isinstance(d.init, DynamicExpr):
            out.extend(DIte(g, d.body, d.term) for g in rewrites(d.init, root_rule))
        if isinstance(d.body, DynamicExpr):
            out.extend(DIte(d.init, g, d.term) for g in rewrites(d.body, root_rule))
        if isinstance(d.term, DynamicExpr):
            out.extend(DIte(d.init, d.body, g) for g in rewrites(d.term, root_rule))
    return out


def table_rule(forward: bool):
    """The rewrites of a dynamic expression at its root, by the rules of
    ``opsem._PORT_GROUPS`` read forward or backward."""
    moves = {kind: [] for kind in _PORT_GROUPS}  # per kind, (from port, to port) pairs
    for kind, groups in _PORT_GROUPS.items():
        for group in groups:
            for p, q in zip(group, group[1:]):
                if (q[0] is None) == (q[1] is Over):  # a forward rule leaves q
                    p, q = q, p
                moves[kind].append((p, q) if forward else (q, p))

    def rule(d: DynamicExpr) -> List[DynamicExpr]:
        root_bar = type(d) if isinstance(d, (Over, Under)) else None
        node = d.expr if root_bar else d
        kind = _kind(node).counterpart if root_bar else type(d)
        if kind is None:  # a barred activity
            return []
        args = _children(node)
        out: List[DynamicExpr] = []
        for (k, bar), (j, end) in moves[kind]:
            # take the bar off at port (k, bar) ...
            if k is None and bar is root_bar:
                bare = args
            elif k is ALL and all(isinstance(x, bar) for x in args):
                bare = [x.expr for x in args]
            elif k not in (None, ALL) and isinstance(args[k], bar):
                bare = args[:k] + [args[k].expr] + args[k + 1:]
            else:
                continue
            # ... and put it on at port (j, end)
            if j is None:
                out.append(end(_rebuild(node, bare, _kind(node).counterpart)))
            else:
                out.append(_rebuild(node, [end(x) if j in (i, ALL) else x for i, x in enumerate(bare)], kind))
        return out

    return rule


def closure(g: DynamicExpr) -> FrozenSet[DynamicExpr]:
    """Every member of the class of ``g``, by exhaustive rewriting with the
    rules above."""
    seen = {g}
    frontier = [g]
    while frontier:
        d = frontier.pop()
        for nxt in rewrites(d, forward_root) + rewrites(d, backward_root):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


# ---------------------------------------------------------------------------
# Classes by enumeration
# ---------------------------------------------------------------------------


def enumerated_class(g: DynamicExpr) -> Tuple[Tuple[DynamicExpr, ...], bool, bool]:
    """Operative members in serialization order and the initial and final
    flags of the class of ``g``, read off the whole enumerated closure."""
    members = closure(g)
    ops = tuple(sorted((d for d in members if not rewrites(d, forward_root)), key=serialize))
    return ops, Over(underlying(g)) in members, Under(underlying(g)) in members


# ---------------------------------------------------------------------------
# Classes from the members of their subterms' classes
# ---------------------------------------------------------------------------


# operative members of a class, whether it holds Over(e), whether it holds Under(e)
Summary = Tuple[FrozenSet[DynamicExpr], bool, bool]


class MemberClasses:
    """The operative members of a class, built as sets of terms from the
    members of its subterms' classes: the product of the components'
    members under a parallel composition, and a fixed point over the linked
    argument classes under any other node.  This is the route that the
    class tree replaced; it builds every member."""

    def __init__(self):
        self._summaries: Dict[DynamicExpr, Summary] = {}

    def operatives(self, g: DynamicExpr) -> Tuple[DynamicExpr, ...]:
        """Members of the class of ``g`` that no forward rule rewrites, in
        serialization order."""
        return tuple(sorted(self.summary(g)[0], key=serialize))

    def summary(self, g: DynamicExpr) -> Summary:
        """Operatives and initial/final flags of the class of ``g``."""
        cached = self._summaries.get(g)
        if cached is not None:
            return cached
        if isinstance(g, (Over, Under)):
            if isinstance(g.expr, Act):
                result = (frozenset((g,)), isinstance(g, Over), isinstance(g, Under))
            else:
                # one root rule away from a compound node of the same class
                root_rule = forward_root if isinstance(g, Over) else backward_root
                result = self.summary(root_rule(g)[0])
        elif isinstance(g, DPar):
            left_ops, left_initial, left_final = self.summary(g.left)
            right_ops, right_initial, right_final = self.summary(g.right)
            ops = {
                DPar(x, y)
                for x in left_ops
                for y in right_ops
                if not (isinstance(x, Under) and isinstance(y, Under))
            }
            final = left_final and right_final
            if final:
                ops.add(Under(underlying(g)))
            result = (frozenset(ops), left_initial and right_initial, final)
        else:
            result = self._linked(g)
        self._summaries[g] = result
        return result

    def _linked(self, g: DynamicExpr) -> Summary:
        """Summary of a node with one dynamic argument: a fixed point over the
        argument classes that the node's links reach from the one in ``g``."""
        kind, group_of = type(g), _GROUP_OF[type(g)]
        args, attributes = _children(g), _attributes(g)
        at = next(k for k, x in enumerate(args) if isinstance(x, DynamicExpr))
        static: Optional[List[object]] = None  # args with the skeleton at ``at``
        ops = set()
        whole = set()
        active = set()
        todo = [(at, args[at])]
        seen = set(todo)
        while todo:
            k, child = todo.pop()
            child_ops, initial, final = self.summary(child)
            around = args if k == at else static
            for x in child_ops:
                # Under(child) would rewrite forward at this node's root
                if not isinstance(x, Under):
                    ops.add(kind(*around[:k], x, *around[k + 1:], *attributes))
            for bar, reached in ((Over, initial), (Under, final)):
                group = group_of[(k, bar)]
                if not reached or group in active:
                    continue
                active.add(group)
                if static is None:
                    static = list(args)
                    static[at] = underlying(args[at])
                for j, end in group:
                    if j is None:
                        whole.add(end)
                        continue
                    port = (j, end(static[j]))
                    if port not in seen:
                        seen.add(port)
                        todo.append(port)
        if Under in whole:
            ops.add(Under(underlying(g)))
        return frozenset(ops), Over in whole, Under in whole


# ---------------------------------------------------------------------------
# Step probabilities, one state at a time in set order
# ---------------------------------------------------------------------------


def ready(step: Step, singles, tangible: bool) -> float:
    """Readiness of ``step`` in a state whose single-activity steps are
    ``singles``: the product of its activities' probabilities and of one
    minus each other single's (tangible), or the sum of its weights."""
    if not tangible:
        return sum(u.value for u in step)
    prob = 1.0
    for u in step:
        prob *= u.value
    for v in singles:
        if v not in step:
            prob *= 1.0 - v.value
    return prob


def singles_of(steps) -> set:
    """The activities that form a step on their own."""
    return {next(iter(s)) for s in steps if len(s) == 1}


def normalized(i: int, pairs: List[Tuple[Step, int]], tangible: bool) -> List[Transition]:
    """The transitions of state ``i``, one per (step, target) pair, each with
    its step's readiness divided by the total over the state's steps."""
    singles = singles_of(s for s, _ in pairs)
    readiness = [ready(s, singles, tangible) for s, _ in pairs]
    total = sum(readiness)
    return [Transition(i, s, r / total, j) for (s, j), r in zip(pairs, readiness)]


def ready_prob(ts: TransitionSystem, step: Step, i: int) -> float:
    """Readiness (stochastic) or cumulative weight (immediate) of an
    executable step of state ``i``."""
    steps = ts.exec_steps(i)
    if step not in steps:
        raise SemanticsError("step %r is not executable in state %d" % (sorted(map(str, step)), i + 1))
    return ready(step, singles_of(steps), ts.states[i].tangible)


def reweight(ts: TransitionSystem, leaf_values: Dict[int, float]) -> TransitionSystem:
    """``ts`` with new base values per leaf: every activity rebuilt, every
    state normalized again."""

    def remap(u: Activity) -> Activity:
        return Activity(u.part, u.immediate, tuple((i, leaf_values.get(i, v)) for i, v in u.leaves), u.num)

    pairs: List[List[Tuple[Step, int]]] = [[] for _ in ts.states]
    for t in ts.transitions:
        pairs[t.source].append((frozenset(remap(u) for u in t.step), t.target))
    transitions = []
    for i, state_pairs in enumerate(pairs):
        transitions += normalized(i, state_pairs, ts.states[i].tangible)
    return TransitionSystem(list(ts.states), transitions, ts.initial, ts.expr)


# ---------------------------------------------------------------------------
# Step derivation, and the potentially and currently executable step sets,
# of one operative term
# ---------------------------------------------------------------------------


def potential_steps(h: DynamicExpr) -> FrozenSet[Step]:
    """Non-empty activity sets a single operative term could execute, ignoring
    the pre-emption by immediates (downward closed by construction)."""
    if isinstance(h, Over):
        if isinstance(h.expr, Act):
            return frozenset((frozenset((h.expr.activity,)),))
        raise SemanticsError("not an operative term: %s" % serialize(h))
    if isinstance(h, Under):
        return frozenset()
    if isinstance(h, (DSeq, DCho)):
        child = h.left if isinstance(h.left, DynamicExpr) else h.right
        return potential_steps(child)
    if isinstance(h, DPar):
        left = potential_steps(h.left)
        right = potential_steps(h.right)
        combined = set(left) | set(right)
        for s1 in left:
            for s2 in right:
                combined.add(s1 | s2)
        return frozenset(combined)
    if isinstance(h, DRel):
        return frozenset(
            frozenset(h.func.apply_activity(u) for u in s) for s in potential_steps(h.child)
        )
    if isinstance(h, DRst):
        a, ah = Action(h.action), Action(h.action, True)
        return frozenset(
            s
            for s in potential_steps(h.child)
            if all(a not in u.part and ah not in u.part for u in s)
        )
    if isinstance(h, DSyn):
        action = Action(h.action)
        out = set()
        for s in potential_steps(h.child):
            out.update(_saturate_step(s, action))
        return frozenset(out)
    if isinstance(h, DIte):
        child = next(x for x in (h.init, h.body, h.term) if isinstance(x, DynamicExpr))
        return potential_steps(child)
    raise TypeError(repr(h))


def derive(h: DynamicExpr) -> Tuple[Tuple[Step, DynamicExpr], ...]:
    """Every non-empty step of one operative term with its target, in
    step-key order, by one hand-written rule per node kind."""
    out: Dict[Step, DynamicExpr] = {}

    def put(step: Step, target: DynamicExpr) -> None:
        old = out.get(step)
        if old is not None and old != target:
            raise SemanticsError("step %s from %s reaches two targets" % ([str(u) for u in step], serialize(h)))
        out[step] = target

    if isinstance(h, Over):
        if isinstance(h.expr, Act):
            put(frozenset((h.expr.activity,)), Under(h.expr))
    elif isinstance(h, Under):
        pass
    elif isinstance(h, DSeq):
        dyn_left = isinstance(h.left, DynamicExpr)
        for step, tgt in derive(h.left if dyn_left else h.right):
            put(step, DSeq(tgt, h.right) if dyn_left else DSeq(h.left, tgt))
    elif isinstance(h, DCho):
        dyn_left = isinstance(h.left, DynamicExpr)
        for step, tgt in derive(h.left if dyn_left else h.right):
            put(step, DCho(tgt, h.right) if dyn_left else DCho(h.left, tgt))
    elif isinstance(h, DPar):
        left_steps, right_steps = derive(h.left), derive(h.right)
        for step, tgt in left_steps:
            put(step, DPar(tgt, h.right))
        for step, tgt in right_steps:
            put(step, DPar(h.left, tgt))
        for s1, t1 in left_steps:
            for s2, t2 in right_steps:
                if next(iter(s1)).immediate == next(iter(s2)).immediate:
                    put(s1 | s2, DPar(t1, t2))
    elif isinstance(h, DRel):
        for step, tgt in derive(h.child):
            put(frozenset(h.func.apply_activity(u) for u in step), DRel(tgt, h.func))
    elif isinstance(h, DRst):
        a, ah = Action(h.action), Action(h.action, True)
        for step, tgt in derive(h.child):
            if all(a not in u.part and ah not in u.part for u in step):
                put(step, DRst(tgt, h.action))
    elif isinstance(h, DSyn):
        for step, tgt in derive(h.child):
            for merged in _saturate_step(step, Action(h.action)):
                put(merged, DSyn(tgt, h.action))
    elif isinstance(h, DIte):
        if isinstance(h.init, DynamicExpr):
            for step, tgt in derive(h.init):
                put(step, DIte(tgt, h.body, h.term))
        elif isinstance(h.body, DynamicExpr):
            for step, tgt in derive(h.body):
                put(step, DIte(h.init, tgt, h.term))
        else:
            for step, tgt in derive(h.term):
                put(step, DIte(h.init, h.body, tgt))
    else:
        raise TypeError(repr(h))
    return tuple(sorted(out.items(), key=lambda kv: step_key(kv[0])))


def class_steps(members) -> List[Tuple[Step, FrozenSet[DynamicExpr]]]:
    """The executable steps of a class given its operative members, in
    step-key order, each with the targets it reaches from them: the union
    of ``derive`` over the members, and only its immediate steps if it has
    any."""
    targets: Dict[Step, set] = {}
    for h in members:
        for step, target in derive(h):
            targets.setdefault(step, set()).add(target)
    if any(next(iter(s)).immediate for s in targets):
        targets = {s: t for s, t in targets.items() if next(iter(s)).immediate}
    return [(s, frozenset(targets[s])) for s in sorted(targets, key=step_key)]


def current_steps(h: DynamicExpr) -> FrozenSet[Step]:
    """Steps a single operative term can execute right now: all potential ones
    when they are uniformly stochastic or uniformly immediate, otherwise only
    the immediate-only ones (immediates pre-empt)."""
    can = potential_steps(h)
    stoch_only = all(not u.immediate for s in can for u in s)
    imm_only = all(u.immediate for s in can for u in s)
    if stoch_only or imm_only:
        return can
    return frozenset(s for s in can if all(u.immediate for u in s))


def member_tangible(h: DynamicExpr) -> bool:
    """No immediate step among the currently executable ones of this term."""
    return all(not u.immediate for s in current_steps(h) for u in s)


# ---------------------------------------------------------------------------
# Net semantics on named places
# ---------------------------------------------------------------------------


def syn_box(n: DtsiBox, action: str) -> DtsiBox:
    """Synchronization closure by a full pairwise scan of the pool."""
    a, ah = Action(action), Action(action, True)
    pool: Dict[Activity, NetTransition] = {t.activity: t for t in n.transitions}
    frontier = list(pool.values())
    while frontier:
        t = frontier.pop()
        for u in list(pool.values()):
            if t.activity.immediate != u.activity.immediate:
                continue
            if t.activity.content & u.activity.content:
                continue
            for v, w in ((t, u), (u, t)):
                if a in v.activity.part and ah in w.activity.part:
                    merged_act = sync_activities(v.activity, w.activity, a)
                    if merged_act not in pool:
                        merged = NetTransition(merged_act, v.pre + w.pre, v.post + w.post)
                        pool[merged_act] = merged
                        frontier.append(merged)
    return DtsiBox(n.places, tuple(sorted(pool.values())))


def marking_tangible(box: DtsiBox, marking: Multiset) -> bool:
    ena = enabled(box, marking)
    return not any(t.activity.immediate for t in ena)


def firing_groups(box: DtsiBox, marking: Multiset) -> List[Tuple[NetTransition, ...]]:
    """Every subset of enabled transitions whose joint preset fits the marking."""
    ena = enabled(box, marking)
    groups: List[Tuple[NetTransition, ...]] = []

    def extend(start: int, chosen: List[NetTransition], used: Multiset) -> None:
        for k in range(start, len(ena)):
            t = ena[k]
            joint = used + t.pre
            if joint.issubset(marking):
                chosen.append(t)
                groups.append(tuple(chosen))
                extend(k + 1, chosen, joint)
                chosen.pop()

    extend(0, [], Multiset())
    if marking_tangible(box, marking):
        groups.append(())
    return groups


def group_ready(group: Tuple[NetTransition, ...], ena: List[NetTransition], tangible: bool) -> float:
    if not tangible:
        return sum(t.activity.value for t in group)
    prob = 1.0
    chosen = set(group)
    for t in group:
        prob *= t.activity.value
    for u in ena:
        if u not in chosen:
            prob *= 1.0 - u.activity.value
    return prob


def fire_prob(box: DtsiBox, marking: Multiset, group) -> float:
    group = tuple(sorted(group))
    groups = firing_groups(box, marking)
    if group not in groups:
        raise SemanticsError("transition set is not fireable here")
    ena = enabled(box, marking)
    tangible = marking_tangible(box, marking)
    total = sum(group_ready(g, ena, tangible) for g in groups)
    return group_ready(group, ena, tangible) / total


def build_rg(box: DtsiBox, initial: Optional[Multiset] = None, max_states: int = 100_000) -> TransitionSystem:
    """Reachability graph by ``enabled``, ``fire`` and the firing groups of
    each ``Multiset`` marking."""
    start = box.initial_marking() if initial is None else initial
    index: Dict[Multiset, int] = {}
    markings: List[Multiset] = []
    states: List[State] = []
    step_rows: List[List[Tuple[Tuple[NetTransition, ...], int]]] = []

    def intern(m: Multiset) -> int:
        idx = index.get(m)
        if idx is None:
            idx = len(markings)
            if idx >= max_states:
                raise StateSpaceLimit(max_states)
            index[m] = idx
            markings.append(m)
            states.append(State(marking_key(m), (), True))
            step_rows.append([])
        return idx

    intern(start)
    cursor = 0
    while cursor < len(markings):
        i = cursor
        cursor += 1
        m = markings[i]
        tangible = marking_tangible(box, m)
        states[i] = State(states[i].key, (), tangible)
        groups = firing_groups(box, m)
        groups.sort(key=lambda g: step_key(frozenset(t.activity for t in g)))
        for g in groups:
            target = intern(fire(box, m, g) if g else m)
            step_rows[i].append((g, target))

    transitions: List[Transition] = []
    for i, rows in enumerate(step_rows):
        m = markings[i]
        ena = enabled(box, m)
        tangible = states[i].tangible
        total = sum(group_ready(g, ena, tangible) for g, _ in rows)
        for g, j in rows:
            prob = group_ready(g, ena, tangible) / total
            step = frozenset(t.activity for t in g)
            transitions.append(Transition(i, step, prob, j))

    rg = TransitionSystem(states, transitions, 0, None)
    rg.markings = markings  # type: ignore[attr-defined]
    return rg


def check_safe_clean(box: DtsiBox, max_states: int = 100_000) -> StructureReport:
    """Safeness and cleanness read off the markings of the reference graph."""
    markings: List[Multiset] = build_rg(box, max_states=max_states).markings  # type: ignore[attr-defined]
    entries = box.entries()
    exits = box.exits()
    report = StructureReport(True, True, len(markings))
    for m in markings:
        if any(n > 1 for _, n in m.items):
            report.safe = False
            report.unsafe_witness = marking_key(m)
        if entries.issubset(m) and m != entries:
            report.clean = False
            report.unclean_witness = marking_key(m)
        if exits.issubset(m) and m != exits:
            report.clean = False
            report.unclean_witness = marking_key(m)
    return report


# ---------------------------------------------------------------------------
# Chains, row by row
# ---------------------------------------------------------------------------


def pm_matrix(ts: TransitionSystem) -> np.ndarray:
    """The one-step matrix of ``ts``, parallel transitions added in order."""
    n = len(ts.states)
    pm = np.zeros((n, n))
    for t in ts.transitions:
        pm[t.source, t.target] += t.prob
    return pm


def chain_arcs(ts: TransitionSystem) -> Tuple[List[Tuple[int, Multiset, float, int]], np.ndarray]:
    """The (source, label, probability, target) arcs of the chain of ``ts``,
    state by state, each state's in system order, and the one-step matrix
    summed along them."""
    n = len(ts.states)
    pm = np.zeros((n, n))
    rows = []
    for i in range(n):
        for t in ts.outgoing(i):
            pm[i, t.target] += t.prob
            rows.append((i, step_label(t.step), t.prob, t.target))
    return rows, pm


def quotient_arcs(ts: TransitionSystem, blocks: List[List[int]]
                  ) -> Tuple[List[Tuple[int, Multiset, float, int]], np.ndarray]:
    """The arcs of the quotient chain of ``ts`` by ``blocks`` (sorted by
    least member): each block steps as its least member does, summed per
    label and target block, its arcs sorted by label and then block; and the
    one-step matrix summed along them."""
    block_of = {i: k for k, block in enumerate(blocks) for i in block}
    rows = []
    for k, block in enumerate(blocks):
        aggregate: Dict[Tuple[Multiset, int], float] = {}
        for t in ts.outgoing(block[0]):
            key = (step_label(t.step), block_of[t.target])
            aggregate[key] = aggregate.get(key, 0.0) + t.prob
        rows += [(k, label, prob, target) for (label, target), prob in sorted(aggregate.items())]
    pm = np.zeros((len(blocks), len(blocks)))
    for k, _, prob, target in rows:
        pm[k, target] += prob
    return rows, pm


def arcs(chain: Chain) -> List[Tuple[int, Multiset, float, int]]:
    """The (source, label, probability, target) arcs of a chain at its
    first point, read off its arrays in order."""
    return [(i, chain.labels[k], prob, j) for i, k, prob, j in zip(
        chain.sources.tolist(), chain.label_ids.tolist(), chain.probs[0].tolist(), chain.targets.tolist())]


# ---------------------------------------------------------------------------
# Solver loops
# ---------------------------------------------------------------------------


def compensated_residual(a, b, vec):
    """b - a vec, one scalar product and one exact row sum at a time."""
    k = a.shape[0]
    rows = []
    for i in range(k):
        terms = [a[i, j] * vec[j] for j in range(k)]
        rows.append(b[i] - math.fsum(terms))
    return np.asarray(rows)


def exit_mass(pm, i: int) -> float:
    return float(np.delete(pm[i], i).sum())


def sojourn_stats(chain: Chain) -> SojournStats:
    n = chain.size
    avg = np.zeros(n)
    var = np.zeros(n)
    sl = np.ones(n)
    for i in range(n):
        p = chain.pm[0, i, i]
        leave = exit_mass(chain.pm[0], i)
        if p > 0:
            sl[i] = math.inf if leave == 0.0 else 1.0 / leave
        if chain.tangible[i]:
            if leave == 0.0:
                avg[i] = math.inf
                var[i] = math.inf
            else:
                avg[i] = 1.0 / leave
                with np.errstate(divide="ignore"):
                    var[i] = p / leave**2
    return SojournStats(avg, var, sl)


def edtmc_tpm(chain: Chain) -> np.ndarray:
    n = chain.size
    out = np.zeros((n, n))
    for i in range(n):
        leave = exit_mass(chain.pm[0], i)
        if leave == 0.0:
            continue
        out[i] = chain.pm[0, i] / leave
        out[i, i] = 0.0
        out[i] /= out[i].sum()
    return out


def stationary_on_class(sub, residual_tol: float):
    k = sub.shape[0]
    gen = sub.copy()
    for i in range(k):
        gen[i, i] = -exit_mass(sub, i)
    a = gen.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    x = np.linalg.solve(a, b)
    best = None
    for _ in range(5):
        x = x / x.sum()
        resid = compensated_residual(a, b, x)
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


def closed_classes(tpm) -> List[List[int]]:
    """The closed communication classes, from the states that each state
    reaches: a state's class is closed when every state it reaches reaches
    it back, and the class is then all that it reaches."""
    adjacency = [np.nonzero(tpm[i] > 0)[0].tolist() for i in range(tpm.shape[0])]
    reach = []
    for s in range(len(adjacency)):
        seen, todo = {s}, [s]
        while todo:
            for w in adjacency[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach.append(seen)
    closed = {tuple(sorted(r)) for s, r in enumerate(reach) if all(s in reach[w] for w in r)}
    return sorted(list(c) for c in closed)


def class_period(tpm, comp: List[int]) -> int:
    """The gcd of the level differences of a breadth-first walk of a class."""
    members = set(comp)
    level = {comp[0]: 0}
    queue = [comp[0]]
    g = 0
    for v in queue:
        for w in np.nonzero(tpm[v] > 0)[0].tolist():
            if w not in members:
                continue
            if w not in level:
                level[w] = level[v] + 1
                queue.append(w)
            g = math.gcd(g, level[v] + 1 - level[w])
    return abs(g) if g else 1


def steady_state(tpm, residual_tol: float = 1e-10) -> StationaryResult:
    n = tpm.shape[0]
    closed = closed_classes(tpm)
    if len(closed) != 1:
        raise AnalysisError(
            "chain has %d closed communication classes; expected one" % len(closed),
            closed_classes=closed,
        )
    comp = closed[0]
    pmf = np.zeros(n)
    if len(comp) == 1 and tpm[comp[0]].sum() == 0:
        pmf[comp[0]] = 1.0
        return StationaryResult(pmf, comp, periodic=False)
    sub = tpm[np.ix_(comp, comp)]
    row_sums = sub.sum(axis=1)
    if not np.allclose(row_sums, 1.0, atol=1e-9):
        raise AnalysisError("closed class is not stochastic (row sums %s)" % row_sums)
    x, residual = stationary_on_class(sub, residual_tol)
    if residual > residual_tol:
        raise AnalysisError("stationary solve residual %.2e exceeds %.2e" % (residual, residual_tol))
    pmf[comp] = x
    return StationaryResult(pmf, comp, periodic=class_period(tpm, comp) > 1)


def solve_chain(chain: Chain, cross_check_tol: float = 1e-10) -> SolveResult:
    """The solver one matrix and one state at a time."""
    stats = sojourn_stats(chain)
    p_full = chain.pm[0].copy()
    p_emb = edtmc_tpm(chain)
    emb = steady_state(p_emb)
    full = steady_state(p_full)
    comp = emb.closed_class
    if full.closed_class != comp:
        raise AnalysisError("embedded and full chains disagree on the closed class")
    n = chain.size
    phi = np.zeros(n)
    if any(math.isinf(stats.average[i]) for i in comp):
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
    phi_b = np.array([full.pmf[i] / tangible_mass if chain.tangible[i] else 0.0 for i in range(n)])
    if np.max(np.abs(phi - phi_b)) > cross_check_tol:
        raise AnalysisError("steady-state routes disagree by %.2e" % float(np.max(np.abs(phi - phi_b))))
    return SolveResult(chain, stats, p_full, p_emb, full.pmf, emb.pmf, phi, comp, emb.periodic, full.periodic)


# ---------------------------------------------------------------------------
# Performance indices
# ---------------------------------------------------------------------------


def step_probability(chain: Chain, phi: np.ndarray, parts: Multiset) -> float:
    """Steady-state probability of performing a step containing the given
    multiset of multiactions."""
    rows: List[List[Tuple[Multiset, float]]] = [[] for _ in range(chain.size)]
    for i, label, prob, _ in arcs(chain):
        rows[i].append((label, prob))
    total = 0.0
    for i in range(chain.size):
        if phi[i] == 0.0:
            continue
        here = sum(prob for label, prob in rows[i] if parts.issubset(label))
        total += float(phi[i]) * here
    return float(total)


def evaluate_index(expr, result: SolveResult) -> float:
    """A model-file index expression on one solution, walked in Python
    floats: a division by zero raises ``ZeroDivisionError``, a state the
    chain does not have ``ValueError``."""
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


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------


def sweep_rows(model, base_ts: TransitionSystem, indices, points) -> List[Dict[str, float]]:
    """Index values at each grid point, one point at a time: instantiate the
    model, reweight the base transition system, build the chain, solve it,
    evaluate the indices.  The first failure raises the ``AnalysisError``
    message the CLI reports, naming its point."""
    rows = []
    for point in points:
        ts = reweight(base_ts, leaf_values_of(model.instantiate(point)))
        try:
            result = solve_chain(Chain.from_ts(ts))
            values = {}
            for name, expr in indices.items():
                try:
                    values[name] = evaluate_index(expr, result)
                except (ZeroDivisionError, ValueError) as exc:
                    raise AnalysisError("index %s: %s" % (name, exc)) from None
        except AnalysisError as exc:
            raise AnalysisError("analysis error at %s: %s" % (point, exc)) from None
        rows.append(values)
    return rows


def sweep_points(model: ModelFile, overrides=None) -> List[Dict[str, float]]:
    """The Cartesian grid over the model's sweep axes, one binding
    dictionary per point, the first axis varying slowest."""
    scalars = {name: v for name, v in (overrides or {}).items() if not isinstance(v, tuple)}
    points = [model.bindings(scalars)]
    for name, rng in model.sweep_axes(overrides):
        points = [dict(p, **{name: v}) for p in points for v in ParamSpec(sweep=rng).grid()]
    return points


def leaf_values(model: ModelFile, point: Dict[str, float]) -> Dict[int, float]:
    """The base value of every leaf at one point, one leaf after another:
    bound, then range-checked; the first bad leaf raises."""
    bindings = model.bindings(point)
    out: Dict[int, float] = {}
    for leaf, (immediate, source) in enumerate(model.leaf_sources(), 1):
        value = _bound(source, bindings)
        Activity.check_value(immediate, value)
        out[leaf] = value
    return out


def leaf_grid(model: ModelFile, points: List[Dict[str, float]]):
    """``leaf_values`` at one point after another, as rows, up to the first
    point that raises, and its error (or None)."""
    rows = []
    for point in points:
        try:
            rows.append(list(leaf_values(model, point).values()))
        except ValueError as exc:
            return rows, exc
    return rows, None


def sweep_csv(param_names: List[str], index_names: List[str], rows: List[Dict[str, float]],
              header_note: str = "") -> str:
    """The sweep table through ``csv.writer``, from one dictionary per
    point."""
    buf = io.StringIO()
    if header_note:
        buf.write("# %s\n" % header_note)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(param_names + index_names)
    for row in rows:
        writer.writerow([repr(row[name]) for name in param_names + index_names])
    return buf.getvalue()


def sweep_extrema(swept: List[str], names: List[str], rows: List[Dict[str, float]]) -> List[str]:
    """The extrema line of each index with finite values: ``min`` and
    ``max`` over its (value, grid tuple) pairs."""
    grid = [tuple(row[p] for p in swept) for row in rows]
    lines = []
    for name in names:
        finite = [(row[name], at) for row, at in zip(rows, grid) if math.isfinite(row[name])]
        if not finite:
            continue
        lo, lo_at = min(finite)
        hi, hi_at = max(finite)
        where = lambda at: ",".join("%s=%s" % (p, v) for p, v in zip(swept, at))
        lines.append("index %s: min %.6g at %s; max %.6g at %s" % (name, lo, where(lo_at), hi, where(hi_at)))
    return lines
