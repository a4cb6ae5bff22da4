"""Concrete syntax: tokenizer, expression parser, model files, pretty-printer.

Surface syntax (ASCII):

    ({a,b^},0.3)      stochastic multiaction, probability in (0;1), "1/3" allowed
    ({a},#2)          immediate multiaction with weight 2
    E;F  E[]F  E||F   sequence, choice, parallel (loosest first: ||, [], ;)
    E rs a, E sy a    restriction / synchronization (postfix, bind tightest)
    E sr(a,b)         sugar for E sy a sy b rs a rs b
    E[f: a<->b]       relabeling by a conjugate-preserving bijection
    [E * F * K]       iteration: init, body, termination
    Stop              the non-terminating idle process
    ~E  _E            overbar / underbar prefixes on dynamic terms

Model files hold ``param``, ``index``, constant and ``root``/``peer``
definitions, one per line ("//" comments); parameters substitute into
probability and weight positions before any semantics is taken.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Set, Tuple, Union

from .expr import (
    Act,
    Action,
    Activity,
    Cho,
    DPar,
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
    _KINDS,
    _children,
    _renumbered,
    activities_of,
    is_dynamic,
    is_regular,
    is_stop,
    renumber,
    stop_expr,
)

__all__ = [
    "ParseError",
    "parse_static",
    "parse_dynamic",
    "parse_model",
    "serialize",
    "ModelFile",
    "ParamSpec",
]


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<comment>//[^\n]*)
  | (?P<newline>\n)
  | (?P<number>\d+(\.\d+)?([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
  | (?P<op><->|->|\|\||\[\]|[()\[\]{},;*#^~_=:/+-])
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str  # 'number' | 'name' | 'op' | 'newline' | 'eof'
    text: str
    line: int
    col: int


def tokenize(text: str, keep_newlines: bool = False) -> List[Token]:
    tokens: List[Token] = []
    line, col = 1, 1
    pos = 0
    depth = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError("unexpected character %r" % text[pos], line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind == "newline":
            if keep_newlines and depth == 0:
                tokens.append(Token("newline", "\n", line, col))
            line += 1
            col = 1
            pos = m.end()
            continue
        if kind not in ("ws", "comment"):
            if tok in "([{":
                depth += 1
            elif tok in ")]}":
                depth = max(0, depth - 1)
            elif tok == "[]":
                pass
            tokens.append(Token(kind if kind != "op" else "op", tok, line, col))
        col += m.end() - pos
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class TokenStream:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, text: str) -> Optional[Token]:
        tok = self.peek()
        if tok.kind in ("op", "name") and tok.text == text:
            return self.next()
        return None

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if not ((tok.kind in ("op", "name")) and tok.text == text):
            raise ParseError("expected %r, found %r" % (text, tok.text or "end of input"), tok.line, tok.col)
        return self.next()

    def expect_name(self) -> Token:
        tok = self.peek()
        if tok.kind != "name":
            raise ParseError("expected a name, found %r" % (tok.text or "end of input"), tok.line, tok.col)
        return self.next()

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)


# ---------------------------------------------------------------------------
# Templates: expression trees whose probability slots may reference parameters
# ---------------------------------------------------------------------------

# Template nodes are plain tuples: ('act', actions, immediate, value-or-name),
# ('stop',), ('seq', l, r), ('cho', l, r), ('par', l, r), ('rel', t, func),
# ('rst', t, a), ('syn', t, a), ('ite', i, b, t), ('over', t), ('under', t).
Template = tuple


@dataclass(frozen=True)
class ParamSpec:
    """Numeric parameter: either a single value or a start:stop:step range."""

    value: Optional[float] = None
    sweep: Optional[Tuple[float, float, float]] = None

    def grid(self) -> List[float]:
        if self.sweep is None:
            return [self.value] if self.value is not None else []
        start, stop, step = self.sweep
        if step <= 0:
            raise ValueError("sweep step must be positive")
        out = []
        k = 0
        while True:
            v = start + k * step
            if v > stop + step * 1e-9:
                break
            out.append(round(v, 12))
            k += 1
        return out


def _parse_number(tokens: TokenStream) -> float:
    tok = tokens.peek()
    if tok.kind != "number":
        raise tokens.error("expected a number, found %r" % (tok.text or "end of input"))
    tokens.next()
    if tokens.accept("/"):
        den = tokens.peek()
        if den.kind != "number":
            raise tokens.error("expected a denominator")
        tokens.next()
        return float(Fraction(int(tok.text), int(den.text)))
    return float(tok.text)


def _parse_action(tokens: TokenStream) -> Tuple[str, bool]:
    name = tokens.expect_name().text
    conj = tokens.accept("^") is not None
    return name, conj


def _parse_activity(tokens: TokenStream) -> Template:
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
        value: Union[float, str] = tok.text
    else:
        value = _parse_number(tokens)
    tokens.expect(")")
    return ("act", tuple(actions), immediate, value)


class _ExprParser:
    def __init__(self, tokens: TokenStream, constants: Dict[str, Template]):
        self.tokens = tokens
        self.constants = constants

    def parse(self) -> Template:
        return self._parallel()

    def _parallel(self) -> Template:
        node = self._choice()
        while self.tokens.accept("||"):
            node = ("par", node, self._choice())
        return node

    def _choice(self) -> Template:
        node = self._sequence()
        while self.tokens.accept("[]"):
            node = ("cho", node, self._sequence())
        return node

    def _sequence(self) -> Template:
        node = self._unary()
        while self.tokens.accept(";"):
            node = ("seq", node, self._unary())
        return node

    def _unary(self) -> Template:
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

    def _prefixed(self) -> Template:
        if self.tokens.accept("~"):
            return ("over", self._prefixed())
        if self.tokens.accept("_"):
            return ("under", self._prefixed())
        return self._primary()

    def _primary(self) -> Template:
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


# ---------------------------------------------------------------------------
# Operator syntax
# ---------------------------------------------------------------------------

_PAR, _CHO, _SEQ, _UNARY, _ATOM = 0, 1, 2, 3, 4


class _Syntax(NamedTuple):
    tag: str  # the template tag
    level: int  # binding level; an operand that needs a higher one is parenthesized
    form: str  # the text, from the operands and then the other fields
    operands: Tuple[Tuple[str, int], ...]  # each subtree field, with the level it needs
    attributes: Tuple[str, ...]  # the other fields
    bars_error: Optional[str]  # the error when more arguments are barred than the operator takes


def _syntax(kind: type, tag: str, level: int, form: str, needs: Tuple[int, ...],
            bars_error: Optional[str] = None) -> _Syntax:
    fields = _KINDS[kind]
    return _Syntax(tag, level, form, tuple(zip(fields.subtrees, needs)), fields.attributes, bars_error)


# each operator, by its static kind
_SYNTAX = {row[0]: _syntax(*row) for row in (
    (Par, "par", _PAR, "%s||%s", (_PAR, _PAR + 1), "both operands of || must be barred, or neither"),
    (Cho, "cho", _CHO, "%s[]%s", (_CHO, _CHO + 1), "only one operand of '[]' may be barred"),
    (Seq, "seq", _SEQ, "%s;%s", (_SEQ, _SEQ + 1), "only one operand of ';' may be barred"),
    (Rel, "rel", _UNARY, "%s%s", (_UNARY,)),
    (Rst, "rst", _UNARY, "%s rs %s", (_UNARY,)),
    (Syn, "syn", _UNARY, "%s sy %s", (_UNARY,)),
    (Ite, "ite", _ATOM, "[%s * %s * %s]", (_PAR, _PAR, _PAR), "only one argument of an iteration may be barred"),
    (Over, "over", _UNARY, "~%s", (_ATOM,), "an overbar must wrap a bar-free term"),
    (Under, "under", _UNARY, "_%s", (_ATOM,), "an underbar must wrap a bar-free term"),
)}
_KIND_OF_TAG = {syntax.tag: kind for kind, syntax in _SYNTAX.items()}
# the barred kind of an operator shares its row
_SYNTAX.update({_KINDS[kind].counterpart: syntax for kind, syntax in list(_SYNTAX.items()) if _KINDS[kind].counterpart})


# ---------------------------------------------------------------------------
# Template instantiation
# ---------------------------------------------------------------------------


def _instantiate(t: Template, bindings: Dict[str, float]) -> Union[StaticExpr, DynamicExpr]:
    tag = t[0]
    if tag == "act":
        actions, immediate, value = t[1], t[2], t[3]
        part = Multiset.from_iterable(Action(n, c) for n, c in actions)
        return Act(Activity.make(part, immediate, _bound(value, bindings), 0))
    if tag == "stop":
        return stop_expr()
    kind = _KIND_OF_TAG.get(tag)
    if kind is None:
        raise ValueError("bad template node %r" % (tag,))
    arity = len(_KINDS[kind].subtrees)
    args = [_instantiate(x, bindings) for x in t[1:1 + arity]]
    barred = sum(map(is_dynamic, args))
    # a bar may wrap only a bar-free term, both operands of || carry bars
    # or neither does, and every other operator takes at most one barred
    # argument; with any, the node is the barred kind
    if kind in (Over, Under):
        allowed = barred == 0
    elif _KINDS[kind].counterpart is DPar:
        allowed = barred in (0, arity)
    else:
        allowed = barred <= 1
    if not allowed:
        raise ValueError(_SYNTAX[kind].bars_error)
    return (_KINDS[kind].counterpart if barred else kind)(*args, *t[1 + arity:])


def _bound(value: Union[float, str], bindings: Dict[str, float]) -> float:
    """A literal value, or the value bound to a parameter name."""
    if isinstance(value, str):
        if value not in bindings:
            raise ValueError("unbound parameter %r" % value)
        value = bindings[value]
    return float(value)


def _leaf_sources(t: Template) -> List[Tuple[bool, Union[float, str]]]:
    """(immediate, parameter name or literal value) of every activity that
    ``_instantiate(t)`` builds, left to right."""
    tag = t[0]
    if tag == "act":
        return [(t[2], t[3])]
    if tag == "stop":
        return [(u.immediate, u.value) for u in activities_of(stop_expr())]
    # the subtemplates, in the order in which _instantiate builds them and
    # renumber numbers their leaves
    subtemplates = t[1:1 + len(_KINDS[_KIND_OF_TAG[tag]].subtrees)]
    return [source for sub in subtemplates for source in _leaf_sources(sub)]


def parse_static(text: str, bindings: Optional[Dict[str, float]] = None) -> StaticExpr:
    """Parse one static expression; leaves are numbered 1..n in source order."""
    tokens = TokenStream(tokenize(text))
    template = _ExprParser(tokens, {}).parse()
    tok = tokens.peek()
    if tok.kind != "eof":
        raise ParseError("trailing input %r" % tok.text, tok.line, tok.col)
    expr = _instantiate(template, bindings or {})
    if is_dynamic(expr):
        raise ParseError("expected a static expression, found bars", 1, 1)
    return renumber(expr)


def parse_dynamic(text: str, bindings: Optional[Dict[str, float]] = None) -> DynamicExpr:
    """Parse a barred expression, numbering the underlying static leaves."""
    tokens = TokenStream(tokenize(text))
    template = _ExprParser(tokens, {}).parse()
    tok = tokens.peek()
    if tok.kind != "eof":
        raise ParseError("trailing input %r" % tok.text, tok.line, tok.col)
    expr = _instantiate(template, bindings or {})
    if not is_dynamic(expr):
        raise ParseError("expected bars on a dynamic expression", 1, 1)
    return _renumbered(expr, 1, _children)


# ---------------------------------------------------------------------------
# Pretty-printer
# ---------------------------------------------------------------------------


def serialize(e) -> str:
    """Deterministic text form; ``parse`` of the result rebuilds the same tree."""
    return _ser(e, _PAR)


def _ser(e, need: int) -> str:
    if isinstance(e, Act):
        return str(e.activity)
    syntax = _SYNTAX.get(type(e))
    if syntax is None:
        raise TypeError("cannot serialize %r" % (e,))
    _, level, form, operands, attributes, _ = syntax
    if isinstance(e, StaticExpr) and is_stop(e):
        text = "Stop"
    else:
        fields = [_ser(getattr(e, name), at) for name, at in operands] + [getattr(e, name) for name in attributes]
        text = form % tuple(fields)
    return "(%s)" % text if level < need else text


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

# Index expressions are tuples: ('num', v), ('vec', which, i) for which in
# phi/psi/psistar/sj/var and 1-based state index i, ('steprob', parts),
# ('bin', op, l, r) and ('neg', x).
IndexExpr = tuple

_VECTOR_NAMES = ("phi", "psi", "psistar", "sj", "var")


def _parse_index_expr(tokens: TokenStream) -> IndexExpr:
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
            # plain literal; "1/3" is ordinary division at this level
            tokens.next()
            return ("num", float(tok.text))
        if tok.kind == "name" and tok.text in _VECTOR_NAMES:
            tokens.next()
            tokens.expect("[")
            idx = tokens.peek()
            if idx.kind != "number":
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


@dataclass
class ModelFile:
    """Parsed model: constants, parameters, indices and the root template."""

    constants: Dict[str, Template] = field(default_factory=dict)
    params: Dict[str, ParamSpec] = field(default_factory=dict)
    indices: Dict[str, IndexExpr] = field(default_factory=dict)
    root: Optional[Template] = None
    peer: Optional[Template] = None
    _leaves: Optional[List[Tuple[bool, Union[float, str]]]] = field(default=None, init=False, repr=False,
                                                                    compare=False)

    def bindings(self, overrides: Optional[Dict[str, float]] = None) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, spec in self.params.items():
            if spec.value is not None:
                out[name] = spec.value
            elif spec.sweep is not None:
                out[name] = spec.sweep[0]
        if overrides:
            out.update(overrides)
        return out

    def instantiate(self, overrides: Optional[Dict[str, float]] = None) -> StaticExpr:
        if self.root is None:
            raise ValueError("model has no root expression")
        expr = _instantiate(self.root, self.bindings(overrides))
        expr = renumber(expr)
        if not is_regular(expr):
            raise ValueError("root expression is not regular")
        return expr

    def leaf_sources(self) -> List[Tuple[bool, Union[float, str]]]:
        """What each numbered leaf of ``instantiate()`` reads, in leaf order:
        whether its activity is immediate, and the name of its parameter or
        its literal value.  Read off the root template once."""
        if self._leaves is None:
            if self.root is None:
                raise ValueError("model has no root expression")
            self._leaves = _leaf_sources(self.root)
        return self._leaves

    def leaf_values(self, overrides: Optional[Dict[str, float]] = None) -> Dict[int, float]:
        """The base value of every leaf of ``instantiate(overrides)``, by leaf
        number, without building the tree.  An unbound parameter or a value
        out of range raises the ``ValueError`` that ``instantiate`` would."""
        bindings = self.bindings(overrides)
        out: Dict[int, float] = {}
        for leaf, (immediate, source) in enumerate(self.leaf_sources(), 1):
            value = _bound(source, bindings)
            Activity.check_value(immediate, value)
            out[leaf] = value
        return out

    def parameter_names(self) -> Set[str]:
        """The parameters the model declares, and those its root or peer
        reads."""
        read = self.leaf_sources() + (_leaf_sources(self.peer) if self.peer is not None else [])
        return set(self.params) | {source for _, source in read if isinstance(source, str)}

    def instantiate_peer(self, overrides: Optional[Dict[str, float]] = None) -> StaticExpr:
        if self.peer is None:
            raise ValueError("model has no peer expression")
        expr = renumber(_instantiate(self.peer, self.bindings(overrides)))
        if not is_regular(expr):
            raise ValueError("peer expression is not regular")
        return expr

    def sweep_axes(self, overrides: Optional[Dict[str, Union[float, Tuple[float, float, float]]]] = None
                   ) -> List[Tuple[str, Tuple[float, float, float]]]:
        """The parameters on the sweep grid, in grid order, with their
        start:stop:step ranges: the model's ranges and then the other ranges
        in ``overrides``.  A name that ``overrides`` gives one value is held
        at that value, off the grid."""
        overrides = overrides or {}
        axes = [(name, overrides.get(name, spec.sweep)) for name, spec in self.params.items()]
        axes += [(name, value) for name, value in overrides.items() if name not in self.params]
        return [(name, value) for name, value in axes if isinstance(value, tuple)]

    def sweep_points(self, overrides: Optional[Dict[str, Union[float, Tuple[float, float, float]]]] = None
                     ) -> List[Dict[str, float]]:
        """Cartesian grid over the ``sweep_axes`` (usually a single one); the
        single values in ``overrides`` hold at every point."""
        scalars = {name: v for name, v in (overrides or {}).items() if not isinstance(v, tuple)}
        points = [self.bindings(scalars)]
        for name, rng in self.sweep_axes(overrides):
            points = [dict(p, **{name: v}) for p in points for v in ParamSpec(sweep=rng).grid()]
        return points


def parse_model(text: str) -> ModelFile:
    tokens = tokenize(text, keep_newlines=True)
    model = ModelFile()
    stream = TokenStream(tokens)

    def statement_tokens() -> List[Token]:
        out: List[Token] = []
        while stream.peek().kind not in ("newline", "eof"):
            out.append(stream.next())
        if stream.peek().kind == "newline":
            stream.next()
        return out

    while stream.peek().kind != "eof":
        if stream.peek().kind == "newline":
            stream.next()
            continue
        stmt = statement_tokens()
        if not stmt:
            continue
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
            model.indices[name] = _parse_index_expr(sub)
            _expect_done(sub)
        else:
            sub.expect("=")
            known = dict(model.constants)
            template = _ExprParser(sub, known).parse()
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


def _expect_done(stream: TokenStream) -> None:
    tok = stream.peek()
    if tok.kind != "eof":
        raise ParseError("trailing input %r" % tok.text, tok.line, tok.col)
