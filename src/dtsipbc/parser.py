"""Concrete syntax: tokenizer, expression parser, model files, pretty-printer.

Surface syntax (ASCII):

    ({a,b^},0.3)      stochastic multiaction, probability in (0;1), "1/3" allowed
    ({a},#2)          immediate multiaction with weight 2
    E;F  E[]F  E||F   sequence, choice, parallel (loosest first: ||, [], ;)
    E rs a, E sy a    restriction / synchronization (postfix, bind tighter)
    E sr(a,b)         sugar for E sy a sy b rs a rs b
    E[f: a<->b]       relabeling by a conjugate-preserving bijection
    [E * F * K]       iteration: init, body, termination
    Stop              the non-terminating idle process
    ~E  _E            overbar / underbar prefixes on dynamic terms (tightest)

Model files hold ``param``, ``index``, constant and ``root``/``peer``
definitions, one per line ("//" comments); parameters substitute into
probability and weight positions before any semantics is taken.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np

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
    _attributes,
    _children,
    _renumbered,
    activities_of,
    fold,
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
    "MAX_GRID_POINTS",
]

# the most points a sweep grid may have, on one axis or over all of them
MAX_GRID_POINTS = 1_000_000


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
            tokens.append(Token(kind, tok, line, col))
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
        """The values of the parameter: its one value, or ``start + k * step``
        for k = 0, 1, ... up to ``stop`` (with a relative slack of 1e-9 of a
        step), each rounded to 12 decimals.  A range with a step that is not
        positive, a bound that is not finite or more than
        ``MAX_GRID_POINTS`` values raises ``ValueError``."""
        if self.sweep is None:
            return [self.value] if self.value is not None else []
        start, stop, step = self.sweep
        if step <= 0:
            raise ValueError("sweep step must be positive")
        if not all(map(math.isfinite, self.sweep)):
            raise ValueError("sweep range %s:%s:%s is not finite" % self.sweep)
        out = []
        k = 0
        while True:
            v = start + k * step
            if v > stop + step * 1e-9:
                break
            if k == MAX_GRID_POINTS:
                raise ValueError("sweep range %s:%s:%s has more than %d points" % (*self.sweep, MAX_GRID_POINTS))
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
        if not (tok.text.isdigit() and den.text.isdigit()):
            raise tokens.error("a fraction takes whole numbers")
        try:
            numerator, denominator = int(tok.text), int(den.text)
        except ValueError:  # past the digit limit of int()
            raise ParseError("a fraction's whole numbers have too many digits", tok.line, tok.col) from None
        if not denominator:
            raise tokens.error("zero denominator")
        tokens.next()
        try:
            return float(Fraction(numerator, denominator))
        except OverflowError:
            raise ParseError("fraction too large for a float", tok.line, tok.col) from None
    return float(tok.text)


def _parse_actions(tokens: TokenStream) -> Tuple[Tuple[str, bool], ...]:
    """A multiaction ``{a, b^, ...}``: each action's name and whether it is
    conjugated."""
    tokens.expect("{")
    actions: List[Tuple[str, bool]] = []
    if not tokens.accept("}"):
        while True:
            actions.append((tokens.expect_name().text, tokens.accept("^") is not None))
            if not tokens.accept(","):
                break
        tokens.expect("}")
    return tuple(actions)


def _parse_activity(tokens: TokenStream) -> Template:
    # '(' '{' actions '}' ',' value ')' with '(' already consumed
    actions = _parse_actions(tokens)
    tokens.expect(",")
    immediate = tokens.accept("#") is not None
    tok = tokens.peek()
    if tok.kind == "name":
        tokens.next()
        value: Union[float, str] = tok.text
    else:
        value = _parse_number(tokens)
    tokens.expect(")")
    return ("act", actions, immediate, value)


class _Grammar(NamedTuple):
    """What the operator-precedence loop reads for one language."""

    infix: Dict[str, Tuple[int, tuple]]  # token: binding level (higher binds tighter), node head
    prefix: Dict[str, tuple]  # token: node head; a prefix binds tighter than any other operator
    brackets: Dict[str, Tuple[Tuple[str, ...], Optional[tuple]]]  # opener: the token that ends each part, node head
    atom: Callable[[TokenStream], Optional[tuple]]  # reads an atom; None at an opening bracket
    postfix: Callable[[TokenStream, tuple], tuple]  # the node under the postfix forms that follow it


class _Frame(NamedTuple):
    """An open bracket; the whole text is the frame at the bottom."""

    closers: Tuple[str, ...]
    head: Optional[tuple]  # the node is head + parts; None: the one part itself
    prefixes: List[tuple]  # the heads of the prefixes before the bracket
    parts: List[tuple]  # the parts read so far
    pending: List[Tuple[int, tuple, tuple]]  # level, head and left operand of each infix still open


def _parse(tokens: TokenStream, grammar: _Grammar) -> tuple:
    """One expression of ``grammar``, up to the first token that cannot
    continue it: Dijkstra's operator-precedence method.  Nodes are ``head +
    operands``; infix operators are left-associative.  Each open bracket is
    a frame on an explicit stack, so the loop takes any depth of nesting."""
    frames = [_Frame((), None, [], [], [])]
    while True:
        prefixes = []
        while tokens.peek().text in grammar.prefix:
            prefixes.append(grammar.prefix[tokens.next().text])
        node = grammar.atom(tokens)
        if node is None:
            frames.append(_Frame(*grammar.brackets[tokens.next().text], prefixes, [], []))
            continue
        while True:  # node is a whole operand of the top frame
            for head in reversed(prefixes):
                node = head + (node,)
            node = grammar.postfix(tokens, node)
            frame = frames[-1]
            infix = grammar.infix.get(tokens.peek().text)
            while frame.pending and (infix is None or frame.pending[-1][0] >= infix[0]):
                _, head, left = frame.pending.pop()
                node = head + (left, node)
            if infix is not None:
                tokens.next()
                frame.pending.append((*infix, node))
                break
            if len(frames) == 1:
                return node
            tokens.expect(frame.closers[len(frame.parts)])
            frame.parts.append(node)
            if len(frame.parts) < len(frame.closers):
                break
            frames.pop()
            node = frame.head + tuple(frame.parts) if frame.head else frame.parts[0]
            prefixes = frame.prefixes


def _term_atom(constants: Dict[str, Template], tokens: TokenStream) -> Optional[Template]:
    tok = tokens.peek()
    if tok.text == "(" and tokens.tokens[tokens.pos + 1].text == "{":
        tokens.next()
        return _parse_activity(tokens)
    if tok.text in _TERMS.brackets:
        return None
    if tok.kind == "name":
        if tok.text == "Stop":
            tokens.next()
            return ("stop",)
        if tok.text in constants:
            tokens.next()
            return constants[tok.text]
        raise tokens.error("unknown name %r" % tok.text)
    raise tokens.error("expected an expression, found %r" % (tok.text or "end of input"))


def _term_postfix(tokens: TokenStream, node: Template) -> Template:
    """``node`` under the restrictions ``rs a``, synchronizations ``sy a``,
    scopings ``sr(a, ...)`` and relabelings ``[f: ...]`` that follow it."""
    while True:
        tok = tokens.peek()
        if tok.kind == "name" and tok.text in ("rs", "sy"):
            tokens.next()
            node = ("rst" if tok.text == "rs" else "syn", node, tokens.expect_name().text)
        elif tok.kind == "name" and tok.text == "sr":
            tokens.next()
            tokens.expect("(")
            names = [tokens.expect_name().text]
            while tokens.accept(","):
                names.append(tokens.expect_name().text)
            tokens.expect(")")
            for a in names:
                node = ("syn", node, a)
            for a in names:
                node = ("rst", node, a)
        elif tok.text == "[" and [t.text for t in tokens.tokens[tokens.pos + 1:tokens.pos + 3]] == ["f", ":"]:
            node = ("rel", node, _parse_relabel(tokens))
        else:
            return node


def _parse_relabel(tokens: TokenStream) -> Relabeling:
    tokens.expect("[")
    tokens.expect("f")
    tokens.expect(":")
    pairs: List[Tuple[str, str]] = []
    while True:
        x = tokens.expect_name().text
        swap = tokens.accept("<->") is not None
        if not swap:
            tokens.expect("->")
        y = tokens.expect_name().text
        pairs += [(x, y), (y, x)] if swap else [(x, y)]
        if not tokens.accept(","):
            break
    tokens.expect("]")
    try:
        return Relabeling(tuple(sorted(set(pairs))))
    except ValueError as exc:
        raise tokens.error(str(exc))


# ---------------------------------------------------------------------------
# Operator syntax
# ---------------------------------------------------------------------------

_PAR, _CHO, _SEQ, _UNARY, _ATOM = 0, 1, 2, 3, 4


class _Syntax(NamedTuple):
    tag: str  # the template tag
    level: int  # binding level; an operand that needs a higher one is parenthesized
    form: str  # the text, from the operands and then the other fields
    operands: Tuple[Tuple[str, int], ...]  # each subtree field, with the level it needs
    bars_error: Optional[str]  # the error when more arguments are barred than the operator takes


def _syntax(kind: type, tag: str, level: int, form: str, needs: Tuple[int, ...],
            bars_error: Optional[str] = None) -> _Syntax:
    return _Syntax(tag, level, form, tuple(zip(_KINDS[kind].subtrees, needs)), bars_error)


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


def _form_tokens(kind: type) -> List[str]:
    """The tokens of the form of ``kind`` around its slots."""
    return [part.strip() for part in _SYNTAX[kind].form.split("%s")]


# process terms: the infix operators, the bars and the iteration bracket
# take their tokens, tags and levels from the syntax table, so the parser
# reads what the printer writes; atoms and postfix forms are hand-written
_TERMS = _Grammar(
    infix={_form_tokens(kind)[1]: (_SYNTAX[kind].level, (_SYNTAX[kind].tag,)) for kind in (Par, Cho, Seq)},
    prefix={_form_tokens(kind)[0]: (_SYNTAX[kind].tag,) for kind in (Over, Under)},
    brackets={"(": ((")",), None), _form_tokens(Ite)[0]: (tuple(_form_tokens(Ite)[1:]), (_SYNTAX[Ite].tag,))},
    atom=partial(_term_atom, {}),  # no constants; a model file's parse names its own
    postfix=_term_postfix,
)


# ---------------------------------------------------------------------------
# Template instantiation
# ---------------------------------------------------------------------------


def _instantiate(t: Template, bindings: Dict[str, float]) -> Union[StaticExpr, DynamicExpr]:
    def visit(t: Template, args: Sequence[Union[StaticExpr, DynamicExpr]]):
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
        barred = sum(map(is_dynamic, args))
        # a bar may wrap only a bar-free term, both operands of || carry bars
        # or neither does, and every other operator takes at most one barred
        # argument; with any, the node is the barred kind
        if kind in (Over, Under):
            allowed = barred == 0
        elif _KINDS[kind].counterpart is DPar:
            allowed = barred in (0, len(args))
        else:
            allowed = barred <= 1
        if not allowed:
            raise ValueError(_SYNTAX[kind].bars_error)
        return (_KINDS[kind].counterpart if barred else kind)(*args, *t[1 + len(args):])

    return fold(t, visit, _subtemplates)


def _subtemplates(t: Template) -> Sequence[Template]:
    """The subtemplates of ``t``, in the order in which ``_instantiate``
    builds them and ``renumber`` numbers their leaves."""
    kind = _KIND_OF_TAG.get(t[0])
    return t[1:1 + len(_KINDS[kind].subtrees)] if kind else ()


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
    sources: List[Tuple[bool, Union[float, str]]] = []

    def visit(t: Template, _):
        if t[0] == "act":
            sources.append((t[2], t[3]))
        elif t[0] == "stop":
            sources.extend((u.immediate, u.value) for u in activities_of(stop_expr()))

    fold(t, visit, _subtemplates)
    return sources


def parse_static(text: str, bindings: Optional[Dict[str, float]] = None) -> StaticExpr:
    """Parse one static expression; leaves are numbered 1..n in source order."""
    return _parse_text(text, bindings, dynamic=False)


def parse_dynamic(text: str, bindings: Optional[Dict[str, float]] = None) -> DynamicExpr:
    """Parse a barred expression, numbering the underlying static leaves."""
    return _parse_text(text, bindings, dynamic=True)


def _parse_text(text: str, bindings: Optional[Dict[str, float]], dynamic: bool):
    tokens = TokenStream(tokenize(text))
    template = _parse(tokens, _TERMS)
    _expect_done(tokens)
    expr = _instantiate(template, bindings or {})
    if is_dynamic(expr) != dynamic:
        raise ParseError("expected bars on a dynamic expression" if dynamic
                         else "expected a static expression, found bars", 1, 1)
    return _renumbered(expr, 1, _children)


# ---------------------------------------------------------------------------
# Pretty-printer
# ---------------------------------------------------------------------------


def serialize(e) -> str:
    """Deterministic text form; ``parse`` of the result rebuilds the same tree."""
    return fold(e, _printed)[0]


def _printed(e, operands: Sequence[Tuple[str, int]]) -> Tuple[str, int]:
    """The text of ``e`` and its binding level, from those of its subtrees."""
    kind = type(e)
    if kind is Act:
        return str(e.activity), _ATOM
    text = "Stop" if kind is Rst and is_stop(e) else compose(kind, operands, _attributes(e))
    return text, _SYNTAX[kind].level


def binding_level(kind: type) -> int:
    """The binding level of the text of a node of ``kind``: printed where a
    higher one is needed, the text is parenthesized."""
    return _ATOM if kind is Act else _SYNTAX[kind].level


def compose(kind: type, operands: Sequence[Tuple[str, int]], attributes: Sequence[object] = ()) -> str:
    """What ``serialize`` prints for a node of ``kind`` whose subtrees print
    as the given texts, each with its binding level, and whose other fields
    are ``attributes``."""
    syntax = _SYNTAX[kind]
    fields = ["(%s)" % text if level < at else text for (text, level), (_, at) in zip(operands, syntax.operands)]
    return syntax.form % (*fields, *attributes)


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

# Index expressions are tuples: ('num', v), ('vec', which, i) for which in
# phi/psi/psistar/sj/var and 1-based state index i, ('steprob', parts),
# ('bin', op, l, r) and ('neg', x).
IndexExpr = tuple

_VECTOR_NAMES = ("phi", "psi", "psistar", "sj", "var")


def _index_atom(tokens: TokenStream) -> Optional[IndexExpr]:
    tok = tokens.peek()
    if tok.text == "(":
        return None
    if tok.kind == "number":
        # plain literal; "1/3" is ordinary division at this level
        tokens.next()
        return ("num", float(tok.text))
    if tok.kind == "name" and tok.text in _VECTOR_NAMES:
        tokens.next()
        tokens.expect("[")
        idx = tokens.peek()
        if not idx.text.isdigit():
            raise tokens.error("expected a state number")
        tokens.next()
        tokens.expect("]")
        return ("vec", tok.text, int(idx.text))
    if tok.kind == "name" and tok.text == "steprob":
        tokens.next()
        tokens.expect("[")
        parts = []
        while True:
            parts.append(Multiset.from_iterable(Action(n, c) for n, c in _parse_actions(tokens)))
            if not tokens.accept(","):
                break
        tokens.expect("]")
        return ("steprob", tuple(parts))
    raise tokens.error("expected a number, phi[i], sj[i] or steprob[...]")


# index expressions: + - * / with the usual precedences, and a prefix -
_INDEX = _Grammar(
    infix={"+": (0, ("bin", "+")), "-": (0, ("bin", "-")), "*": (1, ("bin", "*")), "/": (1, ("bin", "/"))},
    prefix={"-": ("neg",)},
    brackets={"(": ((")",), None)},
    atom=_index_atom,
    postfix=lambda tokens, node: node,
)


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
        return self._instantiated("root", overrides)

    def leaf_sources(self) -> List[Tuple[bool, Union[float, str]]]:
        """What each numbered leaf of ``instantiate()`` reads, in leaf order:
        whether its activity is immediate, and the name of its parameter or
        its literal value.  Read off the root template once."""
        if self._leaves is None:
            if self.root is None:
                raise ValueError("model has no root expression")
            self._leaves = _leaf_sources(self.root)
        return self._leaves

    def leaf_grid(self, overrides: Optional[Dict[str, Union[float, np.ndarray]]] = None
                  ) -> Tuple[np.ndarray, Optional[ValueError]]:
        """The base value of every leaf of ``instantiate`` at every point of a
        grid, without building a tree: one row per point, leaf ``c + 1`` in
        column ``c``.  A parameter in ``overrides`` takes one value or a
        column of one value per point.

        It gives the rows before the first point where ``instantiate`` would
        fail, and the ``ValueError`` it would raise there (an unbound
        parameter or a value out of range, at the first such leaf), or
        None."""
        bindings = self.bindings(overrides)
        sources = self.leaf_sources()
        grid = np.empty((grid_size(bindings), len(sources)))
        low, high = np.empty((2, len(sources)))
        for c, (immediate, source) in enumerate(sources):
            # an unbound parameter's nan fails the range check at every point
            grid[:, c] = bindings.get(source, math.nan) if isinstance(source, str) else source
            low[c], high[c] = Activity.value_bounds(immediate)
        bad = ~((grid > low) & (grid < high))
        failing = np.flatnonzero(bad.any(axis=1))
        if not failing.size:
            return grid, None
        k = int(failing[0])
        c = int(np.argmax(bad[k]))
        immediate, source = sources[c]
        if isinstance(source, str) and source not in bindings:
            return grid[:k], ValueError("unbound parameter %r" % source)
        return grid[:k], Activity.range_error(immediate, float(grid[k, c]))

    def leaf_values(self, overrides: Optional[Dict[str, float]] = None) -> Dict[int, float]:
        """The base value of every leaf of ``instantiate(overrides)``, by leaf
        number: the one-point case of ``leaf_grid``, which raises its
        error."""
        grid, error = self.leaf_grid(overrides)
        if error is not None:
            raise error
        return dict(enumerate(grid[0].tolist(), 1))

    def parameter_names(self) -> Set[str]:
        """The parameters the model declares, and those its root or peer
        reads."""
        read = self.leaf_sources() + (_leaf_sources(self.peer) if self.peer is not None else [])
        return set(self.params) | {source for _, source in read if isinstance(source, str)}

    def instantiate_peer(self, overrides: Optional[Dict[str, float]] = None) -> StaticExpr:
        return self._instantiated("peer", overrides)

    def _instantiated(self, which: str, overrides: Optional[Dict[str, float]]) -> StaticExpr:
        """The numbered static term of the ``root`` or the ``peer`` template."""
        template = getattr(self, which)
        if template is None:
            raise ValueError("model has no %s expression" % which)
        expr = _instantiate(template, self.bindings(overrides))
        if is_dynamic(expr):
            raise ValueError("%s expression carries bars" % which)
        expr = renumber(expr)
        if not is_regular(expr):
            raise ValueError("%s expression is not regular" % which)
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

    def sweep_grid(self, overrides: Optional[Dict[str, Union[float, Tuple[float, float, float]]]] = None
                   ) -> Dict[str, Union[float, np.ndarray]]:
        """The Cartesian grid over the ``sweep_axes`` (usually a single one),
        as the bindings at every point: each swept parameter's column of
        values (the first axis varies slowest), and the one value of every
        other; the single values in ``overrides`` hold at every point.  A
        grid of more than ``MAX_GRID_POINTS`` points raises ``ValueError``."""
        scalars = {name: v for name, v in (overrides or {}).items() if not isinstance(v, tuple)}
        grid: Dict[str, Union[float, np.ndarray]] = self.bindings(scalars)
        axes = [(name, np.array(ParamSpec(sweep=rng).grid())) for name, rng in self.sweep_axes(overrides)]
        sizes = [len(values) for _, values in axes]
        if math.prod(sizes) > MAX_GRID_POINTS:
            raise ValueError("sweep grid has more than %d points" % MAX_GRID_POINTS)
        for k, (name, values) in enumerate(axes):
            grid[name] = np.tile(np.repeat(values, math.prod(sizes[k + 1:])), math.prod(sizes[:k]))
        return grid


def grid_size(grid: Dict[str, Union[float, np.ndarray]]) -> int:
    """The number of points of a ``sweep_grid``."""
    return max([len(v) for v in grid.values() if isinstance(v, np.ndarray)], default=1)


def grid_point(grid: Dict[str, Union[float, np.ndarray]], k: int) -> Dict[str, float]:
    """Point ``k`` of a ``sweep_grid``: every parameter's value there."""
    return {name: float(v[k]) if isinstance(v, np.ndarray) else v for name, v in grid.items()}


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
            model.indices[name] = _parse(sub, _INDEX)
            _expect_done(sub)
        else:
            sub.expect("=")
            template = _parse(sub, _TERMS._replace(atom=partial(_term_atom, model.constants)))
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
