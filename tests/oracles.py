"""Reference implementations that only the tests use.

They re-derive, by brute force over single terms or whole enumerated
classes, what the step semantics computes compositionally.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

from dtsipbc.expr import (
    Act,
    Action,
    DCho,
    DIte,
    DPar,
    DRel,
    DRst,
    DSeq,
    DSyn,
    DynamicExpr,
    Over,
    Under,
)
from dtsipbc.opsem import (
    Engine,
    SemanticsError,
    Step,
    _forward_root,
    _rewrites,
    _saturate_step,
)
from dtsipbc.parser import serialize


# ---------------------------------------------------------------------------
# Classes by enumeration
# ---------------------------------------------------------------------------


def enumerated_class(engine: Engine, g: DynamicExpr) -> Tuple[Tuple[DynamicExpr, ...], bool, bool]:
    """Operative members in serialization order and the initial and final
    flags of the class of ``g``, read off the whole enumerated closure."""
    members = engine.closure(g)
    ops = tuple(sorted((d for d in members if not _rewrites(d, _forward_root)), key=serialize))
    return ops, engine.is_initial(g), engine.is_final(g)


# ---------------------------------------------------------------------------
# Potentially and currently executable step sets of one operative term
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
