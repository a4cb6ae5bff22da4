"""Seeded input generators of the benchmark.

Everything here is plain text or plain integers; the program under test only
ever sees the generated model text and the renumbered transition system.
"""

from __future__ import annotations

import random
from typing import List


def shm_text(n: int, abstract: bool) -> str:
    """Model text of the shared-memory system with ``n`` processors.

    At n = 2 this is the bundled ``shared_memory`` (concrete) or
    ``shared_memory_abstract`` model.  In the abstract variant the request,
    grant and release actions carry no processor identity, so symmetric
    states lump under bisimulation.
    """

    def act(name: str, i: int) -> str:
        return name if abstract else "%s%d" % (name, i)

    lines = ["param rho = 0.5", "param l = 1"]
    for i in range(1, n + 1):
        lines.append(
            "P%d = [({x%d},rho) * (({%s},rho);({%s,y%d},#l);({%s,z%d},rho)) * Stop]"
            % (i, i, act("r", i), act("d", i), i, act("m", i), i)
        )
    grab = ",".join("x%d^" % i for i in range(1, n + 1))
    serve = " [] ".join("(({y%d^},#l);({z%d^},rho))" % (i, i) for i in range(1, n + 1))
    lines.append("MEM = [({a,%s},rho) * (%s) * Stop]" % (grab, serve))
    procs = " || ".join("P%d" % i for i in range(1, n + 1))
    sync = ",".join("%s%d" % (c, i) for c in "xyz" for i in range(1, n + 1))
    lines.append("root = (%s || MEM) sr(%s)" % (procs, sync))
    return "\n".join(lines) + "\n"


def shm_rg_size(n: int) -> int:
    """Reachable markings of shm-n, in both variants: (n+2)*2^(n-1) + 1."""
    return (n + 2) * 2 ** (n - 1) + 1


def shm_abstract_blocks(n: int) -> int:
    """Blocks of the largest autobisimulation of abstract shm-n."""
    return 2 * n + 2


_ACTIONS = ("a", "b", "c", "d")


def random_regular_text(rng: random.Random, max_activities: int, max_sync: int) -> str:
    """Random regular term in model syntax.

    Iteration bodies contain no top-level parallel composition (that keeps
    the term regular); at most ``max_activities`` activities and
    ``max_sync`` synchronizations (each optionally restricted) occur.
    """
    syncs_left = [rng.randint(0, max_sync)]

    def part() -> str:
        names = []
        for _ in range(rng.choice((1, 1, 1, 2))):
            name = rng.choice(_ACTIONS)
            names.append(name + "^" if rng.random() < 0.3 else name)
        return "{%s}" % ",".join(names)

    def activity() -> str:
        if rng.random() < 0.25:
            value = "#%.2f" % rng.uniform(0.5, 3.0)
        else:
            value = "%.3f" % rng.uniform(0.1, 0.9)
        return "(%s,%s)" % (part(), value)

    def term(budget: int, allow_par: bool) -> str:
        if budget <= 1 or rng.random() < 0.25:
            text = activity()
        else:
            op = rng.choice(("seq", "cho", "ite", "par", "par") if allow_par else ("seq", "cho", "ite"))
            if op == "ite" and budget >= 3:
                b_init = rng.randint(1, budget - 2)
                b_body = rng.randint(1, budget - b_init - 1)
                init = term(b_init, allow_par)
                body = term(b_body, False)
                end = term(budget - b_init - b_body, True) if rng.random() < 0.5 else "Stop"
                text = "[%s * %s * %s]" % (init, body, end)
            else:
                if op == "ite":
                    op = "seq"
                split = rng.randint(1, budget - 1)
                left = term(split, True if op == "par" else allow_par)
                right = term(budget - split, True if op in ("seq", "par") else allow_par)
                text = "(%s%s%s)" % (left, {"seq": ";", "cho": "[]", "par": "||"}[op], right)
        if syncs_left[0] > 0 and rng.random() < 0.3:
            syncs_left[0] -= 1
            action = rng.choice(_ACTIONS)
            text = "(%s sy %s)" % (text, action)
            if rng.random() < 0.5:
                text = "(%s rs %s)" % (text, action)
        return text

    return term(rng.randint(1, max_activities), True)


def renumbering(rng: random.Random, size: int) -> List[int]:
    """Seeded permutation of ``range(size)``: state i becomes state perm[i]."""
    perm = list(range(size))
    rng.shuffle(perm)
    return perm
