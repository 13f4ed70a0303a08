"""Golden outputs of every public machine operation.

Each op runs over seeded ``sample_machines`` draws of all three semirings:
acceptors and transducers, acyclic and cyclic.  A result is pinned by its
``write_text`` and start weight, a typed ``FsmError`` by its ``repr``; the
SHA-256 of those texts, joined over the draws, pins each op byte for byte.
Determinization is bounded by ``expansion_cap``, so an input that is not
determinizable fails fast rather than being left out.
"""

import hashlib
import itertools

import pytest

from wfst import (FsmError, Machine, Semiring, closure, compose, concat,
                  connect, determinize, expand, lazy_compose,
                  local_determinize, minimize, project, push, reverse, union,
                  write_text)

from helpers import sample_machines

CAP = 60  # determinization's subset states and subset elements
DRAWS = 20  # machines per (semiring, acceptor, acyclic) class


def _draws():
    out = []
    for i, (kind, acc, acyc) in enumerate(itertools.product(
            Semiring, (True, False), (True, False))):
        out.append(sample_machines(4200 + i, DRAWS, kind=kind, acceptor=acc,
                                   acyclic=acyc, max_states=5, max_arcs=8))
    return out


DRAWN = _draws()
SINGLES = [m for group in DRAWN for m in group]
# each draw with the next of its class, so operands share a semiring
PAIRS = [(a, b) for group in DRAWN for a, b in zip(group, group[1:])]


def untrimmed(m):
    """``m`` behind two more states, 0 unreachable and 1 dead, each joined
    to every state of ``m``: what ``connect`` must cut away."""
    one = m.kind.one
    out = Machine(m.kind)
    out.add_states(m.num_states + 2)
    for q in m.states():
        for il, ol, w, t in m.arcs(q):
            out.add_arc(q + 2, il, ol, w, t + 2)
        out.add_arc(0, 1, 1, one, q + 2)
        out.add_arc(q + 2, 2, 2, one, 1)
    for q, w in m.finals.items():
        out.set_final(q + 2, w)
    out.set_start(m.start + 2, m.start_weight)
    return out.freeze()


OPS = {
    "compose": (PAIRS, compose),
    "lazy_compose+expand": (PAIRS, lambda a, b: expand(lazy_compose(a, b))),
    "union": (PAIRS, union),
    "concat": (PAIRS, concat),
    "closure": (SINGLES, closure),
    "reverse": (SINGLES, reverse),
    "project": (SINGLES, lambda m: project(m, "output")),
    "connect": (SINGLES, lambda m: connect(untrimmed(m))),
    "determinize": (SINGLES, lambda m: determinize(m, expansion_cap=CAP)),
    "minimize": (SINGLES,
                 lambda m: minimize(determinize(m, expansion_cap=CAP))),
    "push weights": (SINGLES, lambda m: push(m, "weights")),
    "push strings": (SINGLES, lambda m: push(m, "strings")),
    "local_determinize": (SINGLES, lambda m: local_determinize(m, 1)),
}

GOLDEN = {
    "closure":
        "5a6f16ce58303ebfd1511affb972dbba3290d60671fa5ce373ffc9746a08472e",
    "compose":
        "7e581822746bcb0e43c5cd50a7e13ba6fd3e257954a33b5981700b7355ed0a97",
    "concat":
        "ead1ff88a85da1b9ea262948495e06a854b6f2509d724e0e1764bbc74d89036b",
    "connect":
        "393d8c0ecc7171a9a8b7f1b8143236b19942856e6e8cb2466ced72bd09a4bccf",
    "determinize":
        "c9921080d61f4b0bbdcbc50c66bf8dc37cb560db27c3ca40777f6693cbe2b7c8",
    "lazy_compose+expand":
        "26aa63abd9a70c074be3673e17c3509a89579808a26755cd60bdf0cc7d57ea54",
    "local_determinize":
        "ff68449c220bb833d36bb377c88deaab7ccca7749eb18417166fd58fd4d16a3e",
    "minimize":
        "f0e1cd5de9e3f83c0d01b8c937d43ad1469271a2f22581574ead471990c304b9",
    "project":
        "f62b1b7e95c5cb45e1d8baf729d6d008fde925b8e3f65cf2b849bd9abd5292c2",
    "push strings":
        "81eb23422ebfdba8f3ccaa5f078480659f358a3e0fe42b493308109385bba1ba",
    "push weights":
        "471aaebd0691d01ec9ac7e27ef7868b2fce6728fb5ef2ef23758b3a053971116",
    "reverse":
        "1cadbeb5e03b30e3ecfa2a531874af9b9195ed43576b7855c0175a54fa0469ea",
    "union":
        "6e2aa55525f515757ca1560a0e3d17d50355f4d67c33227ca46844a124f6e62c",
}


def texts(op):
    operands, run = OPS[op]
    parts = []
    for args in operands:
        try:
            m = run(*args) if isinstance(args, tuple) else run(args)
        except FsmError as exc:
            parts.append(repr(exc))
        else:
            parts.append(f"{write_text(m)}{m.start_weight!r}")
    return parts


@pytest.mark.parametrize("op", sorted(OPS))
def test_op_outputs_are_pinned(op):
    digest = hashlib.sha256("\0".join(texts(op)).encode()).hexdigest()
    assert digest == GOLDEN[op]
