"""Arcs are exact ``(ilabel, olabel, weight, nextstate)`` tuples.

The cyclic garbage collector untracks an exact tuple of numbers, never a
tuple subclass, so every frozen machine the library builds holds exact
tuples.  A user's lazy view may still return any 4-item sequence: the
composition kernel and ``expand`` unpack arcs and never require a tuple.
"""

import collections
import gc

import pytest

from wfst import (Machine, Semiring, build_lm_fsa, compose, connect,
                  determinize, expand, lazy_compose, minimize, push,
                  read_text, write_text)

from helpers import sample_machines, viable_model

T = Semiring.TROPICAL

A_TEXT = "0 1 1 2 0.5\n0 1 1 3 1\n1 2 2 0 0.25\n1 0 0 1 1\n2 0.5\n"
B_TEXT = "0 0 2 1 0.5\n0 1 3 2\n0 1 0 3 0.25\n1 1\n"


def frozen_outputs():
    a = read_text(A_TEXT, acceptor=False)
    b = read_text(B_TEXT, acceptor=False)
    mutable = Machine(T)
    mutable.add_states(4)
    mutable.add_arc(0, 1, 1, 0.5, 1)
    mutable.add_arc(0, 1, 1, 1.5, 2)
    mutable.add_arc(1, 2, 2, 1, 3)
    mutable.add_arc(2, 2, 2, 2, 3)
    mutable.set_final(3, 0.5)
    lattice = mutable.freeze()
    untrimmed = read_text("0 3 1 1\n1 3 1 1\n3 0 2 1\n3 2 1 1\n0\n",
                          acceptor=False)
    return {
        "read_text": a,
        "freeze": lattice,
        "compose": compose(a, b),
        "determinize": determinize(lattice),
        "minimize": minimize(determinize(lattice)),
        "connect": connect(untrimmed),
        "push": push(lattice, "weights"),
        "expand": expand(lazy_compose(a, b)),
        "build_lm_fsa": build_lm_fsa(viable_model(41)[1]),
    }


@pytest.mark.parametrize("op", sorted(frozen_outputs()))
def test_arcs_are_exact_untracked_tuples(op):
    m = frozen_outputs()[op]
    arcs = [arc for _, arc in m.all_arcs()]
    assert arcs and all(type(arc) is tuple and len(arc) == 4 for arc in arcs)
    gc.collect()
    assert not any(gc.is_tracked(arc) for arc in arcs)


Move = collections.namedtuple("Move", "ilabel olabel weight nextstate")


class View:
    """A machine seen through a user's lazy view, its arcs made by ``make``
    from each arc's four fields."""

    def __init__(self, m, make):
        self.m, self.make = m, make
        self.kind, self.start, self.start_weight = m.kind, m.start, m.start_weight
        self.isymbols = self.osymbols = None

    def final(self, state):
        return self.m.final(state)

    def arcs(self, state):
        return [self.make(*arc) for arc in self.m.arcs(state)]


@pytest.mark.parametrize("make", [Move, lambda *arc: list(arc)],
                         ids=["namedtuple", "list"])
def test_views_of_any_arc_sequence_compose_like_tuples(make):
    def plain(*arc):
        return arc

    for kind in (T, Semiring.BOOLEAN):
        a, b, c = sample_machines(31, 3, kind=kind, max_states=5, max_arcs=8)
        for x, y in ((a, b), (b, c), (c, a)):
            want = expand(lazy_compose(View(x, plain), View(y, plain)))
            got = expand(lazy_compose(View(x, make), View(y, make)))
            assert write_text(got) == write_text(want)
            assert write_text(connect(got)) == write_text(compose(x, y))
