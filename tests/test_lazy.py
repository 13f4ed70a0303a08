import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from wfst import (LRU, MEMOIZE, REFCOUNT, ContractError, Machine, Semiring,
                  accepted_pairs, cached, compose, connect, expand,
                  lazy_compose, read_text, weight_of, write_text)

from wfst import ops
from wfst.machine import EPSILON
from wfst.ops import LazyComposition, label_indexes

from helpers import (acceptor, bounded_pairs, build, product_compose,
                     sample_machines, unfrozen)
from test_rational_ops import join_oracle

T = Semiring.TROPICAL


def pair_samples(seed, count):
    out = []
    for i in range(count):
        a, b = sample_machines(seed + 2 * i, 2, kind=T, max_states=4,
                               max_arcs=7)
        out.append((a, b))
    return out


def test_lazy_expansion_equals_static_compose():
    for a, b in pair_samples(1000, 40):
        static = compose(a, b)
        lazy = connect(expand(lazy_compose(a, b)))
        assert write_text(static) == write_text(lazy)


def test_untrimmed_expand_contains_dead_branches():
    # the branch through pair (2, 2) dies one step later, in non-final
    # states 3, so label lookahead still builds (2, 2)
    a = build(T, [(0, 1, 1, 0.0, 1), (0, 1, 2, 0.0, 2), (2, 2, 2, 0.0, 3)],
              [1])
    b = build(T, [(0, 1, 3, 0.0, 1), (0, 2, 4, 0.0, 2), (2, 2, 5, 0.0, 3)],
              [1])
    full = expand(lazy_compose(a, b))
    trim = connect(expand(lazy_compose(a, b)))
    assert full.num_states > trim.num_states


def test_cache_disciplines_observationally_identical():
    for a, b in pair_samples(1100, 15):
        texts = []
        for view in (cached(lazy_compose(a, b), MEMOIZE),
                     cached(lazy_compose(a, b), LRU, capacity=2),
                     cached(lazy_compose(a, b), REFCOUNT)):
            texts.append(write_text(connect(expand(view))))
        assert texts[0] == texts[1] == texts[2]


def test_memoize_never_reexpands():
    a, b = pair_samples(1200, 1)[0]
    view = cached(lazy_compose(a, b), MEMOIZE)
    expand(view)
    n = view.expansions
    expand(view)
    assert view.expansions == n


def test_lru_evicts_but_stays_correct():
    a, b = pair_samples(1300, 1)[0]
    full = cached(lazy_compose(a, b), MEMOIZE)
    tight = cached(lazy_compose(a, b), LRU, capacity=1)
    ta = write_text(connect(expand(full)))
    expand(tight)
    tb = write_text(connect(expand(tight)))
    assert ta == tb
    assert tight.expansions >= full.expansions


def test_lru_requires_capacity():
    a, b = pair_samples(1400, 1)[0]
    with pytest.raises(ContractError):
        cached(lazy_compose(a, b), LRU)


def test_refcount_retention():
    a, b = pair_samples(1500, 1)[0]
    view = cached(lazy_compose(a, b), REFCOUNT)
    s = view.start
    # unacquired: every arcs() call re-expands
    view.arcs(s)
    view.arcs(s)
    assert view.expansions == 2
    view.acquire(s)
    view.arcs(s)
    n = view.expansions
    view.arcs(s)
    assert view.expansions == n
    view.release(s)
    view.arcs(s)
    assert view.expansions == n + 1


def test_refcount_keeps_a_state_until_its_last_release():
    a, b = pair_samples(1500, 1)[0]
    view = cached(lazy_compose(a, b), REFCOUNT)
    s = view.start
    view.acquire(s)
    view.acquire(s)
    view.arcs(s)
    n = view.expansions
    view.release(s)
    view.arcs(s)
    assert view.expansions == n
    view.release(s)
    view.arcs(s)
    assert view.expansions == n + 1


def test_refcount_api_guard():
    a, b = pair_samples(1600, 1)[0]
    view = cached(lazy_compose(a, b), MEMOIZE)
    with pytest.raises(ContractError):
        view.acquire(view.start)
    lru = cached(lazy_compose(a, b), LRU, capacity=2)
    with pytest.raises(ContractError, match="REFCOUNT caches only"):
        lru.release(lru.start)


def test_unknown_discipline():
    a, b = pair_samples(1700, 1)[0]
    with pytest.raises(ContractError):
        cached(lazy_compose(a, b), "fifo")


def test_stacked_lazy_composition():
    rng = random.Random(9)
    for _ in range(5):
        a, b = sample_machines(rng.randrange(10**6), 2, kind=T, max_states=3,
                               max_arcs=5)
        c, = sample_machines(rng.randrange(10**6), 1, kind=T, max_states=3,
                             max_arcs=5)
        static = compose(compose(a, b), c)
        lazy = connect(expand(lazy_compose(lazy_compose(a, b), c)))
        for inp, _ in accepted_pairs(static, max_path_len=8):
            assert weight_of(lazy, inp, max_path_len=12) == \
                weight_of(static, inp, max_path_len=12)


# -- the per-state label index compositions keep for their right operand --


def test_shared_index_on_frozen_machine_matches_fresh_copy():
    # B is read from text, as its fresh copies are, so arc orders agree
    sample = sample_machines(1800, 1, kind=T, max_states=5, max_arcs=10)[0]
    b_text = write_text(sample)
    shape = sample.is_acceptor()  # the form write_text chose
    b = read_text(b_text, kind=T, acceptor=shape)
    many_a = sample_machines(1801, 30, kind=T, max_states=4, max_arcs=7)
    for i, a in enumerate(many_a):
        fresh = read_text(b_text, kind=T, acceptor=shape)
        expected = write_text(compose(a, fresh))
        if i % 2:
            got = write_text(connect(expand(lazy_compose(a, b))))
        else:
            got = write_text(compose(a, b))
        assert got == expected, i
    assert label_indexes(b)  # filled once, then shared by every composition


def test_an_unfrozen_operand_is_rejected_by_composition():
    # a mutable B could gain an arc between compositions, so none takes it
    a = build(T, [(0, 1, 1, 0.5, 1), (1, 2, 2, 0.0, 1)], [1])
    b = build(T, [(0, 1, 3, 1.0, 1)], [1])
    for compose_op in (compose, lazy_compose):
        for left, right in ((a, unfrozen(b)), (unfrozen(a), b)):
            with pytest.raises(ContractError, match="not frozen"):
                compose_op(left, right)


def test_evicting_lazy_view_as_right_operand():
    for a, b1, b2 in zip(*(sample_machines(seed, 10, kind=T, max_states=4,
                                           max_arcs=7)
                           for seed in (1900, 1901, 1902))):
        expected = write_text(compose(a, expand(lazy_compose(b1, b2))))
        view = cached(lazy_compose(b1, b2), LRU, capacity=1)
        assert write_text(compose(a, view)) == expected
        assert write_text(connect(expand(lazy_compose(a, view)))) == expected
        assert len(view._cache) <= view.capacity  # it bounds its own arcs


def test_refcount_view_as_right_operand():
    for a, b1, b2 in zip(*(sample_machines(seed, 10, kind=T, max_states=4,
                                           max_arcs=7)
                           for seed in (1910, 1911, 1912))):
        expected = write_text(compose(a, expand(lazy_compose(b1, b2))))
        view = cached(lazy_compose(b1, b2), REFCOUNT)
        view.acquire(view.start)
        assert write_text(compose(a, view)) == expected
        assert list(view._cache) == [view.start]  # only the held state
        view.release(view.start)
        assert not view._cache


@st.composite
def machine_pairs(draw):
    """Two trim machines of one kind with epsilon on both tapes, so most
    compositions are nonempty and reach pairs whose A state has
    epsilon-output arcs."""
    kind = draw(st.sampled_from(list(Semiring)))
    seed = draw(st.integers(0, 2**32 - 1))
    return tuple(sample_machines(seed, 2, kind=kind, max_states=5,
                                 max_arcs=8))


@settings(deadline=None)
@given(machine_pairs())
def test_trimmed_lazy_expansion_equals_static_compose(pair):
    # both run the one pair-state kernel, so the unpruned product is the
    # reference that catches a kernel fault
    a, b = pair
    assert write_text(connect(expand(lazy_compose(a, b)))) == \
        write_text(compose(a, b)) == write_text(product_compose(a, b))


@settings(deadline=None)
@given(machine_pairs())
def test_lookahead_matches_unpruned_product(pair):
    a, b = pair
    expected = write_text(product_compose(a, b))
    assert write_text(compose(a, b)) == expected
    view = LazyComposition(a, b)
    assert write_text(connect(expand(view))) == expected


def assert_filter_states_normal(view):
    """Filter 1 only where B's state reads epsilon, filter 2 only where A's
    state writes epsilon: elsewhere filter 0 allows the same moves."""
    for s1, s2, f in view._pairs:
        if f == ops._A_ALONE:
            assert any(arc[0] == EPSILON for arc in view.b.arcs(s2))
        elif f == ops._B_ALONE:
            assert any(arc[1] == EPSILON for arc in view.a.arcs(s1))


@settings(deadline=None)
@given(machine_pairs())
def test_a_pair_keeps_a_filter_state_only_where_it_blocks_a_move(pair):
    a, b = pair
    inner = lazy_compose(a, b)
    outer = lazy_compose(inner, b)  # A is a view: its arcs are pair moves
    expand(outer)
    expand(inner)
    assert_filter_states_normal(inner)
    assert_filter_states_normal(outer)


def test_b_alone_twin_takes_filter_0():
    # A's state 0 writes no epsilon, so B's epsilon loop at its state 0
    # leads from the start pair back to it rather than to a twin
    # (0, 0, 2) with the same moves
    a = build(T, [(0, 1, 1, 0.0, 1)], [1])
    b = build(T, [(0, 0, 5, 0.5, 0), (0, 1, 1, 0.0, 1)], [1])
    view = lazy_compose(a, b)
    expand(view)
    assert view._pairs == [(0, 0, 0), (1, 1, 0)]
    assert write_text(compose(a, b)) == write_text(product_compose(a, b)) == \
        "0 0 0 5 0.5\n0 1 1 1\n1\n"
    assert weight_of(compose(a, b), (1,), (5, 5, 1)) == 1.0


def epsilon_outputs(m):
    return sum(arc[1] == EPSILON for _, arc in m.all_arcs())


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(list(Semiring)), st.integers(0, 2**32 - 1))
def test_nested_cascade_equals_unpruned_product(kind, seed):
    # the outer kernel's lookahead reads the output labels of a lazy left
    # operand, which expands inner pair states ahead of the outer search
    a, b, c = sample_machines(seed, 3, kind=kind, max_states=5, max_arcs=8)
    full = expand(lazy_compose(a, b))
    expected = write_text(compose(full, c))
    assert write_text(product_compose(full, c)) == expected
    for inner in (cached(lazy_compose(a, b)), lazy_compose(a, b),
                  cached(lazy_compose(a, b), LRU, capacity=1)):
        nested = connect(expand(lazy_compose(inner, c)))
        assert write_text(nested) == expected
    trimmed = compose(compose(a, b), c)
    assert write_text(trimmed) == \
        write_text(product_compose(product_compose(a, b), c))
    if epsilon_outputs(connect(full)) == epsilon_outputs(full):
        # trimming the inner view drops no epsilon-output arc, so every
        # outer pair state takes the same filter state
        assert write_text(nested) == write_text(trimmed)
    assert trimmed.num_states <= nested.num_states
    relation = bounded_pairs(nested, 3, 3, 10)
    assert relation.keys() == bounded_pairs(trimmed, 3, 3, 10).keys()
    for key, w in bounded_pairs(trimmed, 3, 3, 10).items():
        assert math.isclose(relation[key], w, rel_tol=1e-9), key


@pytest.mark.parametrize("kind", list(Semiring))
def test_nested_cascade_matches_join_oracle(kind):
    # acyclic operands of at most 4 states have paths of at most 3 arcs,
    # so the bounded relations below are exact, and the nested relation is
    # checked by an oracle that shares no code with either kernel
    for seed in range(40):
        a, b, c = sample_machines(3000 + 3 * seed, 3, kind=kind,
                                  max_states=4, max_arcs=8, acyclic=True)
        nested = connect(expand(lazy_compose(lazy_compose(a, b), c)))
        pa, pb, pc = (bounded_pairs(m, 3, 3, 3) for m in (a, b, c))
        expected = join_oracle(kind, join_oracle(kind, pa, pb), pc)
        got = bounded_pairs(nested, 3, 3, 9)
        assert got.keys() == expected.keys()
        for key, w in expected.items():
            assert math.isclose(got[key], w, rel_tol=1e-9), key


def test_lazy_cascade_keeps_a_twin_over_a_dead_inner_arc():
    # the inner view's arc 0 -2:eps-> 2 leads to the pair (2, 2), which
    # the lookahead keeps but which cannot finish; so the inner state 0
    # writes epsilon, and C's epsilon loop leads to a filter-2 twin of the
    # start.  The trimmed inner compose drops that arc, and the twin merges
    a = build(T, [(0, 1, 1, 0.0, 1), (0, 2, 2, 0.0, 2), (2, 4, 3, 0.0, 3)],
              [1])
    b = build(T, [(0, 1, 1, 0.0, 1), (0, 2, 0, 0.0, 2), (2, 3, 3, 0.0, 3)],
              [1, 3])
    c = build(T, [(0, 0, 7, 0.5, 0), (0, 1, 1, 0.0, 1)], [1])
    assert write_text(expand(lazy_compose(a, b))) == "0 1 1 1\n0 2 2 0\n1\n"
    nested = connect(expand(lazy_compose(lazy_compose(a, b), c)))
    trimmed = compose(compose(a, b), c)
    assert write_text(nested) == \
        "0 2 0 7 0.5\n0 1 1 1\n1\n2 2 0 7 0.5\n2 1 1 1\n"
    assert write_text(trimmed) == "0 0 0 7 0.5\n0 1 1 1\n1\n"
    assert bounded_pairs(nested, 1, 3, 8) == bounded_pairs(trimmed, 1, 3, 8)


def test_bare_lazy_left_operand_arcs_are_kept_per_state():
    # the outer kernel keeps each A state's arcs with its lookahead sets,
    # and the arcs of the states its output-epsilon walks cross, so a bare
    # inner view (no cache) is asked for each state's arcs once
    calls, states = 0, set()
    for seed in range(20):
        a, b, c = sample_machines(7000 + seed, 3, kind=T, max_states=5,
                                  max_arcs=8)
        inner = lazy_compose(a, b)
        inner_arcs = inner.arcs

        def counted(state, inner_arcs=inner_arcs):
            nonlocal calls
            calls += 1
            states.add((seed, state))
            return inner_arcs(state)

        inner.arcs = counted
        nested = connect(expand(lazy_compose(inner, c)))
        assert write_text(nested) == write_text(compose(compose(a, b), c))
    assert len(states) == 38
    assert calls == len(states)


def test_output_epsilon_self_loop_reads_its_state_once():
    # A's state 0 writes epsilon on a loop to itself
    a = cached(build(T, [(0, 1, 0, 0.5, 0), (0, 2, 2, 0.0, 1)], [1]))
    b = build(T, [(0, 2, 3, 0.0, 1)], [1])
    calls, cache_arcs = [], a.arcs
    a.arcs = lambda state: calls.append(state) or cache_arcs(state)
    got = connect(expand(lazy_compose(a, b)))
    assert write_text(got) == write_text(product_compose(a.m, b))
    assert sorted(calls) == [0, 1]


def test_only_a_frozen_machine_keeps_composition_tables():
    frozen = build(T, [(0, 1, 1, 0.0, 1)], [1])
    mutable = Machine(T)
    mutable.add_arc(0, 1, 1, 0.0, 1)
    for name in ("label_indexes", "lookahead_sets"):
        table = label_indexes(frozen, name)
        assert table == {} and label_indexes(frozen, name) is table
        for m in (mutable, cached(frozen), lazy_compose(frozen, frozen)):
            fresh = label_indexes(m, name)
            assert fresh == {} and label_indexes(m, name) is not fresh
    assert label_indexes(frozen) is not label_indexes(frozen, "lookahead_sets")
    compose(frozen, frozen)
    assert list(label_indexes(frozen)) == [0, 1]


# -- label lookahead: pair states that cannot succeed are never built --


def lookahead_operands():
    """A linear A (1 then 2) and a B whose branches 0 -1-> 3 and the
    epsilon branch 1 -> 4 can read only 3 next, a dead end for A."""
    a = acceptor(T, [(0, 1, 0.0, 1), (1, 2, 0.0, 2)], [2])
    b = build(T, [(0, 1, 1, 0.0, 1), (0, 1, 1, 0.0, 3), (1, 2, 2, 0.0, 2),
                  (3, 3, 3, 0.0, 2), (1, 0, 5, 0.0, 4), (4, 3, 3, 0.0, 2),
                  (0, 0, 6, 0.0, 5), (5, 1, 1, 0.0, 1)], [2])
    return a, b


def test_lookahead_builds_only_pairs_that_can_succeed():
    a, b = lookahead_operands()
    view = lazy_compose(a, b)
    expand(view)
    # (0, 0) start, (1, 1) and (0, 5) read on, (2, 2) stops; the moves to
    # (1, 3) and, over epsilon, to (1, 4) are dropped, so neither gets an id.
    # A's state 0 writes no epsilon, so the B-alone target (0, 5) takes
    # filter 0
    assert view._pairs == [(0, 0, 0), (1, 1, 0), (0, 5, 0), (2, 2, 0)]
    assert len(view._ids) == len(view._pairs) == 4
    assert len(view.arcs(0)) == 2  # the arc to (1, 3) is dropped
    assert write_text(compose(a, b)) == write_text(product_compose(a, b))


def test_lookahead_lets_output_epsilon_moves_through():
    # A's state 1 writes epsilon before 3; B's state 1 reads only 3, so
    # the pair (1, 1) is built although 1 writes no label B reads
    a = build(T, [(0, 1, 1, 0.0, 1), (1, 2, 0, 0.0, 2), (2, 3, 3, 0.0, 3)],
              [3])
    b = build(T, [(0, 1, 1, 0.0, 1), (1, 3, 3, 0.0, 2)], [2])
    assert write_text(compose(a, b)) == write_text(product_compose(a, b)) == \
        "0 1 1 1\n1 2 2 0\n2 3 3 3\n3\n"


def test_b_alone_move_is_tested_against_a_direct_labels():
    # A's state 1 writes only epsilon and is not final; B's state 1 has an
    # epsilon-input arc to 2.  From (1, 2, _B_ALONE) the filter lets A only
    # match, and it has nothing to match with, so that pair is never built
    a = build(T, [(0, 1, 1, 0.0, 1), (1, 2, 0, 0.0, 2), (2, 3, 3, 0.0, 3)],
              [3])
    b = build(T, [(0, 1, 1, 0.0, 1), (1, 0, 5, 0.0, 2), (2, 3, 3, 0.0, 3)],
              [3])
    view = LazyComposition(a, b)
    expand(view)
    assert (1, 2, ops._B_ALONE) not in view._pairs
    assert write_text(compose(a, b)) == write_text(product_compose(a, b))


def test_a_alone_move_is_tested_against_b_own_labels():
    # A writes epsilon, then 5; B's state 0 reads 6 and backs off over an
    # epsilon arc to 1, which reads 5.  From (1, 0, _A_ALONE) the filter
    # lets B only match, and state 0 reads no 5 of its own, so that pair is
    # never built: the path goes through the both-move to (1, 1) instead
    a = build(T, [(0, 1, 0, 0.0, 1), (1, 2, 5, 0.0, 2)], [2])
    b = build(T, [(0, 6, 6, 0.0, 0), (0, 0, 0, 0.5, 1), (1, 5, 5, 0.0, 0)],
              [0])
    view = LazyComposition(a, b)
    m = expand(view)
    assert (1, 0, ops._A_ALONE) not in view._pairs
    assert connect(m).num_states == m.num_states
    assert write_text(compose(a, b)) == write_text(product_compose(a, b)) == \
        "0 1 1 0 0.5\n1 2 2 5\n2\n"


def test_lookahead_reads_through_a_output_epsilon_moves():
    # A's state 1 writes epsilon and then 3; B's state 1 reads only 4, so
    # the match to (1, 1) is dropped and that pair never gets an id
    a = build(T, [(0, 1, 1, 0.0, 1), (1, 2, 0, 0.0, 2), (2, 3, 3, 0.0, 3),
                  (0, 5, 5, 0.0, 3)], [3])
    b = build(T, [(0, 1, 1, 0.0, 1), (1, 4, 4, 0.0, 2), (0, 5, 5, 0.0, 2)],
              [2])
    view = LazyComposition(a, b)
    expand(view)
    assert view._pairs == [(0, 0, 0), (3, 2, 0)]
    assert write_text(compose(a, b)) == write_text(product_compose(a, b)) == \
        "0 1 5\n1\n"


def test_lookahead_finds_a_final_behind_output_epsilon_moves():
    # A is final only after two epsilon-output arcs, and B is final where
    # it starts: the end of the walk must count as a label both share
    a = build(T, [(0, 1, 0, 0.5, 1), (1, 2, 0, 0.25, 2)], [2])
    b = build(T, [], [0])
    assert write_text(compose(a, b)) == write_text(product_compose(a, b)) == \
        "0 1 1 0 0.5\n1 2 2 0 0.25\n2\n"


def test_lookahead_walk_terminates_on_an_output_epsilon_cycle():
    # 0 and 1 write epsilon to each other; each leaves the cycle with a
    # label of its own, and 2 writes epsilon into the cycle
    a = build(T, [(0, 1, 0, 0.5, 1), (1, 2, 0, 0.5, 0), (1, 3, 3, 1.0, 3),
                  (0, 4, 4, 1.0, 3), (2, 5, 0, 0.0, 1), (0, 6, 6, 0.0, 2)],
              [3])
    for b in (build(T, [(0, 3, 3, 0.0, 1)], [1]),
              build(T, [(0, 4, 4, 0.0, 1)], [1]),
              build(T, [(0, 6, 6, 0.0, 1), (1, 0, 7, 0.0, 2),
                        (2, 3, 3, 0.0, 3)], [3]),
              build(T, [(0, 7, 7, 0.0, 1)], [1])):
        expected = write_text(product_compose(a, b))
        assert write_text(compose(a, b)) == expected
        assert write_text(connect(expand(lazy_compose(a, b)))) == expected


class FillCounter(dict):
    """A dict that records each key written to it with ``[]``."""

    def __init__(self):
        super().__init__()
        self.fills = []

    def __setitem__(self, key, value):
        self.fills.append(key)
        super().__setitem__(key, value)


def test_lookahead_sets_are_shared_and_interned_on_frozen_machine():
    a, b = lookahead_operands()
    indexes = b._derived["label_indexes"] = FillCounter()
    reads = b._derived["lookahead_sets"] = FillCounter()
    compose(a, b)
    assert indexes.fills and len(set(indexes.fills)) == len(indexes.fills)
    table = dict(label_indexes(b, "lookahead_sets"))
    assert table[1] == {2, 3}  # state 1 reads 2, and 3 after epsilon
    assert table[3] is table[4]  # equal sets are one object
    # a second composition reads both shared tables as they are: it
    # indexes no state again, and never walks B to compute a label set
    filled = len(indexes.fills), len(reads.fills)
    expand(lazy_compose(a, b))
    assert (len(indexes.fills), len(reads.fills)) == filled
    shared = label_indexes(b, "lookahead_sets")
    assert shared is reads and shared == table
    assert all(shared[k] is v for k, v in table.items())


def test_lookahead_over_an_evicting_right_operand():
    for a, b in pair_samples(2000, 20):
        expected = write_text(compose(a, b))
        view = cached(b, LRU, capacity=1)
        assert write_text(compose(a, view)) == expected
        assert write_text(connect(expand(lazy_compose(a, view)))) == expected
        assert len(view._cache) <= view.capacity  # it bounds its own arcs
