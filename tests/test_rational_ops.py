import math
import random

import pytest

from wfst import (EPSILON, CapExceededError, CascadeSpec, ContractError,
                  KindMismatchError, Lattice, Machine, Semiring,
                  SemiringError, SymbolError, SymbolTable,
                  accepted_pairs, beam_decode, best_path, cached, closure,
                  complement, compose, concat, connect, determinize,
                  difference, equivalent, expand, intersect,
                  intersect_samelength, lattice_prune, lazy_compose,
                  local_determinize, marker, minimize, project, push,
                  read_text, rescore, reverse, shortest_distance, twins_test,
                  union, weight_of, write_text)
from wfst.ops import _complete_table, label_index, label_indexes, merge_arcs

from helpers import (acceptor, bounded_pairs, build, product_compose,
                     random_machine, sample_machines, strings_up_to,
                     unfrozen)

T = Semiring.TROPICAL
B = Semiring.BOOLEAN
R = Semiring.REAL


def join_oracle(kind, pairs_a, pairs_b):
    """(u, w) -> combine over v of A(u, v) (x) B(v, w).

    ``pairs_b`` is grouped by its middle string v once; each key still
    combines A's pairs in order, each one's matches in ``pairs_b`` order.
    """
    by_middle = {}
    for (v, w), wb in pairs_b.items():
        by_middle.setdefault(v, []).append((w, wb))
    out = {}
    for (u, v), wa in pairs_a.items():
        for w, wb in by_middle.get(v, ()):
            key = (u, w)
            total = kind.extend(wa, wb)
            out[key] = kind.combine(out[key], total) if key in out else total
    return out


def check_compose_pair(a, b, tol=0.0, max_len=4, mid=6, max_arcs=14,
                       c_arcs=18):
    c = compose(a, b)
    pa = bounded_pairs(a, max_len, mid, max_arcs)
    pb = bounded_pairs(b, mid, max_len, max_arcs)
    expected = join_oracle(a.kind, pa, pb)
    got = bounded_pairs(c, max_len, max_len, c_arcs)
    for key, w in expected.items():
        gw = got.get(key, a.kind.zero)
        if tol:
            assert abs(gw - w) <= tol * max(1.0, abs(w)), (key, gw, w)
        else:
            assert gw == w, (key, gw, w)
    for key in got:
        assert key in expected, key


def test_compose_oracle_tropical():
    for i in range(0, 40, 2):
        ms = sample_machines(100 + i, 2, kind=T, max_states=4, max_arcs=6)
        check_compose_pair(ms[0], ms[1])


def test_compose_oracle_real_acyclic():
    for i in range(0, 30, 2):
        ms = sample_machines(300 + i, 2, kind=R, max_states=4, max_arcs=6,
                             acyclic=True)
        check_compose_pair(ms[0], ms[1], tol=1e-9)


def epsilon_acyclic(m, tape):
    """Whether the arcs of ``m`` with epsilon on ``tape`` (0 input, 1
    output) form no cycle."""
    arcs = [(q, *arc) for q, arc in m.all_arcs() if arc[tape] == 0]
    return build(m.kind, arcs, {}, num_states=m.num_states) \
        .topological_order() is not None


@pytest.mark.parametrize("kind", [T, B, R])
def test_compose_oracle_cyclic_with_epsilon_on_both_tapes(kind):
    # cyclic pairs where A writes epsilon and B reads epsilon, so the lone
    # moves of both sides meet and filter states are merged.  Every cycle
    # of A reads input and every cycle of B writes output, so strings of
    # at most 3 symbols bound A's paths and B's to 16 arcs each (4 states)
    # and the truncated sums are exact; under REAL a pair of paths counted
    # twice changes the weight
    rng, checked = random.Random({T: 500, B: 600, R: 700}[kind]), 0
    while checked < 20:
        a, b = sample_machines(rng.randrange(2**32), 2, kind=kind,
                               max_states=4, max_arcs=7)
        if (any(arc[1] == 0 for _, arc in a.all_arcs())
                and any(arc[0] == 0 for _, arc in b.all_arcs())
                and (a.topological_order() is None
                     or b.topological_order() is None)
                and epsilon_acyclic(a, 0) and epsilon_acyclic(b, 1)):
            check_compose_pair(a, b, tol=1e-9 if kind is R else 0.0,
                               max_len=3, mid=16, max_arcs=16, c_arcs=32)
            checked += 1


def draw_acceptor(rng, kind):
    m = None
    while m is None:
        m = random_machine(rng, kind, max_states=5, max_arcs=9, acceptor=True,
                           alphabet=(1, 2), weights=(0.0, 0.25, 0.5, 1.0))
    return m


def test_composition_is_associative_up_to_equivalence():
    # dyadic weights keep every sum exact; a TROPICAL draw counts only when
    # both groupings have the twin property, so that equivalent's
    # determinize terminates; cyclic results take minimize's Hopcroft path
    rng = random.Random(41)
    cyclic = {B: 0, T: 0}
    for kind in (B, T) * 60:
        a, b, c = (draw_acceptor(rng, kind) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        if kind is T and not (twins_test(left).has_twin_property
                              and twins_test(right).has_twin_property):
            continue
        assert equivalent(left, right)
        cyclic[kind] += bool(left.finals) and left.topological_order() is None
    assert cyclic[B] >= 25 and cyclic[T] >= 5, cyclic


def draw_transducer(rng):
    m = None
    while m is None:
        m = random_machine(rng, T, max_states=4, max_arcs=7, alphabet=(1, 2),
                           weights=(0.0, 0.25, 0.5, 1.0))
    return m


def test_transducer_composition_is_associative_up_to_equivalence():
    # a triple counts when both groupings determinize within the cap to a
    # deterministic machine, which a functional relation does: a final
    # output flushed beside labelled arcs is one epsilon-input arc there;
    # one triple of these draws needs minimize to read a flush of no
    # output into an arcless final as a final weight
    rng = random.Random(42)
    counted = {"transducer": 0, "cyclic": 0, "flush": 0}
    for _ in range(200):
        a, b, c = (draw_transducer(rng) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        dets = []
        for m in (left, right):
            try:
                dets.append(determinize(m, expansion_cap=50))
            except CapExceededError:
                break
        if len(dets) < 2 or not all(d.is_deterministic() for d in dets):
            continue
        assert equivalent(left, right)
        counted["transducer"] += bool(left.finals) and not left.is_acceptor()
        counted["cyclic"] += left.topological_order() is None
        counted["flush"] += any(
            len(d.arcs(q)) > 1 and any(il == EPSILON for il, *_ in d.arcs(q))
            for d in dets for q in d.states())
    assert counted["transducer"] >= 40 and counted["cyclic"] >= 25 and \
        counted["flush"] >= 5, counted


def test_unfiltered_composition_overcounts():
    # A emits an epsilon after a real match; B consumes an epsilon after
    # the same match.  The two moves commute, so an unfiltered composition
    # counts the same underlying path several times.
    a = build(R, [(0, 1, 2, 1.0, 1), (1, 3, 0, 1.0, 2)], {2: 1.0})
    b = build(R, [(0, 2, 4, 1.0, 1), (1, 0, 5, 1.0, 2)], {2: 1.0})
    good = compose(a, b)
    bad = product_compose(a, b, filtered=False)
    w_good = weight_of(good, (1, 3), (4, 5), max_path_len=10)
    w_bad = weight_of(bad, (1, 3), (4, 5), max_path_len=10)
    assert w_good == 1.0
    assert w_bad == 3.0  # both orders plus the simultaneous move


def test_merge_arcs_order():
    # A arcs in order, each one's matches in B's arc order, then B-alone
    # epsilon moves: composition's state numbering follows this order
    a = build(T, [(0, 1, 5, 0.5, 1), (0, 2, 0, 0.0, 1)], [1])
    b = build(T, [(0, 5, 7, 1.0, 1), (0, 0, 8, 0.0, 1), (0, 5, 6, 2.0, 1)],
              [1])
    moves = list(merge_arcs(T, a.arcs(0), label_index(b, label_indexes(b), 0),
                            0))
    assert moves == [(1, 7, 1.5, (1, 1, 0)), (1, 6, 2.5, (1, 1, 0)),
                     (2, 8, 0.0, (1, 1, 0)), (2, 0, 0.0, (1, None, 1)),
                     (0, 8, 0.0, (None, 1, 2))]


@pytest.mark.parametrize("kind, big", [(T, -1e308), (R, 1e308)])
def test_overflowing_products_raise(kind, big):
    # every operand weight is in the carrier; their products overflow to
    # -inf (TROPICAL) or inf (REAL), which is not
    one = kind.one
    heavy_arc = build(kind, [(0, 1, 1, big, 1)], {1: one})
    heavy_final = build(kind, [(0, 1, 1, one, 1)], {1: big})
    heavy_start = build(kind, [(0, 1, 1, one, 1)], {1: one},
                        start_weight=big)
    message = r"^-?inf is not in the \w+ carrier$"
    for m in (heavy_arc, heavy_final, heavy_start):
        with pytest.raises(SemiringError, match=message):
            compose(m, m)
        with pytest.raises(SemiringError, match=message):
            expand(lazy_compose(m, m))
    # a lazy cascade checks the products it reads, not only ``expand``
    with pytest.raises(SemiringError, match=message):
        lazy_compose(heavy_arc, heavy_arc).arcs(0)
    if kind is T:
        with pytest.raises(SemiringError, match=message):
            beam_decode(CascadeSpec([heavy_arc, heavy_arc]), [1])


@pytest.mark.parametrize("kind, big", [(T, -1e308), (R, 1e308)])
def test_lookahead_drops_a_move_before_forming_its_product(kind, big):
    # the first arcs' product overflows; A's state 1 writes only 2 next,
    # so against ``dead``, whose state 1 reads only 3, the move is dropped
    # unformed, while ``kept`` reads 2 there and the product raises
    one = kind.one
    a = build(kind, [(0, 1, 1, big, 1), (1, 2, 2, one, 2)], {2: one})
    dead = build(kind, [(0, 1, 1, big, 1), (1, 3, 3, one, 2)], {2: one})
    kept = build(kind, [(0, 1, 1, big, 1), (1, 2, 2, one, 2)], {2: one})
    assert not compose(a, dead).finals
    assert lazy_compose(a, dead).arcs(0) == ()
    message = r"^-?inf is not in the \w+ carrier$"
    with pytest.raises(SemiringError, match=message):
        compose(a, kept)
    with pytest.raises(SemiringError, match=message):
        lazy_compose(a, kept).arcs(0)


def test_compose_respects_epsilon_paths():
    a = build(T, [(0, 1, 0, 0.5, 1)], {1: 0.0})  # 1 -> eps
    b = build(T, [(0, 2, 3, 0.25, 1)], {0: 0.0, 1: 0.0})
    c = compose(a, b)
    assert weight_of(c, (1,), ()) == 0.5


@pytest.mark.parametrize("op", [
    lambda e, m: compose(e, m), lambda e, m: compose(m, e),
    lambda e, m: lazy_compose(e, m), lambda e, m: union(e, m),
    lambda e, m: union(m, e), lambda e, m: concat(m, e),
    lambda e, m: concat(m, m, e), lambda e, m: closure(e),
    lambda e, m: reverse(e), lambda e, m: project(e, "input"),
    # complement checks its operand's kind first, so its case is boolean
    lambda e, m: intersect(e, m), lambda e, m: complement(Machine(B)),
    # every other module reads the start through ``Machine.start`` too
    lambda e, m: connect(e), lambda e, m: write_text(e),
    lambda e, m: weight_of(e, (1,)), lambda e, m: accepted_pairs(e),
    lambda e, m: determinize(e), lambda e, m: local_determinize(e, 1),
    lambda e, m: twins_test(e), lambda e, m: equivalent(e, m),
    lambda e, m: equivalent(m, e), lambda e, m: cached(e),
    lambda e, m: expand(e), lambda e, m: shortest_distance(e),
    lambda e, m: lattice_prune(Lattice(e), 1.0),
    lambda e, m: marker(e, 1, insert=(2,)), lambda e, m: push(e, "weights"),
    lambda e, m: push(e, "strings"), lambda e, m: minimize(e),
    lambda e, m: best_path(e), lambda e, m: rescore(Lattice(e), m),
    lambda e, m: rescore(Lattice(m), e),
    lambda e, m: beam_decode(CascadeSpec([e]), (1,)),
    lambda e, m: intersect_samelength(e, m),
    lambda e, m: intersect_samelength(m, e)])
def test_a_stateless_operand_is_rejected(op):
    # ``Machine(kind)`` before any ``add_state`` has no start state; like
    # an unfrozen copy of a machine, it is not frozen, and no op takes it
    m = build(T, [(0, 1, 1, 0.0, 1)], [1])
    for operand in (Machine(T), unfrozen(m)):
        with pytest.raises(ContractError, match="no state"):
            op(operand, m)


def test_kind_mismatch():
    a = acceptor(T, [(0, 1, 0.0, 1)], [1])
    b = acceptor(B, [(0, 1, 1.0, 1)], [1])
    with pytest.raises(KindMismatchError):
        compose(a, b)


# -- union / concat / closure -------------------------------------------


def test_union_weights():
    a = acceptor(T, [(0, 1, 1.0, 1)], [1])
    b = acceptor(T, [(0, 1, 0.25, 1)], [1])
    u = union(a, b)
    assert weight_of(u, (1,)) == 0.25
    assert weight_of(u, ()) == math.inf


def test_union_is_sum_over_machines():
    for i in range(6):
        a, b = sample_machines(500 + i, 2, kind=T, max_states=4, max_arcs=6)
        u = union(a, b)
        for s in strings_up_to((1, 2, 3), 3):
            wa = weight_of(a, s, max_path_len=16)
            wb = weight_of(b, s, max_path_len=16)
            assert weight_of(u, s, max_path_len=18) == min(wa, wb)


def test_concat_splits():
    a = acceptor(T, [(0, 1, 1.0, 1)], {1: 0.5})
    b = acceptor(T, [(0, 2, 0.25, 1)], {1: 0.0})
    c = concat(a, b)
    assert weight_of(c, (1, 2)) == 1.0 + 0.5 + 0.25
    assert weight_of(c, (1,)) == math.inf


def test_concat_of_several_machines_equals_pairwise_concat():
    rng = random.Random(11)
    for kind in (T, B):
        for count in (3, 5):
            parts = sample_machines(rng.randrange(1 << 16), count, kind=kind,
                                    max_states=3, max_arcs=5)
            pairwise = parts[0]
            for part in parts[1:]:
                pairwise = concat(pairwise, part)
            once = concat(*parts)
            assert (once.start, once.start_weight, once.finals,
                    list(once.all_arcs())) == \
                (pairwise.start, pairwise.start_weight, pairwise.finals,
                 list(pairwise.all_arcs()))


def test_union_and_concat_refuse_operands_of_different_symbol_tables():
    t1, t2 = SymbolTable(), SymbolTable()
    for table, symbols in ((t1, "ab"), (t2, "ba")):
        for sym in symbols:
            table.add(sym)
    a = read_text("0 1 a\n1\n", isymbols=t1)
    b = read_text("0 1 b\n1\n", isymbols=t2)
    for op in (union, concat, compose):
        with pytest.raises(SymbolError):
            op(a, b)
    # a table equal item for item, such as one file read twice, matches;
    # so does no table at all, as on a regex machine
    c = read_text("0 1 b\n1\n", isymbols=SymbolTable.read(t1.write()))
    bare = read_text("0 1 1\n1\n")
    assert write_text(union(a, c)) == (
        "0 1 <eps> <eps>\n0 3 <eps> <eps>\n1 2 a a\n2\n3 4 b b\n4\n")
    assert write_text(concat(bare, a, c)) == (
        "0 1 a a\n1 2 <eps> <eps>\n2 3 a a\n3 4 <eps> <eps>\n4 5 b b\n5\n")


def test_concat_oracle():
    for i in range(6):
        a, b = sample_machines(600 + i, 2, kind=T, max_states=3, max_arcs=5,
                               acceptor=True, eps=False)
        c = concat(a, b)
        for s in strings_up_to((1, 2, 3), 3):
            best = math.inf
            for cut in range(len(s) + 1):
                best = min(best, weight_of(a, s[:cut], max_path_len=8)
                           + weight_of(b, s[cut:], max_path_len=8))
            assert weight_of(c, s, max_path_len=12) == best


def test_closure():
    a = acceptor(T, [(0, 1, 0.5, 1)], {1: 0.25})
    s = closure(a)
    assert weight_of(s, ()) == 0.0
    assert weight_of(s, (1,)) == 0.75
    assert weight_of(s, (1, 1), max_path_len=12) == 1.5


def test_closure_rejects_real():
    a = acceptor(R, [(0, 1, 0.5, 1)], {1: 1.0})
    with pytest.raises(SemiringError):
        closure(a)


# -- reverse / project ---------------------------------------------------


def test_reverse_oracle():
    for i in range(6):
        (m,) = sample_machines(700 + i, 1, kind=T, max_states=4, max_arcs=6,
                               acceptor=True, eps=False)
        r = reverse(m)
        for s in strings_up_to((1, 2, 3), 3):
            assert weight_of(r, tuple(reversed(s)), max_path_len=10) == \
                weight_of(m, s, max_path_len=9)


def test_project():
    m = build(T, [(0, 1, 2, 0.5, 1)], {1: 0.25})
    pi = project(m, "input")
    po = project(m, "output")
    assert weight_of(pi, (1,)) == 0.75
    assert weight_of(po, (2,)) == 0.75
    assert pi.is_acceptor() and po.is_acceptor()
    with pytest.raises(ContractError):
        project(m, "both")


# -- complement / difference --------------------------------------------


def lang(m, alphabet, max_len):
    return {s for s in strings_up_to(alphabet, max_len)
            if weight_of(m, s, max_path_len=max_len + 4) != m.kind.zero}


def test_complement_oracle():
    for i in range(6):
        (m,) = sample_machines(800 + i, 1, kind=B, max_states=4, max_arcs=6,
                               acceptor=True, eps=False, alphabet=(1, 2))
        c = complement(m, alphabet=(1, 2))
        all_strings = set(strings_up_to((1, 2), 3))
        assert lang(c, (1, 2), 3) == all_strings - lang(m, (1, 2), 3)


def test_difference_oracle():
    for i in range(6):
        a, b = sample_machines(900 + i, 2, kind=B, max_states=4, max_arcs=6,
                               acceptor=True, eps=False, alphabet=(1, 2))
        d = difference(a, b)
        assert lang(d, (1, 2), 3) == lang(a, (1, 2), 3) - lang(b, (1, 2), 3)


def test_complement_ranges_over_the_symbol_table():
    t = SymbolTable()
    a, b, c = t.add("a"), t.add("b"), t.add("c")
    m = read_text("0 1 a\n1\n", isymbols=t, kind=B)
    every = set(strings_up_to((a, b, c), 2))
    assert lang(complement(m), (a, b, c), 2) == every - {(a,)}
    # without the table, Sigma is the machine's own labels
    m.isymbols = None
    assert lang(complement(m), (a, b, c), 2) == \
        set(strings_up_to((a,), 2)) - {(a,)}


def test_complement_reads_an_epsilon_acceptor_through_determinize():
    # the complete table refuses an epsilon arc; determinize removes it
    m = acceptor(B, [(0, 0, 1.0, 1), (0, 1, 1.0, 1), (1, 2, 1.0, 2)], [2])
    assert m.is_deterministic()
    with pytest.raises(ContractError, match="epsilon-free"):
        _complete_table(m, (1, 2))
    assert lang(complement(m, alphabet=(1, 2)), (1, 2), 3) == \
        set(strings_up_to((1, 2), 3)) - lang(m, (1, 2), 3)


def test_complement_requires_boolean():
    m = acceptor(T, [(0, 1, 0.0, 1)], [1])
    with pytest.raises(SemiringError):
        complement(m)


def test_intersect_requires_acceptors():
    t = build(T, [(0, 1, 2, 0.0, 1)], [1])
    with pytest.raises(ContractError):
        intersect(t, t)


def test_intersect_weights_add():
    a = acceptor(T, [(0, 1, 0.5, 1)], {1: 0.0})
    b = acceptor(T, [(0, 1, 0.25, 1)], {1: 1.0})
    c = intersect(a, b)
    assert weight_of(c, (1,)) == 1.75
