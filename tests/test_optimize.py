import random
import signal
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from wfst import optimize
from wfst import (EPSILON, CapExceededError, ContractError, FsmError, Machine,
                  Semiring, SemiringError, accepted_pairs, backward_distances,
                  compact, connect, determinize, equivalent,
                  local_determinize, minimize, push, twins_test, union,
                  weight_of, write_text)

from helpers import (acceptor, bounded_pairs, build, enum_paths,
                     nerode_class_count, random_det_acceptor, sample_machines,
                     strings_up_to, table_filling_class_count, unfrozen)

T = Semiring.TROPICAL
B = Semiring.BOOLEAN
R = Semiring.REAL


def twin_satisfying_machines(seed, count, **kw):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = None
        while m is None:
            from helpers import random_machine
            m = random_machine(rng, **kw)
        if twins_test(m).has_twin_property:
            out.append(m)
    return out


def same_behaviour(a, b, max_len=5, max_arcs=16):
    pa = bounded_pairs(a, max_len, max_len + 4, max_arcs)
    pb = bounded_pairs(b, max_len, max_len + 4, max_arcs)
    assert pa == pb, (set(pa) ^ set(pb))


# -- determinize ---------------------------------------------------------
#
# determinize records that an acceptor's output is deterministic, so
# these tests scan the output rather than read the flag back.


def test_determinize_acceptors():
    for m in twin_satisfying_machines(41, 20, kind=T, max_states=4,
                                      max_arcs=6, acceptor=True):
        d = determinize(m)
        assert d._scan_deterministic()
        for s in strings_up_to((1, 2, 3), 4):
            assert weight_of(d, s, max_path_len=14) == \
                weight_of(m, s, max_path_len=14), s


def input_deterministic(m):
    """Unique subset transition per input symbol; output flush chains
    (epsilon-input arcs) may still branch when the relation maps one
    input to several outputs."""
    for q in m.states():
        seen = set()
        for il, _, _, _ in m.arcs(q):
            if il == 0:
                continue
            if il in seen:
                return False
            seen.add(il)
    return True


def test_determinize_transducers():
    for m in twin_satisfying_machines(43, 15, kind=T, max_states=4,
                                      max_arcs=6, eps_in=False):
        d = determinize(m)
        assert input_deterministic(d)
        same_behaviour(m, d, max_len=4)


def test_determinize_residual_strings():
    # both a-arcs emit different outputs; the subset carries residuals
    # that flush at the final state through an emission chain
    m = build(T, [(0, 1, 2, 0.0, 1), (0, 1, 3, 1.0, 2),
                  (1, 4, 4, 0.0, 3), (2, 4, 5, 0.0, 3)], [3])
    d = determinize(m)
    assert input_deterministic(d)
    same_behaviour(m, d, max_len=3)


def test_determinize_boolean():
    for m in twin_satisfying_machines(47, 10, kind=B, max_states=4,
                                      max_arcs=6, acceptor=True):
        d = determinize(m)
        assert d._scan_deterministic()
        for s in strings_up_to((1, 2, 3), 4):
            assert weight_of(d, s, max_path_len=14) == \
                weight_of(m, s, max_path_len=14)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 1 << 16), st.sampled_from((T, B)), st.booleans())
@example(16254, T, True)  # its (3, 3, 3, 3) takes 16 arcs of m
def test_determinize_acceptors_with_and_without_epsilon(seed, kind, eps):
    # acceptors take no leftover strings; eps draws take input-epsilon
    # closures, the others none.  A best path of m repeats no epsilon
    # cycle (the weights are not negative), so it spells 4 labels in at
    # most 4 + 5 * 3 = 19 arcs of a 4-state machine.
    m, = twin_satisfying_machines(seed, 1, kind=kind, max_states=4,
                                  max_arcs=6, acceptor=True, eps=eps)
    d = determinize(m)
    assert d._scan_deterministic()
    assert all(arc[0] != 0 for _, arc in d.all_arcs())
    for s in strings_up_to((1, 2, 3), 4):
        assert weight_of(d, s, max_path_len=19) == \
            weight_of(m, s, max_path_len=19), s


@pytest.mark.parametrize("kind", [T, B])
def test_determinize_drops_zero_weight_arcs(kind):
    # an arc weighted with the carrier's zero is no path, after a label or
    # after an input epsilon
    live = [(0, 2, kind.one, 2)]
    for dead in ([(0, 1, kind.zero, 1)],
                 [(0, 0, kind.zero, 3), (3, 1, kind.one, 1)]):
        m = acceptor(kind, live + dead, [1, 2], num_states=4)
        without = acceptor(kind, live, [1, 2], num_states=4)
        assert write_text(determinize(m)) == write_text(determinize(without))
        assert equivalent(m, without)


def test_determinize_rejects_real():
    m = acceptor(R, [(0, 1, 0.5, 1)], {1: 1.0})
    with pytest.raises(SemiringError):
        determinize(m)


TWIN_VIOLATION = acceptor(
    T, [(0, 1, 0.0, 1), (0, 1, 0.0, 2),
        (1, 2, 1.0, 1), (2, 2, 2.0, 2)], {1: 0.0, 2: 0.0})


def test_twins_violation_detected():
    report = twins_test(TWIN_VIOLATION)
    assert not report.has_twin_property
    assert report.witness is not None


def test_twins_violation_blows_determinize_cap():
    with pytest.raises(CapExceededError):
        determinize(TWIN_VIOLATION, expansion_cap=500)


def test_twins_violation_through_an_epsilon_move():
    # states 0 and 1 are both reached by the empty string, 1 through an
    # epsilon arc, and both again by the string 2; their cycles on label 2
    # cost 2 and 0
    m = acceptor(T, [(0, 0, 0.5, 1), (0, 0, 1.0, 1), (0, 2, 2.0, 0),
                     (1, 1, 2.0, 1), (1, 2, 0.0, 1), (1, 3, 1.0, 2)], [1, 2])
    report = twins_test(m)
    assert not report.has_twin_property
    assert report.witness[:2] == ((0, 1), (2,))
    with pytest.raises(CapExceededError):
        determinize(m, expansion_cap=500)


def test_twins_holds_on_a_weighted_epsilon_cycle():
    # the epsilon self-loop costs 1 on one side of a pair and nothing on
    # the other, but the shortest epsilon path from 0 to 0 is the empty one
    m = acceptor(T, [(0, 0, 1.0, 0), (0, 1, 0.0, 1)], [1])
    assert twins_test(m).has_twin_property
    d = determinize(m)
    assert d._scan_deterministic()
    for s in strings_up_to((1,), 3):
        assert weight_of(d, s, max_path_len=8) == \
            weight_of(m, s, max_path_len=8)


def test_negative_epsilon_cycle_raises():
    # the epsilon closure of state 0 never settles
    m = acceptor(T, [(0, 0, 0.5, 1), (1, 0, -1.0, 0), (1, 1, 0.0, 2)], [2])
    with pytest.raises(ContractError):
        determinize(m)
    with pytest.raises(ContractError):
        twins_test(m)


def test_twins_fails_on_an_epsilon_cycle_with_output():
    # the empty input maps to every string of 2s
    m = build(T, [(0, 0, 2, 0.5, 0), (0, 1, 1, 0.0, 1)], [1])
    report = twins_test(m)
    assert not report.has_twin_property
    assert "without bound" in report.witness[2]


@pytest.mark.parametrize("arcs", [
    [(0, 2, 2, 0.5, 0), (0, 2, 3, 0.5, 0)],                     # on input
    [(0, 0, 2, 0.5, 0), (0, 0, 3, 0.5, 0), (0, 1, 1, 0.0, 1)],  # on epsilon
    [(0, 2, 0, 0.0, 0), (0, 2, 2, 0.5, 0), (0, 3, 0, 1.0, 0)],  # string
])
def test_determinize_caps_subset_size(arcs):
    # the leftover strings of one subset double with every symbol read (or
    # every epsilon step), or grow by one symbol with every symbol read, so
    # memory ran out before the cap on the number of subsets was reached
    # (the string case was found with final weight 2; final weights do not
    # change the subsets)
    m = build(T, arcs, [max(a[4] for a in arcs)])
    begin = time.perf_counter()
    with pytest.raises(CapExceededError):
        determinize(m)
    assert time.perf_counter() - begin < 15.0


def layers(k):
    """A start, then k layers of 20 states read on 1 and one final read on
    2: 2 + 20k elements in k + 2 subsets of at most 20 elements."""
    last, final = range(20 * k - 19, 20 * k + 1), 20 * k + 1
    arcs = [(0, 1, 0.0, q) for q in range(1, 21)]
    arcs += [(q, 1, 0.0, q + 20) for q in range(1, last[0])]
    arcs += [(q, 2, 0.0, final) for q in last]
    return acceptor(T, arcs, [final])


def test_determinize_caps_the_elements_of_all_subsets():
    # the 16 * 20 elements in all allow 15 layers but not 16
    assert optimize._SUBSET_ELEMENTS_CAP == 16
    assert determinize(layers(15), expansion_cap=20).num_states == 17
    with pytest.raises(CapExceededError, match="320 elements in all subsets"):
        determinize(layers(16), expansion_cap=20)


def through_general_loop(m):
    """``m`` and one more state, unreachable, whose input-epsilon arc sends
    ``determinize`` of an epsilon-free TROPICAL acceptor through its
    general loop instead of the plain one, with no other effect."""
    arcs = [(q, *arc) for q, arc in m.all_arcs()]
    arcs.append((m.num_states, EPSILON, EPSILON, m.kind.one, m.start))
    return build(m.kind, arcs, m.finals, start=m.start,
                 start_weight=m.start_weight)


def determinized(m, cap):
    """``determinize(m)``'s text and start weight, or its error."""
    try:
        out = determinize(m, expansion_cap=cap)
    except FsmError as err:
        return type(err), str(err)
    return write_text(out), out.start_weight


@pytest.mark.parametrize("acyclic", [True, False])
def test_plain_subset_loop_matches_the_general_loop(acyclic, monkeypatch):
    plain, loop = [], optimize._plain_subsets

    def spy(m, *args):
        plain.append(m)
        return loop(m, *args)

    monkeypatch.setattr(optimize, "_plain_subsets", spy)
    for m in sample_machines(601, 150, kind=T, acceptor=True, eps_in=False,
                             acyclic=acyclic, max_states=6, max_arcs=12):
        general = through_general_loop(m)
        assert determinized(m, 20) == determinized(general, 20)
        assert plain[-1] is m
    assert len(plain) == 150


@pytest.mark.parametrize("m, cap, error", [
    (TWIN_VIOLATION, 50, "exceeded 50 subset states"),
    (layers(1), 19, "subset exceeded 19 elements"),
    (layers(16), 20, "320 elements in all subsets"),
    # 16 layers of 20, the last one final: the start subset's element is
    # the one past the cap
    (acceptor(T, [(0, 1, 0.0, q) for q in range(1, 21)]
              + [(q, 1, 0.0, q + 20) for q in range(1, 301)],
              range(301, 321)), 20, "320 elements in all subsets"),
])
def test_both_subset_loops_raise_alike(m, cap, error):
    with pytest.raises(CapExceededError, match=error):
        determinize(m, expansion_cap=cap)
    assert determinized(m, cap) == determinized(through_general_loop(m), cap)


def test_both_subset_loops_drop_a_residual_that_overflows():
    # state 2's residual, 1e308 above state 1's weight, overflows to inf:
    # every move from it is no path.  No product reaches -inf: a residual
    # is never negative, and no weight is -inf
    big = 1e308
    m = acceptor(T, [(0, 1, -big, 1), (0, 1, big, 2), (1, 2, -big, 3),
                     (2, 2, big, 3), (2, 3, 0.0, 3)], {2: 0.0, 3: 0.0})
    assert determinized(m, 10) == determinized(through_general_loop(m), 10)
    d = determinize(m)
    assert list(d.all_arcs()) == [(0, (1, 1, -big, 1)), (1, (2, 2, -big, 2))]
    assert d.finals == {2: 0.0}


def test_twins_holds_on_sibling_cycles_with_equal_weights():
    m = acceptor(T, [(0, 1, 0.0, 1), (0, 1, 0.5, 2),
                     (1, 2, 1.0, 1), (2, 2, 1.0, 2)], {1: 0.0, 2: 0.0})
    assert twins_test(m).has_twin_property
    d = determinize(m)
    assert d._scan_deterministic()
    for s in strings_up_to((1, 2), 5):
        assert weight_of(d, s, max_path_len=12) == \
            weight_of(m, s, max_path_len=12)


def test_twins_output_residue_violation():
    # same input cycle, different output around it
    m = build(T, [(0, 1, 1, 0.0, 1), (0, 1, 2, 0.0, 2),
                  (1, 2, 3, 0.0, 1), (2, 2, 4, 0.0, 2)], {1: 0.0, 2: 0.0})
    report = twins_test(m)
    assert not report.has_twin_property


# -- local determinization ----------------------------------------------


def test_local_determinize_preserves_behaviour():
    for m in sample_machines(53, 10, kind=T, max_states=4, max_arcs=7):
        ld = local_determinize(m, 2)
        same_behaviour(m, ld, max_len=4)


def test_local_determinize_merges_fanout():
    m = acceptor(T, [(0, 1, 1.0, 1), (0, 1, 2.0, 2), (0, 1, 3.0, 3)],
                 [1, 2, 3])
    ld = local_determinize(m, 2)
    assert len(ld.arcs(ld.start)) == 1
    assert weight_of(ld, (1,)) == 1.0


def test_local_determinize_drops_zero_weight_products():
    # two same-label arcs weighted inf, the tropical zero: their total is
    # inf too, and factoring it out of either would give inf - inf = nan
    inf = float("inf")
    for second in (inf, 0.5):
        m = acceptor(T, [(0, 1, inf, 1), (0, 1, second, 2), (1, 2, 0.0, 3),
                         (2, 2, 0.0, 3)], [3])
        ld = local_determinize(m, 1)
        for s in strings_up_to((1, 2), 3):
            assert weight_of(ld, s) == weight_of(m, s)
        assert bool(ld.finals) == (second != inf)


def test_local_determinize_caps_its_states():
    # merged targets keep leftover weights that change on every trip round
    # the cycles (no twin property), so the subsets never repeat
    m = build(T, [(0, 0, 0, 1.0, 0), (0, 1, 0, 0.0, 1), (0, 1, 1, 0.0, 0),
                  (0, 1, 1, 2.0, 1), (0, 1, 3, 1.0, 0), (0, 2, 1, 0.5, 0),
                  (0, 3, 0, 0.0, 0), (1, 0, 0, 0.5, 1), (1, 1, 2, 2.0, 0)],
              {0: 0.5})

    def overrun(signum, frame):
        raise TimeoutError("local_determinize ran past its 10 s budget")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.alarm(10)
    try:
        with pytest.raises(CapExceededError, match="exceeded"):
            local_determinize(m, 1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_local_determinize_keeps_a_chain_longer_than_the_cap():
    # nothing merges, so each input state gives one unmerged subset; the
    # cap counts only states beyond the input's own
    n = optimize.DEFAULT_EXPANSION_CAP + 1
    m = acceptor(T, [(q, 1, 0.5, q + 1) for q in range(n - 1)], [n - 1])
    ld = local_determinize(m, 1)
    assert ld.num_states == n
    assert weight_of(ld, (1,) * (n - 1), max_path_len=n) == 0.5 * (n - 1)


def test_local_determinize_rejects_bad_k():
    m = acceptor(T, [(0, 1, 0.0, 1)], [1])
    with pytest.raises(ContractError):
        local_determinize(m, 0)


# -- pushing -------------------------------------------------------------


def test_push_weights_preserves_and_normalizes():
    for m in sample_machines(59, 15, kind=T, max_states=5, max_arcs=7):
        p = push(m, "weights")
        same_behaviour(m, p, max_len=4)
        # best completion from every state is zero
        d = backward_distances(p)
        for q in p.states():
            assert abs(d[q]) < 1e-9, (q, d[q])


def test_overflowing_weights_raise():
    # each arc weight is in the carrier, but two in a row sum to -inf
    chain = acceptor(T, [(0, 1, -1e308, 1), (1, 2, -1e308, 2)], [2])
    eps_chain = acceptor(T, [(0, 1, 0.0, 1), (1, 0, -1e308, 2),
                             (2, 0, -1e308, 3)], [3])
    # the start subset keeps its weight, so a final weight can overflow
    heavy_final = acceptor(T, [(0, 0, -1e308, 1)], {1: -1e308})
    message = r"^-inf is not in the tropical carrier$"
    with pytest.raises(SemiringError, match=message):
        push(chain, "weights")
    for m in (eps_chain, heavy_final):
        with pytest.raises(SemiringError, match=message):
            determinize(m)


def test_push_weights_passes_a_pushed_frozen_machine_through():
    pushed = push(acceptor(T, [(0, 1, 1.0, 1), (0, 2, 0.5, 1), (1, 1, 0.25, 2)],
                           {1: 0.5, 2: 0.0}), "weights")
    assert push(pushed, "weights") is pushed
    with pytest.raises(ContractError, match="not frozen"):
        push(unfrozen(pushed), "weights")  # no op takes a mutable machine


def test_push_weights_needs_coaccessible():
    m = acceptor(T, [(0, 1, 0.0, 1), (0, 2, 0.0, 2)], [1], num_states=3)
    with pytest.raises(ContractError):
        push(m, "weights")


def test_pushed_weights_keep_the_order_of_their_input():
    for acyclic in (True, False):
        for m in sample_machines(29, 30, kind=T, max_states=5, max_arcs=8,
                                 acyclic=acyclic):
            pushed = push(m, "weights")
            assert pushed.topological_order() is m.topological_order()
            assert pushed.topological_order() == Machine._kahn(pushed)
            assert pushed.is_acceptor() == m.is_acceptor()


def test_push_strings_hoists_prefix():
    # every path emits 5 first; pushing moves it to the front
    m = build(T, [(0, 1, 5, 0.0, 1), (1, 2, 6, 0.0, 2), (1, 3, 7, 0.0, 3)],
              [2, 3])
    p = push(m, "strings")
    same_behaviour(m, p, max_len=3)
    first = [a for a in p.arcs(p.start)]
    assert all(a[1] == 5 for a in first)


@pytest.mark.parametrize("arcs", [
    [(0, 1, 5, 0.0, 1), (0, 2, 6, 0.0, 2)],  # the dead arc disagrees
    [(0, 1, 5, 0.0, 1), (1, 2, 6, 0.0, 2)],  # it agrees with the live one
], ids=["disagreeing", "agreeing"])
def test_push_strings_needs_coaccessible(arcs):
    m = build(T, arcs, [1], num_states=3)
    with pytest.raises(ContractError, match=r"state\(s\) \[2\] cannot reach"):
        push(m, "strings")
    same_behaviour(m, push(connect(m), "strings"), max_len=3)


def test_push_bad_mode():
    m = acceptor(T, [(0, 1, 0.0, 1)], [1])
    with pytest.raises(ContractError):
        push(m, "sideways")


@st.composite
def acyclic_machines(draw, kinds=(T,), acceptors=False):
    """Small acyclic machine, arcs pointing to higher states; dyadic
    TROPICAL weights keep every path sum exact, so weights compare with ==."""
    kind = draw(st.sampled_from(kinds))
    weight = st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.5) if kind is T
                             else (1.0,))
    n = draw(st.integers(1, 5))
    arc = st.tuples(st.integers(0, n - 1), st.integers(0, 2),
                    st.integers(0, 2), weight, st.integers(0, n - 1))
    arcs = [(min(s, d), il, il if acceptors else ol, w, max(s, d))
            for s, il, ol, w, d in draw(st.lists(arc, max_size=8)) if s != d]
    finals = draw(st.dictionaries(st.integers(0, n - 1), weight, max_size=n))
    return build(kind, arcs, finals, num_states=n)


@settings(deadline=None)
@given(acyclic_machines())
def test_push_weights_preserves_weight_of(m):
    m = connect(m)
    assume(m.finals)
    pushed = push(m, "weights")
    pairs = set(enum_paths(m, m.num_states)) | \
        set(enum_paths(pushed, pushed.num_states))
    for inp, out in pairs:
        assert weight_of(pushed, inp, out) == weight_of(m, inp, out)


@settings(deadline=None)
@given(acyclic_machines())
def test_push_weights_is_idempotent(m):
    m = connect(m)
    assume(m.finals)
    once = push(m, "weights")
    twice = push(once, "weights")
    assert write_text(twice) == write_text(once)
    assert twice.start_weight == once.start_weight


# -- minimize ------------------------------------------------------------


def det_machines(seed, count, **kw):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = random_det_acceptor(rng, **kw)
        if m is not None:
            out.append(m)
    return out


def with_copy(m, change=None, k=0):
    """A new start that reads 1 into ``m`` and 2 into a copy of ``m``, so
    every state is equivalent to its copy unless ``change`` alters the
    copy: arc ``k`` costs 0.5 more ("weight") or writes 3 ("olabel"), or
    final weight ``k`` is 0.5 more ("final"); ``k`` counts modulo the
    number of arcs or finals."""
    n = m.num_states
    cost = 0.5 if m.kind is T else 1.0
    arcs = [(0, 1, 1, cost, 1 + m.start), (0, 2, 2, cost, 1 + n + m.start)]
    for base in (1, 1 + n):
        arcs += [(base + q, il, ol, w, base + t)
                 for q, (il, ol, w, t) in m.all_arcs()]
    finals = {base + q: w for base in (1, 1 + n) for q, w in m.finals.items()}
    if change == "final":
        q = 1 + n + sorted(m.finals)[k % len(m.finals)]
        finals[q] += 0.5
    elif change and m.num_arcs:
        i = len(arcs) - m.num_arcs + k % m.num_arcs
        src, il, ol, w, dst = arcs[i]
        arcs[i] = (src, il, 3, w, dst) if change == "olabel" else \
            (src, il, ol, w + 0.5, dst)
    return build(m.kind, arcs, finals)


def test_minimize_matches_nerode_count():
    # cyclic input takes Hopcroft, acyclic input the signature pass; random
    # acyclic machines seldom have equivalent states, their copies always do
    acyclic = det_machines(62, 20, max_states=8, acyclic=True)
    for m in det_machines(61, 40, max_states=8) + acyclic + \
            [with_copy(m, change, k) for k, m in enumerate(acyclic)
             for change in (None, "weight", "final")]:
        mini = minimize(m)
        expected = nerode_class_count(m, max_len=9)
        assert mini.num_states == expected, (m, mini.num_states, expected)
        same_behaviour(m, mini, max_len=5, max_arcs=10)


def test_minimize_matches_table_filling_boolean():
    for m in det_machines(67, 25, max_states=7, kind=B) + \
            det_machines(68, 25, max_states=7, kind=B, acyclic=True):
        mini = minimize(m)
        count, dead_alone = table_filling_class_count(m, (1, 2))
        assert dead_alone
        assert mini.num_states == count - 1


def test_minimize_idempotent():
    for m in det_machines(71, 20, max_states=8):
        once = minimize(m)
        assert write_text(minimize(once)) == write_text(once)


def shuffled(m, rng):
    """``m`` with its state ids and each state's arc order permuted."""
    perm = list(m.states())
    rng.shuffle(perm)
    arcs = [(perm[q], il, ol, w, perm[t])
            for q, (il, ol, w, t) in m.all_arcs()]
    rng.shuffle(arcs)
    return build(m.kind, arcs, {perm[q]: w for q, w in m.finals.items()},
                 start=perm[m.start], num_states=m.num_states,
                 start_weight=m.start_weight)


@settings(deadline=None)
@given(st.integers(0, 1 << 16), st.sampled_from((T, B)), st.booleans(),
       st.integers(0, 1 << 16))
@example(68, T, True, 1)
@example(188, T, False, 0)
@example(60, B, True, 1)
@example(41, B, False, 2)
def test_minimize_numbering_ignores_input_numbering(seed, kind, acyclic,
                                                    shuffle):
    # acyclic input takes the signature pass, cyclic input Hopcroft; the
    # examples cover both paths and semirings with draws whose partition
    # order changes under the shuffle
    m, = det_machines(seed, 1, max_states=8, kind=kind, acyclic=acyclic)
    assert write_text(minimize(shuffled(m, random.Random(shuffle)))) == \
        write_text(minimize(m))


def with_unreachable_and_dead(m, rng, unreachable, dead):
    """``m`` plus an unreachable copy of one of its states and a dead state
    entered on label 3 (each on request), its states shuffled."""
    n = m.num_states
    arcs = [(q, *a) for q, a in m.all_arcs()]
    finals = dict(m.finals)
    extra = n
    if unreachable:
        src = rng.randrange(n)
        arcs += [(extra, *a) for a in m.arcs(src)]
        if src in finals:
            finals[extra] = finals[src]
        extra += 1
    if dead:
        arcs.append((rng.randrange(extra), 3, 3, m.kind.one, extra))
        extra += 1
    return shuffled(build(m.kind, arcs, finals, start=m.start,
                          num_states=extra, start_weight=m.start_weight), rng)


@settings(deadline=None)
@given(st.integers(0, 1 << 16), st.sampled_from((T, B)), st.booleans(),
       st.booleans(), st.booleans())
def test_minimize_without_trim_equals_minimize_after_trim(seed, kind, acyclic,
                                                          unreachable, dead):
    rng = random.Random(seed)
    det, = det_machines(seed, 1, max_states=6, kind=kind, acyclic=acyclic)
    m = with_unreachable_and_dead(det, rng, unreachable, dead)
    mini, trimmed = minimize(m), minimize(connect(m))
    assert write_text(mini) == write_text(trimmed)
    assert mini.start_weight == trimmed.start_weight


def test_minimize_scales_near_linearly():
    # one class per state.  The chain takes the acyclic signature pass; the
    # rings (the chain closed back to state 0) take Hopcroft.  Queueing
    # every block's splitters after each split is quadratic on both rings,
    # and queueing every label for each new block is quadratic on the ring
    # whose n labels are all distinct.  On the larger such rings, so are
    # building a splitter's preimage from the block alone (12000 states) and
    # copying the larger part of a block at each split (24000 states)
    for n, num_arcs, num_labels in ((4000, 3999, 5), (4000, 4000, 5),
                                    (4000, 4000, 4000),
                                    (12000, 12000, 12000),
                                    (24000, 24000, 24000)):
        m = acceptor(T, [(q, 1 + q % num_labels, 0.25 * (q % 97), (q + 1) % n)
                         for q in range(num_arcs)], [n - 1])
        begin = time.perf_counter()
        mini = minimize(m)
        elapsed = time.perf_counter() - begin
        assert mini.num_states == n, (n, num_arcs, num_labels)
        assert elapsed < 3.0, (n, num_arcs, num_labels, elapsed)


def test_minimize_routes_identity_moves_left_by_string_pushing():
    # pushing hoists the outputs 3 2 to the start, which leaves states 0
    # and 1 with one arc each: input epsilon, no output, weight one
    m = build(T, [(0, 0, 3, 0.0, 1), (1, 0, 2, 0.0, 2), (2, 1, 0, 0.0, 3),
                  (3, 2, 0, 0.0, 4)], [4])
    mini = minimize(m)
    assert mini.num_states <= 5
    assert equivalent(mini, m)


@pytest.mark.parametrize("kind", [T, B])
def test_minimize_drops_zero_weight_arcs(kind):
    # an arc weighted with the carrier's zero is no path
    live = [(0, 2, kind.one, 2)]
    m = acceptor(kind, live + [(0, 1, kind.zero, 1)], [1, 2])
    without = acceptor(kind, live, [1, 2])
    assert write_text(minimize(m)) == write_text(minimize(without))


def test_a_zero_weight_arc_leaves_no_dead_state_after_connect():
    # state 1 reaches a final only through an arc weighted zero, which is
    # no path: connect drops it, so minimize (which trims) and push after
    # the trim its error asks for both succeed
    m = acceptor(T, [(0, 1, 0.0, 1), (1, 2, T.zero, 2), (0, 3, 0.0, 3)],
                 [2, 3])
    live = acceptor(T, [(0, 3, 0.0, 1)], [1])
    assert write_text(connect(m)) == write_text(live)
    assert write_text(minimize(m)) == write_text(minimize(live))
    with pytest.raises(ContractError, match=r"\[1\] cannot reach a final"):
        push(m, "weights")
    assert write_text(push(connect(m), "weights")) == write_text(live)


def test_minimize_requires_deterministic():
    m = acceptor(T, [(0, 1, 0.0, 1), (0, 1, 0.0, 0)], [1])
    with pytest.raises(ContractError):
        minimize(m)


def test_minimize_takes_a_final_output_flush_beside_labelled_arcs():
    # input 1 writes 10, input 1 2 writes 11: determinize flushes state
    # 1's final output 10 over an epsilon arc beside its arc on label 2
    m = build(T, [(0, 1, 10, 0.0, 1), (0, 1, 11, 0.0, 2), (2, 2, 0, 0.0, 1)],
              [1])
    det = determinize(m)
    assert sorted(arc[0] for arc in det.arcs(1)) == [0, 2]
    assert det.is_deterministic()
    mini = minimize(det)
    assert accepted_pairs(mini) == accepted_pairs(m) == \
        {((1,), (10,)): 0.0, ((1, 2), (11,)): 0.0}
    assert equivalent(m, m)


def test_minimize_reads_an_empty_flush_into_an_arcless_final_as_final():
    # state 1 finishes through an epsilon arc that writes nothing: the same
    # machine as one where state 1 is final with that arc's weight
    arcs = [(0, 1, 3, 0.0, 1), (1, 2, 4, 0.5, 1)]
    flush = build(T, [*arcs, (1, 0, 0, 1.0, 2)], {2: 0.25})
    final = build(T, arcs, {1: 1.25})
    assert flush.is_deterministic()
    assert write_text(minimize(flush)) == write_text(minimize(final))


def test_equivalent_to_its_own_union_on_functional_transducers():
    # every determinized draw with no two epsilon flushes at one state
    # minimizes; union(m, m) is the same relation, one more path is not.
    # The 328 draws that determinize within a cap of 200 all do within 50,
    # and the rest fail sooner
    extra = build(T, [(0, 9, 9, 0.0, 1)], [1])
    taken = refused = 0
    for seed in range(11, 15):
        for m in sample_machines(seed, 200, kind=T, max_states=5, max_arcs=8):
            if m.is_acceptor():
                continue
            try:
                det = determinize(m, expansion_cap=50)
            except CapExceededError:
                continue
            if not det.is_deterministic():
                refused += 1
                assert any(sum(arc[0] == EPSILON for arc in det.arcs(q)) >= 2
                           for q in det.states())
                continue
            minimize(det)
            taken += 1
            assert equivalent(m, union(m, m))
            assert not equivalent(m, union(m, extra))
    assert (taken, refused) == (293, 35)


def test_minimize_transducer_with_outputs():
    m = build(T, [(0, 1, 4, 0.0, 1), (1, 2, 5, 0.0, 2),
                  (0, 2, 4, 0.0, 3), (3, 1, 5, 0.0, 4)],
              [2, 4])
    d = determinize(m)
    mini = minimize(d)
    same_behaviour(m, mini, max_len=3)
    assert mini.is_deterministic()


@settings(deadline=None)
@given(acyclic_machines(kinds=(T, B), acceptors=True) |
       acyclic_machines(kinds=(T, B)))
@example(build(T, [(0, 3, 2, 2.0, 1), (1, 3, 2, 0.0, 2)], [2]))
@example(build(T, [(0, 1, 0, 0.5, 3), (0, 1, 0, 0.0, 3), (0, 0, 0, 0.25, 1),
                   (0, 1, 1, 0.0, 2)], {2: 0.5}))
@example(build(T, [(0, 1, 2, 0.0, 1), (1, 0, 1, 0.0, 2), (2, 1, 2, 0.0, 3),
                   (3, 0, 1, 0.0, 4)], [1, 2, 3, 4]))
def test_minimize_determinize_is_idempotent(m):
    det = determinize(m)
    # a non-functional transducer's output is skipped: a state that flushes
    # two strings (two epsilon arcs), or that is final and flushes another,
    # which determinize turns into two flushes when run again
    assume(det.is_deterministic())
    assume(not any(arc[0] == EPSILON
                   for q in det.finals for arc in det.arcs(q)))
    once = minimize(det)
    assert write_text(minimize(determinize(once))) == write_text(once)


def partition(index):
    """The classes of a state -> class id map, as a set of frozensets."""
    classes = {}
    for q, cls in index.items():
        classes.setdefault(cls, set()).add(q)
    return {frozenset(members) for members in classes.values()}


@settings(deadline=None)
@given(acyclic_machines(kinds=(T, B), acceptors=True) |
       acyclic_machines(kinds=(T, B)), st.booleans(),
       st.sampled_from((None, "weight", "olabel", "final")), st.integers(0, 7))
# states 2 and 3 reach no final
@example(acceptor(T, [(0, 1, 0.5, 1), (0, 2, 0.5, 2), (2, 1, 0.0, 3)], [1]),
         False, None, 0)
def test_signature_pass_partitions_like_hopcroft(m, copy, change, k):
    det = determinize(m)
    # skips a non-functional transducer's output with two epsilon flushes
    # at one state, which minimize refuses
    assume(det.finals and det.is_deterministic())
    if copy:
        # every state equivalent to its copy, or all but a few
        assume(det.kind is T or change in (None, "olabel"))
        det = with_copy(det, change, k)
    order = det.topological_order()
    assert order is not None
    if not optimize._all_live(det):
        # minimize trims first; the walk pushes no weight from a dead state
        if det.kind is T and det.is_acceptor():
            with pytest.raises(ContractError, match="cannot reach a final"):
                optimize._encoded_dfa(det, order)
        det = connect(det)
        order = det.topological_order()
    enc, finals, _, _, _, _ = optimize._encoded_dfa(det)
    index = optimize._encoded_dfa(det, order)[-1]
    assert partition({q: index[q] for q in enc}) == \
        partition(optimize._hopcroft(list(enc), enc, finals))


# -- compaction ----------------------------------------------------------


@pytest.mark.parametrize("kind", [T, B])
@pytest.mark.parametrize("is_acceptor", [True, False])
def test_compact_keeps_every_pair_and_weight_exactly(kind, is_acceptor):
    for m in sample_machines(91, 40, kind=kind, acceptor=is_acceptor,
                             acyclic=True, max_states=6, max_arcs=10):
        c = compact(m)
        assert c.num_states <= m.num_states
        assert c.start_weight == m.start_weight
        assert accepted_pairs(c) == accepted_pairs(m)
        # every path twice: the copies spell the same triples and merge
        doubled = union(m, m)
        c = compact(doubled)
        assert c.num_states < doubled.num_states
        assert accepted_pairs(c) == accepted_pairs(m)


# (a|b)* a (a|b)^4: its subset construction needs 2^5 states
NFA_A_FIFTH_FROM_END = acceptor(
    B, [(0, 1, 1.0, 0), (0, 2, 1.0, 0), (0, 1, 1.0, 1),
        *((q, label, 1.0, q + 1) for q in range(1, 5) for label in (1, 2))],
    [5])


def test_compact_returns_its_input_past_the_cap():
    assert compact(NFA_A_FIFTH_FROM_END) is NFA_A_FIFTH_FROM_END


def test_compact_merges_parallel_paths_with_equal_triples():
    # two paths spelling 1:2/0.5 then 3:3/1.0, and a final weight of 2.0
    m = build(T, [(0, 1, 2, 0.5, 1), (0, 1, 2, 0.5, 2),
                  (1, 3, 3, 1.0, 3), (2, 3, 3, 1.0, 3)], {3: 2.0})
    c = compact(m)
    # three on the path: the final arc is folded back into a final weight
    assert c.num_states == 3 and c.finals == {2: 2.0}
    assert accepted_pairs(c) == accepted_pairs(m) == {((1, 3), (2, 3)): 3.5}


def test_compact_folds_final_weights_back():
    # two finals of weight 2.0 merge; while encoded, each is an arc into
    # one new final state, so the encoded input has 4 states to the 3 here
    m = acceptor(T, [(0, 1, 0.5, 1), (0, 2, 0.5, 2)], {1: 2.0, 2: 2.0})
    c = compact(m)
    assert (c.num_states, c.finals) == (2, {1: 2.0})
    assert accepted_pairs(c) == accepted_pairs(m)
    # all but 3 of these compact within a cap of the encoded states
    draws = sample_machines(91, 40, kind=T, acceptor=True, acyclic=True,
                            max_states=6, max_arcs=10)
    assert sum(compact(m) is m for m in draws) == 3


def test_compact_rejects_real():
    m = acceptor(R, [(0, 1, 0.5, 1)], {1: 1.0})
    with pytest.raises(SemiringError):
        compact(m)


# -- equivalence ---------------------------------------------------------


def test_equivalent_positive_and_negative():
    for m in det_machines(73, 10, max_states=6):
        assert equivalent(m, minimize(m))
    a = acceptor(T, [(0, 1, 1.0, 1)], [1])
    b = acceptor(T, [(0, 1, 1.5, 1)], [1])
    assert not equivalent(a, b)
    # same language reached through different state counts
    c = acceptor(T, [(0, 1, 0.5, 1), (1, 2, 0.5, 2)], [2])
    d = acceptor(T, [(0, 1, 0.0, 1), (1, 2, 1.0, 2)], [2])
    assert equivalent(c, d)
