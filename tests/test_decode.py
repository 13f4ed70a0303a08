import math
import random
import signal

import pytest
from hypothesis import given, settings, strategies as st

from wfst import decode, optimize
from wfst import (CascadeSpec, ContractError, Lattice, LazyComposition,
                  Machine, NoPathError, Semiring, backward_distances,
                  beam_decode, best_path, build_lm_fsa, cached, compose,
                  connect, determinize, expand, lattice_prune, lazy_compose,
                  minimize, observation_machine, push, rescore,
                  shortest_distance, weight_of, write_text)

from helpers import (acceptor, build, enum_paths, layered_distances,
                     least_walks, sample_machines, unfrozen, viable_model)

T = Semiring.TROPICAL
INF = math.inf


def graphs(seed, count, acyclic=False):
    out = []
    i = 0
    while len(out) < count:
        ms = sample_machines(seed + i, 1, kind=T, max_states=5, max_arcs=8,
                             acceptor=True, acyclic=acyclic)
        i += 1
        out.append(ms[0])
    return out


def reweighted(m, rng):
    """``m`` with each arc (u, v) shifted by p[u] - p[v] for integer
    potentials p: arcs may turn negative, but every cycle keeps its weight,
    so none turns negative."""
    p = [rng.randrange(3) for _ in m.states()]
    return acceptor(T, [(q, il, w + p[q] - p[t], t)
                        for q, (il, _, w, t) in m.all_arcs()],
                    m.finals, num_states=m.num_states)


def with_unreachable_loop(m, weight):
    """``m`` plus a state the start never reaches, carrying a self-loop of
    ``weight``: the machine turns cyclic, and negative if ``weight`` is."""
    n = m.num_states
    return acceptor(T, [(q, il, w, t) for q, (il, _, w, t) in m.all_arcs()]
                    + [(n, 1, weight, n)],
                    m.finals, start=m.start, num_states=n + 1,
                    start_weight=m.start_weight)


def test_three_algorithms_agree_on_acyclic():
    # the topological pass on m itself; Bellman-Ford once an unreachable
    # loop makes it cyclic, without or with a negative weight
    for m in graphs(2000, 30, acyclic=True):
        ref = layered_distances(m)
        assert shortest_distance(m) == ref
        for weight in (0.0, -1.0):
            d = shortest_distance(with_unreachable_loop(m, weight))
            assert d == {**ref, m.num_states: INF}, weight


def test_two_algorithms_agree_on_cyclic():
    # Bellman-Ford on cyclic input, without negative weights and reweighted
    # so arcs turn negative but no cycle does
    rng = random.Random(2300)
    machines = graphs(2100, 30)
    negative = [reweighted(m, rng) for m in machines]
    for m in machines + negative:
        assert shortest_distance(m) == layered_distances(m)
    assert sum(not m.is_acyclic() and
               min(a[2] for _, a in m.all_arcs()) < 0
               for m in negative) >= 10


def test_distances_take_a_negative_back_off_cost():
    # a Katz bigram model whose back-off arc from state 3 costs about -0.49
    _, model = viable_model(41)
    lm = build_lm_fsa(model)
    assert not lm.is_acyclic()
    assert min(arc[2] for _, arc in lm.all_arcs()) < 0
    assert shortest_distance(lm) == layered_distances(lm)


def test_bellman_ford_raises_on_a_reachable_negative_cycle():
    # the cycle 1 -> 2 -> 1 weighs -1 and the start reaches it
    m = acceptor(T, [(0, 1, 0.0, 1), (1, 1, -1.0, 2), (2, 1, 0.0, 1)], [2])
    with pytest.raises(ContractError):
        shortest_distance(m)


def test_bellman_ford_ignores_an_unreachable_negative_cycle():
    m = acceptor(T, [(0, 1, 1.0, 1), (2, 1, -1.0, 3), (3, 1, -1.0, 2)], [1])
    assert shortest_distance(m) == {0: 0.0, 1: 1.0, 2: INF, 3: INF}
    assert backward_distances(m) == {0: 1.0, 1: 0.0, 2: INF, 3: INF}


def test_negative_weight():
    m = acceptor(T, [(0, 1, 1.0, 1), (1, 1, -0.5, 2)], [2])
    assert shortest_distance(m) == {0: 0.0, 1: 1.0, 2: 0.5}


def test_requires_tropical():
    m = acceptor(Semiring.BOOLEAN, [(0, 1, 1.0, 1)], [1])
    with pytest.raises(ContractError):
        shortest_distance(m)


def test_backward_distances():
    m = acceptor(T, [(0, 1, 1.0, 1), (1, 2, 2.0, 2)], {2: 0.5})
    d = backward_distances(m)
    assert d[2] == 0.5 and d[1] == 2.5 and d[0] == 3.5


@st.composite
def small_machines(draw, acyclic, weights=(0.0, 0.25, 0.5, 1.0, 2.5)):
    """(n, arcs, finals) over n <= 5 states; dyadic weights keep every path
    sum exact, so distances compare with ==."""
    n = draw(st.integers(1, 5))
    weight = st.sampled_from(weights)
    arc = st.tuples(st.integers(0, n - 1), st.integers(1, 2), weight,
                    st.integers(0, n - 1))
    arcs = draw(st.lists(arc, max_size=8))
    if acyclic:
        arcs = [(min(s, d), a, w, max(s, d)) for s, a, w, d in arcs if s != d]
    finals = draw(st.dictionaries(st.integers(0, n - 1), weight, max_size=n))
    return n, arcs, finals


def check_against_enumeration(n, arcs, finals):
    d = backward_distances(acceptor(T, arcs, finals, num_states=n))
    for q in range(n):
        # with non-negative weights some best path is simple: < n arcs
        paths = enum_paths(acceptor(T, arcs, finals, start=q, num_states=n),
                           n - 1)
        assert d[q] == min(paths.values(), default=INF), q


@settings(deadline=None)
@given(small_machines(acyclic=True))
def test_backward_distances_match_enumeration_acyclic(machine):
    check_against_enumeration(*machine)


@settings(deadline=None)
@given(small_machines(acyclic=False))
def test_backward_distances_match_enumeration_cyclic(machine):
    check_against_enumeration(*machine)


NEGATIVE_WEIGHTS = (-1.5, -0.25, 0.0, 0.5, 2.5)


@settings(deadline=None)
@given(small_machines(acyclic=True, weights=NEGATIVE_WEIGHTS))
def test_backward_distances_match_enumeration_negative_weights(machine):
    # every path of an acyclic machine is simple
    check_against_enumeration(*machine)


@settings(deadline=None)
@given(small_machines(acyclic=True, weights=NEGATIVE_WEIGHTS))
def test_forward_distances_match_enumeration_negative_weights(machine):
    n, arcs, _ = machine
    m = acceptor(T, arcs, {}, num_states=n)
    # an acyclic path has < n arcs
    assert shortest_distance(m) == least_walks(n, arcs, {}, n - 1, True)


@settings(deadline=None)
@given(small_machines(acyclic=False, weights=NEGATIVE_WEIGHTS))
def test_distances_match_enumeration_or_raise_on_negative_cycles(machine):
    # walks of < n arcs hold every best path unless a negative cycle lies on
    # the searched side; then some walk of n arcs is cheaper (Bellman-Ford)
    n, arcs, finals = machine
    m = acceptor(T, arcs, finals, num_states=n)
    for forward, fn in ((True, shortest_distance),
                        (False, backward_distances)):
        simple = least_walks(n, arcs, finals, n - 1, forward)
        if simple == least_walks(n, arcs, finals, n, forward):
            assert fn(m) == simple, forward
        else:
            with pytest.raises(ContractError):
                fn(m)


def test_negative_cycle_raises():
    # the cycle 0 -> 1 -> 0 weighs -1, so no distance to the final is bounded
    m = acceptor(T, [(0, 1, 0.0, 1), (1, 1, -1.0, 0)], [1])
    for fn in (backward_distances, best_path, minimize,
               lambda x: push(x, "weights")):
        with pytest.raises(ContractError):
            fn(m)


# -- best path -----------------------------------------------------------


def test_best_path_matches_enumeration():
    for m in graphs(2200, 20):
        (inp, out), cost = best_path(m)
        w = weight_of(m, inp, max_path_len=20)
        assert w <= cost + 1e-12
        # cost is the global optimum
        best = min(min(v + m.finals.get(q, INF)
                       for q, v in layered_distances(m).items())
                   for _ in (0,))
        assert abs(cost - best) < 1e-9


def test_best_path_reproducible_ties():
    m = acceptor(T, [(0, 1, 1.0, 1), (0, 2, 1.0, 2)], [1, 2])
    assert best_path(m) == best_path(m)
    (inp, _), cost = best_path(m)
    assert cost == 1.0 and inp == (1,)


@st.composite
def small_dags(draw):
    """Arcs ``(src, ilabel, olabel, weight, dst)`` with ``src < dst`` and
    finals of a TROPICAL machine on two to six states; weights are 0 or 1,
    so that ties are common."""
    n = draw(st.integers(2, 6))
    forward = [(s, t) for s in range(n) for t in range(s + 1, n)]
    arcs = [(s, il, ol, w, t) for (s, t), il, ol, w in draw(st.lists(
        st.tuples(st.sampled_from(forward), st.integers(0, 2),
                  st.integers(0, 2), st.integers(0, 1)), max_size=12))]
    finals = draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, 1),
                                  min_size=1))
    return n, arcs, finals


@given(small_dags())
@settings(max_examples=300, deadline=None)
def test_best_path_hop_pass_agrees_with_the_search_on_cyclic_input(dag):
    n, arcs, finals = dag
    m = build(T, arcs, finals, num_states=n)
    # one more state, with a loop and no arc in: no path changes, but the
    # machine is cyclic, so best_path counts hops by breadth-first search
    looped = build(T, arcs + [(n, 1, 1, 0, n)], finals)
    assert m.is_acyclic() and not looped.is_acyclic()
    try:
        expected = best_path(m)
    except NoPathError:
        with pytest.raises(NoPathError):
            best_path(looped)
    else:
        assert best_path(looped) == expected


def test_best_path_empty():
    m = acceptor(T, [(0, 1, 1.0, 1)], {})
    m2 = connect(m)
    with pytest.raises(NoPathError):
        best_path(m2)


# -- lattices ------------------------------------------------------------


def diamond_lattice():
    arcs = [(0, 1, 1.0, 1), (0, 2, 3.0, 2), (1, 3, 1.0, 3), (2, 3, 0.5, 3)]
    return Lattice(acceptor(T, arcs, {3: 0.0}))


def test_lattice_requires_acyclic():
    cyc = acceptor(T, [(0, 1, 1.0, 1), (1, 1, 1.0, 0)], [1])
    with pytest.raises(ContractError):
        Lattice(cyc)


def test_lattice_prune_exact_threshold_semantics():
    lat = diamond_lattice()
    # path costs: 1+1=2 (best) and 3+0.5=3.5
    tight = lattice_prune(lat, 0.5)
    assert weight_of(tight.machine, (1, 3)) == 2.0
    assert weight_of(tight.machine, (2, 3)) == INF
    loose = lattice_prune(lat, 2.0)
    assert weight_of(loose.machine, (2, 3)) == 3.5


def test_lattice_prune_random():
    rng = random.Random(5)
    for m in graphs(2300, 15, acyclic=True):
        lat = Lattice(connect(m))
        if not lat.machine.finals:
            continue
        theta = rng.choice((0.0, 0.5, 1.5))
        pruned = lattice_prune(lat, theta)
        from wfst import accepted_pairs
        base = accepted_pairs(lat.machine, max_path_len=10)
        best = min(w for w in base.values())
        kept = accepted_pairs(pruned.machine, max_path_len=10)
        for key, w in base.items():
            if w <= best + theta:
                assert kept.get(key) == w, key
        for key, w in kept.items():
            assert w <= best + theta + 1e-9


def test_lattice_prune_keeps_start_numbering_independent():
    # start state 2, an unreachable state 1: the result equals pruning the
    # connected copy, start first and the rest in ascending order
    lat = acceptor(T, [(2, 1, 1.0, 3), (2, 4, 3.0, 3), (0, 3, 1.0, 4),
                       (3, 3, 0.5, 4), (1, 4, 0.0, 4)], [4], start=2)
    for theta in (0.5, 2.0):
        pruned = lattice_prune(Lattice(lat), theta).machine
        again = lattice_prune(Lattice(connect(lat)), theta).machine
        assert pruned.start == 0
        assert write_text(pruned) == write_text(again)


def test_lattice_op_orders_states_at_most_three_times(monkeypatch):
    # two arcs share a label at states 0 and 3, so determinize merges
    lat = Lattice(acceptor(T, [(0, 1, 1.0, 1), (0, 1, 2.0, 2), (0, 2, 0.5, 3),
                               (1, 3, 0.0, 4), (2, 3, 0.5, 4), (3, 4, 1.5, 4),
                               (3, 4, 1.0, 5), (4, 5, 0.0, 5)], [5]))
    calls = {"kahn": 0, "distances": 0, "connect": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Machine, "_kahn", counted("kahn", Machine._kahn))
    monkeypatch.setattr(decode, "_distances",
                        counted("distances", decode._distances))
    trim = counted("connect", connect)
    for module in (decode, optimize):
        monkeypatch.setattr(module, "connect", trim)
    det = determinize(lat.machine)
    small = minimize(det)
    pruned = lattice_prune(Lattice(push(small, "weights")), 1.0)
    (words, _), cost = best_path(pruned.machine)
    # one distance pass each on the determinized, the minimized and the
    # pruned machine, and the forward pass of the pruning
    assert calls["kahn"] <= 3
    assert calls["distances"] <= 4
    assert calls["connect"] <= 1
    assert (words, cost) == ((1, 3, 5), 1.0)


def test_lattice_prune_empty():
    lat = diamond_lattice()
    with pytest.raises(NoPathError):
        lattice_prune(lat, -10.0)


def test_lattice_prune_of_a_lattice_with_no_final():
    lat = Lattice(acceptor(T, [(0, 1, 0.0, 1)], {}))
    with pytest.raises(NoPathError, match="empty lattice"):
        lattice_prune(lat, 1.0)


def test_lattice_prune_rejects_a_nan_threshold():
    with pytest.raises(ContractError, match="threshold"):
        lattice_prune(diamond_lattice(), math.nan)


def test_mutating_backward_distances_leaves_best_path_alone():
    m = diamond_lattice().machine
    expected = best_path(m)
    d = backward_distances(m)
    assert d == {0: 2.0, 1: 1.0, 2: 0.5, 3: 0.0}
    for q in d:
        d[q] = -100.0
    assert best_path(m) == expected
    assert backward_distances(m) == {0: 2.0, 1: 1.0, 2: 0.5, 3: 0.0}


def test_rescore_flips_winner():
    lat = diamond_lattice()
    (_, out), _ = best_path(lat.machine)
    assert out == (1, 3)
    # full model strongly prefers the 2-3 hypothesis
    full = acceptor(T, [(0, 2, 0.0, 1), (1, 3, 0.0, 2),
                        (0, 1, 10.0, 3), (3, 3, 10.0, 4)],
                    {2: 0.0, 4: 0.0})
    out2, cost = rescore(lat, full)
    assert out2 == (2, 3)


def test_rescore_without_a_common_path():
    full = acceptor(T, [(0, 9, 0.0, 1)], {1: 0.0})
    with pytest.raises(NoPathError, match="empty composition"):
        rescore(diamond_lattice(), full)


# -- beam search ---------------------------------------------------------


def toy_cascade(seed):
    rng = random.Random(seed)
    stage1 = build(T, [(0, 1, 1, rng.choice((0.0, 0.5)), 0),
                       (0, 1, 2, rng.choice((1.0, 2.0)), 0),
                       (0, 2, 2, rng.choice((0.0, 0.5)), 0)], {0: 0.0})
    stage2 = acceptor(T, [(0, 1, 0.0, 0), (0, 2, rng.choice((0.0, 1.0)), 0)],
                      {0: 0.0})
    return [stage1, stage2]


def test_beam_infinite_is_exact():
    for seed in range(30):
        stages = toy_cascade(seed)
        obs = (1, 2, 1)
        out, cost, stats = beam_decode(CascadeSpec(stages), obs)
        static = compose(compose(observation_machine(obs), stages[0]),
                         stages[1])
        (_, bout), bcost = best_path(static)
        assert abs(cost - bcost) < 1e-9
        assert stats.frames == len(obs)


def test_beam_sweep_monotone():
    stages = toy_cascade(99)
    obs = (1, 2, 2, 1)
    costs = []
    for beam in (INF, 3.0, 1.0, 0.5, 0.0):
        try:
            _, cost, _ = beam_decode(CascadeSpec(stages), obs, beam=beam)
        except NoPathError:
            cost = INF
        costs.append(cost)
    assert costs == sorted(costs)


def test_beam_too_small_raises():
    # the cheap branch 0 -1-> 2 -2-> 3 is live, but ends only by an epsilon
    # arc of cost 10 into final state 4: at beam 1 its cost 0 prunes the
    # live path in frame 1, and the closure's cost 10 prunes state 4 in
    # frame 2, so no final survives
    stage = build(T, [(0, 1, 1, 5.0, 1), (0, 1, 2, 0.0, 2), (1, 2, 1, 0.0, 1),
                      (2, 2, 2, 0.0, 3), (3, 0, 0, 10.0, 4)], {1: 0.0, 4: 0.0})
    with pytest.raises(NoPathError, match="try a larger beam"):
        beam_decode(CascadeSpec([stage]), (1, 2), beam=1.0)
    outputs, cost, _ = beam_decode(CascadeSpec([stage]), (1, 2))
    assert (outputs, cost) == ((1, 1), 5.0)


def test_no_path_at_an_infinite_beam_is_not_blamed_on_the_beam():
    stage = build(T, [(0, 1, 1, 0.0, 1)], {1: 0.0})
    with pytest.raises(NoPathError) as exc:
        beam_decode(CascadeSpec([stage]), (2,))
    assert str(exc.value) == \
        "the cascade accepts no path for the observations"


@pytest.mark.parametrize("beam", [INF, 16.0, 0.0])
def test_no_path_is_blamed_on_the_beam_only_when_it_pruned(beam):
    # the channel never hears 3, so the live product has no move from the
    # start; the LM reads only word 8, which the lexicon never writes.
    # Either way the search prunes nothing, so no beam could help
    channel = build(T, [(0, 1, 1, 0.0, 0), (0, 2, 1, 1.0, 0)], {0: 0.0})
    lexicon = build(T, [(0, 1, 7, 0.0, 0)], {0: 0.0})
    lm = build(T, [(0, 7, 7, 0.5, 0)], {0: 0.0})
    rejecting = build(T, [(0, 8, 8, 0.5, 0)], {0: 0.0})
    for stages, obs in [([channel], (1, 3, 2)), ([channel, lexicon], (1, 3)),
                        ([channel, lexicon, lm], (3,)),
                        ([channel, lexicon, rejecting], (1, 2))]:
        with pytest.raises(NoPathError) as exc:
            beam_decode(CascadeSpec(stages), obs, beam=beam)
        assert str(exc.value) == \
            "the cascade accepts no path for the observations"


def test_dead_end_branch_never_enters_the_beam():
    # 0 -1-> 2 cannot read the second observation, or (second machine)
    # reads it and then stops in non-final state 3: the live product
    # never holds that pair state, so it cannot prune the live path at beam 1
    arcs = [(0, 1, 1, 5.0, 1), (0, 1, 2, 0.0, 2), (1, 2, 1, 0.0, 1)]
    for extra in ([], [(2, 2, 2, 0.0, 3)]):
        stage = build(T, arcs + extra, {1: 0.0})
        outputs, cost, stats = beam_decode(CascadeSpec([stage]), (1, 2),
                                           beam=1.0)
        assert (outputs, cost) == ((1, 1), 5.0)
        assert (stats.expanded_states, stats.pruned) == (3, 0)


def test_dead_back_off_pair_does_not_set_the_floor():
    # after observation 1 the lexicon is mid-word (it writes only epsilon
    # next) and the LM's back-off arc 1 -> 0 costs -3.  Taking it alone
    # would leave the lexicon nothing to match, so that pair is never
    # built; had it been, its cost -3 would set frame 1's floor and prune
    # the live pair at cost 0 under beam 1
    lexicon = build(T, [(0, 1, 7, 0.0, 1), (1, 2, 0, 0.0, 0)], {0: 0.0})
    lm = build(T, [(0, 7, 7, 0.0, 1), (1, 0, 0, -3.0, 0)], {0: 0.0, 1: 0.0})
    outputs, cost, _ = beam_decode(CascadeSpec([lexicon, lm]), (1, 2),
                                   beam=1.0)
    assert (outputs, cost) == ((7,), -3.0)


def test_observations_are_read_once():
    stage = build(T, [(0, 1, 7, 0.5, 0), (0, 2, 8, 1.0, 0)], {0: 0.0})
    expected = ((7, 8, 7), 2.0)
    assert beam_decode(CascadeSpec([stage]), [1, 2, 1])[:2] == expected
    assert beam_decode(CascadeSpec([stage]), iter([1, 2, 1]))[:2] == expected


@pytest.mark.parametrize("beam", [math.nan, -1.0])
def test_nan_or_negative_beam_raises(beam):
    stage = build(T, [(0, 1, 7, 0.5, 0)], {0: 0.0})
    with pytest.raises(ContractError, match="beam"):
        beam_decode(CascadeSpec([stage]), (1,), beam=beam)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from((1, 2, 3)), max_size=4))
def test_infinite_beam_matches_static_cascade_with_epsilons(seed, obs):
    # both stages have epsilon on both tapes, so the outer composition
    # makes match, both-move and alone moves over lazy inner pair states
    s1, s2 = sample_machines(seed, 2, kind=T, max_states=5, max_arcs=8)
    static = compose(compose(observation_machine(obs), s1), s2)
    try:
        _, expected = best_path(static)
    except NoPathError:
        with pytest.raises(NoPathError):
            beam_decode(CascadeSpec([s1, s2]), obs)
        return
    _, cost, stats = beam_decode(CascadeSpec([s1, s2]), obs)
    assert cost == pytest.approx(expected, abs=1e-9)
    assert stats.pruned == 0


def test_negative_epsilon_cycle_raises_within_budget():
    # two epsilon arcs of weight -1 form a cycle after the first frame;
    # each trip round it lowers the cost, so the closure never settles
    stage = build(T, [(0, 1, 1, 0.0, 1), (1, 0, 0, -1.0, 2),
                      (2, 0, 0, -1.0, 1)], {1: 0.0})

    def overrun(signum, frame):
        raise TimeoutError("beam_decode ran past its 10 s budget")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.alarm(10)
    try:
        with pytest.raises(ContractError,
                           match="negative-weight epsilon cycle"):
            beam_decode(CascadeSpec([stage]), (1,))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_negative_epsilon_weights_without_a_cycle_decode():
    stage = build(T, [(0, 1, 1, 1.0, 1), (1, 0, 0, -0.5, 2),
                      (2, 0, 7, -0.25, 3)], {3: 0.0})
    outputs, cost, _ = beam_decode(CascadeSpec([stage]), (1,))
    assert (outputs, cost) == ((1, 7), 0.25)


@pytest.mark.parametrize("beam, pruned", [(INF, 0), (1.0, 1)])
def test_search_reads_each_state_once(monkeypatch, beam, pruned):
    # channel, lexicon and a bigram LM whose back-off epsilon arc costs
    # -0.5.  Word 7 is phones 1 2, word 8 is phone 1, word 9 is phone 2.
    # Frame 0 holds the start; frame 1 holds "7" half read (3.0), "8" at
    # LM state 1 (1.5) and, by the back-off, "8" at LM state 0 (1.0);
    # frame 2 holds one state, reached at 4.0 through the bigram 8 9 and
    # at 2.5 through the back-off then the unigram 9, or at 3.0 by ending
    # word 7, which beam 1 prunes in frame 1.  Five states in all.
    channel = build(T, [(0, 1, 1, 0.0, 0), (0, 2, 2, 0.0, 0)], {0: 0.0})
    lexicon = build(T, [(0, 1, 7, 0.0, 1), (1, 2, 0, 0.0, 0),
                        (0, 1, 8, 0.5, 0), (0, 2, 9, 0.5, 0)], {0: 0.0})
    lm = build(T, [(0, 7, 7, 3.0, 0), (0, 8, 8, 1.0, 1), (0, 9, 9, 1.0, 0),
                   (1, 9, 9, 2.0, 0), (1, 0, 0, -0.5, 0)],
               {0: 0.0, 1: 0.5})
    reads = {}
    arcs = LazyComposition.arcs

    def counted(view, state):
        reads.setdefault(view, []).append(state)
        return arcs(view, state)

    monkeypatch.setattr(LazyComposition, "arcs", counted)
    outputs, cost, stats = beam_decode(CascadeSpec([channel, lexicon, lm]),
                                       (1, 2), beam=beam)
    assert (outputs, cost) == ((8, 9), 2.5)
    assert (stats.expanded_states, stats.frames, stats.pruned) == \
        (5, 2, pruned)
    # the prefix channel . lexicon is composed statically, through the
    # same kernel; the search reads the one view whose right side is the LM
    outer = [v for v in reads if v.b is lm]
    assert len(outer) == 1 and len(reads[outer[0]]) == 5
    for states in reads.values():
        assert len(states) == len(set(states))


def test_live_product_equals_the_lazy_composition():
    # frozen machines (a sampled one, an expanded cache and an expanded lazy
    # composition), all with epsilon on both tapes, read through the live
    # product and through the composition of the observation chain:
    # trimmed, the two are one machine, and trimming drops no state or arc
    # of the product's, so it builds no pair that cannot finish.  The sweep
    # meets empty, accepted and rejected observation strings
    def text(m):
        return f"{write_text(m)}{m.start_weight!r}"

    met = {"empty": 0, "accepted": 0, "rejected": 0}
    for seed in range(40):
        a, b = sample_machines(5100 + seed, 2, kind=T, max_states=5,
                               max_arcs=8, alphabet=(1, 2))
        for x in (a, expand(cached(a)), expand(lazy_compose(a, b))):
            for obs in [(), (1,), (2,), (1, 2), (2, 1, 1), (2, 2, 2)]:
                full = connect(expand(
                    lazy_compose(observation_machine(obs), x)))
                matched = expand(decode._live_product(obs, x))
                trimmed = connect(matched)
                assert text(trimmed) == text(full)
                assert (trimmed.num_states, trimmed.num_arcs) == \
                    (matched.num_states, matched.num_arcs)
                assert_ids_ascend_with_the_state_in_each_frame(obs, x)
                met["empty" if not obs else
                    "accepted" if full.finals else "rejected"] += 1
    assert all(met.values()), met


def assert_ids_ascend_with_the_state_in_each_frame(obs, x):
    # each arc of ``x`` writes its target + 1, which the product copies, so
    # every product state's state of x and frame can be read off its arcs
    marked = Machine._from_parts(
        T, None, None, [[(il, t + 1, w, t) for il, _, w, t in x.arcs(q)]
                        for q in x.states()],
        dict(x.finals), x.start, x.start_weight)
    product = decode._live_product(obs, marked)
    pair = {product.start: (0, x.start)}
    queue = [product.start]
    for p in queue:
        frame, _ = pair[p]
        for il, ol, _, t in product.arcs(p):
            if t not in pair:
                pair[t] = (frame + (il != 0), ol - 1)
                queue.append(t)
    assert len(pair) == product.num_states
    for frame in range(len(obs) + 1):
        ids = [p for p in sorted(pair) if pair[p][0] == frame]
        assert ids == sorted(ids, key=pair.get)


def test_one_stage_equal_cost_tie_is_broken_by_the_stage_state():
    # two paths of cost 1.0 meet at state 3 in the epsilon closure of frame
    # 1; the search settles equal costs in ascending state order, and the
    # live product numbers one frame's pairs in ascending order of the
    # stage's state, so the path through state 1 wins although state 2's
    # arc comes first
    stage = build(T, [(0, 1, 8, 0.0, 2), (0, 1, 7, 0.0, 1),
                      (1, 0, 5, 1.0, 3), (2, 0, 6, 1.0, 3)], {3: 0.0})
    outputs, cost, _ = beam_decode(CascadeSpec([stage]), (1,))
    assert (outputs, cost) == ((7, 5), 1.0)


def test_epsilon_observation_raises():
    stage = build(T, [(0, 1, 7, 0.5, 0), (0, 0, 8, 1.0, 0)], {0: 0.0})
    with pytest.raises(ContractError, match="epsilon"):
        beam_decode(CascadeSpec([stage]), (1, 0))


def test_prefix_is_composed_once_for_frozen_stages(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return compose(a, b)

    monkeypatch.setattr(decode, "compose", counted)
    channel = build(T, [(0, 1, 1, 0.0, 0), (0, 2, 1, 1.0, 0)], {0: 0.0})
    lexicon = build(T, [(0, 1, 7, 0.0, 0)], {0: 0.0})
    lm = build(T, [(0, 7, 7, 0.5, 0)], {0: 0.0})
    for obs in [(1,), (2, 1)]:
        beam_decode(CascadeSpec([channel, lexicon, lm]), obs)
    assert calls == [(channel, lexicon)]
    # a stage that could change between calls is not taken at all
    with pytest.raises(ContractError, match="frozen"):
        CascadeSpec([unfrozen(channel), lexicon, lm])


def test_cascade_spec_validation():
    with pytest.raises(ContractError):
        CascadeSpec([])
    b = acceptor(Semiring.BOOLEAN, [(0, 1, 1.0, 1)], [1])
    with pytest.raises(ContractError):
        CascadeSpec([b])
    # stages are frozen machines: neither a view nor a mutable machine
    t = acceptor(T, [(0, 1, 0.0, 1)], [1])
    for stage in (lazy_compose(t, t), cached(t), unfrozen(t), Machine(T)):
        with pytest.raises(ContractError, match="frozen"):
            CascadeSpec([t, stage])


def test_observation_machine():
    m = observation_machine((1, 2, 3))
    assert m.num_states == 4
    assert weight_of(m, (1, 2, 3)) == 0.0
    assert weight_of(m, (1, 2)) == INF
