"""Shortest paths, Viterbi beam search over lazy cascades, lattice pruning
and multipass rescoring.  TROPICAL weights throughout: cost = -log P, best
path = minimum total cost.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from functools import reduce
from itertools import count

from .errors import ContractError, NoPathError
from .machine import (EPSILON, Machine, check_machines, check_record,
                      connect)
from .machine import observation_machine  # noqa: F401 (re-exported)
from .ops import _END, compose, label_index, label_indexes, lazy_compose
from .semiring import Semiring

INF = math.inf


def _require_tropical(m):
    """Refuse ``m`` unless it is a TROPICAL ``Machine``, then return its
    start: reading it refuses a machine that is not frozen."""
    check_machines(m)
    if m.kind is not Semiring.TROPICAL:
        raise ContractError("decoding requires TROPICAL weights")
    return m.start


def _distances(m, forward):
    """Least d with d[v] <= d[u] + w over every edge (u, v, w): the arcs from
    the start weight, or reversed arcs from the final weights (Mohri 2002).
    The machine chooses the algorithm: acyclic input takes one pass in
    topological order, O(V+E); cyclic input takes Bellman-Ford, O(V*E),
    which raises ContractError when pass |V| + 1 still lowers a distance.
    """
    start = _require_tropical(m)
    d = [INF] * m.num_states
    if forward:
        d[start] = m.start_weight
    else:
        for q, w in m.finals.items():
            d[q] = w
    order = m.topological_order()
    states = m.states() if order is None else order
    for _ in range(m.num_states + 1):
        changed = False
        if forward:
            for u in states:
                x = d[u]
                for _, _, w, t in m.arcs(u):
                    y = x + w
                    if y < d[t]:
                        d[t] = y
                        changed = True
        else:
            for v in reversed(states):
                for _, _, w, t in m.arcs(v):
                    y = d[t] + w
                    if y < d[v]:
                        d[v] = y
                        changed = True
        if order is not None or not changed:
            return dict(enumerate(d))
    raise ContractError("negative-weight cycle: shortest distances unbounded")


def shortest_distance(m: Machine) -> dict[int, float]:
    """Shortest distances from the start; ContractError if the start reaches
    a negative-weight cycle."""
    return _distances(m, True)


def _backward(m):
    """``backward_distances`` of ``m``, computed once per frozen machine and
    shared: callers must not modify the dict."""
    return m._memo("backward_distances", lambda: _distances(m, False))


def backward_distances(m: Machine) -> dict[int, float]:
    """Shortest distance from each state to a final (final weight included)."""
    check_machines(m)
    return dict(_backward(m))


def best_path(m: Machine):
    """One optimal accepting path: ((input, output), cost).

    From each state the path takes an optimal arc fewest arcs away from an
    optimal stop; ties are broken by smallest next-state id, then smallest
    labels, making the result reproducible.  The arc counts take one
    reverse-topological pass on acyclic input, else a breadth-first search
    back from the optimal stops.
    """
    _require_tropical(m)
    d = _backward(m)
    if d.get(m.start, INF) == INF:
        raise NoPathError("machine accepts nothing")
    # hop counts to an optimal stopping state along weight-optimal arcs
    # only, so extraction cannot orbit a zero-weight cycle
    final, arcs_of = m.final, m.arcs
    if m.is_acyclic():
        # every optimal arc's target comes later in the order
        h = [0] * m.num_states
        for v in reversed(m.topological_order()):
            dv = d[v]
            h[v] = 0 if final(v) == dv else 1 + min(
                [h[t] for _, _, w, t in arcs_of(v) if w + d[t] == dv])
    else:
        h = [0 if final(q) == d[q] else INF for q in m.states()]
        optimal_preds = [[] for _ in m.states()]
        for q in m.states():
            for _, _, w, t in arcs_of(q):
                if w + d[t] == d[q]:
                    optimal_preds[t].append(q)
        queue = deque(q for q in m.states() if h[q] == 0)
        while queue:
            t = queue.popleft()
            for q in optimal_preds[t]:
                if h[q] == INF:
                    h[q] = h[t] + 1
                    queue.append(q)
    inp, out = [], []
    q = m.start
    cost = m.start_weight
    while h[q] > 0:
        best = None
        for il, ol, w, t in arcs_of(q):
            if w + d[t] != d[q] or h[t] >= h[q]:
                continue
            key = (t, il, ol)
            if best is None or key < best[0]:
                best = (key, w)
        (q, il, ol), w = best
        if il != EPSILON:
            inp.append(il)
        if ol != EPSILON:
            out.append(ol)
        cost += w
    cost += final(q)
    return (tuple(inp), tuple(out)), cost


@dataclass
class Lattice:
    """Trim acyclic tropical machine."""

    machine: Machine

    def __post_init__(self):
        _require_tropical(self.machine)
        if not self.machine.is_acyclic():
            raise ContractError("a lattice must be acyclic")


def lattice_prune(lattice: Lattice, threshold: float) -> Lattice:
    """Keep exactly the states/arcs on some path with cost <= best + threshold.

    A NaN threshold raises ContractError; a negative one prunes every path."""
    check_record(lattice, Lattice)
    if math.isnan(threshold):
        raise ContractError(f"threshold must be a number, got {threshold!r}")
    m = lattice.machine
    fwd = shortest_distance(m)
    bwd = _backward(m)
    best = min((fwd[q] + m.finals[q] for q in m.finals), default=INF)
    if best == INF:
        raise NoPathError("empty lattice")
    bound = best + threshold
    if not fwd[m.start] + bwd[m.start] <= bound:
        raise NoPathError("threshold pruned away every path")
    # pruned states keep their ids with no arcs; connect drops and renumbers
    arcs = [()] * m.num_states
    finals = {}
    for q in m.states():
        fq = fwd[q]
        if fq + bwd[q] <= bound:
            arcs[q] = [arc for arc in m.arcs(q)
                       if fq + arc[2] + bwd[arc[3]] <= bound]
            if q in m.finals and fq + m.finals[q] <= bound:
                finals[q] = m.finals[q]
    out = Machine._from_parts(m.kind, m.isymbols, m.osymbols, arcs, finals,
                              m.start, m.start_weight)
    out._inherit_shape(m)
    kept = connect(out)
    if not any(bwd.values()):
        # a kept state keeps its zero-weight continuation: adding 0.0 is exact
        kept._derived["backward_distances"] = dict.fromkeys(kept.states(), 0.0)
    return Lattice(kept)


def rescore(lattice: Lattice, full: Machine):
    """Best path through the lattice re-weighted by a full model."""
    check_record(lattice, Lattice)
    combined = compose(lattice.machine, full)
    try:
        (inp, out), cost = best_path(combined)
    except NoPathError:
        raise NoPathError("rescoring produced an empty composition") from None
    return out, cost


@dataclass
class CascadeSpec:
    """Ordered cascade of frozen machines; stage 0 reads the observations."""

    stages: list

    def __post_init__(self):
        if not self.stages:
            raise ContractError("cascade needs at least one stage")
        for m in self.stages:
            _require_tropical(m)


@dataclass
class DecodeStats:
    expanded_states: int = 0
    frames: int = 0
    pruned: int = 0


def _live_product(obs, x):
    """The live part of ``compose(observation_machine(obs), x)`` for the
    frozen machine ``x``: the pairs (observation i, state q) the start
    reaches, numbered frame by frame, in ascending order of ``q`` within a
    frame (the search breaks equal costs by id).  From pair (i, q) a move
    on ``obs[i]`` is kept iff its target is in ``live[i + 1]``, then an
    epsilon move iff its target is in ``live[i]``, so every pair but the
    start can still finish; weights are checked as a composition's."""
    if EPSILON in obs:
        raise ContractError("an observation may not be epsilon (0)")
    sources = x._memo("label_sources", lambda: _label_sources(x))
    live = _live_sets(x, sources, obs)
    kind, table = x.kind, label_indexes(x)
    times, one, valid = kind.times, kind.one, kind.valid

    def checked(w):
        w = times(one, w)
        if not valid(w):
            raise kind.carrier_error(w)
        return w

    # forward: frame i's pairs, as state of x -> id
    ids, size, reached = [], 0, {x.start}
    for here, ahead, label in zip(live, live[1:], (*obs, _END)):
        stack = list(reached) if EPSILON in sources else ()
        while stack:
            for _, _, _, t in label_index(x, table, stack.pop()).get(
                    EPSILON, ()):
                if t in here and t not in reached:
                    reached.add(t)
                    stack.append(t)
        ids.append(dict(zip(sorted(reached), count(size))))
        size += len(reached)
        reached = {t for q in reached for _, _, _, t in
                   label_index(x, table, q).get(label, ()) if t in ahead}
    arcs = []
    for here, ahead, alive, label in zip(ids, ids[1:] + [{}], live,
                                         (*obs, _END)):
        for q in here:
            index = table[q]
            out = []
            for _, ol, w, t in index.get(label, ()):
                if t in ahead:
                    out.append((label, ol, checked(w), ahead[t]))
            if EPSILON in index:
                out += [(EPSILON, ol, w, here[t])
                        for _, ol, w, t in index[EPSILON] if t in alive]
            arcs.append(out)
    finals = {p: checked(w) for q, p in ids[-1].items()
              if (w := x.final(q)) != kind.zero}
    return Machine._from_parts(kind, x.isymbols, x.osymbols, arcs, finals,
                               ids[0][x.start], checked(x.start_weight))


def _label_sources(x):
    """``label -> target -> sources`` over the arcs of ``x``."""
    sources = {}
    for q in x.states():
        for il, _, _, t in x.arcs(q):
            sources.setdefault(il, {}).setdefault(t, []).append(q)
    return sources


def _live_sets(x, sources, obs):
    """``live[i]``: the states of the frozen machine ``x`` that can read
    ``obs[i:]`` and stop, each closed backwards over epsilon-input arcs; one
    backward pass from ``live[i + 1]``'s states through ``x``'s
    ``_label_sources``.  ``live[len(obs) + 1]`` is empty: no pair reads
    past the end."""
    into = sources.get(EPSILON, {})

    def closed(states):
        stack = list(states) if into else ()
        while stack:
            for s in into.get(stack.pop(), ()):
                if s not in states:
                    states.add(s)
                    stack.append(s)
        return states

    zero = x.kind.zero
    live = [set(), closed({q for q, w in x.finals.items() if w != zero})]
    for label in reversed(obs):
        step = sources.get(label, {})
        live.append(closed(set().union(
            *map(step.__getitem__, step.keys() & live[-1]))))
    live.reverse()
    return live


def _composed(stages):
    """The static composition of ``stages`` (of one stage, that stage), made
    once and kept in the first one's derived tables, keyed by the others."""
    return stages[0]._memo(("composed", *stages[1:]),
                           lambda: reduce(compose, stages))


def beam_decode(cascade: CascadeSpec, observations, beam=INF):
    """Frame-synchronous Viterbi beam search over the lazy cascade.

    The stages before the last are composed statically once; per call,
    the live part of the observations composed with that prefix is built
    as a frozen machine (live sets from one backward pass over a per-label
    source table kept with the prefix, then one forward pass), and only
    the last stage is composed lazily onto it.  The live product holds
    only prefix states that can read the rest of the observations and
    stop, so the search builds no pair the prefix dooms.
    NoPathError blames the beam only when the beam pruned a state; a
    search that pruned nothing was exact, so it says the cascade accepts
    no path (at once, when the prefix cannot read the observations).

    States are grouped by the number of observation symbols consumed
    ("comparable states"; epsilon-reached states keep the frame of their
    last non-epsilon consumption).  Within a frame, states whose cost
    exceeds best-in-frame + beam are pruned.  beam=inf is exact Viterbi.
    Each state's arcs are read once, when the search first reaches it.
    Returns (output labels, cost, stats).  ``observations`` may be any
    iterable; it is read once.  A NaN or negative beam, or an epsilon
    observation, raises ContractError.
    """
    check_record(cascade, CascadeSpec)
    if not beam >= 0:  # also false for NaN
        raise ContractError(f"beam must be a non-negative number, got {beam!r}")
    observations = tuple(observations)
    stages = cascade.stages
    view = _live_product(observations, _composed(stages[:-1] or stages))
    if len(stages) > 1:
        view = lazy_compose(view, stages[-1])
    n_frames = len(observations)
    # state -> (epsilon-input arcs, other arcs); a state belongs to one
    # frame, so the closure and the advance share the one read
    split = {}

    def read(q):
        arcs = view.arcs(q)
        entry = ((), arcs)
        for arc in arcs:
            if arc[0] == EPSILON:  # few states have one: split only those
                entry = ([a for a in arcs if a[0] == EPSILON],
                         [a for a in arcs if a[0] != EPSILON])
                break
        split[q] = entry
        return entry

    costs = {view.start: view.start_weight}
    back = {view.start: (None, None)}
    best_final = None
    pruned = 0
    for frame in range(n_frames + 1):
        if not costs:
            break
        # epsilon-closure: Dijkstra over the states with epsilon-input arcs;
        # a best path of more hops than the closure has states repeats a
        # state, which only a negative-weight epsilon cycle makes cheaper
        heap = [(c, q, 0) for q, c in costs.items() if read(q)[0]]
        heapq.heapify(heap)
        while heap:
            c, q, hops = heapq.heappop(heap)
            if c > costs[q]:
                continue
            hops += 1
            for _, ol, w, t in split[q][0]:
                cand = c + w
                if cand < costs.get(t, INF):
                    costs[t] = cand
                    if hops > len(costs):
                        raise ContractError("negative-weight epsilon cycle: "
                                            "beam search cannot settle")
                    back[t] = (q, ol)
                    if (split.get(t) or read(t))[0]:
                        heapq.heappush(heap, (cand, t, hops))
        # beam pruning against the best comparable state
        limit = min(costs.values()) + beam
        nxt = {}
        for q, c in costs.items():
            if c > limit:
                pruned += 1
            elif frame == n_frames:
                fw = view.final(q)
                if fw != INF and (best_final is None or c + fw < best_final[0]):
                    best_final = (c + fw, q)
            else:
                for _, ol, w, t in split[q][1]:
                    cand = c + w
                    if cand < nxt.get(t, INF):
                        nxt[t] = cand
                        back[t] = (q, ol)
        costs = nxt
    if best_final is None:
        # a search that pruned nothing was exact
        raise NoPathError("no surviving path; try a larger beam" if pruned
                          else "the cascade accepts no path for the "
                          "observations")
    # reconstruct outputs
    outputs = []
    q = best_final[1]
    while back[q][0] is not None:  # the start's entry ends the walk
        q, olabel = back[q]
        if olabel != EPSILON:
            outputs.append(olabel)
    outputs.reverse()
    return (tuple(outputs), best_final[0],
            DecodeStats(len(split), frame, pruned))
