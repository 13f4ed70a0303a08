"""Weighted determinization, the twin-property test, local determinization,
weight/string pushing, minimization, compaction, and equivalence testing.

Determinization is the weighted powerset construction: subset elements are
(state, leftover-output-string, leftover-weight) triples, normalized so the
best leftover weight is the semiring one and the leftover strings share no
common nonempty prefix (Mohri 1997); an epsilon-free TROPICAL acceptor
(every lattice) takes a plain loop with no string work and no closure.
Weight pushing returns an already pushed machine as it is; a pushed copy
keeps its input's topological order and acceptor flag.  Minimization
pushes weights (and output strings) as it encodes each arc, building no
pushed copy, and partitions the states on (input label, output residue,
pushed weight) as one opaque label: acyclic input is classed as it is
encoded, in one walk back along its topological order (Revuz 1992),
cyclic input takes Hopcroft partition refinement.  Compaction runs both
on an acceptor over its arcs' (input, output, weight) triples.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce

from .decode import INF, _backward
from .errors import CapExceededError, ContractError, SemiringError
from .machine import EPSILON, Machine, check_machines, connect
from .semiring import Semiring

DEFAULT_EXPANSION_CAP = 10_000
_RESIDUAL_STRING_CAP = 64
_SUBSET_ELEMENTS_CAP = 16  # elements in all subsets, per subset of the cap
_NOT_SUBSEQUENTIABLE = "the input is likely not subsequentiable (try twins_test)"


def _require_divisible(kind):
    if kind is Semiring.REAL:
        raise SemiringError("operation unsupported over the REAL semiring")


def _lcp(strings):
    if not strings:
        return ()
    first = min(strings, key=len)
    for i, sym in enumerate(first):
        if any(s[i] != sym for s in strings):
            return first[:i]
    return tuple(first)


# -- determinization ----------------------------------------------------


def _epsilon_arcs(m):
    """Input-epsilon arcs of ``m`` by source state, for a state with one."""
    rows = {}
    for q in m.states():
        for arc in m.arcs(q):
            if arc[0] == EPSILON:
                rows.setdefault(q, []).append(arc)
    return rows


def _close_epsilon(kind, eps_arcs, best, cap):
    """Extend a subset, ``{(state, leftover string): weight}``, in place
    along the input-epsilon arcs ``eps_arcs`` (state -> arcs); returns it.
    A product equal to the semiring zero is no path and is dropped.

    A subset of more than ``cap`` elements raises: on a non-subsequentiable
    transducer the leftover output strings can double with every symbol, so
    a few subsets would otherwise exhaust memory long before the cap on
    their number is reached.  A negative-weight epsilon cycle, whose
    closure never settles, raises ``ContractError``.
    """
    if not eps_arcs and len(best) <= cap:
        return best
    times, valid, zero = kind.times, kind.valid, kind.zero
    queue = deque(best)
    hops = dict.fromkeys(best, 0)  # epsilon arcs behind each best weight
    while True:
        # every added element is queued, so this sees the final size too
        if len(best) > cap:
            raise CapExceededError(f"determinization subset exceeded {cap} "
                                   f"elements; {_NOT_SUBSEQUENTIABLE}")
        if not queue:
            return best
        q, s = queue.popleft()
        r, h = best[(q, s)], hops[(q, s)] + 1
        for _, ol, w, t in eps_arcs.get(q, ()):
            ns = s if ol == EPSILON else s + (ol,)
            if len(ns) > _RESIDUAL_STRING_CAP:
                raise CapExceededError("leftover output string grew without bound")
            nr = times(r, w)
            if not valid(nr):
                raise kind.carrier_error(nr)
            if nr == zero:
                continue
            key = (t, ns)
            if key not in best or nr < best[key]:
                best[key], hops[key] = nr, h
                # its path repeats an element, on a cycle that lowered it
                if h >= len(best):
                    raise ContractError("negative-weight input-epsilon cycle")
                queue.append(key)


def _normalize(kind, best, acceptor):
    """Factor total weight and common output prefix out of a nonempty subset
    ``{(state, string): weight}``; its keys stay distinct.  An acceptor's
    strings are all empty, so it has no prefix to look for."""
    total = reduce(kind.plus, best.values())
    strings = () if acceptor else [s for _, s in best]
    prefix = _lcp(strings) if strings and all(strings) else ()
    if prefix:
        k = len(prefix)
        best = {(q, s[k:]): r for (q, s), r in best.items()}
    if kind is Semiring.TROPICAL:
        subset = tuple(sorted((q, s, r - total) for (q, s), r in best.items()))
    else:  # boolean: weights are 1 for every live element
        subset = tuple(sorted((q, s, kind.one) for q, s in best))
    return total, prefix, subset


def _emit_string(arcs, src, ilabel, symbols, weight, dst, one):
    """Chain of arcs spelling ``symbols`` on the output tape.

    ``arcs`` is the per-state arc lists of a machine under construction;
    the chain's inner states are appended to it.
    """
    if not symbols:
        arcs[src].append((ilabel, EPSILON, weight, dst))
        return
    cur = src
    il, w = ilabel, weight
    last = len(symbols) - 1
    for i, sym in enumerate(symbols):
        if i == last:
            target = dst
        else:
            target = len(arcs)
            arcs.append([])
        arcs[cur].append((il, sym, w, target))
        cur, il, w = target, EPSILON, one


def _count_subset(ids, target, cap, elements_left):
    """Elements left for subsets once ``target`` is one more; past ``cap``
    subsets, or 16 times as many elements in all, ``CapExceededError``."""
    if len(ids) >= cap:
        raise CapExceededError(f"determinization exceeded {cap} subset "
                               f"states; {_NOT_SUBSEQUENTIABLE}")
    elements_left -= len(target)
    if elements_left < 0:
        raise CapExceededError(
            f"determinization exceeded {_SUBSET_ELEMENTS_CAP * cap} elements "
            "in all subsets (try twins_test)")
    return elements_left


def _plain_subsets(m, start_subset, cap):
    """``determinize``'s loop for a TROPICAL acceptor with no input-epsilon
    arc: no leftover string, no closure, so each label's moves are grouped
    by target, their weights added and compared inline.  Subsets, ids, caps
    and errors are the general loop's; returns the arcs and the finals."""
    m_finals, m_arcs = m.finals, m.arcs
    zero, lowest, carrier_error = INF, -INF, Semiring.TROPICAL.carrier_error
    ids = {start_subset: 0}
    elements_left = _SUBSET_ELEMENTS_CAP * cap - len(start_subset)
    arcs, finals = [[]], {}
    queue = deque([start_subset])
    while queue:
        subset = queue.popleft()
        q = ids[subset]
        final = zero
        by_label = {}  # label -> {target: best weight after that label}
        for state, _, r in subset:
            if state in m_finals:
                w = r + m_finals[state]
                if not lowest < w:
                    raise carrier_error(w)
                final = min(final, w)
            for label, _, w, t in m_arcs(state):
                w = r + w
                if not lowest < w:
                    raise carrier_error(w)
                if w == zero:  # no path
                    continue
                group = by_label.get(label)
                if group is None:
                    by_label[label] = {t: w}
                elif w < group.get(t, zero):
                    group[t] = w
        if final != zero:
            finals[q] = final
        row = arcs[q]
        for label in sorted(by_label):
            group = by_label[label]
            if len(group) == 1:
                ((t, total),) = group.items()
                target = ((t, (), 0.0),)
            else:
                # with no epsilon arc, this checks the one-subset cap only
                _close_epsilon(Semiring.TROPICAL, {}, group, cap)
                total = min(group.values())
                target = tuple(sorted([(t, (), w - total)
                                       for t, w in group.items()]))
            t = ids.get(target)
            if t is None:
                elements_left = _count_subset(ids, target, cap, elements_left)
                t = ids[target] = len(arcs)
                arcs.append([])
                queue.append(target)
            row.append((label, label, total, t))
    return arcs, finals


def determinize(m: Machine, expansion_cap: int = DEFAULT_EXPANSION_CAP) -> Machine:
    """Weighted subset determinization (TROPICAL/BOOLEAN).

    The result is deterministic on input; transducer subsets carry leftover
    output strings, materialized as epsilon-input emission chains when a
    leftover longer than one symbol must be flushed.  An acceptor's
    leftover strings stay empty, so its arcs are emitted as they are read,
    one per label, and its output records that it is deterministic.
    A transducer is trimmed first: a dead state's leftover string would cut
    the live states' common prefix short and hold their output back.
    More than ``expansion_cap`` subset states, ``expansion_cap`` elements
    in one subset, or 16 times as many in all subsets raises
    ``CapExceededError`` (suggesting ``twins_test``).  Every product is
    range-checked as it is formed, and one equal to the semiring zero, no
    path, is dropped; sums of carrier weights under min or boolean or stay
    in the carrier.  An epsilon-free TROPICAL acceptor, such as a lattice,
    takes a plain loop with no string work and no epsilon closure.
    """
    check_machines(m)
    _require_divisible(m.kind)
    kind = m.kind
    times, plus, valid = kind.times, kind.plus, kind.valid
    zero, one = kind.zero, kind.one
    tropical = kind is Semiring.TROPICAL
    acceptor = m.is_acceptor()
    if not acceptor:
        m = connect(m)
    m_finals, m_arcs = m.finals, m.arcs
    eps_arcs = _epsilon_arcs(m)
    start_elems = _close_epsilon(kind, eps_arcs, {(m.start, ()): one},
                                 expansion_cap)
    total, prefix, start_subset = _normalize(kind, start_elems, acceptor)
    # weight and output prefix that cannot be emitted before the first arc
    # stay inside the start subset
    start_subset = tuple(sorted(
        (q, prefix + s, (times(total, r) if tropical else r))
        for q, s, r in start_subset))
    if tropical and acceptor and not eps_arcs:
        arcs, finals = _plain_subsets(m, start_subset, expansion_cap)
        return _determinized(m, arcs, finals, acceptor)
    ids = {start_subset: 0}
    # one subset's elements can grow with the number of subsets: bound both
    elements_left = _SUBSET_ELEMENTS_CAP * expansion_cap - len(start_subset)
    arcs = [[]]
    finals = {}
    queue = deque([start_subset])
    while queue:
        subset = queue.popleft()
        q = ids[subset]
        # finality: flush leftovers of final member states
        final_groups = {}
        for state, s, r in subset:
            fw = m_finals.get(state, zero)
            if fw == zero:
                continue
            w = times(r, fw)
            if not valid(w):
                raise kind.carrier_error(w)
            if s in final_groups:
                w = plus(final_groups[s], w)
            final_groups[s] = w
        for s, w in (sorted(final_groups.items()) if len(final_groups) > 1
                     else final_groups.items()):
            if not s:
                if w != zero:
                    finals[q] = w
            else:
                tail = len(arcs)
                arcs.append([])
                finals[tail] = one
                _emit_string(arcs, q, EPSILON, s, w, tail, one)
        # label -> {(state, leftover string): weight} after that label
        by_label = {}
        for state, s, r in subset:
            for il, ol, wa, t in m_arcs(state):
                if il == EPSILON:
                    continue
                ns = s
                if ol != EPSILON and not acceptor:
                    ns = s + (ol,)
                    if len(ns) > _RESIDUAL_STRING_CAP:
                        raise CapExceededError(
                            "leftover output string grew without bound")
                w = times(r, wa)
                if not valid(w):
                    raise kind.carrier_error(w)
                if w == zero:
                    continue
                key = (t, ns)
                if il not in by_label:
                    by_label[il] = {key: w}
                    continue
                group = by_label[il]
                group[key] = plus(group[key], w) if key in group else w
        for label in sorted(by_label):
            total, prefix, target = _normalize(kind, _close_epsilon(
                kind, eps_arcs, by_label[label], expansion_cap), acceptor)
            t = ids.get(target)
            if t is None:
                elements_left = _count_subset(ids, target, expansion_cap,
                                              elements_left)
                t = ids[target] = len(arcs)
                arcs.append([])
                queue.append(target)
            if acceptor:
                arcs[q].append((label, label, total, t))
            else:
                _emit_string(arcs, q, label, prefix, total, t, one)
    return _determinized(m, arcs, finals, acceptor)


def _determinized(m, arcs, finals, acceptor):
    """``determinize``'s output, from its loop's arcs and finals."""
    out = Machine._from_parts(m.kind, m.isymbols, m.osymbols, arcs, finals, 0,
                              m.start_weight)
    if acceptor:  # every arc is emitted as (label, label, ...), one per label
        out._derived["is_acceptor"] = out._derived["is_deterministic"] = True
    return out


# -- twin property ------------------------------------------------------


@dataclass
class TwinReport:
    has_twin_property: bool
    witness: tuple | None = None


def _square_machine(m):
    """Pairs of states co-reachable by a common input string, in
    breadth-first order, each mapped to the first such string.

    Input epsilons are removed as ``determinize`` removes them: a move pairs
    two arcs on one non-epsilon label that leave the epsilon closures of the
    pair's states, after their shortest closure paths.  A move carries the
    label, the weight pair, the output string pair and the target pair.
    """
    kind = m.kind
    eps_arcs = _epsilon_arcs(m)
    leaving = []  # per state: label -> [(weight, output string, target)]
    for q in m.states():
        row = {}
        closure = _close_epsilon(kind, eps_arcs, {(q, ()): kind.one},
                                 DEFAULT_EXPANSION_CAP)
        for (p, s), r in closure.items():
            for il, ol, w, t in m.arcs(p):
                if il != EPSILON:
                    o = s if ol == EPSILON else s + (ol,)
                    row.setdefault(il, []).append((kind.times(r, w), o, t))
        leaving.append(row)
    start = (m.start, m.start)
    reach, arcs = {start: ()}, {}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        other = leaving[pair[1]]
        arcs[pair] = [(label, w1, w2, o1, o2, (t1, t2))
                      for label, row in leaving[pair[0]].items()
                      for w1, o1, t1 in row
                      for w2, o2, t2 in other.get(label, ())]
        for move in arcs[pair]:
            if move[-1] not in reach:
                reach[move[-1]] = reach[pair] + (move[0],)
                queue.append(move[-1])
    return reach, arcs


def _sccs(nodes, edges):
    """Kosaraju strongly connected components."""
    fwd = {n: [] for n in nodes}
    rev = {n: [] for n in nodes}
    for u in nodes:
        for v in edges[u]:
            fwd[u].append(v)
            rev[v].append(u)
    finish, seen = [], set()
    for root in nodes:
        if root in seen:
            continue
        stack = [(root, iter(fwd[root]))]
        seen.add(root)
        while stack:
            u, it = stack[-1]
            v = next(it, None)
            if v is None:
                finish.append(u)
                stack.pop()
            elif v not in seen:
                seen.add(v)
                stack.append((v, iter(fwd[v])))
    comp = {}
    for root in reversed(finish):
        if root in comp:
            continue
        stack = [root]
        comp[root] = root
        while stack:
            u = stack.pop()
            for v in rev[u]:
                if v not in comp:
                    comp[v] = root
                    stack.append(v)
    return comp


def _append_residue(res, o1, o2):
    """Track the pair of cycle outputs reduced by their common prefix."""
    r1, r2 = res[0] + o1, res[1] + o2
    k = len(_lcp([r1, r2])) if r1 and r2 else 0
    return (r1[k:], r2[k:])


def twins_test(m: Machine) -> TwinReport:
    """Cycle-consistency check over co-reachable state pairs.

    The twin property holds iff within every strongly connected component
    of the square machine, weight differentials (and output residues, for
    transducers) admit a consistent potential labeling; an inconsistent
    edge exhibits a common input cycle with unequal weight or output.
    """
    check_machines(m)
    if m.kind not in (Semiring.TROPICAL, Semiring.BOOLEAN):
        raise ContractError("twins_test expects a TROPICAL or BOOLEAN machine")
    try:
        reach, sq_arcs = _square_machine(m)  # access strings for witnesses
    except CapExceededError as err:  # an input-epsilon cycle with output
        return TwinReport(False, (None, None, str(err)))
    nodes = list(reach)
    edges = {n: [a[-1] for a in sq_arcs[n]] for n in nodes}
    comp = _sccs(nodes, edges)

    for root in set(comp.values()):
        members = [n for n in nodes if comp[n] == root]
        internal = {u: [a for a in sq_arcs[u] if comp[a[-1]] == root]
                    for u in members}
        if not any(internal.values()):
            continue  # trivial component, no cycles
        pot = {members[0]: (0.0, ((), ()))}
        queue = deque([members[0]])
        while queue:
            u = queue.popleft()
            dw, res = pot[u]
            for _, w1, w2, o1, o2, v in internal[u]:
                ndw = dw + (w1 - w2)
                nres = _append_residue(res, o1, o2)
                if max(len(nres[0]), len(nres[1])) > _RESIDUAL_STRING_CAP:
                    return TwinReport(False, (v, reach[v],
                                              "diverging cycle outputs"))
                if v not in pot:
                    pot[v] = (ndw, nres)
                    queue.append(v)
                elif pot[v] != (ndw, nres):
                    detail = (f"weight differential {pot[v][0]} vs {ndw}"
                              if pot[v][0] != ndw else
                              f"output residue {pot[v][1]} vs {nres}")
                    return TwinReport(False, (v, reach[v], detail))
    return TwinReport(True)


# -- local determinization ----------------------------------------------


def local_determinize(m: Machine, k: int) -> Machine:
    """Merge same-(ilabel, olabel) arcs, but only at states with more than
    ``k`` outgoing arcs; equivalent machine, bounded work per state.

    As in ``determinize``, a product equal to the semiring zero, no path,
    is dropped, and the leftover weights of merged targets can
    change without end on a cyclic machine without the twin property;
    more than ``DEFAULT_EXPANSION_CAP`` states beyond the input's own
    raises ``CapExceededError``.
    """
    check_machines(m)
    if k < 1:
        raise ContractError("k must be >= 1")
    _require_divisible(m.kind)
    kind = m.kind
    plus, times, valid = kind.plus, kind.times, kind.valid

    def product(r, w):
        w = times(r, w)
        if not valid(w):
            raise kind.carrier_error(w)
        return w

    ids, arcs, finals = {}, [], {}
    # at most one unmerged subset ((t, (), one),) per input state; only
    # the merged ones can grow without end
    cap = m.num_states + DEFAULT_EXPANSION_CAP

    def state_id(subset):
        if subset not in ids:
            if len(ids) >= cap:
                raise CapExceededError(
                    f"local determinization exceeded {cap} states; the "
                    "input likely lacks the twin property (try twins_test)")
            ids[subset] = len(arcs)
            arcs.append([])
            queue.append(subset)
        return ids[subset]

    queue = deque()
    state_id(((m.start, (), kind.one),))
    while queue:
        subset = queue.popleft()
        q = ids[subset]
        moves = []
        final = kind.zero
        for state, _, r in subset:
            final = plus(final, product(r, m.final(state)))
            for il, ol, w, t in m.arcs(state):
                w = product(r, w)
                if w != kind.zero:
                    moves.append((il, ol, w, t))
        if final != kind.zero:
            finals[q] = final
        if len(moves) <= k:
            arcs[q] += [(il, ol, w, state_id(((t, (), kind.one),)))
                        for il, ol, w, t in moves]
            continue
        # (ilabel, olabel) -> a subset over the targets, as determinize's
        groups = {}
        for il, ol, w, t in moves:
            group = groups.setdefault((il, ol), {})
            group[t, ()] = plus(group[t, ()], w) if (t, ()) in group else w
        for (il, ol), group in sorted(groups.items()):
            total, _, target = _normalize(kind, group, True)
            arcs[q].append((il, ol, total, state_id(target)))
    return Machine._from_parts(kind, m.isymbols, m.osymbols, arcs, finals, 0,
                               m.start_weight)


# -- pushing ------------------------------------------------------------


def _string_potentials(m):
    """Per-state longest common prefix of all output strings to a final;
    raises on a dead state, as ``_weight_potentials`` does."""
    p = dict.fromkeys(m.states())  # None: no final reached yet
    changed = True
    while changed:
        changed = False
        for q in m.states():
            candidates = [()] if q in m.finals else []
            for _, ol, _, t in m.arcs(q):
                nxt = p[t]
                if nxt is None:
                    continue
                o = (ol,) if ol != EPSILON else ()
                candidates.append(o + nxt)
            if not candidates:
                continue
            new = _lcp(candidates)
            if new != p[q]:
                p[q] = new
                changed = True
    dead = [q for q, v in p.items() if v is None]
    if dead:
        raise ContractError(
            f"state(s) {dead} cannot reach a final state; connect() first")
    return p


def _residue(p, q, arc):
    """Output string left on ``arc`` once potentials ``p`` are hoisted."""
    _, ol, _, t = arc
    full = ((ol,) if ol != EPSILON else ()) + p[t]
    return full[len(p[q]):]


def _weight_potentials(m):
    """Weight-push potentials of TROPICAL ``m`` (its backward distances) and
    its pushed start and final weights; raises on a dead state or overflow."""
    kind = m.kind
    d = _backward(m)
    dead = [q for q in m.states() if d[q] == kind.zero]
    if dead:
        raise ContractError(
            f"state(s) {dead} cannot reach a final state; connect() first")
    start_weight = m.start_weight + d[m.start]
    finals = {q: w - d[q] for q, w in m.finals.items()}
    for w in (start_weight, *finals.values()):
        if not kind.valid(w):
            raise kind.carrier_error(w)
    return d, start_weight, finals


def push(m: Machine, mode: str) -> Machine:
    """Move weights or output strings toward the start state.

    weights-mode (TROPICAL): reweight by shortest-distance potentials so
    the best completion from every state costs zero; each reweighted weight
    is range-checked.  A machine whose potentials are all zero is already
    pushed and is returned as it is.  strings-mode (functional
    transducer): hoist each state's common output prefix; weights are
    copied as they are.
    """
    check_machines(m)
    kind = m.kind
    one = kind.one
    if mode == "weights":
        if kind is not Semiring.TROPICAL:
            raise SemiringError("weight pushing requires the TROPICAL semiring")
        d, start_weight, finals = _weight_potentials(m)
        if not any(d.values()):
            return m
        arcs = [[(il, ol, w + d[t] - d[q], t) for il, ol, w, t in m.arcs(q)]
                for q in m.states()]
        for w in (arc[2] for row in arcs for arc in row):
            if not kind.valid(w):  # each reweighted weight, in arc order
                raise kind.carrier_error(w)
        out = Machine._from_parts(kind, m.isymbols, m.osymbols, arcs, finals,
                                  m.start, start_weight)
        out._inherit_shape(m)
        return out
    if mode == "strings":
        p = _string_potentials(m)
        arcs = [[] for _ in m.states()]
        for q, arc in m.all_arcs():
            il, _, w, t = arc
            _emit_string(arcs, q, il, _residue(p, q, arc), w, t, one)
        start = m.start
        if p[m.start]:
            # emit the hoisted start prefix before entering the old start
            start = len(arcs)
            arcs.append([])
            _emit_string(arcs, start, EPSILON, p[m.start], one, m.start, one)
        return Machine._from_parts(kind, m.isymbols, m.osymbols, arcs,
                                   dict(m.finals), start, m.start_weight)
    raise ContractError(f"mode must be 'weights' or 'strings', got {mode!r}")


# -- minimization -------------------------------------------------------


def _encoded_dfa(m, order=None):
    """Deterministic machine as (label -> target) rows over opaque labels.

    Labels are (ilabel, output-residue, pushed-weight) triples: a TROPICAL
    weight is pushed as it is encoded, by the potentials ``push`` would
    use, and a transducer's output by its string potentials.  A non-final
    state's input-epsilon arc with no residue into an arcless final is
    encoded as its final weight, and a non-final state whose one arc is an
    identity move (such an arc, weighted one) is routed through to its
    target and left out, with the start too.  Returns the rows, the pushed
    finals, the hoisted start prefix, the start, the pushed start weight
    and None.  Given the topological ``order`` of acyclic ``m``, states are
    encoded backwards along it, targets first, each given its Revuz (1992)
    class as its row is made: equal signatures, final weight and (label,
    target class) moves, are exactly the states Hopcroft merges.  Rows,
    finals and start are then the classes', and the last item maps each
    state to its class (a routed state to its target's)."""
    kind = m.kind
    zero, times, lowest = kind.zero, kind.times, -INF
    d, start_weight, pushed = (
        _weight_potentials(m) if kind is Semiring.TROPICAL
        else (None, m.start_weight, m.finals))
    p = None if m.is_acceptor() else _string_potentials(m)
    prefix = p[m.start] if p else ()
    identity = (EPSILON, (), kind.one)
    arcs_of = m.arcs
    rows, finals, hop, signatures = {}, {}, {}, {}
    index = None if order is None else {}
    resolve = hop if index is None else index  # target -> class, or hop
    for q in m.states() if order is None else reversed(order):
        row, final = {}, pushed.get(q, zero)
        dq = d[q] if d is not None else None
        for arc in arcs_of(q):
            il, _, w, t = arc
            if d is not None:  # TROPICAL: pushed as it is encoded
                w = w + d[t] - dq
                if not lowest < w:  # the TROPICAL carrier test, inline
                    raise kind.carrier_error(w)
            if w != zero:  # an arc weighted zero is no path
                label = il, () if p is None else _residue(p, q, arc), w
                if il != EPSILON or label[1] or arcs_of(t) or q in pushed:
                    row[label] = resolve.get(t, t)
                else:  # an empty flush into an arcless final: a final weight
                    final = times(w, pushed[t])
        if len(row) == 1 and identity in row and q not in pushed:
            resolve[q] = row[identity]
        elif index is None:
            rows[q], finals[q] = row, final
        else:
            c = index[q] = signatures.setdefault(
                (final, frozenset(row.items())), len(signatures))
            if c == len(rows):
                rows[c], finals[c] = row, final
    for q, t in hop.items():
        while t in hop:  # connected input: no cycle of identity moves
            t = hop[t]
        hop[q] = t
    if hop:
        rows = {q: {label: hop.get(t, t) for label, t in row.items()}
                for q, row in rows.items()}
    return rows, finals, prefix, resolve.get(m.start, m.start), start_weight, index


def _hopcroft(states, enc, finals):
    """Partition refinement; returns state -> class id.

    A splitter (block, label) is queued only when an arc with that label
    enters the block.  Blocks only shrink, so any other splitter would still
    have an empty preimage when popped and split nothing: skipping it keeps
    the effective splits and their order."""
    by_final = {}
    for q in states:
        by_final.setdefault(finals[q], set()).add(q)
    partition = [set(block) for block in by_final.values()]
    inverse = {}
    in_labels = {q: set() for q in states}
    for q in states:
        for label, t in enc[q].items():
            inverse.setdefault(label, {}).setdefault(t, set()).add(q)
            in_labels[t].add(label)
    index = {}
    for i, block in enumerate(partition):
        for q in block:
            index[q] = i

    def splitters(i):
        entering = set().union(*(in_labels[q] for q in partition[i]))
        return [(i, label) for label in sorted(entering)]

    work = deque(s for i in range(len(partition)) for s in splitters(i))
    while work:
        i, label = work.popleft()
        pre = set()
        inv = inverse[label]
        # the preimage from the smaller side: the block, or the label's map
        if len(partition[i]) <= len(inv):
            for q in partition[i]:
                sources = inv.get(q)
                if sources:
                    pre |= sources
        else:
            for t, sources in inv.items():
                if index[t] == i:
                    pre |= sources
        if not pre:
            continue
        touched = {}
        for q in pre:
            touched.setdefault(index[q], set()).add(q)
        for j, hit in touched.items():
            block = partition[j]
            if len(hit) == len(block):
                continue
            # split in place, at the cost of the hit part: block keeps the rest
            block -= hit
            smaller = hit
            if len(hit) > len(block):
                partition[j], smaller = hit, block
            partition.append(smaller)
            nj = len(partition) - 1
            for q in smaller:
                index[q] = nj
            work.extend(splitters(nj))
    return index


def _all_live(m):
    """True iff ``m`` is a TROPICAL acceptor each state of which reaches a
    final at a finite cost, by its shared backward distances.  Minimizing
    it needs no trim then: the breadth-first numbering never visits an
    unreachable state, and one changes no reachable state's class or
    pushed weight.  A transducer is trimmed still, since an unreachable
    state's output strings could fail string pushing."""
    if m.kind is not Semiring.TROPICAL or not m.is_acceptor():
        return False
    try:
        d = _backward(m)
    except ContractError:  # a negative cycle, which trimming may cut off
        return False
    return INF not in d.values() and -INF not in d.values()


def minimize(m: Machine) -> Machine:
    """Equivalent deterministic machine with the minimum number of states.

    Takes any input where no input label, epsilon included, repeats at a
    state, as in every functional ``determinize`` output; the result is
    canonical only for functional input.  Acyclic input (every lattice) is
    classed as it is pushed and encoded, in one O(V+E) walk back along its
    topological order (Revuz 1992); cyclic input takes Hopcroft's partition
    refinement.  Either way the output is numbered breadth-first from the
    start (0), walking each class's arcs in (input label, output residue,
    weight) order; output-chain states are numbered as they are emitted,
    and a hoisted start prefix's chain comes last.  The input is trimmed
    first unless it has a final and ``_all_live`` shows it needs no trim.
    An acceptor's ``determinize`` output is not scanned: it records its
    determinism."""
    check_machines(m)
    if not m.is_deterministic():
        raise ContractError("minimize requires a deterministic machine "
                            "(determinize first)")
    _require_divisible(m.kind)
    if not m.finals or not _all_live(m):
        m = connect(m)
    if not m.finals:
        return m
    kind = m.kind
    order = m.topological_order()
    rows, finals, prefix, start, start_weight, index = _encoded_dfa(m, order)
    if index is None:  # Hopcroft's classes, each read off one of its states
        index = _hopcroft(list(rows), rows, finals)
        reps = {index[q]: q for q in rows}
        rows = {c: {label: index[t] for label, t in rows[q].items()}
                for c, q in reps.items()}
        finals = {c: finals[q] for c, q in reps.items()}
        start = index[start]
    ids = {start: 0}
    arcs = [[]]
    out_finals = {}
    queue = deque([start])
    acceptor = m.is_acceptor()
    zero, one = kind.zero, kind.one
    popleft, enqueue, new_state = queue.popleft, queue.append, arcs.append
    while queue:
        c = popleft()
        q = ids[c]
        row = arcs[q]
        for (il, residue, w), tc in sorted(rows[c].items()):
            t = ids.get(tc)
            if t is None:
                t = ids[tc] = len(arcs)
                new_state([])
                enqueue(tc)
            if acceptor:  # the residue is empty: the output repeats the input
                row.append((il, il, w, t))
            else:
                _emit_string(arcs, q, il, residue, w, t, one)
        if finals[c] != zero:
            out_finals[q] = finals[c]
    start = 0
    if prefix:
        start = len(arcs)
        arcs.append([])
        _emit_string(arcs, start, EPSILON, prefix, kind.one, 0, kind.one)
    out = Machine._from_parts(kind, m.isymbols, m.osymbols, arcs, out_finals,
                              start, start_weight)
    if order is not None and len(arcs) == len(ids):
        # each state is a Revuz class, made after its arcs' targets'; and a
        # pushed fl(w + d[t]) - d[q] is >= 0, and 0 on the arc or final that
        # set d[q], so the output's potentials are all zero
        derived = out._derived
        derived["topological_order"] = [ids[c] for c in sorted(ids)][::-1]
        if kind is Semiring.TROPICAL:
            derived["backward_distances"] = dict.fromkeys(out.states(), 0.0)
    return out


# -- compaction ---------------------------------------------------------


def compact(m: Machine) -> Machine:
    """The same weighted relation on no more states: ``connect(m)``
    determinized and minimized as an acceptor whose labels are its arcs'
    ``(ilabel, olabel, weight)`` triples.

    ``(epsilon, epsilon, one)`` stays epsilon, and a final weight other
    than one becomes an arc into one new final state, so every encoded
    weight is one and minimization pushes nothing; such arcs into an
    arcless final are folded back into final weights at the end.  Weights
    are copied, never computed: every path keeps its exact float sum.
    Merging paths that spell one triple string is exact only under an
    idempotent sum, so REAL raises ``SemiringError``.  Past a cap of the
    encoded states reachable on determinization, or if the result has
    more states, ``connect(m)`` is returned: ``m`` itself when ``connect``
    passes it through.
    """
    check_machines(m)
    _require_divisible(m.kind)
    m = connect(m)
    kind = m.kind
    one = kind.one
    identity = (EPSILON, EPSILON, one)
    triples = sorted(({arc[:3] for _, arc in m.all_arcs()}
                      | {(EPSILON, EPSILON, w) for w in m.finals.values()})
                     - {identity})
    code = {label: c for c, label in enumerate(triples, 1)}
    code[identity] = EPSILON
    arcs = []
    for q in m.states():
        row = []
        for il, ol, w, t in m.arcs(q):
            c = code[il, ol, w]
            row.append((c, c, one, t))
        arcs.append(row)
    tail = len(arcs)  # the one new final state
    arcs.append([])
    finals = {tail: one}
    for q, w in m.finals.items():
        if w == one:
            finals[q] = one
        else:
            c = code[EPSILON, EPSILON, w]
            arcs[q].append((c, c, one, tail))
    weighted = any(w != one for w in m.finals.values())
    encoded = Machine._from_parts(kind, None, None, arcs, finals, m.start)
    try:  # capped at the states that the encoded input reaches
        dfa = minimize(determinize(encoded, m.num_states + weighted))
    except CapExceededError:
        return m
    labels = [identity, *triples]
    out = [[(*labels[c], t) for c, _, _, t in dfa.arcs(q)]
           for q in dfa.states()]
    finals = dict(dfa.finals)
    for q, row in enumerate(out if weighted else ()):
        for arc in row:  # an epsilon move into an arcless final: a weight
            if arc[0] == arc[1] == EPSILON and not dfa.arcs(arc[3]) \
                    and q not in finals:
                finals[q] = arc[2]
                row.remove(arc)
                break
    out = Machine._from_parts(kind, m.isymbols, m.osymbols, out, finals,
                              dfa.start, m.start_weight)
    if weighted:  # drop the new final state if no arc is left into it
        out = connect(out)
    return out if out.num_states <= m.num_states else m


# -- equivalence --------------------------------------------------------


def equivalent(a: Machine, b: Machine) -> bool:
    """True iff the machines assign the same weight to every string."""
    ma = minimize(determinize(a))
    mb = minimize(determinize(b))
    return (ma.start_weight, ma.start, tuple(ma.all_arcs()), ma.finals) == \
        (mb.start_weight, mb.start, tuple(mb.all_arcs()), mb.finals)
