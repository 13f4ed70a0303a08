"""Rational operations: composition, intersection, union, concatenation,
closure, reversal, projection, complement and difference.

Composition synchronizes epsilon moves through the standard three-state
filter so that each compatible pair of paths is counted exactly once:

* filter 0: after a match (or at the start) -- anything may move
* filter 1: inside a run of A-only epsilon moves
* filter 2: inside a run of B-only epsilon moves

A real epsilon-output arc of A may pair with a real epsilon-input arc of B
("both move") only at filter 0; once one side moves alone, the other side
may not move alone until the next match.  So filter 1 blocks only moves of
B's epsilon-input arcs and filter 2 only moves of A's epsilon-output arcs,
and the target of a lone move keeps that filter only where it blocks
something: an A-alone target whose B state reads no epsilon, and a B-alone
target whose A state writes none, take filter 0, which allows the same
moves there (the filter state is normalized, as in Allauzen, Riley &
Schalkwyk 2009).  Output contract: this maps each pair state of the
construction that keeps every filter state onto one pair state with the
same future, so ``compose`` returns the same weighted relation with no
more states than that construction, often fewer.  Which pairs merge reads
A's arcs as they are, so an untrimmed A (a lazy view in a cascade) whose
epsilon-output arc leads only to a pair that cannot finish keeps that
B-alone target at filter 2, where the trimmed A merges it: the relation is
the same, the trimmed operand gives no more states.

The label lookahead in ``LazyComposition`` is symmetric.  It reads A
through its output-epsilon moves and B through its input-epsilon moves,
except at the target of a lone move, where the side that stayed put can
only match next.  At a B-alone target A can only match (at filter 2) or
writes no epsilon (at filter 0), so only A's own output labels count; at
an A-alone target B can only match (at filter 1) or reads no epsilon (at
filter 0), so only B's own input labels count.
"""

from __future__ import annotations

from .errors import ContractError, SemiringError, SymbolError
from .machine import EPSILON, Machine, check_machines, check_views, connect
from .semiring import Semiring, require_same_kind

FILTER_INITIAL = 0
_A_ALONE = 1
_B_ALONE = 2
_END = "end"  # member of a lookahead label set: the machine can stop there


def label_index(m, table, state):
    """``m``'s arcs leaving ``state`` grouped by input label.

    The index maps ``ilabel -> tuple of arcs`` in arc order, with the
    epsilon-input arcs under ``EPSILON``.  It is built on first use and
    kept in ``table`` (see ``label_indexes``), so a composition indexes each
    state of its right operand once rather than on every pair-state visit.
    """
    index = table.get(state)
    if index is None:
        groups = {}
        for arc in m.arcs(state):
            groups.setdefault(arc[0], []).append(arc)
        index = {label: tuple(group) for label, group in groups.items()}
        table[state] = index
    return index


def label_indexes(m, name="label_indexes"):
    """The ``state -> label_index`` table (``name="lookahead_sets"``:
    ``state -> read_set``) a composition reads ``m`` through.

    A composition keeps what it reads from its operands for its own
    lifetime; a cache bounds only its own arcs.  A ``Machine`` keeps both
    tables, shared by every composition that reads it, since its arcs
    never change; a view (a cache, a lazy composition) gets a fresh table
    private to the composition that asks.
    """
    return m._memo(name, dict) if isinstance(m, Machine) else {}


def read_set(b, index_table, table, state):
    """The input labels ``b`` reads from ``state`` after input-epsilon moves,
    plus ``_END`` if they reach a final state; kept in ``table``, which also
    maps each distinct set to itself, so that equal sets are one object."""
    labels = table.get(state)
    if labels is not None:
        return labels
    labels, stack, seen = set(), [state], {state}
    while stack:
        q = stack.pop()
        index = label_index(b, index_table, q)
        labels.update(index)
        if b.final(q) != b.kind.zero:
            labels.add(_END)
        for _, _, _, t in index.get(EPSILON, ()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    labels = frozenset(labels - {EPSILON})
    table[state] = labels = table.setdefault(labels, labels)
    return labels


def merge_arcs(kind, arcs_a, index_b, f, filtered=True):
    """Composite moves from a pair state with filter state ``f``, unpruned.

    The reference move generator: ``LazyComposition.arcs`` makes the same
    moves in the same order, less those the label lookahead rules out.
    ``index_b`` is the B state's ``label_index``.  Moves come out in A's
    arc order, each A arc's matches in B's arc order, then the B-alone
    epsilon moves.  Weights are multiplied with the unchecked
    ``kind.times``: both were validated when their arcs were added.

    Yields (ilabel, olabel, weight, (next_a, next_b, next_f)) tuples, where
    ``next_a``/``next_b`` of ``None`` mean "that side stays put", and
    ``next_f`` is normalized as the module docstring describes: an A-alone
    move takes filter 0 when ``index_b`` has no epsilon, a B-alone move
    when ``arcs_a`` write no epsilon.
    """
    times = kind.times
    matches = index_b.get
    eps_b = matches(EPSILON, ())
    a_alone = _A_ALONE if eps_b else FILTER_INITIAL
    b_alone = FILTER_INITIAL  # until A shows an output-epsilon arc
    for il, ol, wa, n1 in arcs_a:
        if ol != EPSILON:
            for _, ol_b, wb, n2 in matches(ol, ()):
                yield il, ol_b, times(wa, wb), (n1, n2, FILTER_INITIAL)
        else:
            b_alone = _B_ALONE
            if not filtered or f == FILTER_INITIAL:
                for _, ol_b, wb, n2 in eps_b:
                    yield il, ol_b, times(wa, wb), (n1, n2, FILTER_INITIAL)
            if not filtered or f in (FILTER_INITIAL, _A_ALONE):
                yield il, EPSILON, wa, (n1, None, a_alone)
    for _, ol_b, wb, n2 in eps_b:
        if not filtered or f in (FILTER_INITIAL, _B_ALONE):
            yield EPSILON, ol_b, wb, (None, n2, b_alone)


class LazyComposition:
    """Deferred composition of two generalized state machines.

    The one pair-state kernel: ``compose`` expands it state by state, and
    lazy cascades read it on demand.  Pair states (s1, s2, filter) receive
    stable integer ids, in the order moves first reach them, for the
    lifetime of the view; the start pair is state 0.  The filter state is
    part of the state identity wherever it blocks a move (see the module
    docstring); dropping it there is a known correctness bug.

    The operands' weights are in the carrier already, so products are
    taken with the unchecked ``kind.times``; each product (arc, final and
    start weight) is range-checked once (``kind.valid``), which turns an
    overflow into ``SemiringError``.

    Label lookahead: a target pair (s1, s2, f) cannot reach a final pair
    unless some label A writes after output-epsilon moves from ``s1`` is
    in ``read_set(b, ..., s2)``, ``_END`` (both sides can stop) included.
    The rule is symmetric at the targets of lone moves.  At a B-alone
    target A may not move alone until the next match, so only the labels
    on ``s1``'s own arcs count; at an A-alone target B may not, so only
    the labels of ``s2``'s own arcs count (the keys of its
    ``label_index``, and ``_END`` if ``s2`` is final).  Each move is
    tested before its product is formed, and a move to a dead pair is
    dropped, so the pair never receives an id.  Moves, and the
    pair ids of the moves kept, come in ``merge_arcs`` order.  The view
    keeps what it reads from its operands for its own lifetime, B's
    tables through ``label_indexes``; a cache operand bounds only its arcs.
    """

    start = 0

    def __init__(self, a, b):
        (self.isymbols, a_out), (b_in, self.osymbols) = check_views(a, b)
        self.a, self.b = a, b
        self.kind = require_same_kind(a, b)
        if not _same_table(a_out, b_in):
            raise SymbolError("output symbols of A do not match input "
                              "symbols of B")
        self.start_weight = self.kind.times(a.start_weight, b.start_weight)
        if not self.kind.valid(self.start_weight):
            raise self.kind.carrier_error(self.start_weight)
        start = (a.start, b.start, FILTER_INITIAL)
        self._ids = {start: 0}
        self._pairs = [start]
        self._index_b = label_indexes(b)
        self._reads = label_indexes(b, "lookahead_sets")
        self._emits = {}  # s1 -> (arcs, after, direct, writes_eps)
        self._crossed = {}  # state of A -> its arcs, read by a walk only

    def final(self, state):
        s1, s2, _ = self._pairs[state]
        wa = self.a.final(s1)
        if wa == self.kind.zero:  # zero (x) anything in the carrier
            return wa
        w = self.kind.times(wa, self.b.final(s2))
        if not self.kind.valid(w):
            raise self.kind.carrier_error(w)
        return w

    def arcs(self, state):
        s1, s2, f = self._pairs[state]
        b, index_b, reads = self.b, self._index_b, self._reads
        index = index_b.get(s2) or label_index(b, index_b, s2)
        eps_b = index.get(EPSILON, ())
        kind, ids, pairs = self.kind, self._ids, self._pairs
        times, valid = kind.times, kind.valid
        memo, emits_of, reads_of = self._emits.get, self._emits_of, reads.get
        arcs_a, _, direct, writes_eps = memo(s1) or emits_of(s1)
        both = f == FILTER_INITIAL
        a_alone = _A_ALONE if eps_b else FILTER_INITIAL
        result = []
        for il, ol, wa, n1 in arcs_a:
            if ol != EPSILON:
                group, alone = index.get(ol, ()), False
            else:
                group, alone = eps_b if both else (), f != _B_ALONE
            if not (group or alone):
                continue
            after = (memo(n1) or emits_of(n1))[1]
            for _, ol_b, wb, n2 in group:
                if after.isdisjoint(reads_of(n2)
                                    or read_set(b, index_b, reads, n2)):
                    continue
                w = times(wa, wb)
                if not valid(w):
                    raise kind.carrier_error(w)
                target = (n1, n2, FILTER_INITIAL)
                t = ids.setdefault(target, len(pairs))
                if t == len(pairs):
                    pairs.append(target)
                result.append((il, ol_b, w, t))
            # B stays at s2 and may only match from the target, so only its
            # own labels count (they are read_set(s2) when s2 has no
            # epsilon arc); the keys view walks the smaller side
            if alone and (not index.keys().isdisjoint(after) or (
                    _END in after and b.final(s2) != kind.zero)):
                target = (n1, s2, a_alone)
                t = ids.setdefault(target, len(pairs))
                if t == len(pairs):
                    pairs.append(target)
                result.append((il, EPSILON, wa, t))
        if eps_b and direct and f != _A_ALONE:
            # A stays at s1 and may only match from the target, so only
            # its own labels count; an empty ``direct`` drops every move
            b_alone = _B_ALONE if writes_eps else FILTER_INITIAL
            for _, ol_b, wb, n2 in eps_b:
                if not direct.isdisjoint(reads_of(n2)
                                         or read_set(b, index_b, reads, n2)):
                    target = (s1, n2, b_alone)
                    t = ids.setdefault(target, len(pairs))
                    if t == len(pairs):
                        pairs.append(target)
                    result.append((EPSILON, ol_b, wb, t))
        return tuple(result)

    def _emits_of(self, s1):
        """``(arcs, after, direct, writes_eps)`` for A's state ``s1``, kept
        for the life of the view: ``arcs`` are ``s1``'s arcs, ``direct``
        the non-epsilon output labels on them, ``after`` every non-epsilon
        output label A can write after output-epsilon moves from ``s1``,
        and ``writes_eps`` whether an arc of ``s1`` writes epsilon; each
        set holds ``_END`` if ``s1``, or for ``after`` a state those moves
        reach, is final.  The walk keeps the arcs of each state it
        crosses until that state's own entry takes them, so the view reads
        each state of A once."""
        a, zero, memo = self.a, self.kind.zero, self._emits
        crossed = self._crossed
        arcs = crossed.pop(s1) if s1 in crossed else tuple(a.arcs(s1))
        direct, stack, writes_eps = set(), [], False
        for _, ol, _, t in arcs:
            if ol != EPSILON:
                direct.add(ol)
            else:
                writes_eps = True
                if t != s1:
                    stack.append(t)
        if a.final(s1) != zero:
            direct.add(_END)
        after = set(direct)
        seen = {s1, *stack}
        while stack:
            q = stack.pop()
            known = memo.get(q)
            if known is not None:
                after |= known[1]  # q's walk is done: no need to repeat it
                continue
            if a.final(q) != zero:
                after.add(_END)
            if q not in crossed:
                crossed[q] = tuple(a.arcs(q))
            for _, ol, _, t in crossed[q]:
                if ol != EPSILON:
                    after.add(ol)
                elif t not in seen:
                    seen.add(t)
                    stack.append(t)
        memo[s1] = emits = (arcs, after, direct, writes_eps)
        return emits


def lazy_compose(a, b) -> LazyComposition:
    return LazyComposition(a, b)


def compose(a: Machine, b: Machine) -> Machine:
    """Static composition: (u, w) -> sum_v A(u, v) (x) B(v, w), trimmed.

    ``connect`` of ``_compose_untrimmed(a, b)``.
    """
    return connect(_compose_untrimmed(a, b))


def _compose_untrimmed(a, b) -> Machine:
    """Every pair state of ``LazyComposition(a, b)``, expanded in id order,
    which is breadth-first order from the start pair, state 0.  Each state
    is accessible; those that cannot finish (the lookahead drops most) are
    kept, and so are arcs of zero weight."""
    view = LazyComposition(a, b)
    final, arcs_of, pairs = view.final, view.arcs, view._pairs
    zero = view.kind.zero
    arcs, finals, q = [], {}, 0
    while q < len(pairs):
        fw = final(q)
        if fw != zero:
            finals[q] = fw
        arcs.append(arcs_of(q))
        q += 1
    return Machine._from_parts(view.kind, view.isymbols, view.osymbols, arcs,
                               finals, 0, view.start_weight)


def intersect(a: Machine, b: Machine) -> Machine:
    """Acceptor intersection: weight(w) = A(w) (x) B(w)."""
    check_machines(a, b)
    if not a.is_acceptor() or not b.is_acceptor():
        raise ContractError("intersect requires acceptors")
    return compose(a, b)


def _shifted(m: Machine, offset: int) -> list[list[tuple]]:
    """``m``'s arcs, one new list per state, each target moved up by
    ``offset``: ``m`` copied behind ``offset`` other states."""
    return [[(il, ol, w, t + offset) for il, ol, w, t in m.arcs(q)]
            for q in m.states()]


def _same_table(x, y):
    return x is None or y is None or x is y or x._by_id == y._by_id


def _tables(*machines):
    """The input and the output symbol table ``machines`` share, each the
    first that is not None; two tables of one side that differ raise."""
    shared = []
    for side in ("isymbols", "osymbols"):
        tables = [getattr(m, side) for m in machines
                  if getattr(m, side) is not None]
        if not all(_same_table(tables[0], table) for table in tables[1:]):
            raise SymbolError(f"the operands' {side} tables differ")
        shared.append(tables[0] if tables else None)
    return shared


def union(a: Machine, b: Machine) -> Machine:
    """weight(x) = A(x) (+) B(x), via a fresh super-start."""
    check_machines(a, b)
    kind = require_same_kind(a, b)
    arcs, finals = [[]], {}
    for src in (a, b):
        offset = len(arcs)
        arcs[0].append((EPSILON, EPSILON, src.start_weight, src.start + offset))
        arcs += _shifted(src, offset)
        finals.update((q + offset, w) for q, w in src.finals.items())
    return Machine._from_parts(kind, *_tables(a, b), arcs, finals)


def concat(a: Machine, b: Machine, *more: Machine) -> Machine:
    """weight(w) = (+) over splits w = uv of A(u) (x) B(v).

    Further machines are concatenated in the same single copy, numbered as
    pairwise concatenation from the left would number them."""
    check_machines(a, b, *more)
    parts = (a, b, *more)
    for part in parts[1:]:
        kind = require_same_kind(a, part)
    arcs, offsets = [], []
    for part in parts:
        offsets.append(len(arcs))
        arcs += _shifted(part, len(arcs))
    for part, nxt, pa, pb in zip(parts, parts[1:], offsets, offsets[1:]):
        for q, w in part.finals.items():
            w = kind.times(w, nxt.start_weight)
            if not kind.valid(w):
                raise kind.carrier_error(w)
            arcs[q + pa].append((EPSILON, EPSILON, w, nxt.start + pb))
    finals = {q + offsets[-1]: w for q, w in parts[-1].finals.items()}
    return Machine._from_parts(kind, *_tables(*parts), arcs, finals, a.start,
                               a.start_weight)


def closure(a: Machine) -> Machine:
    """Kleene star; epsilon accepted with weight one.

    REAL is rejected: the sum over unboundedly many repetitions need not
    converge.
    """
    check_machines(a)
    if a.kind is Semiring.REAL:
        raise SemiringError("closure is not supported over the REAL semiring")
    arcs = [[(EPSILON, EPSILON, a.start_weight, a.start + 1)], *_shifted(a, 1)]
    for q, w in a.finals.items():
        arcs[q + 1].append((EPSILON, EPSILON, w, 0))
    return Machine._from_parts(a.kind, a.isymbols, a.osymbols, arcs,
                               {0: a.kind.one})


def reverse(a: Machine) -> Machine:
    """weight(w) = A(reverse(w)); arcs flipped, start/finals swapped."""
    check_machines(a)
    arcs = [[(EPSILON, EPSILON, w, q + 1) for q, w in a.finals.items()]]
    arcs += [[] for _ in a.states()]
    for q, (il, ol, w, t) in a.all_arcs():
        arcs[t + 1].append((il, ol, w, q + 1))
    finals = {} if a.start_weight == a.kind.zero else \
        {a.start + 1: a.start_weight}
    return Machine._from_parts(a.kind, a.isymbols, a.osymbols, arcs, finals)


def project(a: Machine, side: str) -> Machine:
    """Acceptor over the chosen tape; path weights preserved."""
    check_machines(a)
    if side not in ("input", "output"):
        raise ContractError(f"side must be 'input' or 'output', got {side!r}")
    tape = 0 if side == "input" else 1  # the label's field in an arc
    table = (a.isymbols, a.osymbols)[tape]
    return _relabel(a, lambda arc: (arc[tape], arc[tape]), table, table)


def _relabel(m, labels, isymbols, osymbols):
    """Frozen copy of ``m`` whose arcs carry the label pairs
    ``labels(arc)``, read through the given symbol tables."""
    arcs = [[(*labels(arc), arc[2], arc[3]) for arc in m.arcs(q)]
            for q in m.states()]
    return Machine._from_parts(m.kind, isymbols, osymbols, arcs,
                               dict(m.finals), m.start, m.start_weight)


def _alphabet_of(*machines):
    labels = set()
    for m in machines:
        labels.update(m.input_labels())
        if m.isymbols is not None:
            labels.update(m.isymbols.labels())
    return sorted(labels)


def _complete_table(dfa, sigma):
    """(transitions, finals, start) of the deterministic acceptor ``dfa``
    with a total transition function over ``sigma``: a dead state is
    appended when some transition is missing.  An epsilon arc is refused:
    a table row has one target per label read."""
    trans = [{il: t for il, _, _, t in dfa.arcs(q)} for q in dfa.states()]
    if not dfa.is_acceptor() or not dfa.is_deterministic() or any(
            EPSILON in row for row in trans):
        raise ContractError("a complete table needs an epsilon-free DFA")
    if any(x not in row for row in trans for x in sigma):
        dead = len(trans)
        trans.append({})
        for row in trans:
            for x in sigma:
                row.setdefault(x, dead)
    return trans, set(dfa.finals), dfa.start


def complement(a: Machine, alphabet=None) -> Machine:
    """Boolean acceptor for Sigma* minus L(A).

    ``alphabet`` defaults to A's symbol table if attached, else the labels
    occurring in A.  A dead state is added only when a transition over
    Sigma is missing.
    """
    from .optimize import determinize

    check_machines(a)
    if a.kind is not Semiring.BOOLEAN or not a.is_acceptor():
        raise SemiringError("complement is defined for BOOLEAN acceptors only")
    sigma = _alphabet_of(a) if alphabet is None else sorted(set(alphabet))
    trans, finals, start = _complete_table(determinize(a), sigma)
    arcs = [[(x, x, 1.0, row[x]) for x in sigma] for row in trans]
    return Machine._from_parts(
        Semiring.BOOLEAN, a.isymbols, a.osymbols, arcs,
        {q: 1.0 for q in range(len(trans)) if q not in finals}, start)


def difference(a: Machine, b: Machine) -> Machine:
    """L(A) minus L(B) for boolean acceptors."""
    check_machines(a, b)
    if a.kind is not Semiring.BOOLEAN or b.kind is not Semiring.BOOLEAN:
        raise SemiringError("difference is defined for BOOLEAN acceptors only")
    return intersect(a, complement(b, alphabet=_alphabet_of(a, b)))
