"""Machine data model, text serialization, trimming, and the path oracle.

A ``Machine`` is a weighted finite-state acceptor or transducer: dense
integer states, one start state, a final-weight map, per-state arc lists,
and a semiring kind.  Machines are mutable while being built and frozen
before being shared; every algorithm in the toolkit consumes frozen
machines and returns frozen machines.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError, DivergenceError, ParseError, SymbolError
from .semiring import Semiring

EPSILON = 0
EPSILON_SYMBOL = "<eps>"

#: wildcard marker for weight_of's output argument
ANY = object()


class SymbolTable:
    """Bijective map between text symbols and non-negative label ids."""

    def __init__(self):
        self._by_symbol = {EPSILON_SYMBOL: EPSILON}
        self._by_id = {EPSILON: EPSILON_SYMBOL}

    def add(self, symbol: str, label: int | None = None) -> int:
        if symbol in self._by_symbol:
            existing = self._by_symbol[symbol]
            if label is not None and label != existing:
                raise SymbolError(f"symbol {symbol!r} already mapped to {existing}")
            return existing
        if label is None:
            label = max(self._by_id) + 1
        if label in self._by_id:
            raise SymbolError(f"id {label} already mapped to {self._by_id[label]!r}")
        self._by_symbol[symbol] = label
        self._by_id[label] = symbol
        return label

    def find(self, key):
        """Resolve a symbol to its id or an id to its symbol."""
        table = self._by_id if isinstance(key, int) else self._by_symbol
        try:
            return table[key]
        except KeyError:
            raise SymbolError(f"unknown symbol {key!r}") from None

    def __contains__(self, key):
        return key in (self._by_id if isinstance(key, int) else self._by_symbol)

    def __len__(self):
        return len(self._by_symbol)

    def labels(self):
        """All non-epsilon label ids, ascending."""
        return sorted(i for i in self._by_id if i != EPSILON)

    def items(self):
        return sorted(self._by_id.items())

    @classmethod
    def read(cls, text: str) -> "SymbolTable":
        table = cls()
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"expected 'symbol id', got {line!r}", lineno)
            try:
                table.add(parts[0], int(parts[1]))
            except (ValueError, SymbolError) as exc:
                raise ParseError(str(exc), lineno) from None
        if EPSILON_SYMBOL not in table or table.find(EPSILON_SYMBOL) != EPSILON:
            raise ParseError(f"symbol table must contain '{EPSILON_SYMBOL} 0'")
        return table

    def write(self) -> str:
        return "".join(f"{sym}\t{label}\n" for label, sym in self.items())


@dataclass(frozen=True)
class Arc:
    ilabel: int
    olabel: int
    weight: float
    nextstate: int


class Machine:
    """Weighted acceptor/transducer over one semiring."""

    def __init__(self, kind: Semiring, isymbols=None, osymbols=None):
        self.kind = kind
        self.isymbols = isymbols
        self.osymbols = osymbols
        self.start = 0
        self.start_weight = kind.one
        self.finals: dict[int, float] = {}
        self._arcs: list[list[Arc]] = []
        self._frozen = False
        # state -> ops.label_index once frozen, filled by the compositions
        # that read this machine as their right operand; None while mutable
        self.label_indexes = None

    # -- construction ---------------------------------------------------

    def add_state(self) -> int:
        self._check_mutable()
        self._arcs.append([])
        return len(self._arcs) - 1

    def add_states(self, n: int) -> None:
        for _ in range(n):
            self.add_state()

    def ensure_state(self, q: int) -> int:
        while q >= len(self._arcs):
            self.add_state()
        return q

    def add_arc(self, src, ilabel, olabel, weight, nextstate):
        self._check_mutable()
        self.kind.check(weight)
        self.ensure_state(max(src, nextstate))
        self._arcs[src].append(Arc(ilabel, olabel, float(weight), nextstate))

    def set_final(self, state, weight=None):
        self._check_mutable()
        if weight is None:
            weight = self.kind.one
        self.ensure_state(state)
        if weight == self.kind.zero:
            self.finals.pop(state, None)
        else:
            self.finals[state] = self.kind.check(weight)

    def set_start(self, state, weight=None):
        self._check_mutable()
        self.ensure_state(state)
        self.start = state
        if weight is not None:
            self.start_weight = self.kind.check(weight)

    def freeze(self):
        if not self._frozen:
            self.ensure_state(self.start)
            self._arcs = [tuple(arcs) for arcs in self._arcs]
            self._frozen = True
            self.label_indexes = {}
        return self

    def _check_mutable(self):
        if self._frozen:
            raise ContractError("machine is frozen")

    # -- generalized state machine interface ----------------------------

    def arcs(self, state: int):
        return self._arcs[state]

    def final(self, state: int) -> float:
        return self.finals.get(state, self.kind.zero)

    # -- inspection -----------------------------------------------------

    @property
    def num_states(self) -> int:
        return len(self._arcs)

    def states(self):
        return range(len(self._arcs))

    @property
    def num_arcs(self) -> int:
        return sum(len(a) for a in self._arcs)

    def all_arcs(self):
        for q in self.states():
            for arc in self._arcs[q]:
                yield q, arc

    def is_acceptor(self) -> bool:
        return all(a.ilabel == a.olabel for _, a in self.all_arcs())

    def is_acyclic(self) -> bool:
        color = [0] * self.num_states  # 0 white, 1 grey, 2 black
        stack = [(self.start, iter(self._arcs[self.start]))]
        color[self.start] = 1
        while stack:
            q, it = stack[-1]
            arc = next(it, None)
            if arc is None:
                color[q] = 2
                stack.pop()
                continue
            t = arc.nextstate
            if color[t] == 1:
                return False
            if color[t] == 0:
                color[t] = 1
                stack.append((t, iter(self._arcs[t])))
        return True

    def is_deterministic(self) -> bool:
        """True iff traversal never faces a choice: no shared ilabel within
        a state, and an input-epsilon arc only as a state's sole arc (the
        forced continuation of an output flush chain)."""
        for q in self.states():
            seen = set()
            for arc in self._arcs[q]:
                if arc.ilabel == EPSILON:
                    if len(self._arcs[q]) > 1:
                        return False
                    continue
                if arc.ilabel in seen:
                    return False
                seen.add(arc.ilabel)
        return True

    def input_labels(self):
        return sorted({a.ilabel for _, a in self.all_arcs()} - {EPSILON})

    def output_labels(self):
        return sorted({a.olabel for _, a in self.all_arcs()} - {EPSILON})

    def __repr__(self):
        return (f"<Machine {self.kind.value} states={self.num_states} "
                f"arcs={self.num_arcs} finals={len(self.finals)}>")


def observation_machine(labels, kind=Semiring.TROPICAL,
                        isymbols=None) -> Machine:
    """Linear-chain acceptor spelling one label string, such as an
    utterance to decode or a word to rewrite."""
    m = Machine(kind, isymbols, isymbols)
    prev = m.add_state()
    m.set_start(prev)
    for label in labels:
        nxt = m.add_state()
        m.add_arc(prev, label, label, kind.one, nxt)
        prev = nxt
    m.set_final(prev, kind.one)
    return m.freeze()


# -- text format --------------------------------------------------------
#
# arc line:   src dst isym osym [weight]     (transducer)
#             src dst sym [weight]           (acceptor)
# final line: state [weight]
# The source of the first line is the start state; '#' starts a comment.


def _resolve(token, table):
    if table is None:
        try:
            return int(token)
        except ValueError:
            raise SymbolError(f"no symbol table and non-numeric label {token!r}") from None
    return table.find(token)


def read_text(text, isymbols=None, osymbols=None, kind=Semiring.TROPICAL,
              acceptor=None):
    """Parse the machine text format.

    ``acceptor`` disambiguates 4-field lines (acceptor arc with weight vs.
    transducer arc without); it defaults to true iff no output table is given.
    """
    if acceptor is None:
        acceptor = osymbols is None
    if acceptor and osymbols is None:
        osymbols = isymbols
    m = Machine(kind, isymbols, osymbols)
    start_set = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if len(parts) <= 2:  # final line
                state = int(parts[0])
                weight = kind.parse(parts[1]) if len(parts) == 2 else kind.one
                m.set_final(state, weight)
                if not start_set:
                    m.set_start(state)
                    start_set = True
                continue
            src, dst = int(parts[0]), int(parts[1])
            if acceptor:
                if len(parts) not in (3, 4):
                    raise ParseError("expected 'src dst sym [weight]'", lineno)
                il = ol = _resolve(parts[2], isymbols)
                weight = kind.parse(parts[3]) if len(parts) == 4 else kind.one
            else:
                if len(parts) not in (4, 5):
                    raise ParseError("expected 'src dst isym osym [weight]'", lineno)
                il = _resolve(parts[2], isymbols)
                ol = _resolve(parts[3], osymbols)
                weight = kind.parse(parts[4]) if len(parts) == 5 else kind.one
            m.add_arc(src, il, ol, weight, dst)
            if not start_set:
                m.set_start(src)
                start_set = True
        except (ValueError, IndexError):
            raise ParseError(f"malformed line {raw!r}", lineno) from None
        except SymbolError as exc:
            raise ParseError(str(exc), lineno) from None
    return m.freeze()


def _label_text(label, table):
    if table is None:
        return str(label)
    return table.find(label)


def write_text(m: Machine, acceptor=None) -> str:
    """Canonical text: start state's block first, then ascending states."""
    if acceptor is None:
        acceptor = m.is_acceptor() and m.osymbols is None
    kind = m.kind
    order = [m.start] + [q for q in m.states() if q != m.start]
    lines = []
    for q in order:
        for arc in sorted(m.arcs(q), key=lambda a: (a.ilabel, a.olabel,
                                                    a.nextstate, a.weight)):
            fields = [str(q), str(arc.nextstate), _label_text(arc.ilabel, m.isymbols)]
            if not acceptor:
                fields.append(_label_text(arc.olabel, m.osymbols))
            if arc.weight != kind.one:
                fields.append(kind.format(arc.weight))
            lines.append(" ".join(fields))
        if q in m.finals:
            w = m.finals[q]
            if w != kind.one:
                lines.append(f"{q} {kind.format(w)}")
            else:
                lines.append(str(q))
    return "\n".join(lines) + ("\n" if lines else "")


# -- trimming -----------------------------------------------------------


def connect(m: Machine) -> Machine:
    """Restrict to states both accessible and coaccessible; renumber densely."""
    accessible = set()
    stack = [m.start]
    while stack:
        q = stack.pop()
        if q in accessible:
            continue
        accessible.add(q)
        stack.extend(a.nextstate for a in m.arcs(q))

    back = {q: [] for q in m.states()}
    for q, arc in m.all_arcs():
        back[arc.nextstate].append(q)
    coaccessible = set()
    stack = [q for q in m.finals]
    while stack:
        q = stack.pop()
        if q in coaccessible:
            continue
        coaccessible.add(q)
        stack.extend(back[q])

    keep = sorted(accessible & coaccessible)
    out = Machine(m.kind, m.isymbols, m.osymbols)
    if m.start not in keep:
        out.add_state()  # empty language: bare non-final start
        return out.freeze()
    remap = {}
    remap[m.start] = out.add_state()
    for q in keep:
        if q != m.start:
            remap[q] = out.add_state()
    out.set_start(remap[m.start], m.start_weight)
    for q in keep:
        for arc in m.arcs(q):
            if arc.nextstate in remap:
                out.add_arc(remap[q], arc.ilabel, arc.olabel, arc.weight,
                            remap[arc.nextstate])
        if q in m.finals:
            out.set_final(remap[q], m.finals[q])
    return out.freeze()


# -- reference path oracle ----------------------------------------------


def weight_of(m: Machine, inp, out=ANY, max_path_len=24) -> float:
    """Exhaustive-path reference weight of an (input, output) pair.

    Sums (semiring combine) over every accepting path of at most
    ``max_path_len`` arcs whose non-epsilon input labels spell ``inp`` and,
    unless ``out`` is the wildcard, whose output labels spell ``out``.
    O(b^len); test-only scale.
    """
    kind = m.kind
    inp = tuple(inp)
    out_seq = None if out is ANY else tuple(out)

    def _arc_viable(arc, i, j):
        if arc.ilabel == EPSILON:
            ni = i
        elif i < len(inp) and inp[i] == arc.ilabel:
            ni = i + 1
        else:
            return (None, None)
        if out_seq is None:
            nj = j
        elif arc.olabel == EPSILON:
            nj = j
        elif j < len(out_seq) and out_seq[j] == arc.olabel:
            nj = j + 1
        else:
            return (None, None)
        return (ni, nj)

    # layered sum over paths of exactly d arcs, merged per configuration
    total = kind.zero
    bound_hit = False
    layer = {(m.start, 0, 0): m.start_weight}
    for depth in range(max_path_len + 1):
        for (q, i, j), w in layer.items():
            if i == len(inp) and (out_seq is None or j == len(out_seq)):
                if q in m.finals:
                    total = kind.combine(total, kind.extend(w, m.finals[q]))
        if depth == max_path_len:
            bound_hit = any(
                _arc_viable(arc, i, j)[0] is not None
                for (q, i, j) in layer for arc in m.arcs(q))
            break
        nxt = {}
        for (q, i, j), w in layer.items():
            for arc in m.arcs(q):
                ni, nj = _arc_viable(arc, i, j)
                if ni is None:
                    continue
                key = (arc.nextstate, ni, nj)
                nw = kind.extend(w, arc.weight)
                nxt[key] = kind.combine(nxt[key], nw) if key in nxt else nw
        if not nxt:
            break
        layer = nxt
    if bound_hit and kind is Semiring.REAL:
        raise DivergenceError(
            f"path bound {max_path_len} hit under REAL; sum may diverge")
    return total


def accepted_pairs(m: Machine, max_path_len=12):
    """All (input, output) -> weight reachable within the path bound.

    Enumeration-based companion oracle to ``weight_of``; same caveats.
    """
    kind = m.kind
    result = {}
    layer = {(m.start, (), ()): m.start_weight}
    for depth in range(max_path_len + 1):
        for (q, inp, out), w in layer.items():
            if q in m.finals:
                key = (inp, out)
                total = kind.extend(w, m.finals[q])
                if key in result:
                    total = kind.combine(result[key], total)
                result[key] = total
        if depth == max_path_len:
            break
        nxt = {}
        for (q, inp, out), w in layer.items():
            for arc in m.arcs(q):
                ninp = inp if arc.ilabel == EPSILON else inp + (arc.ilabel,)
                nout = out if arc.olabel == EPSILON else out + (arc.olabel,)
                key = (arc.nextstate, ninp, nout)
                nw = kind.extend(w, arc.weight)
                nxt[key] = kind.combine(nxt[key], nw) if key in nxt else nw
        if not nxt:
            break
        layer = nxt
    return result
