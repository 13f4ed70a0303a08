"""Machine data model, text serialization, trimming, and the path oracle.

A ``Machine`` is a weighted finite-state acceptor or transducer: dense
integer states, one start state, a final-weight map, per-state arc lists,
and a semiring kind.  Machines are mutable while being built and frozen
before being shared; every algorithm in the toolkit consumes frozen
machines and returns frozen machines.

An arc is a plain ``(ilabel, olabel, weight, nextstate)`` tuple, the
toolkit's innermost record: library loops unpack it, or index the one
field they need, so a lazy view may return any 4-item sequence.
"""

from __future__ import annotations

from operator import itemgetter

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
        self._next = EPSILON + 1  # one above the largest id so far

    def add(self, symbol: str, label: int | None = None) -> int:
        if symbol in self._by_symbol:
            existing = self._by_symbol[symbol]
            if label is not None and label != existing:
                raise SymbolError(f"symbol {symbol!r} already mapped to {existing}")
            return existing
        if symbol.split() != [symbol]:
            raise SymbolError(f"symbol {symbol!r} is empty or holds whitespace")
        if label is None:
            label = self._next
        if label in self._by_id:
            raise SymbolError(f"id {label} already mapped to {self._by_id[label]!r}")
        self._by_symbol[symbol] = label
        self._by_id[label] = symbol
        if label >= self._next:
            self._next = label + 1
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
            parts = line.split()
            if not parts or (parts[0][0] == "#" and not (
                    len(parts) == 2 and parts[1].isdecimal())):
                continue  # blank, or a comment and not the entry of '#...'
            if len(parts) != 2:
                raise ParseError(f"expected 'symbol id', got {line.strip()!r}", lineno)
            try:
                label = int(parts[1])
                if label < 0:
                    raise ValueError(f"label id {label} is negative")
                table.add(parts[0], label)
            except (ValueError, SymbolError) as exc:
                raise ParseError(str(exc), lineno) from None
        return table

    def write(self) -> str:
        return "".join(f"{sym}\t{label}\n" for label, sym in self.items())


class Machine:
    """Weighted acceptor/transducer over one semiring."""

    def __init__(self, kind: Semiring, isymbols=None, osymbols=None):
        self.kind = kind
        self.isymbols = isymbols
        self.osymbols = osymbols
        self._start = 0
        self.start_weight = kind.one
        self.finals: dict[int, float] = {}
        # per state, (ilabel, olabel, weight, nextstate) tuples
        self._arcs: list[list[tuple]] = []
        self._frozen = False
        # what is derived from the machine, kept once it is frozen (see
        # _memo); None while mutable
        self._derived = None

    @classmethod
    def _from_parts(cls, kind, isymbols, osymbols, arcs, finals, start=0,
                    start_weight=None):
        """Frozen machine from an algorithm's own output, as ``freeze``
        leaves it, without re-checking anything; every library op builds
        its output here, and the checking builder is left to callers.

        ``arcs`` holds one list (or tuple) of arcs per state and must
        include ``start``; each arc is an exact ``(ilabel, olabel, weight,
        nextstate)`` tuple, never another sequence a lazy view may return.
        ``finals`` maps state -> weight and holds no zero weight.  Every
        weight must be in the carrier already: copied from a machine,
        checked as it entered, or computed and checked by ``kind.valid``.
        """
        m = cls.__new__(cls)
        m.kind = kind
        m.isymbols = isymbols
        m.osymbols = osymbols
        m._start = start
        m.start_weight = kind.one if start_weight is None else start_weight
        m.finals = finals
        m._arcs = [tuple(state_arcs) for state_arcs in arcs]
        m._frozen = True
        m._derived = {}
        return m

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
        self._arcs[src].append((ilabel, olabel, float(weight), nextstate))

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
        self._start = state
        if weight is not None:
            self.start_weight = self.kind.check(weight)

    def freeze(self):
        if not self._frozen:
            self.ensure_state(self._start)
            self._arcs = [tuple(arcs) for arcs in self._arcs]
            self._frozen = True
            self._derived = {}
        return self

    def _check_mutable(self):
        if self._frozen:
            raise ContractError("machine is frozen")

    # -- derived tables -------------------------------------------------

    def _memo(self, key, compute):
        """``compute()``, kept under ``key`` once the machine is frozen: a
        frozen machine never changes, a mutable one computes afresh."""
        derived = self._derived
        if derived is None:
            return compute()
        if key not in derived:
            derived[key] = compute()
        return derived[key]

    def _inherit_shape(self, source):
        """Take ``source``'s known topological order and a set acceptor
        flag, which hold for a frozen machine with ``source``'s states and
        some of its arcs, labels and targets unchanged."""
        for key in ("topological_order", "is_acceptor"):
            if source._derived.get(key):  # not None, nor False
                self._derived[key] = source._derived[key]

    # -- generalized state machine interface ----------------------------

    @property
    def start(self) -> int:
        """The start state.  Every op reads its operands' start, so each
        takes only frozen machines (``freeze`` adds the start state)."""
        if not self._frozen:
            raise ContractError("machine is not frozen (it may have no state)")
        return self._start

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
        return self._memo("is_acceptor", lambda: all(
            il == ol for arcs in self._arcs for il, ol, _, _ in arcs))

    def topological_order(self):
        """Kahn order of all states; None if any cycle, even unreachable.

        A frozen machine's order is computed once, or taken from the op
        that built it (which may give another valid order), and shared: do
        not modify the list."""
        return self._memo("topological_order", self._kahn)

    def _kahn(self):
        indeg = [0] * self.num_states
        for arcs in self._arcs:
            for _, _, _, t in arcs:
                indeg[t] += 1
        order = [q for q in self.states() if indeg[q] == 0]
        for q in order:  # the list is the FIFO queue: it grows as we read
            for _, _, _, t in self._arcs[q]:
                indeg[t] -= 1
                if indeg[t] == 0:
                    order.append(t)
        return order if len(order) == self.num_states else None

    def is_acyclic(self) -> bool:
        """True iff no cycle runs through any state, reachable or not."""
        return self.topological_order() is not None

    def is_deterministic(self) -> bool:
        """True iff no input label, epsilon included, repeats among one
        state's arcs (OpenFst's input determinism), so a functional
        ``determinize`` output's final-output flush passes.  A frozen
        machine is scanned once."""
        return self._memo("is_deterministic", self._scan_deterministic)

    def _scan_deterministic(self):
        return all(len({arc[0] for arc in arcs}) == len(arcs)
                   for arcs in self._arcs)

    def input_labels(self):
        return sorted({a[0] for _, a in self.all_arcs()} - {EPSILON})

    def __repr__(self):
        return (f"<Machine {self.kind.value} states={self.num_states} "
                f"arcs={self.num_arcs} finals={len(self.finals)}>")


def check_machines(*machines):
    """Refuse with ``ContractError`` each operand that is not a
    ``Machine``: a lazy view, or any other object, even one with a
    machine's names (``kind``, ``start``, ``final``, ``arcs``).  Every op
    that takes machines calls it before it reads one; reading a machine's
    ``start`` then refuses one that is not frozen."""
    for m in machines:
        if not isinstance(m, Machine):
            raise ContractError(f"{type(m).__name__} is not a frozen Machine: "
                                "expand() a view")


def check_record(record, cls):
    """Refuse with ``ContractError`` a record operand that is not a ``cls``
    (a ``Lattice``, ``CascadeSpec``, ``CountTable``, ``BackoffModel``,
    ``Rule`` or ``DecisionTreeSpec``).  Every function that takes a record
    calls it before it reads one."""
    if not isinstance(record, cls):
        raise ContractError(f"{type(record).__name__} is not a {cls.__name__}")


def check_views(*views):
    """Refuse with ``ContractError`` each operand that is neither a
    ``Machine`` nor a generalized state machine: an object with a
    ``Semiring`` ``kind``, ``start``, ``start_weight``, ``final(state)`` and
    ``arcs(state)``.  Every view reader calls it before it reads an
    operand; reading a machine's ``start`` then refuses one that is not
    frozen.  Returns each operand's ``(isymbols, osymbols)``: a view's
    symbol tables are optional, None where it has none."""
    tables = []
    for v in views:
        if not isinstance(v, Machine) and not (
                isinstance(getattr(v, "kind", None), Semiring) and all(
                    hasattr(v, name)
                    for name in ("start", "start_weight", "final", "arcs"))):
            raise ContractError(
                f"{type(v).__name__} is not a state machine: a view needs a "
                "Semiring kind, start, start_weight, final and arcs")
        tables.append((getattr(v, "isymbols", None),
                       getattr(v, "osymbols", None)))
    return tables


def observation_machine(labels, kind=Semiring.TROPICAL,
                        isymbols=None) -> Machine:
    """Linear-chain acceptor spelling one label string, such as an
    utterance to decode or a word to rewrite."""
    arcs = [[(label, label, kind.one, q + 1)] for q, label in enumerate(labels)]
    return Machine._from_parts(kind, isymbols, isymbols, arcs + [[]],
                               {len(arcs): kind.one})


# -- text format --------------------------------------------------------
#
# arc line:   src dst isym osym [weight]     (transducer)
#             src dst sym [weight]           (acceptor)
# final line: state [weight]
# The source of the first line is the start state.  A line whose first
# non-blank character is '#' is a comment; '#' anywhere else is a symbol.


def _resolve(token, table):
    if table is None:
        try:
            return int(token)
        except ValueError:
            raise SymbolError(f"no symbol table and non-numeric label {token!r}") from None
    return table.find(token)


class _Tokens(dict):
    """token -> ``convert(token)``, converted once, when first looked up."""

    def __init__(self, convert):
        self.convert = convert

    def __missing__(self, token):
        value = self[token] = self.convert(token)
        return value


def read_text(text, isymbols=None, osymbols=None, kind=Semiring.TROPICAL,
              acceptor=None):
    """Parse the machine text format.

    ``acceptor`` disambiguates 4-field lines (acceptor arc with weight vs.
    transducer arc without); it defaults to true iff no output table is given.
    Each distinct weight token is parsed, and checked, once by ``kind.parse``;
    each distinct label token is resolved once.  A state id must be below
    ``max(len(text), 65536)``.
    """
    if acceptor is None:
        acceptor = osymbols is None
    if acceptor and osymbols is None:
        osymbols = isymbols
    ilabels = _Tokens(lambda token: _resolve(token, isymbols))
    olabels = _Tokens(lambda token: _resolve(token, osymbols))
    weights = _Tokens(kind.parse)
    one, zero = kind.one, kind.zero
    arcs = []
    finals = {}
    start = None
    # every id below the largest is a state, so ids are bounded by the
    # text's length, with room for small sparse machines: a short text
    # cannot make the state list grow without bound
    limit = max(len(text), 1 << 16)
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        n = len(parts)
        try:
            src = int(parts[0])
            dst = int(parts[1]) if n > 2 else src
            if not (0 <= src < limit and 0 <= dst < limit):
                raise ValueError
            if n <= 2:  # final line
                weight = weights[parts[1]] if n == 2 else one
                if weight == zero:
                    finals.pop(src, None)
                else:
                    finals[src] = weight
            elif acceptor:
                if n > 4:
                    raise ParseError("expected 'src dst sym [weight]'", lineno)
                il = ol = ilabels[parts[2]]
                weight = weights[parts[3]] if n == 4 else one
            else:
                if n not in (4, 5):
                    raise ParseError("expected 'src dst isym osym [weight]'", lineno)
                il = ilabels[parts[2]]
                ol = olabels[parts[3]]
                weight = weights[parts[4]] if n == 5 else one
        except ValueError:
            raise ParseError(f"malformed line {raw!r}", lineno) from None
        except SymbolError as exc:
            raise ParseError(str(exc), lineno) from None
        top = src if src > dst else dst
        if top >= len(arcs):
            arcs.extend([] for _ in range(top + 1 - len(arcs)))
        if n > 2:
            arcs[src].append((il, ol, weight, dst))
        if start is None:
            start = src
    # a text with no arc or final line is a bare non-final start state
    return Machine._from_parts(kind, isymbols, osymbols, arcs or [[]], finals,
                               start or 0)


def write_text(m: Machine) -> str:
    """Canonical text: start state's block first, then ascending states;
    an acceptor without output symbols in the acceptor form."""
    check_machines(m)
    acceptor = m.is_acceptor() and m.osymbols is None
    kind = m.kind
    ilabels = _Tokens(str if m.isymbols is None else m.isymbols.find)
    olabels = _Tokens(str if m.osymbols is None else m.osymbols.find)
    # weight -> its field and the space before it; one has no field
    weights = _Tokens(lambda w: " " + kind.format(w))
    weights[kind.one] = ""
    by_labels = itemgetter(0, 1, 3, 2)  # ilabel, olabel, nextstate, weight
    lines = []
    start = m.start
    for q in [start] + [q for q in m.states() if q != start]:
        for il, ol, w, t in sorted(m.arcs(q), key=by_labels):
            if acceptor:
                lines.append(f"{q} {t} {ilabels[il]}{weights[w]}")
            else:
                lines.append(f"{q} {t} {ilabels[il]} {olabels[ol]}{weights[w]}")
        if q in m.finals:
            lines.append(f"{q}{weights[m.finals[q]]}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- trimming -----------------------------------------------------------


def connect(m: Machine) -> Machine:
    """Restrict to states both accessible and coaccessible; renumber densely.

    An arc weighted with the semiring zero carries no path, so it is
    dropped and connects nothing.  The start state becomes state 0 and the
    others keep their ascending order; an arc whose target keeps its
    number is reused as it is.  An input already numbered so, with no
    zero-weight arc, is returned itself, with its derived tables;
    otherwise a known topological order is carried through the renumbering.
    """
    check_machines(m)
    n = m.num_states
    start = m.start
    zero = m.kind.zero
    state_arcs = [m.arcs(q) for q in range(n)]
    # forward search from the start, recording each arc backwards; every
    # state on a path from an accessible state to a final is accessible,
    # so the backward search needs no other arcs
    back = [[] for _ in range(n)]
    accessible = bytearray(n)
    accessible[start] = 1
    stack = [start]
    dropped = False
    while stack:
        q = stack.pop()
        for _, _, w, t in state_arcs[q]:
            if w == zero:
                dropped = True
                continue
            back[t].append(q)
            if not accessible[t]:
                accessible[t] = 1
                stack.append(t)
    useful = bytearray(n)
    stack = [q for q in m.finals if accessible[q]]
    for q in stack:
        useful[q] = 1
    while stack:
        for q in back[stack.pop()]:
            if not useful[q]:
                useful[q] = 1
                stack.append(q)

    if not useful[start]:
        # empty language: bare non-final start
        return Machine._from_parts(m.kind, m.isymbols, m.osymbols, [()], {})
    if (start == 0 and 0 not in useful and not dropped
            and list(m.finals) == sorted(m.finals)):
        return m  # already as trimming would number it
    keep = [q for q in range(n) if useful[q]]
    order = [start] + [q for q in keep if q != start]
    remap = {q: i for i, q in enumerate(order)}
    arcs = []
    for q in order:
        kept = []
        for arc in state_arcs[q]:
            il, ol, w, old = arc
            t = remap.get(old)
            if t is None or w == zero:
                continue
            kept.append(arc if t == old else (il, ol, w, t))
        arcs.append(kept)
    finals = {remap[q]: m.finals[q] for q in keep if q in m.finals}
    out = Machine._from_parts(m.kind, m.isymbols, m.osymbols, arcs, finals,
                              0, m.start_weight)
    order = m._derived.get("topological_order")
    if order is not None:  # a known order stays one on a subgraph
        out._derived["topological_order"] = [remap[q] for q in order
                                             if q in remap]
    return out


# -- reference path oracle ----------------------------------------------


def _path_sums(m: Machine, advance, progress, max_path_len):
    """Weights of the accepting paths of at most ``max_path_len`` arcs,
    summed per progress.

    Paths are merged per (state, progress), one layer of arcs at a time;
    ``advance(arc, progress)`` is the progress after ``arc``, or None where
    the arc may not be taken.  Returns ``{progress: sum at the finals}`` and
    whether some path goes on past the bound.  Machine weights are in the
    carrier, so the sums use the unchecked ``plus``/``times``.
    """
    check_machines(m)
    plus, times, finals = m.kind.plus, m.kind.times, m.finals
    sums = {}
    layer = {(m.start, progress): m.start_weight}
    for depth in range(max_path_len + 1):
        for (q, p), w in layer.items():
            if q in finals:
                w = times(w, finals[q])
                sums[p] = plus(sums[p], w) if p in sums else w
        if depth == max_path_len:
            return sums, any(advance(arc, p) is not None
                             for q, p in layer for arc in m.arcs(q))
        nxt = {}
        for (q, p), w in layer.items():
            for arc in m.arcs(q):
                np = advance(arc, p)
                if np is not None:
                    key = (arc[3], np)
                    nw = times(w, arc[2])
                    nxt[key] = plus(nxt[key], nw) if key in nxt else nw
        if not nxt:
            break
        layer = nxt
    return sums, False


def weight_of(m: Machine, inp, out=ANY, max_path_len=24) -> float:
    """Exhaustive-path reference weight of an (input, output) pair.

    Sums (semiring combine) over every accepting path of at most
    ``max_path_len`` arcs whose non-epsilon input labels spell ``inp`` and,
    unless ``out`` is the wildcard, whose output labels spell ``out``.
    Under REAL, a path going on past the bound raises ``DivergenceError``.
    O(b^len); test-only scale.
    """
    inp = tuple(inp)
    out = None if out is ANY else tuple(out)

    # progress: positions matched in inp and out (out's stays 0 under ANY)
    def advance(arc, p):
        il, ol, _, _ = arc
        i, j = p
        if il != EPSILON:
            if i == len(inp) or inp[i] != il:
                return None
            i += 1
        if out is not None and ol != EPSILON:
            if j == len(out) or out[j] != ol:
                return None
            j += 1
        return i, j

    sums, cut = _path_sums(m, advance, (0, 0), max_path_len)
    if cut and m.kind is Semiring.REAL:
        raise DivergenceError(
            f"path bound {max_path_len} hit under REAL; sum may diverge")
    return sums.get((len(inp), 0 if out is None else len(out)), m.kind.zero)


def accepted_pairs(m: Machine, max_path_len=12):
    """All (input, output) -> weight reachable within the path bound.

    Enumeration-based companion oracle to ``weight_of``; same caveats.
    """
    def advance(arc, p):
        il, ol, _, _ = arc
        inp, out = p
        return (inp if il == EPSILON else inp + (il,),
                out if ol == EPSILON else out + (ol,))

    return _path_sums(m, advance, ((), ()), max_path_len)[0]
