"""On-demand machine views: state caching and expansion.

A lazy view implements the generalized-state-machine contract that
``machine.check_views`` checks (a ``Semiring`` ``kind``, ``start``,
``start_weight``, ``final(state)`` and ``arcs(state)``; symbol tables are
optional) over integer state ids, expanding states only when a traversal
asks for them.  Views stack: a lazy composition
(``ops.LazyComposition``, the pair-state kernel ``compose`` also expands)
can be built over machines, caches or other lazy views.
"""

from __future__ import annotations

from collections import OrderedDict, deque

from .errors import ContractError
from .machine import Machine, check_views
from .ops import LazyComposition, lazy_compose  # noqa: F401 (re-exported)


MEMOIZE = "memoize"
LRU = "lru"
REFCOUNT = "refcount"


class CachedMachine:
    """Caching wrapper around a generalized state machine.

    Disciplines:
      * MEMOIZE never evicts.
      * LRU(capacity) evicts the least-recently-used state beyond capacity.
      * REFCOUNT evicts a state once every client-held reference to it has
        been released (``acquire``/``release``).

    ``expansions`` counts how many times the underlying machine's ``arcs``
    was invoked; eviction never changes returned arc contents.  A cache
    bounds only its own arcs: a composition keeps what it reads from its
    operands, a cache among them, for its own lifetime.
    """

    def __init__(self, m, mode=MEMOIZE, capacity=None):
        [(self.isymbols, self.osymbols)] = check_views(m)
        if mode not in (MEMOIZE, LRU, REFCOUNT):
            raise ContractError(f"unknown cache discipline {mode!r}")
        if mode == LRU and (capacity is None or capacity < 1):
            raise ContractError("LRU capacity must be >= 1")
        self.m = m
        self.mode = mode
        self.capacity = capacity
        self.kind = m.kind
        self.start = m.start
        self.start_weight = m.start_weight
        self.expansions = 0
        self._cache = OrderedDict()
        self._refs = {}

    def final(self, state):
        return self.m.final(state)

    def acquire(self, state):
        if self.mode != REFCOUNT:
            raise ContractError("acquire/release apply to REFCOUNT caches only")
        self._refs[state] = self._refs.get(state, 0) + 1

    def release(self, state):
        if self.mode != REFCOUNT:
            raise ContractError("acquire/release apply to REFCOUNT caches only")
        count = self._refs.get(state, 0) - 1
        if count <= 0:
            self._refs.pop(state, None)
            self._cache.pop(state, None)
        else:
            self._refs[state] = count

    def arcs(self, state):
        if state in self._cache:
            if self.mode == LRU:
                self._cache.move_to_end(state)
            return self._cache[state]
        arcs = tuple(self.m.arcs(state))
        self.expansions += 1
        if self.mode == REFCOUNT and state not in self._refs:
            return arcs  # nothing holds the state; do not retain it
        self._cache[state] = arcs
        if self.mode == LRU:
            while len(self._cache) > self.capacity:
                self._cache.popitem(last=False)
        return arcs


def cached(m, mode=MEMOIZE, capacity=None) -> CachedMachine:
    return CachedMachine(m, mode, capacity)


def expand(view) -> Machine:
    """Materialize a generalized state machine by breadth-first expansion.

    A view's weights come from outside any frozen machine (a lazy
    composition's products, or a user's own view), so each one is checked
    as it is copied.
    """
    [tables] = check_views(view)
    kind = view.kind
    check, zero = kind.check, kind.zero
    start_weight = check(view.start_weight)
    ids = {view.start: 0}
    arcs = [[]]
    finals = {}
    queue = deque([view.start])
    while queue:
        s = queue.popleft()
        q = ids[s]
        fw = view.final(s)
        if fw != zero:
            finals[q] = check(fw)
        out = arcs[q]
        for il, ol, w, nxt in view.arcs(s):
            t = ids.get(nxt)
            if t is None:
                t = ids[nxt] = len(arcs)
                arcs.append([])
                queue.append(nxt)
            out.append((il, ol, check(w), t))
    return Machine._from_parts(kind, *tables, arcs, finals, 0, start_weight)
