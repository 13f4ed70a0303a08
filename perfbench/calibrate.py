"""The host's speed, measured between operations by a fixed unit of work.

The benchmark's host is a VM that shares its CPUs with other tenants, and
its speed drifts by a factor of up to two, over seconds and over minutes
alike.  So every timing the benchmark reports is scaled to a reference
speed: a time ``t`` measured while one calibration unit took ``u`` seconds
is reported as ``t * REFERENCE_S / u``, i.e. as the time it would have
taken on a host where the unit takes ``REFERENCE_S``.  The unit is plain Python over a
fixed graph (a shortest-distance pass with a heap, dicts and tuples, the
kind of work ``wfst`` does) and calls nothing in ``wfst``, so a change to
the program moves the scaled times and a change of host speed does not.
Set-up work, which moves large dicts and files, tracks the unit less
closely than operations do (see WORKLOADS.md).
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
from time import perf_counter

REFERENCE_S = 0.0015  # one unit on an unloaded x86_64 VM, Python 3.11.7
WIDTH = 4             # units on each side of an operation that time it
_N, _FANOUT = 600, 8


def _graph():
    rng = random.Random(0)
    return [[(rng.randrange(_N), rng.randint(0, 12) * 0.25)
             for _ in range(_FANOUT)] for _ in range(_N)]


_GRAPH = _graph()


def _pass():
    dist = {0: 0.0}
    queue = [(0.0, 0)]
    while queue:
        d, q = heapq.heappop(queue)
        if d > dist[q]:
            continue
        for dst, w in _GRAPH[q]:
            nd = d + w
            if nd < dist.get(dst, float("inf")):
                dist[dst] = nd
                heapq.heappush(queue, (nd, dst))
    return dist


def unit():
    """Seconds of one calibration unit.  It runs once untimed to warm the
    caches after whatever ran before, then once timed, with the garbage
    collector off so that it never collects the program's garbage."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _pass()
        start = perf_counter()
        _pass()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(units):
    """Scale factor for a time measured while ``units`` were taken."""
    return REFERENCE_S / statistics.median(units)


def local_factors(units):
    """Scale factor of each position of ``units``, the unit that ran right
    after an operation: from the median of the ``2 * WIDTH + 1`` units
    around it, so that one unit's own noise does not move the factor."""
    return [factor(units[max(0, i - WIDTH):i + WIDTH + 1])
            for i in range(len(units))]
