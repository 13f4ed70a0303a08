"""Reference answers the workloads check the program's outputs against.

These work on plain tuples and dicts and share no code with ``wfst``: the
rewriter scans strings directly, and the lattice routines are dynamic
programmes over the generator's own arc list.
"""

from __future__ import annotations

import math


def scan_rewrite(inp, phi, psi, lam, rho):
    """Obligatory left-to-right rewriting of one rule by direct scanning.

    phi: set of symbol tuples; psi: list of (cost, replacement tuple);
    lam/rho: sets of tuples, the empty tuple matching anywhere.  The left
    context is checked against the output emitted so far, the right context
    against the input ahead of the match.  Returns output tuple -> minimal
    cost.
    """
    inp = tuple(inp)
    n = len(inp)
    lengths = sorted({len(p) for p in phi})
    results = {}

    def lam_ok(out):
        return any(s == () or out[len(out) - len(s):] == s for s in lam)

    def rho_ok(j):
        return any(inp[j:j + len(t)] == t for t in rho)

    def go(i, out, cost):
        if i == n:
            if out not in results or cost < results[out]:
                results[out] = cost
            return
        valid = []
        if lam_ok(out):
            valid = [k for k in lengths
                     if i + k <= n and inp[i:i + k] in phi and rho_ok(i + k)]
        if not valid:
            go(i + 1, out + (inp[i],), cost)
            return
        for k in valid:
            for c, rep in psi:
                go(i + k, out + rep, cost + c)

    go(0, (), 0.0)
    return results


def rewrite_cascade(inp, rules):
    """Apply the rules one after another; output tuple -> minimal cost."""
    current = {tuple(inp): 0.0}
    for rule in rules:
        nxt = {}
        for s, c in current.items():
            for out, c2 in scan_rewrite(s, *rule).items():
                if out not in nxt or c + c2 < nxt[out]:
                    nxt[out] = c + c2
        current = nxt
    return current


def dag_best_cost(n_states, arcs, final):
    """Cheapest start-to-final cost of a slotted DAG whose arcs only go
    from lower to higher state ids (state 0 is the start)."""
    best = [math.inf] * n_states
    best[0] = 0.0
    for src, _, w, dst in sorted(arcs):
        if best[src] + w < best[dst]:
            best[dst] = best[src] + w
    return best[final]


def dag_word_cost(n_states, arcs, final, words):
    """Cheapest cost among the DAG's paths that spell ``words``."""
    frontier = {0: 0.0}
    by_src = {}
    for src, word, w, dst in arcs:
        by_src.setdefault(src, []).append((word, w, dst))
    for word in words:
        nxt = {}
        for q, c in frontier.items():
            for label, w, dst in by_src.get(q, ()):
                if label == word and c + w < nxt.get(dst, math.inf):
                    nxt[dst] = c + w
        frontier = nxt
    return frontier.get(final, math.inf)
