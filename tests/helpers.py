"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the library's traversal code where the
point is to cross-check it: path enumeration is a plain bounded DFS,
rewriting is a recursive left-to-right scan over plain tuples, and state
equivalence is computed from explicitly enumerated futures.
"""

import itertools
import math
import random

from wfst import (FsmError, Machine, Semiring, connect, count_ngrams,
                  katz_model)
from wfst.machine import EPSILON
from wfst.ops import FILTER_INITIAL, merge_arcs


# -- quick machine construction ------------------------------------------


def build(kind, arcs, finals, start=0, num_states=None, isymbols=None,
          osymbols=None, start_weight=None):
    """Machine from (src, ilabel, olabel, weight, dst) tuples.

    ``finals`` maps state -> weight (or is an iterable of states with
    weight one).
    """
    m = Machine(kind, isymbols, osymbols)
    top = max([start]
              + [max(a[0], a[4]) for a in arcs]
              + list(finals if not isinstance(finals, dict) else finals.keys()))
    m.add_states(max(top + 1, num_states or 0))
    for src, il, ol, w, dst in arcs:
        m.add_arc(src, il, ol, w, dst)
    if isinstance(finals, dict):
        for q, w in finals.items():
            m.set_final(q, w)
    else:
        for q in finals:
            m.set_final(q, kind.one)
    m.set_start(start, start_weight)
    return m.freeze()


def acceptor(kind, arcs, finals, **kw):
    """Like build but arcs are (src, label, weight, dst)."""
    return build(kind, [(s, l, l, w, d) for s, l, w, d in arcs], finals, **kw)


def unfrozen(m):
    """A mutable copy of ``m``, built with the checking builder: a machine
    that no op takes."""
    out = Machine(m.kind, m.isymbols, m.osymbols)
    out.add_states(m.num_states)
    for q, (il, ol, w, t) in m.all_arcs():
        out.add_arc(q, il, ol, w, t)
    for q, w in m.finals.items():
        out.set_final(q, w)
    out.set_start(m.start, m.start_weight)
    return out


# -- independent path enumeration ----------------------------------------


def enum_paths(m, max_arcs):
    """(input, output) tuple pair -> combined weight over all accepting
    paths of at most ``max_arcs`` arcs.  Plain DFS; exponential, tiny
    machines only."""
    kind = m.kind
    result = {}

    def visit(q, inp, out, w, depth):
        if q in m.finals:
            key = (inp, out)
            total = kind.extend(w, m.finals[q])
            result[key] = kind.combine(result[key], total) if key in result \
                else total
        if depth == max_arcs:
            return
        for il, ol, aw, t in m.arcs(q):
            ninp = inp if il == 0 else inp + (il,)
            nout = out if ol == 0 else out + (ol,)
            visit(t, ninp, nout, kind.extend(w, aw), depth + 1)

    visit(m.start, (), (), m.start_weight, 0)
    return result


def layered_distances(m):
    """Min path cost per state over walks of < num_states arcs; exact unless
    the start reaches a negative cycle."""
    d = {q: math.inf for q in m.states()}
    d[m.start] = m.start_weight
    frontier = dict(d)
    for _ in range(max(1, m.num_states - 1)):
        nxt = {}
        for q, w in frontier.items():
            if w == math.inf:
                continue
            for _, _, aw, t in m.arcs(q):
                cand = w + aw
                if cand < nxt.get(t, math.inf):
                    nxt[t] = cand
        for q, w in nxt.items():
            if w < d[q]:
                d[q] = w
        frontier = nxt
    return d


def least_walks(n, arcs, finals, max_arcs, forward):
    """Per state, the least cost of a walk of at most ``max_arcs`` arcs:
    from state 0 to the state (forward), or from it to a final."""
    t = Semiring.TROPICAL
    if forward:
        machines = [acceptor(t, arcs, {q: 0.0}, num_states=n)
                    for q in range(n)]
    else:
        machines = [acceptor(t, arcs, finals, start=q, num_states=n)
                    for q in range(n)]
    return {q: min(enum_paths(m, max_arcs).values(), default=math.inf)
            for q, m in enumerate(machines)}


class WorkCapExceeded(Exception):
    """``bounded_pairs`` met more partial paths than its ``cap``."""


def bounded_pairs(m, max_in, max_out, max_arcs, cap=None):
    """(input, output) -> weight over accepting paths, pruning any prefix
    longer than the string bounds; layered like a product construction.

    With ``cap``, raises ``WorkCapExceeded`` once the layers together hold
    more than ``cap`` partial paths.
    """
    kind = m.kind
    result = {}
    layer = {(m.start, (), ()): m.start_weight}
    work = 0
    for depth in range(max_arcs + 1):
        for (q, inp, out), w in layer.items():
            if q in m.finals:
                key = (inp, out)
                total = kind.extend(w, m.finals[q])
                result[key] = kind.combine(result[key], total) \
                    if key in result else total
        if depth == max_arcs:
            break
        nxt = {}
        for (q, inp, out), w in layer.items():
            for il, ol, aw, t in m.arcs(q):
                ninp = inp if il == 0 else inp + (il,)
                nout = out if ol == 0 else out + (ol,)
                if len(ninp) > max_in or len(nout) > max_out:
                    continue
                key = (t, ninp, nout)
                nw = kind.extend(w, aw)
                nxt[key] = kind.combine(nxt[key], nw) if key in nxt else nw
        work += len(nxt)
        if cap is not None and work > cap:
            raise WorkCapExceeded
        if not nxt:
            break
        layer = nxt
    return result


def product_compose(a, b, filtered=True):
    """Unpruned composition oracle: every pair state ``merge_arcs`` reaches
    from the start pair, numbered breadth first, with no label lookahead;
    trimmed with ``connect``."""
    kind = a.kind
    start = (a.start, b.start, FILTER_INITIAL)
    ids, pairs, arcs, finals = {start: 0}, [start], [], {}
    for q, (s1, s2, f) in enumerate(pairs):  # ``pairs`` grows as it is read
        index = {}
        for arc in b.arcs(s2):
            index.setdefault(arc[0], []).append(arc)
        out = []
        for il, ol, w, (n1, n2, nf) in merge_arcs(kind, a.arcs(s1), index, f,
                                                   filtered):
            target = (s1 if n1 is None else n1, s2 if n2 is None else n2, nf)
            if target not in ids:
                ids[target] = len(pairs)
                pairs.append(target)
            out.append((il, ol, w, ids[target]))
        arcs.append(out)
        fw = kind.times(a.final(s1), b.final(s2))
        if fw != kind.zero:
            finals[q] = fw
    return connect(Machine._from_parts(
        kind, a.isymbols, b.osymbols, arcs, finals, 0,
        kind.times(a.start_weight, b.start_weight)))


def model_path_cost(model, fsa, sentence):
    """Cost of walking the acceptor along the model's own back-off route.

    Mirrors the estimation recursion arc by arc; equals the negated
    sentence log-probability when the construction is faithful.
    """
    ids = [model.symbols.find(t) if isinstance(t, str) else t for t in sentence]
    state = fsa.start
    cost = fsa.start_weight

    def step(state, label):
        # follow back-off epsilons until an explicit arc for label exists
        nonlocal cost
        guard = 0
        while True:
            guard += 1
            if guard > 100:
                raise FsmError("back-off loop")
            arcs = {a[0]: a for a in fsa.arcs(state)}
            if label in arcs:
                cost += arcs[label][2]
                return arcs[label][3]
            if EPSILON not in arcs:
                raise FsmError(f"no path for label {label}")
            cost += arcs[EPSILON][2]
            state = arcs[EPSILON][3]

    for w in ids:
        state = step(state, w)
    guard = 0
    while fsa.final(state) == math.inf:
        guard += 1
        arcs = {a[0]: a for a in fsa.arcs(state)}
        if EPSILON not in arcs or guard > 100:
            raise FsmError("no final completion")
        cost += arcs[EPSILON][2]
        state = arcs[EPSILON][3]
    return cost + fsa.final(state)


def viable_model(seed, order=2):
    """(counts, Katz model) of the first seeded random corpus over four
    words whose Katz model builds."""
    rng = random.Random(seed)
    vocab = ["a", "b", "c", "d"]
    while True:
        corpus = [[rng.choice(vocab) for _ in range(rng.randint(1, 7))]
                  for _ in range(rng.randint(6, 15))]
        ct = count_ngrams(corpus, order)
        try:
            return ct, katz_model(ct)
        except FsmError:
            continue


def zipf_corpus(seed, sentences=300, words=40, max_len=12, min_len=0):
    """Seeded sentences of Zipf-distributed words ``w00``, ``w01``, ...;
    lengths run from ``min_len`` to ``max_len``, by default 0 to 12, so
    some are empty or one word."""
    rng = random.Random(seed)
    vocab = [f"w{i:02d}" for i in range(words)]
    weights = [1.0 / (rank + 1) for rank in range(words)]
    return [rng.choices(vocab, weights, k=rng.randint(min_len, max_len))
            for _ in range(sentences)]


def naive_ngram_counts(corpus, n):
    """(word k-gram -> count for k <= n, token total) over sentences padded
    with ``max(1, n - 1)`` ``<s>`` and one ``</s>``, testing every window
    and skipping those of ``<s>`` alone.  Keys come in order of first
    appearance: sentence by sentence, k by k, left to right."""
    counts = {}
    total = 0
    for sentence in corpus:
        padded = ["<s>"] * max(1, n - 1) + list(sentence) + ["</s>"]
        total += len(sentence) + 1
        for k in range(1, n + 1):
            for i in range(len(padded) - k + 1):
                gram = tuple(padded[i:i + k])
                if all(w == "<s>" for w in gram):
                    continue
                counts[gram] = counts.get(gram, 0) + 1
    return counts, total


def strings_up_to(alphabet, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


# -- random machines -----------------------------------------------------


def random_machine(rng, kind, max_states=5, alphabet=(1, 2, 3), eps=True,
                   acceptor=False, acyclic=False, max_arcs=8,
                   weights=(0.0, 0.5, 1.0, 2.0), eps_in=None):
    """Random trim nonempty machine; returns None when the draw is empty.

    ``eps_in=False`` keeps epsilon off the input tape (epsilon-emitting
    input-epsilon cycles make subset determinization diverge)."""
    n = rng.randint(2, max_states)
    m = Machine(kind)
    m.add_states(n)
    labels = list(alphabet) + ([0] if eps else [])
    in_labels = list(alphabet) + ([0] if (eps if eps_in is None else eps_in)
                                  else [])
    for _ in range(rng.randint(n, max_arcs)):
        src = rng.randrange(n)
        dst = rng.randrange(src + 1, n) if acyclic and src < n - 1 else \
            rng.randrange(n)
        if acyclic and dst <= src:
            continue
        il = rng.choice(in_labels)
        ol = il if acceptor else rng.choice(labels)
        if kind is Semiring.BOOLEAN:
            w = 1.0
        elif kind is Semiring.REAL:
            w = rng.choice((0.25, 0.5, 0.75))
        else:
            w = rng.choice(weights)
        m.add_arc(src, il, ol, w, dst)
    for q in rng.sample(range(n), rng.randint(1, n)):
        m.set_final(q, kind.one if kind is not Semiring.TROPICAL
                    else rng.choice(weights))
    m.set_start(0)
    t = connect(m.freeze())
    return t if t.finals else None


def random_det_acceptor(rng, max_states=8, alphabet=(1, 2),
                        weights=(0.0, 0.5, 1.0, 2.0), kind=Semiring.TROPICAL,
                        acyclic=False):
    """Random trim deterministic weighted acceptor (no epsilon), or None.

    ``acyclic=True`` points every arc to a higher state."""
    n = rng.randint(2, max_states)
    m = Machine(kind)
    m.add_states(n)
    for q in range(n):
        for label in alphabet:
            if rng.random() < 0.75:
                w = 1.0 if kind is Semiring.BOOLEAN else rng.choice(weights)
                lowest = q + 1 if acyclic else 0
                if lowest < n:
                    m.add_arc(q, label, label, w, rng.randrange(lowest, n))
    for q in rng.sample(range(n), rng.randint(1, max(1, n // 2))):
        m.set_final(q, kind.one if kind is Semiring.BOOLEAN
                    else rng.choice(weights))
    m.set_start(0)
    t = connect(m.freeze())
    return t if t.finals and t.is_deterministic() else None


def sample_machines(seed, count, **kw):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = random_machine(rng, **kw)
        if m is not None:
            out.append(m)
    return out


# -- state equivalence oracles -------------------------------------------


def futures(m, max_len, alphabet=None):
    """Per-state map string -> total weight to acceptance (deterministic
    weighted acceptors, no epsilon)."""
    sigma = sorted(alphabet or m.input_labels())
    step = {q: {il: (t, w) for il, _, w, t in m.arcs(q)}
            for q in m.states()}
    result = {}
    for q0 in m.states():
        f = {}
        for s in strings_up_to(sigma, max_len):
            q, w = q0, 0.0
            ok = True
            for x in s:
                if x not in step[q]:
                    ok = False
                    break
                q, w = step[q][x][0], w + step[q][x][1]
            if ok and q in m.finals:
                f[s] = w + m.finals[q]
        result[q0] = f
    return result


def nerode_class_count(m, max_len=10):
    """Number of state classes under future equality up to an additive
    constant (tropical Myhill-Nerode for deterministic machines)."""
    t = connect(m)
    fut = futures(t, max_len)
    classes = set()
    for q, f in fut.items():
        if not f:
            classes.add(frozenset())
            continue
        base = f[min(f)]
        classes.add(frozenset((s, round(w - base, 9)) for s, w in f.items()))
    return len(classes)


def table_filling_class_count(dfa, alphabet):
    """Classic pairwise-marking equivalence classes of a complete-enough
    boolean DFA (missing transitions act as a shared dead state)."""
    states = list(dfa.states()) + [-1]  # -1 = implicit dead state
    step = {q: {il: t for il, _, _, t in dfa.arcs(q)}
            for q in dfa.states()}
    step[-1] = {}
    final = set(dfa.finals)
    marked = set()
    for p, q in itertools.combinations(states, 2):
        if (p in final) != (q in final):
            marked.add(frozenset((p, q)))
    changed = True
    while changed:
        changed = False
        for p, q in itertools.combinations(states, 2):
            if frozenset((p, q)) in marked:
                continue
            for x in alphabet:
                np, nq = step[p].get(x, -1), step[q].get(x, -1)
                if np != nq and frozenset((np, nq)) in marked:
                    marked.add(frozenset((p, q)))
                    changed = True
                    break
    classes = []
    for q in states:
        for cls in classes:
            if frozenset((q, cls[0])) not in marked and q != cls[0]:
                cls.append(q)
                break
        else:
            classes.append([q])
    return len(classes), any(-1 in c and len(c) == 1 for c in classes)


# -- left-to-right rewriting oracle --------------------------------------


def scan_rewrite(inp, phi, psi, lam, rho):
    """Obligatory left-to-right rewriting by direct scanning.

    phi: set of symbol tuples; psi: list of (cost, replacement tuple);
    lam/rho: sets of tuples, the empty tuple matching anywhere.  The left
    context is checked against the output emitted so far, the right
    context against the untouched input ahead of the match.  Returns
    output tuple -> minimal cost.
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
            valid = [l for l in lengths
                     if i + l <= n and inp[i:i + l] in phi
                     and rho_ok(i + l)]
        if not valid:
            go(i + 1, out + (inp[i],), cost)
        else:
            for l in valid:
                for c, rep in psi:
                    go(i + l, out + rep, cost + c)

    go(0, (), 0.0)
    return results


def random_rule_spec(rng, syms=("a", "b", "c")):
    """(phi, psi, lam, rho) in oracle form plus the equivalent rule text
    fields; psi alternatives never coincide with phi alternatives."""
    def lit(lo, hi):
        return tuple(rng.choice(syms) for _ in range(rng.randint(lo, hi)))

    phi = set()
    while not phi:
        phi = {lit(1, 3) for _ in range(rng.randint(1, 2))}
    psi, seen = [], set(phi)
    for _ in range(rng.randint(1, 2)):
        rep = lit(1, 2)
        tries = 0
        while rep in seen and tries < 20:
            rep = lit(1, 2)
            tries += 1
        if rep in seen:
            continue
        seen.add(rep)
        psi.append((rng.choice((0.0, 0.25, 0.5, 1.0)), rep))
    if not psi:
        psi.append((0.0, ("a", "a", "a", "b")))
    lam = {lit(1, 2)} if rng.random() < 0.6 else {()}
    rho = {lit(1, 2)} if rng.random() < 0.6 else {()}

    def pat(alts):
        return "|".join("".join(s) if s else "()" for s in sorted(alts))

    psi_text = "|".join(f"<{c}>" + "".join(s) for c, s in psi)
    lam_text = "" if lam == {()} else pat(lam)
    rho_text = "" if rho == {()} else pat(rho)
    return phi, psi, lam, rho, pat(phi), psi_text, lam_text, rho_text
