"""Every public callable of ``wfst`` returns a result or raises a typed
``FsmError``, and every ``Machine`` it returns is frozen.

One sweep entry per public function and validating constructor draws its
operands with ``hypothesis``:

* machines: ``sample_machines`` draws of all three semirings, a machine
  with no state (``Machine(kind)``), and unfrozen copies of draws;
* views, for the callables that take a generalized state machine:
  ``lazy_compose`` of two draws and ``cached`` draws;
* edge values: ``k`` in ``K``, ``beam`` in ``BEAMS``, thresholds in
  ``THRESHOLDS`` and ``expansion_cap`` in ``CAPS``.

Time is bounded by caps, not by filtering inputs: path bounds stay small,
and ``determinize`` runs under ``expansion_cap``.  A returned view is
expanded, so its lazy work is swept too.
"""

import inspect
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import wfst
from wfst import (LRU, MEMOIZE, REFCOUNT, CachedMachine, CascadeSpec,
                  FsmError, Lattice, LazyComposition, Machine, Rule, Semiring,
                  SymbolTable, accepted_pairs, apply_rewrite,
                  backward_distances, beam_decode, best_path, build_lm_fsa,
                  cached, closure, compact, compile_regex, compile_tree,
                  compile_weighted_rule, complement, compose, concat, connect,
                  count_ngrams, determinize, difference, equivalent, expand,
                  good_turing, intersect, intersect_samelength, katz_model,
                  lattice_prune, lazy_compose, local_determinize, marker,
                  minimize, mle, observation_machine, parse_rule_file,
                  parse_tree, project, push, read_arpa, read_text, rescore,
                  reverse, shortest_distance, twins_test, union, weight_of,
                  write_arpa, write_text)

from helpers import random_rule_spec, sample_machines

INF = math.inf
K = (-1, 0, 1, 10**9)
BEAMS = (0, -1, math.nan, INF)
THRESHOLDS = (math.nan, -INF, -1, 0, INF)
CAPS = (0, 1, 200)
PATH_BOUNDS = (-1, 0, 1, 6)
LABELS = st.lists(st.integers(0, 4), max_size=4)
WORDS = ("a", "b", "c", "<s>", "</s>", "<eps>")


# -- operands -------------------------------------------------------------


def unfrozen(m):
    """A mutable copy of ``m``, built with the checking builder."""
    out = Machine(m.kind, m.isymbols, m.osymbols)
    out.add_states(m.num_states)
    for q, (il, ol, w, t) in m.all_arcs():
        out.add_arc(q, il, ol, w, t)
    for q, w in m.finals.items():
        out.set_final(q, w)
    out.set_start(m.start, m.start_weight)
    return out


def drawn(draw, kind):
    seed = draw(st.integers(0, 2**32 - 1))
    return sample_machines(seed, 1, kind=kind, acceptor=draw(st.booleans()),
                           acyclic=draw(st.booleans()), max_states=5,
                           max_arcs=8)[0]


def machine(draw, kind=None):
    """A draw, a machine with no state, or an unfrozen copy of a draw."""
    kind = kind or draw(st.sampled_from(list(Semiring)))
    shape = draw(st.sampled_from(("drawn", "stateless", "unfrozen")))
    if shape == "stateless":
        return Machine(kind)
    m = drawn(draw, kind)
    return unfrozen(m) if shape == "unfrozen" else m


def pair(draw):
    """Two machines, of one semiring but for one draw in four."""
    kind = draw(st.sampled_from(list(Semiring)))
    other = draw(st.sampled_from([kind] * 3 + list(Semiring)))
    return machine(draw, kind), machine(draw, other)


def view(draw, kind=None):
    """A machine, or a lazy composition or a cache over draws."""
    kind = kind or draw(st.sampled_from(list(Semiring)))
    shape = draw(st.sampled_from(("machine", "lazy", "cached")))
    if shape == "machine":
        return machine(draw, kind)
    if shape == "lazy":
        return lazy_compose(drawn(draw, kind), drawn(draw, kind))
    return cached(drawn(draw, kind))


def cache_discipline(draw):
    return (draw(st.sampled_from((MEMOIZE, LRU, REFCOUNT, "fifo"))),
            draw(st.sampled_from((None, -1, 0, 1, 10**9))))


def corpus(draw):
    return draw(st.lists(st.lists(st.sampled_from(WORDS), max_size=5),
                         max_size=6))


def counts(draw):
    return count_ngrams(corpus(draw), draw(st.sampled_from((-1, 0, 1, 2, 3))))


def model(draw):
    return katz_model(counts(draw), draw(st.sampled_from(K)))


def mutated(draw, text):
    """``text`` with up to three characters replaced, inserted or cut."""
    chars = list(text)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(chars)))
        c = draw(st.sampled_from(" \n\t-.#0129eainf<>sε\\"))
        op = draw(st.sampled_from(("replace", "insert", "cut")))
        if op == "insert" or i == len(chars):
            chars.insert(i, c)
        elif op == "replace":
            chars[i] = c
        else:
            del chars[i]
    return "".join(chars)


def rule(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return Rule(*(mutated(draw, field) if draw(st.booleans()) else field
                  for field in random_rule_spec(rng)[4:]))


TREE = """Class C = [b c]
split left C
 split right a.*
  leaf a -> 0.25 b | 2 c
  leaf a -> 1 c
 leaf a -> a
"""
PATTERNS = ("a", "ab|c", "(a|b)*c", "a+b?", "[abc]d", "~(a.)", "a*&(ab)*",
            "{C}+", "()", ".*a.*", "<1>a")
RULES = "Class V = [a e];\na -> <1>b|c / V _ ;\nb -> a / _ c;\n"


def lattice(draw):
    return Lattice(machine(draw, Semiring.TROPICAL))


def determinized(draw):
    return determinize(machine(draw), draw(st.sampled_from(CAPS)))


def equivalent_pair(draw):
    # equivalent has no cap of its own: it runs only on operands that
    # determinize within 200 subsets.  On the others it fails slowly, as
    # determinize does on input without the twin property, and would stall
    # the sweep.
    a, b = pair(draw)
    for m in (a, b):
        determinize(m, 200)
    return equivalent(a, b)


# name -> a call, drawing its operands through ``draw``
SWEEP = {
    "accepted_pairs": lambda draw: accepted_pairs(
        machine(draw), draw(st.sampled_from(PATH_BOUNDS))),
    "apply_rewrite": lambda draw: apply_rewrite(
        machine(draw), draw(LABELS),
        draw(st.sampled_from(("all", "best", "first")))),
    "backward_distances": lambda draw: backward_distances(machine(draw)),
    "beam_decode": lambda draw: beam_decode(
        CascadeSpec([view(draw, Semiring.TROPICAL)
                     for _ in range(draw(st.integers(1, 2)))]),
        draw(LABELS), draw(st.sampled_from(BEAMS))),
    "best_path": lambda draw: best_path(machine(draw)),
    "build_lm_fsa": lambda draw: build_lm_fsa(model(draw)),
    "cached": lambda draw: expand(cached(view(draw), *cache_discipline(draw))),
    "closure": lambda draw: closure(machine(draw)),
    "compact": lambda draw: compact(machine(draw)),
    "compile_regex": lambda draw: compile_regex(
        mutated(draw, draw(st.sampled_from(PATTERNS))), SymbolTable(),
        {"C": ("b", "c")}),
    "compile_tree": lambda draw: compile_tree(parse_tree(mutated(draw, TREE)),
                                              SymbolTable()),
    "compile_weighted_rule": lambda draw: compile_weighted_rule(
        rule(draw), SymbolTable()),
    "complement": lambda draw: complement(
        machine(draw), draw(st.sampled_from((None, (), (1, 2), (0, 5))))),
    "compose": lambda draw: compose(*pair(draw)),
    "concat": lambda draw: concat(*pair(draw), *pair(draw)[:1]),
    "connect": lambda draw: connect(machine(draw)),
    "count_ngrams": counts,
    "determinize": determinized,
    "difference": lambda draw: difference(*pair(draw)),
    "equivalent": equivalent_pair,
    "expand": lambda draw: expand(view(draw)),
    "good_turing": lambda draw: good_turing(
        draw(st.dictionaries(st.integers(-1, 4), st.integers(-1, 4))),
        draw(st.integers(-1, 5)), draw(st.sampled_from(K))),
    "intersect": lambda draw: intersect(*pair(draw)),
    "intersect_samelength": lambda draw: intersect_samelength(*pair(draw)),
    "katz_model": model,
    "lattice_prune": lambda draw: lattice_prune(
        lattice(draw), draw(st.sampled_from(THRESHOLDS))).machine,
    "lazy_compose": lambda draw: expand(lazy_compose(view(draw), view(draw))),
    "local_determinize": lambda draw: local_determinize(
        machine(draw), draw(st.sampled_from(K))),
    "marker": lambda draw: marker(
        machine(draw), draw(st.integers(0, 4)),
        draw(st.sampled_from(((), (5,), (5, 6)))),
        draw(st.sampled_from(((), (5,))))),
    "minimize": lambda draw: minimize(
        determinized(draw) if draw(st.booleans()) else machine(draw)),
    "mle": lambda draw: mle(counts(draw), draw(LABELS), draw(st.booleans())),
    "observation_machine": lambda draw: observation_machine(
        draw(LABELS), draw(st.sampled_from(list(Semiring)))),
    "parse_rule_file": lambda draw: parse_rule_file(mutated(draw, RULES)),
    "parse_tree": lambda draw: parse_tree(mutated(draw, TREE)),
    "project": lambda draw: project(
        machine(draw), draw(st.sampled_from(("input", "output", "both")))),
    "push": lambda draw: push(
        machine(draw), draw(st.sampled_from(("weights", "strings", "all")))),
    "read_arpa": lambda draw: read_arpa(mutated(draw, write_arpa(
        katz_model(count_ngrams([["a", "b"], ["b", "c", "a"]], 2))))),
    "read_text": lambda draw: read_text(
        mutated(draw, write_text(drawn(draw, Semiring.TROPICAL))),
        kind=draw(st.sampled_from(list(Semiring))),
        acceptor=draw(st.sampled_from((None, True, False)))),
    "rescore": lambda draw: rescore(lattice(draw), machine(draw)),
    "reverse": lambda draw: reverse(machine(draw)),
    "shortest_distance": lambda draw: shortest_distance(machine(draw)),
    "twins_test": lambda draw: twins_test(machine(draw)),
    "union": lambda draw: union(*pair(draw)),
    "weight_of": lambda draw: weight_of(
        machine(draw), draw(LABELS), draw(LABELS),
        draw(st.sampled_from(PATH_BOUNDS))),
    "write_arpa": lambda draw: write_arpa(model(draw)),
    "write_text": lambda draw: write_text(
        machine(draw), draw(st.sampled_from((None, True, False)))),
    # the constructors that check their arguments
    "CachedMachine": lambda draw: expand(CachedMachine(
        view(draw), *cache_discipline(draw))),
    "CascadeSpec": lambda draw: CascadeSpec(
        [view(draw) for _ in range(draw(st.integers(0, 2)))]),
    "Lattice": lattice,
    "LazyComposition": lambda draw: expand(LazyComposition(view(draw),
                                                           view(draw))),
}

# public callables left out of the sweep, each with the reason
EXEMPT = {
    "Machine": "the checking builder, tested in test_machine",
    "SymbolTable": "a symbol map; its reader is swept in test_parsers",
    "Semiring": "an enumeration",
    "Rule": "a plain record",
    "TreeLeaf": "a plain record",
    "DecisionTreeSpec": "a plain record",
    "CountTable": "a plain record",
    "BackoffModel": "a plain record",
    **{name: "an error class" for name, value in vars(wfst).items()
       if inspect.isclass(value) and issubclass(value, Exception)},
}


def test_every_public_callable_is_swept_or_exempt():
    public = {name for name, value in vars(wfst).items()
              if not name.startswith("_") and callable(value)}
    assert sorted(public - set(SWEEP) - set(EXEMPT)) == []
    assert sorted((set(SWEEP) | set(EXEMPT)) - public) == []


@pytest.mark.parametrize("name", sorted(SWEEP))
@settings(deadline=None, max_examples=20, derandomize=True)
@given(data=st.data())
def test_a_call_returns_or_raises_a_typed_error(name, data):
    try:
        out = SWEEP[name](data.draw)
    except FsmError:
        return
    if isinstance(out, Machine):
        assert out._frozen
