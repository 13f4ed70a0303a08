"""Every public callable of ``wfst`` returns a result or raises a typed
``FsmError``, and every ``Machine`` it returns is frozen.

One sweep entry per public function and validating constructor draws its
operands with ``hypothesis``:

* machines: ``sample_machines`` draws of all three semirings and, one
  time in five, a machine with no state (``Machine(kind)``) or an
  unfrozen copy of a draw;
* views, for the callables that take a generalized state machine:
  ``lazy_compose`` of two draws and ``cached`` draws;
* edge values: ``k`` in ``K``, ``beam`` in ``BEAMS``, thresholds in
  ``THRESHOLDS`` and ``expansion_cap`` in ``CAPS``.

Time is bounded by caps, not by filtering inputs: path bounds stay small,
and ``determinize`` runs under ``expansion_cap``.  A returned view is
expanded, so its lazy work is swept too.

A second sweep holds each function to the operand contract: one that
takes a ``Machine`` raises ``ContractError`` on a lazy view, on an object
that only has a machine's names, on an unfrozen machine, or on an object
that is no machine at all (``None``, ``42``), and the view readers take
views, with or without symbol tables, but refuse the last two shapes.
A function that takes a record (a ``Lattice``, ``CascadeSpec``,
``CountTable``, ``BackoffModel``, ``Rule`` or ``DecisionTreeSpec``)
raises ``ContractError`` on ``None`` or a frozen machine in its place.
"""

import inspect
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import wfst
from wfst import (LRU, MEMOIZE, REFCOUNT, CachedMachine, CascadeSpec,
                  ContractError, FsmError, Lattice, LazyComposition, Machine,
                  Rule, Semiring, SymbolTable, accepted_pairs, apply_rewrite,
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
from wfst.ngram import write_counts
from wfst.rewrite import register_symbols

from helpers import acceptor, random_rule_spec, sample_machines, unfrozen

INF = math.inf
K = (-1, 0, 1, 10**9)
BEAMS = (0, -1, math.nan, INF)
THRESHOLDS = (math.nan, -INF, -1, 0, INF)
CAPS = (0, 1, 200)
PATH_BOUNDS = (-1, 0, 1, 6)
LABELS = st.lists(st.integers(0, 4), max_size=4)
WORDS = ("a", "b", "c", "<s>", "</s>", "<eps>")


# -- operands -------------------------------------------------------------


def drawn(draw, kind):
    seed = draw(st.integers(0, 2**32 - 1))
    return sample_machines(seed, 1, kind=kind, acceptor=draw(st.booleans()),
                           acyclic=draw(st.booleans()), max_states=5,
                           max_arcs=8)[0]


def machine(draw, kind=None):
    """A draw, or one time in five a machine with no state or an unfrozen
    copy of a draw, which every op refuses at its first read of the start
    (the operand contract sweep below holds each op to that)."""
    kind = kind or draw(st.sampled_from(list(Semiring)))
    shape = draw(st.sampled_from(("drawn",) * 8 + ("stateless", "unfrozen")))
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
    "compile_tree": lambda draw: compile_tree(parse_tree(mutated(draw, TREE))),
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
    "mle": lambda draw: mle(counts(draw), draw(LABELS)),
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
    "write_text": lambda draw: write_text(machine(draw)),
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


# -- the operand contract -------------------------------------------------
#
# Every op takes frozen machines: a lazy view or any other object passed
# where a ``Machine`` is expected, or a machine that is not frozen, raises
# ``ContractError``.
# Only the view readers take views, and they too raise ``ContractError``
# on an object that is no state machine or on an unfrozen machine.

T, B = Semiring.TROPICAL, Semiring.BOOLEAN


class Duck:
    """A generalized state machine by its names alone: ``m``'s kind,
    start, start weight, final weights and arcs, with no library base and
    no symbol tables."""

    def __init__(self, m):
        self.kind, self.start, self.start_weight = (m.kind, m.start,
                                                    m.start_weight)
        self.final, self.arcs = m.final, m.arcs


# shape -> (the operand made of a frozen machine, the error it raises)
SHAPES = {
    "lazy_compose": (lambda a: lazy_compose(a, a), "frozen Machine"),
    "cached": (cached, "frozen Machine"),
    "duck": (Duck, "frozen Machine"),
    "unfrozen": (unfrozen, "not frozen"),
    "none": (lambda a: None, "frozen Machine"),
    "int": (lambda a: 42, "frozen Machine")}

# (function, semiring, a call that passes operand ``e`` where a frozen
# machine is expected, beside the frozen machine ``m``)
TAKES_MACHINES = [
    ("accepted_pairs", T, lambda e, m: accepted_pairs(e)),
    ("backward_distances", T, lambda e, m: backward_distances(e)),
    ("beam_decode", T, lambda e, m: beam_decode(CascadeSpec([m, e]), [1])),
    ("best_path", T, lambda e, m: best_path(e)),
    ("closure", T, lambda e, m: closure(e)),
    ("compact", T, lambda e, m: compact(e)),
    ("complement", B, lambda e, m: complement(e)),
    ("concat", T, lambda e, m: concat(e, m)),
    ("concat", T, lambda e, m: concat(m, e)),
    ("connect", T, lambda e, m: connect(e)),
    ("determinize", T, lambda e, m: determinize(e)),
    ("difference", B, lambda e, m: difference(e, m)),
    ("difference", B, lambda e, m: difference(m, e)),
    ("equivalent", T, lambda e, m: equivalent(e, m)),
    ("equivalent", T, lambda e, m: equivalent(m, e)),
    ("intersect", T, lambda e, m: intersect(e, m)),
    ("intersect", T, lambda e, m: intersect(m, e)),
    ("intersect_samelength", T, lambda e, m: intersect_samelength(e, m)),
    ("intersect_samelength", T, lambda e, m: intersect_samelength(m, e)),
    ("lattice_prune", T, lambda e, m: lattice_prune(Lattice(e), 1.0)),
    ("local_determinize", T, lambda e, m: local_determinize(e, 1)),
    ("marker", T, lambda e, m: marker(e, 1, insert=(2,))),
    ("minimize", T, lambda e, m: minimize(e)),
    ("project", T, lambda e, m: project(e, "input")),
    ("push", T, lambda e, m: push(e, "weights")),
    ("push", T, lambda e, m: push(e, "strings")),
    ("rescore", T, lambda e, m: rescore(Lattice(e), m)),
    ("reverse", T, lambda e, m: reverse(e)),
    ("shortest_distance", T, lambda e, m: shortest_distance(e)),
    ("twins_test", T, lambda e, m: twins_test(e)),
    ("union", T, lambda e, m: union(e, m)),
    ("union", T, lambda e, m: union(m, e)),
    ("weight_of", T, lambda e, m: weight_of(e, (1,))),
    ("write_text", T, lambda e, m: write_text(e)),
    ("CascadeSpec", T, lambda e, m: CascadeSpec([e])),
    ("Lattice", T, lambda e, m: Lattice(e)),
]

# the view readers, and the calls that only compose the machine they take:
# (function, a call that passes the generalized state machine ``v``)
READS_VIEWS = [
    ("compose", lambda v, m: compose(v, m)),
    ("compose", lambda v, m: compose(m, v)),
    ("lazy_compose", lambda v, m: expand(lazy_compose(v, m))),
    ("lazy_compose", lambda v, m: expand(lazy_compose(m, v))),
    ("LazyComposition", lambda v, m: expand(LazyComposition(m, v))),
    ("cached", lambda v, m: expand(cached(v))),
    ("CachedMachine", lambda v, m: expand(CachedMachine(v, LRU, 1))),
    ("expand", lambda v, m: expand(v)),
    ("apply_rewrite", lambda v, m: apply_rewrite(v, [1])),
    ("rescore", lambda v, m: rescore(Lattice(m), v)),
]

TAKES_NO_MACHINE = {
    "build_lm_fsa", "compile_regex", "compile_tree", "compile_weighted_rule",
    "count_ngrams", "good_turing", "katz_model", "mle", "observation_machine",
    "parse_rule_file", "parse_tree", "read_arpa", "read_text", "write_arpa"}


def ids(table):
    """Each entry's function name, numbered where it has more than one."""
    names = [entry[0] for entry in table]
    return [f"{name}-{names[:i].count(name)}" if names.count(name) > 1
            else name for i, name in enumerate(names)]


def one_arc(kind):
    """A valid operand of every call above: one arc, label 1, to a final."""
    return acceptor(kind, [(0, 1, kind.one, 1)], [1])


def test_every_swept_function_has_its_operand_contract_tested():
    tested = {name for name, _, _ in TAKES_MACHINES} | {
        name for name, _ in READS_VIEWS}
    assert sorted(set(SWEEP) - tested - TAKES_NO_MACHINE) == []
    assert not tested & TAKES_NO_MACHINE


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("name, kind, call", TAKES_MACHINES,
                         ids=ids(TAKES_MACHINES))
def test_an_op_rejects_a_view_or_an_unfrozen_machine(name, kind, call,
                                                     shape):
    a = one_arc(kind)
    make, message = SHAPES[shape]
    with pytest.raises(ContractError, match=message):
        call(make(a), a)


@pytest.mark.parametrize("name, call", READS_VIEWS, ids=ids(READS_VIEWS))
def test_the_view_readers_take_views_and_no_unfrozen_machine(name, call):
    def result(out):
        return accepted_pairs(out) if isinstance(out, Machine) else out

    a = one_arc(T)
    expected = result(call(a, a))
    # a composed with itself has a's relation, so every view reads as a
    for view in (lazy_compose(a, a), cached(a), Duck(a)):
        assert result(call(view, a)) == expected
    with pytest.raises(ContractError, match="not frozen"):
        call(unfrozen(a), a)


@pytest.mark.parametrize("shape", ("none", "int"))
@pytest.mark.parametrize("name, call", READS_VIEWS, ids=ids(READS_VIEWS))
def test_the_view_readers_refuse_an_object_that_is_no_state_machine(
        name, call, shape):
    a = one_arc(T)
    with pytest.raises(ContractError, match="not a state machine"):
        call(SHAPES[shape][0](a), a)


# -- the record operands --------------------------------------------------

# (function, the record class it takes, a call that passes ``r`` in its
# place)
TAKES_RECORDS = [
    ("beam_decode", "CascadeSpec", lambda r: beam_decode(r, [1])),
    ("build_lm_fsa", "BackoffModel", lambda r: build_lm_fsa(r)),
    ("compile_tree", "DecisionTreeSpec", lambda r: compile_tree(r)),
    ("compile_weighted_rule", "Rule", lambda r: compile_weighted_rule(r)),
    ("katz_model", "CountTable", lambda r: katz_model(r)),
    ("lattice_prune", "Lattice", lambda r: lattice_prune(r, 1.0)),
    ("mle", "CountTable", lambda r: mle(r, (1,))),
    ("register_symbols", "Rule",
     lambda r: register_symbols(r, SymbolTable())),
    ("rescore", "Lattice", lambda r: rescore(r, one_arc(T))),
    ("write_arpa", "BackoffModel", lambda r: write_arpa(r)),
    ("write_counts", "CountTable", lambda r: write_counts(r)),
]


def test_every_public_function_that_takes_a_record_has_it_tested():
    records = {"Lattice", "CascadeSpec", "CountTable", "BackoffModel", "Rule",
               "DecisionTreeSpec"}
    takes = set()
    for name, value in vars(wfst).items():
        if inspect.isfunction(value) and not name.startswith("_"):
            params = inspect.signature(value).parameters.values()
            if {str(p.annotation) for p in params} & records:
                takes.add(name)
    assert takes == {name for name, _, _ in TAKES_RECORDS} - {
        "register_symbols", "write_counts"}


@pytest.mark.parametrize("operand", ("none", "machine"))
@pytest.mark.parametrize("name, record, call", TAKES_RECORDS,
                         ids=ids(TAKES_RECORDS))
def test_a_function_that_takes_a_record_refuses_anything_else(
        name, record, call, operand):
    r = None if operand == "none" else one_arc(T)
    with pytest.raises(ContractError, match=f"is not a {record}$"):
        call(r)
