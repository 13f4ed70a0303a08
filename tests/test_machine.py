import itertools
import math
import random
import time

import pytest

from wfst import (ANY, EPSILON, ContractError, DivergenceError, FsmError,
                  Machine, ParseError, Semiring, SemiringError, SymbolError,
                  SymbolTable, accepted_pairs, connect, read_text, weight_of,
                  write_text)
from wfst.ops import label_indexes

from helpers import acceptor, build, enum_paths, sample_machines, unfrozen

T = Semiring.TROPICAL
B = Semiring.BOOLEAN
R = Semiring.REAL


# -- symbol tables -------------------------------------------------------


def test_symbol_table_basics():
    t = SymbolTable()
    a = t.add("a")
    b = t.add("b")
    assert a == 1 and b == 2  # 0 is reserved for epsilon
    assert t.add("a") == a
    assert t.find("a") == a and t.find(b) == "b"
    assert "a" in t and a in t
    with pytest.raises(SymbolError):
        t.find("zzz")


def test_symbol_table_roundtrip():
    t = SymbolTable()
    for symbol in ("a", "b", "#", "#x"):
        t.add(symbol)
    text = t.write()
    back = SymbolTable.read(text)
    assert back.items() == t.items()
    assert "<eps>" in text.splitlines()[0]
    with pytest.raises(ParseError, match="line 6: label id -3 is negative"):
        SymbolTable.read(text + "x -3\n")


def test_symbol_table_keeps_a_symbol_at_its_id():
    t = SymbolTable()
    a = t.add("a")
    assert t.add("a", a) == a
    with pytest.raises(SymbolError, match="'a' already mapped to 1"):
        t.add("a", 2)


def test_symbol_table_read_keeps_epsilon_at_zero():
    # '<eps> 0' is implied; mapping '<eps>' or id 0 elsewhere is an error
    assert SymbolTable.read("a 1\n").items() == [(0, "<eps>"), (1, "a")]
    for text in ("<eps> 1\n", "a 0\n"):
        with pytest.raises(ParseError, match="line 1: .*already mapped"):
            SymbolTable.read(text)


def test_symbol_table_comments_are_whole_lines():
    # a line whose first field starts with '#' is a comment unless it is a
    # 'symbol id' entry
    t = SymbolTable.read("# symbols\n<eps> 0\n  # indented\n#\t1\n"
                         "#x 2\n# 3 4\n# comment\n")
    assert t.items() == [(0, "<eps>"), (1, "#"), (2, "#x")]


def test_symbol_table_ids_follow_the_largest_id():
    # an implicit id is one above the largest id so far, whether that id
    # came from a read table, an explicit label or an implicit add
    rng = random.Random(5)
    for trial in range(20):
        ids = rng.sample(range(1, 40), rng.randint(0, 6))
        t = SymbolTable.read("<eps> 0\n" + "".join(
            f"r{label} {label}\n" for label in ids))
        for i in range(30):
            if rng.random() < 0.3:
                label = rng.choice([x for x in range(1, 80) if x not in t])
                assert t.add(f"e{i}", label) == label
            else:
                largest = max(label for label, _ in t.items())
                assert t.add(f"s{i}") == largest + 1, (trial, i)


def test_symbol_table_adds_in_constant_time():
    t = SymbolTable()
    began = time.perf_counter()
    for i in range(20000):
        t.add(f"w{i}")
    assert time.perf_counter() - began < 1.0
    assert t.find("w19999") == 20000


@pytest.mark.parametrize("symbol", ["", "a b", "x\ty", "z\n"])
def test_symbol_table_rejects_symbols_the_formats_cannot_carry(symbol):
    with pytest.raises(SymbolError):
        SymbolTable().add(symbol)


# -- text format ---------------------------------------------------------

ACCEPTOR_TEXT = """\
# weighted acceptor
0 1 a 0.5
1 2 b
2 1.5
"""


def test_read_acceptor_with_symbols():
    syms = SymbolTable()
    syms.add("a")
    syms.add("b")
    m = read_text(ACCEPTOR_TEXT, isymbols=syms)
    assert m.start == 0
    assert m.is_acceptor()
    assert weight_of(m, (1, 2)) == 0.5 + 0.0 + 1.5
    assert weight_of(m, (1,)) == math.inf


def test_read_numeric_transducer():
    text = "0 1 1 2 0.5\n1 1\n"
    m = read_text(text, acceptor=False)
    assert not m.is_acceptor()
    assert weight_of(m, (1,), (2,)) == 1.5


def test_four_field_disambiguation():
    # with acceptor=True the 4th field is a weight; with acceptor=False
    # it is an output label
    text = "0 1 1 2\n1\n"
    ma = read_text(text, acceptor=True)
    mt = read_text(text, acceptor=False)
    assert weight_of(ma, (1,)) == 2.0
    assert weight_of(mt, (1,), (2,)) == 0.0


def symbol_table(*symbols):
    table = SymbolTable()
    for symbol in symbols:
        table.add(symbol)
    return table


def test_write_read_roundtrip_random():
    # every semiring, both shapes, labels 1-3 numeric or printed through a
    # table (epsilon as '<eps>'), a table read back from its own text
    for kind, flag, symbols in itertools.product(
            (T, B, R), (True, False),
            (None, ("a", "bb", "c"), ("#", "#x", "a"))):
        table = None if symbols is None else \
            SymbolTable.read(symbol_table(*symbols).write())
        for m in sample_machines(37, 15, kind=kind, acceptor=flag,
                                 weights=(0.0, 0.5, -1.25, 0.1, 1e22)):
            m.isymbols = m.osymbols = table
            text = write_text(m)
            # write_text's form: an acceptor without an output table
            # spells one label per arc
            back = read_text(text, isymbols=table, osymbols=table, kind=kind,
                             acceptor=m.is_acceptor() and table is None)
            assert write_text(back) == text, (kind, symbols)


def test_a_huge_integral_weight_is_written_in_exponent_form():
    # from magnitude 1e16 on, an integral weight is written by repr, not
    # as an integer of up to 309 digits; below it, as an integer
    m = acceptor(T, [(0, 1, -1e308, 1), (1, 2, 1e16, 2),
                     (2, 3, 9999999999999998.0, 3)], [3])
    text = write_text(m)
    assert text == "0 1 1 -1e+308\n1 2 2 1e+16\n2 3 3 9999999999999998\n3\n"
    assert [arc[2] for q in range(3) for arc in read_text(text).arcs(q)] == \
        [-1e308, 1e16, 9999999999999998.0]


def test_hash_is_a_symbol_and_comments_are_whole_lines():
    table = symbol_table("#", "#x")
    text = "# a comment\n  # another\n0 1 # #x 0.5\n1 2 #x #\n2\n"
    m = read_text(text, isymbols=table, osymbols=table, acceptor=False)
    assert write_text(m) == "0 1 # #x 0.5\n1 2 #x #\n2\n"
    assert weight_of(m, (1, 2), (2, 1)) == 0.5
    # '#' after the first field is a field, not the start of a comment
    with pytest.raises(ParseError, match="expected 'src dst sym"):
        read_text("0 1 1 # comment\n1\n")


PINNED_ERRORS = [
    # text, read_text keywords, exception type, message
    ("zero 1 1\n", {}, ParseError, "line 1: malformed line 'zero 1 1'"),
    ("0 1 1\n1 x 1\n", {}, ParseError, "line 2: malformed line '1 x 1'"),
    ("0 1 1\n65536\n", {}, ParseError, "line 2: malformed line '65536'"),
    ("0 65536 1\n", {}, ParseError, "line 1: malformed line '0 65536 1'"),
    ("0 1 1\n-1\n", {}, ParseError, "line 2: malformed line '-1'"),
    ("0 -1 1\n", {}, ParseError, "line 1: malformed line '0 -1 1'"),
    ("0 1 1 2 3 4\n", {"acceptor": False}, ParseError,
     "line 1: expected 'src dst isym osym [weight]'"),
    ("0 1 1 2 3\n", {}, ParseError, "line 1: expected 'src dst sym [weight]'"),
    ("0 1 1\n1 2 a 0.5\n", {}, ParseError,
     "line 2: no symbol table and non-numeric label 'a'"),
    ("0 1 a\n1 2 zz\n", {"isymbols": symbol_table("a")}, ParseError,
     "line 2: unknown symbol 'zz'"),
    ("0 1 1 0.5\n1 2 1 nan\n", {}, SemiringError,
     "nan is not in the tropical carrier"),
    ("0 1 1\n1 nan\n", {}, SemiringError, "nan is not in the tropical carrier"),
    ("0 1 1 0x10\n", {}, SemiringError, "bad weight literal '0x10'"),
    ("0 1 1 0.5\n1 2 1 inf\n", {"kind": R}, SemiringError,
     "'inf' is not in the real carrier"),
    ("0 1 1 1\n1 2 1 1e999\n", {"kind": B}, SemiringError,
     "inf is not in the boolean carrier"),
]


def test_parse_errors():
    for text, keywords, error, message in PINNED_ERRORS:
        with pytest.raises(FsmError) as raised:
            read_text(text, **keywords)
        assert type(raised.value) is error, text
        assert str(raised.value) == message, text


@pytest.mark.parametrize("text", ["", "\n", "# a comment only\n"])
def test_empty_text_is_a_bare_start_state(text):
    m = read_text(text)
    assert m.num_states == 1 and m.start == 0 and not m.finals
    assert write_text(m) == ""


def test_state_ids_are_bounded_by_the_text():
    # every id below the largest is a state, so this id would ask for
    # 10**20 of them
    with pytest.raises(ParseError):
        read_text("0 99999999999999999999 1\n")
    assert read_text("0 65535 1\n65535\n").num_states == 65536


def test_start_is_source_of_first_line():
    m = read_text("3 1 1\n1\n")
    assert m.start == 3


def test_final_line_weight():
    m = read_text("0 1 1\n1 2.5\n")
    assert m.final(1) == 2.5
    assert m.final(0) == math.inf


def test_a_zero_final_weight_removes_finality():
    for text in ("0 1 1\n1 inf\n", "0 1 1\n1 2.5\n1 inf\n"):
        assert read_text(text).finals == {}
    for kind in Semiring:
        m = Machine(kind)
        m.add_states(2)
        m.set_final(1)
        m.set_final(1, kind.zero)
        assert m.finals == {}


# -- machine mutation and freeze -----------------------------------------


def test_freeze_blocks_mutation():
    m = Machine(T)
    q = m.add_state()
    m.set_start(q)
    m.set_final(q)
    m.freeze()
    with pytest.raises(Exception):
        m.add_arc(q, 1, 1, 0.0, q)


def test_weight_validation():
    m = Machine(R)
    q = m.add_state()
    with pytest.raises(Exception):
        m.add_arc(q, 1, 1, -1.0, q)
    m2 = Machine(T)
    q2 = m2.add_state()
    with pytest.raises(Exception):
        m2.add_arc(q2, 1, 1, float("nan"), q2)


def test_epsilon_is_one_more_input_label_for_determinism():
    # one epsilon arc beside labelled arcs, as determinize flushes a final
    # output, leaves no choice; two epsilon arcs on one state do
    flush = [(0, 1, 1, 0.0, 1), (0, 0, 2, 0.0, 1)]
    assert build(T, flush, [1]).is_deterministic()
    assert build(T, [(0, 0, 2, 0.0, 1)], [1]).is_deterministic()
    assert not build(T, [*flush, (0, 0, 3, 0.0, 1)], [1]).is_deterministic()


def test_predicates():
    m = acceptor(T, [(0, 1, 0.0, 1), (1, 2, 0.0, 0)], [1])
    assert not m.is_acyclic()
    assert m.is_deterministic()
    m2 = acceptor(T, [(0, 1, 0.0, 1), (0, 1, 0.0, 0)], [1])
    assert not m2.is_deterministic()
    m3 = acceptor(T, [(0, 1, 0.0, 1)], [1])
    assert m3.is_acyclic()
    assert m3.topological_order() == [0, 1]


def test_unreachable_cycle_makes_a_machine_cyclic():
    # states 2 and 3 form a cycle that the start cannot reach
    m = acceptor(T, [(0, 1, 0.0, 1), (2, 1, 0.0, 3), (3, 1, 0.0, 2)], [1])
    assert not m.is_acyclic()
    assert m.topological_order() is None
    assert connect(m).is_acyclic()


# -- derived tables ------------------------------------------------------


def count_kahn(monkeypatch):
    """Record every Kahn pass run from now on."""
    calls = []
    kahn = Machine._kahn

    def counted(m):
        calls.append(m)
        return kahn(m)

    monkeypatch.setattr(Machine, "_kahn", counted)
    return calls


def test_frozen_machine_orders_its_states_once(monkeypatch):
    calls = count_kahn(monkeypatch)
    m = acceptor(T, [(0, 1, 0.0, 1), (1, 2, 0.0, 2), (0, 2, 0.0, 2)], [2])
    for _ in range(3):
        assert m.topological_order() == [0, 1, 2]
        assert m.is_acyclic()
    assert calls == [m]


def test_mutable_machine_derives_afresh(monkeypatch):
    calls = count_kahn(monkeypatch)
    m = Machine(T)
    m.add_arc(0, 1, 1, 0.0, 1)
    assert m.topological_order() == [0, 1] and m.is_acceptor()
    m.add_arc(1, 1, 2, 0.0, 0)
    assert m.topological_order() is None and not m.is_acceptor()
    assert len(calls) == 2
    assert label_indexes(m) == {} and label_indexes(m) is not label_indexes(m)
    m.freeze()
    assert m.topological_order() is None
    assert label_indexes(m) == {} and label_indexes(m) is label_indexes(m)


# -- connect -------------------------------------------------------------


def test_connect_returns_a_frozen_trim_machine_numbered_from_zero():
    for m in sample_machines(23, 40, kind=T, max_states=5, max_arcs=8):
        assert connect(m) is m
        with pytest.raises(ContractError, match="not frozen"):
            connect(unfrozen(m))  # no op takes a mutable machine
    # finals listed out of state order are renumbered as trimming lists them
    m = acceptor(T, [(0, 1, 0.0, 1), (0, 2, 0.0, 2)], {2: 0.0, 1: 0.5})
    assert connect(m) is not m
    assert list(connect(m).finals) == [1, 2]
    assert write_text(connect(m)) == write_text(m)


def test_connect_drops_dead_states():
    arcs = [(0, 1, 0.0, 1), (0, 2, 0.0, 2), (2, 1, 0.0, 2), (3, 1, 0.0, 1)]
    m = acceptor(T, arcs, [1], num_states=5)
    t = connect(m)
    # state 2 is a dead end, 3 and 4 unreachable
    assert t.num_states == 2
    assert weight_of(t, (1,)) == weight_of(m, (1,))


@pytest.mark.parametrize("kind", [T, B, Semiring.REAL])
def test_connect_drops_zero_weight_arcs(kind):
    # an arc weighted zero connects nothing, even between useful states
    m = acceptor(kind, [(0, 1, kind.one, 1), (0, 2, kind.zero, 1)], [1])
    t = connect(m)
    assert t is not m
    assert write_text(t) == write_text(acceptor(kind, [(0, 1, kind.one, 1)],
                                                [1]))


def test_connect_empty_language():
    m = acceptor(T, [(0, 1, 0.0, 1)], {2: 0.0}, num_states=3)
    t = connect(m)
    assert t.num_states == 1 and not t.finals


# -- reference oracles against plain DFS ---------------------------------


@pytest.mark.parametrize("kind", [T, B])
def test_weight_of_matches_path_dfs(kind):
    for m in sample_machines(23, 20, kind=kind, max_states=4, max_arcs=6):
        ref = enum_paths(m, 7)
        seen = {}
        for (inp, out), w in ref.items():
            key = (inp, out)
            seen[key] = kind.combine(seen[key], w) if key in seen else w
        for (inp, out), w in list(seen.items())[:30]:
            got = weight_of(m, inp, out, max_path_len=7)
            assert got == w, (inp, out, got, w)


def test_weight_of_wildcard_output():
    m = build(T, [(0, 1, 2, 0.5, 1), (0, 1, 3, 0.25, 1)], [1])
    assert weight_of(m, (1,), ANY) == 0.25
    assert weight_of(m, (1,), (2,)) == 0.5


def test_accepted_pairs_matches_dfs():
    for m in sample_machines(29, 15, kind=T, max_states=4, max_arcs=6):
        ref = enum_paths(m, 6)
        got = accepted_pairs(m, max_path_len=6)
        assert got == ref


def test_real_divergence_flag():
    m = acceptor(R, [(0, 1, 0.5, 0)], {0: 1.0})
    with pytest.raises(DivergenceError):
        weight_of(m, (1,) * 30, max_path_len=8)


CHAIN = [(0, 1, 0.5, 1), (1, 1, 0.5, 2), (2, 1, 0.5, 3)]
# the chain with an input-epsilon loop at its final state
LOOPED = CHAIN + [(3, EPSILON, 0.5, 3)]
WORD = ((1, 1, 1), (1, 1, 1))


@pytest.mark.parametrize("kind", [T, R])
def test_path_bound_counts_paths_of_exactly_that_many_arcs(kind):
    three = kind.times(kind.times(0.5, 0.5), 0.5)
    four = kind.times(three, 0.5)
    chain, looped = acceptor(kind, CHAIN, [3]), acceptor(kind, LOOPED, [3])
    assert accepted_pairs(chain, max_path_len=3) == {WORD: three}
    assert accepted_pairs(chain, max_path_len=2) == {}
    assert accepted_pairs(looped, max_path_len=3) == {WORD: three}
    assert accepted_pairs(looped, max_path_len=4) == {
        WORD: kind.plus(three, four)}
    assert weight_of(chain, WORD[0], max_path_len=3) == three
    if kind is T:
        assert weight_of(chain, WORD[0], max_path_len=2) == T.zero
        assert weight_of(looped, WORD[0], max_path_len=3) == three


def test_real_raises_only_when_a_path_goes_on_past_the_bound():
    chain, looped = acceptor(R, CHAIN, [3]), acceptor(R, LOOPED, [3])
    assert weight_of(chain, WORD[0], max_path_len=3) == 0.125
    with pytest.raises(DivergenceError):
        weight_of(chain, WORD[0], max_path_len=2)
    with pytest.raises(DivergenceError):
        weight_of(looped, WORD[0], max_path_len=3)
    # a loop on a label the input does not spell takes no path past the bound
    other = acceptor(R, CHAIN + [(3, 2, 0.5, 3)], [3])
    assert weight_of(other, WORD[0], max_path_len=3) == 0.125
