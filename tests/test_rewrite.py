import random

import pytest
from hypothesis import given, settings, strategies as st

from wfst import (ContractError, Machine, ParseError, Rule, Semiring,
                  SemiringError, SymbolError, SymbolTable, apply_rewrite,
                  compile_regex, compile_tree, compile_weighted_rule,
                  intersect_samelength, marker, parse_rule_file, parse_tree,
                  read_text, weight_of)
from wfst import observation_machine, ops
from wfst.rewrite import register_symbols

from helpers import build, random_rule_spec, scan_rewrite, strings_up_to

B = Semiring.BOOLEAN
T = Semiring.TROPICAL


# -- regular expressions -------------------------------------------------


def regex_lang(pattern, symtab, max_len, classes=None):
    m = compile_regex(pattern, symtab, classes)
    return {s for s in strings_up_to(symtab.labels(), max_len)
            if weight_of(m, s, max_path_len=3 * max_len + 6) != 0.0}


def naive_regex_lang(strings, max_len):
    """Language given directly as a set of symbol tuples."""
    return {s for s in strings if len(s) <= max_len}


def test_regex_literals_and_operators():
    t = SymbolTable()
    a, b, c = t.add("a"), t.add("b"), t.add("c")
    assert regex_lang("ab", t, 3) == {(a, b)}
    assert regex_lang("a|b", t, 2) == {(a,), (b,)}
    assert regex_lang("a*", t, 3) == {(), (a,), (a, a), (a, a, a)}
    assert regex_lang("a+", t, 3) == {(a,), (a, a), (a, a, a)}
    assert regex_lang("a?", t, 2) == {(), (a,)}
    assert regex_lang("(ab)*", t, 4) == {(), (a, b), (a, b, a, b)}
    assert regex_lang("()", t, 2) == {()}


def test_regex_dot_and_class():
    t = SymbolTable()
    a, b = t.add("a"), t.add("b")
    assert regex_lang(".", t, 1) == {(a,), (b,)}
    assert regex_lang("[ab]", t, 1) == {(a,), (b,)}
    classes = {"V": ("a",)}
    assert regex_lang("{V}b", t, 2, classes=classes) == {(a, b)}


def test_regex_character_class_takes_classes_but_no_operators():
    t = SymbolTable()
    lang = regex_lang("[{C}d]", t, 1, classes={"C": ("b", "c")})
    assert lang == {(t.find(s),) for s in "bcd"}
    with pytest.raises(ParseError, match=r"operator '\|' inside character"):
        compile_regex("[a|b]", t)


def test_regex_complement_and_intersection():
    t = SymbolTable()
    a, b = t.add("a"), t.add("b")
    every = set(strings_up_to((a, b), 2))
    assert regex_lang("~a", t, 2) == every - {(a,)}
    assert regex_lang("(a|b)&(b|())", t, 2) == {(b,)}


def test_regex_oracle_random():
    rng = random.Random(91)
    t = SymbolTable()
    a, b = t.add("a"), t.add("b")
    for _ in range(30):
        # random union of literal strings: language known by construction
        strs = {tuple(rng.choice((a, b))
                      for _ in range(rng.randint(0, 3)))
                for _ in range(rng.randint(1, 4))}
        pattern = "|".join("".join(t.find(x) for x in s) if s else "()"
                           for s in sorted(strs))
        assert regex_lang(pattern, t, 3) == naive_regex_lang(strs, 3)


def test_regex_parse_errors():
    t = SymbolTable()
    t.add("a")
    deep = "(" * 100 + "a" + ")" * 100  # as deep as '(' and '~' may nest
    for bad in ("(a", "a)", "*", "[", "a~", "{unclosed", f"({deep})",
                "~" * 101 + "a"):
        with pytest.raises(ParseError):
            compile_regex(bad, t)
    assert regex_lang(deep, t, 2) == {(t.find("a"),)}
    # a trailing '|' is a union with the empty string, not an error
    assert regex_lang("a|", t, 2) == {(), (t.find("a"),)}
    # '{name}' coins a multi-character symbol on first use
    t2 = SymbolTable()
    compile_regex("{sil}", t2)
    assert "sil" in t2


def test_regex_concatenation_copies_each_part_once(monkeypatch):
    # folding the parts pairwise copied the whole prefix at every step, so
    # the arcs copied grew with the square of the pattern's length
    counts = []
    shifted = ops._shifted

    def counted(m, offset):
        arcs = shifted(m, offset)
        counts[-1] += sum(map(len, arcs))
        return arcs

    monkeypatch.setattr(ops, "_shifted", counted)
    t = SymbolTable()
    sizes = []
    for n in (200, 400):
        counts.append(0)
        sizes.append(compile_regex("ab" * (n // 2), t).num_states)
    assert sizes[1] <= 2 * sizes[0]
    assert 0 < counts[1] <= 2.1 * counts[0]


# -- marker transducers --------------------------------------------------


def outputs_of(m, inp, bound=24):
    from wfst import accepted_pairs, compose, connect
    from wfst.decode import observation_machine
    chain = observation_machine(inp, kind=m.kind)
    comp = connect(compose(chain, m))
    pairs = accepted_pairs(comp, max_path_len=bound)
    return {out for (_, out) in pairs}


def marker_fixture():
    """Deterministic acceptor for strings ending in 'ab' over {a, b}."""
    t = SymbolTable()
    a, b = t.add("a"), t.add("b")
    rx = compile_regex("(a|b)*ab", t)
    from wfst import determinize
    return determinize(rx), a, b


def test_marker_type1_inserts_after_matches():
    alpha, a, b = marker_fixture()
    mk = 9
    m = marker(alpha, 1, insert=(mk,))
    assert outputs_of(m, (a, a, b)) == {(a, a, b, mk)}
    assert outputs_of(m, (a, b, a, b)) == {(a, b, mk, a, b, mk)}
    assert outputs_of(m, (b, a)) == {(b, a)}


def test_marker_type2_checks_and_deletes():
    alpha, a, b = marker_fixture()
    mk = 9
    m = marker(alpha, 2, delete=(mk,))
    # marker after a match is consumed; elsewhere the input is rejected
    assert outputs_of(m, (a, b, mk)) == {(a, b)}
    assert outputs_of(m, (a, mk, b)) == set()
    assert outputs_of(m, (a, b)) == {(a, b)}


def test_marker_type3_complements_type2():
    alpha, a, b = marker_fixture()
    mk = 9
    m = marker(alpha, 3, delete=(mk,))
    assert outputs_of(m, (a, mk, b)) == {(a, b)}
    assert outputs_of(m, (a, b, mk)) == set()


def test_marker_choice_set():
    alpha, a, b = marker_fixture()
    m = marker(alpha, 1, insert=(8, 9))
    assert outputs_of(m, (a, b)) == {(a, b, 8), (a, b, 9)}


def test_marker_refuses_an_epsilon_acceptor():
    # epsilon passes is_deterministic, but a complete table reads labels
    for arcs in ([(0, 0, 0, 1.0, 1)], [(0, 0, 0, 1.0, 1), (0, 1, 1, 1.0, 1)]):
        alpha = build(B, arcs, [1])
        assert alpha.is_deterministic()
        with pytest.raises(ContractError, match="epsilon-free"):
            marker(alpha, 1, insert=(9,))


def test_marker_bad_type():
    alpha, a, b = marker_fixture()
    with pytest.raises(ContractError):
        marker(alpha, 4, insert=(9,))


# -- rewrite rules -------------------------------------------------------


def apply_strings(fst, text, mode="all"):
    table = fst.isymbols
    out = apply_rewrite(fst, list(text), mode=mode)
    return {tuple(table.find(x) for x in labels): w for labels, w in out}


def test_apply_rewrite_on_a_machine_without_symbol_table():
    fst = read_text("0 1 1 2\n1\n", acceptor=False)
    assert apply_rewrite(fst, ["1"]) == [((2,), 0.0)]
    assert apply_rewrite(fst, [1]) == [((2,), 0.0)]
    # a symbol missing from the table, and tokens that are no label at all
    for token in ("a", 1.7, 1.0, True, None):
        with pytest.raises(SymbolError):
            apply_rewrite(fst, [token])


def test_apply_rewrite_checks_mode_first():
    fst = compile_weighted_rule(Rule("a", "b"))
    # 99 is no symbol of the rule, so the rule rejects it, and no output
    # is returned; a bad mode is still reported, as for an accepted input
    for inp in ([99], ["a"]):
        with pytest.raises(ContractError, match="mode"):
            apply_rewrite(fst, inp, mode="typo")


def test_apply_rewrite_all_refuses_infinitely_many_rewritings():
    fst = compile_weighted_rule(Rule("a", "b*"))
    with pytest.raises(ContractError, match="infinitely many"):
        apply_rewrite(fst, ["a"], mode="all")
    assert apply_rewrite(fst, ["a"], mode="best") == [((), 0.0)]


def test_apply_rewrite_reads_past_a_dead_cycle():
    # 0 -e:3-> 2 is kept by the lookahead (2 reads 1), but 2 loops and
    # never finishes: the untrimmed composition of the input 1 is cyclic,
    # while its trimmed part is one arc, so 'all' still has an answer
    rule = build(T, [(0, 1, 2, 0.0, 1), (0, 0, 3, 0.0, 2), (2, 0, 3, 0.0, 2),
                     (2, 1, 1, 0.0, 3)], {1: 0.0})
    untrimmed = ops._compose_untrimmed(observation_machine([1]), rule)
    assert not untrimmed.is_acyclic()
    for mode in ("all", "best"):
        assert apply_rewrite(rule, [1], mode) == [((2,), 0.0)]


def test_apply_rewrite_carries_no_path_over_a_zero_weight_arc():
    inf = float("inf")
    # the only path of the input 1 crosses a zero-weight arc
    rule = build(T, [(0, 1, 2, inf, 1)], {1: 0.0})
    for mode in ("all", "best"):
        assert apply_rewrite(rule, [1], mode) == []
    # behind the zero-weight arc lies a negative cycle, which only an
    # untrimmed search would meet
    rule = build(T, [(0, 1, 2, inf, 1), (1, 0, 3, -1.0, 1), (0, 1, 4, 0.0, 2)],
                 {1: 0.0, 2: 0.0})
    for mode in ("all", "best"):
        assert apply_rewrite(rule, [1], mode) == [((4,), 0.0)]


def test_apply_rewrite_best_reports_a_rejected_input_before_the_semiring():
    # BOOLEAN: 1 is accepted, 3 only over a zero-weight arc, 2 not at all
    rule = build(B, [(0, 1, 2, 1.0, 1), (0, 3, 3, 0.0, 1)], {1: 1.0})
    assert apply_rewrite(rule, [1]) == [((2,), 1.0)]
    for inp in ([2], [3]):
        assert apply_rewrite(rule, inp, "best") == []
    with pytest.raises(ContractError, match="TROPICAL"):
        apply_rewrite(rule, [1], "best")


def test_simple_rule_displayed_example():
    fst = compile_weighted_rule(Rule("a", "b", "c", "b"))
    assert apply_strings(fst, "cab") == {tuple("cbb"): 0.0}
    assert apply_strings(fst, "cabcab") == {tuple("cbbcbb"): 0.0}
    # no context: the rule must not fire
    assert apply_strings(fst, "aab") == {tuple("aab"): 0.0}


def test_voicing_rule():
    rule = Rule("s", "z", "", "($|#){VStop}",
                classes={"VStop": ("m", "b", "d", "g"),
                         "Sigma": tuple("misoztbdg$#aeiou")})
    fst = compile_weighted_rule(rule)
    assert apply_strings(fst, "mis$mo$") == {tuple("miz$mo$"): 0.0}
    assert apply_strings(fst, "mis$to$") == {tuple("mis$to$"): 0.0}


def test_weighted_rule_displayed_example():
    fst = compile_weighted_rule(Rule("c", "<0.9>c|<0.1>t", "a", "t"))
    assert apply_strings(fst, "act") == {tuple("act"): 0.9, tuple("att"): 0.1}
    assert apply_strings(fst, "act", mode="best") == {tuple("att"): 0.1}


def test_rule_markers_absent_from_output():
    fst = compile_weighted_rule(Rule("a", "b", "c", "b"))
    labels = set(fst.isymbols.labels())
    for _, (il, ol, _, _) in fst.all_arcs():
        assert il in labels | {0}
        assert ol in labels | {0}


def test_rule_rejects_empty_pattern():
    with pytest.raises(ContractError):
        compile_weighted_rule(Rule("a*", "b"))


def test_obligatory_left_context_on_output_side():
    # b -> a / a _  : after rewriting, the freshly emitted 'a' licenses
    # the next 'b'
    fst = compile_weighted_rule(Rule("b", "a", "a", ""))
    assert apply_strings(fst, "abbb") == {tuple("aaaa"): 0.0}


def test_rule_oracle_random():
    rng = random.Random(101)
    t_alpha = ("a", "b", "c")
    for i in range(60):
        phi, psi, lam, rho, phi_t, psi_t, lam_t, rho_t = \
            random_rule_spec(rng, t_alpha)
        symtab = SymbolTable()
        for s in t_alpha:
            symtab.add(s)
        fst = compile_weighted_rule(
            Rule(phi_t, psi_t, lam_t, rho_t), symtab)
        for _ in range(4):
            inp = [rng.choice(t_alpha) for _ in range(rng.randint(0, 7))]
            expected = scan_rewrite(inp, phi, psi, lam, rho)
            got = apply_strings(fst, inp)
            assert set(got) == set(expected), (phi_t, psi_t, lam_t, rho_t, inp)
            for out, w in expected.items():
                assert got[out] == pytest.approx(w), \
                    (phi_t, psi_t, lam_t, rho_t, inp, out)


def test_fibonacci_normalization():
    # abb -> baa applied to fixpoint: repeated application terminates and
    # is confluent on these inputs
    fst = compile_weighted_rule(Rule("abb", "baa", "", ""))
    word = list("aabbabb")
    seen = set()
    for _ in range(20):
        outs = apply_strings(fst, word)
        assert len(outs) == 1
        nxt = "".join(next(iter(outs)))
        if tuple(nxt) == tuple(word):
            break
        word = list(nxt)
        assert tuple(word) not in seen
        seen.add(tuple(word))
    else:
        pytest.fail("rewriting did not reach a fixpoint")


def test_idempotent_when_psi_disjoint_from_phi():
    fst = compile_weighted_rule(Rule("a", "b", "", ""))
    once = apply_strings(fst, "aba")
    assert once == {tuple("bbb"): 0.0}
    again = apply_strings(fst, "bbb")
    assert again == {tuple("bbb"): 0.0}


# -- rule files ----------------------------------------------------------


def test_parse_rule_file():
    text = """
    # voicing
    Class V = [a e i o u];
    s -> z / _ ($|#){V};
    a -> b ;
    """
    rules = parse_rule_file(text)
    assert len(rules) == 2
    assert rules[0].phi == "s" and rules[0].rho == "($|#){V}"
    assert rules[0].classes["V"] == ("a", "e", "i", "o", "u")
    assert rules[1].lam == "" and rules[1].rho == ""


def refuse_to_build(*args, **kwargs):
    raise AssertionError("a machine was built")


@pytest.mark.parametrize("cost", ["nan", "-inf"])
def test_psi_cost_outside_the_carrier_raises_before_any_machine(
        monkeypatch, cost):
    rule = Rule("a", f"<{cost}>b|c")
    monkeypatch.setattr(Machine, "_from_parts", refuse_to_build)
    with pytest.raises(SemiringError):
        compile_weighted_rule(rule)


@pytest.mark.parametrize("cost", ["nan", "-inf"])
def test_leaf_cost_outside_the_carrier_raises_before_any_machine(
        monkeypatch, cost):
    spec = parse_tree(f"split right a\n leaf a -> {cost} b\n leaf a -> a\n")
    monkeypatch.setattr(Machine, "_from_parts", refuse_to_build)
    with pytest.raises(SemiringError):
        compile_tree(spec)


def test_parse_rule_file_errors():
    with pytest.raises(ParseError):
        parse_rule_file("this is not a rule;")
    with pytest.raises(ParseError):
        parse_rule_file("a -> b / nocontext;")


@pytest.mark.parametrize("text, line", [
    ("# c\n\na -> b;\nfoo;\n", 4),
    ("a -> b; c -> d;\n\n\nx -> y / nocontext;\n", 4),
    ("a -> b;\n# c\n\n  c -> {d;\n", 4),
    ("a -> b;\nc ->\nd / e;\n", 2)])
def test_a_rule_file_error_names_the_line_its_statement_starts_on(text,
                                                                   line):
    with pytest.raises(ParseError, match=f"^line {line}: ") as info:
        parse_rule_file(text)
    assert info.value.line == line


@pytest.mark.parametrize("text, line", [
    ("# c\nsplit left a\n split up a\n  leaf a -> b\n", 3),
    ("split left a\n leaf a -> 1 b c\n leaf a -> a\n", 2),
    ("split left a\n leaf a -> x b\n leaf a -> a\n", 2),
    ("split left a\n leaf a -> b\n leaf a -> a\n\nleaf a -> c\n", 5),
    ("split left a\n leaf a -> b\n\n# c\nleaf a -> c\n", 1),
    ("split left a\n leaf ->\n leaf a -> a\n", 2),
    ("leaf a -> a\n\nnode\n", 3)])
def test_a_tree_error_names_its_line(text, line):
    with pytest.raises(ParseError, match=f"^line {line}: ") as info:
        parse_tree(text)
    assert info.value.line == line


def compiled(text):
    """The first rule of a rule file, compiled over the file's alphabet."""
    rules = parse_rule_file(text)
    table = SymbolTable()
    for rule in rules:
        register_symbols(rule, table)
    return compile_weighted_rule(rules[0], table)


def test_a_class_name_with_an_underscore_is_one_token_of_a_context():
    [rule] = parse_rule_file("Class my_vowel = [e i]; a -> b / my_vowel _ ;")
    assert (rule.lam, rule.rho) == ("my_vowel", "")
    fst = compiled("Class my_vowel = [e i]; a -> b / my_vowel _ ;")
    assert apply_strings(fst, "ea") == {("e", "b"): 0.0}
    assert apply_strings(fst, "aa") == {("a", "a"): 0.0}


@pytest.mark.parametrize("text, word, outputs", [
    ("a -> {x|y};", "a", {("x|y",): 0.0}),
    ("a -> <1>{)}|<2>b;", "a", {(")",): 1.0, ("b",): 2.0}),
    ("a -> <1>b|<2>{x|y};", "a", {("b",): 1.0, ("x|y",): 2.0}),
    ("{->} -> b;", ["->"], {("b",): 0.0}),
    ("a -> {/};", "a", {("/",): 0.0}),
    ("a -> b / {_} _ ;", "_a", {("_", "b"): 0.0}),
    ("a -> b / (c_d) _ ;", "c_da", {("c", "_", "d", "b"): 0.0})])
def test_braces_and_groups_read_alike_in_every_part_of_a_rule(text, word,
                                                              outputs):
    assert apply_strings(compiled(text), word) == outputs


def test_a_class_name_that_is_empty_or_led_by_whitespace_is_never_bare():
    classes = {"": ("c",), " a": ("d",)}
    table = SymbolTable()
    assert regex_lang("a b", table, 2, classes) == {
        (table.find("a"), table.find("b"))}


# the pieces of the scanner property: each reads as one unit in any part
LETTERS = st.sampled_from("abcde")
BRACED = st.sampled_from(["{a->b}", "{/}", "{_}", "{|}", "{x|y}", "{->}"])
CLASSES = {"my_v": ("a", "e"), "v_1": ("c",), "_x": ("d",)}
GROUPS = st.sampled_from(["(a_b)", "(c/d)", "(a|b)", "[a_c]", "[a/b]",
                          "(a(b_c)|d/e)"])
PART = st.lists(st.one_of(LETTERS, BRACED, st.sampled_from(sorted(CLASSES)),
                          GROUPS), max_size=4).map(" ".join)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(phi=PART, psi=PART, lam=PART, rho=PART)
def test_a_rule_statement_is_cut_at_the_scanners_own_tokens(phi, psi, lam,
                                                           rho):
    declarations = "".join(f"Class {name} = [{' '.join(members)}];\n"
                           for name, members in CLASSES.items())
    [rule] = parse_rule_file(f"{declarations}{phi} -> {psi} / {lam} _ {rho};")
    assert (rule.phi, rule.psi, rule.lam, rule.rho) == (phi, psi, lam, rho)


# -- same-length intersection and trees ----------------------------------


def pair_machine(pairs_weights):
    """Transducer accepting exactly the given same-length string pairs."""
    from helpers import build
    arcs = []
    finals = {}
    state = [0]
    m_arcs = []
    next_id = [1]
    for (u, v), w in pairs_weights.items():
        cur = 0
        for i, (x, y) in enumerate(zip(u, v)):
            nxt = next_id[0]
            next_id[0] += 1
            m_arcs.append((cur, x, y, w if i == 0 else 0.0, nxt))
            cur = nxt
        finals[cur] = 0.0
    from wfst import Machine
    m = Machine(Semiring.TROPICAL)
    m.add_states(next_id[0])
    for src, x, y, w, dst in m_arcs:
        m.add_arc(src, x, y, w, dst)
    for q, w in finals.items():
        m.set_final(q, w)
    m.set_start(0)
    return m.freeze()


def test_intersect_samelength():
    t1 = pair_machine({((1, 2), (1, 3)): 0.5, ((1,), (2,)): 0.0})
    t2 = pair_machine({((1, 2), (1, 3)): 0.25, ((1,), (3,)): 0.0})
    meet = intersect_samelength(t1, t2)
    assert weight_of(meet, (1, 2), (1, 3)) == 0.75
    assert weight_of(meet, (1,), (2,)) == float("inf")


def test_intersect_samelength_rejects_epsilon():
    t = build(Semiring.TROPICAL, [(0, 1, 0, 0.0, 1)], [1])
    with pytest.raises(ContractError):
        intersect_samelength(t, t)


TREE = """
split left a$
 leaf a -> 0.5 b | 1.5 a
 split right a
  leaf a -> 0.5 b | 1.5 a
  leaf a -> 0.0 a
"""


def test_parse_tree():
    spec = parse_tree(TREE)
    assert len(spec.leaves) == 3
    assert spec.leaves[0].constraints == (("left", "a$"),)
    assert spec.leaves[1].constraints == (("left", "~(a$)"), ("right", "a"))
    assert spec.leaves[2].outputs == ((0.0, "a"),)


@pytest.mark.parametrize("depth", [1000, 1500])
def test_parse_tree_depth_costs_no_recursion(depth):
    # nested splits with no leaf: a typed error, not RecursionError
    splits = [" " * d + "split left a" for d in range(depth)]
    with pytest.raises(ParseError, match="tree ended"):
        parse_tree("\n".join(splits))
    # each split's second branch is a leaf, which closes the tree
    leaves = [" " * d + "leaf a -> b" for d in range(depth, 0, -1)]
    spec = parse_tree("\n".join(splits + [" " * depth + "leaf a -> a"]
                                + leaves))
    assert len(spec.leaves) == depth + 1
    assert spec.leaves[0].constraints == (("left", "a"),) * depth
    assert spec.leaves[-1].constraints == (("left", "~(a)"),)


def test_compile_tree_outputs():
    # the class puts $ and v in the alphabet
    tree = """Class X = [$ v]
split right a.*
 leaf a -> 0.5 b | 1.5 a
 leaf a -> 0.0 a
"""
    fst = compile_tree(parse_tree(tree))
    got = apply_strings(fst, "vaa")
    # first 'a' is followed by another 'a': leaf 1 applies; the last 'a'
    # is not: identity
    assert got == {tuple("vba"): 0.5, tuple("vaa"): 1.5}


def test_compile_tree_partition_validation():
    overlapping = """
split right a.*
 leaf a -> b
 leaf a -> a
"""
    spec = parse_tree(overlapping)
    spec.leaves[1].constraints = ()  # second leaf now matches everywhere
    with pytest.raises(ContractError, match="overlap"):
        compile_tree(spec)
    non_exhaustive = parse_tree(overlapping)
    non_exhaustive.leaves = non_exhaustive.leaves[:1]
    with pytest.raises(ContractError, match="exhaustive"):
        compile_tree(non_exhaustive)


def test_compile_tree_registers_every_declared_symbol():
    spec = parse_tree("Class U = [u o]\nsplit right a.*\n leaf a -> 0.5 b\n"
                      " leaf a -> a\n")
    fst = compile_tree(spec)
    t = fst.isymbols
    assert [t.find(s) for s in ("a", "b", "u", "o")] == [1, 2, 3, 4]
    assert apply_rewrite(fst, ["u", "a", "o"]) == [((3, 1, 4), 0.0)]


def test_tree_single_symbol_check():
    spec = parse_tree("""
split right a
 leaf a -> b
 leaf b -> a
""")
    with pytest.raises(ContractError):
        compile_tree(spec)


def tree_oracle(inp, leaves, symtab, phi="a"):
    """Rewrite each phi occurrence per the unique leaf whose whole-context
    constraints hold; other symbols copy."""
    from wfst.rewrite import compile_regex as crx

    def matches(rx, s):
        t = crx(rx, symtab)
        return weight_of(t, s, max_path_len=4 * (len(s) + 2)) != 0.0

    outs = {(): 0.0}
    results = {}

    def go(i, out, cost):
        if i == len(inp):
            key = tuple(out)
            if key not in results or cost < results[key]:
                results[key] = cost
            return
        x = inp[i]
        if symtab.find(x) != phi:
            go(i + 1, out + [x], cost)
            return
        left = tuple(inp[:i])
        right = tuple(inp[i + 1:])
        live = []
        for leaf in leaves:
            ok = True
            for side, rx in leaf.constraints:
                s = left if side == "left" else right
                if not matches(rx, s):
                    ok = False
                    break
            if ok:
                live.append(leaf)
        assert len(live) == 1, (inp, i, live)
        for w, o in live[0].outputs:
            go(i + 1, out + [symtab.find(o)], cost + w)

    go(0, [], 0.0)
    return results


def test_tree_matches_context_oracle():
    rng = random.Random(103)
    tree = """
split left .*v.*
 leaf a -> 0.5 b | 1.0 a
 split right (a|b|v)(a|b|v).*
  leaf a -> 0.25 v
  leaf a -> 0.0 a
"""
    spec = parse_tree(tree)
    fst = compile_tree(spec)
    symtab = fst.isymbols
    for _ in range(25):
        inp = [rng.choice(("a", "b", "v")) for _ in range(rng.randint(0, 6))]
        ids = [symtab.find(s) for s in inp]
        expected = tree_oracle(ids, spec.leaves, symtab)
        got = {tuple(labels): w
               for labels, w in apply_rewrite(fst, inp, mode="all")}
        assert got == expected, inp
