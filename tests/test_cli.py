"""Golden-file tests: every CLI subcommand byte-exact against the library."""

import math
import random
import time

import pytest

from wfst import (Semiring, SymbolTable, connect, read_text, write_text)
from wfst import ngram, ops, optimize, rewrite
from wfst import decode as dec
from wfst.cli import decode_main, fst_main, lm_main, rule_main

from helpers import layered_distances, model_path_cost

T = Semiring.TROPICAL

A_TEXT = "0 1 1 0.5\n1 2 2 0.5\n2 1\n"
B_TEXT = "0 1 1 1\n1 2 2\n2\n"
BOOL_A = "0 1 1\n1 2 2\n2\n"
BOOL_B = "0 1 1\n1\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("a.fst", A_TEXT), ("b.fst", B_TEXT),
                       ("ba.fst", BOOL_A), ("bb.fst", BOOL_B)):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run(main, argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(m):
    return write_text(m)


# -- fst unary and binary operations -------------------------------------


def test_fst_compile_and_print(files, capsys):
    code, out, _ = run(fst_main, ["compile", files["a.fst"]], capsys)
    assert code == 0
    assert out == golden(read_text(A_TEXT))
    code, out, _ = run(fst_main, ["print", files["a.fst"]], capsys)
    assert code == 0 and out == golden(read_text(A_TEXT))


def test_fst_print_dot(files, capsys):
    code, out, _ = run(fst_main, ["print", files["a.fst"], "--dot"], capsys)
    assert code == 0
    assert out.startswith("digraph fst {")
    assert out.rstrip().endswith("}")
    assert '0 -> 1 [label="1:1/0.5"];' in out


def test_fst_print_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    table = tmp_path / "m.syms"
    table.write_text('<eps> 0\na"b 1\nc\\ 2\n')
    fst = tmp_path / "m.fst"
    fst.write_text('0 1 a"b c\\ 1\n1\n')
    code, out, _ = run(fst_main, ["print", str(fst), "--dot", "--isyms",
                                  str(table), "--osyms", str(table)],
                       capsys)
    assert code == 0
    assert '0 -> 1 [label="a\\"b:c\\\\/1"];' in out


@pytest.mark.parametrize("name,op", [
    ("compose", ops.compose), ("intersect", ops.intersect),
    ("union", ops.union), ("concat", ops.concat)])
def test_fst_binary_ops(files, capsys, name, op):
    code, out, _ = run(fst_main, [name, files["a.fst"], files["b.fst"]],
                       capsys)
    assert code == 0
    assert out == golden(op(read_text(A_TEXT), read_text(B_TEXT)))


@pytest.mark.parametrize("name,call", [
    ("closure", ops.closure), ("reverse", ops.reverse),
    ("determinize", optimize.determinize), ("minimize", optimize.minimize),
    ("connect", connect)])
def test_fst_unary_ops(files, capsys, name, call):
    code, out, _ = run(fst_main, [name, files["a.fst"]], capsys)
    assert code == 0
    assert out == golden(call(read_text(A_TEXT)))


def test_fst_project(files, capsys):
    for side in ("input", "output"):
        code, out, _ = run(fst_main, ["project", files["a.fst"],
                                      "--side", side], capsys)
        assert code == 0
        assert out == golden(ops.project(read_text(A_TEXT), side))


def test_fst_complement_difference(files, capsys):
    kindflag = ["--semiring", "boolean"]
    code, out, _ = run(fst_main, ["complement", files["ba.fst"]] + kindflag,
                       capsys)
    assert code == 0
    expected = ops.complement(read_text(BOOL_A, kind=Semiring.BOOLEAN))
    assert out == golden(expected)
    code, out, _ = run(fst_main,
                       ["difference", files["ba.fst"], files["bb.fst"]]
                       + kindflag, capsys)
    assert code == 0
    expected = ops.difference(read_text(BOOL_A, kind=Semiring.BOOLEAN),
                              read_text(BOOL_B, kind=Semiring.BOOLEAN))
    assert out == golden(expected)


def test_fst_localdet_push(files, capsys):
    code, out, _ = run(fst_main, ["localdet", files["a.fst"], "--k", "2"],
                       capsys)
    assert code == 0
    assert out == golden(optimize.local_determinize(read_text(A_TEXT), 2))
    for mode in ("weights", "strings"):
        code, out, _ = run(fst_main, ["push", files["a.fst"],
                                      "--mode", mode], capsys)
        assert code == 0
        assert out == golden(optimize.push(read_text(A_TEXT), mode))


def test_fst_equivalent(files, capsys):
    code, out, _ = run(fst_main,
                       ["equivalent", files["a.fst"], files["a.fst"]], capsys)
    assert code == 0 and out == "equivalent\n"
    code, out, _ = run(fst_main,
                       ["equivalent", files["a.fst"], files["b.fst"]], capsys)
    assert code == 1 and out == "not equivalent\n"


def test_fst_shortest(files, capsys):
    # a Katz bigram model, cyclic, with a negative back-off cost
    lm = ngram.build_lm_fsa(ngram.katz_model(ngram.count_ngrams(
        viable_corpus(), 2)))
    assert min(arc[2] for _, arc in lm.all_arcs()) < 0
    syms = files["dir"] / "lm.syms"
    syms.write_text(lm.isymbols.write())
    lm_file = files["dir"] / "lm.fst"
    lm_file.write_text(write_text(lm))
    for m, argv in ((read_text(A_TEXT), [files["a.fst"]]),
                    (lm, [str(lm_file), "--isyms", str(syms),
                          "--osyms", str(syms)])):
        code, out, _ = run(fst_main, ["shortest", *argv], capsys)
        assert code == 0
        d = layered_distances(m)
        expected = "".join(f"{q}\t{T.format(d[q])}\n" for q in sorted(d)
                           if d[q] != math.inf)
        assert out == expected


def test_fst_bestpath(files, capsys):
    code, out, _ = run(fst_main, ["bestpath", files["a.fst"]], capsys)
    assert code == 0
    assert out == "1 2\t1 2\t2\n"


def test_fst_output_file(files, capsys):
    target = files["dir"] / "out.fst"
    code, out, _ = run(fst_main, ["determinize", files["a.fst"],
                                  "-o", str(target)], capsys)
    assert code == 0 and out == ""
    assert target.read_text() == golden(optimize.determinize(
        read_text(A_TEXT)))


def test_fst_stdin(files, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(A_TEXT))
    code, out, _ = run(fst_main, ["compile", "-"], capsys)
    assert code == 0 and out == golden(read_text(A_TEXT))


# -- rule ----------------------------------------------------------------

VOICING_RUL = """\
# word-final devoicing reversal before a voiced onset
Class Sigma = [m i s o z t $ #];
Class VStop = [m b d g];
s -> z / _ ($|#){VStop};
"""

TREE_TXT = """\
split right a.*
 leaf a -> 0.5 b | 1.5 a
 leaf a -> 0.0 a
"""


def test_rule_compile_apply(tmp_path, capsys):
    rul = tmp_path / "voicing.rul"
    rul.write_text(VOICING_RUL)
    out_fst = tmp_path / "voicing.fst"
    code, out, _ = run(rule_main, ["compile", str(rul), "-o", str(out_fst)],
                       capsys)
    assert code == 0
    assert (tmp_path / "voicing.fst.syms").exists()
    code, out, _ = run(rule_main, ["apply", str(out_fst), "m i s $ m o $"],
                       capsys)
    assert code == 0
    assert out == "m i z $ m o $\n"
    code, out, _ = run(rule_main, ["apply", str(out_fst), "m i s $ t o $"],
                       capsys)
    assert code == 0 and out == "m i s $ t o $\n"


def test_rule_compile_matches_library(tmp_path, capsys):
    rul = tmp_path / "r.rul"
    rul.write_text("a -> b / c _ b;\n")
    code, out, _ = run(rule_main, ["compile", str(rul)], capsys)
    assert code == 0
    symtab = SymbolTable()
    rules = rewrite.parse_rule_file("a -> b / c _ b;\n")
    assert out == golden(rewrite.compile_weighted_rule(rules[0], symtab))


@pytest.mark.parametrize("text", ["a -> b;\nc -> d;\n",
                                  "c -> d;\na -> b;\n"])
def test_rule_compile_one_alphabet_for_the_file(tmp_path, capsys, text):
    # every rule must pass the symbols that the file's other rules name,
    # whichever comes first
    rul = tmp_path / "r.rul"
    rul.write_text(text)
    out_fst = tmp_path / "r.fst"
    assert run(rule_main, ["compile", str(rul), "-o", str(out_fst)],
               capsys)[0] == 0
    for word, rewritten in (("c a", "d b\n"), ("c", "d\n"), ("a", "b\n")):
        assert run(rule_main, ["apply", str(out_fst), word],
                   capsys) == (0, rewritten, "")


def test_rule_with_a_hash_symbol(tmp_path, capsys):
    # '#' is a symbol wherever it is not the first field of a line
    rul = tmp_path / "r.rul"
    rul.write_text("a -> b / # _ ;\n")
    out_fst = tmp_path / "r.fst"
    code, _, _ = run(rule_main, ["compile", str(rul), "-o", str(out_fst)],
                     capsys)
    assert code == 0
    symtab = SymbolTable()
    m = rewrite.compile_weighted_rule(
        rewrite.parse_rule_file("a -> b / # _ ;\n")[0], symtab)
    assert out_fst.read_text() == golden(m)
    code, out, _ = run(rule_main, ["apply", str(out_fst), "# a"], capsys)
    [(labels, _)] = rewrite.apply_rewrite(m, ["#", "a"])
    assert code == 0 and out == " ".join(map(symtab.find, labels)) + "\n"
    assert out == "# b\n"


def test_rule_tree(tmp_path, capsys):
    tree = tmp_path / "t.tree"
    tree.write_text(TREE_TXT)
    code, out, _ = run(rule_main, ["tree", str(tree)], capsys)
    assert code == 0
    assert out == golden(rewrite.compile_tree(rewrite.parse_tree(TREE_TXT)))


def test_rule_tree_passes_a_declared_symbol_no_split_names(tmp_path,
                                                           capsys):
    tree = tmp_path / "t.tree"
    tree.write_text("Class U = [u o]\n" + TREE_TXT)
    out_fst = tmp_path / "t.fst"
    assert run(rule_main, ["tree", str(tree), "-o", str(out_fst)],
               capsys)[0] == 0
    assert run(rule_main, ["apply", str(out_fst), "a u"],
               capsys) == (0, "a u\n", "")


def test_rule_compile_without_a_rule_exit_2(tmp_path, capsys):
    rul = tmp_path / "classes.rul"
    rul.write_text("Class V = [a e];\n# no rule follows\n")
    code, out, err = run(rule_main, ["compile", str(rul)], capsys)
    assert code == 2 and out == "" and "contains no rules" in err


def test_rule_apply_without_a_symbol_table_exit_2(capsys):
    code, out, err = run(rule_main, ["apply", "-", "a"], capsys)
    assert code == 2 and out == "" and "needs a symbol table" in err


# -- lm ------------------------------------------------------------------


def viable_corpus(seed=41):
    rng = random.Random(seed)
    vocab = ["a", "b", "c", "d"]
    while True:
        corpus = [[rng.choice(vocab) for _ in range(rng.randint(1, 7))]
                  for _ in range(rng.randint(6, 15))]
        ct = ngram.count_ngrams(corpus, 2)
        try:
            ngram.katz_model(ct)
            return corpus
        except Exception:
            continue


def test_lm_pipeline(tmp_path, capsys):
    corpus = viable_corpus()
    corpus_file = tmp_path / "corpus.txt"
    corpus_file.write_text(
        "".join(" ".join(s) + "\n" for s in corpus))
    counts_file = tmp_path / "counts.txt"
    code, out, _ = run(lm_main, ["count", str(corpus_file), "-n", "2",
                                 "-o", str(counts_file)], capsys)
    assert code == 0
    ct = ngram.count_ngrams(corpus, 2)
    assert counts_file.read_text() == ngram.write_counts(ct)

    model_file = tmp_path / "model.arpa"
    code, out, _ = run(lm_main, ["build", str(counts_file),
                                 "-o", str(model_file)], capsys)
    assert code == 0
    ct_back = ngram.read_counts(counts_file.read_text())
    expected_arpa = ngram.write_arpa(ngram.katz_model(ct_back))
    assert model_file.read_text() == expected_arpa

    code, out, _ = run(lm_main, ["fsa", str(model_file)], capsys)
    assert code == 0
    model = ngram.read_arpa(expected_arpa)
    assert out == golden(ngram.build_lm_fsa(model))

    sent = " ".join(corpus[0])
    code, out, _ = run(lm_main, ["score", str(model_file), sent], capsys)
    assert code == 0
    logp = model.sentence_logprob(corpus[0])
    assert out == ("-inf\n" if logp == -math.inf else f"{logp:.6f}\n")


def test_lm_fsa_saves_syms(tmp_path, capsys):
    corpus = viable_corpus(43)
    corpus_file = tmp_path / "c.txt"
    corpus_file.write_text("".join(" ".join(s) + "\n" for s in corpus))
    counts = tmp_path / "n.txt"
    assert run(lm_main, ["count", str(corpus_file), "-o", str(counts)],
               capsys)[0] == 0
    arpa = tmp_path / "m.arpa"
    assert run(lm_main, ["build", str(counts), "-o", str(arpa)],
               capsys)[0] == 0
    fsa = tmp_path / "lm.fsa"
    assert run(lm_main, ["fsa", str(arpa), "-o", str(fsa)], capsys)[0] == 0
    assert (tmp_path / "lm.fsa.syms").exists()


def test_lm_unigram_pipeline(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b\nb a c\n")
    counts, arpa = tmp_path / "c.counts", tmp_path / "c.arpa"
    assert run(lm_main, ["count", "-n", "1", str(corpus), "-o", str(counts)],
               capsys)[0] == 0
    assert run(lm_main, ["build", str(counts), "-o", str(arpa)],
               capsys)[0] == 0
    model = ngram.read_arpa(arpa.read_text())
    code, out, _ = run(lm_main, ["fsa", str(arpa)], capsys)
    assert code == 0 and out == golden(ngram.build_lm_fsa(model))
    code, out, _ = run(lm_main, ["score", str(arpa), "a c"], capsys)
    assert code == 0
    assert out == f"{model.sentence_logprob(['a', 'c']):.6f}\n"


def test_lm_build_of_an_empty_corpus_exit_1(tmp_path, capsys):
    corpus, counts = tmp_path / "empty.txt", tmp_path / "empty.counts"
    corpus.write_text("")
    assert run(lm_main, ["count", str(corpus), "-o", str(counts)],
               capsys)[0] == 0
    code, out, err = run(lm_main, ["build", str(counts)], capsys)
    assert code == 1 and out == "" and "no words" in err


# the context (a,) has probabilities but no back-off field, and the context
# (b,) of the trigram "a b c" has no probabilities of its own
OMITTED_BACKOFFS = ("\\data\\\n\\1-grams:\n-0.7\ta\n-0.7\tb\n-0.7\tc\n"
                    "-0.7\t</s>\n-99\t<s>\n\\2-grams:\n-0.3\ta b\t-0.5\n"
                    "\\3-grams:\n-0.2\ta b c\n\\end\\\n")


def test_lm_arpa_with_omitted_backoffs(tmp_path, capsys):
    # an omitted back-off is log10 alpha = 0, as in the ARPA format
    arpa = tmp_path / "x.arpa"
    arpa.write_text(OMITTED_BACKOFFS)
    model = ngram.read_arpa(OMITTED_BACKOFFS)
    fsa = ngram.build_lm_fsa(model)
    code, out, _ = run(lm_main, ["fsa", str(arpa)], capsys)
    assert code == 0 and out == golden(fsa)
    for sent in ("a b a", "a b c", "c a b c b"):
        code, out, _ = run(lm_main, ["score", str(arpa), sent], capsys)
        logp = model.sentence_logprob(sent.split())
        assert code == 0 and out == f"{logp:.6f}\n"
        assert model_path_cost(model, fsa, sent.split()) == \
            pytest.approx(-logp, abs=1e-9)


def test_lm_score_backs_off_through_a_thousand_gram_context(tmp_path,
                                                            capsys):
    # the one 1000-gram, b^1000, sets the order: each word backs off
    # through 999 contexts, one loop step each, to its unigram
    arpa = tmp_path / "deep.arpa"
    arpa.write_text("\\data\\\n\\1-grams:\n-0.5 a\n-0.5 </s>\n-99 <s>\n"
                    "\\1000-grams:\n-0.1" + " b" * 1000 + "\n\\end\\\n")
    code, out, err = run(lm_main, ["score", str(arpa), "a a"], capsys)
    assert (code, out, err) == (0, f"{3 * math.log(10 ** -0.5):.6f}\n", "")
    assert ngram.read_arpa(arpa.read_text()).order == 1000


def test_lm_empty_section_sets_no_order(tmp_path, capsys):
    # an empty 20000-gram section once made the order 20000, and ``lm
    # fsa`` took time quadratic in it
    unigrams = "\\data\\\n\\1-grams:\n-0.5 a\n-0.5 </s>\n-99 <s>\n"
    plain, deep = tmp_path / "plain.arpa", tmp_path / "deep.arpa"
    plain.write_text(unigrams + "\\end\\\n")
    deep.write_text(unigrams + "\\20000-grams:\n\\end\\\n")
    expected = run(lm_main, ["fsa", str(plain)], capsys)
    start = time.perf_counter()
    assert run(lm_main, ["fsa", str(deep)], capsys) == expected
    assert time.perf_counter() - start < 0.5
    assert expected[0] == 0


def test_lm_build_lowers_the_declared_order(tmp_path, capsys):
    # no context is longer than the longest gram, so a larger declared
    # order adds nothing to the model, not even empty sections
    counts = ngram.write_counts(ngram.count_ngrams(viable_corpus(), 2))
    plain, deep = tmp_path / "plain.counts", tmp_path / "deep.counts"
    plain.write_text(counts)
    deep.write_text(counts.replace("order 2\n", "order 100000\n", 1))
    expected = run(lm_main, ["build", str(plain)], capsys)
    start = time.perf_counter()
    assert run(lm_main, ["build", str(deep)], capsys) == expected
    assert time.perf_counter() - start < 0.5
    assert expected[0] == 0


# -- decode --------------------------------------------------------------


def test_decode_cascade(tmp_path, capsys):
    stage = tmp_path / "s#1.fst"
    stage.write_text(A_TEXT)
    manifest = tmp_path / "cascade.txt"
    manifest.write_text(f"# stage list\n{stage}\n")
    code, out, err = run(decode_main, ["--cascade", str(manifest), "1 2"],
                         capsys)
    assert code == 0
    m = read_text(A_TEXT)
    outputs, cost, _ = dec.beam_decode(dec.CascadeSpec([m]), [1, 2])
    assert out == f"{' '.join(str(x) for x in outputs)}\t{T.format(cost)}\n"
    assert err.startswith("# expanded")
    code, out2, _ = run(decode_main, ["--cascade", str(manifest),
                                      "--beam", "100", "1 2"], capsys)
    assert code == 0 and out2 == out


def test_decode_reports_no_path_without_blaming_the_default_beam(
        tmp_path, capsys):
    stage = tmp_path / "m.txt"
    stage.write_text("0 1 1\n1\n")  # reads only label 1
    manifest = tmp_path / "cascade.txt"
    manifest.write_text(f"{stage}\n")
    code, out, err = run(decode_main, ["--cascade", str(manifest), "2"],
                         capsys)
    assert code == 1 and out == ""
    assert err == "error: the cascade accepts no path for the observations\n"
    # no beam can help an observation the cascade cannot read
    code, out, err = run(decode_main, ["--cascade", str(manifest),
                                       "--beam", "5", "2"], capsys)
    assert code == 1 and out == ""
    assert err == "error: the cascade accepts no path for the observations\n"
    # a cheap live branch that ends only by an epsilon arc of cost 10
    # prunes the path of cost 5 at beam 1, and then its own final
    stage.write_text("0 1 1 5\n0 2 1 0\n1 1 2 0\n2 3 2 0\n3 4 0 10\n1\n4\n")
    code, out, err = run(decode_main, ["--cascade", str(manifest),
                                       "--beam", "1", "1 2"], capsys)
    assert code == 1 and out == ""
    assert err == "error: no surviving path; try a larger beam\n"


@pytest.mark.parametrize("beam", ["nan", "-1"])
def test_decode_rejects_nan_or_negative_beam(tmp_path, capsys, beam):
    stage = tmp_path / "s.fst"
    stage.write_text(A_TEXT)
    manifest = tmp_path / "cascade.txt"
    manifest.write_text(f"{stage}\n")
    code, out, err = run(decode_main, ["--cascade", str(manifest),
                                       "--beam", beam, "1 2"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: beam must be a non-negative number")


# -- exit codes ----------------------------------------------------------


def test_exit_2_usage_errors(tmp_path, capsys):
    code, _, err = run(fst_main, ["compile", str(tmp_path / "missing.fst")],
                       capsys)
    assert code == 2 and err.startswith("error:")
    bad = tmp_path / "bad.rul"
    bad.write_text("this is not a rule;\n")
    assert run(rule_main, ["compile", str(bad)], capsys)[0] == 2
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    assert run(decode_main, ["--cascade", str(empty), "1"], capsys)[0] == 2
    # a first stage without a symbol table reads label ids only
    stage = tmp_path / "s.fst"
    stage.write_text(A_TEXT)
    manifest = tmp_path / "cascade.txt"
    manifest.write_text(f"{stage}\n")
    code, _, err = run(decode_main, ["--cascade", str(manifest), "1 a"],
                       capsys)
    assert code == 2 and err.startswith("error:") and "'a'" in err


@pytest.mark.parametrize("main, argv", [
    (fst_main, ["compile", "{}"]), (rule_main, ["compile", "{}"]),
    (lm_main, ["count", "{}"]), (decode_main, ["--cascade", "{}", "1"]),
], ids=["fst", "rule", "lm", "decode"])
def test_non_utf8_input_exit_2(tmp_path, capsys, main, argv):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
    code, out, err = run(main, [a.format(binary) for a in argv], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("phi", ["(" * 200 + "a" + ")" * 200, "~" * 1200 + "a"],
                         ids=["parentheses", "complements"])
def test_rule_compile_deep_nesting_exit_2(tmp_path, capsys, phi):
    rules = tmp_path / "deep.rul"
    rules.write_text(f"{phi} -> b;\n")
    code, out, err = run(rule_main, ["compile", str(rules)], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert "nests deeper" in err


@pytest.mark.parametrize("command, text", [
    ("compile", "a -> <nan>b;\n"), ("compile", "a -> <-inf>b | c;\n"),
    ("tree", "split right a\n leaf a -> nan b\n leaf a -> a\n")])
def test_rule_cost_outside_the_carrier_exit_1(tmp_path, capsys, command,
                                              text):
    bad = tmp_path / "bad.rul"
    bad.write_text(text)
    code, out, err = run(rule_main, [command, str(bad)], capsys)
    assert code == 1 and out == "" and err.startswith("error: ")
    assert "carrier" in err


@pytest.mark.parametrize("text, line", [
    ("order 2\na b\tx\n", 2),   # a count that is not an integer
    ("order x\n", 1),           # an order likewise
    ("order 2\na b 3\n", 2),    # no tab
    ("order 2\na\t-1\n", 2),    # a negative count
])
def test_lm_build_malformed_counts_exit_2(tmp_path, capsys, text, line):
    bad = tmp_path / "bad.counts"
    bad.write_text(text)
    code, _, err = run(lm_main, ["build", str(bad)], capsys)
    assert code == 2 and err.startswith(f"error: line {line}: ")


@pytest.mark.parametrize("token", ["<s>", "</s>", "<eps>"])
def test_lm_count_reserved_token_exit_2(tmp_path, capsys, token):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"a b\na {token} b\n")
    code, out, err = run(lm_main, ["count", str(corpus)], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert token in err


@pytest.mark.parametrize("command", [["fsa"], ["score", "a c"]])
def test_lm_non_probability_arpa_exit_2(tmp_path, capsys, command):
    bad = tmp_path / "bad.arpa"
    bad.write_text("\\data\\\n\\1-grams:\ninf a\nnan b\n-0.5 c\n\\end\\\n")
    code, out, err = run(lm_main, [command[0], str(bad), *command[1:]],
                         capsys)
    assert code == 2 and out == "" and err.startswith("error: line 3: ")


def test_determinize_of_a_growing_transducer_exits_1_at_once(tmp_path,
                                                             capsys):
    # not determinizable: its largest subset grows with the number built,
    # so the elements of all subsets grow with its square; at the default
    # cap of 10,000 subsets they reach 16 x 10,000 at about 950 subsets
    path = tmp_path / "growing.fst"
    path.write_text("0 1 0 0\n0 1 1 1\n0 1 2 1\n1 1 1 0\n1 0 2 2\n0\n1\n")
    begin = time.perf_counter()
    code, out, err = run(fst_main, ["determinize", str(path), "--semiring",
                                    "boolean", "--transducer"], capsys)
    assert time.perf_counter() - begin < 15.0
    assert code == 1 and out == ""
    assert "160000 elements in all subsets" in err


def test_exit_1_domain_errors(tmp_path, capsys):
    nopath = tmp_path / "nopath.fst"
    nopath.write_text("0 1 1\n2\n")  # final state unreachable
    code, _, err = run(fst_main, ["bestpath", str(nopath)], capsys)
    assert code == 1 and err.startswith("error:")
    real = tmp_path / "real.fst"
    real.write_text(A_TEXT)
    code, _, _ = run(fst_main, ["determinize", str(real),
                                "--semiring", "real"], capsys)
    assert code == 1
    # a count file without a 'total' line reads as total 0
    counts = tmp_path / "nototal.counts"
    counts.write_text("order 1\n<s>\t1\na\t3\n")
    code, out, err = run(lm_main, ["build", str(counts)], capsys)
    assert code == 1 and out == "" and "total is 0" in err
