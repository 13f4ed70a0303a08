import math
import random
from collections import Counter

import pytest

from wfst import (ContractError, CountTable, ParseError, SymbolError,
                  SymbolTable, best_path, build_lm_fsa, compose, count_ngrams,
                  good_turing, katz_model, mle, observation_machine,
                  read_arpa, write_arpa)
from wfst.ngram import (BOS, EOS, frequency_of_frequencies, read_counts,
                        write_counts)

from helpers import (model_path_cost, naive_ngram_counts, viable_model,
                     zipf_corpus)

SIX_TOKENS = [["a", "b", "a", "b", "a", "c"]]


def ids(ct, *words):
    return tuple(ct.symbols.find(w) for w in words)


# -- counting ------------------------------------------------------------


def test_count_trivial():
    ct = count_ngrams([["a", "a"]], 1)
    assert ct.count(ids(ct, "a")) == 2
    assert ct.total == 3  # two tokens plus the sentence end


def test_count_six_token_corpus():
    ct = count_ngrams(SIX_TOKENS, 1)
    assert ct.count(ids(ct, "a")) == 3
    assert ct.count(ids(ct, "b")) == 2
    assert ct.count(ids(ct, "c")) == 1


def test_count_bigrams_with_padding():
    ct = count_ngrams(SIX_TOKENS, 2)
    assert ct.count(ids(ct, "a", "b")) == 2
    assert ct.count(ids(ct, "b", "a")) == 2
    assert ct.count(ids(ct, BOS, "a")) == 1
    assert ct.count(ids(ct, "c", EOS)) == 1
    assert ct.count(ids(ct, BOS)) == 0  # pure-boundary grams skipped


def test_bigram_marginal_consistency():
    rng = random.Random(31)
    vocab = ["a", "b", "c", "d"]
    for _ in range(20):
        corpus = [[rng.choice(vocab) for _ in range(rng.randint(1, 6))]
                  for _ in range(rng.randint(1, 8))]
        ct = count_ngrams(corpus, 2)
        eos = ct.symbols.find(EOS)
        for gram, c in ct.counts.items():
            if len(gram) != 1 or gram[0] == eos:
                continue
            successors = sum(cc for g, cc in ct.counts.items()
                             if len(g) == 2 and g[0] == gram[0])
            assert successors == c, gram


def test_count_ngrams_matches_a_naive_counter():
    # same k-grams, same counts, same order of first appearance, same total
    rng = random.Random(53)
    lengths = (0, 0, 1, 1, 2, 3, 5, 9)
    for trial in range(60):
        corpus = [[rng.choice("abcde") for _ in range(rng.choice(lengths))]
                  for _ in range(rng.randint(0, 7))]
        for n in (1, 2, 3, 4):
            ct = count_ngrams(corpus, n)
            expected, total = naive_ngram_counts(corpus, n)
            words = [(tuple(ct.symbols.find(g) for g in gram), c)
                     for gram, c in ct.counts.items()]
            assert words == list(expected.items()), (trial, n)
            assert ct.total == total, (trial, n)


@pytest.mark.parametrize("token", [BOS, EOS, "<eps>"])
def test_count_rejects_reserved_tokens(token):
    with pytest.raises(SymbolError, match=token):
        count_ngrams([["a", "b"], ["a", token, "b"]], 2)


def test_read_counts_rejects_an_epsilon_word():
    with pytest.raises(ParseError, match=r"^line 4: .*<eps>"):
        read_counts("order 2\ntotal 3\na\t2\na <eps>\t1\n")


def test_counts_roundtrip():
    ct = count_ngrams(SIX_TOKENS, 2)
    text = write_counts(ct)
    back = read_counts(text)
    assert back.order == ct.order and back.total == ct.total

    # the reader numbers the words afresh: counts compare by their words
    def by_words(table):
        return {tuple(map(table.symbols.find, gram)): c
                for gram, c in table.counts.items()}

    assert by_words(back) == by_words(ct)


# -- estimation ----------------------------------------------------------


def test_mle():
    ct = count_ngrams([["a", "a"]], 1)
    assert mle(ct, ids(ct, "a")) == 2 / 3
    ct2 = count_ngrams(SIX_TOKENS, 2)
    assert mle(ct2, ids(ct2, "a", "b")) == 2 / 3
    assert mle(ct2, ids(ct2, "a", "a")) == 0.0
    with pytest.raises(ContractError):
        mle(ct2, ids(ct2, "c", "c", "c"))
    # a count file without a 'total' line reads as total 0
    ct3 = read_counts("a\t3\n")
    with pytest.raises(ContractError, match="total is 0"):
        mle(ct3, ids(ct3, "a"))


def test_good_turing_hand_formula_six_token_corpus():
    ct = count_ngrams(SIX_TOKENS, 2)
    ff1 = frequency_of_frequencies(ct, 1)
    assert ff1 == {3: 1, 2: 1, 1: 2}
    assert good_turing(ff1, 1) == 2 * ff1[2] / ff1[1]  # = 1.0
    assert good_turing(ff1, 2) == 3 * ff1[3] / ff1[2]  # = 3.0
    assert good_turing(ff1, 3) == 3.0  # n_4 = 0: passthrough
    ff2 = frequency_of_frequencies(ct, 2)
    assert ff2 == {1: 3, 2: 2}
    assert good_turing(ff2, 1) == pytest.approx(4 / 3)
    assert good_turing(ff2, 2) == 2.0  # n_3 = 0: passthrough


def test_good_turing_contract():
    with pytest.raises(ContractError):
        good_turing({1: 1}, 0)
    assert good_turing({1: 5, 2: 1}, 7) == 7.0  # above threshold


def test_good_turing_mass_identity():
    rng = random.Random(37)
    vocab = ["a", "b", "c", "d", "e"]
    for _ in range(10):
        corpus = [[rng.choice(vocab) for _ in range(rng.randint(2, 8))]
                  for _ in range(rng.randint(3, 10))]
        ct = count_ngrams(corpus, 1)
        ff = frequency_of_frequencies(ct, 1)
        if any((c + 1) * ff.get(c + 1, 0) > c * ff.get(c, 0)
               for c in range(1, 6) if ff.get(c, 0)):
            continue  # degenerate table: the formula would inflate counts
        total = sum(c for g, c in ct.counts.items() if len(g) == 1)
        total_star = sum(good_turing(ff, c)
                         for g, c in ct.counts.items() if len(g) == 1)
        assert total_star <= total + 1e-9


def test_katz_discount_never_raises_a_count():
    # bigram count 1 has the Good-Turing estimate 4/3 here, above the count
    # itself; Katz keeps the count, so the model builds and normalizes
    ct = count_ngrams(SIX_TOKENS, 2)
    model = katz_model(ct)
    a, b = ids(ct, "a", "b")
    assert model.prob(b, (a,)) == 2 / 3
    for h in model.probs:
        s = sum(model.prob(y, h) for y in model.vocabulary)
        assert abs(s - 1.0) <= 1e-9, (h, s)


def test_katz_reads_rounding_noise_as_no_leftover_mass():
    # a discount never raises a count, yet here the discounted estimates
    # of some contexts sum to one plus a few ulps (1 - sum is about -4e-16):
    # the model keeps them, with alpha 0, and still scores and compiles
    corpus = zipf_corpus(0, sentences=3000, words=60, min_len=2, max_len=9)
    model = katz_model(count_ngrams(corpus, 3))
    noisy = [h for h, table in model.probs.items()
             if h and sum(table.values()) > 1.0]
    assert noisy and all(model.alphas[h] == 0.0 for h in noisy)
    logp = model.sentence_logprob(corpus[0])
    assert math.isfinite(logp)
    assert model_path_cost(model, build_lm_fsa(model), corpus[0]) == \
        pytest.approx(-logp)


def test_katz_reads_the_rounding_of_a_large_context_as_no_leftover_mass():
    # context x precedes 40,000 words, each 6 times (above the threshold,
    # so undiscounted), and never z: its estimates sum to one, and the
    # -1.0e-12 that floating point leaves of 1 - sum is rounding alone
    symbols = SymbolTable()
    x, z = symbols.add("x"), symbols.add("z")
    counts = Counter({(x,): 6 * 40_000, (z,): 6})
    for i in range(40_000):
        w = symbols.add(f"w{i}")
        counts[(w,)] = counts[(x, w)] = 6
    total = sum(c for gram, c in counts.items() if len(gram) == 1)
    model = katz_model(CountTable(2, counts, total, symbols))
    assert model.alphas[(x,)] == 0.0
    assert model.prob(w, (x,)) == 1 / 40_000


@pytest.mark.parametrize("order", [2, 3])
def test_katz_contexts_sum_to_one(order):
    for seed in (41, 43, 47):
        ct, model = viable_model(seed, order)
        contexts = [h for h in model.probs if isinstance(h, tuple)]
        for h in contexts:
            s = sum(model.prob(y, h) for y in model.vocabulary)
            assert abs(s - 1.0) <= 1e-9, (h, s)


def test_unseen_equals_alpha_times_backoff():
    ct, model = viable_model(53)
    for h in model.alphas:
        if model.alphas[h] == 0.0:
            continue
        unseen = [y for y in model.vocabulary if y not in model.probs[h]]
        for y in unseen[:3]:
            assert model.prob(y, h) == pytest.approx(
                model.alphas[h] * model.prob(y, h[1:]))


def recursive_backoff(model, word, context):
    """The back-off recursion, alpha(h) * P(word | h[1:]) for a context h
    with a table that lacks the word."""
    table = model.probs.get(context)
    if table is not None and word in table:
        return table[word]
    if not context:
        return model.floor
    lower = recursive_backoff(model, word, context[1:])
    return lower if table is None else model.alphas[context] * lower


def test_backoff_keeps_the_recursion_float_association():
    for seed in (61, 67, 71):
        _, model = viable_model(seed, 4)
        for h in model.probs:
            for y in model.vocabulary:
                assert model.prob(y, h) == recursive_backoff(model, y, h)


@pytest.mark.parametrize("text", ["", "order 1\n", "order 3\ntotal 0\n"],
                         ids=["blank", "order", "order-and-total"])
def test_katz_rejects_counts_without_words(text):
    with pytest.raises(ContractError, match="no words"):
        katz_model(read_counts(text))


def test_katz_rejects_an_empty_corpus():
    with pytest.raises(ContractError, match="no words"):
        katz_model(count_ngrams([], 2))


# -- acceptor compilation ------------------------------------------------


def test_fsa_structure():
    ct, model = viable_model(59)
    fsa = build_lm_fsa(model)
    # at most one epsilon arc per state, word labels deterministic
    for q in fsa.states():
        eps = [a for a in fsa.arcs(q) if a[0] == 0]
        assert len(eps) <= 1
        words = [a[0] for a in fsa.arcs(q) if a[0] != 0]
        assert len(words) == len(set(words))


def test_model_path_cost_equals_logprob():
    rng = random.Random(61)
    for seed in (67, 71):
        ct, model = viable_model(seed)
        fsa = build_lm_fsa(model)
        words = [y for y in model.vocabulary if y != model.symbols.find(EOS)]
        for _ in range(20):
            sent = [rng.choice(words) for _ in range(rng.randint(1, 6))]
            logp = model.sentence_logprob(sent)
            if logp == -math.inf:
                continue  # zero-probability route: the acceptor rejects too
            cost = model_path_cost(model, fsa, sent)
            assert cost == pytest.approx(-logp, abs=1e-9)


def test_best_path_never_worse_than_model_route():
    rng = random.Random(73)
    ct, model = viable_model(79)
    fsa = build_lm_fsa(model)
    words = [y for y in model.vocabulary if y != model.symbols.find(EOS)]
    for _ in range(15):
        sent = [rng.choice(words) for _ in range(rng.randint(1, 5))]
        if model.sentence_logprob(sent) == -math.inf:
            continue
        chain = observation_machine(sent, isymbols=model.symbols)
        (_, _), best = best_path(compose(chain, fsa))
        route = model_path_cost(model, fsa, sent)
        assert best <= route + 1e-9


def test_unigram_counts_build_score_and_compile():
    # counts of order 1 hold no <s>, and a unigram model needs none
    ct = read_counts(write_counts(count_ngrams([["a", "b"], ["b", "a", "c"]],
                                               1)))
    for model in (katz_model(ct), read_arpa(write_arpa(katz_model(ct)))):
        fsa = build_lm_fsa(model)
        assert BOS not in model.symbols and fsa.num_states == 1
        for sent in ([], ["a"], ["b", "a", "c"], ["c", "c", "b"]):
            chain = observation_machine(
                [model.symbols.find(w) for w in sent], isymbols=model.symbols)
            (_, _), cost = best_path(compose(chain, fsa))
            assert cost == pytest.approx(-model.sentence_logprob(sent),
                                         abs=1e-9)


# -- serialization -------------------------------------------------------


def test_arpa_roundtrip():
    ct, model = viable_model(83)
    text = write_arpa(model)
    back = read_arpa(text)
    assert back.order == model.order

    # the reader numbers the words afresh: a label maps through its word
    def label(y):
        return back.symbols.find(model.symbols.find(y))

    for h, table in model.probs.items():
        if not isinstance(h, tuple):
            continue
        for y, p in table.items():
            assert back.probs[tuple(map(label, h))][label(y)] == \
                pytest.approx(p, abs=1e-4)
    for h, a in model.alphas.items():
        assert back.alphas.get(tuple(map(label, h)), 0.0) == \
            pytest.approx(a, abs=1e-4)


def test_arpa_format_shape():
    ct, model = viable_model(89)
    text = write_arpa(model)
    lines = text.splitlines()
    assert lines[0] == "\\data\\"
    assert any(line.startswith("ngram 1=") for line in lines)
    assert "\\1-grams:" in lines and "\\2-grams:" in lines
    assert lines[-1] == "\\end\\"


# the first gram line of each text below is its line 3
ARPA_HEAD = "\\data\\\n\\1-grams:\n"


@pytest.mark.parametrize("text", [
    ARPA_HEAD + "inf a\nnan b\n-0.5 c\n\\end\\\n",  # +inf probability
    ARPA_HEAD + "nan b\n",                            # NaN probability
    ARPA_HEAD + "0.5 c\n",                            # probability above one
    ARPA_HEAD + "-0.5\tc\tnan\n",                     # NaN back-off
    ARPA_HEAD + "-0.5\tc\tinf\n",                     # infinite back-offs
    ARPA_HEAD + "-0.5 c -inf\n",
], ids=["found", "nan", "above_one", "nan_backoff", "inf_backoff",
        "minus_inf_backoff"])
def test_read_arpa_rejects_non_probabilities(text):
    with pytest.raises(ParseError, match=r"^line 3: "):
        read_arpa(text)


def test_read_arpa_reads_minus_99_and_minus_inf_as_zero():
    model = read_arpa(ARPA_HEAD + "-inf a\n-99 b -99\n-0.5 c 0.25\n"
                      "\\2-grams:\n-inf c a\n")
    c = model.symbols.find("c")
    assert model.probs[()] == {c: 10 ** -0.5}
    assert model.alphas == {(model.symbols.find("b"),): 0.0,
                            (c,): 10 ** 0.25}
    assert model.probs.get((c,), {}) == {}


def test_read_arpa_rejects_an_epsilon_word():
    with pytest.raises(ParseError, match=r"^line 6: .*<eps>"):
        read_arpa(ARPA_HEAD + "-0.5 a\n-0.5 b\n\\2-grams:\n-0.1 a <eps>\n")
