"""N-gram counting, maximum-likelihood and Good-Turing--Katz estimation,
and compilation of a back-off model into a weighted acceptor.

Counting pads each sentence with the reserved boundary symbols ``<s>`` and
``</s>``.  Costs use the natural log; the ARPA-style dump uses log10 as
that format expects.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .errors import ContractError, ParseError, SymbolError
from .machine import (EPSILON, EPSILON_SYMBOL, Machine, SymbolTable, _Tokens,
                      check_record)
from .semiring import Semiring

BOS = "<s>"
EOS = "</s>"
DEFAULT_K_THRESHOLD = 5
_SECTION = re.compile(r"\\(\d+)-grams:$")


def _labels(symbols, reserved):
    """word -> ``symbols.add(word)``, each distinct word added once;
    ``SymbolError`` on a word in ``reserved``."""
    def label(word):
        if word in reserved:
            raise SymbolError(f"reserved symbol {word!r} used as a word")
        return symbols.add(word)
    return _Tokens(label)


@dataclass
class CountTable:
    order: int
    counts: Counter = field(default_factory=Counter)
    total: int = 0  # unigram tokens, sentence-end included
    symbols: SymbolTable = field(default_factory=SymbolTable)

    def count(self, gram) -> int:
        return self.counts.get(tuple(gram), 0)

    def vocabulary(self):
        """Unigram labels that may be predicted (everything but <s>, which
        a table read from counts of order 1 need not know)."""
        bos = self.symbols.find(BOS) if BOS in self.symbols else None
        return sorted(g[0] for g in self.counts if len(g) == 1 and g[0] != bos)


def count_ngrams(corpus, n: int) -> CountTable:
    """Count all k-grams (k <= n) over boundary-padded sentences.

    ``corpus`` is an iterable of sentences, each a sequence of token
    strings.  Unknown tokens are added to the symbol table, each once;
    ``SymbolError`` on a token ``<s>``, ``</s>`` or ``<eps>``.  k-grams enter
    ``counts`` in order of first appearance: sentence by sentence, k by k,
    left to right.
    """
    if n < 1:
        raise ContractError("order must be >= 1")
    table = CountTable(n)
    bos = table.symbols.add(BOS)
    eos = table.symbols.add(EOS)
    labels = _labels(table.symbols, (BOS, EOS, EPSILON_SYMBOL))
    lead = max(1, n - 1)
    head = [bos] * lead
    # <s> fills only the lead, so the k-grams not of <s> alone are those
    # ending at or past position lead: zip the k tails that start at
    # lead + 1 - k through lead, k = 1 .. n
    firsts = range(lead, lead - n, -1)
    update = table.counts.update
    for sentence in corpus:
        padded = head + [labels[tok] for tok in sentence]
        padded.append(eos)
        table.total += len(padded) - lead
        tails = [padded[i:] for i in range(lead + 1)]
        update(chain.from_iterable([zip(*tails[i:]) for i in firsts]))
    return table


def write_counts(ct: CountTable) -> str:
    """Count-table text: header lines then 'symbols<TAB>count' per k-gram."""
    check_record(ct, CountTable)
    lines = [f"order {ct.order}", f"total {ct.total}"]
    word = _Tokens(ct.symbols.find).__getitem__
    counts = ct.counts
    lines += [f"{' '.join(map(word, gram))}\t{counts[gram]}"
              for gram in sorted(counts)]
    return "\n".join(lines) + "\n"


def _read_int(text, lineno, least=0):
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}", lineno) from None
    if value < least:
        raise ParseError(f"{value} is below {least}", lineno)
    return value


def read_counts(text) -> CountTable:
    """Count table from ``write_counts`` text; ``ParseError`` with the line
    number on a line without a tab, a negative or non-integer field, or
    the word ``<eps>``.  A declared order above the longest gram read is
    lowered to that gram's length."""
    table = CountTable(1)
    label = _labels(table.symbols, (EPSILON_SYMBOL,)).__getitem__
    # count field -> its value, each distinct field read once, on the
    # line that first holds it (the line an error names)
    values = _Tokens(lambda field: _read_int(field, lineno))
    counts = table.counts
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if line.startswith("order "):
            table.order = _read_int(line[6:], lineno, least=1)
        elif line.startswith("total "):
            table.total = _read_int(line[6:], lineno)
        else:
            words, tab, count = line.rpartition("\t")
            if not tab:
                raise ParseError(f"count line lacks a tab: {raw!r}", lineno)
            try:
                gram = tuple(map(label, words.split()))
            except SymbolError as exc:
                raise ParseError(str(exc), lineno) from None
            counts[gram] = values[count]
    table.order = max(1, min(table.order, max(map(len, counts), default=1)))
    return table


def frequency_of_frequencies(ct: CountTable, k: int) -> Counter:
    """r -> number of k-grams occurring r times."""
    ff = Counter()
    for gram, c in ct.counts.items():
        if len(gram) == k:
            ff[c] += 1
    return ff


def mle(ct: CountTable, gram) -> float:
    """Maximum-likelihood estimate of the last word given the rest (of one
    word: its share of the tokens); unseen n-grams get zero."""
    check_record(ct, CountTable)
    gram = tuple(gram)
    c = ct.count(gram)
    if len(gram) == 1:
        if ct.total < 1:
            raise ContractError(f"token total is {ct.total}: no unigram MLE")
        return c / ct.total
    denom = ct.count(gram[:-1])
    if denom == 0:
        raise ContractError(f"context {gram[:-1]} never occurs; "
                            "conditional probability undefined")
    return c / denom


def good_turing(ff, c: int, k_threshold: int = DEFAULT_K_THRESHOLD) -> float:
    """Discounted count c* = (c+1) n_{c+1} / n_c.

    Counts above the threshold, or with degenerate frequency-of-frequency
    statistics, pass through undiscounted (Katz's convention).
    """
    if c < 1:
        raise ContractError("good_turing applies to observed counts (c >= 1)")
    if c > k_threshold:
        return float(c)
    n_c, n_c1 = ff.get(c, 0), ff.get(c + 1, 0)
    if n_c == 0 or n_c1 == 0:
        return float(c)
    return (c + 1) * n_c1 / n_c


@dataclass
class BackoffModel:
    """Katz back-off model: discounted conditionals and back-off weights."""

    order: int
    probs: dict       # context tuple -> {word: P*(word | context)}
    alphas: dict      # context tuple -> backoff weight
    vocabulary: list  # predictable labels (includes </s>)
    symbols: SymbolTable
    floor: float = 0.0  # P(word) of a word the unigram table lacks

    def prob(self, word: int, context=()) -> float:
        context = tuple(context)[-(self.order - 1):] if self.order > 1 else ()
        return self._prob(word, context)

    def _prob(self, word, context):
        """Backs off in a loop, so no context length exhausts the stack;
        the alpha of each context passed that has a table applies innermost
        first, alpha_1 * (alpha_2 * (... * p)), as a recursion would."""
        alphas = []
        while True:
            table = self.probs.get(context)
            if table is not None and word in table:
                p = table[word]
                break
            if not context:
                p = self.floor
                break
            if table is not None:
                alphas.append(self.alphas[context])
            context = context[1:]
        for alpha in reversed(alphas):
            p = alpha * p
        return p

    def sentence_logprob(self, sentence) -> float:
        """Natural-log probability of a tokenized sentence (strings)."""
        eos = self.symbols.find(EOS)
        ids = [self.symbols.find(t) if isinstance(t, str) else t
               for t in sentence]
        # a unigram model has no history, and may not know <s>
        history = ([self.symbols.find(BOS)] * (self.order - 1)
                   if self.order > 1 else [])
        logp = 0.0
        for w in ids + [eos]:
            p = self.prob(w, tuple(history))
            if p <= 0.0:
                return -math.inf
            logp += math.log(p)
            history = (history + [w])[-(self.order - 1):] if self.order > 1 else []
        return logp


def katz_model(ct: CountTable, k_threshold: int = DEFAULT_K_THRESHOLD) -> BackoffModel:
    """Good-Turing discounting plus Katz back-off normalization.

    Every context's probabilities sum to one over the full vocabulary once
    unseen words are scored through alpha(h) * P(word | shorter context).
    """
    check_record(ct, CountTable)
    vocab = ct.vocabulary()
    if ct.counts and ct.total < 1:  # as read from counts without 'total'
        raise ContractError(f"token total is {ct.total}: no unigram estimate")
    if not vocab:  # an empty corpus, or counts without a unigram line
        raise ContractError("the count table holds no words to estimate")
    probs = {}
    alphas = {}
    # k -> context -> {word: count}, all in the order of ct.counts
    by_order = {k: {} for k in range(1, max(ct.order, 1) + 1)}
    for gram, c in ct.counts.items():
        contexts = by_order.get(len(gram))
        if contexts is not None:
            contexts.setdefault(gram[:-1], {})[gram[-1]] = c

    # where c* = (c+1) n_{c+1} / n_c exceeds c, c passes through, as it
    # does for a zero n_c or n_{c+1}: a discount never raises a count;
    # one table per order, each count discounted once
    def discounts(k):
        ff = Counter(c for seen in by_order[k].values() for c in seen.values())
        return _Tokens(lambda c: min(good_turing(ff, c, k_threshold), c))

    # unigrams: discounted, leftover mass spread as a uniform floor
    discount = discounts(1)
    unigrams = by_order[1].get((), {})
    discounted = {y: discount[unigrams[y]] for y in vocab}
    base = {y: discounted[y] / ct.total for y in vocab}
    leftover = 1.0 - sum(base.values())
    floor = max(leftover, 0.0) / len(vocab) if vocab else 0.0
    probs[()] = {y: base[y] + floor for y in vocab}

    model = BackoffModel(ct.order, probs, alphas, vocab, ct.symbols, floor)
    backoff = model._prob

    for k in range(2, ct.order + 1):
        discount = discounts(k)
        contexts = by_order[k]
        for h in sorted(contexts):
            seen = contexts[h]
            total = sum(seen.values())
            p_star = {y: discount[c] / total for y, c in seen.items()}
            num = 1.0 - sum(p_star.values())
            shorter = h[1:]
            lower = probs.get(shorter, {})
            den = 1.0 - sum([lower[y] if y in lower else backoff(y, shorter)
                             for y in seen])
            if den < 1e-12:
                # every vocabulary word is seen in this context (or backs
                # off to nothing): no mass can be reassigned, so keep the
                # undiscounted estimates and never back off
                probs[h] = {y: c / total for y, c in seen.items()}
                alphas[h] = 0.0
                continue
            # num below zero is rounding (each discount <= its count)
            probs[h] = p_star
            alphas[h] = max(num, 0.0) / den
    return model


def build_lm_fsa(model: BackoffModel) -> Machine:
    """Back-off model as a TROPICAL acceptor.

    States are contexts; word arcs cost -ln P*(word | context), a single
    epsilon arc per state backs off to the shortened context at cost
    -ln alpha(context); sentence end is carried by final weights.
    """
    check_record(model, BackoffModel)
    eos = model.symbols.find(EOS)
    kind = Semiring.TROPICAL
    contexts = sorted(model.probs, key=lambda h: (len(h), h))
    ids = {h: q for q, h in enumerate(contexts)}
    # probability -> its cost, checked once; -ln p of a p > 0 is never
    # zero's +inf, so every cost is a final weight or an arc weight
    costs = _Tokens(lambda p: kind.check(-math.log(p)))
    keep = max(0, model.order - 1)

    def target(history):
        for i in range(len(history)):
            if history[i:] in ids:
                return ids[history[i:]]
        return ids[()]

    arcs = [None] * len(contexts)
    finals = {}
    for h, table in model.probs.items():
        q = ids[h]
        out = arcs[q] = []
        for y, p in sorted(table.items()):
            if p <= 0.0:
                continue
            if y == eos:
                finals[q] = costs[p]
                continue
            nxt = (h + (y,))[-keep:] if keep else ()
            t = ids.get(nxt)
            out.append((y, y, costs[p], target(nxt) if t is None else t))
        if h:
            alpha = model.alphas.get(h, 0.0)
            if alpha > 0.0:  # alpha 0: all mass seen, no back-off arc
                out.append((EPSILON, EPSILON, costs[alpha], target(h[1:])))
    # a unigram model starts at its one context, and may not know <s>
    start = target((model.symbols.find(BOS),) * keep) if keep else ids[()]
    return Machine._from_parts(kind, model.symbols, model.symbols, arcs,
                               finals, start)


def write_arpa(model: BackoffModel) -> str:
    """ARPA-style text dump: per-order sections of log10 P lines with
    trailing log10 back-off weights on context grams."""
    check_record(model, BackoffModel)
    word = _Tokens(model.symbols.find)
    # probability or weight -> its log10 field, formatted once
    log10 = _Tokens(lambda x: f"{-99.0 if x <= 0 else math.log10(x):.6f}")
    alphas = model.alphas
    # k -> k-gram -> its line without the back-off field
    grams_by_order = {k: {} for k in range(1, model.order + 1)}
    for h, table in model.probs.items():
        grams = grams_by_order[len(h) + 1]
        head = "".join([word[g] + " " for g in h])
        for y, p in table.items():
            grams[h + (y,)] = f"{log10[p]}\t{head}{word[y]}"
    # contexts that carry a back-off weight but no probability of their own
    # (the sentence-start context) still need a line
    for h in alphas:
        grams = grams_by_order[len(h)]
        if h not in grams:
            grams[h] = f"{log10[0.0]}\t{' '.join([word[g] for g in h])}"
    lines = ["\\data\\"]
    for k in range(1, model.order + 1):
        lines.append(f"ngram {k}={len(grams_by_order[k])}")
    for k in range(1, model.order + 1):
        lines.append("")
        lines.append(f"\\{k}-grams:")
        grams = grams_by_order[k]
        for gram in sorted(grams):
            if gram in alphas:
                lines.append(f"{grams[gram]}\t{log10[alphas[gram]]}")
            else:
                lines.append(grams[gram])
    lines += ["", "\\end\\", ""]
    return "\n".join(lines)


def read_arpa(text) -> BackoffModel:
    """Inverse of write_arpa (up to the dump's 6-decimal rounding);
    ``ParseError`` with the line number on a malformed line or the word
    ``<eps>``."""
    symbols = SymbolTable()
    label = _labels(symbols, (EPSILON_SYMBOL,)).__getitem__
    probs = {(): {}}
    alphas = {}
    order = 1
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line[:1] == "\\":
            if line == "\\end\\":
                break
            hit = _SECTION.match(line)
            if hit:
                section = int(hit.group(1))
                continue
            if line == "\\data\\":
                continue
        elif not line or line.startswith("ngram "):
            continue
        if section is None:
            raise ParseError(f"line outside any section: {raw!r}", lineno)
        fields = line.split()
        if len(fields) <= section:
            raise ParseError(f"expected a {section}-gram: {raw!r}", lineno)
        try:
            logp = float(fields[0])
            backoff = None
            if len(fields) > 1 + section:
                backoff = float(fields[1 + section])
            # NaN fails both tests; -inf, like -99, is probability zero
            if not logp <= 0.0:
                raise ParseError(f"log10 probability above 0: {raw!r}", lineno)
            if backoff is not None and not math.isfinite(backoff):
                raise ParseError(f"log10 back-off not finite: {raw!r}", lineno)
            prob = 10.0 ** logp
            alpha = None if backoff is None else 10.0 ** backoff
        except (ValueError, OverflowError):
            raise ParseError(f"malformed line {raw!r}", lineno) from None
        try:
            gram = tuple(map(label, fields[1:1 + section]))
        except SymbolError as exc:
            raise ParseError(str(exc), lineno) from None
        order = max(order, section)  # an empty section sets no order
        if logp > -98.0:
            probs.setdefault(gram[:-1], {})[gram[-1]] = prob
        if backoff is not None:
            alphas[gram] = 0.0 if backoff <= -98.0 else alpha
    # an omitted back-off is log10 alpha = 0
    alphas.update((h, 1.0) for h in probs if h and h not in alphas)
    vocab = sorted(probs[()])
    return BackoffModel(order, probs, alphas, vocab, symbols)
