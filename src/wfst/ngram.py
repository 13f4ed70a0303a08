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

from .errors import ContractError, FsmError, ParseError
from .machine import EPSILON, Machine, SymbolTable
from .semiring import Semiring

BOS = "<s>"
EOS = "</s>"
DEFAULT_K_THRESHOLD = 5


@dataclass
class CountTable:
    order: int
    counts: Counter = field(default_factory=Counter)
    total: int = 0  # unigram tokens, sentence-end included
    symbols: SymbolTable = field(default_factory=SymbolTable)

    def count(self, gram) -> int:
        return self.counts.get(tuple(gram), 0)

    def vocabulary(self):
        """Unigram labels that may be predicted (everything but <s>)."""
        bos = self.symbols.find(BOS)
        return sorted(g[0] for g in self.counts if len(g) == 1 and g[0] != bos)


def count_ngrams(corpus, n: int, symbols: SymbolTable | None = None) -> CountTable:
    """Count all k-grams (k <= n) over boundary-padded sentences.

    ``corpus`` is an iterable of sentences, each a sequence of token
    strings.  Unknown tokens are added to the symbol table.
    """
    if n < 1:
        raise ContractError("order must be >= 1")
    table = CountTable(n, symbols=symbols or SymbolTable())
    bos = table.symbols.add(BOS)
    eos = table.symbols.add(EOS)
    for sentence in corpus:
        ids = [table.symbols.add(tok) for tok in sentence]
        padded = [bos] * max(1, n - 1) + ids + [eos]
        table.total += len(ids) + 1
        for k in range(1, n + 1):
            for i in range(len(padded) - k + 1):
                gram = tuple(padded[i:i + k])
                if all(g == bos for g in gram):
                    continue
                table.counts[gram] += 1
    return table


def write_counts(ct: CountTable) -> str:
    """Count-table text: header lines then 'symbols<TAB>count' per k-gram."""
    lines = [f"order {ct.order}", f"total {ct.total}"]
    sym = ct.symbols.find
    for gram in sorted(ct.counts):
        words = " ".join(sym(g) for g in gram)
        lines.append(f"{words}\t{ct.counts[gram]}")
    return "\n".join(lines) + "\n"


def _read_int(text, lineno, least=0):
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}", lineno) from None
    if value < least:
        raise ParseError(f"{value} is below {least}", lineno)
    return value


def read_counts(text, symbols: SymbolTable | None = None) -> CountTable:
    """Count table from ``write_counts`` text; ``ParseError`` with the line
    number on a line without a tab, or a negative or non-integer field."""
    table = CountTable(1, symbols=symbols or SymbolTable())
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("order "):
            table.order = _read_int(line[6:], lineno, least=1)
        elif line.startswith("total "):
            table.total = _read_int(line[6:], lineno)
        else:
            if "\t" not in line:
                raise ParseError(f"count line lacks a tab: {raw!r}", lineno)
            words, count = line.rsplit("\t", 1)
            gram = tuple(table.symbols.add(w) for w in words.split())
            table.counts[gram] = _read_int(count, lineno)
    return table


def frequency_of_frequencies(ct: CountTable, k: int) -> Counter:
    """r -> number of k-grams occurring r times."""
    ff = Counter()
    for gram, c in ct.counts.items():
        if len(gram) == k:
            ff[c] += 1
    return ff


def mle(ct: CountTable, gram, conditional=True) -> float:
    """Maximum-likelihood estimate; unseen n-grams get zero."""
    gram = tuple(gram)
    c = ct.count(gram)
    if not conditional or len(gram) == 1:
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
        table = self.probs.get(context)
        if table is not None and word in table:
            return table[word]
        if not context:
            return self.floor
        shorter = context[1:]
        if table is None:
            return self._prob(word, shorter)
        return self.alphas[context] * self._prob(word, shorter)

    def sentence_logprob(self, sentence) -> float:
        """Natural-log probability of a tokenized sentence (strings)."""
        bos = self.symbols.find(BOS)
        eos = self.symbols.find(EOS)
        ids = [self.symbols.find(t) if isinstance(t, str) else t
               for t in sentence]
        history = [bos] * max(0, self.order - 1)
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
    vocab = ct.vocabulary()
    if ct.counts and ct.total < 1:  # as read from counts without 'total'
        raise ContractError(f"token total is {ct.total}: no unigram estimate")
    probs = {}
    alphas = {}

    # where c* = (c+1) n_{c+1} / n_c exceeds c, c passes through, as it
    # does for a zero n_c or n_{c+1}: a discount never raises a count
    def discount(ff, c):
        return min(good_turing(ff, c, k_threshold), c)

    # unigrams: discounted, leftover mass spread as a uniform floor
    ff1 = frequency_of_frequencies(ct, 1)
    discounted = {y: discount(ff1, ct.count((y,))) for y in vocab}
    base = {y: discounted[y] / ct.total for y in vocab}
    leftover = 1.0 - sum(base.values())
    floor = max(leftover, 0.0) / len(vocab) if vocab else 0.0
    probs[()] = {y: base[y] + floor for y in vocab}

    model = BackoffModel(ct.order, probs, alphas, vocab, ct.symbols, floor)

    for k in range(2, ct.order + 1):
        ff = frequency_of_frequencies(ct, k)
        contexts = {}
        for gram, c in ct.counts.items():
            if len(gram) == k:
                contexts.setdefault(gram[:-1], {})[gram[-1]] = c
        for h in sorted(contexts):
            seen = contexts[h]
            total = sum(seen.values())
            p_star = {y: discount(ff, c) / total for y, c in seen.items()}
            num = 1.0 - sum(p_star.values())
            den = 1.0 - sum(model._prob(y, h[1:]) for y in seen)
            if den < 1e-12:
                # every vocabulary word is seen in this context (or backs
                # off to nothing): no mass can be reassigned, so keep the
                # undiscounted estimates and never back off
                probs[h] = {y: c / total for y, c in seen.items()}
                alphas[h] = 0.0
                continue
            if num < 0.0:
                raise FsmError(f"back-off degenerate for context {h}: "
                               f"discounted mass exceeds one ({num})")
            probs[h] = p_star
            alphas[h] = num / den
    return model


def build_lm_fsa(model: BackoffModel) -> Machine:
    """Back-off model as a TROPICAL acceptor.

    States are contexts; word arcs cost -ln P*(word | context), a single
    epsilon arc per state backs off to the shortened context at cost
    -ln alpha(context); sentence end is carried by final weights.
    """
    eos = model.symbols.find(EOS)
    bos = model.symbols.find(BOS)
    m = Machine(Semiring.TROPICAL, model.symbols, model.symbols)
    ids = {h: m.add_state()
           for h in sorted(model.probs, key=lambda h: (len(h), h))}

    def target(history):
        for i in range(len(history)):
            if history[i:] in ids:
                return ids[history[i:]]
        return ids[()]

    for h in model.probs:
        q = ids[h]
        for y, p in sorted(model.probs[h].items()):
            if p <= 0.0:
                continue
            if y == eos:
                m.set_final(q, -math.log(p))
            else:
                nxt = (h + (y,))[-(model.order - 1):] if model.order > 1 else ()
                m.add_arc(q, y, y, -math.log(p), target(nxt))
        if h:
            alpha = model.alphas.get(h, 0.0)
            if alpha > 0.0:  # alpha 0: all mass seen, no back-off arc
                m.add_arc(q, EPSILON, EPSILON, -math.log(alpha), target(h[1:]))
    start_ctx = ((bos,) * (model.order - 1)) if model.order > 1 else ()
    m.set_start(target(start_ctx))
    return m.freeze()


def write_arpa(model: BackoffModel) -> str:
    """ARPA-style text dump: per-order sections of log10 P lines with
    trailing log10 back-off weights on context grams."""
    def log10(x):
        return -99.0 if x <= 0 else math.log10(x)

    sym = model.symbols.find
    lines = ["\\data\\"]
    grams_by_order = {k: [] for k in range(1, model.order + 1)}
    for h, table in model.probs.items():
        for y, p in sorted(table.items()):
            grams_by_order[len(h) + 1].append((h + (y,), p))
    # contexts that carry a back-off weight but no probability of their own
    # (the sentence-start context) still need a line
    emitted = {k: {g for g, _ in grams} for k, grams in grams_by_order.items()}
    for h in model.alphas:
        if h not in emitted.get(len(h), ()):
            grams_by_order[len(h)].append((h, 0.0))
    for k in range(1, model.order + 1):
        lines.append(f"ngram {k}={len(grams_by_order[k])}")
    for k in range(1, model.order + 1):
        lines.append("")
        lines.append(f"\\{k}-grams:")
        for gram, p in sorted(grams_by_order[k]):
            words = " ".join(sym(g) for g in gram)
            entry = f"{log10(p):.6f}\t{words}"
            if gram in model.alphas:
                entry += f"\t{log10(model.alphas[gram]):.6f}"
            lines.append(entry)
    lines += ["", "\\end\\", ""]
    return "\n".join(lines)


def read_arpa(text, symbols: SymbolTable | None = None) -> BackoffModel:
    """Inverse of write_arpa (up to the dump's 6-decimal rounding)."""
    symbols = symbols or SymbolTable()
    probs = {(): {}}
    alphas = {}
    order = 1
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line == "\\data\\" or line.startswith("ngram "):
            continue
        if line == "\\end\\":
            break
        hit = re.match(r"\\(\d+)-grams:$", line)
        if hit:
            section = int(hit.group(1))
            order = max(order, section)
            continue
        if section is None:
            raise ParseError(f"line outside any section: {raw!r}", lineno)
        fields = line.split()
        words = fields[1:1 + section]
        if len(words) != section:
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
        gram = tuple(symbols.add(w) for w in words)
        if logp > -98.0:
            probs.setdefault(gram[:-1], {})[gram[-1]] = prob
        if backoff is not None:
            alphas[gram] = 0.0 if backoff <= -98.0 else alpha
    # an omitted back-off is log10 alpha = 0
    alphas.update((h, 1.0) for h in probs if h and h not in alphas)
    vocab = sorted(probs[()])
    return BackoffModel(order, probs, alphas, vocab, symbols)
