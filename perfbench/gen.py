"""Seeded input generators for the benchmark workloads.

Everything here is plain Python over strings, tuples and ``random.Random``;
nothing calls into ``wfst``.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# -- rules: a phonological grammar ---------------------------------------

LETTERS = "abcdefghijklmnopqrstuvwxy"
CLASS_SIZES = (("V", 5), ("P", 6), ("F", 5), ("N", 3), ("L", 3))
N_RULES = 12
# The grammar's shape (which rules rewrite a symbol, a class or a pair, and
# what their contexts look like) is one fixed draw; a workload seed relabels
# the alphabet and draws the weights.  Relabelled grammars are isomorphic,
# so the compiled cascade has the same size on every seed, and timings move
# only with the seeded input strings.  Shape seed 4 gave one of the two
# median cascade sizes among shape seeds 1-8 (see WORKLOADS.md).
GRAMMAR_SHAPE_SEED = 4


def _grammar_shape(rng):
    letters = list(LETTERS)
    rng.shuffle(letters)
    classes, i = {}, 0
    for name, size in CLASS_SIZES:
        classes[name] = tuple(sorted(letters[i:i + size]))
        i += size

    def item():
        if rng.random() < 0.5:
            return ("class", rng.choice(sorted(classes)))
        return ("sym", rng.choice(LETTERS))

    def context():
        return [item() for _ in range(rng.choice((0, 1, 1, 2)))]

    rules = []
    for _ in range(N_RULES):
        r = rng.random()
        if r < 0.6:
            phi = ("sym", (rng.choice(LETTERS),))
        elif r < 0.85:
            phi = ("class", rng.choice(sorted(classes)))
        else:
            phi = ("pair", (rng.choice(LETTERS), rng.choice(LETTERS)))
        banned = set(classes[phi[1]]) if phi[0] == "class" else \
            set(phi[1]) if phi[0] == "sym" else set()
        pool = [s for s in LETTERS if s not in banned]
        n_alts = 2 if rng.random() < 0.33 else 1
        psi = rng.sample(pool, n_alts)
        rules.append({"phi": phi, "psi": psi, "lam": context(),
                      "rho": context()})
    return classes, rules


@dataclass
class Grammar:
    """A rule file and the same rules as finite sets for the oracle.

    ``rules`` holds one (phi, psi, lam, rho) tuple per rule: phi, lam and
    rho are sets of symbol tuples (the empty tuple matches anywhere), psi a
    list of (cost, replacement tuple).
    """

    text: str
    rules: list
    classes: dict


def grammar(rng: random.Random) -> Grammar:
    classes, shape = _grammar_shape(random.Random(GRAMMAR_SHAPE_SEED))
    target = list(LETTERS)
    rng.shuffle(target)
    relabel = dict(zip(LETTERS, target))
    classes = {n: tuple(sorted(relabel[s] for s in members))
               for n, members in classes.items()}

    def expand(item):
        kind, value = item
        if kind == "class":
            return value, [(s,) for s in classes[value]]
        return relabel[value], [(relabel[value],)]

    def context(items):
        text, alts = "", {()}
        for item in items:
            t, opts = expand(item)
            text += t
            alts = {a + o for a in alts for o in opts}
        return text, alts

    lines = [f"Class S = [{' '.join(LETTERS)}];"]
    lines += [f"Class {n} = [{' '.join(m)}];" for n, m in classes.items()]
    rules = []
    for spec in shape:
        kind, value = spec["phi"]
        if kind == "class":
            phi_t, phi = value, {(s,) for s in classes[value]}
        else:
            word = tuple(relabel[s] for s in value)
            phi_t, phi = "".join(word), {word}
        if len(spec["psi"]) == 1:
            x = relabel[spec["psi"][0]]
            psi_t, psi = x, [(0.0, (x,))]
        else:
            costs = (rng.choice((0.1, 0.2, 0.3)), rng.choice((0.9, 1.2, 1.6)))
            psi = [(c, (relabel[s],)) for c, s in zip(costs, spec["psi"])]
            psi_t = "|".join(f"<{c}>{s[0]}" for c, s in psi)
        lam_t, lam = context(spec["lam"])
        rho_t, rho = context(spec["rho"])
        lines.append(f"{phi_t} -> {psi_t} / {lam_t} _ {rho_t};")
        rules.append((phi, psi, lam, rho))
    return Grammar("\n".join(lines) + "\n", rules, classes)


def rule_input(rng: random.Random, g: Grammar, k: int):
    """Word ``k`` of a pool: 8-16 symbols with a loose consonant-vowel
    rhythm, so that contexts built from classes match often.  The length
    cycles through 8..16 with ``k``, so that every pool holds the same
    mix of lengths."""
    vowels = g.classes["V"]
    others = [s for s in LETTERS if s not in vowels]
    vowel = rng.random() < 0.5
    word = []
    for _ in range(8 + k % 9):
        if rng.random() < 0.15:
            word.append(rng.choice(LETTERS))
        else:
            word.append(rng.choice(vowels if vowel else others))
        vowel = not vowel
    return word


# -- decode: corpus, lexicon, channel, utterances ------------------------

N_WORDS = 200
N_SENTENCES = 10_000
SENTENCE_LEN = (2, 9)
N_PHONES = 12
PRON_LEN = (2, 4)
N_CONFUSIONS = 1
CONFUSION_COST = 2.0
CONFUSION_RATE = 0.2
UTTERANCE_PHONES = (15, 25)
LEXICON_SHAPE_SEED = 1

WORDS = [f"w{i:03d}" for i in range(N_WORDS)]
PHONES = [f"p{i:02d}" for i in range(N_PHONES)]
_ZIPF = [1.0 / (rank + 1) for rank in range(N_WORDS)]


def corpus(rng: random.Random):
    """Sentences of Zipf-distributed words, no other structure."""
    return [rng.choices(WORDS, _ZIPF, k=rng.randint(*SENTENCE_LEN))
            for _ in range(N_SENTENCES)]


def _pronunciations(rng):
    prons, seen = {}, set()
    for w in WORDS:
        while True:
            p = tuple(rng.choice(PHONES)
                      for _ in range(rng.randint(*PRON_LEN)))
            if p not in seen:
                break
        seen.add(p)
        prons[w] = p
    return prons


def _confusions(rng):
    return {p: rng.sample([q for q in PHONES if q != p], N_CONFUSIONS)
            for p in PHONES}


def lexicon(rng: random.Random):
    """(word -> distinct phone tuple, clean phone -> phones it may be heard
    as).  Like the grammar, both are one fixed draw whose phones the seed
    relabels: which words sound alike, and which phones are confused, moved
    decoding time by a third between seeds, more than any other input."""
    shape = random.Random(LEXICON_SHAPE_SEED)
    prons, confused = _pronunciations(shape), _confusions(shape)
    target = list(PHONES)
    rng.shuffle(target)
    relabel = dict(zip(PHONES, target))
    return ({w: tuple(relabel[p] for p in phones)
             for w, phones in prons.items()},
            {relabel[p]: [relabel[q] for q in heard]
             for p, heard in confused.items()})


def utterance(rng: random.Random, prons, confused, k: int):
    """Utterance ``k`` of a pool: noisy phones of a Zipf word sequence of
    15-25 phones, of which a fifth (rounded) are confused.  The shortest
    length allowed cycles through 15..22 with ``k``, so that every pool
    holds the same mix of lengths, and the share of confused phones is
    fixed rather than drawn; which words and which phones stay random."""
    low, high = UTTERANCE_PHONES
    shortest = low + k % (high - low - PRON_LEN[1] + 2)
    phones = []
    while len(phones) < shortest:
        nxt = prons[rng.choices(WORDS, _ZIPF)[0]]
        if len(phones) + len(nxt) <= high:
            phones.extend(nxt)
    heard = rng.sample(range(len(phones)), round(CONFUSION_RATE * len(phones)))
    for i in heard:
        phones[i] = rng.choice(confused[phones[i]])
    return phones


# -- lattice: acyclic word lattices --------------------------------------

LATTICE_SLOTS = 16
LATTICE_WIDTH = 8
LATTICE_VOCAB = 30
LATTICE_FANOUT = 3


def lattice_arcs(rng: random.Random):
    """(n_states, arcs, final) of one slotted DAG.

    Slot 0 is the start state and the last slot a single final state; every
    state sends ``LATTICE_FANOUT`` arcs to random states of the next slot.
    Arcs are (src, word, weight, dst); words are 1..LATTICE_VOCAB and
    weights uniform on a 0.25 grid, so sums are exact in floating point.
    """
    slots = [[0]]
    n = 1
    for _ in range(LATTICE_SLOTS - 1):
        slots.append(list(range(n, n + LATTICE_WIDTH)))
        n += LATTICE_WIDTH
    slots.append([n])
    n += 1
    arcs = []
    for t in range(LATTICE_SLOTS):
        for q in slots[t]:
            for _ in range(LATTICE_FANOUT):
                arcs.append((q, rng.randint(1, LATTICE_VOCAB),
                             rng.randint(0, 12) * 0.25,
                             rng.choice(slots[t + 1])))
    return n, arcs, slots[-1][0]
