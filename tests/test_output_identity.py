"""Golden outputs of every public machine operation.

Each op runs over seeded ``sample_machines`` draws of all three semirings:
acceptors and transducers, acyclic and cyclic.  The boolean-only ops run
over the boolean acceptor draws, ``marker`` over seeded deterministic
acceptors, and the compilers over fixed patterns, seeded rules and a few
trees.  A machine is pinned by its ``write_text`` and start weight, any
other result by its ``repr``, and a typed ``FsmError`` by its ``repr``; the
SHA-256 of those texts, joined over the inputs, pins each op byte for byte.
Determinization is bounded by ``expansion_cap``, so an input that is not
determinizable fails fast rather than being left out.

``apply_rewrite`` is pinned over seeded grammars of one to three rules,
composed and compacted as ``rule compile`` does: the ``repr`` of its
``all`` and ``best`` results (or typed error) for each of a fixed set of
seeded input strings, joined into one SHA-256.

The ``lm count|build|fsa`` pipeline is pinned the same way: two seeded
Zipf corpora (``helpers.zipf_corpus``), each at orders 2 and 3, run
through ``lm_main`` into files, and one SHA-256 per stage, joined over the
four runs, pins the count file, the ARPA file, and the LM machine text
with its ``.syms``.
"""

import hashlib
import itertools
import math
import random

import pytest

from wfst import (CascadeSpec, FsmError, Machine, Rule, Semiring, SymbolTable,
                  accepted_pairs, apply_rewrite, beam_decode, build_lm_fsa,
                  closure, compact, compile_regex, compile_tree,
                  compile_weighted_rule, complement, compose, concat,
                  connect, determinize, difference, expand, intersect,
                  lazy_compose, local_determinize, marker, minimize,
                  observation_machine, parse_tree, project, push, reverse,
                  union, write_text)

from wfst.cli import lm_main
from wfst.rewrite import register_symbols

from helpers import (build, random_det_acceptor, random_rule_spec,
                     sample_machines, viable_model, zipf_corpus)

INF = math.inf
T = Semiring.TROPICAL
CAP = 60  # determinization's subset states and subset elements
DRAWS = 20  # machines per (semiring, acceptor, acyclic) class


def _draws():
    out = []
    for i, (kind, acc, acyc) in enumerate(itertools.product(
            Semiring, (True, False), (True, False))):
        out.append(sample_machines(4200 + i, DRAWS, kind=kind, acceptor=acc,
                                   acyclic=acyc, max_states=5, max_arcs=8))
    return out


DRAWN = _draws()
SINGLES = [m for group in DRAWN for m in group]
# each draw with the next of its class, so operands share a semiring
PAIRS = [(a, b) for group in DRAWN for a, b in zip(group, group[1:])]
TRIPLES = [(a, b, c) for group in DRAWN
           for a, b, c in zip(group, group[1:], group[2:])]
# the classes run in product order: semiring, then acceptor, then acyclic
ACCEPTOR_PAIRS = [(a, b) for i, group in enumerate(DRAWN) if i % 4 < 2
                  for a, b in zip(group, group[1:])]
BOOLEAN_ACCEPTORS = DRAWN[0] + DRAWN[1]
BOOLEAN_PAIRS = list(zip(BOOLEAN_ACCEPTORS, BOOLEAN_ACCEPTORS[1:]))


def _decodes():
    """Two-stage cascades of tropical transducers, acyclic and cyclic (each
    draw with its successor), over two inputs the cascade accepts and one
    fixed input, each with an exact and a narrow beam."""
    out = []
    for group in DRAWN[6:8]:
        for a, b in zip(group, group[1:]):
            heard = sorted({inp for inp, _ in accepted_pairs(compose(a, b),
                                                             6)})[:2]
            out += [(a, b, obs, beam) for obs in [*heard, (1, 2)]
                    for beam in (INF, 0.5)]
    return out


PHONES = (10, 11, 12, 13)


def _speech_decodes():
    """Three-stage cascades in the paper's shape: a one-state channel that
    hears each phone as itself at no cost or as one or two other phones at
    a cost, a lexicon that spells each word in one to three phones (words
    may sound alike) and writes the word on its first phone, and a Katz
    back-off LM of order 2 or 3, with epsilon back-off arcs.  Each cascade
    decodes a clean spelling of a word string, the same spelling with one
    phone misheard, and the empty string, each with an exact and a narrow
    beam."""
    out = []
    for seed in range(8):
        rng = random.Random(4500 + seed)
        _, model = viable_model(4500 + seed, order=2 + seed % 2)
        lm = build_lm_fsa(model)
        words = [w for w in model.vocabulary if w != model.symbols.find("</s>")]
        prons = {w: [rng.choice(PHONES) for _ in range(rng.randint(1, 3))]
                 for w in words}
        heard = {p: rng.sample([q for q in PHONES if q != p], rng.randint(1, 2))
                 for p in PHONES}
        channel = build(T, [(0, q, p, w, 0) for p in PHONES
                            for q, w in [(p, 0.0)] + [
                                (q, rng.choice((1.0, 2.5))) for q in heard[p]]],
                        {0: 0.0})
        arcs, n = [], 1  # a word's inner states are new; its end is state 0
        for w, phones in prons.items():
            prev = 0
            for i, phone in enumerate(phones):
                nxt = 0 if i == len(phones) - 1 else n
                n += nxt != 0
                arcs.append((prev, phone, w if i == 0 else 0, 0.0, nxt))
                prev = nxt
        lexicon = build(T, arcs, {0: 0.0})
        clean = [p for w in rng.choices(words, k=rng.randint(1, 4))
                 for p in prons[w]]
        noisy = list(clean)
        i = rng.randrange(len(noisy))
        noisy[i] = heard[noisy[i]][0]
        out += [(channel, lexicon, lm, tuple(obs), beam)
                for obs in (clean, noisy, ()) for beam in (INF, 1.0)]
    return out


def _det_acceptors(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = random_det_acceptor(rng, max_states=5, alphabet=(1, 2))
        if m is not None:
            out.append(m)
    return out


PATTERNS = ["a", "ab|c", "(a|b)*c", "a+b?", "[abc]d", "~(a.)", "a*&(ab)*",
            "{sym}V+", "()", "(a|)b", ".*a.*", "~([ab]*)&.?c"]
CLASSES = {"V": ("a", "e")}
TREES = ["""
split left a$
 leaf a -> 0.5 b | 1.5 a
 split right a
  leaf a -> 0.5 b | 1.5 a
  leaf a -> 0.0 a
""", """
split right a.*
 leaf a -> 0.5 b | 1.5 a
 leaf a -> 0.0 a
""", """
Class C = [b c]
split left C
 split right C
  leaf a -> 0.25 b | 2 c
  leaf a -> 1 c
 leaf a -> a
"""]


def _rules(seed, count):
    rng = random.Random(seed)
    return [Rule(*random_rule_spec(rng)[4:]) for _ in range(count)]


def untrimmed(m):
    """``m`` behind two more states, 0 unreachable and 1 dead, each joined
    to every state of ``m``: what ``connect`` must cut away."""
    one = m.kind.one
    out = Machine(m.kind)
    out.add_states(m.num_states + 2)
    for q in m.states():
        for il, ol, w, t in m.arcs(q):
            out.add_arc(q + 2, il, ol, w, t + 2)
        out.add_arc(0, 1, 1, one, q + 2)
        out.add_arc(q + 2, 2, 2, one, 1)
    for q, w in m.finals.items():
        out.set_final(q + 2, w)
    out.set_start(m.start + 2, m.start_weight)
    return out.freeze()


OPS = {
    "compose": (PAIRS, compose),
    "lazy_compose+expand": (PAIRS, lambda a, b: expand(lazy_compose(a, b))),
    "union": (PAIRS, union),
    "concat": (PAIRS, concat),
    "closure": (SINGLES, closure),
    "compact": (SINGLES, compact),
    "reverse": (SINGLES, reverse),
    "project": (SINGLES, lambda m: project(m, "output")),
    "connect": (SINGLES, lambda m: connect(untrimmed(m))),
    "determinize": (SINGLES, lambda m: determinize(m, expansion_cap=CAP)),
    "minimize": (SINGLES,
                 lambda m: minimize(determinize(m, expansion_cap=CAP))),
    "push weights": (SINGLES, lambda m: push(m, "weights")),
    "push strings": (SINGLES, lambda m: push(m, "strings")),
    "local_determinize": (SINGLES, lambda m: local_determinize(m, 1)),
    "local_determinize k=2": (SINGLES, lambda m: local_determinize(m, 2)),
    "local_determinize k=4": (SINGLES, lambda m: local_determinize(m, 4)),
    "concat of three": (TRIPLES, concat),
    "intersect": (ACCEPTOR_PAIRS, intersect),
    "complement": (BOOLEAN_ACCEPTORS, complement),
    "complement over 1..4": (
        BOOLEAN_ACCEPTORS, lambda m: complement(m, alphabet=(1, 2, 3, 4))),
    "difference": (BOOLEAN_PAIRS, difference),
    "observation_machine": (
        list(itertools.product(
            [(), (1,), (2, 1, 2), (3, 3, 3, 3)], Semiring)),
        observation_machine),
    "marker 1": (_det_acceptors(4300, 20),
                 lambda m: marker(m, 1, insert=(5, 6))),
    "marker 2": (_det_acceptors(4301, 20), lambda m: marker(m, 2, delete=(5,))),
    "marker 3": (_det_acceptors(4302, 20),
                 lambda m: marker(m, 3, delete=(5, 6))),
    "compile_regex": (PATTERNS, lambda p: compile_regex(
        p, SymbolTable(), CLASSES)),
    "compile_weighted_rule": (
        _rules(4400, 40), lambda r: compile_weighted_rule(r, SymbolTable())),
    "compile_tree": (TREES, lambda t: compile_tree(parse_tree(t))),
    "beam_decode": (_decodes(), lambda a, b, obs, beam: beam_decode(
        CascadeSpec([a, b]), obs, beam)),
    "beam_decode of three stages": (
        _speech_decodes(), lambda a, b, c, obs, beam: beam_decode(
            CascadeSpec([a, b, c]), obs, beam)),
}

GOLDEN = {
    "beam_decode":
        "255536e9e4cf64a1ac5955836b7a34fd4efc6b22bfc44a5895f1853be897c7d3",
    "beam_decode of three stages":
        "f2ecaedf872ed32b5b62ecdfebb78d9bdd32fc44839c86ad211d5baad72bb753",
    "closure":
        "5a6f16ce58303ebfd1511affb972dbba3290d60671fa5ce373ffc9746a08472e",
    "compact":
        "cb3a066143717d672329d02f30c0ca0d990bda0044ff536b427ed92b48a41c55",
    "compile_regex":
        "95f51bcbf23eb002771f09fac082c07f6be013a6b035dc53918b6517cf7cb755",
    "compile_tree":
        "666cfa7205d5076135aa5d816fabec2895f205e5c80edf3d7fdab9361968e7ce",
    "compile_weighted_rule":
        "dbbe81d7f5724da3d22955918087908cecc70ac492368c81cdfd0c2593a7408f",
    "complement":
        "ac592287ea0aa9f57aa47d4e415a16f5276341e77faeccd7b7528bbda688674d",
    "complement over 1..4":
        "a19e36be6a4ed544e6b8b3e195e5bf7391ae77d35c712967e4ff124dd2af7103",
    "compose":
        "24266f36fdd3282aba39862969c332f9f54626c3a950e0d821c253dbfe5e4cd6",
    "concat":
        "ead1ff88a85da1b9ea262948495e06a854b6f2509d724e0e1764bbc74d89036b",
    "concat of three":
        "85da5c960e7eb44be61a792635169353efad6666ada426d08becc87e8f29e6e2",
    "connect":
        "393d8c0ecc7171a9a8b7f1b8143236b19942856e6e8cb2466ced72bd09a4bccf",
    "determinize":
        "c9921080d61f4b0bbdcbc50c66bf8dc37cb560db27c3ca40777f6693cbe2b7c8",
    "difference":
        "d9fd4c4f189191f78ab00128e62bf853f5269fef32aeed0fda285f5a6e2c46e5",
    "intersect":
        "d63d218113e6a2cedecabca58373264e7d2004be74c670f41b04b921dac52e0a",
    "lazy_compose+expand":
        "e66b2a59a440b566720f30c2286a2e2f8dbb75dc54aeb316bf13a715bf422e8f",
    "local_determinize":
        "ff68449c220bb833d36bb377c88deaab7ccca7749eb18417166fd58fd4d16a3e",
    "local_determinize k=2":
        "fce98e5b4b7739aaff1ad8d005078aa29061d01d06517d72b0321e211bb38d33",
    "local_determinize k=4":
        "c41472aa958b1aa9ed0388f3f1e5511c8b4e122683c80507e22513fdaaaf5080",
    "marker 1":
        "d23df771f3650ec6b8d9b79741e43a77b8abb6b78a4978985260ce4605fb2f2f",
    "marker 2":
        "f9c71c724fce4d7ab1616517f29e5f33a8ef12d842fd6b059ca5d87912255ad7",
    "marker 3":
        "2c82439701aa23c338969de11f3e84ffb88a06a5eb224f78cdd3327fd78c2b4a",
    "minimize":
        "b9d4a4296ae9282b75fdb69a2d6e28970b9b1ccaee91750d6c2a80695415dd00",
    "observation_machine":
        "8a092e01e557056e81e6046e28858750bc9e486cd38817936391c5f9bd3cab7d",
    "project":
        "f62b1b7e95c5cb45e1d8baf729d6d008fde925b8e3f65cf2b849bd9abd5292c2",
    "push strings":
        "81eb23422ebfdba8f3ccaa5f078480659f358a3e0fe42b493308109385bba1ba",
    "push weights":
        "471aaebd0691d01ec9ac7e27ef7868b2fce6728fb5ef2ef23758b3a053971116",
    "reverse":
        "1cadbeb5e03b30e3ecfa2a531874af9b9195ed43576b7855c0175a54fa0469ea",
    "union":
        "6e2aa55525f515757ca1560a0e3d17d50355f4d67c33227ca46844a124f6e62c",
}


def texts(op):
    operands, run = OPS[op]
    parts = []
    for args in operands:
        try:
            out = run(*args) if isinstance(args, tuple) else run(args)
        except FsmError as exc:
            parts.append(repr(exc))
        else:
            parts.append(f"{write_text(out)}{out.start_weight!r}"
                         if isinstance(out, Machine) else repr(out))
    return parts


@pytest.mark.parametrize("op", sorted(OPS))
def test_op_outputs_are_pinned(op):
    digest = hashlib.sha256("\0".join(texts(op)).encode()).hexdigest()
    assert digest == GOLDEN[op]


LM_SEEDS = (1, 2)
LM_ORDERS = (2, 3)
LM_GOLDEN = {
    "count":
        "305848d4c98393243c53fd65d3348c74665d565ffec07d453acc34df08c5656b",
    "build":
        "c04a4940a4c18845b01a6716c589e679e9df381e5540ccf2a8b4e9f126af71d1",
    "fsa":
        "3ea238c04bd71bb051bff6da8e5fcbbd2dd4e595275990f8c7d3b4cde8584d8f",
}


def lm_pipeline_bytes(tmp_path):
    parts = {stage: [] for stage in LM_GOLDEN}
    for seed in LM_SEEDS:
        corpus = tmp_path / f"corpus{seed}.txt"
        corpus.write_text("".join(" ".join(s) + "\n"
                                  for s in zipf_corpus(seed)))
        for order in LM_ORDERS:
            out = tmp_path / f"{seed}-{order}"
            counts, arpa, fsa = (out.with_suffix(s)
                                 for s in (".counts", ".arpa", ".fst"))
            assert lm_main(["count", "-n", str(order), str(corpus),
                            "-o", str(counts)]) == 0
            assert lm_main(["build", str(counts), "-o", str(arpa)]) == 0
            assert lm_main(["fsa", str(arpa), "-o", str(fsa)]) == 0
            syms = fsa.with_name(fsa.name + ".syms")
            parts["count"].append(counts.read_bytes())
            parts["build"].append(arpa.read_bytes())
            parts["fsa"].append(fsa.read_bytes() + b"\0" + syms.read_bytes())
    return parts


def test_lm_pipeline_outputs_are_pinned(tmp_path):
    parts = lm_pipeline_bytes(tmp_path)
    assert {stage: hashlib.sha256(b"\0".join(p)).hexdigest()
            for stage, p in parts.items()} == LM_GOLDEN


def rewrite_grammars():
    """Six seeded grammars of one to three rules over the alphabet
    ``a b c``, each compiled and composed in order, then compacted, as
    ``rule compile`` builds a cascade."""
    out = []
    for seed in range(6):
        rng = random.Random(4600 + seed)
        rules = [Rule(*random_rule_spec(rng)[4:])
                 for _ in range(1 + seed % 3)]
        symtab = SymbolTable()
        for sym in "abc":
            symtab.add(sym)
        for r in rules:
            register_symbols(r, symtab)
        m = compile_weighted_rule(rules[0], symtab)
        for r in rules[1:]:
            m = compose(m, compile_weighted_rule(r, symtab))
        out.append(compact(m))
    return out


def rewrite_inputs():
    """The empty string, then 39 seeded strings of 1-8 symbols over
    ``a b c``, and one more that ends in a ``d`` no grammar knows."""
    rng = random.Random(4700)
    words = [tuple(rng.choice("abc") for _ in range(rng.randint(1, 8)))
             for _ in range(39)]
    return [(), *words, (*words[0], "d")]


REWRITE_GOLDEN = (
    "e95ed1a0d61aa0e75f910135723bfaa5372522d20bd7604525da9a45aba4c069")


def rewrite_texts():
    parts = []
    for m in rewrite_grammars():
        for inp in rewrite_inputs():
            for mode in ("all", "best"):
                try:
                    parts.append(repr(apply_rewrite(m, list(inp), mode)))
                except FsmError as exc:
                    parts.append(repr(exc))
    return parts


def test_apply_rewrite_outputs_are_pinned():
    digest = hashlib.sha256("\0".join(rewrite_texts()).encode()).hexdigest()
    assert digest == REWRITE_GOLDEN
