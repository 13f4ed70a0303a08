"""The three workloads.  Each one has:

* ``setup()``: the program's own set-up work, timed as ``setup_s`` and
  repeated ``SETUP_ROUNDS`` times; it first drops the previous round's
  result so that every round starts from the same heap;
* ``reference()``: the reference answers ``check`` compares against, as
  picklable data; computed untimed, in a child process, after set-up and
  stored as ``self.expected``;
* ``POOL``: the number of distinct inputs an untraced run cycles through,
  and ``PASSES`` how many times it times each of them at least: two where
  one pass is short enough to afford a second;
* ``next_input(k)``: pool input ``k``, called once for each ``k`` in
  order (untimed);
* ``op(inp)``: one timed operation;
* ``check(k, inp, result)``: ``None`` if the result is right, else a
  message naming what is wrong (untimed);
* ``out_size()``: (states, arcs) of the machines the workload produces.

Every call into ``wfst`` goes through a module attribute (``ops.compose``,
not a name bound at import time) so that the tracer's wrappers see it.
``WORKLOADS.md`` gives the reasons for each workload and its sizes.
"""

from __future__ import annotations

import os
import random

from wfst import cli, decode, machine, ops, optimize, rewrite
from wfst.machine import SymbolTable
from wfst.semiring import Semiring

import gen
import oracles

TROPICAL = Semiring.TROPICAL
TOLERANCE = 1e-6


class SetupError(Exception):
    """The program failed during set-up; the run cannot measure anything."""


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


class Rules:
    """Compile a seeded grammar with ``rule compile``, then apply it."""

    name = "rules"
    SETUP_ROUNDS = 3
    WINDOW = 40
    POOL = 200
    PASSES = 2

    def __init__(self, seed, workdir):
        self.grammar = gen.grammar(random.Random(seed))
        self.inputs = random.Random(f"rules-input-{seed}")
        self.rule_path = os.path.join(workdir, "grammar.rul")
        self.fst_path = os.path.join(workdir, "grammar.fst")
        _write(self.rule_path, self.grammar.text)
        self.fst = None
        self.reference_outputs = {}

    def setup(self):
        self.fst = None
        code = cli.rule_main(["compile", self.rule_path, "-o", self.fst_path])
        if code != 0:
            raise SetupError(f"rule compile exited with {code}")
        table = SymbolTable.read(_read(self.fst_path + ".syms"))
        self.fst = machine.read_text(_read(self.fst_path), isymbols=table,
                                     osymbols=table, kind=TROPICAL,
                                     acceptor=False)

    def reference(self):
        return None

    def next_input(self, k):
        return gen.rule_input(self.inputs, self.grammar, k)

    def op(self, word):
        return (rewrite.apply_rewrite(self.fst, word, mode="all"),
                rewrite.apply_rewrite(self.fst, word, mode="best"))

    def check(self, k, word, result):
        if k not in self.reference_outputs:
            self.reference_outputs[k] = oracles.rewrite_cascade(
                word, self.grammar.rules)
        expected = self.reference_outputs[k]
        table = self.fst.isymbols
        every, best = result
        got = {tuple(table.find(x) for x in out): w for out, w in every}
        if set(got) != set(expected):
            return f"all: outputs {sorted(got)} != reference {sorted(expected)}"
        for out, w in expected.items():
            if abs(got[out] - w) > TOLERANCE:
                return f"all: cost of {out} is {got[out]}, reference {w}"
        if len(best) != 1:
            return f"best: {len(best)} results"
        out, w = best[0]
        out = tuple(table.find(x) for x in out)
        floor = min(expected.values())
        if abs(w - floor) > TOLERANCE or \
                abs(expected.get(out, float("inf")) - w) > TOLERANCE:
            return f"best: {out} at {w}, reference best cost {floor}"
        return None

    def out_size(self):
        return self.fst.num_states, self.fst.num_arcs


class Decode:
    """Beam decoding of noisy phone strings through [channel, lexicon, LM].

    Set-up builds a Katz trigram LM with ``lm count|build|fsa``.  The seed
    is used as given: if Katz estimation fails on the seeded corpus the run
    reports a set-up failure (a known defect of ``katz_model``).
    """

    name = "decode"
    SETUP_ROUNDS = 3
    WINDOW = 100
    POOL = 200
    PASSES = 2
    BEAM = 16.0
    ORDER = 3

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.dir = workdir
        lines = (" ".join(s) for s in gen.corpus(rng))
        _write(self.path("corpus.txt"), "\n".join(lines) + "\n")
        self.prons, self.confused = gen.lexicon(rng)
        self.pool = [gen.utterance(rng, self.prons, self.confused, k)
                     for k in range(self.POOL)]
        self.stages = None
        self.search_errors = set()

    def path(self, name):
        return os.path.join(self.dir, name)

    def _lm(self, *argv):
        code = cli.lm_main(list(argv))
        if code != 0:
            raise SetupError(f"lm {argv[0]} exited with {code}")

    def _lexicon(self, table):
        lex = machine.Machine(TROPICAL, table, table)
        start = lex.add_state()
        lex.set_start(start)
        lex.set_final(start)
        for word in gen.WORDS:
            phones = self.prons[word]
            prev = start
            for i, phone in enumerate(phones):
                nxt = start if i == len(phones) - 1 else lex.add_state()
                out = table.find(word) if i == 0 else 0
                lex.add_arc(prev, table.find(phone), out, 0.0, nxt)
                prev = nxt
        return lex.freeze()

    def _channel(self, table):
        ch = machine.Machine(TROPICAL, table, table)
        q = ch.add_state()
        ch.set_start(q)
        ch.set_final(q)
        for phone in gen.PHONES:
            label = table.find(phone)
            ch.add_arc(q, label, label, 0.0, q)
            for heard in self.confused[phone]:
                ch.add_arc(q, table.find(heard), label, gen.CONFUSION_COST, q)
        return ch.freeze()

    def setup(self):
        self.stages = None
        self._lm("count", "-n", str(self.ORDER), self.path("corpus.txt"),
                 "-o", self.path("counts.txt"))
        self._lm("build", self.path("counts.txt"), "-o", self.path("lm.arpa"))
        self._lm("fsa", self.path("lm.arpa"), "-o", self.path("lm.fst"))
        table = SymbolTable.read(_read(self.path("lm.fst.syms")))
        for phone in gen.PHONES:
            table.add(phone)
        _write(self.path("stages.syms"), table.write())
        _write(self.path("channel.fst"),
               machine.write_text(self._channel(table)))
        _write(self.path("lexicon.fst"),
               machine.write_text(self._lexicon(table)))
        manifest = "".join(f"{f} stages.syms\n"
                           for f in ("channel.fst", "lexicon.fst", "lm.fst"))
        _write(self.path("manifest.txt"), manifest)
        # load the stages as the decode CLI does: one table per manifest line
        self.stages = []
        for line in _read(self.path("manifest.txt")).splitlines():
            fst, syms = line.split()
            table = SymbolTable.read(_read(self.path(syms)))
            self.stages.append(machine.read_text(
                _read(self.path(fst)), isymbols=table, osymbols=table,
                kind=TROPICAL, acceptor=False))

    def _labels(self, utterance):
        table = self.stages[0].isymbols
        return [table.find(p) for p in utterance]

    def reference(self):
        """Exact best cost of every pool utterance: static composition of
        the whole cascade, then ``best_path``."""
        exact = []
        for utterance in self.pool:
            labels = self._labels(utterance)
            m = decode.observation_machine(
                labels, isymbols=self.stages[0].isymbols)
            for stage in self.stages:
                m = ops.compose(m, stage)
            _, cost = decode.best_path(m)
            exact.append(cost)
        return exact

    def next_input(self, k):
        return k, self._labels(self.pool[k])

    def op(self, inp):
        return decode.beam_decode(decode.CascadeSpec(self.stages), inp[1],
                                  beam=self.BEAM)

    def check(self, k, inp, result):
        outputs, cost, _ = result
        exact = self.expected[k]
        if cost < exact - TOLERANCE:
            return f"beam cost {cost} below the exact best cost {exact}"
        if not outputs:
            return "no words decoded"
        if cost > exact + TOLERANCE and k < self.WINDOW:
            self.search_errors.add(k)
        return None

    def search_error_rate(self, ops_done):
        """Share of the first ``WINDOW`` utterances whose beam cost is
        above the exact best cost."""
        decoded = min(ops_done, self.WINDOW)
        return len(self.search_errors) / decoded if decoded else 0.0

    def out_size(self):
        return (sum(m.num_states for m in self.stages),
                sum(m.num_arcs for m in self.stages))


class LatticeOpt:
    """determinize -> minimize -> push -> lattice_prune -> best_path over a
    pool of seeded acyclic word lattices, loaded from text in set-up.

    One set-up round reads the pool ``READS`` times, so that a round lasts
    long enough to time steadily."""

    name = "lattice"
    SETUP_ROUNDS = 3
    READS = 2
    WINDOW = 128
    POOL = 200
    PASSES = 1
    PRUNE = 3.0

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.raw = [gen.lattice_arcs(rng) for _ in range(self.POOL)]
        self.paths = []
        for k, (_, arcs, final) in enumerate(self.raw):
            lines = [f"{src} {dst} {word} {weight!r}"
                     for src, word, weight, dst in arcs]
            path = os.path.join(workdir, f"lattice{k:03d}.fst")
            _write(path, "\n".join(lines + [str(final)]) + "\n")
            self.paths.append(path)
        self.lattices = None
        self.minimized = {}

    def setup(self):
        for _ in range(self.READS):
            self.lattices = None
            self.lattices = [decode.Lattice(machine.read_text(
                _read(path), kind=TROPICAL, acceptor=True))
                for path in self.paths]

    def reference(self):
        return [oracles.dag_best_cost(*raw) for raw in self.raw]

    def next_input(self, k):
        return k

    def op(self, k):
        det = optimize.determinize(self.lattices[k].machine)
        small = optimize.minimize(det)
        pushed = optimize.push(small, "weights")
        pruned = decode.lattice_prune(decode.Lattice(pushed), self.PRUNE)
        (words, _), cost = decode.best_path(pruned.machine)
        return det, small, words, cost

    def check(self, _, k, result):
        det, small, words, cost = result
        self.minimized[k] = (small.num_states, small.num_arcs)
        if not det.is_deterministic():
            return "determinize returned a nondeterministic machine"
        if abs(cost - self.expected[k]) > TOLERANCE:
            return f"best cost {cost}, reference {self.expected[k]}"
        spelled = oracles.dag_word_cost(*self.raw[k], words)
        if abs(spelled - cost) > TOLERANCE:
            return f"best path {words} costs {spelled} in the raw lattice"
        return None

    def out_size(self):
        """Minimised lattices of the pool, summed (each counted once)."""
        return (sum(s for s, _ in self.minimized.values()),
                sum(a for _, a in self.minimized.values()))


WORKLOADS = {w.name: w for w in (Rules, Decode, LatticeOpt)}
