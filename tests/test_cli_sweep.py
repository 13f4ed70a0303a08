"""Every subcommand of ``fst``, ``rule``, ``lm`` and ``decode`` exits 0, 1
or 2 on mutated input: no exception escapes ``*_main``.

Each case starts from valid inputs (machines, symbol tables, rule files,
trees, corpora, counts, ARPA files and decode manifests), applies up to
three seeded edits to each (a line dropped or repeated, a token of
``POOL`` inserted or written over a character), and draws the flags from
their edge values.  The cases are seeded per subcommand, so a failure
names a case that reruns.
"""

import io
import random

import pytest

from wfst import (Rule, Semiring, SymbolTable, compile_weighted_rule,
                  count_ngrams, katz_model, write_arpa, write_text)
from wfst.cli import _FST_COMMANDS, decode_main, fst_main, lm_main, rule_main
from wfst.ngram import write_counts

from helpers import sample_machines

CASES = 12  # seeded cases per subcommand
POOL = ("-1", "0", "1", "2", "0.5", "nan", "inf", "-inf", "1e999", "<eps>",
        "#", "a", "x", " ", "\n", "\t", "\\", "-", ".")
SYMS = "<eps> 0\na 1\nb 2\nc 3\n"
# (text, semiring, whether its labels are symbols of SYMS, format flag)
MACHINES = [("0 1 a b 0.5\n1 2 b a\n1 1 c <eps> 1\n2\n", "tropical", True,
             "--transducer"),
            ("0 1 a\n1 1 b\n1 2 c\n2\n", "boolean", True, "--acceptor")] + [
    (write_text(m), kind.value, False,
     "--acceptor" if m.is_acceptor() else "--transducer")
    for kind in Semiring for acceptor in (True, False)
    for m in sample_machines(900, 2, kind=kind, acceptor=acceptor,
                             max_states=4, max_arcs=6)]
RULES = "Class V = [a e];\na -> <1>b|c / V _ ;\nb -> a / _ c;\n"
TREE = """Class C = [b c]
split left C
 split right a.*
  leaf a -> 0.25 b | 2 c
  leaf a -> 1 c
 leaf a -> a
"""
CORPUS = "a b c\nb a\nc c a b\na\nb c a\n"
COUNTS = write_counts(count_ngrams([line.split() for line in
                                    CORPUS.splitlines()], 2))
ARPA = write_arpa(katz_model(count_ngrams(
    [line.split() for line in CORPUS.splitlines()], 2)))
RULE_TABLE = SymbolTable()
RULE_FST = write_text(compile_weighted_rule(Rule("a", "<1>b|c", "", "c"),
                                            RULE_TABLE))


@pytest.fixture(autouse=True)
def empty_stdin(monkeypatch):
    """A mutated path may read '-', standard input, which is empty here."""
    monkeypatch.setattr("sys.stdin", io.StringIO())


def mutate(rng, text):
    """``text`` after up to three edits: a line dropped or repeated, or a
    token of ``POOL`` inserted or written over a character."""
    for _ in range(rng.randint(0, 3)):
        lines = text.splitlines(keepends=True)
        edit = rng.randrange(4)
        if edit < 2 and lines:
            i = rng.randrange(len(lines))
            lines[i:i + 1] = [] if edit == 0 else [lines[i]] * 2
            text = "".join(lines)
        else:  # edit 2 inserts the token, edit 3 writes it over a character
            i = rng.randint(0, len(text))
            text = text[:i] + rng.choice(POOL) + text[i + edit - 2:]
    return text


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def fst_argv(rng, tmp_path, command):
    """Machines of one semiring, read with their own flags in four cases of
    five; the flags of a random machine otherwise."""
    arity, extra, _ = _FST_COMMANDS[command]
    _, kind, symbolic, form = rng.choice(MACHINES)
    bases = [m for m in MACHINES if m[1:] == (kind, symbolic, form)]
    argv = [command] + [write(tmp_path, f"m{i}.fst",
                              mutate(rng, rng.choice(bases)[0]))
                        for i in range(arity)]
    if rng.random() < 0.2:
        _, kind, symbolic, form = rng.choice(MACHINES)
    argv += ["--semiring", kind, form]
    if symbolic:
        for flag in ("--isyms", "--osyms"):
            argv += [flag, write(tmp_path, flag[2:], mutate(rng, SYMS))]
    for flag, kwargs in extra.items():
        if "choices" in kwargs:
            argv += [flag, rng.choice(kwargs["choices"])]
        elif kwargs.get("type") is int:
            argv += [flag, rng.choice(("-1", "0", "1", "1000000000"))]
        elif rng.random() < 0.5:
            argv.append(flag)
    if command != "equivalent":
        argv += ["-o", str(tmp_path / "out")]
    return argv


def rule_argv(rng, tmp_path, command):
    if command == "apply":  # the machine or its table is mutated
        fst_text, syms_text = RULE_FST, RULE_TABLE.write()
        if rng.random() < 0.5:
            fst_text = mutate(rng, fst_text)
        else:
            syms_text = mutate(rng, syms_text)
        fst = write(tmp_path, "r.fst", fst_text)
        syms = write(tmp_path, "r.syms", syms_text)
        words = " ".join(rng.choice(("a", "b", "c", "x", "<eps>", "#"))
                         for _ in range(rng.randint(0, 4)))
        return ["apply", fst, words, "--syms", syms,
                "--mode", rng.choice(("all", "best"))]
    source = RULES if command == "compile" else TREE
    return [command, write(tmp_path, "source", mutate(rng, source)),
            "-o", str(tmp_path / "out")]


def lm_argv(rng, tmp_path, command):
    out = ["-o", str(tmp_path / "out")]
    if command == "count":
        return ["count", write(tmp_path, "corpus", mutate(rng, CORPUS)),
                "-n", rng.choice(("-1", "0", "1", "2", "3"))] + out
    if command == "build":
        return ["build", write(tmp_path, "counts", mutate(rng, COUNTS)),
                "--k-threshold",
                rng.choice(("-1", "0", "1", "5", "1000000000"))] + out
    arpa = write(tmp_path, "model.arpa", mutate(rng, ARPA))
    if command == "fsa":
        return ["fsa", arpa] + out
    return ["score", arpa, " ".join(rng.choice(("a", "b", "c", "x", "<s>"))
                                    for _ in range(rng.randint(0, 4)))]


def decode_argv(rng, tmp_path, command):
    """One or two stages, each a machine decode reads: a symbolic
    transducer with its table, or a numeric acceptor.  One of the files is
    mutated: a stage, a table or the manifest."""
    stages = [m for m in MACHINES if m[2] == (m[3] == "--transducer")]
    lines = []
    files = {}
    for i in range(rng.randint(1, 2)):
        text, _, symbolic, _ = rng.choice(stages)
        files[f"s{i}.fst"] = text
        lines.append(f"{tmp_path / f's{i}.fst'}")
        if symbolic:
            files[f"s{i}.syms"] = SYMS
            lines[-1] += f" {tmp_path / f's{i}.syms'}"
    files["cascade"] = "".join(line + "\n" for line in lines)
    name = rng.choice(sorted(files))
    files[name] = mutate(rng, files[name])
    for name, text in files.items():
        write(tmp_path, name, text)
    manifest = str(tmp_path / "cascade")
    tokens = ("a", "b", "c", "x") if "syms" in lines[0] else ("1", "2", "0")
    observations = " ".join(rng.choice(tokens)
                            for _ in range(rng.randint(0, 3)))
    return ["--cascade", manifest,
            "--beam", rng.choice(("0", "-1", "nan", "inf", "2")),
            observations]


SUBCOMMANDS = [pytest.param(fst_main, fst_argv, c, id=f"fst {c}")
               for c in _FST_COMMANDS] + \
    [pytest.param(rule_main, rule_argv, c, id=f"rule {c}")
     for c in ("compile", "apply", "tree")] + \
    [pytest.param(lm_main, lm_argv, c, id=f"lm {c}")
     for c in ("count", "build", "fsa", "score")] + \
    [pytest.param(decode_main, decode_argv, "decode", id="decode")]


@pytest.mark.parametrize("main, argv_of, command", SUBCOMMANDS)
def test_mutated_input_exits_0_1_or_2(tmp_path, capsys, main, argv_of,
                                      command):
    for case in range(CASES):
        rng = random.Random(f"{main.__name__} {command} {case}")
        argv = argv_of(rng, tmp_path, command)
        assert main(argv) in (0, 1, 2), (case, argv)
        capsys.readouterr()
