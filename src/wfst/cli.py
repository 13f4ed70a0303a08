"""Command-line tool suite: fst, rule, lm and decode entry points.

Exit codes: 0 success, 1 domain error (an operation's contract was
violated), 2 usage error (bad flags, missing files, malformed input).
'-' means stdin/stdout wherever a path is expected.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import decode as dec
from . import ngram, ops, optimize, rewrite
from .errors import FsmError, ParseError, SymbolError
from .machine import SymbolTable, _resolve, connect, read_text, write_text
from .semiring import Semiring

_SEMIRINGS = {"boolean": Semiring.BOOLEAN, "tropical": Semiring.TROPICAL,
              "real": Semiring.REAL}


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_syms(path):
    return SymbolTable.read(_read(path)) if path else None


def _machine_flags(parser, output=True):
    parser.add_argument("--isyms", help="input symbol table file")
    parser.add_argument("--osyms", help="output symbol table file")
    parser.add_argument("--semiring", choices=sorted(_SEMIRINGS),
                        default="tropical")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--acceptor", action="store_true",
                      help="force acceptor text format")
    mode.add_argument("--transducer", action="store_true",
                      help="force transducer text format")
    if output:
        parser.add_argument("-o", "--output", default="-")


def _load(path, args):
    acceptor = True if args.acceptor else (False if args.transducer else None)
    return read_text(_read(path), isymbols=_load_syms(args.isyms),
                     osymbols=_load_syms(args.osyms),
                     kind=_SEMIRINGS[args.semiring], acceptor=acceptor)


def _labels_text(labels, table):
    if table is None:
        return " ".join(str(x) for x in labels)
    return " ".join(table.find(x) for x in labels)


# -- fst -----------------------------------------------------------------


def _shortest(args, m):
    d = dec.shortest_distance(m)
    return "\n".join(f"{q}\t{m.kind.format(d[q])}" for q in sorted(d)
                     if d[q] != m.kind.zero) + "\n"


def _bestpath(args, m):
    (inp, out), cost = dec.best_path(m)
    return (f"{_labels_text(inp, m.isymbols)}\t"
            f"{_labels_text(out, m.osymbols)}\t{m.kind.format(cost)}\n")


def _equivalent(args, a, b):
    same = optimize.equivalent(a, b)
    print("equivalent" if same else "not equivalent")
    return 0 if same else 1


#: subcommand -> (machine files read, extra flags, action(args, *machines));
#: an action returns a machine or text for --output, or, for ``equivalent``
#: (which has no --output), the exit code after printing its verdict
_FST_COMMANDS = {
    "compile": (1, {}, lambda args, m: m),
    "print": (1, {"--dot": {"action": "store_true",
                            "help": "graphviz-style dump"}},
              lambda args, m: _dot_text(m) if args.dot else m),
    "compose": (2, {}, lambda args, a, b: ops.compose(a, b)),
    "intersect": (2, {}, lambda args, a, b: ops.intersect(a, b)),
    "union": (2, {}, lambda args, a, b: ops.union(a, b)),
    "concat": (2, {}, lambda args, a, b: ops.concat(a, b)),
    "closure": (1, {}, lambda args, m: ops.closure(m)),
    "reverse": (1, {}, lambda args, m: ops.reverse(m)),
    "project": (1, {"--side": {"choices": ["input", "output"],
                               "default": "input"}},
                lambda args, m: ops.project(m, args.side)),
    "complement": (1, {}, lambda args, m: ops.complement(m)),
    "difference": (2, {}, lambda args, a, b: ops.difference(a, b)),
    "determinize": (1, {}, lambda args, m: optimize.determinize(m)),
    "localdet": (1, {"--k": {"type": int, "default": 4}},
                 lambda args, m: optimize.local_determinize(m, args.k)),
    "push": (1, {"--mode": {"choices": ["weights", "strings"],
                            "default": "weights"}},
             lambda args, m: optimize.push(m, args.mode)),
    "minimize": (1, {}, lambda args, m: optimize.minimize(m)),
    "equivalent": (2, {}, _equivalent),
    "connect": (1, {}, lambda args, m: connect(m)),
    "shortest": (1, {}, _shortest),
    "bestpath": (1, {}, _bestpath),
}


def _fst_parser():
    top = argparse.ArgumentParser(prog="fst", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (arity, extra, _) in _FST_COMMANDS.items():
        p = sub.add_parser(name)
        if arity == 1:
            p.add_argument("machine", help="machine text file, or -")
        else:
            p.add_argument("machines", nargs=2, help="two machine files")
        _machine_flags(p, output=name != "equivalent")
        for flag, kwargs in extra.items():
            p.add_argument(flag, **kwargs)
    return top


def _fst_run(args):
    arity, _, action = _FST_COMMANDS[args.command]
    paths = [args.machine] if arity == 1 else args.machines
    result = action(args, *(_load(p, args) for p in paths))
    if isinstance(result, int):
        return result
    _write(args.output, result if isinstance(result, str)
           else write_text(result))
    return 0


def _dot_text(m):
    lines = ["digraph fst {", "rankdir = LR;"]
    for q in m.states():
        shape = "doublecircle" if q in m.finals else "circle"
        lines.append(f'{q} [shape={shape}];')
        for ilabel, olabel, w, t in m.arcs(q):
            il = _labels_text([ilabel], m.isymbols)
            ol = _labels_text([olabel], m.osymbols)
            label = f"{il}:{ol}/{m.kind.format(w)}"
            label = label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'{q} -> {t} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- rule ----------------------------------------------------------------


def _rule_parser():
    top = argparse.ArgumentParser(prog="rule")
    sub = top.add_subparsers(dest="command", required=True)
    c = sub.add_parser("compile", help="compile a rule file to a transducer")
    c.add_argument("rulefile")
    c.add_argument("-o", "--output", default="-")
    c.add_argument("--save-syms", help="symbol table output "
                   "(default: <output>.syms)")
    a = sub.add_parser("apply", help="run a string through a compiled rule")
    a.add_argument("fst")
    a.add_argument("input", help="space-separated symbols")
    a.add_argument("--syms", help="symbol table (default: <fst>.syms)")
    a.add_argument("--mode", choices=["all", "best"], default="all")
    t = sub.add_parser("tree", help="compile a decision-tree file")
    t.add_argument("treefile")
    t.add_argument("-o", "--output", default="-")
    t.add_argument("--save-syms")
    return top


def _save_machine_with_syms(args, m):
    _write(args.output, write_text(m))
    syms_path = args.save_syms
    if syms_path is None and args.output not in (None, "-"):
        syms_path = args.output + ".syms"
    if syms_path:
        _write(syms_path, m.isymbols.write())


def _rule_run(args):
    if args.command == "compile":
        rules = rewrite.parse_rule_file(_read(args.rulefile))
        if not rules:
            raise ParseError("rule file contains no rules")
        symtab = SymbolTable()
        for r in rules:  # every rule of the file shares one alphabet
            rewrite.register_symbols(r, symtab)
        machines = [rewrite.compile_weighted_rule(r, symtab) for r in rules]
        m = machines[0]
        for nxt in machines[1:]:
            m = ops.compose(m, nxt)
        _save_machine_with_syms(args, optimize.compact(m))
        return 0
    if args.command == "tree":
        spec = rewrite.parse_tree(_read(args.treefile))
        m = rewrite.compile_tree(spec)
        _save_machine_with_syms(args, m)
        return 0
    syms_path = args.syms or (args.fst + ".syms" if args.fst != "-" else None)
    table = _load_syms(syms_path)
    if table is None:
        raise ParseError("rule apply needs a symbol table (--syms)")
    m = read_text(_read(args.fst), isymbols=table, osymbols=table,
                  kind=Semiring.TROPICAL, acceptor=False)
    results = rewrite.apply_rewrite(m, args.input.split(), mode=args.mode)
    lines = []
    for out, weight in results:
        text = _labels_text(out, table)
        lines.append(text if weight == m.kind.one
                     else f"{text}\t{m.kind.format(weight)}")
    _write("-", "\n".join(lines) + ("\n" if lines else ""))
    return 0


# -- lm ------------------------------------------------------------------


def _lm_parser():
    top = argparse.ArgumentParser(prog="lm")
    sub = top.add_subparsers(dest="command", required=True)
    c = sub.add_parser("count", help="k-gram counts from a tokenized corpus")
    c.add_argument("corpus")
    c.add_argument("-n", "--order", type=int, default=2)
    c.add_argument("-o", "--output", default="-")
    b = sub.add_parser("build", help="counts to a back-off model dump")
    b.add_argument("counts")
    b.add_argument("--k-threshold", type=int, default=ngram.DEFAULT_K_THRESHOLD)
    b.add_argument("-o", "--output", default="-")
    f = sub.add_parser("fsa", help="model dump to a weighted acceptor")
    f.add_argument("model")
    f.add_argument("-o", "--output", default="-")
    f.add_argument("--save-syms")
    s = sub.add_parser("score", help="sentence log-probability (natural log)")
    s.add_argument("model")
    s.add_argument("sentence", help="space-separated words")
    return top


def _lm_run(args):
    if args.command == "count":
        corpus = [line.split() for line in _read(args.corpus).splitlines()
                  if line.strip()]
        _write(args.output, ngram.write_counts(
            ngram.count_ngrams(corpus, args.order)))
    elif args.command == "build":
        ct = ngram.read_counts(_read(args.counts))
        _write(args.output, ngram.write_arpa(
            ngram.katz_model(ct, args.k_threshold)))
    elif args.command == "fsa":
        model = ngram.read_arpa(_read(args.model))
        _save_machine_with_syms(args, ngram.build_lm_fsa(model))
    else:
        model = ngram.read_arpa(_read(args.model))
        words = args.sentence.split()
        for w in words:
            if w not in model.symbols:
                raise SymbolError(f"unknown word {w!r}")
        logp = model.sentence_logprob(words)
        print("-inf" if logp == -math.inf else f"{logp:.6f}")
    return 0


# -- decode --------------------------------------------------------------


def _decode_parser():
    top = argparse.ArgumentParser(
        prog="decode", description="beam decoding over a cascade of "
        "TROPICAL machines; stage files listed one per line in the manifest "
        "as '<fst> [<syms>]'")
    top.add_argument("--cascade", required=True, help="manifest file")
    top.add_argument("--beam", type=float, default=math.inf)
    top.add_argument("observations", help="space-separated input symbols")
    return top


def _decode_run(args):
    stages = []
    tables = []
    for line in _read(args.cascade).splitlines():
        parts = line.split()
        if not parts or parts[0][0] == "#":
            continue
        table = _load_syms(parts[1]) if len(parts) > 1 else None
        stages.append(read_text(_read(parts[0]), isymbols=table,
                                osymbols=table, kind=Semiring.TROPICAL,
                                acceptor=None if table is None else False))
        tables.append(table)
    if not stages:
        raise ParseError("cascade manifest lists no machines")
    first = tables[0]
    obs = [_resolve(t, first) for t in args.observations.split()]
    outputs, cost, stats = dec.beam_decode(dec.CascadeSpec(stages), obs,
                                           beam=args.beam)
    print(f"{_labels_text(outputs, tables[-1])}\t"
          f"{Semiring.TROPICAL.format(cost)}")
    print(f"# expanded {stats.expanded_states} states over {stats.frames} "
          f"frames, pruned {stats.pruned}", file=sys.stderr)
    return 0


# -- entry points --------------------------------------------------------


def _dispatch(parser, runner, argv):
    args = parser.parse_args(argv)
    try:
        return runner(args)
    except (ParseError, SymbolError, FileNotFoundError, IsADirectoryError,
            PermissionError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FsmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def fst_main(argv=None):
    return _dispatch(_fst_parser(), _fst_run, argv)


def rule_main(argv=None):
    return _dispatch(_rule_parser(), _rule_run, argv)


def lm_main(argv=None):
    return _dispatch(_lm_parser(), _lm_run, argv)


def decode_main(argv=None):
    return _dispatch(_decode_parser(), _decode_run, argv)


if __name__ == "__main__":
    sys.exit(fst_main())
