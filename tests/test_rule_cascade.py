"""Golden rule cascade: a grammar whose rules delete and insert symbols,
compiled, composed and compacted the way ``rule compile`` builds it.

A deletion writes epsilon on A's output tape of every later cascade step,
so these pins cover the composition lookahead where A must be read
through its output-epsilon moves.  The hashes pin the compiled machine and
the rewrite results byte for byte; the pair counts pin how many pair
states each cascade step builds before trimming.
"""

import hashlib

from wfst import (SymbolTable, apply_rewrite, compact, compile_weighted_rule,
                  compose, expand, parse_rule_file, write_text)
from wfst.ops import LazyComposition
from wfst.rewrite import register_symbols

GRAMMAR = """\
Class V = [a e i];
Class C = [b c d];
a -> () / b _ c;
c -> c d / _ V;
e -> <0.2>i|<0.7>a / C _ ;
d -> <0.1>b|<0.4>() / V _ V;
i -> e / _ C;
"""

WORDS = ("bac", "cacb", "beca", "adida", "bacedic", "cidbac", "ebebe",
         "daeid")

CASCADE_SHA256 = \
    "26f8cc49967d181c1f273efe4acc0fcd218d59e6679e15270ed39eac03be39bb"
RESULTS_SHA256 = \
    "d0d6408dd1d6e5b0967296535045bf4101c431e7d4cea39c3518b16e7918e80c"

# per composition step of the cascade: the pair states it builds, at
# most, and the states its trimmed output keeps
MAX_PAIRS = (8, 17, 38, 51)
KEPT = (8, 16, 29, 47)


def compile_cascade():
    symtab = SymbolTable()
    rules = parse_rule_file(GRAMMAR)
    for r in rules:  # one alphabet for the whole grammar, as `rule compile`
        register_symbols(r, symtab)
    machines = [compile_weighted_rule(r, symtab) for r in rules]
    m, built, kept = machines[0], [], []
    for nxt in machines[1:]:
        view = LazyComposition(m, nxt)
        expand(view)
        built.append(len(view._pairs))
        m = compose(m, nxt)
        kept.append(m.num_states)
    return compact(m), built, kept


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_cascade_is_byte_identical():
    m, _, _ = compile_cascade()
    assert sha256(write_text(m)) == CASCADE_SHA256
    results = [(w, apply_rewrite(m, list(w), "all"),
                apply_rewrite(m, list(w), "best")) for w in WORDS]
    assert results[0][1] == [((m.isymbols.find("b"), m.isymbols.find("c")),
                              0.0)]  # the deletion applied
    assert sha256(repr(results)) == RESULTS_SHA256


def test_cascade_steps_build_few_dead_pairs():
    _, built, kept = compile_cascade()
    assert tuple(kept) == KEPT
    assert all(n <= bound for n, bound in zip(built, MAX_PAIRS)), built
    assert len(built) == len(MAX_PAIRS)
