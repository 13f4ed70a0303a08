"""Compiler from context-dependent (optionally weighted) rewrite rules and
decision trees to transducers.

A rule phi -> psi / lambda _ rho rewrites every occurrence of phi whose
left context matches lambda (on the already-rewritten output side) and
whose right context matches rho (on the original input side).  Compilation
is the five-transducer factorization r o f o replace o l1 o l2 built from
marker machines; the marker symbols are allocated above the user alphabet
and never escape the pipeline.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache, reduce

from .decode import best_path
from .errors import ContractError, ParseError, SymbolError
from .machine import (EPSILON, Machine, SymbolTable, _resolve,
                      accepted_pairs, check_machines, check_record,
                      check_views, connect, observation_machine)
from .ops import (_END, _complete_table, _compose_untrimmed, _relabel,
                  closure, complement, compose, concat, intersect, read_set,
                  reverse, union)
from .optimize import compact, determinize
from .semiring import Semiring, require_same_kind

_METACHARS = set("()|*+?[].~&")
# '(' and '~' nest at most this deep, well inside Python's recursion limit
# (each '(' level takes five parser frames)
_MAX_NESTING = 100
# a rule file's class statement, or a tree file's class line with its ';'
_CLASS = re.compile(r"Class\s+(\w+)\s*=\s*\[(.*)\]\s*;?\s*$", re.S)
# the cuts of a rule statement, phi -> psi / lambda _ rho, in order
_SEPARATORS = ("->", "/", "_")


# -- regular expressions -------------------------------------------------


@lru_cache(maxsize=64)
def _scanner(names):
    """Token pattern: a brace, closed or not, a bare class name (longest
    first; none empty or led by whitespace), or one character."""
    bare = sorted((n for n in names if n[:1].strip()), key=len, reverse=True)
    return re.compile(r"\{(?:([^}]*)\})?|(%s)|(\S)"
                      % ("|".join(map(re.escape, bare)) or "(?!)"))


def _lex(text, classes, line=None):
    """The one scanner of rule text: its (kind, value, position, depth)
    tokens.  ('lit', symbol) is a character or a ``{name}`` naming no class,
    ('set', name) a class named in braces or bare (longest first), ('meta',
    char) an operator; ``depth`` counts the '(' and '[' groups open around
    it.  Whitespace only separates.  An unclosed '{' raises ``ParseError``
    at ``line``."""
    tokens, depth = [], 0
    for hit in _scanner(tuple(classes)).finditer(text):
        braced, bare, ch = hit.groups()
        if braced is not None:
            value = braced.strip()
            kind = "set" if value in classes else "lit"
        elif bare is not None:
            kind, value = "set", bare
        elif ch is None:
            raise ParseError(f"unclosed '{{' in pattern {text!r}", line)
        else:
            kind, value = "meta" if ch in _METACHARS else "lit", ch
        depth -= ch in (")", "]")
        tokens.append((kind, value, hit.start(), depth))
        depth += ch in ("(", "[")
    return tokens


def _tokenize(pattern, symtab, classes):
    """``_lex`` as ('lit', label), ('set', labels) and ('meta', char)."""
    add = symtab.add
    return [("lit", add(value)) if kind == "lit" else
            ("set", tuple(map(add, classes[value]))) if kind == "set" else
            (kind, value) for kind, value, _, _ in _lex(pattern, classes)]


def _labels_machine(labels):
    return Machine._from_parts(Semiring.BOOLEAN, None, None, [
        [(label, label, 1.0, 1) for label in labels], []], {1: 1.0})


def _sigma_star(labels):
    """One final start state looping on ``labels``; ``()`` gives epsilon."""
    return Machine._from_parts(Semiring.BOOLEAN, None, None, [
        [(label, label, 1.0, 0) for label in labels]], {0: 1.0})


class _RegexParser:
    """Grammar, loosest to tightest: '|', '&', concatenation, postfix
    * + ?, atoms.  '~' complements the following atom."""

    def __init__(self, tokens, sigma):
        self.tokens = tokens
        self.sigma = sigma
        self.i = 0
        self.depth = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _take(self):
        tok = self._peek()
        self.i += 1
        return tok

    def parse(self):
        m = self._alternation()
        if self.i != len(self.tokens):
            raise ParseError(f"trailing tokens at position {self.i}")
        return m

    def _nested(self, parse):
        """``parse()`` one nesting level down, or ``ParseError`` past
        ``_MAX_NESTING`` levels."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(f"pattern nests deeper than {_MAX_NESTING} levels")
        m = parse()
        self.depth -= 1
        return m

    def _alternation(self):
        m = self._intersection()
        while self._peek() == ("meta", "|"):
            self._take()
            m = union(m, self._intersection())
        return m

    def _intersection(self):
        m = self._concat()
        while self._peek() == ("meta", "&"):
            self._take()
            m = intersect(m, self._concat())
        return m

    def _concat(self):
        parts = []
        while True:
            tok = self._peek()
            if tok is None or tok in (("meta", "|"), ("meta", "&"), ("meta", ")")):
                break
            parts.append(self._postfix())
        if not parts:
            return _sigma_star(())
        return parts[0] if len(parts) == 1 else concat(*parts)

    def _postfix(self):
        m = self._atom()
        while True:
            tok = self._peek()
            if tok == ("meta", "*"):
                self._take()
                m = closure(m)
            elif tok == ("meta", "+"):
                self._take()
                m = concat(m, closure(m))
            elif tok == ("meta", "?"):
                self._take()
                m = union(m, _sigma_star(()))
            else:
                return m

    def _atom(self):
        tok = self._take()
        if tok is None:
            raise ParseError("pattern ended where an atom was expected")
        kind, value = tok
        if kind == "lit":
            return _labels_machine([value])
        if kind == "set":
            return _labels_machine(value)
        if value == "(":
            if self._peek() == ("meta", ")"):
                self._take()
                return _sigma_star(())
            m = self._nested(self._alternation)
            if self._take() != ("meta", ")"):
                raise ParseError("unbalanced '('")
            return m
        if value == "[":
            labels = []
            while self._peek() not in (("meta", "]"), None):
                k, v = self._take()
                if k == "lit":
                    labels.append(v)
                elif k == "set":
                    labels.extend(v)
                else:
                    raise ParseError(f"operator {v!r} inside character class")
            if self._take() != ("meta", "]"):
                raise ParseError("unbalanced '['")
            return _labels_machine(labels)
        if value == ".":
            return _labels_machine(self.sigma)
        if value == "~":
            return complement(self._nested(self._atom), alphabet=self.sigma)
        raise ParseError(f"unexpected operator {value!r}")


def compile_regex(pattern, symtab, classes=None) -> Machine:
    """BOOLEAN acceptor of the pattern's language.

    Literals are added to ``symtab`` on first use; '.' and '~' range over
    the table's labels once the pattern's own literals are registered.
    """
    tokens = _tokenize(pattern, symtab, classes or {})
    return _RegexParser(tokens, symtab.labels()).parse()


# -- marker machines -----------------------------------------------------


def marker(alpha: Machine, mtype: int, insert=(), delete=()) -> Machine:
    """Marker transducer over the deterministic pattern acceptor ``alpha``,
    completed over its own input labels.

    type 1 inserts one symbol of ``insert`` (a nondeterministic choice)
    after every input prefix accepted by alpha; type 2 deletes symbols of
    ``delete`` occurring after accepted prefixes and rejects them
    elsewhere; type 3 deletes them after non-accepted prefixes and rejects
    them after accepted ones.  The result is a TROPICAL transducer
    accepting every string over alpha's labels.
    """
    check_machines(alpha)
    sigma = alpha.input_labels()
    trans, finals, start = _complete_table(alpha, sigma)
    if mtype not in (1, 2, 3):
        raise ContractError(f"marker type must be 1, 2 or 3, got {mtype}")
    if mtype == 1 and not insert:
        raise ContractError("type 1 marker needs a nonempty insert set")
    # q is entered at entry[q] and left from leave[q]; type 1 inserts between
    arcs, entry, leave = [], [], []
    for q in range(len(trans)):
        entry.append(len(arcs))
        if mtype == 1 and q in finals:
            arcs.append([(EPSILON, sym, 0.0, len(arcs) + 1)
                         for sym in sorted(insert)])
        leave.append(len(arcs))
        arcs.append([])
    for q, row in enumerate(trans):
        out = arcs[leave[q]]
        out += [(x, x, 0.0, entry[row[x]]) for x in sigma]
        if mtype > 1 and (q in finals) == (mtype == 2):
            out += [(sym, EPSILON, 0.0, leave[q]) for sym in sorted(delete)]
    return Machine._from_parts(Semiring.TROPICAL, None, None, arcs,
                               dict.fromkeys(leave, 0.0), entry[start])


# -- rules ---------------------------------------------------------------


@dataclass
class Rule:
    """phi -> psi / lam _ rho with regex fields; psi is a '|'-alternation
    whose alternatives may carry a `<cost>` prefix."""

    phi: str
    psi: str
    lam: str = ""
    rho: str = ""
    classes: dict = field(default_factory=dict)


def _parse_psi(psi, classes):
    """[(cost, pattern)] from a weighted alternation like '<0.9>c|<0.1>t',
    cut at each '|' outside every group."""
    bars = [pos for kind, value, pos, depth in _lex(psi, classes)
            if (kind, value, depth) == ("meta", "|", 0)]
    alts = []
    for start, end in zip([-1, *bars], [*bars, len(psi)]):
        part = psi[start + 1:end].strip()
        hit = re.match(r"<([^<>]*)>\s*", part)
        cost = 0.0
        if hit:
            try:
                cost = Semiring.TROPICAL.check(float(hit.group(1)))
            except ValueError:
                raise ParseError(f"bad weight prefix in {part!r}") from None
            part = part[hit.end():]
        alts.append((cost, part))
    return alts


def _add_loops(m, labels):
    """Copy of a BOOLEAN acceptor with extra self-loops at every state."""
    one = m.kind.one
    arcs = [[*m.arcs(q), *((label, label, one, q) for label in labels)]
            for q in m.states()]
    return Machine._from_parts(m.kind, None, None, arcs, dict(m.finals),
                               m.start, m.start_weight)


def _replace_machine(phi_m, psi_alts, sigma, rb, b1, b2):
    """Rewrites <1 phi > to <1 psi; copies everything else, deleting > and
    passing <2 through.  Markers embedded in a consumed phi region are
    deleted with it."""
    arcs = [[*((x, x, 0.0, 0) for x in sigma), (rb, EPSILON, 0.0, 0),
             (b2, b2, 0.0, 0), (b1, b1, 0.0, phi_m.start + 1)]]
    # phi_m's state q walks as state q + 1
    arcs += [
        [*((il, EPSILON, 0.0, t + 1) for il, _, _, t in phi_m.arcs(q)),
         *((sym, EPSILON, 0.0, q + 1) for sym in (rb, b1, b2))]
        for q in phi_m.states()]
    need_close = len(arcs)
    arcs.append([(rb, EPSILON, 0.0, 0)])
    for cost, pm in psi_alts:
        emb = len(arcs)  # pm's state s is embedded as state s + emb
        arcs += [[(EPSILON, ol, 0.0, t + emb) for _, ol, _, t in pm.arcs(s)]
                 for s in pm.states()]
        for fq in pm.finals:
            arcs[fq + emb].append((EPSILON, EPSILON, 0.0, need_close))
        for q in phi_m.finals:
            arcs[q + 1].append((EPSILON, EPSILON, cost, pm.start + emb))
    return Machine._from_parts(Semiring.TROPICAL, None, None, arcs, {0: 0.0})


def register_symbols(rule: Rule, symtab: SymbolTable) -> None:
    """Add to ``symtab`` each declared class's members, unreferenced ones
    too, then each pattern's literals.  Rules that share a table (one
    alphabet) are all registered before the first of them compiles."""
    check_record(rule, Rule)
    classes = rule.classes or {}
    for members in classes.values():
        for sym in members:
            symtab.add(sym)
    for pat in (rule.phi, rule.lam, rule.rho,
                *(p for _, p in _parse_psi(rule.psi, classes))):
        _tokenize(pat, symtab, classes)


def compile_weighted_rule(rule: Rule,
                          symtab: SymbolTable | None = None) -> Machine:
    """Obligatory left-to-right rewriting transducer (TROPICAL).

    Left context is matched on the output side, right context on the input
    side; each rewrite site accumulates its psi alternative's cost.  The
    alphabet is ``symtab``'s labels after ``register_symbols(rule)``.
    """
    symtab = symtab if symtab is not None else SymbolTable()
    register_symbols(rule, symtab)
    classes = rule.classes or {}
    sigma = symtab.labels()
    phi = connect(compile_regex(rule.phi, symtab, classes))
    lam = compile_regex(rule.lam, symtab, classes)
    rho = compile_regex(rule.rho, symtab, classes)
    alts = [(cost, compile_regex(p, symtab, classes))
            for cost, p in _parse_psi(rule.psi, classes)]
    if _END in read_set(phi, {}, {}, phi.start):
        raise ContractError("rule pattern must not accept the empty string")

    base = max(sigma, default=0) + 1
    rb, b1, b2 = base, base + 1, base + 2  # >, <1, <2

    alpha_r = determinize(concat(_sigma_star(sigma), reverse(rho)))
    r = reverse(marker(alpha_r, 1, insert=(rb,)))

    # phi lifted to tolerate > anywhere inside the match
    lifted = _add_loops(phi, [rb])
    alpha_f = determinize(concat(concat(_sigma_star(sigma + [rb]),
                                        _labels_machine([rb])),
                                 reverse(lifted)))
    f = reverse(marker(alpha_f, 1, insert=(b1, b2)))

    rep = _replace_machine(phi, alts, sigma, rb, b1, b2)

    alpha_l = determinize(concat(_sigma_star(sigma), lam))
    # type 2 enters and leaves a state at one place: <2 loops copy <2 anywhere
    l1 = marker(_add_loops(alpha_l, [b2]), 2, delete=(b1,))
    l2 = marker(alpha_l, 3, delete=(b2,))

    t = compact(compose(compose(compose(compose(r, f), rep), l1), l2))
    t.isymbols = symtab
    t.osymbols = symtab
    return t


def apply_rewrite(rule_fst: Machine, inp, mode: str = "all"):
    """Run a string through a compiled rule.

    Returns a sorted list of (output labels, weight) pairs; mode 'best'
    keeps only the optimal one.  An empty list means the rule machine
    rejects the input (no output, not an error).  A token is a symbol
    string or an int label; any other token raises SymbolError.
    """
    if mode not in ("all", "best"):
        raise ContractError(f"mode must be 'all' or 'best', got {mode!r}")
    [(table, _)] = check_views(rule_fst)
    labels = [_resolve(t, table) if isinstance(t, str) else t for t in inp]
    for t in labels:
        if type(t) is not int:  # bool is an int subclass, not a label
            raise SymbolError(f"token {t!r} is neither a symbol nor an "
                              "int label")
    comp = _compose_untrimmed(
        observation_machine(labels, rule_fst.kind, table), rule_fst)
    # Each state is accessible, and one that cannot finish changes no
    # result, so the untrimmed machine is searched as it is, unless a
    # zero-weight arc (which connect drops) may hide an accepted path
    # behind it, or 'all' meets a cycle, which may be a dead one.
    zero = comp.kind.zero
    if (mode == "all" and not comp.is_acyclic()) or any(
            w == zero for q in comp.states() for _, _, w, _ in comp.arcs(q)):
        comp = connect(comp)
    if not comp.finals:
        return []
    if mode == "best":
        (_, out), cost = best_path(comp)
        return [(tuple(out), cost)]
    if not comp.is_acyclic():
        raise ContractError("infinitely many rewritings; use mode='best'")
    pairs = accepted_pairs(comp, max_path_len=comp.num_states)
    return sorted((out, w) for (_, out), w in pairs.items())


def parse_rule_file(text):
    """Rules from ';'-terminated statements.

    ``Class NAME = [sym sym ...]`` declares a class usable in later rules;
    lines whose first non-blank character is '#' are comments (inline '#'
    stays available as an ordinary symbol).  A rule is cut at its first
    '->', '/' and '_' tokens outside every group, from one ``_lex``; an
    error names the line on which its statement starts.
    """
    kept = [(number, line) for number, line in enumerate(text.splitlines(), 1)
            if not line.lstrip().startswith("#")]
    classes, rules = {}, []
    row = 0  # index in ``kept`` of the line the next statement starts on
    for stmt in "\n".join(line for _, line in kept).split(";"):
        first = row + stmt.count("\n", 0, len(stmt) - len(stmt.lstrip()))
        row += stmt.count("\n")
        stmt = stmt.strip()
        if not stmt:
            continue
        lineno = kept[first][0]
        if decl := _CLASS.match(stmt):
            classes[decl.group(1)] = tuple(decl.group(2).split())
            continue
        starts, ends = [0], []  # of phi, psi, lambda and rho
        for kind, value, pos, depth in _lex(stmt, classes, lineno):
            sep = _SEPARATORS[len(ends)]
            if value == sep[0] and (kind, depth) == ("lit", 0) and \
                    stmt.startswith(sep, pos):  # '{_}' is no cut
                starts.append(pos + len(sep))
                ends.append(pos)
                if len(ends) == 3:
                    break
        if not ends:
            raise ParseError(f"statement is neither a rule nor a class: {stmt!r}",
                             lineno)
        if len(ends) == 2:
            raise ParseError(f"context of {stmt!r} lacks '_'", lineno)
        rules.append(Rule(*(stmt[a:b].strip() for a, b in
                            zip(starts, [*ends, len(stmt)])),
                          classes=dict(classes)))
    return rules


# -- same-length intersection and tree compilation -----------------------


def intersect_samelength(t1: Machine, t2: Machine) -> Machine:
    """Transducer relating (u, v) with weight t1(u,v) (x) t2(u,v).

    Both transducers must be epsilon-free (same-length relations); label
    pairs are packed into single symbols and intersected as acceptors.
    """
    check_machines(t1, t2)
    require_same_kind(t1, t2)
    for m in (t1, t2):
        for _, (il, ol, _, _) in m.all_arcs():
            if EPSILON in (il, ol):
                raise ContractError(
                    "same-length intersection requires epsilon-free transducers")
    pairs = sorted({a[:2] for m in (t1, t2) for _, a in m.all_arcs()})
    code = {p: i + 1 for i, p in enumerate(pairs)}

    def encode(m):
        return _relabel(m, lambda arc: (code[arc[:2]],) * 2, None, None)

    meet = intersect(encode(t1), encode(t2))
    return _relabel(meet, lambda arc: pairs[arc[0] - 1],
                    t1.isymbols, t1.osymbols)


@dataclass
class TreeLeaf:
    insym: str
    outputs: tuple        # (cost, output symbol) alternatives
    constraints: tuple    # (side, regex) conjuncts over the full context


@dataclass
class DecisionTreeSpec:
    leaves: list
    classes: dict = field(default_factory=dict)


def parse_tree(text) -> DecisionTreeSpec:
    """Indentation-nested tree format.

    ``split <side> <regex>`` has two child blocks: the first where the
    constraint holds, the second (its complement) where it does not.
    ``leaf <insym> -> <w1> out1 | <w2> out2 ...`` ends a branch.  ``Class``
    declarations may precede the tree.
    """
    classes = {}
    lines = []  # (line number, indent, content) of each tree line
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        stripped = raw.strip()
        if decl := _CLASS.match(stripped):
            classes[decl.group(1)] = tuple(decl.group(2).split())
            continue
        lines.append((lineno, len(raw) - len(raw.lstrip()), stripped))

    def parse_leaf(content, constraints, lineno):
        head, _, tail = content[4:].partition("->")
        insym = head.strip()
        if not insym or not tail.strip():
            raise ParseError(f"malformed leaf line {content!r}", lineno)
        outs = []
        for alt in tail.split("|"):
            parts = alt.split()
            if len(parts) not in (1, 2):
                raise ParseError(f"malformed leaf alternative {alt!r}", lineno)
            try:
                outs.append((float(parts[0]) if parts[1:] else 0.0, parts[-1]))
            except ValueError:
                raise ParseError(f"malformed leaf weight {alt!r}",
                                 lineno) from None
        return TreeLeaf(insym, tuple(outs), tuple(constraints))

    # preorder walk with an explicit stack of the splits whose second
    # branch is still to come, so nesting depth costs no Python recursion
    leaves, pending = [], []
    i, constraints = 0, []
    while True:
        if i >= len(lines):
            raise ParseError("tree ended where a node was expected")
        lineno, indent, content = lines[i]
        i += 1
        if content.startswith("leaf"):
            leaves.append(parse_leaf(content, constraints, lineno))
            if not pending:
                break
            lineno, indent, content, side, rx, constraints = pending.pop()
            if i >= len(lines) or lines[i][1] <= indent:
                raise ParseError(f"split {content!r} lacks its second branch",
                                 lineno)
            constraints = constraints + [(side, f"~({rx})")]
            continue
        if not content.startswith("split"):
            raise ParseError(f"expected 'split' or 'leaf', got {content!r}",
                             lineno)
        parts = content.split(None, 2)
        if len(parts) != 3 or parts[1] not in ("left", "right"):
            raise ParseError(f"malformed split line {content!r}", lineno)
        side, rx = parts[1], parts[2]
        pending.append((lineno, indent, content, side, rx, constraints))
        constraints = constraints + [(side, rx)]
    if i != len(lines):
        raise ParseError("trailing lines after the tree root", lines[i][0])
    return DecisionTreeSpec(leaves, classes)


def _profiles(tables, sigma):
    """Reachable acceptance profiles of a product of complete DFAs."""
    start = tuple(t[2] for t in tables)
    seen = {start}
    queue = deque([start])
    found = set()
    while queue:
        tup = queue.popleft()
        found.add(frozenset(i for i, (trans, finals, _) in enumerate(tables)
                            if tup[i] in finals))
        for x in sigma:
            nxt = tuple(tables[i][0][tup[i]][x] for i in range(len(tables)))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return found


def _leaf_machine(left, right, phi, pairs, costs, sigma):
    """Coercion transducer for one leaf over the pair alphabet.

    States track the left-context DFA forward and guess the right-context
    DFA's backward run; at in-context positions the input symbol must map
    to one of the leaf's weighted outputs, elsewhere any alphabet pair
    passes freely.  The backward run makes the machine unambiguous.
    """
    ltrans, lfinals, lstart = left
    rtrans, rfinals, rstart = right
    # state 0 starts; (ql, s) is a left-DFA state and a guessed right one
    idx = {(ql, s): 1 + ql * len(rtrans) + s
           for ql in range(len(ltrans)) for s in range(len(rtrans))}
    arcs = [[] for _ in range(1 + len(idx))]
    finals = dict.fromkeys(
        [0] + [idx[(ql, rstart)] for ql in range(len(ltrans))], 0.0)
    pre = {x: {} for x in sigma}
    for s_prev in range(len(rtrans)):
        for x in sigma:
            pre[x].setdefault(rtrans[s_prev][x], []).append(s_prev)

    def emit(src, ql, in_l, s, x):
        for s_next in pre[x].get(s, []) if s is not None else range(len(rtrans)):
            in_ctx = in_l and x == phi and s_next in rfinals
            dst = idx[(ltrans[ql][x], s_next)]
            for px, z in pairs:
                if px != x:
                    continue
                if in_ctx:
                    if z in costs:
                        arcs[src].append((x, z, costs[z], dst))
                else:
                    arcs[src].append((x, z, 0.0, dst))

    for x in sigma:
        emit(0, lstart, lstart in lfinals, None, x)
    for (ql, s), src in idx.items():
        for x in sigma:
            emit(src, ql, ql in lfinals, s, x)
    return connect(Machine._from_parts(Semiring.TROPICAL, None, None, arcs,
                                       finals))


def compile_tree(spec: DecisionTreeSpec) -> Machine:
    """Simultaneous weighted coercion rules for one input symbol.

    Each occurrence of the symbol is rewritten per the unique leaf whose
    full left/right context matches; the result is the same-length
    intersection of the per-leaf transducers, over every symbol the tree
    names (class members included), which the result's symbol table holds.
    """
    check_record(spec, DecisionTreeSpec)
    if not spec.leaves:
        raise ContractError("tree has no leaves")
    insyms = {leaf.insym for leaf in spec.leaves}
    if len(insyms) != 1:
        raise ContractError(f"one tree rewrites one symbol, got {sorted(insyms)}")
    symtab = SymbolTable()
    classes = spec.classes or {}
    phi = symtab.add(next(iter(insyms)))
    # per leaf, output label -> its cost, each cost checked as it enters
    costs = []
    for leaf in spec.leaves:
        costs.append({symtab.add(out): Semiring.TROPICAL.check(cost)
                      for cost, out in leaf.outputs})
        for _, rx in leaf.constraints:
            _tokenize(rx, symtab, classes)
    for members in classes.values():
        for sym in members:
            symtab.add(sym)
    sigma = symtab.labels()

    lefts, rights = [], []
    for leaf in spec.leaves:
        sides = {"left": [], "right": []}
        for side, rx in leaf.constraints:
            sides[side].append(compile_regex(rx, symtab, classes))
        lmach = reduce(intersect, sides["left"]) if sides["left"] \
            else _sigma_star(sigma)
        rmach = reduce(intersect, sides["right"]) if sides["right"] \
            else _sigma_star(sigma)
        lefts.append(_complete_table(determinize(lmach), sigma))
        rights.append(_complete_table(determinize(reverse(rmach)), sigma))

    for lp in _profiles(lefts, sigma):
        for rp in _profiles(rights, sigma):
            live = lp & rp
            if not live:
                raise ContractError("leaf contexts are not exhaustive")
            if len(live) > 1:
                raise ContractError(
                    f"leaf contexts overlap (leaves {sorted(live)})")

    pairs = sorted({(x, x) for x in sigma if x != phi} |
                   {(phi, z) for leaf_costs in costs for z in leaf_costs})
    machines = [_leaf_machine(left, right, phi, pairs, leaf_costs, sigma)
                for left, right, leaf_costs in zip(lefts, rights, costs)]
    result = reduce(intersect_samelength, machines)
    result.isymbols = symtab
    result.osymbols = symtab
    return result
