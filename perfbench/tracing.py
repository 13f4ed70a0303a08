"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions of ``wfst`` with wrappers, on
their own module and on every other ``wfst`` module that imported them
(``ops.connect``, ``lazy.merge_arcs``, ``rewrite.compose``, ...), so calls
between layers are seen too.  Timed functions record a span (name, start,
end, parent span, operation id); hot inner functions only bump counters.
Spans stay in memory and are written out by ``write_spans`` when the run
ends.

A traced run is one set-up round plus a fixed number of operations, so
every count repeats exactly for a seed.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

from wfst import decode, errors, lazy, machine, ngram, ops, optimize, rewrite
from wfst import cli, semiring

RATIONAL = ("union", "concat", "closure", "reverse", "intersect", "complement")

# metric prefix -> (module, attribute); several attributes may share a prefix
TIMED = [
    ("machine.read_text", machine, "read_text"),
    ("machine.write_text", machine, "write_text"),
    ("machine.connect", machine, "connect"),
    ("machine.accepted_pairs", machine, "accepted_pairs"),
    ("ops.compose", ops, "compose"),
    *(("ops.rational", ops, name) for name in RATIONAL),
    ("optimize.determinize", optimize, "determinize"),
    ("optimize.minimize", optimize, "minimize"),
    ("optimize.push", optimize, "push"),
    ("rewrite.compile_weighted_rule", rewrite, "compile_weighted_rule"),
    ("rewrite.compile_regex", rewrite, "compile_regex"),
    ("rewrite.apply_rewrite", rewrite, "apply_rewrite"),
    ("ngram.count_ngrams", ngram, "count_ngrams"),
    ("ngram.katz_model", ngram, "katz_model"),
    ("ngram.write_arpa", ngram, "write_arpa"),
    ("ngram.read_arpa", ngram, "read_arpa"),
    ("ngram.build_lm_fsa", ngram, "build_lm_fsa"),
    ("decode.beam_decode", decode, "beam_decode"),
    ("decode.best_path", decode, "best_path"),
    ("decode.backward_distances", decode, "backward_distances"),
    ("decode.shortest_distance", decode, "shortest_distance"),
    ("decode.lattice_prune", decode, "lattice_prune"),
    ("cli.rule_main", cli, "rule_main"),
    ("cli.lm_main", cli, "lm_main"),
]
TIMED_METHOD = ("lazy.LazyComposition.arcs", lazy.LazyComposition, "arcs")
COUNTED_METHODS = [
    ("semiring.check.calls", semiring.Semiring, "check"),
    ("semiring.combine.calls", semiring.Semiring, "combine"),
    ("semiring.extend.calls", semiring.Semiring, "extend"),
    ("machine.add_arc.calls", machine.Machine, "add_arc"),
    ("machine.add_state.calls", machine.Machine, "add_state"),
]
COUNTS = [
    "machine.connect.states_in", "machine.connect.states_out",
    "ops.compose.states_out", "ops.merge_arcs.calls",
    "ops.merge_arcs.arcs_b_scanned", "ops.merge_arcs.moves",
    "optimize.determinize.states_out", "optimize.determinize.errors",
    "optimize.minimize.states_in", "optimize.minimize.states_out",
    "lazy.cache.hits", "lazy.cache.misses",
    "ngram.katz_model.errors", "ngram.build_lm_fsa.arcs_out",
    "decode.beam_decode.frames", "decode.beam_decode.expanded_states",
    "decode.beam_decode.pruned",
]
# ratio name -> (numerator count, denominator counts summed)
RATIOS = {
    "ops.compose.useful_ratio": ("ops.compose.pairs_kept",
                                 ("ops.compose.pairs_built",)),
    "lazy.cache.hit_ratio": ("lazy.cache.hits",
                             ("lazy.cache.hits", "lazy.cache.misses")),
    "decode.beam_decode.prune_ratio": (
        "decode.beam_decode.pruned",
        ("decode.beam_decode.pruned", "decode.beam_decode.expanded_states")),
}


def timed_names():
    names = []
    for name, _, _ in TIMED + [TIMED_METHOD]:
        if name not in names:
            names.append(name)
    return names


# Every workload reads machines from text; other functions are skipped by
# at least one workload, where their times read 0 on every run.
CALLED_BY_ALL = ("machine.read_text",)


def metric_units():
    """Every per-layer metric the tracer reports, name -> unit."""
    units = {}
    for name in timed_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    for name, _, _ in COUNTED_METHODS:
        units[name] = "count"
    for name in COUNTS:
        units[name] = "count"
    for name in RATIOS:
        units[name] = "ratio"
    return units


class Tracer:
    """Spans and counters for one run."""

    def __init__(self):
        self.names = timed_names()
        self._ids = {name: i for i, name in enumerate(self.names)}
        # spans as parallel arrays: name id, start, end, parent, op id
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op = -1
        self._stack = []        # (span index, name id, start, child time)
        self._depth = [0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.inclusive = [0.0] * len(self.names)
        self.self_time = [0.0] * len(self.names)
        self.counts = Counter()
        self._restore = []

    def metrics(self):
        """Per-layer metrics of the run so far, name -> value."""
        counts = self.counts
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.s"] = self.inclusive[i]
            out[f"{name}.self_s"] = self.self_time[i]
        for name, _, _ in COUNTED_METHODS:
            out[name] = counts[name]
        for name in COUNTS:
            out[name] = counts[name]
        for name, (num, dens) in RATIOS.items():
            den = sum(counts[d] for d in dens)
            out[name] = counts[num] / den if den else 0.0
        return out

    # -- spans -----------------------------------------------------------

    def _enter(self, name_id):
        index = len(self.span_name)
        parent = self._stack[-1][0] if self._stack else -1
        self.span_name.append(name_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(parent)
        self.span_op.append(self.op)
        self._depth[name_id] += 1
        start = perf_counter()
        self.span_start[index] = start
        self._stack.append([index, name_id, start, 0.0])

    def _exit(self):
        end = perf_counter()
        index, name_id, start, child = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        self._depth[name_id] -= 1
        self.calls[name_id] += 1
        self.self_time[name_id] += duration - child
        if self._depth[name_id] == 0:   # outermost of its name: no double count
            self.inclusive[name_id] += duration
        if self._stack:
            self._stack[-1][3] += duration

    def parent_name(self):
        return self.names[self._stack[-1][1]] if self._stack else None

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tstart\tend\tparent\top\n")
            for i in range(len(self.span_name)):
                out.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                          f"{self.span_start[i]:.9f}\t"
                          f"{self.span_end[i]:.9f}\t"
                          f"{self.span_parent[i]}\t{self.span_op[i]}\n")

    # -- wrappers --------------------------------------------------------

    def _timed(self, name, fn, after=None):
        name_id = self._ids[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.parent_name()
            tracer._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            except errors.FsmError:
                tracer._exit()
                tracer.counts[f"{name}.errors"] += 1
                raise
            except BaseException:
                tracer._exit()
                raise
            tracer._exit()
            if after is not None:
                after(result, args, parent)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _merge_arcs(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(kind, arcs_a, arcs_b, f, filtered=True):
            counts["ops.merge_arcs.calls"] += 1
            counts["ops.merge_arcs.arcs_b_scanned"] += len(arcs_b)
            moves = 0
            for move in fn(kind, arcs_a, arcs_b, f, filtered):
                moves += 1
                yield move
            counts["ops.merge_arcs.moves"] += moves
        return wrapper

    def _cached(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            view = fn(*args, **kwargs)
            arcs = view.arcs

            def counted_arcs(state):
                before = view.expansions
                result = arcs(state)
                if view.expansions == before:
                    counts["lazy.cache.hits"] += 1
                else:
                    counts["lazy.cache.misses"] += 1
                return result
            view.arcs = counted_arcs
            return view
        return wrapper

    def _after_hooks(self):
        counts = self.counts

        def connect(result, args, parent):
            counts["machine.connect.states_in"] += args[0].num_states
            counts["machine.connect.states_out"] += result.num_states
            if parent == "ops.compose":
                counts["ops.compose.pairs_built"] += args[0].num_states
                counts["ops.compose.pairs_kept"] += result.num_states

        def compose(result, args, parent):
            counts["ops.compose.states_out"] += result.num_states

        def determinize(result, args, parent):
            counts["optimize.determinize.states_out"] += result.num_states

        def minimize(result, args, parent):
            counts["optimize.minimize.states_in"] += args[0].num_states
            counts["optimize.minimize.states_out"] += result.num_states

        def build_lm_fsa(result, args, parent):
            counts["ngram.build_lm_fsa.arcs_out"] += result.num_arcs

        def beam_decode(result, args, parent):
            stats = result[2]
            counts["decode.beam_decode.frames"] += stats.frames
            counts["decode.beam_decode.expanded_states"] += \
                stats.expanded_states
            counts["decode.beam_decode.pruned"] += stats.pruned

        return {"machine.connect": connect, "ops.compose": compose,
                "optimize.determinize": determinize,
                "optimize.minimize": minimize,
                "ngram.build_lm_fsa": build_lm_fsa,
                "decode.beam_decode": beam_decode}

    # -- installation ----------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != "wfst" and not name.startswith("wfst."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def _replace_method(self, cls, attr, replacement):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        hooks = self._after_hooks()
        for name, module, attr in TIMED:
            original = getattr(module, attr)
            self._replace_everywhere(
                original, self._timed(name, original, hooks.get(name)))
        name, cls, attr = TIMED_METHOD
        self._replace_method(cls, attr, self._timed(name, cls.__dict__[attr]))
        for name, cls, attr in COUNTED_METHODS:
            self._replace_method(cls, attr,
                                 self._counted(name, cls.__dict__[attr]))
        self._replace_everywhere(ops.merge_arcs,
                                 self._merge_arcs(ops.merge_arcs))
        self._replace_everywhere(lazy.cached, self._cached(lazy.cached))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []
