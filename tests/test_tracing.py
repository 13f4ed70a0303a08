"""Smoke test of the benchmark's tracer (perfbench/tracing.py) against the
library: it must install over the current function and method names, see
the composition kernel run, and put every original back."""

import importlib.util
import sys
from pathlib import Path

import wfst
from wfst import CascadeSpec, Rule, Semiring, compile_weighted_rule

from helpers import build

T = Semiring.TROPICAL
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every attribute of every ``wfst`` module and of the classes the
    tracer patches, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "wfst" or name.startswith("wfst."):
            for attr, value in vars(module).items():
                out[name, attr] = id(value)
                if isinstance(value, type):
                    for member, field in vars(value).items():
                        out[name, attr, member] = id(field)
    return out


def test_tracer_installs_over_the_kernel_and_restores_it():
    tracing = load_tracing()
    rule = compile_weighted_rule(Rule("a", "b", "c", "b"))
    a = build(T, [(0, 1, 2, 0.5, 1), (1, 0, 3, 0.0, 2)], {2: 0.0})
    b = build(T, [(0, 2, 2, 0.0, 1), (1, 3, 1, 1.0, 1)], {1: 0.0})
    before, compose = bindings(), wfst.compose
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert wfst.compose is not compose
        wfst.compose(a, b)
        assert wfst.apply_rewrite(rule, list("cab"), mode="best")
        wfst.beam_decode(CascadeSpec([a, b]), [1])
        # beam_decode caches nothing, so the tracer's cache wrapper is
        # exercised here
        wfst.expand(wfst.cached(wfst.lazy_compose(a, b)))
        wfst.lattice_prune(wfst.Lattice(a), 1.0)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    # the direct call only: apply_rewrite searches its composition untrimmed
    assert metrics["ops.compose.calls"] == 1
    assert metrics["rewrite.apply_rewrite.calls"] == 1
    assert metrics["decode.beam_decode.calls"] == 1
    assert metrics["decode.lattice_prune.calls"] == 1
    assert metrics["decode.shortest_distance.calls"] == 1  # in lattice_prune
    assert metrics["lazy.LazyComposition.arcs.calls"] > 0
    assert metrics["lazy.cache.misses"] > 0
    assert bindings() == before
