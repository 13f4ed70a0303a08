"""Acceptance gate: eleven end-to-end criteria, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as they
print; each criterion also enforces its wall-clock budget.
"""

import math
import random
from contextlib import contextmanager
from functools import reduce
from time import perf_counter

import pytest

from wfst import (LRU, MEMOIZE, REFCOUNT, CapExceededError, CascadeSpec,
                  FsmError, Lattice, NoPathError, Semiring, SymbolTable,
                  beam_decode, best_path, cached, closure, compose, concat,
                  connect, determinize, expand, lazy_compose, minimize,
                  observation_machine, read_text, rescore, shortest_distance,
                  twins_test, union, weight_of, write_text)
from wfst import ngram, ops, optimize, rewrite
from wfst.cli import decode_main, fst_main, lm_main, rule_main
from wfst.ngram import EOS, frequency_of_frequencies
from wfst.rewrite import Rule, apply_rewrite, compile_weighted_rule

from helpers import (WorkCapExceeded, acceptor, bounded_pairs, build,
                     layered_distances, model_path_cost, nerode_class_count,
                     product_compose, random_det_acceptor, random_machine,
                     random_rule_spec, sample_machines, scan_rewrite,
                     viable_model)
from test_decode import toy_cascade
from test_optimize import TWIN_VIOLATION, twin_satisfying_machines
from test_rational_ops import join_oracle

T = Semiring.TROPICAL
B = Semiring.BOOLEAN
R = Semiring.REAL
INF = math.inf


@contextmanager
def gate(num, label, budget):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({label}): FAIL")
        raise
    elapsed = perf_counter() - start
    ok = elapsed < budget
    verdict = "PASS" if ok else "FAIL (over time budget)"
    print(f"\nACCEPTANCE {num} ({label}): {verdict} "
          f"[{elapsed:.2f}s / {budget:.0f}s]")
    assert ok, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"


# -- 1: power-series evaluation ------------------------------------------


def weighted_label(label, cost):
    return acceptor(T, [(0, label, float(cost), 1)], [1])


def test_criterion_1_power_series():
    with gate(1, "power-series evaluation", 1.0):
        a, b = 1, 2
        term1 = reduce(concat, [weighted_label(a, 2), weighted_label(b, 3),
                                weighted_label(b, 4), weighted_label(b, 5)])
        term2 = concat(weighted_label(a, 2), closure(weighted_label(b, 3)))
        series = union(term1, term2)
        assert weight_of(series, (a, b, b, b)) == 11.0


# -- 2: semiring laws -----------------------------------------------------


def test_criterion_2_semiring_laws():
    with gate(2, "semiring laws on 10k triples", 5.0):
        pools = {
            B: (0.0, 1.0),
            T: (0.0, 0.5, 1.25, 3.0, 7.5, INF),
            R: (0.0, 0.125, 0.25, 0.5, 1.0, 2.0),
        }

        def close(kind, x, y):
            if kind is R:
                return x == y == 0.0 or abs(x - y) <= 1e-12 * max(abs(x),
                                                                  abs(y))
            return x == y

        rng = random.Random(2024)
        for kind, pool in pools.items():
            for _ in range(10_000):
                a, b, c = (rng.choice(pool) for _ in range(3))
                assert close(kind, kind.combine(kind.combine(a, b), c),
                             kind.combine(a, kind.combine(b, c)))
                assert close(kind, kind.extend(kind.extend(a, b), c),
                             kind.extend(a, kind.extend(b, c)))
                assert close(kind, kind.combine(a, b), kind.combine(b, a))
                assert close(kind, kind.extend(a, kind.combine(b, c)),
                             kind.combine(kind.extend(a, b),
                                          kind.extend(a, c)))
                assert close(kind, kind.extend(kind.combine(a, b), c),
                             kind.combine(kind.extend(a, c),
                                          kind.extend(b, c)))
                assert close(kind, kind.combine(a, kind.zero), a)
                assert close(kind, kind.extend(a, kind.one), a)
                assert kind.extend(a, kind.zero) == kind.zero


# -- 3: composition oracle ------------------------------------------------


def check_compose_oracle(a, b, tol):
    c = compose(a, b)
    pa = bounded_pairs(a, 8, 10, 30, cap=60_000)
    pb = bounded_pairs(b, 10, 8, 30, cap=60_000)
    expected = {k: w for k, w in join_oracle(a.kind, pa, pb).items()
                if len(k[0]) <= 8 and len(k[1]) <= 8}
    got = bounded_pairs(c, 8, 8, 40, cap=60_000)
    for key, w in expected.items():
        gw = got.get(key, a.kind.zero)
        if tol:
            assert abs(gw - w) <= tol * max(1.0, abs(w)), (key, gw, w)
        else:
            assert gw == w, (key, gw, w)
    for key in got:
        assert key in expected, key


def test_criterion_3_composition_oracle():
    with gate(3, "composition equals the pairwise join oracle", 60.0):
        rng = random.Random(303)
        checked = 0
        while checked < 170:  # tropical, with epsilon arcs
            a = random_machine(rng, kind=T, max_states=5, max_arcs=7)
            b = random_machine(rng, kind=T, max_states=5, max_arcs=7)
            if a is None or b is None:
                continue
            try:
                check_compose_oracle(a, b, tol=0.0)
            except WorkCapExceeded:
                continue
            checked += 1
        while checked < 200:  # acyclic real
            a = random_machine(rng, kind=R, max_states=5, max_arcs=7,
                               acyclic=True)
            b = random_machine(rng, kind=R, max_states=5, max_arcs=7,
                               acyclic=True)
            if a is None or b is None:
                continue
            try:
                check_compose_oracle(a, b, tol=1e-9)
            except WorkCapExceeded:
                continue
            checked += 1

        # constructed redundant-epsilon witness: the unfiltered composition
        # counts the same epsilon alignment three times
        a = build(R, [(0, 1, 2, 1.0, 1), (1, 3, 0, 1.0, 2)], {2: 1.0})
        b = build(R, [(0, 2, 4, 1.0, 1), (1, 0, 5, 1.0, 2)], {2: 1.0})
        filtered = weight_of(compose(a, b), (1, 3), (4, 5), max_path_len=10)
        unfiltered = weight_of(product_compose(a, b, filtered=False),
                               (1, 3), (4, 5), max_path_len=10)
        assert filtered == 1.0
        assert unfiltered == 3.0


# -- 4: determinization ---------------------------------------------------


def test_criterion_4_determinization():
    with gate(4, "determinization on twin-satisfying machines", 60.0):
        count = 0
        for seed in (404, 405, 406, 407):
            for m in twin_satisfying_machines(seed, 50, kind=T, max_states=5,
                                              max_arcs=7, acceptor=True,
                                              eps=False):
                d = determinize(m)
                assert d._scan_deterministic()  # not the recorded flag
                before = bounded_pairs(m, 8, 12, 45)
                after = bounded_pairs(d, 8, 12, 45)
                assert before == after
                count += 1
        assert count == 200

        report = twins_test(TWIN_VIOLATION)
        assert not report.has_twin_property
        assert report.witness is not None
        with pytest.raises(CapExceededError):
            determinize(TWIN_VIOLATION, expansion_cap=500)


# -- 5: minimization ------------------------------------------------------


def test_criterion_5_minimization():
    with gate(5, "minimization equals the Myhill-Nerode class count", 60.0):
        rng = random.Random(505)
        done = 0
        while done < 300:
            m = random_det_acceptor(rng)
            if m is None:
                continue
            mini = minimize(m)
            assert mini.num_states == nerode_class_count(m)
            pushed = optimize.push(m, "weights")
            assert bounded_pairs(pushed, 8, 8, 8) == bounded_pairs(m, 8, 8, 8)
            again = minimize(mini)
            assert again.num_states == mini.num_states
            done += 1


# -- 6: lazy equals static ------------------------------------------------


def dead_branch_stage():
    """One cheap 8-arc route plus three expensive parallel routes that an
    additive beam of 10 prunes at the first frame."""
    arcs = []
    finals = {}
    nxt = [1]

    def chain(entry_cost):
        prev = 0
        for i in range(8):
            state = nxt[0]
            nxt[0] += 1
            arcs.append((prev, 1, entry_cost if i == 0 else 0.0, state))
            prev = state
        finals[prev] = 0.0

    chain(0.0)
    for _ in range(3):
        chain(50.0)
    return acceptor(T, arcs, finals, num_states=nxt[0])


def test_criterion_6_lazy_equals_static():
    with gate(6, "lazy expansion is isomorphic to static composition", 60.0):
        for i in range(200):
            a, b = sample_machines(600 + 2 * i, 2, kind=T, max_states=4,
                                   max_arcs=7)
            static = compose(a, b)
            lazy = connect(expand(lazy_compose(a, b)))
            assert write_text(static) == write_text(lazy)
            if i < 30:
                texts = [write_text(connect(expand(cached(
                                    lazy_compose(a, b), disc, **kw))))
                         for disc, kw in ((MEMOIZE, {}),
                                          (LRU, {"capacity": 2}),
                                          (REFCOUNT, {}))]
                assert texts[0] == texts[1] == texts[2]

        stage = dead_branch_stage()
        obs = (1,) * 8
        static = compose(observation_machine(obs), stage)
        _, cost, stats = beam_decode(CascadeSpec([stage]), obs, beam=10.0)
        assert cost == 0.0
        assert stats.expanded_states < 0.5 * static.num_states


# -- 7: rewrite compiler --------------------------------------------------


def rule_outputs(fst, text):
    table = fst.isymbols
    out = apply_rewrite(fst, list(text))
    return {tuple(table.find(x) for x in labels): w for labels, w in out}


def test_criterion_7_rewrite_compiler():
    with gate(7, "rewrite rules match the scanning oracle", 120.0):
        fst = compile_weighted_rule(Rule("a", "b", "c", "b"))
        assert rule_outputs(fst, "cab") == {tuple("cbb"): 0.0}

        voicing = compile_weighted_rule(
            Rule("s", "z", "", "($|#){VStop}",
                 classes={"VStop": ("m", "b", "d", "g"),
                          "Sigma": tuple("misoztbdg$#aeiou")}))
        assert rule_outputs(voicing, "mis$mo$") == {tuple("miz$mo$"): 0.0}

        rng = random.Random(707)
        syms = ("a", "b", "c")
        for _ in range(500):
            phi, psi, lam, rho, phi_t, psi_t, lam_t, rho_t = \
                random_rule_spec(rng, syms)
            symtab = SymbolTable()
            for s in syms:
                symtab.add(s)
            fst = compile_weighted_rule(Rule(phi_t, psi_t, lam_t, rho_t),
                                        symtab)
            labels = set(fst.isymbols.labels()) | {0}
            for _, (il, ol, _, _) in fst.all_arcs():
                assert il in labels and ol in labels
            for _ in range(2):
                inp = [rng.choice(syms) for _ in range(rng.randint(0, 10))]
                expected = scan_rewrite(inp, phi, psi, lam, rho)
                got = rule_outputs(fst, inp)
                assert set(got) == set(expected), \
                    (phi_t, psi_t, lam_t, rho_t, inp)
                for out, w in expected.items():
                    assert got[out] == pytest.approx(w)


# -- 8: weighted rules ----------------------------------------------------


def test_criterion_8_weighted_rules():
    with gate(8, "weighted rule alternatives and tropical best", 1.0):
        fst = compile_weighted_rule(Rule("c", "<0.9>c|<0.1>t", "a", "t"))
        assert rule_outputs(fst, "act") == {tuple("act"): 0.9,
                                            tuple("att"): 0.1}
        table = fst.isymbols
        best = apply_rewrite(fst, list("act"), mode="best")
        assert [(tuple(table.find(x) for x in o), w)
                for o, w in best] == [(tuple("att"), 0.1)]


# -- 9: n-grams -----------------------------------------------------------


def test_criterion_9_ngrams():
    with gate(9, "Good-Turing, Katz normalization, acceptor scoring", 10.0):
        ct = ngram.count_ngrams([["a", "b", "a", "b", "a", "c"]], 2)
        ff1 = frequency_of_frequencies(ct, 1)
        assert ff1 == {3: 1, 2: 1, 1: 2}
        assert ngram.good_turing(ff1, 1) == 2 * ff1[2] / ff1[1]
        assert ngram.good_turing(ff1, 2) == 3 * ff1[3] / ff1[2]
        ff2 = frequency_of_frequencies(ct, 2)
        assert ngram.good_turing(ff2, 1) == pytest.approx(4 / 3)

        matched = 0
        rng = random.Random(909)
        for seed in (911, 919, 929, 937, 941):
            ct, model = viable_model(seed)
            for h in (h for h in model.probs if isinstance(h, tuple)):
                s = sum(model.prob(y, h) for y in model.vocabulary)
                assert abs(s - 1.0) <= 1e-9, (h, s)
            fsa = ngram.build_lm_fsa(model)
            words = [y for y in model.vocabulary
                     if y != model.symbols.find(EOS)]
            for _ in range(120):
                if matched >= 100:
                    break
                sent = [rng.choice(words) for _ in range(rng.randint(1, 6))]
                logp = model.sentence_logprob(sent)
                if logp == -math.inf:
                    continue
                route = model_path_cost(model, fsa, sent)
                chain = observation_machine(sent, isymbols=model.symbols)
                _, bc = best_path(compose(chain, fsa))
                if abs(bc - route) <= 1e-9:  # explicit path is optimal
                    assert abs(bc - (-logp)) <= 1e-6
                    matched += 1
        assert matched >= 100


# -- 10: decoding ---------------------------------------------------------


def test_criterion_10_decoding():
    with gate(10, "shortest paths, beam search, rescoring", 60.0):
        done = 0
        seed = 1000
        while done < 300:
            m = sample_machines(seed, 1, kind=T, max_states=5, max_arcs=8,
                                acceptor=True, acyclic=True)[0]
            seed += 1
            assert shortest_distance(m) == layered_distances(m)
            done += 1

        for seed in range(100):
            stages = toy_cascade(seed)
            obs = (1, 2, 1)
            _, cost, _ = beam_decode(CascadeSpec(stages), obs)
            static = compose(compose(observation_machine(obs), stages[0]),
                             stages[1])
            _, bcost = best_path(static)
            assert abs(cost - bcost) < 1e-9

        stages = toy_cascade(99)
        obs = (1, 2, 2, 1)
        costs = []
        for beam in (INF, 3.0, 1.0, 0.5, 0.0):
            try:
                _, cost, _ = beam_decode(CascadeSpec(stages), obs, beam=beam)
            except NoPathError:
                cost = INF
            costs.append(cost)
        assert costs == sorted(costs)

        lat = Lattice(acceptor(T, [(0, 1, 1.0, 1), (0, 2, 3.0, 2),
                                   (1, 3, 1.0, 3), (2, 3, 0.5, 3)],
                               {3: 0.0}))
        (_, first), _ = best_path(lat.machine)
        assert first == (1, 3)
        full = acceptor(T, [(0, 2, 0.0, 1), (1, 3, 0.0, 2),
                            (0, 1, 10.0, 3), (3, 3, 10.0, 4)],
                        {2: 0.0, 4: 0.0})
        flipped, _ = rescore(lat, full)
        assert flipped == (2, 3)


# -- 11: CLI golden files -------------------------------------------------


A_TEXT = "0 1 1 0.5\n1 2 2 0.5\n2 1\n"
B_TEXT = "0 1 1 1\n1 2 2\n2\n"
BOOL_A = "0 1 1\n1 2 2\n2\n"
BOOL_B = "0 1 1\n1\n"


def test_criterion_11_cli_golden(tmp_path, capsys):
    with gate(11, "CLI pipelines byte-exact against the library", 30.0):
        a = tmp_path / "a.fst"
        b = tmp_path / "b.fst"
        ba = tmp_path / "ba.fst"
        bb = tmp_path / "bb.fst"
        for p, text in ((a, A_TEXT), (b, B_TEXT), (ba, BOOL_A), (bb, BOOL_B)):
            p.write_text(text)
        ma, mb = read_text(A_TEXT), read_text(B_TEXT)
        boa = read_text(BOOL_A, kind=B)
        bob = read_text(BOOL_B, kind=B)

        def check(main, argv, expected):
            assert main(argv) == 0
            assert capsys.readouterr().out == expected

        check(fst_main, ["compile", str(a)], write_text(ma))
        check(fst_main, ["print", str(a)], write_text(ma))
        assert fst_main(["print", str(a), "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph fst {")
        check(fst_main, ["compose", str(a), str(b)],
              write_text(ops.compose(ma, mb)))
        check(fst_main, ["intersect", str(a), str(b)],
              write_text(ops.intersect(ma, mb)))
        check(fst_main, ["union", str(a), str(b)],
              write_text(ops.union(ma, mb)))
        check(fst_main, ["concat", str(a), str(b)],
              write_text(ops.concat(ma, mb)))
        check(fst_main, ["closure", str(a)], write_text(ops.closure(ma)))
        check(fst_main, ["reverse", str(a)], write_text(ops.reverse(ma)))
        check(fst_main, ["project", str(a), "--side", "output"],
              write_text(ops.project(ma, "output")))
        check(fst_main, ["complement", str(ba), "--semiring", "boolean"],
              write_text(ops.complement(boa)))
        check(fst_main, ["difference", str(ba), str(bb),
                         "--semiring", "boolean"],
              write_text(ops.difference(boa, bob)))
        check(fst_main, ["determinize", str(a)],
              write_text(determinize(ma)))
        check(fst_main, ["localdet", str(a), "--k", "2"],
              write_text(optimize.local_determinize(ma, 2)))
        check(fst_main, ["push", str(a)],
              write_text(optimize.push(ma, "weights")))
        check(fst_main, ["minimize", str(a)], write_text(minimize(ma)))
        check(fst_main, ["equivalent", str(a), str(a)], "equivalent\n")
        check(fst_main, ["connect", str(a)], write_text(connect(ma)))
        d = shortest_distance(ma)
        check(fst_main, ["shortest", str(a)],
              "".join(f"{q}\t{T.format(d[q])}\n" for q in sorted(d)
                      if d[q] != INF))
        check(fst_main, ["bestpath", str(a)], "1 2\t1 2\t2\n")

        rul = tmp_path / "v.rul"
        rul.write_text("Class Sigma = [m i s o z t $ #];\n"
                       "Class VStop = [m b d g];\n"
                       "s -> z / _ ($|#){VStop};\n")
        vfst = tmp_path / "v.fst"
        assert rule_main(["compile", str(rul), "-o", str(vfst)]) == 0
        capsys.readouterr()
        check(rule_main, ["apply", str(vfst), "m i s $ m o $"],
              "m i z $ m o $\n")
        tree = tmp_path / "t.tree"
        tree_text = ("split right a.*\n"
                     " leaf a -> 0.5 b | 1.5 a\n"
                     " leaf a -> 0.0 a\n")
        tree.write_text(tree_text)
        check(rule_main, ["tree", str(tree)],
              write_text(rewrite.compile_tree(rewrite.parse_tree(tree_text))))

        ct, model = viable_model(41)
        corpus_lines = None
        rng = random.Random(41)
        vocab = ["a", "b", "c", "d"]
        while corpus_lines is None:
            corpus = [[rng.choice(vocab) for _ in range(rng.randint(1, 7))]
                      for _ in range(rng.randint(6, 15))]
            try:
                ngram.katz_model(ngram.count_ngrams(corpus, 2))
                corpus_lines = corpus
            except FsmError:
                continue
        corpus_file = tmp_path / "corpus.txt"
        corpus_file.write_text(
            "".join(" ".join(s) + "\n" for s in corpus_lines))
        counts = tmp_path / "counts.txt"
        check(lm_main, ["count", str(corpus_file), "-o", str(counts)], "")
        ct2 = ngram.count_ngrams(corpus_lines, 2)
        assert counts.read_text() == ngram.write_counts(ct2)
        arpa = tmp_path / "m.arpa"
        check(lm_main, ["build", str(counts), "-o", str(arpa)], "")
        model2 = ngram.katz_model(ngram.read_counts(counts.read_text()))
        assert arpa.read_text() == ngram.write_arpa(model2)
        check(lm_main, ["fsa", str(arpa)],
              write_text(ngram.build_lm_fsa(ngram.read_arpa(
                  arpa.read_text()))))
        sent = " ".join(corpus_lines[0])
        logp = ngram.read_arpa(arpa.read_text()).sentence_logprob(
            corpus_lines[0])
        check(lm_main, ["score", str(arpa), sent],
              "-inf\n" if logp == -math.inf else f"{logp:.6f}\n")

        stage = tmp_path / "s.fst"
        stage.write_text(A_TEXT)
        manifest = tmp_path / "cascade.txt"
        manifest.write_text(f"{stage}\n")
        outputs, cost, _ = beam_decode(CascadeSpec([ma]), [1, 2])
        check(decode_main, ["--cascade", str(manifest), "1 2"],
              f"{' '.join(str(x) for x in outputs)}\t{T.format(cost)}\n")
