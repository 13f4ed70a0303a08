"""Golden outputs of the static lattice pipeline.

determinize -> minimize -> push -> lattice_prune -> best_path over seeded
slotted word DAGs: 16 slots of 8 states (one start, one final), 3 arcs from
every state into the next slot, words 1..30, weights on a 0.25 grid.  The
SHA-256 of each stage's ``write_text`` output and start weight, joined
over the lattices, pins every stage byte for byte.  The tables a stage
records for the next (topological order, backward distances) are checked
against what the next stage would compute.
"""

import hashlib
import random

import pytest

from wfst import decode
from wfst import (FsmError, Lattice, Machine, Semiring, best_path, connect,
                  determinize, lattice_prune, minimize, push, write_text)

from helpers import acceptor, sample_machines

SLOTS, WIDTH, FANOUT, VOCAB = 16, 8, 3, 30
PRUNE = 3.0

GOLDEN = {
    "determinize":
        "f87d2d1257a31376035859a57aac09c5b2b8b4c1abee483ba25dc4e7dfcbc7c4",
    "minimize":
        "10873709814aad378454022a7b71d782d237eec49f1d0ffa8671a60d7cf9fe76",
    "push":
        "10873709814aad378454022a7b71d782d237eec49f1d0ffa8671a60d7cf9fe76",
    "prune":
        "8688d0de71903234de84c4e38627561d3aa1c27c54a8b7c96adb49d776378317",
    "best_path":
        "2e77addafde0241e81d9b0f7b75be0459e3ef1be213aa73f78f4d2bc07ed9954",
}


def slotted_dag(rng):
    slots = [[0]]
    n = 1
    for _ in range(SLOTS - 1):
        slots.append(list(range(n, n + WIDTH)))
        n += WIDTH
    slots.append([n])
    arcs = [(q, rng.randint(1, VOCAB), rng.randint(0, 12) * 0.25,
             rng.choice(slots[t + 1]))
            for t in range(SLOTS) for q in slots[t] for _ in range(FANOUT)]
    return acceptor(Semiring.TROPICAL, arcs, [n])


def pipeline_texts(count=20, seed=7):
    rng = random.Random(seed)
    texts = {stage: [] for stage in GOLDEN}
    for _ in range(count):
        det = determinize(slotted_dag(rng))
        small = minimize(det)
        pushed = push(small, "weights")
        pruned = lattice_prune(Lattice(pushed), PRUNE).machine
        for stage, m in (("determinize", det), ("minimize", small),
                         ("push", pushed), ("prune", pruned)):
            texts[stage].append(f"{write_text(m)}{m.start_weight!r}")
        texts["best_path"].append(repr(best_path(pruned)))
    return texts


def digest(parts):
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


def test_lattice_pipeline_outputs_are_pinned():
    texts = pipeline_texts()
    assert {stage: digest(parts) for stage, parts in texts.items()} == GOLDEN


# -- tables the pipeline hands on ------------------------------------------


def check_recorded(m):
    """Check what an op recorded on ``m``: a topological order must order
    every state before its arcs' targets, and backward distances and a
    determinism flag must equal ``_distances`` and ``_scan_deterministic``
    on a fresh copy that knows nothing.  Returns how many recorded tables
    it checked."""
    checked = 0
    fresh = Machine._from_parts(m.kind, m.isymbols, m.osymbols,
                                [m.arcs(q) for q in m.states()],
                                dict(m.finals), m.start, m.start_weight)
    order = m._derived.get("topological_order")
    if order is not None:
        assert sorted(order) == list(m.states())
        place = {q: i for i, q in enumerate(order)}
        assert all(place[q] < place[t] for q, (_, _, _, t) in m.all_arcs())
        checked += 1
    if "backward_distances" in m._derived:
        assert m._derived["backward_distances"] == \
            decode._distances(fresh, False)
        checked += 1
    if "is_deterministic" in m._derived:
        assert m._derived["is_deterministic"] == fresh._scan_deterministic()
        checked += 1
    return checked


def with_dead_state(m):
    """``m`` plus a state no path reaches, its order known: ``connect``
    must renumber it and carry the order through."""
    arcs = [m.arcs(q) for q in m.states()] + [((1, 1, 0.0, m.start),)]
    out = Machine._from_parts(m.kind, m.isymbols, m.osymbols, arcs,
                              dict(m.finals), m.start, m.start_weight)
    out.topological_order()
    return out


def pipeline_machines(m, threshold):
    """Every machine the lattice pipeline builds from ``m``, as far as it
    gets: determinize, minimize, push, connect on the pushed machine with
    a dead state added, and lattice_prune on acyclic input, of the pushed
    machine and of the determinized one, whose potentials need not be
    zero."""
    out = []
    try:
        out.append(determinize(m, expansion_cap=200))
        out.append(minimize(out[-1]))
        pushed = push(out[-1], "weights")
        out += [pushed, connect(with_dead_state(pushed))]
        if pushed.is_acyclic():
            out += [lattice_prune(Lattice(lattice), threshold).machine
                    for lattice in (pushed, out[0])]
    except FsmError:  # a draw determinize, push or pruning cannot take
        pass
    return out


@pytest.mark.parametrize("acyclic", [True, False])
@pytest.mark.parametrize("is_acceptor", [True, False])
def test_recorded_tables_hold_on_drawn_machines(acyclic, is_acceptor):
    checked = 0
    for seed in range(4):
        for m in sample_machines(40 + seed, 50, kind=Semiring.TROPICAL,
                                 acyclic=acyclic, acceptor=is_acceptor,
                                 eps_in=False,
                                 weights=(-1.0, 0.0, 0.5, 2.0)):
            for out in pipeline_machines(m, 1.0):
                checked += check_recorded(out)
    assert checked > 0


def test_recorded_tables_hold_on_lattices():
    rng = random.Random(11)
    checked = 0
    for _ in range(400):
        for out in pipeline_machines(slotted_dag(rng), PRUNE):
            checked += check_recorded(out)
    # an order, distances and the determinism flag on the determinized
    # (computed once, the flag recorded by determinize), an order and
    # distances on the minimized, the pushed (the minimized itself) and
    # its pruned lattice, and an order on the connected one and on the
    # pruned determinized one
    assert checked == 400 * 11


def test_minimize_reads_the_determinism_determinize_records(monkeypatch):
    scanned = []
    scan = Machine._scan_deterministic
    monkeypatch.setattr(Machine, "_scan_deterministic",
                        lambda m: scanned.append(m) or scan(m))
    rng = random.Random(5)
    drawn = [m for kind in (Semiring.TROPICAL, Semiring.BOOLEAN)
             for m in sample_machines(60, 30, kind=kind, acceptor=True)]
    for m in [slotted_dag(rng) for _ in range(10)] + drawn:
        try:
            minimize(determinize(m, expansion_cap=200))
        except FsmError:  # a draw determinize cannot take
            continue
    assert scanned == []
    # a transducer's output records nothing, so minimize scans it
    transducer = Machine._from_parts(Semiring.TROPICAL, None, None,
                                     [[(1, 2, 0.0, 1)], []], {1: 0.0})
    minimize(determinize(transducer))
    assert len(scanned) == 1


def test_pushing_pruning_and_best_path_reuse_minimize_tables(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Machine, "_kahn", counted("kahn", Machine._kahn))
    monkeypatch.setattr(decode, "_distances",
                        counted("distances", decode._distances))
    rng = random.Random(5)
    for _ in range(20):
        small = minimize(determinize(slotted_dag(rng)))
        calls.clear()
        pushed = push(small, "weights")
        pruned = lattice_prune(Lattice(pushed), PRUNE)
        best_path(pruned.machine)
        assert pushed is small
        assert calls == ["distances"]  # the pruning's forward pass
