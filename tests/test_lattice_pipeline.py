"""Golden outputs of the static lattice pipeline.

determinize -> minimize -> push -> lattice_prune -> best_path over seeded
slotted word DAGs: 16 slots of 8 states (one start, one final), 3 arcs from
every state into the next slot, words 1..30, weights on a 0.25 grid.  The
SHA-256 of each stage's ``write_text`` output and start weight, joined
over the lattices, pins every stage byte for byte.
"""

import hashlib
import random

from wfst import (Lattice, Semiring, best_path, determinize, lattice_prune,
                  minimize, push, write_text)

from helpers import acceptor

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
