"""Golden outputs of the ``lm count|build|fsa`` pipeline.

Two seeded Zipf corpora (``helpers.zipf_corpus``), each at orders 2 and 3,
run through ``lm_main`` into files.  One SHA-256 per stage, joined over the
four runs, pins the count file, the ARPA file, and the LM machine text
with its ``.syms`` byte for byte.
"""

import hashlib

from wfst.cli import lm_main

from helpers import zipf_corpus

SEEDS = (1, 2)
ORDERS = (2, 3)

GOLDEN = {
    "count":
        "305848d4c98393243c53fd65d3348c74665d565ffec07d453acc34df08c5656b",
    "build":
        "c04a4940a4c18845b01a6716c589e679e9df381e5540ccf2a8b4e9f126af71d1",
    "fsa":
        "3ea238c04bd71bb051bff6da8e5fcbbd2dd4e595275990f8c7d3b4cde8584d8f",
}


def pipeline_bytes(tmp_path):
    parts = {stage: [] for stage in GOLDEN}
    for seed in SEEDS:
        corpus = tmp_path / f"corpus{seed}.txt"
        corpus.write_text("".join(" ".join(s) + "\n"
                                  for s in zipf_corpus(seed)))
        for order in ORDERS:
            out = tmp_path / f"{seed}-{order}"
            counts, arpa, fsa = (out.with_suffix(s)
                                 for s in (".counts", ".arpa", ".fst"))
            assert lm_main(["count", "-n", str(order), str(corpus),
                            "-o", str(counts)]) == 0
            assert lm_main(["build", str(counts), "-o", str(arpa)]) == 0
            assert lm_main(["fsa", str(arpa), "-o", str(fsa)]) == 0
            syms = fsa.with_name(fsa.name + ".syms")
            parts["count"].append(counts.read_bytes())
            parts["build"].append(arpa.read_bytes())
            parts["fsa"].append(fsa.read_bytes() + b"\0" + syms.read_bytes())
    return parts


def digest(parts):
    return hashlib.sha256(b"\0".join(parts)).hexdigest()


def test_lm_pipeline_outputs_are_pinned(tmp_path):
    parts = pipeline_bytes(tmp_path)
    assert {stage: digest(p) for stage, p in parts.items()} == GOLDEN
