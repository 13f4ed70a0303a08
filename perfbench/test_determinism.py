"""Determinism self-check of the benchmark.

Two traced runs of a workload at one seed and a short run length must
report identical counts: every ``.calls``, states, arcs and ratio metric,
``traced.out_states``, ``traced.out_arcs`` and the search error rate.
Timings are not compared.

    python3 -m pytest -q perfbench/test_determinism.py

Takes a few minutes: each workload runs twice, set-up included.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def traced_counts(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-trace1.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    assert result["metrics"].keys() <= report["metrics"].keys()
    return {name: m["value"] for name, m in report["metrics"].items()
                    if m["exact"]}


@pytest.mark.parametrize("workload", ["rules", "decode", "lattice"])
def test_counts_repeat_exactly(workload):
    first = traced_counts(workload)
    second = traced_counts(workload)
    assert {"traced.out_states", "traced.out_arcs",
            "decode.beam_decode.search_error_rate"} <= first.keys()
    assert any(name.endswith(".calls") and value > 0
               for name, value in first.items())
    assert first == second
