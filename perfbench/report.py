"""Every metric of every workload for one seed, by name and unit.

    python3 perfbench/report.py --seed N

Runs each workload twice through run.py, untraced for the end-to-end
metrics and traced for the per-layer ones, one process at a time, and
prints one table per workload.  Counts and ratios are marked exact and
comparable across hosts; timings and memory are marked per host.  The
tracing overhead is the untraced run's throughput over the traced run's.
Untraced runs get ``run_seconds`` of BENCHMARK.json as ``--seconds``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import metric_line

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rules", "decode", "lattice")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        return None
    path = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    status = 0
    for workload in WORKLOADS:
        plain = run(workload, args.seed, seconds, 0)
        traced = run(workload, args.seed, seconds, 1)
        if plain is None or traced is None:
            print(f"{workload}: run failed, see above")
            status = 1
            continue
        print(f"== {workload}  seed {args.seed}  {seconds} s  "
              f"python {plain['python']}  host {plain['host']}")
        for label, result in (("end to end", plain), ("per layer", traced)):
            print(f"-- {label}")
            for name, m in result["metrics"].items():
                print(f"   {metric_line(name, m['value'], m['unit'])}")
        for result in (plain, traced):
            name = f"fail_rate (trace {result['trace']})"
            print(f"   {metric_line(name, result['fail_rate'], 'ratio')} "
                  f"({result['failed']} of {result['attempted']})")
            for failure in result["failures"]:
                print(f"   FAILED op {failure['op']}: {failure['error']} "
                      f"on input {failure['input']}")
        fast = plain["metrics"]["ops_per_s"]["value"]
        slow = traced["metrics"]["traced.ops_per_s"]["value"]
        print(f"   tracing overhead: {fast:.3f} -> {slow:.3f} ops/s "
              f"({fast / slow:.2f}x), per host")
    return status


if __name__ == "__main__":
    sys.exit(main())
