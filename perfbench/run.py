"""wfst benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload rules|decode|lattice --seed N \
        --seconds S --trace 0|1

Builds nothing: it imports ``wfst`` from ``src/`` of the checkout it sits
in and exits with code 2 if that is missing, or with code 1 if the program
fails during set-up.  Operations run one after another, each starting
when the previous one has finished.  They make passes over a fixed pool of
at least 200 seeded inputs: one or two whole passes, as the workload sets,
and more whole passes while ``--seconds`` have not passed.  Each input's
latency is the best of its passes, and p95 has ten inputs beyond it.
Every time is scaled to a reference speed of the host, measured by a
calibration unit run between operations (calibrate.py); the times as
measured are printed too, as ``wall.*``.  Set-up runs several times,
before the first operation and spread through the loop; ``setup_s`` is
the median round.  Every result is checked against an independent
reference outside the timed interval; a failure is counted, listed with
its input and never retried.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the
program's public functions (see tracing.py), sets up once, makes one pass
over the first ``WINDOW`` inputs of the pool whatever ``--seconds`` says,
so that counts repeat exactly, and reports per-layer metrics plus the traced
run's own end-to-end numbers as ``traced.*`` so that the tracing overhead
shows.  The report is printed by name and unit, written
to ``.perfbench_out/`` with the spans, and ends with one JSON line.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
MAX_FAILURES_LISTED = 50

END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_p95_ms": "ms", "peak_rss_mb": "MB", "out_states": "count",
    "out_arcs": "count",
}
TRACED_END_TO_END = ("setup_s", "ops_per_s", "latency_p50_ms",
                     "latency_p95_ms", "out_states", "out_arcs")
SEARCH_ERROR_RATE = "decode.beam_decode.search_error_rate"


def exact(unit):
    """Counts and ratios repeat exactly and compare across hosts;
    timings and memory are valid for one host only."""
    return unit in ("count", "ratio")


def metric_line(name, value, unit):
    kind = "exact, comparable across hosts" if exact(unit) else "per host"
    shown = f"{value:.6f}" if isinstance(value, float) else str(value)
    return f"{name:<44} {shown:>16} {unit:<6} {kind}"


def per_layer_units():
    import tracing
    units = tracing.metric_units()
    units[SEARCH_ERROR_RATE] = "ratio"
    for name in TRACED_END_TO_END:
        units[f"traced.{name}"] = END_TO_END[name]
    return units


def in_result_line(name):
    """Per-layer metrics that go into the result line: all but the times of
    functions some workload never calls, which would read 0 on every run of
    that workload.  Those times are still printed and written to the
    report file."""
    import tracing
    function, _, stat = name.rpartition(".")
    return stat not in ("s", "self_s") or function in tracing.CALLED_BY_ALL


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def in_child(fn):
    """``fn()`` computed in a forked child and returned through a pipe, so
    that its memory stays out of this process's ``ru_maxrss`` and its calls
    out of this process's spans."""
    sys.stdout.flush()
    sys.stderr.flush()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with os.fdopen(write, "wb") as out:
                pickle.dump(fn(), out)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read, "rb") as inp:
        data = inp.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"reference answers failed (wait status {status})")
    return pickle.loads(data)


def setup_round(workload):
    """One timed set-up round, started and left with a collected heap."""
    gc.collect()
    start = perf_counter()
    workload.setup()
    elapsed = perf_counter() - start
    gc.collect()
    return elapsed


def measure(workload, seconds, tracer):
    """Set up, run the closed loop and check; returns the raw results.

    An untraced run times whole passes over a fixed pool of ``POOL``
    inputs, always in the same order: ``PASSES`` passes, and more only
    while ``seconds`` have not passed.  A calibration unit runs right
    after every operation, and each operation's time is scaled to the
    reference speed by the units around it (calibrate.py).  Each input's
    latency is the best of its passes: the drift that scaling leaves only
    ever adds time.  The run sets up ``SETUP_ROUNDS`` times: once before
    the first operation, and again at even steps of the first
    ``PASSES`` passes, so that the median round samples the host over
    the same span as the operations; set-up is scaled by all the run's
    units.  A later round rebuilds the same machines from the same files.
    A traced run sets up once and makes one pass over the first
    ``WINDOW`` inputs of the pool, so that its counts repeat.

    Returns the wall and the scaled times of the set-up rounds, the
    scaled and the wall latency of each input that ran, the operations
    attempted, the failures and the calibration units."""
    traced = tracer is not None
    rounds = 1 if traced else workload.SETUP_ROUNDS
    setups = [setup_round(workload)]
    workload.expected = in_child(workload.reference)
    pool = [workload.next_input(k) for k in
            range(workload.WINDOW if traced else workload.POOL)]
    planned = len(pool) * (1 if traced else workload.PASSES)
    setup_at = {planned * r // rounds for r in range(1, rounds)}

    timed, units, failures = [], [], []
    attempted = 0
    loop_start = perf_counter()
    while attempted < planned or not traced and (
            attempted % len(pool) or perf_counter() - loop_start < seconds):
        if attempted in setup_at:
            paused = perf_counter()
            setups.append(setup_round(workload))
            loop_start += perf_counter() - paused
        k = attempted % len(pool)
        inp = pool[k]
        if traced:
            tracer.op = k
        error = None
        start = perf_counter()
        try:
            result = workload.op(inp)
        except Exception as exc:  # an operation failure is data, not a crash
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        units.append(calibrate.unit())
        attempted += 1
        if error is None:
            timed.append((len(units) - 1, k, elapsed))
            error = workload.check(k, inp, result)
        if error is not None:
            failures.append({"op": attempted - 1, "input": repr(inp),
                             "error": error})

    factors = calibrate.local_factors(units)
    scaled, wall = {}, {}
    for i, k, elapsed in timed:
        scaled[k] = min(scaled.get(k, elapsed * factors[i]),
                        elapsed * factors[i])
        wall[k] = min(wall.get(k, elapsed), elapsed)
    run_factor = calibrate.factor(units)
    return (setups, [elapsed * run_factor for elapsed in setups],
            list(scaled.values()), list(wall.values()), attempted, failures,
            units)


def timings(setup_times, latencies):
    ordered = sorted(latencies)
    timed = sum(latencies)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(latencies) / timed if timed else 0.0,
        "latency_p50_ms": 1000 * statistics.median(ordered) if ordered else 0.0,
        "latency_p95_ms": 1000 * percentile(ordered, 0.95) if ordered else 0.0,
    }


def end_to_end(setup_times, latencies, out_size):
    return {
        **timings(setup_times, latencies),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "out_states": out_size[0],
        "out_arcs": out_size[1],
    }


def host():
    return (f"{platform.node()} {platform.machine()} "
            f"{os.cpu_count()} cpus {platform.platform()}")


def report(args, values, units, line, attempted, failures, n_timed, extra,
           wall):
    """Print the metrics, write the report file, print the result line.
    ``n_timed`` is the number of pool inputs with a timed latency and
    ``wall`` the timings before scaling."""
    python = platform.python_version()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}")
    print(f"  python {python}; host {host()}; one closed-loop client")
    print("  times are scaled to the reference speed of calibrate.py; "
          "wall.* are as measured")
    for name, value in values.items():
        print(f"  {metric_line(name, value, units[name])}")
    for text in extra:
        print(f"  {text}")
    fail_rate = len(failures) / attempted
    print(f"  {metric_line('fail_rate', fail_rate, 'ratio')} "
          f"({len(failures)} of {attempted} operations; {n_timed} inputs "
          f"timed, {attempted / max(n_timed, 1):.2f} passes)")
    for failure in failures[:MAX_FAILURES_LISTED]:
        print(f"  FAILED op {failure['op']}: {failure['error']} "
              f"on input {failure['input']}")
    if len(failures) > MAX_FAILURES_LISTED:
        print(f"  ... {len(failures) - MAX_FAILURES_LISTED} more failures "
              "in the report file")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "seconds": args.seconds,
            "python": python, "host": host(),
            "attempted": attempted, "failed": len(failures),
            "fail_rate": fail_rate, "failures": failures, "wall": wall,
            "metrics": {name: {"value": value, "unit": units[name],
                               "exact": exact(units[name])}
                        for name, value in values.items()},
        }, handle, indent=1)
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in line},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("rules", "decode", "lattice"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wfst" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'wfst'} not found; this benchmark measures "
              "the wfst sources of the checkout it sits in", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wfst
    if Path(wfst.__file__).resolve().parent != SRC / "wfst":
        print(f"perfbench: imported wfst from {wfst.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        if tracer is not None:
            tracer.install()
        try:
            setups, scaled_setups, latencies, wall_latencies, attempted, \
                failures, cal_units = measure(workload, args.seconds, tracer)
        except workloads.SetupError as exc:
            print(f"perfbench: set-up failed for {args.workload} seed "
                  f"{args.seed}: {exc}; nothing was measured",
                  file=sys.stderr)
            return 1
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    e2e = end_to_end(scaled_setups, latencies, workload.out_size())
    wall = timings(setups, wall_latencies)
    wall["calibration_unit_ms"] = 1000 * statistics.median(cal_units)
    extra = [metric_line(f"wall.{name}", value, END_TO_END.get(name, "ms"))
             + " (not scaled)" for name, value in wall.items()]
    search_error_rate = None
    if hasattr(workload, "search_error_rate"):
        search_error_rate = workload.search_error_rate(attempted)
        text = metric_line("search_error_rate", search_error_rate, "ratio")
        extra.append(f"{text} (beam {workload.BEAM}, first "
                     f"{min(attempted, workload.WINDOW)} utterances)")
    if tracer is None:
        values, units = e2e, END_TO_END
        line = list(values)
    else:
        units = per_layer_units()
        values = tracer.metrics()
        values[SEARCH_ERROR_RATE] = search_error_rate or 0.0
        for name in TRACED_END_TO_END:
            values[f"traced.{name}"] = e2e[name]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(
            OUT_DIR / f"{args.workload}-seed{args.seed}-spans.tsv")
        line = [name for name in values if in_result_line(name)]
    report(args, values, units, line, attempted, failures, len(latencies),
           extra, wall)
    return 0


if __name__ == "__main__":
    sys.exit(main())
