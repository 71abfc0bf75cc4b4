"""One benchmark process for one workload; run.py starts it.

It imports the package, builds the workload's inputs, does one untimed
warm-up operation and reports its set-up time, counted from ``--t0`` (a
``time.monotonic()`` reading taken by run.py just before the launch).
Unless ``--setup-only`` is given it then runs operations until
``--seconds`` have passed and every input was used, checks each against the
reference, and prints one JSON line.  For an interpreter-bound workload it
also times a calibration loop after each operation and reports op_s at a
nominal interpreter speed.

With ``--trace 1`` whole passes over the inputs alternate between untraced
and traced, so the tracing overhead is measured on the same inputs, and
fresh-process probes of ``plmanifold --help`` and ``import plmanifold``
follow.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

PROBE_REPEATS = 3
CALIBRATION_REPEATS = 5
# On a shared 2-vCPU VM the interpreter's speed was measured to swing by up
# to 40% within seconds as neighbours load the cores.  An interpreter-bound
# workload's op_s is therefore reported at a nominal speed: seconds x
# NOMINAL_CALIBRATION_S / the run's median calibration loop time.  The same
# scaling did not steady the numpy-bound fit or the CLI child process, so
# their timings stay raw (README.md has the measurements).
NOMINAL_CALIBRATION_S = 0.008


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop that never touches plmanifold.

    It measures how fast the interpreter runs at the moment.
    """
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def per_input_mean(records, value) -> float:
    """Mean over inputs of the median of ``value`` over each input's records,
    so every run weighs the pool's inputs alike."""
    by_input = {}
    for rec in records:
        by_input.setdefault(rec.key, []).append(value(rec))
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def _parse() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--deadline", type=float, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args()


def main() -> int:
    args = _parse()
    import plmanifold

    origin = Path(plmanifold.__file__).resolve()
    if args.src.resolve() not in origin.parents:
        print(f"plmanifold was imported from {origin}, not from {args.src}", file=sys.stderr)
        return 2
    import spans
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    extra = {}
    if cls is workloads.CliFit:
        extra = {"in_process": bool(args.trace), "deadline": args.deadline}
    workload = cls(workloads.pool_order(args.workload, args.seed), args.work, **extra)
    workload.warm_up()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = workloads.load_reference(args.workload)
    tracer = spans.Tracer() if args.trace else None
    calibrate = workload.interpreter_bound
    records, traced, calibration = [], [], [calibration_s()] if calibrate else []
    stop = time.monotonic() + args.seconds
    # Cover every input at least once, and in a traced run at least twice:
    # whole passes over the inputs alternate between untraced and traced.
    passes = 2 if tracer else 1
    inputs = len(workload.order)
    while len(records) < passes * inputs or time.monotonic() < stop:
        trace_this = tracer is not None and (len(records) // inputs) % 2 == 1
        if trace_this:
            tracer.install()
        try:
            rec = workload.op()
        finally:
            if trace_this:
                tracer.uninstall()
        rec.check(reference[rec.key])
        records.append(rec)
        traced.append(trace_this)
        if calibrate:
            calibration.append(calibration_s())

    off = [r for r, t in zip(records, traced) if not t]
    seconds = {name: per_input_mean(off, lambda r: r.seconds[name]) for name in off[0].seconds}
    op_s = workload.op_s(seconds)
    if calibrate:
        op_s *= NOMINAL_CALIBRATION_S / statistics.median(calibration)
    unit_s = per_input_mean(off, lambda r: r.wall_s / r.units)
    result = {
        "setup_s": setup_s,
        "op_s": op_s,
        "unit_s": unit_s,
        "seconds": seconds,
        "calibration_s": calibration,
        "attempted": sum(r.attempted for r in records),
        "failed": sum(r.failed for r in records),
        "problems": [p for r in records for p in r.problems][:20],
        "ops": [{"key": r.key, "units": r.units, "seconds": r.seconds,
                 "rss_kb": r.rss_kb, "traced": t} for r, t in zip(records, traced)],
        "self_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": workloads.environment(args.seed),
    }
    if tracer is not None:
        on = [r for r, t in zip(records, traced) if t]
        child = [sys.executable, "-m", "plmanifold.cli", "--help"]
        startup = [workloads.run_child(child, 60.0)[0] for _ in range(PROBE_REPEATS)]
        child = [sys.executable, "-c", "import plmanifold"]
        imports = [workloads.run_child(child, 60.0)[0] for _ in range(PROBE_REPEATS)]
        result["layers"] = spans.layer_metrics(
            tracer.spans, sum(r.units for r in on),
            per_input_mean(on, lambda r: r.wall_s / r.units), unit_s,
            sum(r.wall_s for r in on), startup, imports)
        result["trace_missing"] = tracer.missing
        result["trace_counter_errors"] = sorted(tracer.counter_errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
