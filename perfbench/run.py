#!/usr/bin/env python3
"""plmanifold benchmark: one run of one workload.

    python3 perfbench/run.py --workload fit-large --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
Workloads: fit-large, campaign-cv, cli-fit (see perfbench/README.md).
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it name every metric with its unit, and the environment.  A full
record of the run is written under ``.perfbench/results/``.

Every process is started here one at a time, with BLAS pinned to
BLAS_THREADS threads: SETUP_REPEATS fresh set-ups (the last one goes on to
measure) give the set-up time as their median.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORKLOADS = ("fit-large", "campaign-cv", "cli-fit")
SETUP_REPEATS = 3
BLAS_THREADS = 1
BUDGET_S = 170.0  # every run ends well inside 180 s


def _parse() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="Run one plmanifold benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args()


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _worker(args, work: Path, deadline: float, setup_only: bool) -> dict:
    """Start one worker and return its JSON result; exit on any failure."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--deadline", repr(deadline),
           "--work", str(work), "--src", str(SRC)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE,
                            env=_child_env(), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"perfbench: {args.workload} worker ran out of time")
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {args.workload} worker failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def _code_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "plmanifold").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(workload: str, setups: list[float], result: dict) -> tuple[dict, dict]:
    """Contract metrics, and the per-workload metrics named in README.md."""
    if workload == "cli-fit":
        peak_kb = statistics.median(op["rss_kb"] for op in result["ops"])
    else:
        peak_kb = result["self_rss_kb"]
    metrics = {"op_s": _metric(result["op_s"], "s"),
               "setup_s": _metric(statistics.median(setups), "s"),
               "peak_rss_mb": _metric(peak_kb / 1024.0, "MB")}
    named = {}
    if workload == "fit-large":
        for mode in ("robust", "classical"):
            named[f"fit_{mode}_s"] = _metric(result["seconds"][f"fit_{mode}_s"], "s")
    elif workload == "campaign-cv":
        named["campaign_reps_per_s"] = _metric(1.0 / result["unit_s"], "1/s")
    else:
        named["cli_fit_s"] = _metric(result["unit_s"], "s")
    named["op_s"] = metrics["op_s"]
    named["setup_s"] = metrics["setup_s"]
    named["peak_rss_mb"] = metrics["peak_rss_mb"]
    named["error_rate"] = _metric(result["failed"] / result["attempted"], "ratio")
    return metrics, named


def main() -> int:
    args = _parse()
    started = time.monotonic()
    if not (SRC / "plmanifold" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'plmanifold'}; "
              "run from the root of a plmanifold checkout", file=sys.stderr)
        return 2
    deadline = started + BUDGET_S
    base = ROOT / ".perfbench"
    work = base / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(_worker(args, work, deadline, True)["setup_s"])
        result = _worker(args, work, deadline, False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(result["setup_s"])

    if args.trace:
        metrics, named = result["layers"], result["layers"]
    else:
        metrics, named = _end_to_end(args.workload, setups, result)
    env = {**result["env"], **_code_identity(), "trace": args.trace,
           "seconds": args.seconds, "setup_repeats": len(setups)}
    record = {"workload": args.workload, "env": env, "metrics": named,
              "attempted": result["attempted"], "failed": result["failed"],
              "problems": result["problems"], "setup_s": setups, "ops": result["ops"],
              "op_s": result["op_s"], "unit_s": result["unit_s"],
              "calibration_s": result["calibration_s"],
              "trace_missing": result.get("trace_missing", []),
              "trace_counter_errors": result.get("trace_counter_errors", [])}
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    n_ops = sum(1 for op in result["ops"] if not op["traced"])
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {len(result['ops'])} operations ({n_ops} untraced), "
          f"{len(setups)} set-ups")
    for key, m in named.items():
        print(f"  {key:34s} {m['value']:.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"  check failed: {problem}")
    for missing in record["trace_missing"]:
        print(f"  not traced, function not found: {missing}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
