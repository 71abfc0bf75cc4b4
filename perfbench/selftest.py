"""Self-test of the benchmark's output check and of its refusal to run without
the package.

    python3 perfbench/selftest.py

Run it from the root of a checkout.  It copies perfbench/ to
.perfbench/selftest-perturbed/perfbench and moves every value of the copy's
reference.json by PERTURB times max(1, |value|): far beyond the check's
tolerance, far below what a changed estimator moves.  For every workload it
runs one short benchmark from that copy, with the checkout's root as the
working directory, and requires every operation to fail, so error_rate is 1.
It then copies BENCHMARK.json and perfbench/ alone into an empty directory
under .perfbench/ and requires run.py to exit non-zero there without
printing a result.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
PERTURB = 1e-4


def _run(cwd: Path, bench: Path, workload: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _perturb(node):
    if isinstance(node, dict):
        return {key: _perturb(value) for key, value in node.items()}
    if isinstance(node, list):
        return [v + PERTURB * max(1.0, abs(v)) for v in node]
    return node


def _copy(dest: Path) -> Path:
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    return dest / "perfbench"


def main() -> int:
    root = Path.cwd()
    ok = True
    perturbed = root / ".perfbench" / "selftest-perturbed"
    try:
        bench = _copy(perturbed)
        recorded = json.loads((bench / "reference.json").read_text(encoding="utf-8"))
        recorded["workloads"] = _perturb(recorded["workloads"])
        (bench / "reference.json").write_text(json.dumps(recorded), encoding="utf-8")
        for workload in WORKLOADS:
            done = _run(root, bench, workload)
            last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
            result = json.loads(last)
            passed = (done.returncode == 0 and result.get("attempted", 0) >= 1
                      and result["failed"] == result["attempted"] and not result["correct"])
            ok &= passed
            print(f"{'PASS' if passed else 'FAIL'} perturbed reference, {workload}: "
                  f"{result.get('failed')} of {result.get('attempted')} operations failed")
    finally:
        shutil.rmtree(perturbed, ignore_errors=True)

    bare = root / ".perfbench" / "selftest-bare"
    try:
        _copy(bare)
        shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = _run(bare, Path("perfbench"), WORKLOADS[0])
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    passed = done.returncode != 0 and not done.stdout.strip()
    ok &= passed
    print(f"{'PASS' if passed else 'FAIL'} without the package: exit {done.returncode}, "
          f"{len(done.stdout.strip().splitlines())} lines on standard output")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
