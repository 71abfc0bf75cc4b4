"""Record the outputs of every pool entry of every workload in reference.json.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

Run it from the root of a checkout, at the commit whose outputs the
benchmark should accept; it records that commit.  The CLI workload is driven
in-process here, through the same ``cli.main`` a ``plmanifold fit`` process
runs.  It stops if any pool entry fails, since every operation of the
benchmark must succeed on the reference commit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads


def main() -> int:
    root = Path.cwd()
    work = root / ".perfbench" / "make-reference"
    work.mkdir(parents=True, exist_ok=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                            text=True, check=False).stdout.strip() or None
    recorded = {"commit": commit, "rtol": workloads.RTOL, "atol": workloads.ATOL,
                "workloads": {}}
    try:
        for name, cls in workloads.WORKLOADS.items():
            base, size = workloads.POOLS[name]
            extra = {"in_process": True} if cls is workloads.CliFit else {}
            entries = {}
            for seed in range(base, base + size):
                rec = cls([seed], work, **extra).op()
                if rec.errors:
                    print(f"{name} seed {seed} failed: {rec.errors}", file=sys.stderr)
                    return 1
                entries[str(seed)] = rec.outputs
                print(f"{name} {seed}: {rec.wall_s:.2f} s", flush=True)
            recorded["workloads"][name] = entries
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
