"""Inputs, operations and output checks of the three benchmark workloads.

Inputs come from a fixed pool per workload: each pool entry is a
``plmanifold`` generator seed, and the run's ``--seed`` orders the pool.
Operations walk that order and wrap around it; every run covers the whole
pool, so runs differ in order and not in the inputs they average over.  The outputs
of every pool entry were recorded at a known commit in ``reference.json``
(see make_reference.py), so every operation of every run is checked against
them.  The program receives only the generated inputs.

An operation's time covers the call into the program and nothing else;
checking happens after the clock stops.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import plmanifold
from plmanifold import cli, plm, simulation

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

FIT_N = 2000
FIT_CONTAMINATION = "C1"
FIT_BANDWIDTH = 0.8
FIT_MODES = ("robust", "classical")
GHAT_PROBES = 8

CAMPAIGN_N = 200
CAMPAIGN_CONTAMINATION = "C1"
CAMPAIGN_MODES = ("robust", "classical")
CAMPAIGN_CHUNK = 4  # replications per run_campaign call

CLI_N = 600
CLI_CONTAMINATION = "C2"
CLI_MODES = ("robust", "classical")
CLI_MAP = "response=y,linear=x1,manifold=cylinder:angle_deg=angle_deg,height_raw=height"
CLI_FLAGS = ("--mode", "both", "--score", "bisquare:4.685", "--w1", "huber:q95",
             "--cv-grid", "0.4,0.6,0.8,1.2,1.8", "--null", "2")

# workload -> (first generator seed, pool size)
POOLS = {"fit-large": (10_000, 4), "campaign-cv": (20_000, 16), "cli-fit": (30_000, 4)}

# Admits reordered floating-point sums, a sparse window path and an exact
# Huber root (local estimates move by about 1e-10, coefficients by less
# than 1e-8); a changed score constant or estimator moves them by 1e-4 and
# more.
RTOL = 1e-6
ATOL = 1e-6


def pool_order(workload: str, seed: int) -> list[int]:
    """Generator seeds of the workload's pool, in the order ``seed`` gives."""
    base, size = POOLS[workload]
    return [base + i for i in random.Random(seed).sample(range(size), size)]


def load_reference(workload: str) -> dict:
    """Recorded outputs by generator seed."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        entries = json.load(fh)["workloads"][workload]
    return {int(seed): items for seed, items in entries.items()}


def _close(got, want) -> bool:
    return len(got) == len(want) and all(
        np.isfinite(g) and abs(g - w) <= ATOL + RTOL * abs(w) for g, w in zip(got, want))


@dataclass
class OpRecord:
    """One measured operation: its timings, its units of work and its check."""

    key: int  # generator seed of the input, which keys the reference
    seconds: dict  # name -> seconds, timed around the program call only
    units: int  # fit pairs, replications or CLI fits
    outputs: dict  # item -> {name -> [float]}
    errors: dict = field(default_factory=dict)  # item -> message
    rss_kb: int | None = None
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.seconds.values())

    def check(self, reference: dict) -> None:
        """Count every reference item as attempted and each mismatch as failed."""
        self.attempted = len(reference)
        for item, want in reference.items():
            got = self.outputs.get(item)
            if item in self.errors or got is None:
                problem = self.errors.get(item, "no output")
            else:
                bad = [name for name in want if not _close(got.get(name, []), want[name])]
                problem = f"mismatch in {', '.join(bad)}" if bad else None
            if problem:
                self.failed += 1
                self.problems.append(f"{item}: {problem}")


def _error(err: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(err), err)).strip()


def ghat_digest(g: np.ndarray) -> list[float]:
    """g_hat at evenly spaced sample indices, its mean and its RMS."""
    idx = np.linspace(0, g.size - 1, GHAT_PROBES).astype(int)
    return [float(v) for v in g[idx]] + [float(np.mean(g)), float(np.sqrt(np.mean(g * g)))]


class _Inputs:
    """Walks a workload's generator seeds in order, wrapping around."""

    units = 1  # workload units per operation
    # True where the operation is many small interpreter-bound calls; the
    # worker then reports op_s at a nominal interpreter speed (README.md).
    interpreter_bound = False

    def __init__(self, order: list[int]):
        self.order = order
        self.next = 0

    def op_s(self, seconds: dict) -> float:
        """The contract's op_s from a run's timings of each part of an operation."""
        return sum(seconds.values()) / self.units

    def take(self) -> int:
        seed = self.order[self.next % len(self.order)]
        self.next += 1
        return seed


class FitLarge(_Inputs):
    """n = 2000 cylinder samples, each fitted at h = 0.8 robustly and classically."""

    name = "fit-large"

    def __init__(self, order: list[int], work: Path):
        super().__init__(order)
        self.datasets = {seed: simulation.generate_sample(
            FIT_N, FIT_CONTAMINATION, simulation.replication_rng(seed, 0)).dataset
            for seed in order}

    def warm_up(self) -> None:
        plm.fit(self.datasets[self.order[0]], FIT_BANDWIDTH, mode="classical")

    def op_s(self, seconds: dict) -> float:
        """Geometric mean of the robust and the classical fit time.  The
        classical fit takes a tenth of the robust one; here a change in
        either moves op_s by the same share."""
        return math.sqrt(seconds["fit_robust_s"] * seconds["fit_classical_s"])

    def op(self) -> OpRecord:
        seed = self.take()
        rec = OpRecord(seed, {}, self.units, {})
        for mode in FIT_MODES:
            start = time.perf_counter()
            try:
                fitted = plm.fit(self.datasets[seed], FIT_BANDWIDTH, mode=mode)
            except Exception as err:  # a failed operation is counted, not fatal
                rec.errors[mode] = _error(err)
                fitted = None
            rec.seconds[f"fit_{mode}_s"] = time.perf_counter() - start
            if fitted is not None:
                rec.outputs[mode] = {"beta": [float(b) for b in fitted.beta],
                                     "g_digest": ghat_digest(fitted.g_hat)}
        return rec


class CampaignCV(_Inputs):
    """run_campaign at n = 200 on C1, both modes, default CV grid, one worker.

    Each operation is one campaign of CAMPAIGN_CHUNK replications under the
    next generator seed.
    """

    name = "campaign-cv"
    units = CAMPAIGN_CHUNK
    interpreter_bound = True

    def __init__(self, order: list[int], work: Path):
        super().__init__(order)

    def _config(self, master_seed: int, replications: int):
        return simulation.SimulationConfig(
            n=CAMPAIGN_N, replications=replications,
            contamination=CAMPAIGN_CONTAMINATION, modes=CAMPAIGN_MODES,
            master_seed=master_seed, workers=1)

    def warm_up(self) -> None:
        simulation.run_campaign(self._config(self.order[-1], 1))

    def op(self) -> OpRecord:
        master_seed = self.take()
        rec = OpRecord(master_seed, {}, self.units, {})
        start = time.perf_counter()
        try:
            report = simulation.run_campaign(self._config(master_seed, CAMPAIGN_CHUNK))
        except Exception as err:  # a failed operation is counted, not fatal
            report = None
            rec.errors.update({f"r{r}": _error(err) for r in range(CAMPAIGN_CHUNK)})
        rec.seconds["campaign_s"] = time.perf_counter() - start
        if report is not None:
            for failure in report.failures:
                rec.errors[f"r{failure['replication']}"] = failure["error"]
            for r in range(CAMPAIGN_CHUNK):
                rec.outputs[f"r{r}"] = {
                    f"{m}.{key}": [float(getattr(report.results[m], attr)[r])]
                    for m in CAMPAIGN_MODES
                    for key, attr in (("beta", "beta"), ("h", "bandwidth"))}
        return rec


class CliFit(_Inputs):
    """`plmanifold fit` on 600-row CSVs, one written from each C2 sample.

    By default each operation is a fresh interpreter process, timed from
    launch to exit, with its own peak memory.  ``in_process`` drives
    ``cli.main`` with the same arguments inside this process instead, which
    is how the traced run reaches the CLI's layers.
    """

    name = "cli-fit"

    def __init__(self, order: list[int], work: Path, in_process: bool = False,
                 deadline: float | None = None):
        super().__init__(order)
        self.work = work
        self.in_process = in_process
        self.deadline = deadline
        self.report = work / "report.json"
        self.ghat = work / "report_ghat.csv"
        for seed in order:
            sample = simulation.generate_sample(
                CLI_N, CLI_CONTAMINATION, simulation.replication_rng(seed, 0))
            simulation.sample_to_csv(sample, self._csv(seed))

    def _csv(self, seed: int) -> Path:
        return self.work / f"input-{seed}.csv"

    def argv(self, seed: int) -> list[str]:
        return ["fit", "--input", str(self._csv(seed)), "--map", CLI_MAP, *CLI_FLAGS,
                "--out", str(self.report)]

    def warm_up(self) -> None:
        run_child([sys.executable, "-m", "plmanifold.cli", "--help"], self._timeout())

    def _timeout(self) -> float:
        if self.deadline is None:
            return 170.0
        return max(1.0, self.deadline - time.monotonic())

    def op(self) -> OpRecord:
        for path in (self.report, self.ghat):
            path.unlink(missing_ok=True)
        seed = self.take()
        rec = OpRecord(seed, {}, self.units, {})
        if self.in_process:
            sink = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    cli.main(self.argv(seed), prog_name="plmanifold", standalone_mode=False)
                code, message = 0, ""
            except SystemExit as err:
                code, message = err.code, sink.getvalue()
            except Exception as err:  # a failed operation is counted, not fatal
                code, message = None, _error(err)
            rec.seconds["cli_fit_s"] = time.perf_counter() - start
        else:
            cmd = [sys.executable, "-m", "plmanifold.cli", *self.argv(seed)]
            seconds, code, rec.rss_kb, message = run_child(cmd, self._timeout())
            rec.seconds["cli_fit_s"] = seconds
        if code != 0:
            rec.errors["report"] = f"exit code {code}: {message[-500:]}"
            return rec
        try:
            with open(self.report, encoding="utf-8") as fh:
                report = json.load(fh)
            with open(self.ghat, encoding="utf-8") as fh:
                ghat_rows = sum(1 for _ in fh) - 1
            outputs = {"ghat_rows": [float(ghat_rows)]}
            for m in CLI_MODES:
                entry = report[m]
                outputs[f"{m}.beta"] = entry["beta"]
                outputs[f"{m}.se"] = entry["se"]
                outputs[f"{m}.ci"] = [v for pair in entry["ci"] for v in pair]
                outputs[f"{m}.h"] = [entry["h"]]
            rec.outputs["report"] = outputs
        except (OSError, ValueError, KeyError, TypeError) as err:
            rec.errors["report"] = _error(err)
        return rec


def run_child(cmd: list[str], timeout: float) -> tuple[float, int, int, str]:
    """Run one child process to its end: (seconds, exit code, peak RSS in KB,
    stderr tail).  The child is killed after ``timeout`` seconds."""
    with open(os.devnull, "wb") as devnull, \
            tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=devnull, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read()[-2000:].decode("utf-8", "replace")
    return seconds, proc.returncode, usage.ru_maxrss, tail


WORKLOADS = {cls.name: cls for cls in (FitLarge, CampaignCV, CliFit)}


def environment(seed: int) -> dict:
    """What a result depends on besides the code under test."""
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": getattr(plmanifold, "BACKEND", None),
        "seed": seed,
    }
