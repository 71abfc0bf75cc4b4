"""Monte Carlo harness: cylinder data generator, contaminations, campaign driver.

The generator draws manifold covariates uniformly on the unit cylinder of
height (0, 1), a single Euclidean covariate x = sin(2 s) + noise, and the
response y = 2 x + (t1 + t2 - t3)^2 + error.  Error contaminations:

    C0: N(0, 1)
    C1: 0.9 N(0, 1) + 0.1 N(0, 25)      (variance inflation)
    C2: 0.9 N(0, 1) + 0.1 N(5, 0.25)    (asymmetric shift)

Normal parameters are (mean, variance).  The covariate noise sd is
``X_NOISE_SD`` = 0.5, which gives the regression coefficient a Monte Carlo
standard deviation near 0.14 at n = 200.  Replication r draws from a
stream derived from (master_seed, r), so results are independent of
execution order and worker count.
"""

from __future__ import annotations

import csv
import functools
import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bandwidth import check_choice, default_grid, select_bandwidth
from .errors import CampaignError, ConfigError, PLMError
from .manifold import Manifold, cylinder_coords
from .plm import MODES, PLMDataset, fit
from .robust_linear import GMConfig
from .smoother import ScoreFunction

CONTAMINATIONS = ("C0", "C1", "C2")
BETA_TRUE = 2.0
X_NOISE_SD = 0.5
_CYLINDER = Manifold.cylinder()

BOXPLOT_HEADER = "mode,contamination,replication,beta_hat"


@dataclass(frozen=True)
class SimulationConfig:
    n: int = 200
    replications: int = 100
    contamination: str = "C0"
    bandwidth: float | None = None
    cv_grid: tuple[float, ...] | None = None
    modes: tuple[str, ...] = ("classical", "robust")
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.n < 20:
            raise ConfigError("need n >= 20 per replication")
        if self.replications < 1:
            raise ConfigError("need at least one replication")
        if self.contamination not in CONTAMINATIONS:
            raise ConfigError(f"contamination must be one of {CONTAMINATIONS}")
        if not self.modes or any(m not in MODES for m in self.modes):
            raise ConfigError("modes must be a nonempty subset of classical/robust")
        check_choice(_CYLINDER, self.bandwidth, self.cv_grid)
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


@dataclass
class GeneratedSample:
    dataset: PLMDataset
    g_true: np.ndarray
    angles: np.ndarray
    heights: np.ndarray
    contaminated: np.ndarray


def generate_sample(n: int, contamination: str = "C0", rng=None) -> GeneratedSample:
    """One synthetic sample from the cylinder model, with the true g values."""
    if contamination not in CONTAMINATIONS:
        raise ValueError(f"contamination must be one of {CONTAMINATIONS}")
    rng = np.random.default_rng(rng)
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    heights = rng.uniform(0.0, 1.0, n)
    t = cylinder_coords(angles, heights)
    x = np.sin(2.0 * heights) + rng.normal(0.0, X_NOISE_SD, n)
    if contamination == "C0":
        eps = rng.normal(0.0, 1.0, n)
        mask = np.zeros(n, dtype=bool)
    else:
        mask = rng.random(n) < 0.1
        core = rng.normal(0.0, 1.0, n)
        tail = rng.normal(0.0, 5.0, n) if contamination == "C1" else rng.normal(5.0, 0.5, n)
        eps = np.where(mask, tail, core)
    g_true = (t[:, 0] + t[:, 1] - t[:, 2]) ** 2
    y = BETA_TRUE * x + g_true + eps
    dataset = PLMDataset(y, x[:, None], t, _CYLINDER)
    return GeneratedSample(dataset, g_true, angles, heights, mask)


def replication_rng(master_seed: int, replication: int) -> np.random.Generator:
    """Deterministic per-replication stream, independent of execution order."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(replication,))
    )


@dataclass
class ModeResults:
    beta: np.ndarray
    mse_g: np.ndarray
    bandwidth: np.ndarray
    summary: dict


@dataclass
class SimulationReport:
    config: SimulationConfig
    results: dict[str, ModeResults]
    failures: list[dict]


def _summarize(beta: np.ndarray, mse_g: np.ndarray) -> dict:
    ok = np.isfinite(beta)
    b = beta[ok]
    n_ok = int(b.size)
    if n_ok == 0:
        return {"n_used": 0, "n_failed": int(beta.size)}
    mean = float(np.mean(b))
    sd = float(np.std(b, ddof=1)) if n_ok > 1 else 0.0
    return {
        "n_used": n_ok,
        "n_failed": int(beta.size - n_ok),
        "mean_beta": mean,
        "sd_beta": sd,
        "mse_beta": float(np.mean((b - BETA_TRUE) ** 2)),
        "mean_mse_g": float(np.mean(mse_g[ok])),
    }


def _replicate(config: SimulationConfig, local_score: ScoreFunction | None,
               gm: GMConfig | None, rep: int) -> dict[str, tuple]:
    """Replication ``rep``: draw its sample and, per mode, pick h (fixed or
    by cross-validation) and fit.  Returns each mode's (beta, mse_g, h, error)
    record, mse_g the in-sample error of g_hat; a failure is NaNs and its text."""
    sample = generate_sample(config.n, config.contamination,
                             replication_rng(config.master_seed, rep))
    grid = config.cv_grid
    if grid is None and config.bandwidth is None:  # one default grid for every mode
        grid = default_grid(sample.dataset)
    out = {}
    for mode in config.modes:
        try:
            if config.bandwidth is not None:
                h = float(config.bandwidth)
            else:
                h, _ = select_bandwidth(sample.dataset, grid, mode=mode,
                                        local_score=local_score, gm=gm)
            fitted = fit(sample.dataset, h, mode=mode, local_score=local_score, gm=gm)
            mse_g = float(np.mean((fitted.g_hat - sample.g_true) ** 2))
            out[mode] = (float(fitted.beta[0]), mse_g, float(h), None)
        except PLMError as err:
            out[mode] = (np.nan, np.nan, np.nan, f"{type(err).__name__}: {err}")
    return out


def run_campaign(config: SimulationConfig, local_score: ScoreFunction | None = None,
                 gm: GMConfig | None = None) -> SimulationReport:
    """Run the Monte Carlo study described by ``config``: ``_replicate`` for
    every replication, serially with one worker and on a thread pool with
    more; the replication threads share the smoother's one helper pool
    (`smoother.smooth_columns`).  Failed replications are logged and
    excluded from the summaries;
    more than 10% failures in any mode raises CampaignError.
    """
    reps = config.replications
    replicate = functools.partial(_replicate, config, local_score, gm)
    if config.workers == 1:
        rows = [replicate(r) for r in range(reps)]
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(replicate, range(reps)))

    results: dict[str, ModeResults] = {}
    failures: list[dict] = []
    for mode in config.modes:
        beta, mse_g, hs, errors = zip(*(row[mode] for row in rows))
        beta, mse_g = np.array(beta), np.array(mse_g)
        results[mode] = ModeResults(beta, mse_g, np.array(hs), _summarize(beta, mse_g))
        failures += [{"replication": r, "mode": mode, "error": error}
                     for r, error in enumerate(errors) if error is not None]

    worst = max(results[m].summary["n_failed"] for m in config.modes)
    if worst > 0.10 * reps:
        raise CampaignError(
            f"{worst} of {reps} replications failed (>10%); "
            f"first failure: {failures[0]['error']}"
        )
    return SimulationReport(config, results, failures)


def boxplot_csv(report: SimulationReport) -> str:
    """CSV of one (mode, contamination, replication, beta_hat) row per
    successful fit (fixed header, LF endings)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(BOXPLOT_HEADER.split(","))
    cont = report.config.contamination
    for mode in report.config.modes:
        beta = report.results[mode].beta.tolist()
        writer.writerows([mode, cont, r, b] for r, b in enumerate(beta) if np.isfinite(b))
    return buf.getvalue()


def sample_to_csv(sample: GeneratedSample, path) -> None:
    """Write a generated sample in the CLI ingestion layout.

    Columns: y, x1..xp, angle_deg, height.  Full-precision floats so a
    height_raw re-ingest reproduces the dataset.
    """
    ds = sample.dataset
    header = ["y"] + [f"x{j + 1}" for j in range(ds.p)] + ["angle_deg", "height"]
    rows = np.column_stack([ds.y, ds.x, np.degrees(sample.angles), sample.heights]).tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
