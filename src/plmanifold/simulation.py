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

import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bandwidth import select_bandwidth
from .errors import CampaignError, ConfigError, PLMError
from .manifold import Manifold, cylinder_coords
from .plm import PLMDataset, fit
from .robust_linear import GMConfig
from .smoother import LocalFitConfig, ScoreFunction

CONTAMINATIONS = ("C0", "C1", "C2")
BETA_TRUE = 2.0
X_NOISE_SD = 0.5

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
        if not self.modes or any(m not in ("classical", "robust") for m in self.modes):
            raise ConfigError("modes must be a nonempty subset of classical/robust")
        if self.bandwidth is not None and self.cv_grid is not None:
            raise ConfigError("give either a fixed bandwidth or a CV grid, not both")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


@dataclass
class GeneratedSample:
    dataset: PLMDataset
    g_true: np.ndarray
    beta_true: float
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
    dataset = PLMDataset(y, x[:, None], t, Manifold.cylinder((0.0, 1.0)))
    return GeneratedSample(dataset, g_true, BETA_TRUE, angles, heights, mask)


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
    summary: dict = field(default_factory=dict)


@dataclass
class SimulationReport:
    config: SimulationConfig
    results: dict[str, ModeResults]
    failures: list[dict]
    beta_true: float = BETA_TRUE


def _summarize(beta: np.ndarray, mse_g: np.ndarray, beta_true: float) -> dict:
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
        "mse_beta": float(np.mean((b - beta_true) ** 2)),
        "mean_mse_g": float(np.mean(mse_g[ok])),
    }


def run_campaign(config: SimulationConfig, smoother: LocalFitConfig | None = None,
                 gm: GMConfig | None = None,
                 cv_score: ScoreFunction | None = None) -> SimulationReport:
    """Run the Monte Carlo study described by ``config``.

    Per replication and mode: draw a sample, pick the bandwidth (fixed or by
    cross-validation), fit, and record the coefficient and the in-sample
    mean squared error of the fitted g.  Failed replications are logged and
    excluded from the summaries; more than 10% failures in any mode raises
    CampaignError.
    """
    reps = config.replications

    def one(rep: int) -> dict:
        rng = replication_rng(config.master_seed, rep)
        sample = generate_sample(config.n, config.contamination, rng)
        out = {}
        for mode in config.modes:
            try:
                if config.bandwidth is not None:
                    h = float(config.bandwidth)
                else:
                    h, _ = select_bandwidth(sample.dataset, config.cv_grid, mode=mode,
                                            smoother=smoother, gm=gm, cv_score=cv_score)
                fitted = fit(sample.dataset, h, mode=mode, smoother=smoother, gm=gm)
                mse_g = float(np.mean((fitted.g_hat - sample.g_true) ** 2))
                out[mode] = (float(fitted.beta[0]), mse_g, float(h), None)
            except PLMError as err:
                out[mode] = (np.nan, np.nan, np.nan, f"{type(err).__name__}: {err}")
        return out

    if config.workers == 1:
        rows = [one(r) for r in range(reps)]
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(one, range(reps)))

    results: dict[str, ModeResults] = {}
    failures: list[dict] = []
    for mode in config.modes:
        beta = np.array([rows[r][mode][0] for r in range(reps)])
        mse_g = np.array([rows[r][mode][1] for r in range(reps)])
        hs = np.array([rows[r][mode][2] for r in range(reps)])
        for r in range(reps):
            if rows[r][mode][3] is not None:
                failures.append({"replication": r, "mode": mode,
                                 "error": rows[r][mode][3]})
        res = ModeResults(beta, mse_g, hs)
        res.summary = _summarize(beta, mse_g, BETA_TRUE)
        results[mode] = res

    worst = max(results[m].summary.get("n_failed", 0) for m in config.modes)
    if worst > 0.10 * reps:
        raise CampaignError(
            f"{worst} of {reps} replications failed (>10%); "
            f"first failure: {failures[0]['error']}"
        )
    return SimulationReport(config, results, failures)


def export_boxplot_data(report: SimulationReport) -> list[tuple]:
    """One (mode, contamination, replication, beta_hat) row per successful fit."""
    rows = []
    cont = report.config.contamination
    for mode in report.config.modes:
        beta = report.results[mode].beta
        for r in range(report.config.replications):
            if np.isfinite(beta[r]):
                rows.append((mode, cont, r, float(beta[r])))
    return rows


def boxplot_csv(report: SimulationReport) -> str:
    """CSV serialization of the boxplot rows (fixed header, LF endings)."""
    buf = io.StringIO()
    buf.write(BOXPLOT_HEADER + "\n")
    for mode, cont, rep, beta in export_boxplot_data(report):
        buf.write(f"{mode},{cont},{rep},{beta!r}\n")
    return buf.getvalue()


def sample_to_csv(sample: GeneratedSample, path) -> None:
    """Write a generated sample in the CLI ingestion layout.

    Columns: y, x1..xp, angle_deg, height.  Full-precision floats so a
    height_raw re-ingest reproduces the dataset.
    """
    p = sample.dataset.p
    header = ["y"] + [f"x{j + 1}" for j in range(p)] + ["angle_deg", "height"]
    deg = np.degrees(sample.angles)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(sample.dataset.n):
            cells = [repr(float(sample.dataset.y[i]))]
            cells += [repr(float(sample.dataset.x[i, j])) for j in range(p)]
            cells += [repr(float(deg[i])), repr(float(sample.heights[i]))]
            fh.write(",".join(cells) + "\n")
