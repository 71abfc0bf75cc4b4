"""Command-line front end: fit CSV datasets, select bandwidths, run campaigns.

Angles arrive in degrees and are embedded as (cos, sin) internally; the
cylinder height column is min-max normalized into [0.01, 0.99] unless the
mapping uses ``height_raw``, which takes the values as-is (they must already
lie inside the height interval).  Exit codes: 0 success, 2 configuration
errors, 3 numerical failures.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np

from .bandwidth import select_bandwidth
from .errors import ConfigError, InsufficientDataError, PLMError
from .inference import confidence_interval, estimate_covariance, wald_test
from .manifold import Manifold
from .plm import PLMDataset, fit
from .robust_linear import GMConfig, WeightFunction
from .simulation import (
    SimulationConfig,
    boxplot_csv,
    generate_sample,
    replication_rng,
    run_campaign,
    sample_to_csv,
)
from .smoother import LocalFitConfig, ScoreFunction

_TOP_KEYS = ("response", "linear", "manifold")


@dataclass
class ColumnMapping:
    response: str
    linear: list[str]
    manifold_kind: str
    angle_deg: str
    height: str
    height_raw: bool = False


@dataclass
class RunConfig:
    command: str
    input_path: str | None = None
    mapping: ColumnMapping | None = None
    mode: str = "robust"
    score: ScoreFunction = field(default_factory=ScoreFunction.huber)
    w1: WeightFunction = field(default_factory=WeightFunction.one)
    bandwidth: float | None = None
    cv_grid: tuple[float, ...] | None = None
    level: float = 0.95
    null_value: tuple[float, ...] | None = None
    seed: int = 0
    out: str | None = None
    contamination: str = "C0"
    n: int = 200
    replications: int = 100
    workers: int = 1
    export_data: str | None = None


def parse_mapping(text: str) -> ColumnMapping:
    """Parse the --map grammar; see the module docstring for the shape."""
    fields: dict = {"linear": []}
    manifold_kind = None
    manifold_params: dict = {}
    current = None
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" in token:
            key, value = token.split("=", 1)
            key = key.strip()
            if key in _TOP_KEYS:
                current = key
                if key == "response":
                    fields["response"] = value.strip()
                elif key == "linear":
                    fields["linear"].append(value.strip())
                else:
                    if ":" not in value:
                        raise ConfigError(
                            "manifold mapping must look like "
                            "manifold=cylinder:angle_deg=COL"
                        )
                    manifold_kind, rest = value.split(":", 1)
                    manifold_kind = manifold_kind.strip()
                    sub_key, sub_value = rest.split("=", 1)
                    manifold_params[sub_key.strip()] = sub_value.strip()
            elif current == "manifold":
                manifold_params[key] = value.strip()
            else:
                raise ConfigError(f"unknown mapping key {key!r}")
        else:
            if current != "linear":
                raise ConfigError(f"stray mapping token {token!r}")
            fields["linear"].append(token)

    if "response" not in fields:
        raise ConfigError("mapping must name a response column")
    if manifold_kind is None:
        raise ConfigError("mapping must include a manifold specification")
    if manifold_kind != "cylinder":
        raise ConfigError(f"unsupported manifold kind {manifold_kind!r}")
    raw = "height_raw" in manifold_params
    height = manifold_params.get("height_raw" if raw else "height")
    angle = manifold_params.get("angle_deg")
    if angle is None or height is None:
        raise ConfigError(
            "cylinder mapping needs angle_deg=COL and height=COL (or height_raw=COL)"
        )
    return ColumnMapping(fields["response"], fields["linear"], "cylinder",
                         angle, height, raw)


def parse_score(text: str) -> ScoreFunction:
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    if name == "identity":
        return ScoreFunction.identity()
    if name == "huber":
        return ScoreFunction.huber(float(arg)) if arg else ScoreFunction.huber()
    if name == "bisquare":
        return ScoreFunction.bisquare(float(arg)) if arg else ScoreFunction.bisquare()
    raise ConfigError(f"unknown score {text!r}")


def parse_w1(text: str) -> WeightFunction:
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    if name == "one":
        return WeightFunction.one()
    if name == "huber":
        if not arg or arg.strip().lower() == "q95":
            return WeightFunction.huber("q95")
        return WeightFunction.huber(float(arg))
    raise ConfigError(f"unknown w1 weight {text!r}")


def _parse_cell(raw: str | None, column: str, line: int):
    if raw is None:
        return None
    raw = raw.strip()
    if not raw:
        return None
    where = f"in column {column!r} at CSV line {line}"
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"cannot parse numeric value {raw!r} {where}")
    if math.isnan(value):
        return None
    if math.isinf(value):
        raise ConfigError(f"non-finite value {raw!r} {where}")
    return value


def ingest_csv(path, mapping: ColumnMapping) -> PLMDataset:
    """Read a CSV file into a dataset, dropping rows with missing mapped fields.

    An empty or NaN cell counts as missing; an unparseable or infinite cell
    in a mapped column raises ConfigError naming the column and CSV line.

    The affine height normalization is recorded in the dataset metadata
    under ``height_map`` for prediction-time reuse.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read input file: {err}")
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ConfigError("input file is empty (no header row)")
        needed = [mapping.response] + mapping.linear + [mapping.angle_deg, mapping.height]
        missing = [c for c in needed if c not in reader.fieldnames]
        if missing:
            raise ConfigError(f"missing column(s): {', '.join(missing)}")
        kept: list[list[float]] = []
        dropped = 0
        for row in reader:
            cells = [_parse_cell(row.get(c), c, reader.line_num) for c in needed]
            if any(c is None for c in cells):
                dropped += 1
                continue
            kept.append(cells)

    p = len(mapping.linear)
    if len(kept) < p + 2:
        raise InsufficientDataError(
            f"only {len(kept)} usable rows after dropping {dropped}; "
            f"need at least {p + 2}"
        )
    data = np.asarray(kept, dtype=float)
    y = data[:, 0]
    x = data[:, 1:1 + p]
    angle = np.radians(data[:, 1 + p])
    height = data[:, 2 + p]

    meta = {"n_dropped": dropped, "columns": {
        "response": mapping.response, "linear": list(mapping.linear),
        "angle_deg": mapping.angle_deg, "height": mapping.height,
    }}
    if mapping.height_raw:
        meta["height_map"] = None
    else:
        lo, hi = float(height.min()), float(height.max())
        if hi > lo:
            scale = 0.98 / (hi - lo)
            offset = 0.01 - scale * lo
            height = scale * height + offset
        else:
            scale, offset = 0.0, 0.5
            height = np.full_like(height, 0.5)
        meta["height_map"] = {"scale": scale, "offset": offset}

    t = np.column_stack([np.cos(angle), np.sin(angle), height])
    return PLMDataset(y, x, t, Manifold.cylinder((0.0, 1.0)), meta)


def _configs(config: RunConfig):
    return (LocalFitConfig(score=config.score),
            GMConfig(score=config.score, w1=config.w1))


def _fit_one_mode(dataset, mode, config: RunConfig):
    smoother, gm = _configs(config)
    h = (float(config.bandwidth) if config.bandwidth is not None
         else select_bandwidth(dataset, config.cv_grid, mode=mode, smoother=smoother,
                               gm=gm)[0])
    fitted = fit(dataset, h, mode=mode, smoother=smoother, gm=gm)
    cov = estimate_covariance(fitted)
    ci = confidence_interval(fitted.beta, cov, config.level)
    entry = {
        "beta": [float(b) for b in fitted.beta],
        "se": [float(s) for s in cov.se],
        "ci": [[float(lo), float(hi)] for lo, hi in ci],
        "h": float(h),
        "n_dropped": int(dataset.meta.get("n_dropped", 0)),
        "flags": {
            "degenerate_windows": [int(i) for i in fitted.flags["degenerate_windows"]],
            "regression_converged": bool(fitted.flags["regression_converged"]),
            "regression_iterations": int(fitted.flags["regression_iterations"]),
        },
    }
    if config.null_value is not None:
        stat, pval = wald_test(fitted.beta, cov, np.asarray(config.null_value))
        alpha = 1.0 - config.level
        entry["wald"] = {
            "null": [float(v) for v in np.broadcast_to(config.null_value, fitted.beta.shape)],
            "statistic": float(stat),
            "p_value": float(pval),
            "reject": bool(pval < alpha),
            "alpha": alpha,
        }
    return entry, fitted


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ghat_path(out: str) -> Path:
    out = Path(out)
    return out.with_name(out.stem + "_ghat.csv")


def _boxplot_path(out: str) -> Path:
    out = Path(out)
    return out.with_name(out.stem + "_boxplot.csv")


def _modes(config: RunConfig) -> list[str]:
    if config.mode == "both":
        return ["robust", "classical"]
    if config.mode in ("robust", "classical"):
        return [config.mode]
    raise ConfigError(f"mode must be robust, classical or both, got {config.mode!r}")


def _run_fit(config: RunConfig) -> None:
    if not 0.0 < config.level < 1.0:
        raise ConfigError(f"--level must lie in (0, 1), got {config.level!r}")
    p = len(config.mapping.linear)
    if config.null_value is not None and len(config.null_value) not in (1, p):
        raise ConfigError(
            f"--null takes 1 value or one per linear column ({p}), "
            f"got {len(config.null_value)}"
        )
    dataset = ingest_csv(config.input_path, config.mapping)
    report = {}
    fits = {}
    for mode in _modes(config):
        entry, fitted = _fit_one_mode(dataset, mode, config)
        report[mode] = entry
        fits[mode] = fitted
        click.echo(f"{mode}: beta={entry['beta']} se={entry['se']} h={entry['h']:.6g}")
    _write_json(config.out, report)
    gpath = _ghat_path(config.out)
    with open(gpath, "w", encoding="utf-8", newline="\n") as fh:
        names = list(fits)
        fh.write(",".join(["index"] + [f"ghat_{m}" for m in names]) + "\n")
        for i in range(dataset.n):
            cells = [str(i)] + [repr(float(fits[m].g_hat[i])) for m in names]
            fh.write(",".join(cells) + "\n")
    click.echo(f"report written to {config.out}; ghat table to {gpath}")


def _run_cv(config: RunConfig) -> None:
    dataset = ingest_csv(config.input_path, config.mapping)
    report = {}
    for mode in _modes(config):
        smoother, gm = _configs(config)
        h, diagnostics = select_bandwidth(dataset, config.cv_grid, mode=mode,
                                          smoother=smoother, gm=gm)
        report[mode] = {
            "selected_h": float(h),
            "grid": [
                {"h": d.h, "score": d.score if np.isfinite(d.score) else None,
                 "feasible": d.feasible, "reason": d.reason}
                for d in diagnostics
            ],
        }
        click.echo(f"{mode}: selected h={h:.6g}")
    _write_json(config.out, report)
    click.echo(f"diagnostics written to {config.out}")


def _run_simulate(config: RunConfig) -> None:
    sim = SimulationConfig(
        n=config.n,
        replications=config.replications,
        contamination=config.contamination,
        bandwidth=config.bandwidth,
        cv_grid=config.cv_grid,
        modes=tuple(_modes(config)),
        master_seed=config.seed,
        workers=config.workers,
    )
    smoother, gm = _configs(config)
    report = run_campaign(sim, smoother=smoother, gm=gm)
    payload = {
        "contamination": sim.contamination,
        "n": sim.n,
        "replications": sim.replications,
        "seed": sim.master_seed,
        "beta_true": report.beta_true,
        "modes": {m: report.results[m].summary for m in sim.modes},
        "n_failures": len(report.failures),
    }
    _write_json(config.out, payload)
    bpath = _boxplot_path(config.out)
    with open(bpath, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(boxplot_csv(report))
    for m in sim.modes:
        click.echo(f"{m}: {report.results[m].summary}")
    click.echo(f"summary written to {config.out}; boxplot rows to {bpath}")
    if config.export_data:
        sample = generate_sample(sim.n, sim.contamination,
                                 replication_rng(sim.master_seed, 0),
                                 x_noise_sd=sim.x_noise_sd)
        sample_to_csv(sample, config.export_data)
        click.echo(f"replication-0 sample written to {config.export_data}")


def run(config: RunConfig) -> int:
    """Execute a command and map errors to exit codes (0 / 2 / 3)."""
    try:
        if config.command == "fit":
            _run_fit(config)
        elif config.command == "cv":
            _run_cv(config)
        elif config.command == "simulate":
            _run_simulate(config)
        else:
            raise ConfigError(f"unknown command {config.command!r}")
    except (ConfigError, ValueError) as err:
        click.echo(f"error: {type(err).__name__}: {err}", err=True)
        return 2
    except PLMError as err:
        click.echo(f"error: {type(err).__name__}: {err}", err=True)
        return 3
    return 0


def _parse_grid(text: str | None) -> tuple[float, ...] | None:
    if text is None:
        return None
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise click.BadParameter(f"cannot parse grid {text!r}")


def _parse_null(text: str | None) -> tuple[float, ...] | None:
    if text is None:
        return None
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise click.BadParameter(f"cannot parse null value {text!r}")


_common = [
    click.option("--mode", default="robust",
                 type=click.Choice(["robust", "classical", "both"])),
    click.option("--score", "score_text", default="huber:1.345",
                 help="huber:C | bisquare:C | identity"),
    click.option("--w1", "w1_text", default="one", help="one | huber:Q95 | huber:C"),
    click.option("--cv-grid", "cv_grid_text", default=None,
                 help="comma-separated candidate bandwidths"),
    click.option("--out", required=True, type=click.Path()),
]
_bandwidth_option = click.option("--bandwidth", type=float, default=None)


def _with_common(cmd):
    for opt in reversed(_common):
        cmd = opt(cmd)
    return cmd


def _parse_or_exit(parser, text: str):
    # option parse errors exit with code 2, formatted like run()'s errors
    try:
        return parser(text)
    except (ConfigError, ValueError) as err:
        click.echo(f"error: {type(err).__name__}: {err}", err=True)
        sys.exit(2)


@click.group()
def main():
    """Robust partially linear regression with manifold-valued covariates."""


@main.command("fit")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--map", "map_text", required=True,
              help="response=COL,linear=COL[,COL...],manifold=cylinder:angle_deg=COL,height=COL")
@click.option("--level", type=float, default=0.95)
@click.option("--null", "null_text", default=None,
              help="null coefficient value(s) for a Wald test")
@_bandwidth_option
@_with_common
def fit_command(input_path, map_text, level, null_text, bandwidth, mode, score_text,
                w1_text, cv_grid_text, out):
    """Fit the model to a CSV dataset and write a JSON report."""
    code = run(RunConfig(
        command="fit", input_path=input_path,
        mapping=_parse_or_exit(parse_mapping, map_text), mode=mode,
        score=_parse_or_exit(parse_score, score_text),
        w1=_parse_or_exit(parse_w1, w1_text), bandwidth=bandwidth,
        cv_grid=_parse_grid(cv_grid_text), level=level,
        null_value=_parse_null(null_text), out=out,
    ))
    sys.exit(code)


@main.command("cv")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--map", "map_text", required=True)
@_with_common
def cv_command(input_path, map_text, mode, score_text, w1_text, cv_grid_text, out):
    """Evaluate the cross-validation criterion over a bandwidth grid."""
    code = run(RunConfig(
        command="cv", input_path=input_path,
        mapping=_parse_or_exit(parse_mapping, map_text), mode=mode,
        score=_parse_or_exit(parse_score, score_text),
        w1=_parse_or_exit(parse_w1, w1_text), cv_grid=_parse_grid(cv_grid_text),
        out=out,
    ))
    sys.exit(code)


@main.command("simulate")
@click.option("--contamination", default="C0", type=click.Choice(["C0", "C1", "C2"]))
@click.option("--n", type=int, default=200)
@click.option("--replications", type=int, default=100)
@click.option("--workers", type=int, default=1)
@click.option("--export-data", "export_data", default=None, type=click.Path(),
              help="also write the replication-0 sample as a CSV dataset")
@click.option("--seed", type=int, default=0)
@_bandwidth_option
@_with_common
def simulate_command(contamination, n, replications, workers, export_data, seed,
                     bandwidth, mode, score_text, w1_text, cv_grid_text, out):
    """Run a Monte Carlo campaign and write summary plus boxplot data."""
    code = run(RunConfig(
        command="simulate", mode=mode, score=_parse_or_exit(parse_score, score_text),
        w1=_parse_or_exit(parse_w1, w1_text), bandwidth=bandwidth,
        cv_grid=_parse_grid(cv_grid_text), seed=seed, out=out,
        contamination=contamination, n=n, replications=replications,
        workers=workers, export_data=export_data,
    ))
    sys.exit(code)


if __name__ == "__main__":
    main()
