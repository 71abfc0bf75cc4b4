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
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from .bandwidth import select_bandwidth
from .errors import ConfigError, InsufficientDataError, PLMError
from .inference import confidence_interval, estimate_covariance, wald_test
from .manifold import ON_MANIFOLD_TOL, Manifold
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


def _constant(option: str, text: str, arg: str) -> float:
    try:
        return float(arg)
    except ValueError:
        raise ConfigError(f"{option} {text!r}: {arg!r} is not a number") from None


def parse_score(text: str) -> ScoreFunction:
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    if name == "identity":
        return ScoreFunction.identity()
    make = {"huber": ScoreFunction.huber, "bisquare": ScoreFunction.bisquare}.get(name)
    if make is None:
        raise ConfigError(f"unknown score {text!r}")
    return make(_constant("--score", text, arg)) if arg else make()


def parse_w1(text: str) -> WeightFunction:
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    if name == "one":
        return WeightFunction.one()
    if name == "huber":
        if not arg or arg.strip().lower() == "q95":
            return WeightFunction.huber("q95")
        return WeightFunction.huber(_constant("--w1", text, arg))
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
    in a mapped column, or a ``height_raw`` cell outside the cylinder's height
    interval, raises ConfigError naming the column and CSV line.

    The affine height normalization is recorded in the dataset metadata
    under ``height_map`` for prediction-time reuse.
    """
    cylinder = Manifold.cylinder((0.0, 1.0))
    lo, hi = cylinder.height_interval
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
            if mapping.height_raw and not (
                    lo - ON_MANIFOLD_TOL <= cells[-1] <= hi + ON_MANIFOLD_TOL):
                raise ConfigError(
                    f"value {cells[-1]!r} outside the cylinder height interval [{lo}, {hi}] "
                    f"in column {mapping.height!r} at CSV line {reader.line_num}"
                )
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
    return PLMDataset(y, x, t, cylinder, meta)


def _configs(score_text: str, w1_text: str):
    score = parse_score(score_text)
    return LocalFitConfig(score=score), GMConfig(score=score, w1=parse_w1(w1_text))


def _floats(text: str | None, what: str) -> tuple[float, ...] | None:
    if text is None:
        return None
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"cannot parse {what} {text!r}")


def _modes(mode: str) -> tuple[str, ...]:
    return ("robust", "classical") if mode == "both" else (mode,)


def _fit_entry(fitted, level: float, null: tuple[float, ...] | None) -> dict:
    cov = estimate_covariance(fitted)
    ci = confidence_interval(fitted.beta, cov, level)
    entry = {
        "beta": [float(b) for b in fitted.beta],
        "se": [float(s) for s in cov.se],
        "ci": [[float(lo), float(hi)] for lo, hi in ci],
        "h": fitted.bandwidth,
        "n_dropped": int(fitted.dataset.meta.get("n_dropped", 0)),
        "flags": {
            "degenerate_windows": [int(i) for i in fitted.flags["degenerate_windows"]],
            "regression_converged": bool(fitted.flags["regression_converged"]),
            "regression_iterations": int(fitted.flags["regression_iterations"]),
        },
    }
    if null is not None:
        stat, pval = wald_test(fitted.beta, cov, np.asarray(null))
        alpha = 1.0 - level
        entry["wald"] = {
            "null": [float(v) for v in np.broadcast_to(null, fitted.beta.shape)],
            "statistic": float(stat),
            "p_value": float(pval),
            "reject": bool(pval < alpha),
            "alpha": alpha,
        }
    return entry


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sibling(out: str, suffix: str) -> Path:
    out = Path(out)
    return out.with_name(f"{out.stem}_{suffix}.csv")


def _run_fit(input_path, map_text, level, null_text, bandwidth, mode, score_text,
             w1_text, cv_grid_text, out) -> None:
    mapping = parse_mapping(map_text)
    smoother, gm = _configs(score_text, w1_text)
    grid = _floats(cv_grid_text, "grid")
    null = _floats(null_text, "null value")
    if not 0.0 < level < 1.0:
        raise ConfigError(f"--level must lie in (0, 1), got {level!r}")
    p = len(mapping.linear)
    if null is not None and len(null) not in (1, p):
        raise ConfigError(
            f"--null takes 1 value or one per linear column ({p}), got {len(null)}"
        )
    if bandwidth is not None and grid is not None:
        raise ConfigError("give either a fixed bandwidth or a CV grid, not both")
    dataset = ingest_csv(input_path, mapping)
    report, fits = {}, {}
    for m in _modes(mode):
        h = (bandwidth if bandwidth is not None
             else select_bandwidth(dataset, grid, mode=m, smoother=smoother, gm=gm)[0])
        fits[m] = fit(dataset, h, mode=m, smoother=smoother, gm=gm)
        entry = report[m] = _fit_entry(fits[m], level, null)
        click.echo(f"{m}: beta={entry['beta']} se={entry['se']} h={entry['h']:.6g}")
    _write_json(out, report)
    gpath = _sibling(out, "ghat")
    with open(gpath, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["index"] + [f"ghat_{m}" for m in fits]) + "\n")
        for i in range(dataset.n):
            cells = [str(i)] + [repr(float(f.g_hat[i])) for f in fits.values()]
            fh.write(",".join(cells) + "\n")
    click.echo(f"report written to {out}; ghat table to {gpath}")


def _run_cv(input_path, map_text, mode, score_text, w1_text, cv_grid_text, out) -> None:
    mapping = parse_mapping(map_text)
    smoother, gm = _configs(score_text, w1_text)
    grid = _floats(cv_grid_text, "grid")
    dataset = ingest_csv(input_path, mapping)
    report = {}
    for m in _modes(mode):
        h, diagnostics = select_bandwidth(dataset, grid, mode=m, smoother=smoother, gm=gm)
        report[m] = {
            "selected_h": float(h),
            "grid": [
                {"h": d.h, "score": d.score if np.isfinite(d.score) else None,
                 "feasible": d.feasible, "reason": d.reason}
                for d in diagnostics
            ],
        }
        click.echo(f"{m}: selected h={h:.6g}")
    _write_json(out, report)
    click.echo(f"diagnostics written to {out}")


def _run_simulate(contamination, n, replications, workers, export_data, seed,
                  bandwidth, mode, score_text, w1_text, cv_grid_text, out) -> None:
    smoother, gm = _configs(score_text, w1_text)
    sim = SimulationConfig(n=n, replications=replications, contamination=contamination,
                           bandwidth=bandwidth, cv_grid=_floats(cv_grid_text, "grid"),
                           modes=_modes(mode), master_seed=seed, workers=workers)
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
    _write_json(out, payload)
    bpath = _sibling(out, "boxplot")
    with open(bpath, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(boxplot_csv(report))
    for m in sim.modes:
        click.echo(f"{m}: {report.results[m].summary}")
    click.echo(f"summary written to {out}; boxplot rows to {bpath}")
    if export_data:
        sample = generate_sample(sim.n, sim.contamination,
                                 replication_rng(sim.master_seed, 0))
        sample_to_csv(sample, export_data)
        click.echo(f"replication-0 sample written to {export_data}")


def _run(runner, **options) -> None:
    """Call a command's runner and exit 0, 2 (configuration) or 3 (numerical)."""
    code = 0
    try:
        runner(**options)
    except (ValueError, PLMError) as err:
        code = 2 if isinstance(err, ValueError) else 3  # ConfigError is one too
        click.echo(f"error: {type(err).__name__}: {err}", err=True)
    sys.exit(code)


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
def fit_command(**options):
    """Fit the model to a CSV dataset and write a JSON report."""
    _run(_run_fit, **options)


@main.command("cv")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--map", "map_text", required=True)
@_with_common
def cv_command(**options):
    """Evaluate the cross-validation criterion over a bandwidth grid."""
    _run(_run_cv, **options)


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
def simulate_command(**options):
    """Run a Monte Carlo campaign and write summary plus boxplot data."""
    _run(_run_simulate, **options)


if __name__ == "__main__":
    main()
