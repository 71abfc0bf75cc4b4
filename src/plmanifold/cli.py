"""Command-line front end: fit CSV datasets, select bandwidths, run campaigns.

Angles arrive in degrees and are embedded as (cos, sin) internally; the
cylinder height column is min-max normalized into [0.01, 0.99] unless the
mapping uses ``height_raw``, which takes the values as-is (they must already
lie inside the height interval).  Exit codes: 0 success, 2 configuration
or output errors, 3 numerical failures.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from .bandwidth import check_choice, select_bandwidth
from .errors import ConfigError, InsufficientDataError, PLMError
from .inference import confidence_interval, estimate_covariance, wald_test
from .manifold import CYLINDER_HEIGHTS, ON_MANIFOLD_TOL, Manifold, cylinder_coords
from .plm import MODES, PLMDataset, fit
from .robust_linear import GMConfig, WeightFunction
from .simulation import (
    BETA_TRUE,
    SimulationConfig,
    boxplot_csv,
    generate_sample,
    replication_rng,
    run_campaign,
    sample_to_csv,
)
from .smoother import ScoreFunction

_TOP_KEYS = ("response", "linear", "manifold")
_CYLINDER_KEYS = ("angle_deg", "height", "height_raw")
_CYLINDER = Manifold.cylinder()  # the one manifold of the CLI


@dataclass
class ColumnMapping:
    response: str
    linear: list[str]
    angle_deg: str
    height: str
    height_raw: bool = False


def _assign(roles: dict, key: str, column: str, token: str) -> None:
    """Record in ``roles`` (column -> key) that ``token`` gives ``column`` the
    role ``key``.  Each role but linear is named once (height and
    height_raw are one role), and each column plays one role."""
    if not column:
        raise ConfigError(f"mapping token {token!r}: {key}= needs a column name")
    role = key.removesuffix("_raw")
    if role != "linear" and role in {k.removesuffix("_raw") for k in roles.values()}:
        raise ConfigError(f"mapping token {token!r}: name the {role} column once")
    if column in roles:
        raise ConfigError(f"mapping token {token!r}: column {column!r} already plays "
                          f"{roles[column]}; each column plays one role")
    roles[column] = key


def parse_mapping(text: str) -> ColumnMapping:
    """Parse the --map grammar; see the module docstring for the shape."""
    roles: dict = {}  # column -> its key, in mapping order
    current = None
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        key, eq, column = (part.strip() for part in token.partition("="))
        if not eq:
            if current != "linear":
                raise ConfigError(f"stray mapping token {token!r}")
            key, column = "linear", token
        elif key in _TOP_KEYS:
            current = key
            if key == "manifold":  # manifold=cylinder:KEY=COL
                kind, _, item = column.partition(":")
                if kind.strip() != "cylinder":
                    raise ConfigError(f"unsupported manifold kind {kind.strip()!r}")
                key, _, column = (part.strip() for part in item.partition("="))
        elif current != "manifold":
            raise ConfigError(f"unknown mapping key {key!r}")
        if current == "manifold" and not (column and key in _CYLINDER_KEYS):
            raise ConfigError(f"mapping token {token!r}: the cylinder takes "
                              "angle_deg=COL, height=COL or height_raw=COL")
        _assign(roles, key, column, token)

    named = {key: column for column, key in roles.items()}  # one column a key, but linear
    if "response" not in named:
        raise ConfigError("mapping must name a response column")
    raw = "height_raw" in named
    height = named.get("height_raw" if raw else "height")
    angle = named.get("angle_deg")
    if angle is None or height is None:
        raise ConfigError(
            "cylinder mapping needs angle_deg=COL and height=COL (or height_raw=COL)"
        )
    linear = [column for column, key in roles.items() if key == "linear"]
    return ColumnMapping(named["response"], linear, angle, height, raw)


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
    interval, raises ConfigError naming the column and CSV line.  The
    dataset's ``meta`` records the number of dropped rows as ``n_dropped``.
    """
    lo, hi = CYLINDER_HEIGHTS
    try:
        fh = open(path, newline="", encoding="utf-8-sig")  # a leading BOM is not data
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
        repeated = [c for c in needed if reader.fieldnames.count(c) > 1]
        if repeated:  # DictReader would keep the last of them
            raise ConfigError(f"column(s) named more than once in the header: "
                              f"{', '.join(repeated)}")
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

    if not mapping.height_raw:
        lo, hi = float(height.min()), float(height.max())
        if hi > lo:
            scale = 0.98 / (hi - lo)
            height = scale * height + (0.01 - scale * lo)
        else:
            height = np.full_like(height, 0.5)

    t = cylinder_coords(angle, height)
    return PLMDataset(y, x, t, _CYLINDER, {"n_dropped": dropped})


def _configs(score_text: str, w1_text: str):
    score = parse_score(score_text)
    return score, GMConfig(score=score, w1=parse_w1(w1_text))


def _floats(text: str | None, what: str) -> tuple[float, ...] | None:
    if text is None:
        return None
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"cannot parse {what} {text!r}")
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{what} {text!r} must be finite")
    return values


def _modes(mode: str) -> tuple[str, ...]:
    return MODES if mode == "both" else (mode,)


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
            "degenerate_windows": [int(i) for i in fitted.degenerate_windows],
            "regression_iterations": int(fitted.regression.iterations),
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
    """Write strict JSON; a NaN or infinity raises before the file is opened."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")


def _sibling(out: str, suffix: str) -> Path:
    out = Path(out)
    return out.with_name(f"{out.stem}_{suffix}.csv")


def _run_fit(input_path, map_text, level, null_text, bandwidth, mode, score_text,
             w1_text, cv_grid_text, out) -> None:
    mapping = parse_mapping(map_text)
    if not mapping.linear:
        raise ConfigError("fit needs a linear covariate: name one with linear=COL in --map")
    local_score, gm = _configs(score_text, w1_text)
    grid = check_choice(_CYLINDER, bandwidth, _floats(cv_grid_text, "grid"))
    null = _floats(null_text, "null value")
    if not 0.0 < level < 1.0:
        raise ConfigError(f"--level must lie in (0, 1), got {level!r}")
    p = len(mapping.linear)
    if null is not None and len(null) not in (1, p):
        raise ConfigError(
            f"--null takes 1 value or one per linear column ({p}), got {len(null)}"
        )
    dataset = ingest_csv(input_path, mapping)
    report, fits = {}, {}
    for m in _modes(mode):
        h = (bandwidth if bandwidth is not None else
             select_bandwidth(dataset, grid, mode=m, local_score=local_score, gm=gm)[0])
        fits[m] = fit(dataset, h, mode=m, local_score=local_score, gm=gm)
        entry = report[m] = _fit_entry(fits[m], level, null)
        click.echo(f"{m}: beta={entry['beta']} se={entry['se']} h={entry['h']:.6g}")
    _write_json(out, report)
    gpath = _sibling(out, "ghat")
    with open(gpath, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index"] + [f"ghat_{m}" for m in fits])
        writer.writerows(zip(range(dataset.n), *(f.g_hat.tolist() for f in fits.values())))
    click.echo(f"report written to {out}; ghat table to {gpath}")


def _run_cv(input_path, map_text, mode, score_text, w1_text, cv_grid_text, out) -> None:
    mapping = parse_mapping(map_text)
    local_score, gm = _configs(score_text, w1_text)
    grid = check_choice(_CYLINDER, None, _floats(cv_grid_text, "grid"))
    dataset = ingest_csv(input_path, mapping)
    report = {}
    for m in _modes(mode):
        h, diagnostics = select_bandwidth(dataset, grid, mode=m, local_score=local_score,
                                          gm=gm)
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
    local_score, gm = _configs(score_text, w1_text)
    sim = SimulationConfig(n=n, replications=replications, contamination=contamination,
                           bandwidth=bandwidth, cv_grid=_floats(cv_grid_text, "grid"),
                           modes=_modes(mode), master_seed=seed, workers=workers)
    report = run_campaign(sim, local_score=local_score, gm=gm)
    payload = {
        "contamination": sim.contamination,
        "n": sim.n,
        "replications": sim.replications,
        "seed": sim.master_seed,
        "beta_true": BETA_TRUE,
        "modes": {m: report.results[m].summary for m in sim.modes},
        "n_failures": len(report.failures),
    }
    _write_json(out, payload)
    bpath = _sibling(out, "boxplot")
    bpath.write_text(boxplot_csv(report), encoding="utf-8", newline="\n")
    for m in sim.modes:
        click.echo(f"{m}: {report.results[m].summary}")
    click.echo(f"summary written to {out}; boxplot rows to {bpath}")
    if export_data:
        sample = generate_sample(sim.n, sim.contamination,
                                 replication_rng(sim.master_seed, 0))
        sample_to_csv(sample, export_data)
        click.echo(f"replication-0 sample written to {export_data}")


def _run(runner, **options) -> None:
    """Call a command's runner and exit 0, 2 (configuration or output) or 3
    (numerical).  An output that is a directory, lies in a missing one or is
    the input or another output is a configuration error before any work."""
    code = 0
    try:
        out = options["out"]
        table = {_run_fit: "ghat", _run_simulate: "boxplot"}.get(runner)
        outputs = (out, table and str(_sibling(out, table)), options.get("export_data"))
        taken = {os.path.realpath(p): "it is the input" for p in [options.get("input_path")] if p}
        for path in filter(None, outputs):
            if Path(path).is_dir():
                raise ConfigError(f"cannot write {path!r}: it is a directory")
            if not Path(path).absolute().parent.is_dir():
                raise ConfigError(f"cannot write {path!r}: its directory does not exist")
            target = os.path.realpath(path)  # unlike resolve(), no error on a symlink loop
            if target in taken:
                raise ConfigError(f"cannot write {path!r}: {taken[target]}")
            taken[target] = "another output of this run goes there"
        runner(**options)
    except (ValueError, OSError, PLMError) as err:
        code = 2 if isinstance(err, (ValueError, OSError)) else 3  # ConfigError is a ValueError
        click.echo(f"error: {type(err).__name__}: {err}", err=True)
    sys.exit(code)


_common = [
    click.option("--mode", default="robust", type=click.Choice([*MODES, "both"])),
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
