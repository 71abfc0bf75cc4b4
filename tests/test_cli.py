import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import plmanifold as pm
from plmanifold.cli import (
    ColumnMapping,
    _write_json,
    ingest_csv,
    main,
    parse_mapping,
    parse_score,
    parse_w1,
)
from plmanifold.errors import ConfigError, InsufficientDataError
from plmanifold.simulation import (
    SimulationConfig,
    boxplot_csv,
    generate_sample,
    replication_rng,
    run_campaign,
    sample_to_csv,
)

MAPPING = "response=y,linear=x1,manifold=cylinder:angle_deg=angle_deg,height=height"
MAPPING_RAW = "response=y,linear=x1,manifold=cylinder:angle_deg=angle_deg,height_raw=height"


def run_cli(*argv):
    """Run one CLI command in-process and return its exit code."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv), prog_name="plmanifold", standalone_mode=False)
    return exc.value.code


# ----------------------------------------------------------------- parsing

def test_parse_mapping_full_grammar():
    m = parse_mapping("response=insolation,linear=humidity,pressure,"
                      "manifold=cylinder:angle_deg=dir,height=speed")
    assert m.response == "insolation"
    assert m.linear == ["humidity", "pressure"]
    assert m.angle_deg == "dir"
    assert m.height == "speed"
    assert not m.height_raw


def test_parse_mapping_height_raw_variant():
    m = parse_mapping(MAPPING_RAW)
    assert m.height_raw and m.height == "height"


def test_parse_mapping_rejects_unknown_bits():
    with pytest.raises(ConfigError, match=r"^cylinder mapping needs angle_deg=COL and "
                       r"height=COL \(or height_raw=COL\)$"):
        parse_mapping("response=y")
    with pytest.raises(ConfigError, match="^mapping must name a response column$"):
        parse_mapping("linear=x1,manifold=cylinder:angle_deg=a,height=h")
    with pytest.raises(ConfigError, match="^unsupported manifold kind 'sphere'$"):
        parse_mapping("response=y,manifold=sphere:angle_deg=a,height=b")
    with pytest.raises(ConfigError, match="^unknown mapping key 'bogus'$"):
        parse_mapping("response=y,bogus=1,manifold=cylinder:angle_deg=a,height=b")
    # a bare token is a linear column only after linear=
    for text in ("y,response=y,linear=x1,manifold=cylinder:angle_deg=a,height=h",
                 "response=y,linear=x1,manifold=cylinder:angle_deg=a,height=h,x2"):
        with pytest.raises(ConfigError, match=r"^stray mapping token '(y|x2)'$"):
            parse_mapping(text)
    for text, token in [
        ("response=y,linear=x1,manifold=cylinder:angle_deg", "manifold=cylinder:angle_deg"),
        ("response=y,linear=x1,manifold=cylinder:angle_deg=a,height_raw=h,heigth=foo",
         "heigth=foo"),
        ("response=y,linear=x1,manifold=cylinder:angle_deg=a,height=h,height_raw=h",
         "height_raw=h"),
        ("response=y,linear=x1,manifold=cylinder:angle_deg=,height=h",
         "manifold=cylinder:angle_deg="),
        ("response=y,response=z,linear=x1,manifold=cylinder:angle_deg=a,height=h",
         "response=z"),
        ("response=,linear=x1,manifold=cylinder:angle_deg=a,height=h", "response="),
        ("response=y,linear=,manifold=cylinder:angle_deg=a,height=h", "linear="),
        ("response=y,linear=x1,x1,manifold=cylinder:angle_deg=a,height=h", "x1"),
        ("response=y,linear=x1,manifold=cylinder:angle_deg=a,angle_deg=b,height=h",
         "angle_deg=b"),
        ("response=y,linear=y,manifold=cylinder:angle_deg=a,height=h", "linear=y"),
        ("response=y,linear=a,manifold=cylinder:angle_deg=a,height=h",
         "manifold=cylinder:angle_deg=a"),
        ("response=y,linear=x1,manifold=cylinder:angle_deg=a,height=a", "height=a"),
    ]:
        with pytest.raises(ConfigError, match=f"mapping token '{token}'"):
            parse_mapping(text)


@settings(max_examples=200, deadline=None)
@given(st.permutations(["angle_deg=dir", "height_raw=spd"]),
       st.lists(st.sampled_from(["hum", "pres", "temp"]), unique=True),
       st.booleans(),
       st.lists(st.sampled_from(["", " ", "  ", "\t"]), min_size=42, max_size=42))
def test_parse_mapping_is_the_same_in_any_order_and_spacing(cylinder, extra, response_first,
                                                            pads):
    """The cylinder items in either order, any extra linear columns and
    spaces around the tokens and their = and : give the same mapping."""
    pad = iter(pads)  # six a token: around its =, its : and itself

    def spaced(token):
        for sep in "=:":
            token = token.replace(sep, next(pad) + sep + next(pad))
        return next(pad) + token + next(pad)

    head = ["response=y"] if response_first else []
    tokens = (head + ["linear=x1"] + extra + ["manifold=cylinder:" + cylinder[0]]
              + cylinder[1:] + ([] if response_first else ["response=y"]))
    m = parse_mapping(",".join(map(spaced, tokens)))
    assert m == ColumnMapping("y", ["x1"] + extra, "dir", "spd", True)


def test_parse_score_and_w1():
    assert parse_score("huber:2.0").c == 2.0
    assert parse_score("identity") == pm.ScoreFunction.identity()
    assert parse_score("bisquare").c == 4.685
    assert parse_w1("one").name == "one"
    assert parse_w1("huber:Q95").cutoff == "q95"
    assert parse_w1("huber:3.5").cutoff == 3.5
    with pytest.raises(ConfigError):
        parse_score("cauchy")
    with pytest.raises(ConfigError):
        parse_w1("tukey")


# --------------------------------------------------------------- ingestion

def write_csv(path, rows, header="y,x1,angle_deg,height"):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


def test_ingest_angle_conventions(tmp_path):
    path = tmp_path / "d.csv"
    rows = [(1.0, 0.1, 0.0, 10.0), (2.0, 0.2, 180.0, 20.0),
            (3.0, 0.3, 90.0, 15.0), (4.0, 0.4, 270.0, 12.0)]
    write_csv(path, rows)
    ds = ingest_csv(path, parse_mapping(MAPPING))
    assert ds.t[0, :2] == pytest.approx([1.0, 0.0], abs=1e-9)
    assert ds.t[1, :2] == pytest.approx([-1.0, 0.0], abs=1e-9)
    assert ds.t[2, :2] == pytest.approx([0.0, 1.0], abs=1e-9)


def test_ingest_height_normalization(tmp_path):
    path = tmp_path / "d.csv"
    rows = [(1.0, 0.1, 0.0, 10.0), (2.0, 0.2, 45.0, 20.0),
            (3.0, 0.3, 90.0, 15.0), (4.0, 0.4, 135.0, 12.0)]
    write_csv(path, rows)
    ds = ingest_csv(path, parse_mapping(MAPPING))
    h = ds.t[:, 2]
    assert h.min() == pytest.approx(0.01)
    assert h.max() == pytest.approx(0.99)
    assert h == pytest.approx(0.01 + 0.98 * (np.array([10.0, 20.0, 15.0, 12.0]) - 10.0) / 10.0)


def test_ingest_drops_and_counts_missing_rows(tmp_path):
    path = tmp_path / "d.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("y,x1,angle_deg,height\n")
        fh.write("1.0,0.1,0.0,10.0\n")
        fh.write("2.0,0.2,45.0,\n")          # missing height
        fh.write("3.0,0.3,90.0,15.0\n")
        fh.write("3.5,nan,100.0,11.0\n")     # NaN covariate
        fh.write("4.0,0.4,135.0,12.0\n")
        fh.write("4.5,0.45,150.0\n")         # short row: no height cell
        fh.write("5.0,0.5,180.0,13.0\n")
    ds = ingest_csv(path, parse_mapping(MAPPING))
    assert ds.y.tolist() == [1.0, 3.0, 4.0, 5.0]
    assert ds.meta["n_dropped"] == 3


def test_a_csv_with_a_byte_order_mark_gives_the_plain_file_s_report(tmp_path):
    """Spreadsheets save "CSV UTF-8" with a leading BOM; it is not part of
    the first column's name."""
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    sample_to_csv(generate_sample(60, "C0", replication_rng(12, 0)), plain)
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for data in (plain, bom):
        assert run_cli("fit", "--input", str(data), "--map", MAPPING_RAW, "--mode", "both",
                       "--bandwidth", "1.2", "--out", str(tmp_path / f"{data.stem}.json")) == 0
    for name in ("{}.json", "{}_ghat.csv"):
        assert ((tmp_path / name.format("bom")).read_bytes()
                == (tmp_path / name.format("plain")).read_bytes())


def test_ingest_missing_column_named(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, [(1.0, 0.1, 0.0, 10.0)], header="y,x1,angle_deg,speed")
    with pytest.raises(ConfigError, match="height"):
        ingest_csv(path, parse_mapping(MAPPING))


def test_ingest_insufficient_rows(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, [(1.0, 0.1, 0.0, 10.0), (2.0, 0.2, 10.0, 12.0)])
    with pytest.raises(InsufficientDataError):
        ingest_csv(path, parse_mapping(MAPPING))


def test_ingest_empty_file_is_an_error(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("")
    with pytest.raises(ConfigError, match="input file is empty"):
        ingest_csv(path, parse_mapping(MAPPING))


def test_ingest_constant_height_maps_to_the_middle(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, [(1.0, 0.1, 0.0, 7.0), (2.0, 0.2, 45.0, 7.0),
                     (3.0, 0.3, 90.0, 7.0), (4.0, 0.4, 135.0, 7.0)])
    ds = ingest_csv(path, parse_mapping(MAPPING))
    assert np.all(ds.t[:, 2] == 0.5)


def test_ingest_unparseable_cell_is_an_error(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, [(1.0, "abc", 0.0, 10.0), (2.0, 0.2, 10.0, 12.0),
                     (3.0, 0.3, 20.0, 14.0), (4.0, 0.4, 30.0, 16.0)])
    with pytest.raises(ConfigError, match="abc"):
        ingest_csv(path, parse_mapping(MAPPING))


# ------------------------------------------------------------- fit command

def make_linear_csv(path, n=40, slope=3.0, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0, 360.0, n)
    height = rng.uniform(0, 1, n)
    x = rng.normal(size=n)
    y = slope * x
    if noise:
        y = y + noise * rng.normal(size=n)
    write_csv(path, list(zip(y, x, angle, height)))


def test_fit_command_recovers_slope(tmp_path):
    data = tmp_path / "lin.csv"
    out = tmp_path / "report.json"
    make_linear_csv(data)
    assert run_cli("fit", "--input", str(data), "--map", MAPPING, "--mode", "both",
                   "--bandwidth", "1.5", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    for mode in ("robust", "classical"):
        assert report[mode]["beta"][0] == pytest.approx(3.0, abs=1e-6)
        assert report[mode]["h"] == 1.5
        assert report[mode]["n_dropped"] == 0
        assert len(report[mode]["ci"]) == 1
    gtable = tmp_path / "report_ghat.csv"
    assert gtable.exists()
    lines = gtable.read_text().strip().split("\n")
    assert lines[0] == "index,ghat_robust,ghat_classical"
    assert len(lines) == 41


def test_fit_command_wald_report(tmp_path):
    data = tmp_path / "lin.csv"
    out = tmp_path / "report.json"
    make_linear_csv(data, slope=2.0, seed=3, noise=0.3)
    assert run_cli("fit", "--input", str(data), "--map", MAPPING, "--mode", "robust",
                   "--bandwidth", "1.5", "--null", "2.0", "--level", "0.95",
                   "--out", str(out)) == 0
    wald = json.loads(out.read_text())["robust"]["wald"]
    assert wald["null"] == [2.0]
    assert 0.0 <= wald["p_value"] <= 1.0


def _reject_constant(name):
    raise ValueError(f"the report holds {name}, which is not JSON")


def test_fit_report_at_a_level_next_to_one_is_strict_json(tmp_path):
    """At the largest level below 1 the interval stays finite, so the report
    holds no Infinity (0.5 + level/2 used to round to 1 and give z = inf)."""
    data = tmp_path / "lin.csv"
    out = tmp_path / "report.json"
    make_linear_csv(data, slope=2.0, seed=3, noise=0.3)
    assert run_cli("fit", "--input", str(data), "--map", MAPPING, "--mode", "robust",
                   "--bandwidth", "1.5", "--null", "2", "--level", "0.9999999999999999",
                   "--out", str(out)) == 0
    entry = json.loads(out.read_text(), parse_constant=_reject_constant)["robust"]
    (lo, hi), = entry["ci"]
    beta, se = entry["beta"][0], entry["se"][0]
    assert lo < beta < hi
    assert (hi - beta) / se == pytest.approx(8.29, abs=0.01)
    assert entry["wald"]["alpha"] > 0.0


def test_fit_report_keys_are_pinned(tmp_path):
    data = tmp_path / "lin.csv"
    make_linear_csv(data, slope=2.0, seed=3, noise=0.3)
    entry_keys = {"beta", "se", "ci", "h", "n_dropped", "flags"}
    for null in ([], ["--null", "2"]):
        out = tmp_path / f"report{len(null)}.json"
        assert run_cli("fit", "--input", str(data), "--map", MAPPING, "--mode", "both",
                       "--bandwidth", "1.5", *null, "--out", str(out)) == 0
        report = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert set(report) == {"robust", "classical"}
        for entry in report.values():
            assert set(entry) == entry_keys | ({"wald"} if null else set())
            assert set(entry["flags"]) == {"degenerate_windows", "regression_iterations"}
            if null:
                assert set(entry["wald"]) == {"null", "statistic", "p_value", "reject",
                                              "alpha"}


@pytest.mark.parametrize("linear,null", [(1, "1e308"), (2, "1e300,-1e300")],
                         ids=["z", "joint"])
def test_overflowing_wald_statistic_exits_3_without_a_report(tmp_path, capsys, linear,
                                                             null):
    """A null so far from beta that the statistic overflows is a degenerate
    test: exit 3, no report, no RuntimeWarning (the statistic was written as
    Infinity or -Infinity, which is not JSON)."""
    rng = np.random.default_rng(4)
    n = 40
    x = rng.normal(size=(n, linear))
    y = x @ np.arange(1.0, linear + 1.0) + 0.3 * rng.normal(size=n)
    columns = [f"x{j + 1}" for j in range(linear)]
    data = tmp_path / "lin.csv"
    write_csv(data, [(y[i], *x[i], rng.uniform(0, 360.0), rng.uniform(0, 1))
                     for i in range(n)], header=",".join(["y", *columns, "angle_deg", "height"]))
    mapping = MAPPING.replace("linear=x1", "linear=" + ",".join(columns))
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("fit", "--input", str(data), "--map", mapping, "--bandwidth", "1.5",
                       "--null", null, "--out", str(out)) == 3
    assert "DegenerateTestError: Wald statistic" in capsys.readouterr().err
    assert not out.exists()


def test_json_with_a_nan_or_infinity_is_refused_before_the_file_is_opened(tmp_path):
    for value in (float("nan"), float("inf")):
        out = tmp_path / "r.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            _write_json(out, {"statistic": value})
        assert not out.exists()


def test_wald_on_noise_free_data_is_a_degenerate_test(tmp_path, capsys):
    """y = 2x exactly: the fit reproduces beta, the sandwich SE is zero and the
    z test is undefined, so the run exits 3 naming DegenerateTestError."""
    for seed in range(10):
        data = tmp_path / f"lin{seed}.csv"
        make_linear_csv(data, slope=2.0, seed=seed)
        assert run_cli("fit", "--input", str(data), "--map", MAPPING, "--mode", "robust",
                       "--bandwidth", "1.5", "--null", "2.0", "--level", "0.95",
                       "--out", str(tmp_path / f"report{seed}.json")) == 3
        assert "DegenerateTestError" in capsys.readouterr().err


def test_fit_with_cv_grid(tmp_path):
    data = tmp_path / "lin.csv"
    out = tmp_path / "report.json"
    make_linear_csv(data, seed=5)
    assert run_cli("fit", "--input", str(data), "--map", MAPPING, "--mode", "classical",
                   "--cv-grid", "1.0,1.5,2.2", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["classical"]["h"] in (1.0, 1.5, 2.2)


def test_exit_code_2_on_config_errors(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("fit", "--input", str(tmp_path / "missing.csv"), "--map", MAPPING,
                   "--bandwidth", "1.0", "--out", str(out)) == 2


def test_exit_code_3_on_numerical_errors(tmp_path):
    data = tmp_path / "lin.csv"
    out = tmp_path / "r.json"
    make_linear_csv(data, seed=7)
    assert run_cli("fit", "--input", str(data), "--map", MAPPING, "--mode", "robust",
                   "--bandwidth", "0.001", "--out", str(out)) == 3


@pytest.mark.parametrize("bandwidth", [None, "0.8"])
def test_q95_weights_of_a_rare_binary_covariate_are_a_numerical_error(tmp_path, capsys,
                                                                       bandwidth):
    """8 ones in 200 rows: eta = 0 on more than 95% of them, so the q95
    design-weight cutoff is 0; every CV candidate and the fit fail with
    DegenerateScaleError and the run exits 3, not 2."""
    rng = np.random.default_rng(5)
    n = 200
    x = np.zeros(n)
    x[rng.choice(n, 8, replace=False)] = 1.0
    angle, height = rng.uniform(0, 360.0, n), rng.uniform(0, 1, n)
    y = 2.0 * x + np.cos(np.radians(angle)) + rng.normal(size=n)
    data = tmp_path / "rare.csv"
    write_csv(data, zip(y, x, angle, height))
    choice = ["--bandwidth", bandwidth] if bandwidth else []
    assert run_cli("fit", "--input", str(data), "--map", MAPPING, "--mode", "robust",
                   "--w1", "huber:q95", *choice, "--out", str(tmp_path / "r.json")) == 3
    assert "DegenerateScaleError: the 0.95 quantile of the design-row norms is zero" in (
        capsys.readouterr().err)


def test_fit_both_modes_with_injected_outliers(tmp_path):
    # outlier-sensitivity workflow: inject two gross outliers, fit both modes
    rng = np.random.default_rng(31)
    n = 60
    angle = rng.uniform(0, 360.0, n)
    height = rng.uniform(0, 1, n)
    x = rng.normal(size=n)
    y = 2.0 * x + 0.3 * rng.normal(size=n)
    y[0] += 40.0
    y[1] -= 40.0
    data = tmp_path / "outliers.csv"
    out = tmp_path / "report.json"
    write_csv(data, list(zip(y, x, angle, height)))
    assert run_cli("fit", "--input", str(data), "--map", MAPPING, "--mode", "both",
                   "--bandwidth", "1.5", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"robust", "classical"}
    robust_err = abs(report["robust"]["beta"][0] - 2.0)
    classical_err = abs(report["classical"]["beta"][0] - 2.0)
    assert robust_err < classical_err


# -------------------------------------------------------------- cv command

def test_cv_command_default_grid(tmp_path):
    data = tmp_path / "lin.csv"
    out = tmp_path / "cv.json"
    make_linear_csv(data, seed=13)
    assert run_cli("cv", "--input", str(data), "--map", MAPPING, "--mode", "classical",
                   "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert len(report["classical"]["grid"]) == 8


def test_cv_command_writes_diagnostics(tmp_path):
    data = tmp_path / "lin.csv"
    out = tmp_path / "cv.json"
    make_linear_csv(data, seed=9)
    assert run_cli("cv", "--input", str(data), "--map", MAPPING, "--mode", "robust",
                   "--cv-grid", "1.0,1.6,2.4", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["robust"]["selected_h"] in (1.0, 1.6, 2.4)
    assert len(report["robust"]["grid"]) == 3
    assert all(entry["feasible"] for entry in report["robust"]["grid"])


def test_cv_with_an_infeasible_grid_says_what_bandwidth_would_work(tmp_path, capsys):
    data = tmp_path / "lin.csv"
    out = tmp_path / "cv.json"
    make_linear_csv(data, seed=9)
    assert run_cli("cv", "--input", str(data), "--map", MAPPING, "--cv-grid", "0.01,0.02",
                   "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert "error: InfeasibleGridError: no feasible bandwidth in the grid" in err
    assert "must exceed" in err
    assert not out.exists()


# -------------------------------------------------------- simulate command

def test_simulate_deterministic_outputs(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        assert run_cli("simulate", "--mode", "both", "--bandwidth", "1.2",
                       "--seed", "77", "--out", str(out), "--contamination", "C0",
                       "--n", "60", "--replications", "3") == 0
        outs.append((out.read_bytes(),
                     (tmp_path / f"{name}_boxplot.csv").read_bytes()))
    assert outs[0] == outs[1]


def test_simulate_uses_the_score_option(tmp_path):
    betas = {}
    for score in ("huber:1.345", "bisquare:4.685"):
        out = tmp_path / f"{score[:5]}.json"
        assert run_cli("simulate", "--mode", "robust", "--bandwidth", "1.2",
                       "--seed", "79", "--out", str(out), "--contamination", "C1",
                       "--n", "60", "--replications", "2", "--score", score) == 0
        betas[score] = json.loads(out.read_text())["modes"]["robust"]["mean_beta"]
    assert betas["huber:1.345"] != betas["bisquare:4.685"]


def test_simulate_boxplot_header(tmp_path):
    out = tmp_path / "sim.json"
    assert run_cli("simulate", "--mode", "robust", "--bandwidth", "1.2",
                   "--seed", "78", "--out", str(out), "--contamination", "C1",
                   "--n", "60", "--replications", "2") == 0
    box = (tmp_path / "sim_boxplot.csv").read_text()
    assert box.startswith("mode,contamination,replication,beta_hat\n")
    assert "robust,C1,0," in box


# --------------------------------------------------------------- round trip

def test_round_trip_export_ingest_fit_reproduces_beta(tmp_path):
    s = generate_sample(80, "C0", replication_rng(404, 0))
    direct = pm.fit(s.dataset, 1.1, mode="robust")

    path = tmp_path / "exported.csv"
    sample_to_csv(s, path)
    ds = ingest_csv(path, parse_mapping(MAPPING_RAW))
    again = pm.fit(ds, 1.1, mode="robust")
    assert again.beta[0] == pytest.approx(direct.beta[0], abs=1e-10)
    assert again.g_hat == pytest.approx(direct.g_hat, abs=1e-10)


def test_round_trip_through_simulate_export(tmp_path):
    out = tmp_path / "sim.json"
    data = tmp_path / "rep0.csv"
    assert run_cli("simulate", "--mode", "robust", "--bandwidth", "1.2",
                   "--seed", "55", "--out", str(out), "--contamination", "C0",
                   "--n", "60", "--replications", "1", "--export-data", str(data)) == 0
    report = json.loads(out.read_text())
    ds = ingest_csv(data, parse_mapping(MAPPING_RAW))
    f = pm.fit(ds, 1.2, mode="robust")
    assert f.beta[0] == pytest.approx(report["modes"]["robust"]["mean_beta"],
                                      abs=1e-10)


def test_the_csv_writers_write_each_float_as_its_repr(tmp_path):
    """sample_to_csv, boxplot_csv and the fit command's ghat table write
    comma-separated cells, each float its repr, one LF-ended line a row; the
    expected text is joined cell by cell here."""
    def text(rows):
        return "".join(",".join(row) + "\n" for row in rows)

    s = generate_sample(30, "C2", replication_rng(61, 0))
    data = tmp_path / "s.csv"
    sample_to_csv(s, data)
    deg = np.degrees(s.angles)
    assert data.read_bytes() == text([["y", "x1", "angle_deg", "height"]] + [
        [repr(float(v)) for v in (s.dataset.y[i], s.dataset.x[i, 0], deg[i], s.heights[i])]
        for i in range(30)]).encode()

    config = SimulationConfig(n=30, replications=3, contamination="C2", bandwidth=1.2,
                              modes=("robust", "classical"), master_seed=61)
    report = run_campaign(config)
    report.results["classical"].beta[1] = np.nan  # a failed replication has no row
    assert boxplot_csv(report) == text([["mode", "contamination", "replication", "beta_hat"]] + [
        [m, "C2", str(r), repr(float(b))]
        for m in config.modes for r, b in enumerate(report.results[m].beta) if np.isfinite(b)])

    assert run_cli("fit", "--input", str(data), "--map", MAPPING_RAW, "--mode", "both",
                   "--bandwidth", "1.2", "--out", str(tmp_path / "r.json")) == 0
    ds = ingest_csv(data, parse_mapping(MAPPING_RAW))
    robust, classical = (pm.fit(ds, 1.2, mode=m).g_hat for m in ("robust", "classical"))
    assert (tmp_path / "r_ghat.csv").read_bytes() == text(
        [["index", "ghat_robust", "ghat_classical"]]
        + [[str(i), repr(float(robust[i])), repr(float(classical[i]))] for i in range(30)]
    ).encode()


# ------------------------------------------------------------ click wiring

def test_click_fit_end_to_end(tmp_path):
    data = tmp_path / "lin.csv"
    out = tmp_path / "r.json"
    make_linear_csv(data, seed=11)
    runner = CliRunner()
    result = runner.invoke(main, [
        "fit", "--input", str(data), "--map", MAPPING,
        "--mode", "classical", "--bandwidth", "1.5", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads(out.read_text())["classical"]["beta"][0] == pytest.approx(3.0, abs=1e-6)


def test_click_bad_mapping_exits_2(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, [
        "fit", "--input", "x.csv", "--map", "response=y",
        "--bandwidth", "1.0", "--out", "r.json"])
    assert result.exit_code == 2


def test_a_cv_campaign_and_a_q95_fit_leave_numpy_ma_unimported(tmp_path):
    """np.median and np.quantile import numpy.ma (10-17 ms) for their NaN
    check; the package's order statistics do not."""
    data = tmp_path / "s.csv"
    sample_to_csv(generate_sample(60, "C1", replication_rng(4, 0)), data)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pm.__file__)))
    code = ("import sys\n"
            "from plmanifold import simulation\n"
            "from plmanifold.cli import main\n"
            "report = simulation.run_campaign(simulation.SimulationConfig(\n"
            "    n=60, replications=2, contamination='C1', modes=('robust', 'classical'),\n"
            "    master_seed=5))\n"
            "assert not report.failures, report.failures\n"
            "print('numpy.ma imported:', 'numpy.ma' in sys.modules)\n"
            "try:\n"
            "    main(['fit', '--input', sys.argv[1], '--map', sys.argv[2], '--mode', 'both',\n"
            "          '--w1', 'huber:q95', '--cv-grid', '0.8,1.2', '--null', '2',\n"
            "          '--out', sys.argv[3]], standalone_mode=False)\n"
            "except SystemExit as exit:\n"
            "    assert not exit.code, exit.code\n"
            "print('numpy.ma imported:', 'numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code, str(data), MAPPING_RAW,
                          str(tmp_path / "fit.json")],
                         env=env, check=True, capture_output=True, text=True).stdout
    assert [line for line in out.splitlines() if line.startswith("numpy.ma")] == [
        "numpy.ma imported: False"] * 2
    assert json.loads((tmp_path / "fit.json").read_text())


NOT_A_NUMBER = "'abc' is not a number"
BAD_CONSTANT = "constant must be finite and > 0, got"


@pytest.mark.parametrize("option,value,message", [
    ("--score", "cauchy", "error: ConfigError: unknown score 'cauchy'"),
    ("--score", "huber:abc", f"error: ConfigError: --score 'huber:abc': {NOT_A_NUMBER}"),
    ("--w1", "huber:abc", f"error: ConfigError: --w1 'huber:abc': {NOT_A_NUMBER}"),
    ("--w1", "huber:inf",
     "error: ValueError: huber weight cutoff must be finite and positive"),
    ("--score", "huber:0", f"error: ValueError: huber {BAD_CONSTANT} 0.0"),
    ("--score", "bisquare:-2", f"error: ValueError: bisquare {BAD_CONSTANT} -2.0"),
    ("--score", "huber:inf", f"error: ValueError: huber {BAD_CONSTANT} inf"),
    ("--score", "huber:nan", f"error: ValueError: huber {BAD_CONSTANT} nan"),
], ids=["unknown-name", "bad-number", "bad-w1-number", "w1-inf", "huber-zero",
        "bisquare-negative", "huber-inf", "huber-nan"])
def test_click_bad_score_exits_2(option, value, message):
    """A bad score or w1 constant exits 2 before the input (absent here) is read."""
    result = CliRunner().invoke(main, [
        "fit", "--input", "x.csv", "--map", MAPPING, option, value,
        "--bandwidth", "1.0", "--out", "r.json"])
    assert result.exit_code == 2
    assert result.output.strip().splitlines() == [message]


def test_click_fit_and_cv_have_no_ignored_options():
    runner = CliRunner()
    for command, option, value in (("fit", "--seed", "3"), ("cv", "--seed", "3"),
                                   ("cv", "--bandwidth", "1.0")):
        result = runner.invoke(main, [command, "--input", "x.csv", "--map", MAPPING,
                                      "--out", "r.json", option, value])
        assert result.exit_code == 2
        assert "No such option" in result.output


def test_nonfinite_csv_cell_exits_2_before_smoothing(tmp_path):
    data = tmp_path / "lin.csv"
    make_linear_csv(data, seed=17)
    lines = data.read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = "inf"  # the linear covariate x1
    lines[5] = ",".join(cells)
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli("fit", "--input", str(data), "--map", MAPPING, "--mode", "both",
                       "--bandwidth", "1.5", "--out", str(out))
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("column,index", [("angle_deg", 2), ("height", 3)])
@pytest.mark.parametrize("cell", ["inf", "-inf"])
def test_infinite_manifold_cell_exits_2_naming_column_and_line(tmp_path, capsys,
                                                               column, index, cell):
    data = tmp_path / "lin.csv"
    make_linear_csv(data, seed=17)
    lines = data.read_text().splitlines()
    cells = lines[5].split(",")
    cells[index] = cell
    lines[5] = ",".join(cells)  # CSV line 6: the header is line 1
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli("fit", "--input", str(data), "--map", MAPPING, "--mode", "both",
                       "--bandwidth", "1.5", "--out", str(out))
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "ConfigError" in err
    assert f"column {column!r} at CSV line 6" in err


def test_a_mapped_column_named_twice_in_the_header_exits_2_naming_it(tmp_path):
    """csv.DictReader keeps the last of two columns of one name, so a header
    that repeats the response would fit its second copy (here 1000, 1001,
    ...): the header is refused, naming the column, and no report is
    written."""
    data = tmp_path / "dup.csv"
    rng = np.random.default_rng(3)
    write_csv(data, [(y, x, a, h, 1000.0 + i) for i, (y, x, a, h) in enumerate(zip(
        rng.normal(size=40), rng.normal(size=40), rng.uniform(0, 360, 40),
        rng.uniform(0, 1, 40)))], header="y,x1,angle_deg,height,y")
    out = tmp_path / "r.json"
    result = CliRunner().invoke(main, ["fit", "--input", str(data), "--map", MAPPING_RAW,
                                       "--bandwidth", "1.2", "--out", str(out)])
    assert result.exit_code == 2
    assert result.output.strip().splitlines() == [
        "error: ConfigError: column(s) named more than once in the header: y"]
    assert not out.exists()


def test_click_simulate_smoke(tmp_path):
    out = tmp_path / "sim.json"
    runner = CliRunner()
    result = runner.invoke(main, [
        "simulate", "--contamination", "C0", "--n", "60",
        "--replications", "2", "--bandwidth", "1.2", "--seed", "9",
        "--mode", "robust", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.exists()


OUTPUT_OPTIONS = [("fit", "--out"), ("cv", "--out"), ("simulate", "--out"),
                  ("simulate", "--export-data")]


def refuse_any_fitting(monkeypatch):
    from plmanifold import cli

    def refuse(*args, **kwargs):
        raise AssertionError("the run started")

    for name in ("fit", "select_bandwidth", "run_campaign"):
        monkeypatch.setattr(cli, name, refuse)


def refused_output(tmp_path, monkeypatch, command, option, path):
    """Run ``command`` with ``path`` as its ``option`` (and r.json as the
    --out of the others) under a patch that fails any fitting."""
    refuse_any_fitting(monkeypatch)
    data = tmp_path / "lin.csv"
    make_linear_csv(data, seed=29)
    argv = {"fit": ["fit", "--input", str(data), "--map", MAPPING, "--bandwidth", "1.5"],
            "cv": ["cv", "--input", str(data), "--map", MAPPING, "--cv-grid", "1.0,1.5"],
            "simulate": ["simulate", "--n", "40", "--replications", "2"]}[command]
    for name, value in {"--out": str(tmp_path / "r.json"), option: path}.items():
        argv += [name, value]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert not (tmp_path / "r.json").exists()
    return result.output


@pytest.mark.parametrize("command,option", OUTPUT_OPTIONS)
def test_an_output_path_in_a_missing_directory_exits_2_before_any_fitting(
        tmp_path, monkeypatch, command, option):
    """An --out (or --export-data) in a directory that does not exist is a
    configuration error, one line naming the path, found before any fit."""
    missing = str(tmp_path / "missing" / "r.out")
    assert refused_output(tmp_path, monkeypatch, command, option, missing) == (
        f"error: ConfigError: cannot write {missing!r}: its directory does not exist\n")
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command,option", OUTPUT_OPTIONS)
def test_an_output_path_that_is_a_directory_exits_2_before_any_fitting(
        tmp_path, monkeypatch, command, option):
    """An --out (or --export-data) that names an existing directory is a
    configuration error, one line naming the path, found before any fit."""
    outdir = tmp_path / "outdir"
    outdir.mkdir()
    path = str(outdir) + os.sep
    assert refused_output(tmp_path, monkeypatch, command, option, path) == (
        f"error: ConfigError: cannot write {path!r}: it is a directory\n")
    assert not any(outdir.iterdir())


@pytest.mark.parametrize("command,sibling", [("fit", "r_ghat.csv"),
                                             ("simulate", "r_boxplot.csv")])
def test_a_sibling_csv_that_is_a_directory_exits_2(tmp_path, monkeypatch, command, sibling):
    """The --out's ghat or boxplot table whose path is a directory exits 2,
    one line naming the path, before any fitting and with no file written."""
    (tmp_path / sibling).mkdir()
    path = str(tmp_path / sibling)
    assert refused_output(tmp_path, monkeypatch, command, "--out", str(tmp_path / "r.json")) == (
        f"error: ConfigError: cannot write {path!r}: it is a directory\n")
    assert not any((tmp_path / sibling).iterdir())


@pytest.mark.parametrize("argv,clash,other", [
    (["cv", "--input", "IN", "--map", MAPPING, "--cv-grid", "0.8,1.2", "--out", "in.csv"],
     "in.csv", "it is the input"),
    (["fit", "--input", "IN", "--map", MAPPING, "--bandwidth", "1.5", "--out", "in.json"],
     "in_ghat.csv", "it is the input"),
    (["simulate", "--n", "40", "--replications", "2", "--out", "same.csv",
      "--export-data", "./same.csv"], "./same.csv", "another output of this run goes there"),
    (["simulate", "--n", "40", "--replications", "2", "--out", "z.json",
      "--export-data", "z_boxplot.csv"], "z_boxplot.csv", "another output of this run goes there"),
], ids=["cv-out-is-input", "fit-ghat-is-input", "simulate-export-is-out",
        "simulate-export-is-boxplot"])
def test_an_output_that_is_the_input_or_another_output_exits_2_writing_nothing(
        tmp_path, monkeypatch, argv, clash, other):
    """Two paths of one run that resolve to the same file are a configuration
    error before any fitting: the input and any file already there keep
    their bytes, and no output is written."""
    refuse_any_fitting(monkeypatch)
    monkeypatch.chdir(tmp_path)
    make_linear_csv(tmp_path / clash, seed=29)  # the input, or a file the run would replace
    argv = [str(tmp_path / clash) if a == "IN" else a for a in argv]
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert result.output == f"error: ConfigError: cannot write {clash!r}: {other}\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_importing_the_package_or_the_cli_loads_no_scipy_module():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pm.__file__)))
    code = ("import sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            "import plmanifold\n"
            "print(scipy_modules())\n"
            "import plmanifold.cli\n"
            "print(scipy_modules())\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["[]", "[]"]


NOT_A_NUMBER = "'abc' is not a number"
BAD_CONSTANT = "constant must be finite and > 0, got"


@pytest.mark.parametrize("option,value,message", [
    ("--level", "1.5", "--level must lie in (0, 1), got 1.5"),
    ("--level", "0", "--level must lie in (0, 1), got 0.0"),
    ("--null", "1,2", "--null takes 1 value or one per linear column (1), got 2"),
    ("--null", "nan", "null value 'nan' must be finite"),
    ("--null", "-inf", "null value '-inf' must be finite"),
], ids=["level-above-1", "level-0", "null-count", "null-nan", "null-inf"])
def test_click_fit_rejects_bad_level_or_null_before_reading_input(tmp_path, option,
                                                                   value, message):
    result = CliRunner().invoke(main, [
        "fit", "--input", str(tmp_path / "missing.csv"), "--map", MAPPING,
        option, value, "--bandwidth", "1.0", "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2
    assert f"error: ConfigError: {message}" in result.output
    assert "cannot read input file" not in result.output


@pytest.mark.parametrize("option,what", [("--cv-grid", "grid"), ("--null", "null value")])
def test_unparseable_number_list_exits_2_in_the_error_format(tmp_path, capsys, option, what):
    data = tmp_path / "lin.csv"
    make_linear_csv(data, seed=19)
    out = tmp_path / "r.json"
    args = ["--bandwidth", "1.5"] if option == "--null" else []
    code = run_cli("fit", "--input", str(data), "--map", MAPPING, option, "abc", *args,
                   "--out", str(out))
    assert code == 2
    assert f"error: ConfigError: cannot parse {what} 'abc'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,option,value,message", [
    ("fit", "--cv-grid", "-1,2", "bandwidth -1.0 must lie in (0, "),
    ("fit", "--cv-grid", "1,4", "bandwidth 4.0 must lie in (0, "),
    ("fit", "--bandwidth", "-1", "bandwidth -1.0 must lie in (0, "),
    ("fit", "--bandwidth", "3.5", "bandwidth 3.5 must lie in (0, "),
    ("cv", "--cv-grid", "-1,2", "bandwidth -1.0 must lie in (0, "),
    ("cv", "--cv-grid", "0.5,3.5", "bandwidth 3.5 must lie in (0, "),
], ids=["fit-grid-negative", "fit-grid-too-wide", "fit-h-negative", "fit-h-too-wide",
        "cv-grid-negative", "cv-grid-too-wide"])
def test_bandwidths_are_checked_before_the_input_is_read(tmp_path, capsys, command, option,
                                                         value, message):
    out = tmp_path / "r.json"
    code = run_cli(command, "--input", str(tmp_path / "missing.csv"), "--map", MAPPING,
                   f"{option}={value}", "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: ValueError: {message}" in err
    assert "cannot read input file" not in err
    assert not out.exists()


def test_fit_rejects_bandwidth_with_cv_grid_before_reading_input(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run_cli("fit", "--input", str(tmp_path / "missing.csv"), "--map", MAPPING,
                   "--bandwidth", "1.5", "--cv-grid", "1.0,1.5", "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert ("error: ConfigError: give either a fixed bandwidth or a CV grid, not both"
            in err)
    assert "cannot read input file" not in err
    assert not out.exists()


def test_fit_without_a_linear_column_fails_before_reading_input(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run_cli("fit", "--input", str(tmp_path / "missing.csv"), "--map",
                   "response=y,manifold=cylinder:angle_deg=angle_deg,height_raw=height",
                   "--bandwidth", "1.2", "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert "error: ConfigError: " in err and "linear=COL" in err
    assert "cannot read input file" not in err
    assert not out.exists()


def test_simulate_rejects_bandwidth_with_cv_grid_in_the_fit_format(tmp_path, capsys):
    out = tmp_path / "s.json"
    code = run_cli("simulate", "--n", "40", "--replications", "2", "--bandwidth", "1.2",
                   "--cv-grid", "1,2", "--out", str(out))
    assert code == 2
    assert ("error: ConfigError: give either a fixed bandwidth or a CV grid, not both"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "cv"])
def test_out_of_range_height_raw_cell_exits_2_naming_column_and_line(tmp_path, capsys,
                                                                     command):
    data = tmp_path / "lin.csv"
    make_linear_csv(data, seed=23)
    lines = data.read_text().splitlines()
    cells = lines[5].split(",")
    cells[3] = "1.5"
    lines[5] = ",".join(cells)  # CSV line 6: the header is line 1
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "r.json"
    args = ["--bandwidth", "1.5"] if command == "fit" else ["--cv-grid", "1.0,1.5"]
    code = run_cli(command, "--input", str(data), "--map", MAPPING_RAW, *args,
                   "--out", str(out))
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert ("error: ConfigError: value 1.5 outside the cylinder height interval "
            "[0.0, 1.0] in column 'height' at CSV line 6") in err
