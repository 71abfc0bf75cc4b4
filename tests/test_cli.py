import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import plmanifold as pm
from plmanifold.cli import ingest_csv, main, parse_mapping, parse_score, parse_w1
from plmanifold.errors import ConfigError, InsufficientDataError
from plmanifold.simulation import generate_sample, replication_rng, sample_to_csv

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
    assert m.manifold_kind == "cylinder"
    assert m.angle_deg == "dir"
    assert m.height == "speed"
    assert not m.height_raw


def test_parse_mapping_height_raw_variant():
    m = parse_mapping(MAPPING_RAW)
    assert m.height_raw and m.height == "height"


def test_parse_mapping_rejects_unknown_bits():
    with pytest.raises(ConfigError):
        parse_mapping("response=y")
    with pytest.raises(ConfigError):
        parse_mapping("response=y,manifold=sphere:angle_deg=a,height=b")
    with pytest.raises(ConfigError):
        parse_mapping("response=y,bogus=1,manifold=cylinder:angle_deg=a,height=b")


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
    hm = ds.meta["height_map"]
    assert hm["scale"] * 10.0 + hm["offset"] == pytest.approx(0.01)
    assert hm["scale"] * 20.0 + hm["offset"] == pytest.approx(0.99)


def test_ingest_drops_and_counts_missing_rows(tmp_path):
    path = tmp_path / "d.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("y,x1,angle_deg,height\n")
        fh.write("1.0,0.1,0.0,10.0\n")
        fh.write("2.0,0.2,45.0,\n")          # missing height
        fh.write("3.0,0.3,90.0,15.0\n")
        fh.write("4.0,0.4,135.0,12.0\n")
        fh.write("5.0,0.5,180.0,13.0\n")
    ds = ingest_csv(path, parse_mapping(MAPPING))
    assert ds.n == 4
    assert ds.meta["n_dropped"] == 1


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


def test_click_simulate_smoke(tmp_path):
    out = tmp_path / "sim.json"
    runner = CliRunner()
    result = runner.invoke(main, [
        "simulate", "--contamination", "C0", "--n", "60",
        "--replications", "2", "--bandwidth", "1.2", "--seed", "9",
        "--mode", "robust", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.exists()


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pm.__file__)))
    code = "import sys, plmanifold.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


NOT_A_NUMBER = "'abc' is not a number"
BAD_CONSTANT = "constant must be finite and > 0, got"


@pytest.mark.parametrize("option,value,message", [
    ("--level", "1.5", "--level must lie in (0, 1), got 1.5"),
    ("--level", "0", "--level must lie in (0, 1), got 0.0"),
    ("--null", "1,2", "--null takes 1 value or one per linear column (1), got 2"),
], ids=["level-above-1", "level-0", "null-count"])
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
