import numpy as np
import pytest

from plmanifold.errors import CampaignError
from plmanifold.plm import fit
from plmanifold.simulation import (
    SimulationConfig,
    _summarize,
    boxplot_csv,
    generate_sample,
    replication_rng,
    run_campaign,
    sample_to_csv,
)


# --------------------------------------------------------------- generator

def test_generated_points_live_on_the_cylinder():
    s = generate_sample(500, "C0", replication_rng(1, 0))
    t = s.dataset.t
    assert np.all(np.abs(t[:, 0] ** 2 + t[:, 1] ** 2 - 1.0) < 1e-12)
    assert np.all((t[:, 2] >= 0.0) & (t[:, 2] <= 1.0))


def test_true_g_is_nonnegative_square():
    s = generate_sample(300, "C0", replication_rng(2, 0))
    assert np.all(s.g_true >= 0.0)
    recon = (s.dataset.t[:, 0] + s.dataset.t[:, 1] - s.dataset.t[:, 2]) ** 2
    assert s.g_true == pytest.approx(recon, abs=1e-15)


def test_c1_mixture_fraction():
    s = generate_sample(100_000, "C1", replication_rng(3, 0))
    frac = s.contaminated.mean()
    assert frac == pytest.approx(0.10, abs=0.01)
    # the contaminating component has variance 25, the clean one variance 1
    eps = s.dataset.y - 2.0 * s.dataset.x[:, 0] - s.g_true
    assert np.std(eps[s.contaminated]) == pytest.approx(5.0, rel=0.05)
    assert np.std(eps[~s.contaminated]) == pytest.approx(1.0, rel=0.02)


def test_c2_mixture_shifted_component():
    s = generate_sample(100_000, "C2", replication_rng(4, 0))
    assert s.contaminated.mean() == pytest.approx(0.10, abs=0.01)
    shifted = s.dataset.y - 2.0 * s.dataset.x[:, 0] - s.g_true
    assert np.mean(shifted[s.contaminated]) == pytest.approx(5.0, abs=0.05)
    assert np.mean(shifted[~s.contaminated]) == pytest.approx(0.0, abs=0.05)
    # the shifted component has variance 0.25, the clean one variance 1
    assert np.std(shifted[s.contaminated]) == pytest.approx(0.5, rel=0.05)
    assert np.std(shifted[~s.contaminated]) == pytest.approx(1.0, rel=0.02)


def test_c0_has_no_contaminated_draws():
    s = generate_sample(1000, "C0", replication_rng(5, 0))
    assert not s.contaminated.any()


def test_unknown_contamination_rejected():
    with pytest.raises(ValueError):
        generate_sample(50, "C3", replication_rng(6, 0))


def test_replication_streams_are_order_independent():
    a = generate_sample(50, "C0", replication_rng(9, 3))
    b = generate_sample(50, "C0", replication_rng(9, 3))
    c = generate_sample(50, "C0", replication_rng(9, 4))
    assert np.array_equal(a.dataset.y, b.dataset.y)
    assert not np.array_equal(a.dataset.y, c.dataset.y)


# ----------------------------------------------------------------- campaign

SMALL = dict(n=60, replications=4, bandwidth=1.2, master_seed=17)


def test_single_replication_report_equals_direct_fit():
    config = SimulationConfig(n=60, replications=1, contamination="C0",
                              bandwidth=1.2, modes=("robust",), master_seed=33)
    report = run_campaign(config)
    s = generate_sample(60, "C0", replication_rng(33, 0))
    direct = fit(s.dataset, 1.2, mode="robust")
    assert report.results["robust"].beta[0] == direct.beta[0]
    mse = float(np.mean((direct.g_hat - s.g_true) ** 2))
    assert report.results["robust"].mse_g[0] == mse


def test_campaign_determinism():
    config = SimulationConfig(contamination="C0", **SMALL)
    r1 = run_campaign(config)
    r2 = run_campaign(config)
    for mode in config.modes:
        assert np.array_equal(r1.results[mode].beta, r2.results[mode].beta)
        assert np.array_equal(r1.results[mode].mse_g, r2.results[mode].mse_g)
        assert r1.results[mode].summary == r2.results[mode].summary


def test_campaign_worker_count_does_not_change_results():
    base = SimulationConfig(contamination="C0", **SMALL)
    threaded = SimulationConfig(contamination="C0", workers=3, **SMALL)
    r1 = run_campaign(base)
    r2 = run_campaign(threaded)
    for mode in base.modes:
        assert np.array_equal(r1.results[mode].beta, r2.results[mode].beta)


def test_campaign_summary_mse_identity():
    config = SimulationConfig(contamination="C0", **SMALL)
    report = run_campaign(config)
    for mode in config.modes:
        s = report.results[mode].summary
        recon = s["sd_beta"] ** 2 * (s["n_used"] - 1) / s["n_used"] \
            + (s["mean_beta"] - 2.0) ** 2
        assert s["mse_beta"] == pytest.approx(recon, abs=1e-10)


def test_campaign_cv_policy_runs():
    config = SimulationConfig(n=60, replications=2, contamination="C0",
                              cv_grid=(0.9, 1.4, 2.0), modes=("robust",),
                              master_seed=21)
    report = run_campaign(config)
    assert np.all(np.isin(report.results["robust"].bandwidth, (0.9, 1.4, 2.0)))


def test_a_default_grid_campaign_computes_one_grid_per_sample(monkeypatch):
    """With neither a fixed h nor a grid, each replication computes its
    sample's default grid once, for both modes, and each mode picks the h
    that select_bandwidth picks with no grid."""
    from plmanifold import bandwidth, simulation
    from plmanifold.bandwidth import select_bandwidth

    config = SimulationConfig(n=60, replications=2, contamination="C1", master_seed=21)
    grids, default_grid = [], simulation.default_grid
    with monkeypatch.context() as m:
        m.setattr(simulation, "default_grid", lambda ds: grids.append(ds.n) or default_grid(ds))
        m.setattr(bandwidth, "default_grid", None)  # select_bandwidth builds no grid itself
        report = run_campaign(config)
    assert grids == [60, 60] and not report.failures
    for r in range(2):
        ds = generate_sample(60, "C1", replication_rng(21, r)).dataset
        for mode in config.modes:
            assert report.results[mode].bandwidth[r] == select_bandwidth(ds, mode=mode)[0]


def test_campaign_error_when_everything_fails():
    config = SimulationConfig(n=60, replications=3, contamination="C0",
                              bandwidth=0.001, modes=("classical",),
                              master_seed=5)
    with pytest.raises(CampaignError):
        run_campaign(config)


def test_summary_excludes_failures():
    beta = np.array([2.1, np.nan, 1.9, 2.0])
    mse_g = np.array([0.2, np.nan, 0.3, 0.25])
    s = _summarize(beta, mse_g)
    assert s["n_used"] == 3
    assert s["n_failed"] == 1
    assert s["mean_beta"] == pytest.approx(2.0)
    assert s["mean_mse_g"] == pytest.approx(0.25)


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(n=5)
    with pytest.raises(ValueError):
        SimulationConfig(replications=0)
    with pytest.raises(ValueError):
        SimulationConfig(contamination="bad")
    with pytest.raises(ValueError):
        SimulationConfig(bandwidth=1.0, cv_grid=(1.0,))
    with pytest.raises(ValueError):
        SimulationConfig(modes=())


@pytest.mark.parametrize("options,message", [
    ({"bandwidth": -1.0}, r"bandwidth -1.0 must lie in \(0, "),
    ({"bandwidth": 3.5}, r"bandwidth 3.5 must lie in \(0, "),
    ({"cv_grid": (0.5, 4.0)}, r"bandwidth 4.0 must lie in \(0, "),
    ({"cv_grid": ()}, "nonempty"),
], ids=["h-negative", "h-too-wide", "grid-too-wide", "grid-empty"])
def test_config_checks_bandwidth_and_grid_on_the_cylinder(options, message):
    with pytest.raises(ValueError, match=message):
        SimulationConfig(**options)


# ------------------------------------------------------------------ export

def test_boxplot_rows_shape_and_reaggregation():
    config = SimulationConfig(n=60, replications=3, contamination="C0",
                              bandwidth=1.2, modes=("classical", "robust"),
                              master_seed=29)
    report = run_campaign(config)
    rows = [line.split(",") for line in boxplot_csv(report).splitlines()[1:]]
    assert len(rows) == 6
    for mode in config.modes:
        sub = [float(r[3]) for r in rows if r[0] == mode]
        assert np.mean(sub) == pytest.approx(
            report.results[mode].summary["mean_beta"], abs=1e-12)


def test_boxplot_csv_format():
    config = SimulationConfig(n=60, replications=2, contamination="C2",
                              bandwidth=1.2, modes=("robust",), master_seed=31)
    report = run_campaign(config)
    text = boxplot_csv(report)
    lines = text.split("\n")
    assert lines[0] == "mode,contamination,replication,beta_hat"
    assert lines[1].startswith("robust,C2,0,")
    assert text.endswith("\n")
    assert "\r" not in text
    # full-precision round trip
    value = float(lines[1].split(",")[3])
    assert value == report.results["robust"].beta[0]


def test_sample_csv_round_trips_losslessly(tmp_path):
    s = generate_sample(40, "C0", replication_rng(37, 0))
    path = tmp_path / "sample.csv"
    sample_to_csv(s, path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data.shape[0] == 40
    assert np.array_equal(data["y"], s.dataset.y)
    assert np.array_equal(data["height"], s.heights)
    assert np.array_equal(np.radians(data["angle_deg"]),
                          np.radians(np.degrees(s.angles)))
