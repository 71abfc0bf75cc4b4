"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The Monte Carlo protocol for the Table-reproduction criterion fixes,
per contamination and mode, the bandwidth selected by a single
cross-validation run on replication 0, then runs 100 replications at that
fixed bandwidth.

The criterion-2 classical-breakdown checks are relative: least squares must
lose to its own C0 error and to the robust fit, not cross an absolute MSE.
Contamination enters the response only, so MSE(beta_LS) scales with Var(eps),
which C1 inflates by a factor 3.40 and C2 by 3.175 over C0.
"""

import math

import numpy as np

import plmanifold as pm
from plmanifold.bandwidth import default_grid, rcv_score, select_bandwidth
from plmanifold.inference import confidence_interval, estimate_covariance, wald_test
from plmanifold.manifold import cross_distances, cylinder_coords
from plmanifold.plm import PLMDataset, fit
from plmanifold.robust_linear import GMConfig, WeightFunction
from plmanifold.simulation import (
    SimulationConfig,
    generate_sample,
    replication_rng,
    run_campaign,
)
from plmanifold.smoother import (
    LocalFitConfig,
    ScoreFunction,
    local_m_estimate,
    fit_smoother,
)
from conftest import random_cylinder_dataset, random_weights

MASTER_SEED = 2025
REPLICATIONS = 100
N = 200

_campaign_cache = {}


def campaign(contamination, mode):
    """100-replication campaign at the bandwidth picked on replication 0."""
    key = (contamination, mode)
    if key not in _campaign_cache:
        rep0 = generate_sample(N, contamination, replication_rng(MASTER_SEED, 0))
        h, _ = select_bandwidth(rep0.dataset, default_grid(rep0.dataset), mode=mode)
        config = SimulationConfig(n=N, replications=REPLICATIONS,
                                  contamination=contamination, bandwidth=h,
                                  modes=(mode,), master_seed=MASTER_SEED)
        report = run_campaign(config)
        _campaign_cache[key] = (h, report.results[mode].summary)
    return _campaign_cache[key]


def report_line(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# ----------------------------------------------------------------- 1

def test_criterion_1_degeneracy_oracle():
    """Robust pipeline with identity score equals the classical pipeline."""
    worst_beta = 0.0
    worst_g = 0.0
    smoother = LocalFitConfig(score=ScoreFunction.identity())
    gm = GMConfig(score=ScoreFunction.identity(), w1=WeightFunction.one())
    for seed in range(20):
        ds, _ = random_cylinder_dataset(seed, n=50, p=2)
        f_r = fit(ds, 1.2, mode="robust", smoother=smoother, gm=gm)
        f_c = fit(ds, 1.2, mode="classical")
        worst_beta = max(worst_beta, float(np.max(np.abs(f_r.beta - f_c.beta))))
        worst_g = max(worst_g, float(np.max(np.abs(f_r.g_hat - f_c.g_hat))))
    ok = worst_beta < 1e-8 and worst_g < 1e-8
    report_line("1 degeneracy-oracle", ok,
                f"max |dbeta|={worst_beta:.2e}, max |dg|={worst_g:.2e} over 20 datasets")
    assert worst_beta < 1e-8
    assert worst_g < 1e-8


# ----------------------------------------------------------------- 2

def test_criterion_2_c0_reproduction():
    h_r, rob = campaign("C0", "robust")
    h_c, cls = campaign("C0", "classical")
    ok = (1.95 <= rob["mean_beta"] <= 2.10 and 0.10 <= rob["sd_beta"] <= 0.20
          and 1.95 <= cls["mean_beta"] <= 2.15 and rob["mean_mse_g"] < 0.6)
    report_line("2 C0", ok,
                f"robust mean={rob['mean_beta']:.4f} sd={rob['sd_beta']:.4f} "
                f"mse_g={rob['mean_mse_g']:.4f} (h={h_r:.3f}); "
                f"classical mean={cls['mean_beta']:.4f} (h={h_c:.3f})")
    assert 1.95 <= rob["mean_beta"] <= 2.10
    assert 0.10 <= rob["sd_beta"] <= 0.20
    assert 1.95 <= cls["mean_beta"] <= 2.15
    assert rob["mean_mse_g"] < 0.6


def test_criterion_2_c1_robust():
    h_r, rob = campaign("C1", "robust")
    ok = rob["mse_beta"] < 0.15
    report_line("2 C1 robust", ok,
                f"MSE(beta_R)={rob['mse_beta']:.4f} < 0.15 (h={h_r:.3f})")
    assert rob["mse_beta"] < 0.15


def classical_breakdown(contamination, theory_inflation, theory_ratio, min_ratio):
    """MSE_LS(Cx) / MSE_LS(C0) and MSE_LS(Cx) / MSE_R(Cx), with a report line."""
    h_c, cls = campaign(contamination, "classical")
    _, cls0 = campaign("C0", "classical")
    _, rob = campaign(contamination, "robust")
    inflation = cls["mse_beta"] / cls0["mse_beta"]
    ratio = cls["mse_beta"] / rob["mse_beta"]
    report_line(f"2 {contamination} classical", inflation > 2 and ratio > min_ratio,
                f"MSE_LS({contamination})/MSE_LS(C0)={inflation:.2f} "
                f"(theory {theory_inflation:.2f}, need >2), "
                f"MSE_LS/MSE_R={ratio:.2f} (theory {theory_ratio:.2f}, "
                f"need >{min_ratio}) (h={h_c:.3f})")
    return inflation, ratio


def test_criterion_2_c1_classical_breakdown():
    """LS breaks down under C1 against its own C0 error and the robust fit.

    The contamination hits the response only and eta = x - E(x | t) is
    independent of the error, so beta_LS stays unbiased with
    Var(beta_LS) ~ Var(eps) / (n Var(eta)), Var(eta) = X_NOISE_SD^2 = 0.25.
    C0 gives 1 / (200 * 0.25) = 0.020.  C1 mixes 0.9 N(0, 1) + 0.1 N(0, 25),
    so Var(eps) = 0.9 + 0.1 * 25 = 3.40 and MSE(LS) inflates 3.40-fold over
    C0.  Huber(1.345) with a MAD scale has asymptotic variance
    sigma^2 E psi^2 / (E psi')^2 = 1.378 under C1, so LS/R ~ 3.40 / 1.378
    = 2.47 (Huber 1964, Ann. Math. Stat. 35).  An MSE ratio over 100
    replications has a relative Monte Carlo standard error near 0.2, so the
    thresholds sit about two standard errors below theory: inflation > 2
    and LS/R > 1.5.  Seeds 2025 and 1-7 measured inflation 2.70-4.42 and
    LS/R 1.90-2.75.  Without contamination the inflation falls to ~1; with
    the robust path degenerated to LS the ratio falls to ~1.
    """
    inflation, ratio = classical_breakdown("C1", 3.40, 2.47, 1.5)
    assert inflation > 2
    assert ratio > 1.5


def test_criterion_2_c2_robust():
    h_r, rob = campaign("C2", "robust")
    ok = rob["mse_beta"] < 0.20
    report_line("2 C2 robust", ok,
                f"MSE(beta_R)={rob['mse_beta']:.4f} < 0.20 (h={h_r:.3f})")
    assert rob["mse_beta"] < 0.20


def test_criterion_2_c2_classical_breakdown():
    """LS breaks down under C2 against its own C0 error and the robust fit.

    As for C1, Var(beta_LS) ~ Var(eps) / (n Var(eta)) with Var(eta) = 0.25.
    C2 mixes 0.9 N(0, 1) + 0.1 N(5, 0.25), so
    Var(eps) = 0.9 + 0.1 * (25 + 0.25) - 0.5^2 = 3.175 and MSE(LS) inflates
    3.18-fold over C0.  The shift goes into the intercept of g; beta sees
    only the variance.  Huber(1.345) with a MAD scale has asymptotic
    variance 1.583 under C2, so LS/R ~ 3.175 / 1.583 = 2.00.  The measured
    ratio sits below that because the local scale is taken on y rather than
    on eps.  Thresholds: inflation > 2 (about two Monte Carlo standard
    errors of a 100-replication MSE ratio below 3.18) and LS/R > 1.25.
    Seeds 2025 and 1-7 measured inflation 2.73-4.00 and LS/R 1.44-1.88.
    """
    inflation, ratio = classical_breakdown("C2", 3.18, 2.00, 1.25)
    assert inflation > 2
    assert ratio > 1.25


def test_criterion_2_c0_efficiency_gap():
    # classical and robust agree closely under clean errors
    _, rob = campaign("C0", "robust")
    _, cls = campaign("C0", "classical")
    gap = abs(rob["mean_beta"] - cls["mean_beta"])
    ok = gap < 0.05
    report_line("2 C0 closeness", ok, f"|mean_R - mean_ls| = {gap:.4f} < 0.05")
    assert gap < 0.05


# ----------------------------------------------------------------- 3

def test_criterion_3_local_m_solver():
    rng = np.random.default_rng(303)
    score = ScoreFunction.huber(1.345)
    worst = 0.0
    for _ in range(200):
        n = rng.integers(2, 40)
        w = random_weights(rng, n)
        v = rng.normal(0.0, rng.uniform(0.5, 3.0), n)
        scale = rng.uniform(0.5, 2.0)
        est = local_m_estimate(w, v, score, scale=scale)
        worst = max(worst, abs(float(w @ score.psi((v - est) / scale))))
    closed = local_m_estimate(np.full(4, 0.25), np.array([0.0, 0.0, 0.0, 10.0]),
                              score, scale=1.0)
    closed_err = abs(closed - 1.345 / 3.0)
    ok = worst < 1e-8 and closed_err < 1e-9
    report_line("3 local-M-solver", ok,
                f"max |score eq|={worst:.2e} over 200 problems; "
                f"closed-form error={closed_err:.2e}")
    assert worst < 1e-8
    assert closed_err < 1e-9


# ----------------------------------------------------------------- 4

def test_criterion_4_equivariance_suite():
    rng = np.random.default_rng(44)
    cyl = pm.Manifold.cylinder((0.0, 1.0))
    n = 50
    sample = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
    values = rng.normal(size=n)
    cfg = LocalFitConfig()

    base = fit_smoother(cyl, 1.0, sample, values, sample, cfg)
    shift_err = float(np.max(np.abs(
        fit_smoother(cyl, 1.0, sample, values + 4.2, sample, cfg) - base - 4.2)))
    scale_err = float(np.max(np.abs(
        fit_smoother(cyl, 1.0, sample, 2.5 * values, sample, cfg) - 2.5 * base)))

    ds, _ = random_cylinder_dataset(45, n=45, p=2)
    fit_shift_err = 0.0
    for mode in ("robust", "classical"):
        f0 = fit(ds, 1.2, mode=mode)
        f1 = fit(PLMDataset(ds.y + 7.5, ds.x, ds.t, ds.manifold), 1.2, mode=mode)
        fit_shift_err = max(
            fit_shift_err,
            float(np.max(np.abs(f1.beta - f0.beta))),
            float(np.max(np.abs(f1.g_hat - f0.g_hat - 7.5))),
        )

    b = np.array([1.5, -2.5])
    f0 = fit(ds, 1.2, mode="classical")
    f1 = fit(PLMDataset(ds.y + ds.x @ b, ds.x, ds.t, ds.manifold), 1.2,
             mode="classical")
    reg_err = float(np.max(np.abs(f1.beta - f0.beta - b)))

    ok = max(shift_err, scale_err, fit_shift_err, reg_err) < 1e-8
    report_line("4 equivariance", ok,
                f"smoother shift={shift_err:.2e} scale={scale_err:.2e}, "
                f"fit shift={fit_shift_err:.2e}, classical regression={reg_err:.2e}")
    assert shift_err < 1e-8
    assert scale_err < 1e-8
    assert fit_shift_err < 1e-8
    assert reg_err < 1e-8


# ----------------------------------------------------------------- 5

def test_criterion_5_robust_cv_boundedness():
    s = generate_sample(100, "C0", replication_rng(505, 0))
    ds = s.dataset
    y_bad = ds.y.copy()
    y_bad[0] += 1e6
    ds_bad = PLMDataset(y_bad, ds.x, ds.t, ds.manifold)
    grid = default_grid(ds)
    cv = ScoreFunction.huber(1.345)
    bound = ds.n * cv.c ** 2
    identity = ScoreFunction.identity()

    max_robust_change = 0.0
    min_classical_change = math.inf
    for h in grid.values:
        r0 = rcv_score(ds, h, cv_score=cv)
        r1 = rcv_score(ds_bad, h, cv_score=cv)
        max_robust_change = max(max_robust_change, abs(r1 - r0))
        c0 = rcv_score(ds, h, smoother=LocalFitConfig(score=identity),
                       gm=GMConfig(score=identity), cv_score=identity)
        c1 = rcv_score(ds_bad, h, smoother=LocalFitConfig(score=identity),
                       gm=GMConfig(score=identity), cv_score=identity)
        min_classical_change = min(min_classical_change, c1 - c0)
    ok = max_robust_change <= bound and min_classical_change > 1e6
    report_line("5 RCV-boundedness", ok,
                f"max robust change={max_robust_change:.1f} <= {bound:.1f}; "
                f"min classical change={min_classical_change:.3g} > 1e6")
    assert max_robust_change <= bound
    assert min_classical_change > 1e6


# ----------------------------------------------------------------- 6

def test_criterion_6_coverage_and_duality():
    rep0 = generate_sample(N, "C0", replication_rng(MASTER_SEED, 0))
    h, _ = select_bandwidth(rep0.dataset, default_grid(rep0.dataset), mode="robust")
    covered = 0
    total = 200
    for r in range(total):
        s = generate_sample(N, "C0", replication_rng(MASTER_SEED, r))
        f = fit(s.dataset, h, mode="robust")
        cov = estimate_covariance(f)
        lo, hi = confidence_interval(f.beta, cov, 0.95)[0]
        if lo <= 2.0 <= hi:
            covered += 1
    coverage = covered / total

    rng = np.random.default_rng(606)
    duality_ok = True
    for _ in range(100):
        beta = rng.normal()
        se = rng.uniform(0.01, 2.0)
        b0 = rng.normal()
        level = rng.uniform(0.5, 0.99)
        cov = pm.AsymptoticCovariance(np.eye(1), np.eye(1),
                                      np.array([[se ** 2]]), np.array([se]),
                                      1.0, 100)
        _, p = wald_test(np.array([beta]), cov, b0)
        lo, hi = confidence_interval(np.array([beta]), cov, level)[0]
        if (p < 1.0 - level) != (b0 < lo or b0 > hi):
            duality_ok = False
    ok = coverage >= 0.88 and duality_ok
    report_line("6 coverage", ok,
                f"95% CI covered beta=2 in {coverage:.1%} of {total} "
                f"replications (need >= 88%); duality exact={duality_ok}")
    assert coverage >= 0.88
    assert duality_ok


# ----------------------------------------------------------------- 7

def test_criterion_7_geometry_suite():
    rng = np.random.default_rng(707)
    cyl = pm.Manifold.cylinder((0.0, 1.0))
    th1, th2 = rng.uniform(0, 2 * np.pi, (2, 1000))
    s1, s2 = rng.uniform(0, 1, (2, 1000))
    a = cylinder_coords(th1, s1)
    b = cylinder_coords(th2, s2)
    d = cross_distances(cyl, a, b).diagonal()
    delta = np.abs(th1 - th2)
    arc = np.minimum(delta, 2 * np.pi - delta)
    pythag_err = float(np.max(np.abs(d - np.hypot(arc, s1 - s2))))

    from test_manifold import sphere_exponential_map_jacobian

    sph = pm.Manifold.sphere()
    density_err = 0.0
    for r in np.linspace(0.05, 2.95, 50):
        fd = sphere_exponential_map_jacobian(float(r))
        got = float(pm.manifold.volume_density_from_distance(sph, np.asarray(r)))
        density_err = max(density_err, abs(got - fd))

    ok = pythag_err < 1e-10 and density_err < 1e-4
    report_line("7 geometry", ok,
                f"cylinder Pythagoras max err={pythag_err:.2e}; "
                f"sphere density vs finite-difference Jacobian max err={density_err:.2e}")
    assert pythag_err < 1e-10
    assert density_err < 1e-4
