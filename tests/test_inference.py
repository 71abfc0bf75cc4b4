import math

import numpy as np
import pytest
from scipy.special import chdtrc, ndtr, ndtri
from scipy.stats import chi2, norm

from plmanifold.errors import DegenerateTestError, SingularMatrixError
from plmanifold.inference import (
    AsymptoticCovariance,
    _sym,
    chi2_sf,
    confidence_interval,
    estimate_covariance,
    normal_two_sided_p,
    wald_test,
)
from plmanifold.manifold import Manifold, cylinder_coords
from plmanifold.plm import PLMDataset, PLMFit, fit
from plmanifold.robust_linear import GMConfig, RegressionResult, WeightFunction, slope_sum
from plmanifold.smoother import ScoreFunction
from conftest import random_cylinder_dataset

CYL = Manifold.cylinder()


def make_fit(eta, eps, scale, gm=None):
    """Assemble a PLMFit directly so covariance formulas can be hand-checked:
    the regression step solved on the design ``eta`` with its w1 weights."""
    eta = np.asarray(eta, dtype=float)
    if eta.ndim == 1:
        eta = eta[:, None]
    n, p = eta.shape
    gm = gm or GMConfig()
    rng = np.random.default_rng(0)
    t = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
    ds = PLMDataset(np.zeros(n), eta, t, CYL)
    reg = RegressionResult(np.zeros(p), scale, np.asarray(eps, dtype=float), 1, eta,
                           gm.w1.weights(np.linalg.norm(eta, axis=1)))
    return PLMFit(
        beta=np.zeros(p), phi0_hat=np.zeros(n), phi_hat=np.zeros((n, p)),
        g_hat=np.zeros(n), bandwidth=1.0, degenerate_windows=[], regression=reg, dataset=ds,
        local_score=ScoreFunction.huber(),
        gm_config=gm,
    )


def test_hand_case_unit_design_alternating_residuals():
    n = 20
    s = 0.7
    eps = s * np.tile([1.0, -1.0], n // 2)
    f = make_fit(np.ones(n), eps, s)
    cov = estimate_covariance(f)
    assert cov.A_hat[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert cov.Sigma_hat[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert cov.V_hat[0, 0] == pytest.approx(s ** 2 / n, abs=1e-12)


def test_identity_reduction_matches_ols_covariance_formula():
    for seed in range(5):
        ds, _ = random_cylinder_dataset(seed, n=50, p=2)
        f = fit(ds, 1.2, mode="classical")
        cov = estimate_covariance(f)
        eta = ds.x - f.phi_hat
        eps = f.regression.residuals
        oracle = float(np.mean(eps ** 2)) * np.linalg.inv(eta.T @ eta)
        assert cov.V_hat == pytest.approx(oracle, abs=1e-8)


def test_covariance_invariants_on_fitted_model():
    ds, _ = random_cylinder_dataset(21, n=60, p=2)
    f = fit(ds, 1.2, mode="robust")
    cov = estimate_covariance(f)
    assert cov.A_hat == pytest.approx(cov.A_hat.T, abs=1e-10)
    assert cov.Sigma_hat == pytest.approx(cov.Sigma_hat.T, abs=1e-10)
    eig = np.linalg.eigvalsh(cov.V_hat)
    assert np.all(eig > -1e-10)
    Ainv = np.linalg.inv(cov.A_hat)
    recon = cov.scale ** 2 * Ainv @ cov.Sigma_hat @ Ainv / cov.n_obs
    assert cov.V_hat == pytest.approx(recon, abs=1e-12)


def test_covariance_with_mallows_weights():
    ds, _ = random_cylinder_dataset(22, n=60, p=2)
    gm = GMConfig(w1=WeightFunction.huber("q95"))
    f = fit(ds, 1.2, mode="robust", gm=gm)
    cov = estimate_covariance(f)
    assert np.all(np.isfinite(cov.se))
    assert np.all(cov.se > 0)


def test_covariance_weights_rows_at_the_cutoff_the_fit_resolved():
    """w1 in A and Sigma are the regression step's weights, not a fresh w1 of
    the norms at their 0.95 quantile."""
    rng = np.random.default_rng(3)
    eta = rng.normal(size=40)
    eps = rng.normal(size=40)
    f = make_fit(eta, eps, 1.0, gm=GMConfig(w1=WeightFunction.huber("q95")))
    norms = np.abs(eta)
    w = f.regression.weights = np.minimum(1.0, float(np.median(norms)) / norms)
    cov = estimate_covariance(f)
    psi = np.clip(eps, -1.345, 1.345)
    assert cov.A_hat[0, 0] == pytest.approx(np.mean((np.abs(eps) < 1.345) * w * eta ** 2),
                                            rel=1e-12)
    assert cov.Sigma_hat[0, 0] == pytest.approx(np.mean(psi ** 2) * np.mean(w ** 2 * eta ** 2),
                                                rel=1e-12)


@pytest.mark.parametrize("score", [ScoreFunction.huber(), ScoreFunction.bisquare()],
                         ids=["huber", "bisquare"])
@pytest.mark.parametrize("c", [1.0, 1e3, 1e6, 1e9])
def test_noise_free_robust_fit_has_zero_se_in_any_units(score, c):
    # the regression step's exact-fit verdict is relative to the data, and
    # the covariance takes it as given: se = 0 whatever the units of y
    rng = np.random.default_rng(3)
    n = 40
    t = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
    x = rng.normal(size=n)
    fitted = fit(PLMDataset(2.0 * c * x, x, t, CYL), 1.5, local_score=score,
                 gm=GMConfig(score=score))
    assert fitted.regression.scale == 0.0
    assert np.all(estimate_covariance(fitted).se == 0.0)


@pytest.mark.parametrize("gm", [GMConfig(), GMConfig(score=ScoreFunction.bisquare(),
                                                   w1=WeightFunction.huber("q95"))],
                         ids=["huber", "bisquare-q95"])
def test_A_is_the_slope_sum_of_the_fit_over_n(gm):
    """A_hat = (1/n) sum_i w1(||eta_i||) psi'(e_i / s) eta_i eta_i', row by row."""
    ds, _ = random_cylinder_dataset(8, n=120, p=2)
    f = fit(ds, 1.2, gm=gm)
    eta = f.regression.design
    cutoff = np.quantile(np.linalg.norm(eta, axis=1), 0.95)
    c = gm.score.c
    A = np.zeros((2, 2))
    for e, row in zip(f.regression.residuals / f.regression.scale, eta):
        if gm.score.code == 1:
            slope = float(abs(e) < c)
        else:
            slope = (1 - (e / c) ** 2) * (1 - 5 * (e / c) ** 2) if abs(e) < c else 0.0
        norm = np.linalg.norm(row)
        w = 1.0 if gm.w1.name == "one" else min(1.0, cutoff / norm)
        A += w * slope * np.outer(row, row)
    assert np.allclose(estimate_covariance(f).A_hat, A / ds.n, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("mode,gm", [
    ("classical", None), ("robust", GMConfig()),
    ("robust", GMConfig(score=ScoreFunction.bisquare(), w1=WeightFunction.huber("q95")))],
    ids=["classical", "huber", "bisquare-q95"])
def test_the_sandwich_reads_only_what_the_regression_solved_on(mode, gm):
    """Zeroing the covariates after the fit changes no standard error: the
    sandwich sums over the regression's own design rows and weights."""
    ds, _ = random_cylinder_dataset(8, n=120, p=2)
    f = fit(ds, 1.2, mode=mode, gm=gm)
    se = estimate_covariance(f).se
    f.dataset.x = np.zeros_like(f.dataset.x)
    assert np.array_equal(estimate_covariance(f).se, se)


def test_A_sums_over_the_regression_weights():
    """A row's weight, scaled in the regression result, is the weight A uses."""
    gm = GMConfig(score=ScoreFunction.bisquare(), w1=WeightFunction.huber("q95"))
    ds, _ = random_cylinder_dataset(8, n=120, p=2)
    f = fit(ds, 1.2, gm=gm)
    reg = f.regression
    reg.weights = reg.weights.copy()
    reg.weights[7] *= 0.25
    u = reg.residuals / reg.scale
    A = _sym(slope_sum(reg.design, u, gm.score, reg.weights) / ds.n)
    assert np.array_equal(estimate_covariance(f).A_hat, A)


def test_a_fit_with_no_linear_part_has_no_covariance():
    rng = np.random.default_rng(6)
    n = 30
    t = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
    f = fit(PLMDataset(rng.normal(size=n), np.zeros((n, 0)), t, CYL), 1.2)
    with pytest.raises(ValueError, match="^the fit has no linear coefficients$"):
        estimate_covariance(f)


def test_singular_A_detected():
    rng = np.random.default_rng(1)
    col = rng.normal(size=20)
    eta = np.column_stack([col, col])  # rank 1 design
    f = make_fit(eta, rng.normal(size=20), 1.0)
    with pytest.raises(SingularMatrixError):
        estimate_covariance(f)


# -------------------------------------------------------------------- CI

def test_confidence_interval_quantile_arithmetic():
    cov = AsymptoticCovariance(np.eye(1), np.eye(1), np.array([[0.01]]),
                               np.array([0.1]), 1.0, 100)
    ci = confidence_interval(np.array([2.0]), cov, 0.95)
    assert ci[0] == pytest.approx([1.8040036, 2.1959964], abs=1e-6)


def test_confidence_interval_zero_se_degenerates():
    cov = AsymptoticCovariance(np.eye(1), np.zeros((1, 1)), np.zeros((1, 1)),
                               np.array([0.0]), 0.0, 50)
    ci = confidence_interval(np.array([3.0]), cov, 0.95)
    assert ci[0, 0] == ci[0, 1] == 3.0


def test_confidence_interval_level_validation():
    cov = AsymptoticCovariance(np.eye(1), np.eye(1), np.eye(1), np.array([1.0]), 1.0, 10)
    with pytest.raises(ValueError):
        confidence_interval(np.array([0.0]), cov, 1.0)


def test_confidence_interval_is_finite_next_to_level_one():
    """0.5 + level/2 rounds to 1 here; the tail (1 - level)/2 does not."""
    level = math.nextafter(1.0, 0.0)
    ci = confidence_interval(np.array([1.0]), _cov1(0.5), level)
    assert np.all(np.isfinite(ci))
    assert (ci[0, 1] - 1.0) / 0.5 == pytest.approx(norm.isf((1.0 - level) / 2), rel=1e-15)


def test_interval_quantile_matches_scipy():
    """With beta = 0 and se = 1 the upper end is the quantile itself; for
    level = 2q - 1 (exact for q >= 0.5) it is Phi^{-1}(q)."""
    q = np.concatenate([np.linspace(0.5005, 1.0 - 1e-7, 2001),
                        1.0 - np.geomspace(1e-7, 0.4995, 200)])
    hi = np.array([confidence_interval(np.zeros(1), _cov1(1.0), 2.0 * qi - 1.0)[0, 1]
                   for qi in q])
    assert hi == pytest.approx(ndtri(q), rel=1e-15)
    assert hi == pytest.approx(norm.ppf(q), rel=1e-15)


def test_interval_width_scales_with_quantile():
    cov = AsymptoticCovariance(np.eye(1), np.eye(1), np.array([[0.04]]),
                               np.array([0.2]), 1.0, 100)
    beta = np.array([1.0])
    w90 = np.diff(confidence_interval(beta, cov, 0.90))[0, 0]
    w99 = np.diff(confidence_interval(beta, cov, 0.99))[0, 0]
    assert w99 / w90 == pytest.approx(norm.ppf(0.995) / norm.ppf(0.95), rel=1e-12)


# ------------------------------------------------------------------ Wald

def _cov1(se):
    return AsymptoticCovariance(np.eye(1), np.eye(1), np.array([[se ** 2]]),
                                np.array([se]), 1.0, 100)


def test_wald_at_null_is_zero():
    stat, p = wald_test(np.array([2.0]), _cov1(0.1), 2.0)
    assert stat == 0.0
    assert p == 1.0


def test_wald_two_sigma():
    stat, p = wald_test(np.array([2.0]), _cov1(0.1), 1.8)
    assert stat == pytest.approx(2.0, abs=1e-12)
    assert p == pytest.approx(0.0455, abs=1e-4)
    assert p == pytest.approx(2 * norm.sf(2.0), abs=1e-12)


def test_normal_tail_matches_scipy():
    z = np.linspace(-37.0, 37.0, 7401)
    p = np.array([normal_two_sided_p(float(zi)) for zi in z])
    assert p == pytest.approx(2.0 * ndtr(-np.abs(z)), rel=5e-13)
    assert p == pytest.approx(2.0 * norm.sf(np.abs(z)), rel=5e-13)


@pytest.mark.parametrize("p", range(1, 12))
def test_chi2_tail_matches_scipy(p):
    x = np.concatenate([[0.0], np.geomspace(1e-6, 400.0, 1000)])
    tail = np.array([chi2_sf(float(xi), p) for xi in x])
    assert tail[0] == 1.0
    assert tail == pytest.approx(chdtrc(p, x), rel=1e-13)
    assert tail == pytest.approx(chi2.sf(x, p), rel=1e-13)


@pytest.mark.parametrize("p", [1600, 2000])
def test_chi2_tail_where_the_exponential_underflows(p):
    """At x = p the tail is near 1/2, but e^{-x/2} is below the smallest double."""
    assert math.exp(-p / 2) == 0.0
    assert chi2_sf(float(p), p) == pytest.approx(chdtrc(p, p), rel=1e-10)
    assert chi2_sf(float(p), p) == pytest.approx(chi2.sf(p, p), rel=1e-10)


@pytest.mark.parametrize("p", range(1, 12))
def test_wald_p_value_is_one_at_the_null(p):
    V = np.diag(np.linspace(0.5, 2.0, p))
    cov = AsymptoticCovariance(np.eye(p), np.eye(p), V, np.sqrt(np.diag(V)), 1.0, 100)
    beta = np.linspace(-1.0, 1.0, p)
    stat, pval = wald_test(beta, cov, beta)
    assert stat == 0.0
    assert pval == 1.0


def test_wald_zero_se_raises():
    with pytest.raises(DegenerateTestError):
        wald_test(np.array([2.0]), _cov1(0.0), 1.0)


def test_wald_ci_duality_on_random_instances():
    rng = np.random.default_rng(100)

    def check(beta, se, b0, level):
        cov = _cov1(se)
        _, p = wald_test(np.array([beta]), cov, b0)
        lo, hi = confidence_interval(np.array([beta]), cov, level)[0]
        rejected = p < 1.0 - level
        outside = (b0 < lo) or (b0 > hi)
        assert rejected == outside, (beta, se, b0, level)

    for _ in range(100):
        check(rng.normal(), rng.uniform(0.01, 2.0), rng.normal(), rng.uniform(0.5, 0.99))
    # levels up to 1 - 1e-12, with the null a relative distance of 1e-10 to
    # 1e-1 inside or outside the interval's end
    for _ in range(400):
        beta, se = rng.normal(), rng.uniform(0.01, 2.0)
        level = 1.0 - 10.0 ** -rng.uniform(0.3, 12.0)
        z = norm.isf((1.0 - level) / 2)
        offset = rng.choice([-1.0, 1.0]) * 10.0 ** -rng.uniform(1.0, 10.0)
        check(beta, se, beta + rng.choice([-1.0, 1.0]) * z * (1.0 + offset) * se, level)


def test_wald_joint_quadratic_form():
    V = np.array([[0.04, 0.01], [0.01, 0.09]])
    cov = AsymptoticCovariance(np.eye(2), np.eye(2), V, np.sqrt(np.diag(V)), 1.0, 100)
    beta = np.array([1.0, 2.0])
    null = np.array([0.8, 2.2])
    stat, p = wald_test(beta, cov, null)
    d = beta - null
    assert stat == pytest.approx(float(d @ np.linalg.solve(V, d)), abs=1e-12)
    assert p == pytest.approx(chi2.sf(stat, 2), rel=1e-13)
    assert p == pytest.approx(math.exp(-stat / 2), rel=1e-13)
    stat0, p0 = wald_test(beta, cov, beta)
    assert stat0 == 0.0 and p0 == 1.0


def test_joint_wald_test_on_a_singular_covariance_raises():
    V = np.array([[0.04, 0.04], [0.04, 0.04]])  # rank 1
    cov = AsymptoticCovariance(np.eye(2), np.eye(2), V, np.sqrt(np.diag(V)), 1.0, 100)
    with pytest.raises(SingularMatrixError, match="^covariance matrix is numerically singular$"):
        wald_test(np.array([1.0, 2.0]), cov, np.array([0.8, 2.2]))


@pytest.mark.parametrize("beta,null", [
    ([2.0], [1e308]),                   # the z statistic is -inf
    ([1.0, 2.0], [1e300, -1e300]),      # d' V^-1 d overflows to inf
], ids=["z", "joint"])
def test_wald_overflowing_statistic_raises(beta, null):
    V = np.array([[0.01]]) if len(beta) == 1 else np.array([[0.04, 0.01], [0.01, 0.09]])
    cov = AsymptoticCovariance(V, V, V, np.sqrt(np.diag(V)), 1.0, 100)
    with pytest.raises(DegenerateTestError, match="Wald statistic -?inf"):
        wald_test(np.array(beta), cov, np.array(null))  # RuntimeWarnings are errors here


# --------------------------------------------------- pinned regression run

def test_pinned_covariance_on_seeded_fit():
    from plmanifold.simulation import generate_sample, replication_rng

    s = generate_sample(120, "C0", replication_rng(55, 0))
    f = fit(s.dataset, 0.9, mode="robust")
    cov = estimate_covariance(f)
    # frozen from the first verified run; guards against silent drift
    assert f.beta[0] == pytest.approx(1.9520161500709134, rel=1e-6)
    assert cov.se[0] == pytest.approx(0.19551383268596167, rel=1e-4)
