import numpy as np
import pytest

from plmanifold.errors import ConvergenceError, DegenerateScaleError, SingularDesignError
from plmanifold.plm import CLASSICAL_GM
from plmanifold.robust_linear import (
    GMConfig,
    WeightFunction,
    estimating_equation,
    gm_estimate,
    ols_estimate,
    residual_scale,
)
from plmanifold.smoother import ScoreFunction


# ------------------------------------------------------------ residual scale

def test_residual_scale_hand_case():
    assert residual_scale([-1.0, 0.0, 1.0]) == pytest.approx(1.4826, abs=1e-12)


def test_residual_scale_degenerate():
    with pytest.raises(DegenerateScaleError):
        residual_scale([3.0, 3.0, 3.0, 3.0])


def test_residual_scale_majority_ties_degenerate():
    with pytest.raises(DegenerateScaleError):
        residual_scale([0.0, 0.0, 0.0, 5.0, 7.0])


def test_residual_scale_normal_consistency():
    rng = np.random.default_rng(4)
    assert residual_scale(rng.normal(size=100_000)) == pytest.approx(1.0, abs=0.02)


def test_residual_scale_needs_two_points():
    with pytest.raises(ValueError):
        residual_scale([1.0])


# ----------------------------------------------------------------------- OLS

def test_ols_exact_linear_data():
    rng = np.random.default_rng(0)
    eta = rng.normal(size=(30, 2))
    beta0 = np.array([1.5, -2.0])
    res = ols_estimate(eta @ beta0, eta)
    assert res.beta == pytest.approx(beta0, abs=1e-10)
    assert res.residuals == pytest.approx(np.zeros(30), abs=1e-10)


def test_ols_orthogonal_response_gives_zero():
    rng = np.random.default_rng(1)
    eta = rng.normal(size=(40, 2))
    r = rng.normal(size=40)
    # project out the column space
    r = r - eta @ np.linalg.lstsq(eta, r, rcond=None)[0]
    res = ols_estimate(r, eta)
    assert res.beta == pytest.approx(np.zeros(2), abs=1e-10)


def test_ols_matches_normal_equations_oracle():
    rng = np.random.default_rng(2)
    eta = rng.normal(size=(50, 2))
    r = rng.normal(size=50)
    oracle = np.linalg.solve(eta.T @ eta, eta.T @ r)
    res = ols_estimate(r, eta)
    assert res.beta == pytest.approx(oracle, abs=1e-10)
    grad = eta.T @ (r - eta @ res.beta)
    assert np.linalg.norm(grad) < 1e-10


def test_ols_singular_design():
    eta = np.column_stack([np.ones(10), np.ones(10)])
    with pytest.raises(SingularDesignError):
        ols_estimate(np.arange(10.0), eta)


def test_design_size_checks():
    with pytest.raises(ValueError, match="more observations"):
        ols_estimate(np.array([1.0, 2.0]), np.eye(2))
    with pytest.raises(ValueError, match="length mismatch"):
        ols_estimate(np.arange(3.0), np.ones((4, 1)))


# ------------------------------------------------------------------------ GM

def test_gm_exact_linear_data_any_config():
    rng = np.random.default_rng(3)
    eta = rng.normal(size=(25, 2))
    beta0 = np.array([0.5, 2.5])
    for config in (GMConfig(), GMConfig(score=ScoreFunction.bisquare()),
                   GMConfig(w1=WeightFunction.huber())):
        res = gm_estimate(eta @ beta0, eta, config)
        assert res.beta == pytest.approx(beta0, abs=1e-10)
        assert res.residuals == pytest.approx(np.zeros(25), abs=1e-10)
        assert res.converged


def test_gm_identity_equals_ols():
    rng = np.random.default_rng(5)
    eta = rng.normal(size=(60, 3))
    r = eta @ np.array([1.0, -1.0, 0.5]) + rng.normal(0, 2, 60)
    config = GMConfig(score=ScoreFunction.identity(), w1=WeightFunction.one())
    res = gm_estimate(r, eta, config)
    ols = ols_estimate(r, eta)
    assert res.beta == pytest.approx(ols.beta, abs=1e-8)


def test_gm_location_closed_form():
    # reduces to the huber location problem with solution c/3
    eta = np.ones((4, 1))
    r = np.array([0.0, 0.0, 0.0, 10.0])
    config = GMConfig(score=ScoreFunction.huber(1.345), scale=1.0)
    res = gm_estimate(r, eta, config)
    assert res.beta[0] == pytest.approx(1.345 / 3.0, abs=1e-8)


def test_gm_estimating_equation_near_zero():
    rng = np.random.default_rng(6)
    eta = rng.normal(size=(80, 2))
    r = eta @ np.array([2.0, -1.0]) + rng.standard_t(3, 80)
    config = GMConfig()
    res = gm_estimate(r, eta, config)
    ee = estimating_equation(res, eta, config)
    assert np.linalg.norm(ee) < 1e-6


def test_gm_regression_equivariance():
    rng = np.random.default_rng(7)
    eta = rng.normal(size=(50, 2))
    r = rng.normal(size=50) + eta @ np.array([1.0, 1.0])
    b = np.array([3.0, -4.0])
    config = GMConfig()
    base = gm_estimate(r, eta, config)
    shifted = gm_estimate(r + eta @ b, eta, config)
    assert shifted.beta == pytest.approx(base.beta + b, abs=1e-8)
    assert shifted.scale == pytest.approx(base.scale, rel=1e-10)


@pytest.mark.parametrize("c", [1e-14, 1e-9, 1e8])
def test_gm_is_scale_equivariant(c):
    """gm_estimate(c r, c eta) has the same beta and c times the scale: the
    exact-fit test is relative to max|r|, so tiny residuals still iterate."""
    rng = np.random.default_rng(7)
    eta = rng.normal(size=(50, 2))
    r = rng.normal(size=50) + eta @ np.array([1.0, 1.0])
    r[:3] += 8.0  # outliers, so the M-estimate differs from least squares
    base = gm_estimate(r, eta)
    assert np.max(np.abs(base.beta - ols_estimate(r, eta).beta)) > 1e-3
    scaled = gm_estimate(c * r, c * eta)
    assert np.max(np.abs(scaled.beta - base.beta)) <= 1e-12
    assert scaled.scale / c == pytest.approx(base.scale, rel=1e-12)


def test_gm_bounded_influence_with_huber_weights():
    rng = np.random.default_rng(8)
    eta = rng.normal(size=(100, 2))
    eta[0] *= 50.0  # leverage point
    r = eta @ np.array([1.0, 2.0]) + rng.normal(size=100)
    config = GMConfig(w1=WeightFunction.huber("q95"))
    res = gm_estimate(r, eta, config)
    norms = np.linalg.norm(eta, axis=1)
    w = config.w1.weights(norms, res.w1_cutoff)
    assert np.all(w * norms <= res.w1_cutoff + 1e-12)


def test_gm_breakdown_smoke_one_huge_outlier():
    rng = np.random.default_rng(42)
    n = 50
    eta = rng.normal(size=(n, 2))
    beta0 = np.array([1.0, -2.0])
    r = eta @ beta0 + rng.normal(size=n)
    clean_gm = gm_estimate(r, eta, GMConfig())
    clean_ols = ols_estimate(r, eta)
    r_bad = r.copy()
    r_bad[0] += 1e6
    bad_gm = gm_estimate(r_bad, eta, GMConfig())
    bad_ols = ols_estimate(r_bad, eta)
    gm_move = np.linalg.norm(bad_gm.beta - clean_gm.beta)
    ols_move = np.linalg.norm(bad_ols.beta - clean_ols.beta)
    assert gm_move < 0.5
    assert ols_move > 10.0


def test_gm_nonconvergence_reports_trajectory():
    rng = np.random.default_rng(9)
    eta = rng.normal(size=(40, 1))
    r = eta[:, 0] * 2 + rng.standard_cauchy(40)
    config = GMConfig(max_iterations=1, tol=1e-14)
    with pytest.raises(ConvergenceError) as err:
        gm_estimate(r, eta, config)
    assert err.value.last_iterate is not None
    assert err.value.residual is not None


def test_gm_degenerate_scale_with_spread_responses():
    # more than half the residuals identical but the rest are not
    eta = np.ones((5, 1))
    r = np.array([0.0, 0.0, 0.0, 5.0, 7.0])
    with pytest.raises(DegenerateScaleError):
        gm_estimate(r, eta, GMConfig())


def test_gm_fixed_scale_skips_mad():
    eta = np.ones((5, 1))
    r = np.array([0.0, 0.0, 0.0, 5.0, 7.0])
    res = gm_estimate(r, eta, GMConfig(scale=1.0))
    assert np.isfinite(res.beta[0])


def test_gm_explicit_start_vector():
    rng = np.random.default_rng(11)
    eta = rng.normal(size=(40, 2))
    r = eta @ np.array([1.0, -0.5]) + rng.normal(0, 0.5, 40)
    from_ols = gm_estimate(r, eta, GMConfig())
    from_given = gm_estimate(r, eta, GMConfig(init=(0.0, 0.0)))
    assert from_given.beta == pytest.approx(from_ols.beta, abs=1e-6)


# --------------------------------------------------------------- weight fns

def test_weight_function_one_is_unit():
    w1 = WeightFunction.one()
    assert np.all(w1.weights(np.array([0.0, 1.0, 100.0])) == 1.0)


def test_weight_function_huber_cutoff_q95():
    rng = np.random.default_rng(10)
    norms = rng.uniform(0, 10, 500)
    w1 = WeightFunction.huber("q95")
    cw = w1.resolve_cutoff(norms)
    assert cw == pytest.approx(np.quantile(norms, 0.95))
    w = w1.weights(norms, cw)
    assert np.all((w > 0) & (w <= 1.0))
    assert np.all(np.abs(w * norms - np.minimum(norms, cw)) < 1e-12)


def test_weight_function_huber_gives_a_zero_norm_row_full_weight():
    # min(1, cutoff / u) at u = 0, without a division by zero
    w = WeightFunction.huber(2.0).weights(np.array([0.0, 1.0, 4.0]))
    assert w.tolist() == [1.0, 1.0, 0.5]


def test_weight_function_validation():
    with pytest.raises(ValueError):
        WeightFunction("huber", -1.0).validate()
    with pytest.raises(ValueError):
        WeightFunction("huber", "q50").validate()
    WeightFunction.huber(2.0).validate()


def test_gmconfig_validation():
    with pytest.raises(ValueError):
        GMConfig(scale=-1.0)
    with pytest.raises(ValueError):
        GMConfig(scale="median")
    with pytest.raises(ValueError):
        GMConfig(init="random")


def test_classical_config_returns_least_squares_exactly():
    rng = np.random.default_rng(31)
    eta = rng.normal(size=(60, 3))
    r = eta @ np.array([1.0, -2.0, 0.5]) + rng.standard_t(2, size=60)
    res = gm_estimate(r, eta, CLASSICAL_GM)
    assert np.array_equal(res.beta, ols_estimate(r, eta).beta)
