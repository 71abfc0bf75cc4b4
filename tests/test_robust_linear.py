import dataclasses

import numpy as np
import pytest

from plmanifold import robust_linear
from plmanifold.errors import ConvergenceError, DegenerateScaleError, SingularDesignError
from plmanifold.plm import CLASSICAL_GM
from plmanifold.robust_linear import (
    GMConfig,
    WeightFunction,
    gm_estimate,
    ols_estimate,
    residual_scale,
    residual_scale_or_zero,
)
from plmanifold.smoother import ScoreFunction


# ------------------------------------------------------------ residual scale

def test_residual_scale_hand_case():
    assert residual_scale([-1.0, 0.0, 1.0]) == pytest.approx(1.4826, abs=1e-12)


def test_residual_scale_degenerate():
    with pytest.raises(DegenerateScaleError):
        residual_scale([3.0, 3.0, 3.0, 3.0])


def test_residual_scale_or_zero_is_zero_only_where_the_mad_is():
    assert residual_scale_or_zero([3.0, 3.0, 3.0, 3.0]) == 0.0
    assert residual_scale_or_zero([-1.0, 0.0, 1.0]) == residual_scale([-1.0, 0.0, 1.0])


def test_residual_scale_majority_ties_degenerate():
    with pytest.raises(DegenerateScaleError):
        residual_scale([0.0, 0.0, 0.0, 5.0, 7.0])


def test_residual_scale_normal_consistency():
    rng = np.random.default_rng(4)
    assert residual_scale(rng.normal(size=100_000)) == pytest.approx(1.0, abs=0.02)


def test_residual_scale_needs_two_points():
    with pytest.raises(ValueError):
        residual_scale([1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_residual_scale_names_the_first_residual_that_is_not_finite(bad):
    with pytest.raises(ValueError, match=f"residual 2 is not finite: {bad}"):
        residual_scale([0.5, -1.0, bad, 2.0, bad])


@pytest.mark.parametrize("where", ["response", "design"])
def test_gm_names_the_first_row_that_is_not_finite(where):
    rng = np.random.default_rng(9)
    r, eta = rng.normal(size=20), rng.normal(size=(20, 2))
    if where == "response":
        r[[4, 11]] = np.inf
    else:
        eta[4, 1], r[11] = -np.inf, np.nan
    with pytest.raises(ValueError, match="^row 4: responses and design must be finite$"):
        gm_estimate(r, eta, GMConfig())


def test_residual_scale_is_the_numpy_median_mad_bit_for_bit():
    res = np.random.default_rng(8).standard_t(3, size=201)
    for r in (res, res[:200]):
        want = 1.4826 * float(np.median(np.abs(r - np.median(r))))
        assert residual_scale(r) == want


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


def test_gm_identity_equals_ols():
    rng = np.random.default_rng(5)
    eta = rng.normal(size=(60, 3))
    r = eta @ np.array([1.0, -1.0, 0.5]) + rng.normal(0, 2, 60)
    config = GMConfig(score=ScoreFunction.identity(), w1=WeightFunction.one())
    res = gm_estimate(r, eta, config)
    ols = ols_estimate(r, eta)
    assert res.beta == pytest.approx(ols.beta, abs=1e-8)


@pytest.mark.parametrize("config", [CLASSICAL_GM, GMConfig(),
                                    GMConfig(score=ScoreFunction.bisquare(),
                                             w1=WeightFunction.huber("q95"))],
                         ids=["classical", "huber", "bisquare-q95"])
def test_the_step_records_the_design_and_weights_it_solved_with(config):
    rng = np.random.default_rng(12)
    eta = rng.normal(size=(60, 2))
    r = eta @ np.array([1.0, -1.0]) + rng.standard_t(3, 60)
    res = gm_estimate(r, eta, config)
    assert np.array_equal(res.design, eta)
    assert np.array_equal(res.weights, config.w1.weights(np.linalg.norm(eta, axis=1)))


def test_gm_estimating_equation_near_zero():
    rng = np.random.default_rng(6)
    eta = rng.normal(size=(80, 2))
    r = eta @ np.array([2.0, -1.0]) + rng.standard_t(3, 80)
    config = GMConfig()
    res = gm_estimate(r, eta, config)
    # (1/n) sum_i psi(res_i / s) w1(||eta_i||) eta_i at the estimate
    wd = config.w1.weights(np.linalg.norm(eta, axis=1))
    psi = config.score.psi(res.residuals / res.scale)
    ee = (eta * (psi * wd)[:, None]).mean(axis=0)
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
    # the weights the step solved with cap each row's weighted norm at q95
    assert np.all(res.weights * norms <= np.quantile(norms, 0.95) + 1e-12)
    assert res.weights[0] < 0.05


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


def test_gm_nonconvergence_reports_trajectory(monkeypatch):
    monkeypatch.setattr(robust_linear, "GM_MAX_ITERATIONS", 1)
    monkeypatch.setattr(robust_linear, "GM_TOL", 1e-14)
    rng = np.random.default_rng(9)
    eta = rng.normal(size=(40, 1))
    r = eta[:, 0] * 2 + rng.standard_cauchy(40)
    with pytest.raises(ConvergenceError) as err:
        gm_estimate(r, eta, GMConfig())
    assert err.value.last_iterate is not None
    assert err.value.residual is not None


def test_gm_every_weight_zero_raises_with_the_last_iterate():
    # least squares through the origin leaves every residual near 10, about
    # seven MADs out: past the bisquare cutoff, so no row keeps any weight
    rng = np.random.default_rng(0)
    r = 10.0 + rng.normal(size=40)
    eta = np.where(np.arange(40) % 2 == 0, 1.0, -1.0)[:, None]
    with pytest.raises(ConvergenceError, match="every observation received zero weight") as err:
        gm_estimate(r, eta, GMConfig(score=ScoreFunction.bisquare()))
    assert err.value.last_iterate is not None


def test_gm_degenerate_scale_with_spread_responses():
    # more than half the residuals identical but the rest are not
    eta = np.ones((5, 1))
    r = np.array([0.0, 0.0, 0.0, 5.0, 7.0])
    with pytest.raises(DegenerateScaleError):
        gm_estimate(r, eta, GMConfig())


# --------------------------------------------------------------- weight fns

def test_weight_function_one_is_unit():
    w1 = WeightFunction.one()
    assert np.all(w1.weights(np.array([0.0, 1.0, 100.0])) == 1.0)


def test_weight_function_huber_cutoff_q95():
    rng = np.random.default_rng(10)
    norms = rng.uniform(0, 10, 500)
    w = WeightFunction.huber("q95").weights(norms)
    cw = np.quantile(norms, 0.95)
    assert np.max(w * norms) == pytest.approx(cw, rel=1e-12)
    assert np.all((w > 0) & (w <= 1.0))
    assert np.all(np.abs(w * norms - np.minimum(norms, cw)) < 1e-12)


def test_weight_function_huber_gives_a_zero_norm_row_full_weight():
    # min(1, cutoff / u) at u = 0, without a division by zero
    w = WeightFunction.huber(2.0).weights(np.array([0.0, 1.0, 4.0]))
    assert w.tolist() == [1.0, 1.0, 0.5]


def test_weight_function_validation():
    with pytest.raises(ValueError):
        WeightFunction("huber", -1.0)
    with pytest.raises(ValueError):
        WeightFunction("huber", "q50")
    WeightFunction.huber(2.0)


def test_weight_function_rejects_a_bad_name_or_cutoff_rule_when_built():
    """A rule that is not one of the two fails where it is written, before it
    can be read as q95 or fail inside a fit with a TypeError."""
    with pytest.raises(ValueError, match="unknown cutoff rule"):
        WeightFunction.huber("q99")
    with pytest.raises(ValueError, match="unknown weight function"):
        WeightFunction("hubr")
    with pytest.raises(ValueError, match="finite and positive"):
        WeightFunction.huber(np.inf)


def test_gm_stopping_rule_is_a_module_constant():
    """GMConfig is the score and the design weight; the reweighting's
    tolerance and iteration bound are constants, not fields."""
    assert [f.name for f in dataclasses.fields(GMConfig)] == ["score", "w1"]
    assert (robust_linear.GM_TOL, robust_linear.GM_MAX_ITERATIONS) == (1e-8, 100)
    with pytest.raises(TypeError):
        GMConfig(tol=0.0)


def test_classical_config_returns_least_squares_exactly():
    rng = np.random.default_rng(31)
    eta = rng.normal(size=(60, 3))
    r = eta @ np.array([1.0, -2.0, 0.5]) + rng.standard_t(2, size=60)
    res = gm_estimate(r, eta, CLASSICAL_GM)
    assert np.array_equal(res.beta, ols_estimate(r, eta).beta)


# ------------------------------------------------------- Huber Newton steps


def reweighting(r, eta, config, tol=robust_linear.GM_TOL, max_iterations=100):
    """Plain reweighted least squares from the least-squares start, with the
    MAD scale re-estimated after every step: at the default tolerance the
    loop gm_estimate falls back to, operation for operation."""
    beta = ols_estimate(r, eta).beta
    res = r - eta @ beta
    wd = config.w1.weights(np.linalg.norm(eta, axis=1))
    s = residual_scale(res)
    for it in range(1, max_iterations + 1):
        sw = np.sqrt(wd * config.score.weight(res / s))
        beta_new, *_ = np.linalg.lstsq(eta * sw[:, None], r * sw, rcond=None)
        step = np.linalg.norm(beta_new - beta) / max(1.0, np.linalg.norm(beta_new))
        beta = beta_new
        res = r - eta @ beta
        s = residual_scale(res)
        if step < tol:
            return beta, s, it
    raise AssertionError("the plain reweighting did not converge")


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("w1", [WeightFunction.one(), WeightFunction.huber("q95")])
def test_huber_newton_steps_reach_the_plain_reweighting_root(p, w1):
    rng = np.random.default_rng(40 + p)
    eta = rng.normal(size=(200, p))
    eta[:5] *= 10.0  # leverage rows, which q95 downweights
    r = eta @ np.linspace(1.0, -2.0, p) + rng.standard_t(2, size=200)
    config = GMConfig(w1=w1)
    beta, scale, _ = reweighting(r, eta, config, tol=1e-14, max_iterations=1000)
    res = gm_estimate(r, eta, config)
    assert np.linalg.norm(res.beta - beta) <= 1e-8 * np.linalg.norm(beta)
    assert res.scale == pytest.approx(scale, rel=1e-8)
    assert res.iterations < reweighting(r, eta, config)[2]


def test_huber_newton_falls_back_to_reweighting_bit_for_bit():
    """On this Cauchy problem plain Newton steps (the slope sum stays
    positive definite) run out of GM_MAX_ITERATIONS; the guard stops them
    when a step grows, and the solve is the reweighting's."""
    rng = np.random.default_rng(1)
    eta = rng.normal(size=(50, 1))
    r = 2.0 * eta[:, 0] + rng.standard_cauchy(50)
    config = GMConfig()
    start = ols_estimate(r, eta)
    beta, res = start.beta, start.residuals
    s = residual_scale(res)
    for _ in range(robust_linear.GM_MAX_ITERATIONS):  # unguarded Newton steps
        u = res / s
        H = (eta * (np.abs(u) < config.score.c)[:, None]).T @ eta
        step = s * np.linalg.solve(H, eta.T @ np.clip(u, -config.score.c, config.score.c))
        beta = beta + step
        res = r - eta @ beta
        s = residual_scale(res)
        if np.linalg.norm(step) / max(1.0, np.linalg.norm(beta)) < robust_linear.GM_TOL:
            pytest.fail("the unguarded Newton steps converged")
    beta, scale, steps = reweighting(r, eta, config)
    res = gm_estimate(r, eta, config)
    assert np.array_equal(res.beta, beta) and res.scale == scale
    # the guard stopped the Newton steps early, and they count
    assert steps < res.iterations < steps + robust_linear.GM_MAX_ITERATIONS


def test_huber_newton_at_a_singular_slope_sum_reweights_bit_for_bit(monkeypatch):
    """Rows 12-19 alone carry the second coefficient, each with a residual of
    +-1000 far past the Huber corner: psi' = 0 on them, so the start's slope
    sum is singular, no Newton step is taken and the solve is the
    reweighting's."""
    rng = np.random.default_rng(0)
    eta = np.zeros((20, 2))
    eta[:12, 0] = rng.normal(size=12)
    eta[12:, 1] = 1.0
    r = np.concatenate([2.0 * eta[:12, 0] + 0.1 * rng.normal(size=12),
                        np.tile([1000.0, -1000.0], 4)])
    newton, calls = robust_linear._newton, []

    def recording(*args):
        calls.append(newton(*args))
        return calls[-1]

    monkeypatch.setattr(robust_linear, "_newton", recording)
    config = GMConfig()
    res = gm_estimate(r, eta, config)
    assert calls == [(None, 0)]
    beta, scale, steps = reweighting(r, eta, config)
    assert np.array_equal(res.beta, beta) and res.scale == scale
    assert res.iterations == steps


def test_q95_cutoff_of_zero_is_a_degenerate_scale():
    """More than 95% of the design rows at eta = 0: no q95 cutoff."""
    rng = np.random.default_rng(3)
    eta = np.zeros((200, 1))
    eta[:8, 0] = 1.0
    r = eta[:, 0] + rng.normal(size=200)
    with pytest.raises(DegenerateScaleError, match="0.95 quantile of the design-row norms"):
        gm_estimate(r, eta, GMConfig(w1=WeightFunction.huber("q95")))
