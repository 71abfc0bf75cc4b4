"""Sandwich covariance, confidence intervals and Wald tests for the linear part.

The asymptotic covariance of the regression coefficients has the sandwich
form s^2 A^{-1} Sigma A^{-1} / n with

    A     = (1/n) sum_i psi'(e_i/s) w1(||eta_i||) eta_i eta_i'
    Sigma = [(1/n) sum_i psi(e_i/s)^2] (1/n) sum_i w1(||eta_i||)^2 eta_i eta_i'

estimated from what the regression step solved on (``PLMFit.regression``):
its residuals e_i, scale s, design rows eta_i and their w1 weights.  A is
``robust_linear.slope_sum`` / n at the final residuals, formed here: the
regression's last Newton H is one step stale, and reweighting forms none.
With the identity score and unit weights this collapses to the classical
least-squares covariance.

The normal quantile, the normal tail and the chi-squared tail come from the
standard library (``statistics.NormalDist`` and ``math.erfc``/``math.lgamma``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DegenerateTestError, SingularMatrixError
from .plm import PLMFit
from .robust_linear import slope_sum

_COND_LIMIT = 1e12


def normal_two_sided_p(z: float) -> float:
    """P(|Z| > |z|) = erfc(|z| / sqrt(2)) for a standard normal Z."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def chi2_sf(x: float, p: int) -> float:
    """Upper tail P(chi^2_p > x) for an integer p >= 1, in closed form.

    With y = x/2 the tail is [p odd] erfc(sqrt(y)) plus the sum of
    y^a e^{-y} / Gamma(a + 1) over a = (p mod 2)/2, (p mod 2)/2 + 1, ...,
    p/2 - 1: a Poisson sum for even p, the half-integer series for odd p.
    Every term is positive, so nothing cancels, and each is built in log
    space, so the sum stays right where e^{-y} alone underflows.
    """
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    y = 0.5 * x
    log_y = math.log(y)
    head = math.erfc(math.sqrt(y)) if p % 2 else 0.0
    start = 0.5 * (p % 2)
    return head + math.fsum(
        math.exp(a * log_y - y - math.lgamma(a + 1.0))
        for a in (start + j for j in range(p // 2))
    )


@dataclass
class AsymptoticCovariance:
    """Plug-in sandwich covariance with its ingredients.

    ``V_hat`` equals scale^2 A_hat^{-1} Sigma_hat A_hat^{-1} / n_obs and
    ``se`` is the square root of its diagonal.
    """

    A_hat: np.ndarray
    Sigma_hat: np.ndarray
    V_hat: np.ndarray
    se: np.ndarray
    scale: float
    n_obs: int


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def estimate_covariance(fit: PLMFit) -> AsymptoticCovariance:
    """Sandwich covariance of the fitted regression coefficients.

    Sums over what the regression step solved on: its design rows, their w1
    weights and its residuals (``fit.regression``), with the score the fit
    was estimated with (``fit.gm_config.score``), so a classical fit gets
    the identity-score reduction.  Raises SingularMatrixError when the A
    matrix is numerically singular.
    """
    reg = fit.regression
    eta, w, eps = reg.design, reg.weights, reg.residuals
    n, p = eta.shape
    if p == 0:
        raise ValueError("the fit has no linear coefficients")
    score = fit.gm_config.score

    if score.code == 0:
        s = float(np.sqrt(np.mean(eps ** 2)))
    else:
        s = float(reg.scale)
    # scale 0 is the regression step's verdict of an exact fit: u = 0, se = 0
    u = eps / s if s > 0.0 else np.zeros_like(eps)

    A = _sym(slope_sum(eta, u, score, w) / n)
    M = _sym((eta * (w ** 2)[:, None]).T @ eta / n)
    Sigma = float(np.mean(score.psi(u) ** 2)) * M

    if not np.all(np.isfinite(A)) or np.linalg.cond(A) > _COND_LIMIT:
        raise SingularMatrixError(
            "the A matrix of the sandwich is numerically singular "
            f"(condition number above {_COND_LIMIT:g})"
        )
    Ainv = np.linalg.solve(A, np.eye(p))
    V = _sym(s ** 2 * Ainv @ Sigma @ Ainv / n)
    se = np.sqrt(np.clip(np.diag(V), 0.0, None))
    return AsymptoticCovariance(A, Sigma, V, se, s, n)


def confidence_interval(beta, cov: AsymptoticCovariance, level: float = 0.95) -> np.ndarray:
    """Wald intervals beta_j +/- z se_j, one row per coefficient.

    z is the upper (1 - level)/2 normal quantile, taken from the tail:
    1 - level is exact for level >= 0.5 and stays positive for every level
    below 1, so z is finite wherever 0.5 + level/2 would round to 1.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must be in (0, 1)")
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    z = -NormalDist().inv_cdf((1.0 - level) / 2.0)
    return np.column_stack([beta - z * cov.se, beta + z * cov.se])


def wald_test(beta, cov: AsymptoticCovariance, null) -> tuple[float, float]:
    """Two-sided Wald test of beta = null.

    Scalar coefficients give a normal z test; several coefficients give the
    quadratic-form chi-squared test.  Rejection at level alpha is exactly
    dual to the (1 - alpha) confidence interval.  Raises DegenerateTestError
    when the statistic overflows.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    null = np.broadcast_to(np.atleast_1d(np.asarray(null, dtype=float)), beta.shape)
    p = beta.size
    if p == 1:
        se = float(cov.se[0])
        if se <= 0.0:
            raise DegenerateTestError("standard error is zero; the z test is undefined")
        stat = (float(beta[0]) - float(null[0])) / se
    else:
        if not np.all(np.isfinite(cov.V_hat)) or np.linalg.cond(cov.V_hat) > _COND_LIMIT:
            raise SingularMatrixError("covariance matrix is numerically singular")
        with np.errstate(over="ignore", invalid="ignore"):
            d = beta - null
            stat = float(d @ np.linalg.solve(cov.V_hat, d))
    if not math.isfinite(stat):
        raise DegenerateTestError(f"Wald statistic {stat}: the null is too far from beta")
    return stat, normal_two_sided_p(stat) if p == 1 else chi2_sf(stat, p)
