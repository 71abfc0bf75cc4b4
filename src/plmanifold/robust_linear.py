"""Robust regression of smoothed residuals: the second estimation step.

Solves the weighted score equation

    sum_i psi((r_i - eta_i' beta) / s_n) w1(||eta_i||) eta_i = 0

by Newton steps (Huber, while a guard holds) or iteratively reweighted least
squares.  The scale s_n is the residual MAD, re-estimated after every step
(a scale frozen at the least-squares start inherits that start's
vulnerability to outliers).  With the identity score and w1 = 1 the
solution is ordinary least squares, returned without reweighting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DegenerateScaleError, SingularDesignError
from ._kernels import MAD_CONSISTENCY, quantile
from .smoother import ScoreFunction

# The reweighting stops once a step moves beta by less than GM_TOL relative
# to max(1, |beta|), and raises ConvergenceError after GM_MAX_ITERATIONS steps.
GM_TOL = 1e-8
GM_MAX_ITERATIONS = 100


@dataclass(frozen=True)
class WeightFunction:
    """Design weight w1 applied to ||eta_i||, valued in [0, 1].

    ``one`` is the plain M-estimator.  ``huber`` downweights high-leverage
    rows as min(1, cutoff / u), the Huber score's weight; the cutoff is a
    finite positive number or the string "q95", which ``weights`` resolves
    as the 0.95 quantile of the norms it is given.  Any other name or cutoff
    raises ValueError.
    """

    name: str = "one"
    cutoff: float | str | None = None

    def __post_init__(self):
        if self.name not in ("one", "huber"):
            raise ValueError(f"unknown weight function {self.name!r}")
        if self.name == "huber":
            if isinstance(self.cutoff, str):
                if self.cutoff.lower() != "q95":
                    raise ValueError(f"unknown cutoff rule {self.cutoff!r}")
            elif self.cutoff is None or not 0 < float(self.cutoff) < np.inf:
                raise ValueError("huber weight cutoff must be finite and positive")

    @classmethod
    def one(cls) -> "WeightFunction":
        return cls("one")

    @classmethod
    def huber(cls, cutoff: float | str = "q95") -> "WeightFunction":
        return cls("huber", cutoff)

    def weights(self, norms) -> np.ndarray:
        norms = np.asarray(norms, dtype=float)
        if self.name == "one":
            return np.ones_like(norms)
        cutoff = self.cutoff
        if isinstance(cutoff, str):
            cutoff = quantile(norms, 0.95)
            if cutoff <= 0.0:  # eta = 0 on more than 95% of the rows
                raise DegenerateScaleError("the 0.95 quantile of the design-row norms is zero")
        return ScoreFunction.huber(float(cutoff)).weight(norms)


@dataclass(frozen=True)
class GMConfig:
    """Configuration of the regression M-step: the score and the design
    weight.  The start is least squares and the scale is the residual MAD,
    re-estimated after every step.
    """

    score: ScoreFunction = field(default_factory=ScoreFunction.huber)
    w1: WeightFunction = field(default_factory=WeightFunction.one)


@dataclass
class RegressionResult:
    """A solved regression step; a solve that does not converge raises.
    ``design`` is the rows eta_i it solved on and ``weights`` their w1 values
    (ones for least squares), the rows the sandwich covariance sums over."""

    beta: np.ndarray
    scale: float
    residuals: np.ndarray
    iterations: int
    design: np.ndarray
    weights: np.ndarray


def residual_scale(residuals) -> float:
    """1.4826 times the median absolute deviation from the median.  Raises
    ValueError naming the first residual that is not finite."""
    res = np.asarray(residuals, dtype=float).ravel()
    if res.size < 2:
        raise ValueError("need at least two residuals")
    bad = np.flatnonzero(~np.isfinite(res))
    if bad.size:
        raise ValueError(f"residual {bad[0]} is not finite: {res[bad[0]]}")
    dev = res - quantile(res)
    s = MAD_CONSISTENCY * float(quantile(np.abs(dev, out=dev)))
    if s <= 0.0:
        raise DegenerateScaleError(
            "residual MAD is zero: more than half the residuals coincide"
        )
    return s


def residual_scale_or_zero(residuals) -> float:
    """``residual_scale``, or 0.0 where the MAD is zero."""
    try:
        return residual_scale(residuals)
    except DegenerateScaleError:
        return 0.0


def _check_design(r, eta):
    r = np.asarray(r, dtype=float).ravel()
    eta = np.asarray(eta, dtype=float)
    if eta.ndim == 1:
        eta = eta[:, None]
    if eta.shape[0] != r.size:
        raise ValueError(
            f"length mismatch: {r.size} responses vs {eta.shape[0]} design rows"
        )
    n, p = eta.shape
    if n <= p:
        raise ValueError(f"need more observations than coefficients (n={n}, p={p})")
    bad = np.flatnonzero(~(np.isfinite(r) & np.isfinite(eta).all(axis=1)))
    if bad.size:
        raise ValueError(f"row {bad[0]}: responses and design must be finite")
    return r, eta


def ols_estimate(r, eta) -> RegressionResult:
    """Least squares on the smoothed residuals (the classical Step 2)."""
    r, eta = _check_design(r, eta)
    n, p = eta.shape
    # lstsq's rank: singular values above max(n, p) eps sigma_max, as matrix_rank
    beta, _, rank, _ = np.linalg.lstsq(eta, r, rcond=None)
    if rank < p:
        raise SingularDesignError("design matrix is rank deficient")
    residuals = r - eta @ beta
    # an exact or half-degenerate fit records scale 0.0 as-is
    return RegressionResult(beta, residual_scale_or_zero(residuals), residuals, 0, eta,
                            np.ones(n))


def slope_sum(eta, u, score: ScoreFunction, w) -> np.ndarray:
    """sum_i w_i psi'(u_i) eta_i eta_i': the Newton steps' H, and n times the sandwich's A."""
    return (eta * (score.psi_prime(u) * w)[:, None]).T @ eta


def _newton(r, eta, wd, score, beta, res, s, exact_tol):
    """Newton steps from (beta, res, s) while H is positive definite and each
    step is shorter than the last: (beta, scale, residuals), or None where
    that guard fails, and the steps taken.  The scale lags beta, so the steps
    shrink linearly: the solve stops one step after a step below GM_TOL."""
    last, close = np.inf, False
    for it in range(1, GM_MAX_ITERATIONS + 1):
        u = res / s
        H = slope_sum(eta, u, score, wd)
        lam = np.linalg.eigvalsh(H)  # ascending
        if not lam[0] > 1e-16 * lam[-1]:  # not positive definite to rounding (or NaN)
            return None, it - 1
        step = s * np.linalg.solve(H, eta.T @ (wd * score.psi(u)))
        size = float(np.linalg.norm(step))
        if not size < last:
            return None, it - 1
        beta, last = beta + step, size
        res = r - eta @ beta
        if np.max(np.abs(res)) <= exact_tol:
            return (beta, 0.0, res), it
        s = residual_scale_or_zero(res)
        if s == 0.0:
            return None, it
        if close:
            return (beta, s, res), it
        close = size / max(1.0, np.linalg.norm(beta)) < GM_TOL
    return None, GM_MAX_ITERATIONS


def gm_estimate(r, eta, config: GMConfig | None = None) -> RegressionResult:
    """Solve the weighted regression score equation from least squares.

    The identity score with w1 = 1 returns the least-squares start itself.
    An exact linear fit is returned immediately with zero residuals, since it
    solves the score equation exactly.  The MAD scale shrinks with the
    residuals across iterations, so a contaminated least-squares start does
    not poison the influence bound.  ``iterations`` counts every step.
    """
    config = config or GMConfig()
    r, eta = _check_design(r, eta)
    start = ols_estimate(r, eta)  # raises SingularDesignError on bad designs
    if config.score.code == 0 and config.w1.name == "one":
        return start
    beta = start.beta
    res = start.residuals
    wd = config.w1.weights(np.linalg.norm(eta, axis=1))

    exact_tol = 1e-12 * float(np.max(np.abs(r), initial=0.0))
    if np.max(np.abs(res)) <= exact_tol:
        return RegressionResult(beta, 0.0, res, 0, eta, wd)
    s = start.scale or residual_scale(res)  # raises where the start's MAD is 0

    solved, taken = (_newton(r, eta, wd, config.score, beta, res, s, exact_tol)
                     if config.score.code == 1 else (None, 0))
    if solved is not None:
        return RegressionResult(*solved, taken, eta, wd)

    last_step = np.inf
    for it in range(1, GM_MAX_ITERATIONS + 1):
        w = wd * config.score.weight(res / s)
        if not np.any(w > 0):
            raise ConvergenceError(
                "every observation received zero weight", last_iterate=beta
            )
        sw = np.sqrt(w)
        beta_new, *_ = np.linalg.lstsq(eta * sw[:, None], r * sw, rcond=None)
        last_step = float(np.linalg.norm(beta_new - beta) / max(1.0, np.linalg.norm(beta_new)))
        beta = beta_new
        res = r - eta @ beta
        if np.max(np.abs(res)) <= exact_tol:
            return RegressionResult(beta, 0.0, res, taken + it, eta, wd)
        s = residual_scale(res)
        if last_step < GM_TOL:
            return RegressionResult(beta, s, res, taken + it, eta, wd)
    raise ConvergenceError(
        f"reweighting did not converge in {GM_MAX_ITERATIONS} iterations "
        f"(last relative step {last_step:.3e})",
        last_iterate=beta,
        residual=last_step,
    )
