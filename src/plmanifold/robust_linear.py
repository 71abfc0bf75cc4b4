"""Robust regression of smoothed residuals: the second estimation step.

Solves the weighted score equation

    sum_i psi((r_i - eta_i' beta) / s_n) w1(||eta_i||) eta_i = 0

by iteratively reweighted least squares.  The scale s_n is the residual MAD,
re-estimated at every reweighting step (a scale frozen at the least-squares
start inherits that start's vulnerability to outliers); a fixed numeric
scale can be supplied instead.  With the identity score and w1 = 1 the
solution is ordinary least squares, returned without reweighting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DegenerateScaleError, SingularDesignError
from .smoother import MAD_CONSISTENCY, ScoreFunction


@dataclass(frozen=True)
class WeightFunction:
    """Design weight w1 applied to ||eta_i||, valued in [0, 1].

    ``one`` is the plain M-estimator.  ``huber`` downweights high-leverage
    rows as min(1, cutoff / u), the Huber score's weight; the cutoff may be
    a number or the string "q95", resolved at fit time as the 0.95 quantile
    of the observed norms.
    """

    name: str = "one"
    cutoff: float | str | None = None

    @classmethod
    def one(cls) -> "WeightFunction":
        return cls("one")

    @classmethod
    def huber(cls, cutoff: float | str = "q95") -> "WeightFunction":
        return cls("huber", cutoff)

    def resolve_cutoff(self, norms) -> float | None:
        if self.name == "one":
            return None
        if isinstance(self.cutoff, str):
            return float(np.quantile(np.asarray(norms, dtype=float), 0.95))
        return float(self.cutoff)

    def weights(self, norms, cutoff: float | None = None) -> np.ndarray:
        norms = np.asarray(norms, dtype=float)
        if self.name == "one":
            return np.ones_like(norms)
        cw = self.resolve_cutoff(norms) if cutoff is None else float(cutoff)
        return ScoreFunction.huber(cw).weight(norms)

    def validate(self) -> None:
        if self.name not in ("one", "huber"):
            raise ValueError(f"unknown weight function {self.name!r}")
        if self.name == "huber":
            if isinstance(self.cutoff, str):
                if self.cutoff.lower() != "q95":
                    raise ValueError(f"unknown cutoff rule {self.cutoff!r}")
            elif self.cutoff is None or not 0 < float(self.cutoff) < np.inf:
                raise ValueError("huber weight cutoff must be finite and positive")


@dataclass(frozen=True)
class GMConfig:
    """Configuration of the regression M-step.

    ``scale`` is either "mad" (residual MAD, re-estimated at every
    reweighting step) or a fixed positive number.  ``init`` is "ols" or an
    explicit coefficient vector.
    """

    score: ScoreFunction = field(default_factory=ScoreFunction.huber)
    w1: WeightFunction = field(default_factory=WeightFunction.one)
    scale: float | str = "mad"
    tol: float = 1e-8
    max_iterations: int = 100
    init: str | tuple = "ols"

    def __post_init__(self):
        self.w1.validate()
        if isinstance(self.scale, str):
            if self.scale != "mad":
                raise ValueError(f"unknown scale rule {self.scale!r}")
        elif not float(self.scale) > 0:
            raise ValueError("fixed scale must be positive")
        if not self.tol > 0 or self.max_iterations < 1:
            raise ValueError("need tol > 0 and max_iterations >= 1")
        if isinstance(self.init, str) and self.init != "ols":
            raise ValueError(f"unknown init policy {self.init!r}")


@dataclass
class RegressionResult:
    beta: np.ndarray
    scale: float
    residuals: np.ndarray
    converged: bool
    iterations: int
    w1_cutoff: float | None = None
    method: str = "gm"


def residual_scale(residuals) -> float:
    """1.4826 times the median absolute deviation from the median."""
    res = np.asarray(residuals, dtype=float).ravel()
    if res.size < 2:
        raise ValueError("need at least two residuals")
    med = np.median(res)
    s = MAD_CONSISTENCY * float(np.median(np.abs(res - med)))
    if s <= 0.0:
        raise DegenerateScaleError(
            "residual MAD is zero: more than half the residuals coincide"
        )
    return s


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
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(eta))):
        raise ValueError("responses and design must be finite")
    return r, eta


def ols_estimate(r, eta) -> RegressionResult:
    """Least squares on the smoothed residuals (the classical Step 2)."""
    r, eta = _check_design(r, eta)
    n, p = eta.shape
    if p > 0 and np.linalg.matrix_rank(eta) < p:
        raise SingularDesignError("design matrix is rank deficient")
    beta, *_ = np.linalg.lstsq(eta, r, rcond=None)
    residuals = r - eta @ beta
    try:
        scale = residual_scale(residuals)
    except DegenerateScaleError:
        scale = 0.0  # exact or half-degenerate fit; recorded as-is
    return RegressionResult(beta, scale, residuals, True, 0, None, "ols")


def gm_estimate(r, eta, config: GMConfig | None = None) -> RegressionResult:
    """Solve the weighted regression score equation by reweighted least squares.

    The identity score with w1 = 1 returns the least-squares start itself.
    An exact linear fit is returned immediately with zero residuals, since it
    solves the score equation exactly.  With the "mad" scale rule the scale
    shrinks with the residuals across iterations, so a contaminated
    least-squares start does not poison the influence bound.
    """
    config = config or GMConfig()
    r, eta = _check_design(r, eta)
    n, p = eta.shape

    start = ols_estimate(r, eta)  # raises SingularDesignError on bad designs
    if config.score.code == 0 and config.w1.name == "one":
        return start
    beta = start.beta if isinstance(config.init, str) else np.asarray(config.init, dtype=float)
    res = r - eta @ beta
    norms = np.linalg.norm(eta, axis=1)
    cutoff = config.w1.resolve_cutoff(norms)
    wd = config.w1.weights(norms, cutoff)

    iterate_scale = isinstance(config.scale, str)
    exact_tol = 1e-12 * float(np.max(np.abs(r), initial=0.0))
    if iterate_scale:
        if np.max(np.abs(res)) <= exact_tol:
            return RegressionResult(beta, 0.0, res, True, 0, cutoff, "gm")
        s = residual_scale(res)
    else:
        s = float(config.scale)

    last_step = np.inf
    for it in range(1, config.max_iterations + 1):
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
        if iterate_scale:
            if np.max(np.abs(res)) <= exact_tol:
                return RegressionResult(beta, 0.0, res, True, it, cutoff, "gm")
            s = residual_scale(res)
        if last_step < config.tol:
            return RegressionResult(beta, s, res, True, it, cutoff, "gm")
    raise ConvergenceError(
        f"reweighting did not converge in {config.max_iterations} iterations "
        f"(last relative step {last_step:.3e})",
        last_iterate=beta,
        residual=last_step,
    )


def estimating_equation(result: RegressionResult, eta, config: GMConfig) -> np.ndarray:
    """Value of (1/n) sum_i psi(res_i/s) w1(||eta_i||) eta_i at the estimate."""
    eta = np.asarray(eta, dtype=float)
    if eta.ndim == 1:
        eta = eta[:, None]
    norms = np.linalg.norm(eta, axis=1)
    wd = config.w1.weights(norms, result.w1_cutoff)
    s = result.scale if result.scale > 0 else 1.0
    psi = config.score.psi(result.residuals / s)
    return (eta * (psi * wd)[:, None]).mean(axis=0)
