"""Three-step partially linear estimation, robust and classical.

Step 1 smooths the response and every linear covariate over the manifold
covariate; Step 2 regresses the smoothed response residuals on the smoothed
covariate residuals (robust M/GM or least squares); Step 3 assembles the
nonparametric component g(t) = phi0(t) - beta' phi(t).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DegenerateScaleError,
    InsufficientDataError,
    SingularDesignError,
)
from .manifold import Manifold, as_coords, validate_coords
from .robust_linear import (
    GMConfig,
    RegressionResult,
    WeightFunction,
    gm_estimate,
    residual_scale,
)
from .smoother import (
    LocalFitConfig,
    ScoreFunction,
    check_bandwidth,
    smooth_columns,
)

MODES = ("robust", "classical")

# Step 2 of classical mode: least squares, the identity-score, unit-weight case
CLASSICAL_GM = GMConfig(score=ScoreFunction.identity(), w1=WeightFunction.one())


@dataclass
class PLMDataset:
    """Aligned response, Euclidean covariates and manifold covariates.

    ``x`` may have zero columns for a purely nonparametric fit.  Every row of
    ``t`` must satisfy the manifold's point invariants.
    """

    y: np.ndarray
    x: np.ndarray
    t: np.ndarray
    manifold: Manifold
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float).ravel()
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        self.x = x
        self.t = validate_coords(self.manifold, self.t, name="t")
        n = self.y.size
        if self.x.shape[0] != n or self.t.shape[0] != n:
            raise ValueError(
                f"misaligned dataset: {n} responses, {self.x.shape[0]} covariate "
                f"rows, {self.t.shape[0]} manifold points"
            )
        bad_y = ~np.isfinite(self.y)
        bad_x = ~np.isfinite(self.x)
        bad = np.flatnonzero(bad_y | bad_x.any(axis=1))
        if bad.size:
            i = int(bad[0])
            where = "y" if bad_y[i] else f"x column {int(np.argmax(bad_x[i]))}"
            raise ValueError(f"non-finite value in {where} at row {i}")
        if n <= self.p + 1:
            raise InsufficientDataError(
                f"need n > p + 1 observations (n={n}, p={self.p})"
            )

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass
class PLMFit:
    """Fitted three-step model, immutable smoother state included.

    ``g_hat``, ``phi0_hat`` and ``phi_hat`` are evaluated at the sample
    points; predictions at new points re-run the local smoother against the
    stored training data.
    """

    beta: np.ndarray
    phi0_hat: np.ndarray
    phi_hat: np.ndarray
    g_hat: np.ndarray
    residuals: np.ndarray
    scale: float
    bandwidth: float
    mode: str
    flags: dict
    regression: RegressionResult
    dataset: PLMDataset
    smoother_config: LocalFitConfig
    gm_config: GMConfig

    def predict_g(self, t):
        return predict_g(self, t)

    def predict_y(self, x, t):
        return predict_y(self, x, t)


def smooth_dataset(dataset: PLMDataset, h: float, config: LocalFitConfig,
                   queries: np.ndarray | None = None, *, leave_one_out: bool = False,
                   distances: np.ndarray | None = None):
    """Smooth the response and every covariate column over the manifold at
    bandwidth h.

    Each column is smoothed as its offsets from the column median, so a large
    common offset in y or x costs one exact subtraction, not a rounding of
    every estimate.  Returns (estimates, residuals, flags) with column 0 the
    response.  Residuals are the offsets less their smoothed values, at the
    sample points; with ``queries`` they are None.  ``leave_one_out`` and
    ``distances`` are those of ``smooth_columns``.
    """
    columns = np.column_stack([dataset.y, dataset.x])
    centre = np.median(columns, axis=0)
    offsets = columns - centre
    est, flags = smooth_columns(dataset.manifold, h, dataset.t, columns=offsets,
                                config=config, queries=queries,
                                leave_one_out=leave_one_out, distances=distances)
    residuals = None if queries is not None else offsets - est
    return est + centre, residuals, flags


def mode_configs(mode: str, smoother: LocalFitConfig | None = None,
                 gm: GMConfig | None = None) -> tuple[LocalFitConfig, GMConfig]:
    """The (LocalFitConfig, GMConfig) pair a mode estimates with.

    Robust mode uses the given configurations (defaults for None).  Classical
    mode is their identity-score case: the same smoother with the identity
    score, and least squares (``CLASSICAL_GM``) in the regression step.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    smoother = smoother or LocalFitConfig()
    if mode == "classical":
        return replace(smoother, score=ScoreFunction.identity()), CLASSICAL_GM
    return smoother, gm or GMConfig()


def fit(dataset: PLMDataset, bandwidth: float, mode: str = "robust",
        smoother: LocalFitConfig | None = None,
        gm: GMConfig | None = None) -> PLMFit:
    """Fit the partially linear model at a fixed bandwidth.

    The mode picks the configurations through ``mode_configs``: classical
    mode is the identity-score case of the same three steps, robust mode
    uses the configured score both locally and in the regression step.  The
    fit keeps h and those configurations; ``predict_g`` smooths with them.
    """
    smoother, gm = mode_configs(mode, smoother, gm)
    h = check_bandwidth(dataset.manifold, bandwidth)

    est, resid, fl = smooth_dataset(dataset, h, smoother)
    phi0 = est[:, 0]
    phi = est[:, 1:]

    r = resid[:, 0]
    eta = resid[:, 1:]
    if dataset.p:
        # dead: eta is rounding noise next to the column's spread and magnitude
        x = dataset.x
        floor = (1e-10 * np.linalg.norm(x - x.mean(axis=0), axis=0)
                 + x.shape[0] * np.finfo(float).eps * np.abs(x).max(axis=0))
        dead = np.linalg.norm(eta, axis=0) <= floor
        if np.any(dead):
            raise SingularDesignError(
                "smoothing annihilated covariate column(s) "
                f"{np.flatnonzero(dead).tolist()}; the bandwidth is too small "
                "to identify the regression coefficients"
            )
        reg = gm_estimate(r, eta, gm)
    else:
        reg = _null_regression(r)

    beta = reg.beta
    g_hat = phi0 - phi @ beta
    residuals = reg.residuals
    degenerate = sorted(set(np.flatnonzero((fl == 1).any(axis=1)).tolist()))
    flags = {
        "degenerate_windows": degenerate,
        "regression_converged": reg.converged,
        "regression_iterations": reg.iterations,
    }
    return PLMFit(
        beta=beta,
        phi0_hat=phi0,
        phi_hat=phi,
        g_hat=g_hat,
        residuals=residuals,
        scale=reg.scale,
        bandwidth=h,
        mode=mode,
        flags=flags,
        regression=reg,
        dataset=dataset,
        smoother_config=smoother,
        gm_config=gm,
    )


def _null_regression(r: np.ndarray) -> RegressionResult:
    # p = 0: nothing to regress, the smoothed residuals are the errors
    try:
        scale = residual_scale(r) if r.size >= 2 else 0.0
    except DegenerateScaleError:
        scale = 0.0
    return RegressionResult(np.zeros(0), scale, r.copy(), True, 0, None, "none")


def predict_g(fit_result: PLMFit, t):
    """Evaluate the fitted nonparametric component at new manifold points.

    Accepts a single point (returns a float) or a batch (returns a vector).
    Raises EmptyWindowError with the nearest-training-point distance when a
    query falls outside every kernel window.
    """
    ds = fit_result.dataset
    coords = as_coords(t)
    single = coords.ndim == 1
    queries = validate_coords(ds.manifold, coords, name="query")
    est, _, _ = smooth_dataset(ds, fit_result.bandwidth, fit_result.smoother_config,
                               queries)
    g = est[:, 0] - est[:, 1:] @ fit_result.beta
    return float(g[0]) if single else g


def predict_y(fit_result: PLMFit, x, t):
    """Predicted response x' beta + g(t)."""
    x = np.asarray(x, dtype=float)
    p = fit_result.dataset.p
    single = x.ndim <= 1 and as_coords(t).ndim == 1
    xmat = x.reshape(-1, p) if p else np.zeros((np.atleast_2d(as_coords(t)).shape[0], 0))
    g = predict_g(fit_result, t)
    out = xmat @ fit_result.beta + np.atleast_1d(g)
    return float(out[0]) if single else out
