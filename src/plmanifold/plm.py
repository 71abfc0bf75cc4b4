"""Three-step partially linear estimation, robust and classical.

Step 1 smooths the response and every linear covariate over the manifold
covariate; Step 2 regresses the smoothed response residuals on the smoothed
covariate residuals (robust M/GM or least squares); Step 3 assembles the
nonparametric component g(t) = phi0(t) - beta' phi(t).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import quantile
from .errors import InsufficientDataError, SingularDesignError
from .manifold import Manifold, validate_coords
from .robust_linear import (
    GMConfig,
    RegressionResult,
    WeightFunction,
    gm_estimate,
    ols_estimate,
)
from .smoother import ScoreFunction, check_bandwidth, only_entry, smooth_columns

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
    points; `predict_g` re-runs the local smoother at new points against
    the stored training data.  ``regression`` is the regression step's own
    result: its residuals, scale and iteration count.
    """

    beta: np.ndarray
    phi0_hat: np.ndarray
    phi_hat: np.ndarray
    g_hat: np.ndarray
    bandwidth: float
    degenerate_windows: list[int]
    regression: RegressionResult
    dataset: PLMDataset
    local_score: ScoreFunction
    gm_config: GMConfig


def smooth_dataset(dataset: PLMDataset, bandwidths, score: ScoreFunction,
                   queries: np.ndarray | None = None, *, leave_one_out: bool = False) -> list:
    """Smooth the response and every covariate column over the manifold at
    each of the ``bandwidths`` with the local ``score``, in one
    ``smooth_columns`` call.

    Each column is smoothed as its offsets from the column median, so a large
    common offset in y or x costs one exact subtraction, not a rounding of
    every estimate.  Returns one entry per bandwidth: (estimates, residuals,
    flags) with column 0 the response, or the error ``smooth_columns``
    gives for that bandwidth (`only_entry` raises a one-bandwidth call's).
    Residuals are the offsets less their smoothed values, at the sample
    points; with ``queries`` they are None.  ``leave_one_out`` is that of
    ``smooth_columns``.
    """
    columns = np.column_stack([dataset.y, dataset.x])
    centre = quantile(columns, axis=0)  # np.median's bits
    offsets = columns - centre
    entries = smooth_columns(dataset.manifold, bandwidths, dataset.t, columns=offsets,
                             score=score, queries=queries, leave_one_out=leave_one_out)
    return [entry if isinstance(entry, Exception) else
            (entry[0] + centre, None if queries is not None else offsets - entry[0], entry[1])
            for entry in entries]


def mode_configs(mode: str, local_score: ScoreFunction | None = None,
                 gm: GMConfig | None = None) -> tuple[ScoreFunction, GMConfig]:
    """The (local score, GMConfig) pair a mode estimates with.

    Robust mode uses the given ones (Huber and ``GMConfig()`` for None).
    Classical mode is their identity-score case: the identity local score
    (the kernel-weighted mean) and least squares (``CLASSICAL_GM``) in the
    regression step.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "classical":
        return ScoreFunction.identity(), CLASSICAL_GM
    return local_score or ScoreFunction.huber(), gm or GMConfig()


def fit(dataset: PLMDataset, bandwidth: float, mode: str = "robust",
        local_score: ScoreFunction | None = None,
        gm: GMConfig | None = None) -> PLMFit:
    """Fit the partially linear model at a fixed bandwidth.

    The mode picks the configurations through ``mode_configs``: classical
    mode is the identity-score case of the same three steps, robust mode
    uses ``local_score`` in the smoothing step and ``gm`` in the regression
    step.  The fit keeps h and both; ``predict_g`` smooths with them.
    """
    local_score, gm = mode_configs(mode, local_score, gm)
    h = check_bandwidth(dataset.manifold, bandwidth)

    est, resid, fl = only_entry(smooth_dataset(dataset, [h], local_score))
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
    else:  # p = 0: nothing to regress, the smoothed residuals are the errors
        reg = ols_estimate(r, eta)

    g_hat = phi0 - phi @ reg.beta
    degenerate = np.flatnonzero((fl == 1).any(axis=1)).tolist()
    return PLMFit(
        beta=reg.beta,
        phi0_hat=phi0,
        phi_hat=phi,
        g_hat=g_hat,
        bandwidth=h,
        degenerate_windows=degenerate,
        regression=reg,
        dataset=dataset,
        local_score=local_score,
        gm_config=gm,
    )


def predict_g(fit_result: PLMFit, t):
    """Evaluate the fitted nonparametric component at new manifold points.

    Accepts a single point (returns a float) or a batch (returns a vector).
    Raises EmptyWindowError with the nearest-training-point distance when a
    query falls outside every kernel window.
    """
    ds = fit_result.dataset
    coords = np.asarray(t, dtype=float)
    single = coords.ndim == 1
    queries = validate_coords(ds.manifold, coords, name="query")
    est, _, _ = only_entry(smooth_dataset(ds, [fit_result.bandwidth], fit_result.local_score,
                                          queries))
    g = est[:, 0] - est[:, 1:] @ fit_result.beta
    return float(g[0]) if single else g
