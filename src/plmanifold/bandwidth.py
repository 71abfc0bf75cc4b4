"""Bandwidth selection by leave-one-out cross-validation.

The robust criterion sums a bounded score of standardized leave-one-out
prediction residuals; with the identity score and classical configurations
it reduces to the usual sum of squared prediction errors.  Candidate
bandwidths where a leave-one-out window is empty (or a downstream solver
fails) are marked infeasible rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateScaleError,
    EmptyWindowError,
    InfeasibleGridError,
    SingularDesignError,
)
from .manifold import injectivity_radius, pairwise_distances
from .plm import PLMDataset, mode_configs, smooth_dataset
from .robust_linear import GMConfig, gm_estimate, residual_scale
from .smoother import LocalFitConfig, ScoreFunction, check_bandwidth

_FAILURE_KINDS = (EmptyWindowError, ConvergenceError, DegenerateScaleError,
                  SingularDesignError)
_GRID_SIZE = 8


@dataclass
class GridPointDiagnostic:
    h: float
    score: float
    feasible: bool
    reason: str | None = None


@dataclass
class BandwidthGrid:
    """Ascending candidate bandwidths."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).ravel()
        if values.size == 0:
            raise ValueError("bandwidth grid must be nonempty")
        if np.any(values <= 0) or not np.all(np.isfinite(values)):
            raise ValueError("bandwidth candidates must be positive and finite")
        self.values = np.sort(values)


def default_grid(dataset: PLMDataset) -> BandwidthGrid:
    """Eight log-spaced candidates from the 10th percentile of pairwise
    distances up to 0.9 x injectivity radius (0.9 x the largest pairwise
    distance on unbounded domains)."""
    d = pairwise_distances(dataset.manifold, dataset.t)
    return _grid_from_distances(dataset, d)


def _grid_from_distances(dataset: PLMDataset, d: np.ndarray) -> BandwidthGrid:
    off = d[np.triu_indices(dataset.n, k=1)]
    off = off[off > 0]
    if off.size == 0:
        raise ValueError("all manifold covariates coincide; no usable grid")
    lo = float(np.quantile(off, 0.10))
    inj = injectivity_radius(dataset.manifold)
    hi = 0.9 * (inj if np.isfinite(inj) else float(off.max()))
    if lo >= hi:
        lo = hi / 4.0
    return BandwidthGrid(np.geomspace(lo, hi, _GRID_SIZE))


def _loo_prediction_residuals(dataset: PLMDataset, h: float, smoother: LocalFitConfig,
                              gm: GMConfig, distances: np.ndarray | None) -> np.ndarray:
    _, resid, _ = smooth_dataset(dataset, h, smoother, leave_one_out=True,
                                 distances=distances)
    if dataset.p == 0:
        return resid[:, 0]
    return gm_estimate(resid[:, 0], resid[:, 1:], gm).residuals


def _robust_spread(residuals: np.ndarray) -> float:
    # 0.0 (not an error) for a zero MAD, so such a candidate stays feasible
    try:
        return residual_scale(residuals)
    except DegenerateScaleError:
        return 0.0


def _criterion(residuals: np.ndarray, cv_score: ScoreFunction,
               scale: float | None = None) -> float:
    if cv_score.code == 0:
        return float(np.sum(residuals ** 2))
    s = _robust_spread(residuals) if scale is None else float(scale)
    if s <= 0.0:
        s = 1.0  # all residuals (near) identical; scoring the raw values
    return float(np.sum(cv_score.psi(residuals / s) ** 2))


def _resolve_configs(mode: str, smoother, gm, cv_score):
    smoother, gm = mode_configs(mode, smoother, gm)
    cv_score = ScoreFunction.identity() if mode == "classical" else cv_score
    return smoother, gm, cv_score or ScoreFunction.huber()


def rcv_score(dataset: PLMDataset, h: float,
              smoother: LocalFitConfig | None = None, gm: GMConfig | None = None,
              cv_score: ScoreFunction | None = None,
              scale: float | None = None) -> float:
    """Cross-validation criterion at bandwidth h.

    Bounded scores are applied to standardized residuals; ``scale`` fixes
    the standardization (the selector shares one pilot scale across the
    grid), otherwise the residuals' own robust spread is used.  Returns
    +inf when h is infeasible (an empty leave-one-out window or a solver
    failure); never raises for feasibility problems.
    """
    smoother, gm, cv_score = _resolve_configs("robust", smoother, gm, cv_score)
    check_bandwidth(dataset.manifold, h)
    try:
        res = _loo_prediction_residuals(dataset, h, smoother, gm, None)
    except _FAILURE_KINDS:
        return float("inf")
    return _criterion(res, cv_score, scale)


def select_bandwidth(dataset: PLMDataset, grid=None, mode: str = "robust",
                     smoother: LocalFitConfig | None = None,
                     gm: GMConfig | None = None,
                     cv_score: ScoreFunction | None = None):
    """Feasible argmin of the cross-validation criterion over the grid.

    For bounded scores every candidate is scored against one pilot scale,
    the robust spread of the leave-one-out residuals at the smallest
    feasible bandwidth; a per-candidate scale would make the criterion
    nearly scale-free and blind to oversmoothing.  Ties break toward the
    smallest bandwidth.  ``grid=None`` uses the ``default_grid`` candidates.
    Returns (h_star, diagnostics); raises InfeasibleGridError with
    per-candidate reasons when nothing on the grid works.
    """
    smoother, gm, cv_score = _resolve_configs(mode, smoother, gm, cv_score)
    distances = pairwise_distances(dataset.manifold, dataset.t)
    if grid is None:
        grid = _grid_from_distances(dataset, distances)
    elif not isinstance(grid, BandwidthGrid):
        grid = BandwidthGrid(np.asarray(grid, dtype=float))
    inj = injectivity_radius(dataset.manifold)
    for h in grid.values:
        if not h < inj:
            raise ValueError(
                f"grid bandwidth {h} is not below the injectivity radius {inj}"
            )

    diagnostics: list[GridPointDiagnostic] = []
    pilot_scale = None
    for h in grid.values:
        try:
            res = _loo_prediction_residuals(dataset, float(h), smoother, gm, distances)
            if pilot_scale is None:
                pilot_scale = _robust_spread(res)
            diagnostics.append(GridPointDiagnostic(
                float(h), _criterion(res, cv_score, pilot_scale), True))
        except _FAILURE_KINDS as err:
            diagnostics.append(GridPointDiagnostic(
                float(h), float("inf"), False, f"{type(err).__name__}: {err}"))

    best = None
    for diag in diagnostics:
        if diag.feasible and (best is None or diag.score < best.score):
            best = diag
    if best is None:
        raise InfeasibleGridError(
            "no feasible bandwidth in the grid",
            reasons={d.h: d.reason for d in diagnostics},
        )
    return best.h, diagnostics
