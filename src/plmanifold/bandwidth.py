"""Bandwidth selection by leave-one-out cross-validation.

The robust criterion sums the squared Huber score (``CV_SCORE``) of
standardized leave-one-out prediction residuals; in classical mode it is
the usual sum of squared prediction errors.  Candidate
bandwidths where a leave-one-out window is empty (or a downstream solver
fails) are marked infeasible rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import lerp
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateScaleError,
    EmptyWindowError,
    InfeasibleGridError,
    SingularDesignError,
)
from .manifold import Manifold, injectivity_radius, pair_distance_blocks
from .plm import PLMDataset, mode_configs, smooth_dataset
from .robust_linear import GMConfig, gm_estimate, residual_scale_or_zero
from .smoother import ScoreFunction, check_bandwidth, only_entry

_FAILURE_KINDS = (EmptyWindowError, ConvergenceError, DegenerateScaleError,
                  SingularDesignError)
_GRID_SIZE = 8
_QUANTILE_BINS = 4096  # the default grid's histogram of pairwise distances
CV_SCORE = ScoreFunction.huber()  # the robust criterion's bounded score


@dataclass
class GridPointDiagnostic:
    h: float
    score: float
    feasible: bool
    reason: str | None = None


def check_grid(manifold: Manifold, values) -> np.ndarray:
    """Candidate bandwidths as an ascending float array.  Each candidate
    passes ``check_bandwidth``; an empty grid raises ValueError."""
    hs = [check_bandwidth(manifold, h) for h in np.asarray(values, dtype=float).ravel()]
    if not hs:
        raise ValueError("bandwidth grid must be nonempty")
    return np.sort(hs)


def check_choice(manifold: Manifold, bandwidth: float | None, grid) -> np.ndarray | None:
    """The one check of a run's bandwidth rule: a fixed ``bandwidth`` or a
    CV ``grid``, not both (ConfigError).  The bandwidth passes
    ``check_bandwidth``; returns the grid through ``check_grid``, or None."""
    if bandwidth is not None and grid is not None:
        raise ConfigError("give either a fixed bandwidth or a CV grid, not both")
    if bandwidth is not None:
        check_bandwidth(manifold, bandwidth)
    return None if grid is None else check_grid(manifold, grid)


def default_grid(dataset: PLMDataset) -> np.ndarray:
    """Eight log-spaced candidates from the 10th percentile of the positive
    pairwise distances (``np.quantile``'s bit for bit, from two passes over
    ``pair_distance_blocks``: no n x n array) up to 0.9 x ``injectivity_radius``
    (0.9 x the largest pairwise distance on unbounded domains)."""
    t = dataset.t
    # d <= pi/2 x chord on every kind; the bound only sizes the bins (larger d is clipped)
    bound = np.pi * float(np.linalg.norm(t - t[0], axis=1).max())
    scale = _QUANTILE_BINS / bound if bound > 0 else 0.0

    def bins(d):  # monotone in d, so a lower bin holds only smaller distances
        return np.minimum(d * scale, _QUANTILE_BINS - 1).astype(np.intp)

    counts = sum(np.bincount(bins(d), minlength=_QUANTILE_BINS)
                 for d in pair_distance_blocks(dataset.manifold, t))
    pairs = int(counts.sum())
    if pairs == 0:
        raise ValueError("all manifold covariates coincide; no usable grid")
    index = (pairs - 1) * 0.10  # np.quantile's linear virtual index
    k = int(index)
    cumulative = np.cumsum(counts)
    # the bins of ranks k and k + 1 (any bin between is empty) and the top one (largest d)
    wanted = [*np.searchsorted(cumulative, [k, k + 1], side="right"), np.flatnonzero(counts)[-1]]
    kept = np.sort(np.concatenate([d[np.isin(bins(d), wanted)]
                                   for d in pair_distance_blocks(dataset.manifold, t)]))
    below = cumulative[wanted[0]] - counts[wanted[0]]
    a, b = kept[k - below], kept[min(k + 1, pairs - 1) - below]
    lo = float(lerp(a, b, index - k))
    inj = injectivity_radius(dataset.manifold)
    hi = 0.9 * (inj if np.isfinite(inj) else float(kept[-1]))
    if lo >= hi:
        lo = hi / 4.0
    return np.geomspace(lo, hi, _GRID_SIZE)


def _criterion(residuals: np.ndarray, mode: str, scale: float) -> float:
    if mode == "classical":
        return float(np.sum(residuals ** 2))
    s = scale if scale > 0.0 else 1.0  # all residuals (near) identical: score them raw
    return float(np.sum(CV_SCORE.psi(residuals / s) ** 2))


def rcv_score(dataset: PLMDataset, h: float, mode: str = "robust",
              local_score: ScoreFunction | None = None,
              gm: GMConfig | None = None) -> float:
    """Cross-validation criterion at bandwidth h: the score of the
    one-candidate grid [h] in ``select_bandwidth``, so in robust mode the
    residuals are standardized by their own robust spread.  Returns +inf
    when h is infeasible (an empty leave-one-out window or a solver
    failure); never raises for feasibility problems.
    """
    try:
        _, [diagnostic] = select_bandwidth(dataset, [h], mode, local_score, gm)
    except InfeasibleGridError:
        return float("inf")
    return diagnostic.score


def select_bandwidth(dataset: PLMDataset, grid=None, mode: str = "robust",
                     local_score: ScoreFunction | None = None,
                     gm: GMConfig | None = None):
    """Feasible argmin of the cross-validation criterion over the grid.

    In robust mode every candidate is scored against one pilot scale, the
    robust spread of the leave-one-out residuals at the smallest feasible
    bandwidth; a per-candidate scale would make the criterion nearly
    scale-free and blind to oversmoothing.  Ties break toward the smallest
    bandwidth.  ``grid=None`` uses the ``default_grid`` candidates; a given
    grid goes through ``check_grid``.  The whole grid is one leave-one-out
    ``smooth_dataset`` call, whose block plan decides what the candidates
    share.  Returns (h_star, diagnostics); raises InfeasibleGridError when
    nothing on the grid works, its message ending in the largest
    candidate's reason and ``reasons`` holding every candidate's.
    """
    local_score, gm = mode_configs(mode, local_score, gm)
    grid = default_grid(dataset) if grid is None else check_grid(dataset.manifold, grid)
    entries = smooth_dataset(dataset, grid, local_score, leave_one_out=True)

    diagnostics: list[GridPointDiagnostic] = []
    pilot_scale = None
    for h, entry in zip(grid, entries):
        try:
            _, resid, _ = only_entry([entry])
            res = resid[:, 0] if dataset.p == 0 else gm_estimate(
                resid[:, 0], resid[:, 1:], gm).residuals
            if pilot_scale is None:
                pilot_scale = residual_scale_or_zero(res)
            diagnostics.append(GridPointDiagnostic(
                float(h), _criterion(res, mode, pilot_scale), True))
        except _FAILURE_KINDS as err:
            diagnostics.append(GridPointDiagnostic(
                float(h), float("inf"), False, f"{type(err).__name__}: {err}"))

    best = None
    for diag in diagnostics:
        if diag.feasible and (best is None or diag.score < best.score):
            best = diag
    if best is None:
        raise InfeasibleGridError(  # the grid ascends: its last is the largest
            f"no feasible bandwidth in the grid; at the largest, h = {diagnostics[-1].h:.6g}: "
            f"{diagnostics[-1].reason}",
            reasons={d.h: d.reason for d in diagnostics},
        )
    return best.h, diagnostics
