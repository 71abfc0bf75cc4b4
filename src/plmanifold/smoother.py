"""Kernel-weighted local statistics and robust local M-smoothers.

The local fit at a query point composes three pieces: normalized kernel
weights built from geodesic distances and the volume density, a weighted
median / weighted MAD pair giving the robust local scale, and a score
equation solved by Illinois regula falsi (monotone scores) or reweighting
(redescending scores), all in the batched engine of ``_kernels``.  With the
identity score and no scale step the smoother reduces to the classical
kernel-weighted mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _kernels
from .errors import ConvergenceError, EmptyWindowError
from .manifold import (
    Manifold,
    as_coords,
    cross_distances,
    injectivity_radius,
    row_blocks,
    validate_coords,
    volume_density_from_distance,
)

HUBER_DEFAULT_C = 1.345
BISQUARE_DEFAULT_C = 4.685
MAD_CONSISTENCY = 1.4826


@dataclass(frozen=True)
class KernelSpec:
    """Nonnegative kernel with compact support [0, 1].

    The quadratic family is built in; other families plug in through
    ``evaluator``, a vectorized map u >= 0 -> K(u) with K(u) = 0 for u >= 1.
    """

    family: str = "quadratic"
    evaluator: Callable | None = None

    @classmethod
    def quadratic(cls) -> "KernelSpec":
        return cls("quadratic")

    def evaluate(self, u):
        u = np.asarray(u, dtype=float)
        if self.family == "quadratic":
            t = np.maximum(1.0 - u * u, 0.0)
            return 0.9375 * t * t
        if self.evaluator is None:
            raise ValueError(f"kernel family {self.family!r} has no evaluator")
        return np.asarray(self.evaluator(u), dtype=float)

    def validate(self, n_grid: int = 201) -> None:
        """Spot-check compact support, nonnegativity and boundedness."""
        u = np.linspace(0.0, 2.0, n_grid)
        k = self.evaluate(u)
        if np.any(k < 0):
            raise ValueError("kernel must be nonnegative")
        if np.any(k[u >= 1.0] != 0.0):
            raise ValueError("kernel must vanish outside [0, 1]")
        if not np.all(np.isfinite(k)):
            raise ValueError("kernel must be bounded")


def _huber_psi(c):
    def psi(u):
        return np.clip(u, -c, c)

    def psi_prime(u):
        return (np.abs(np.asarray(u, dtype=float)) < c).astype(float)

    return psi, psi_prime


def _bisquare_psi(c):
    def psi(u):
        u = np.asarray(u, dtype=float)
        z = u / c
        t = 1.0 - z * z
        return np.where(np.abs(u) < c, u * t * t, 0.0)

    def psi_prime(u):
        u = np.asarray(u, dtype=float)
        z2 = (u / c) ** 2
        return np.where(np.abs(u) < c, (1.0 - z2) * (1.0 - 5.0 * z2), 0.0)

    return psi, psi_prime


@dataclass(frozen=True)
class ScoreFunction:
    """Score psi with derivative, used in the local and regression M-equations.

    ``monotone`` selects the bracketed Illinois solve; redescending scores go
    through the reweighting fixed point instead.  Derivatives at the huber
    kinks |u| = c take the outer-branch value 0.
    """

    name: str
    c: float | None
    monotone: bool
    code: int  # dispatch for the batched kernel; -1 means a custom callable
    psi_fn: Callable
    psi_prime_fn: Callable

    @classmethod
    def identity(cls) -> "ScoreFunction":
        return cls("identity", None, True, 0, lambda u: np.asarray(u, dtype=float),
                   lambda u: np.ones_like(np.asarray(u, dtype=float)))

    @classmethod
    def huber(cls, c: float = HUBER_DEFAULT_C) -> "ScoreFunction":
        psi, psi_prime = _huber_psi(float(c))
        return cls("huber", float(c), True, 1, psi, psi_prime)

    @classmethod
    def bisquare(cls, c: float = BISQUARE_DEFAULT_C) -> "ScoreFunction":
        psi, psi_prime = _bisquare_psi(float(c))
        return cls("bisquare", float(c), False, 2, psi, psi_prime)

    @classmethod
    def custom(cls, name: str, psi: Callable, psi_prime: Callable,
               monotone: bool = False) -> "ScoreFunction":
        return cls(name, None, monotone, -1, psi, psi_prime)

    def psi(self, u):
        return self.psi_fn(np.asarray(u, dtype=float))

    def psi_prime(self, u):
        return self.psi_prime_fn(np.asarray(u, dtype=float))

    def weight(self, u):
        """Reweighting weight psi(u) / u, continued by psi'(0) at |u| <= 1e-10."""
        u = np.asarray(u, dtype=float)
        small = np.abs(u) <= 1e-10
        safe = np.where(small, 1.0, u)
        return np.where(small, float(self.psi_prime(0.0)), self.psi(safe) / safe)

    def validate(self) -> None:
        """Sampled checks of the score assumptions.

        Oddness to 1e-12; monotonicity for scores that claim it; the huber
        bound |psi| <= c; derivative against centered differences to 1e-6 on
        a grid that avoids the kink points.
        """
        ref = self.c if self.c else 2.0
        u = np.linspace(0.05, 4.0 * ref, 160)
        if np.max(np.abs(self.psi(-u) + self.psi(u))) > 1e-12:
            raise ValueError(f"score {self.name!r} is not odd")
        if self.monotone:
            grid = np.linspace(-4.0 * ref, 4.0 * ref, 321)
            if np.any(np.diff(self.psi(grid)) < -1e-12):
                raise ValueError(f"score {self.name!r} must be nondecreasing")
        if self.name == "huber":
            wide = np.linspace(-50.0, 50.0, 501)
            if np.max(np.abs(self.psi(wide))) > self.c + 1e-12:
                raise ValueError("huber score must be bounded by its constant")
        grid = np.linspace(-3.0 * ref, 3.0 * ref, 97)
        if self.c is not None:
            grid = grid[np.abs(np.abs(grid) - self.c) > 0.05]
        h = 1e-6
        fd = (self.psi(grid + h) - self.psi(grid - h)) / (2.0 * h)
        if np.max(np.abs(fd - self.psi_prime(grid))) > 1e-6:
            raise ValueError(
                f"score {self.name!r}: psi_prime disagrees with finite differences"
            )


@dataclass(frozen=True)
class LocalFitConfig:
    """Settings for the local robust fit.  The bandwidth is not one of them:
    every smoothing call takes h as an argument.

    ``tol`` is the local solve's stopping width: an Illinois bracket
    (monotone scores) or a reweighting step (redescending scores) of at most
    ``tol`` plus four float spacings of the estimate's offset from the
    weighted median; an Illinois row also stops when its score sum is zero to
    rounding.  ``max_iterations`` bounds either solve.
    """

    score: ScoreFunction = field(default_factory=ScoreFunction.huber)
    mad_constant: float = MAD_CONSISTENCY
    tol: float = 1e-10
    max_iterations: int = 200

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("solver tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.mad_constant > 0:
            raise ValueError("mad_constant must be positive")
        self.score.validate()


def check_bandwidth(manifold: Manifold, h: float) -> float:
    h = float(h)
    inj = injectivity_radius(manifold)
    if not 0.0 < h < inj:
        raise ValueError(
            f"bandwidth {h!r} must lie in (0, {inj}) for the {manifold.kind}"
        )
    return h


def _check_weight_pair(weights, values):
    w = np.asarray(weights, dtype=float).ravel()
    v = np.asarray(values, dtype=float).ravel()
    if w.size != v.size:
        raise ValueError(f"length mismatch: {w.size} weights vs {v.size} values")
    if w.size == 0:
        raise ValueError("need at least one observation")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-8:
        raise ValueError("weights must sum to 1")
    return w, v


def raw_weight_matrix(manifold: Manifold, kernel: KernelSpec, h: float,
                      distances: np.ndarray) -> np.ndarray:
    """Unnormalized kernel weights K(d/h) / volume density, elementwise, in a
    new array."""
    k = kernel.evaluate(distances / h)
    if manifold.kind == "sphere":
        pos = k > 0
        theta = volume_density_from_distance(manifold, distances[pos])
        k[pos] = k[pos] / theta
    return k


def window_weights(manifold: Manifold, kernel: KernelSpec, h: float,
                   queries: np.ndarray, sample: np.ndarray,
                   leave_one_out: bool = False, distances: np.ndarray | None = None):
    """Raw kernel weights of every query row against the sample, with their
    row totals.

    W is filled in ``row_blocks``: each block's distances are sliced from
    ``distances`` (the queries x sample matrix) when given and computed from
    the coordinates otherwise, so the kernel's temporaries stay block-sized.
    When ``queries is sample`` only blocks on and above the diagonal are
    computed and each is mirrored.  ``leave_one_out`` zeroes the diagonal
    weight; it raises ValueError unless ``queries is sample``.  Returns
    (W, totals).  Raises EmptyWindowError listing every query index whose
    window is empty, with the smallest bandwidth that would cover them all
    as ``nearest_distance``.
    """
    symmetric = queries is sample
    if leave_one_out and not symmetric:
        raise ValueError("leave_one_out needs the sample itself as the queries")
    nq, n = queries.shape[0], sample.shape[0]
    W = np.empty((nq, n))
    for s, e in row_blocks(nq, n, upper=symmetric):
        c = s if symmetric else 0
        d = (cross_distances(manifold, queries[s:e], sample[c:]) if distances is None
             else distances[s:e, c:])
        k = raw_weight_matrix(manifold, kernel, h, d)
        if e - s == nq:  # one block holds every row: it is W, no copy
            W = k
            break
        W[s:e, c:] = k
        if symmetric:
            W[e:, s:e] = k[:, e - s:].T
    if leave_one_out:
        np.fill_diagonal(W, 0.0)
    totals = W.sum(axis=1)
    empty = np.flatnonzero(totals <= 0.0)
    if empty.size:
        d = (cross_distances(manifold, queries[empty], sample) if distances is None
             else distances[empty])
        if leave_one_out:
            d[np.arange(empty.size), empty] = np.inf
        h_min = float(d.min(axis=1).max())
        raise EmptyWindowError(
            f"empty kernel window at query indices {empty.tolist()}; "
            f"the bandwidth must exceed {h_min:.6g}",
            nearest_distance=h_min,
            indices=empty.tolist(),
        )
    return W, totals


def pelletier_weights(manifold: Manifold, kernel: KernelSpec, h: float,
                      t, sample) -> np.ndarray:
    """Normalized kernel weights of the sample points relative to t.

    Raises EmptyWindowError (carrying the nearest-neighbor distance) when no
    sample point falls within bandwidth h of t.
    """
    h = check_bandwidth(manifold, h)
    tq = validate_coords(manifold, as_coords(t), name="query")
    pts = validate_coords(manifold, sample, name="sample")
    W, totals = window_weights(manifold, kernel, h, tq, pts)
    return W[0] / totals[0]


class ConditionalECDF:
    """Right-continuous weighted empirical distribution function."""

    def __init__(self, weights, values):
        w, v = _check_weight_pair(weights, values)
        order = np.argsort(v, kind="stable")
        self.support = v[order]
        self.cumulative = np.cumsum(w[order])

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        idx = np.searchsorted(self.support, y, side="right")
        padded = np.concatenate([[0.0], self.cumulative])
        out = padded[idx]
        return float(out) if out.ndim == 0 else out


def conditional_ecdf(weights, values) -> ConditionalECDF:
    """Weighted conditional ECDF as a callable step function."""
    return ConditionalECDF(weights, values)


def _sorted_row(w, v):
    # one engine row: weights and values in ascending (stable) value order
    o = np.argsort(v, kind="stable")
    return w[o][None], v[o][None]


def weighted_median(weights, values) -> float:
    """Smallest value whose cumulative weight reaches 1/2."""
    W, V = _sorted_row(*_check_weight_pair(weights, values))
    return float(_kernels.median_rows(W, V)[0])


def local_mad(weights, values, consistency_constant: float = MAD_CONSISTENCY) -> float:
    """Weighted median absolute deviation from the weighted median.

    Returns 0.0 when the window is locally degenerate; callers decide how to
    react (the smoother falls back to the weighted median and flags the
    query point).
    """
    W, V = _sorted_row(*_check_weight_pair(weights, values))
    med = _kernels.median_rows(W, V)
    return float(_kernels.mad_rows(W, V, med, consistency_constant)[0])


def local_m_estimate(weights, values, score: ScoreFunction, scale: float,
                     tol: float = 1e-10, max_iterations: int = 200) -> float:
    """Solve sum_i w_i psi((v_i - m) / scale) = 0 for the local location m.

    The identity score short-circuits to the weighted mean.  Monotone scores
    are bracketed by [min v, max v] and solved by Illinois regula falsi on
    the offset from the weighted median, stopping when the bracket is within
    ``tol`` plus four float spacings of its ends or the score sum is zero to
    rounding; redescending scores iterate a reweighting fixed point started
    from the weighted median until a step is that small.  Raises
    ConvergenceError, carrying the last iterate, after ``max_iterations``.
    """
    w, v = _check_weight_pair(weights, values)
    if score.code == 0:
        return float(w @ v)
    if not scale > 0:
        raise ValueError("scale must be positive")
    W, V = _sorted_row(w, v)
    start = _kernels.median_rows(W, V)
    est, flags = _kernels.solve_rows(W, V, start, np.array([float(scale)]), score.code,
                                     score.c, tol, max_iterations, score)
    if flags[0] == 2:
        raise ConvergenceError(
            f"local M-estimation did not converge in {max_iterations} iterations",
            last_iterate=float(est[0]),
        )
    return float(est[0])


def smooth_columns(manifold: Manifold, kernel: KernelSpec, h: float,
                   sample: np.ndarray, columns: np.ndarray, config: LocalFitConfig,
                   queries: np.ndarray | None = None,
                   leave_one_out: bool = False,
                   distances: np.ndarray | None = None):
    """Smooth several value columns at bandwidth h at once, sharing the
    weight matrix.

    ``sample`` are validated training coordinates, ``columns`` an (n, k)
    value matrix, ``config`` the local fit's score and solver settings,
    ``queries`` validated query coordinates (defaults to the sample itself).
    ``leave_one_out`` zeroes the diagonal weight, which requires the default
    queries.  ``distances``, the queries x sample geodesic matrix, lets a
    caller that smooths at several bandwidths share it; without it the
    weights are built from the coordinates (`window_weights`).
    Returns (estimates, flags), both of shape (n_queries, k); flag 1 marks a
    degenerate local MAD (weighted-median fallback).

    Raises EmptyWindowError listing every query index whose window is empty
    together with the smallest bandwidth that would cover them all, and
    ConvergenceError listing every query index where a local solve ran out
    of iterations.
    """
    h = check_bandwidth(manifold, h)
    columns = np.asarray(columns, dtype=float)
    if columns.ndim == 1:
        columns = columns[:, None]
    if queries is None:
        queries = sample
    W, totals = window_weights(manifold, kernel, h, queries, sample, leave_one_out,
                               distances)

    nq, k = W.shape[0], columns.shape[1]
    estimates = np.empty((nq, k))
    flags = np.zeros((nq, k), dtype=np.int8)
    score = config.score
    for j in range(k):
        v = columns[:, j]
        if score.code == 0:
            estimates[:, j] = (W @ v) / totals
            continue
        estimates[:, j], flags[:, j] = _kernels.local_m_rows(
            W, v, np.argsort(v), score.code, score.c, config.mad_constant,
            config.tol, config.max_iterations, score=score,
        )
    stuck = np.flatnonzero((flags == 2).any(axis=1))
    if stuck.size:
        raise ConvergenceError(
            f"local smoothing did not converge at query indices {stuck.tolist()}",
            indices=stuck.tolist(),
        )
    return estimates, flags


def fit_smoother(manifold: Manifold, kernel: KernelSpec, h: float, sample, values,
                 queries, config: LocalFitConfig, return_flags: bool = False):
    """Robust local fit of one value column at bandwidth h at the given query
    points.

    With the identity score in ``config`` this is exactly the classical
    kernel-weighted mean (no scale step).  Degenerate windows fall back to
    the weighted median and are flagged; solver non-convergence raises
    ConvergenceError tagged with the query indices.
    """
    sample = validate_coords(manifold, sample, name="sample")
    queries = validate_coords(manifold, queries, name="query")
    values = np.asarray(values, dtype=float).ravel()
    if values.size != sample.shape[0]:
        raise ValueError(
            f"length mismatch: {sample.shape[0]} sample points vs {values.size} values"
        )
    est, flags = smooth_columns(manifold, kernel, h, sample, values, config,
                                queries=queries)
    if return_flags:
        return est[:, 0], flags[:, 0]
    return est[:, 0]
