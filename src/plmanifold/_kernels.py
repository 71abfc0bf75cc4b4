"""The local M-step, batched over rows: the one implementation in the package.

Given a raw kernel-weight matrix W (one row per query point, columns indexed
like the shared value vector v), each row is normalized and solved for the
local M-estimate: weighted median, weighted MAD, then either bisection on the
monotone score equation or a reweighting fixed point for a redescending
score.  This is the O(n_query * n * iterations) core that dominates
leave-one-out cross-validation and Monte Carlo runs.

The pieces (`median_rows`, `mad_rows`, `bisect_rows`, `reweight_rows`) work on
weights as given; `local_m_rows` normalizes and composes them, and the scalar
functions in `smoother` are one-row calls into the same pieces.

Score codes: 1 huber, 2 bisquare, -1 a custom score whose vectorized psi
(and psi'(0)) come from the ``score`` keyword.  The identity score is the
kernel-weighted mean, which callers compute directly.

Flag conventions (per query row): 0 solved, 1 degenerate local MAD (estimate
falls back to the weighted median), 2 iteration budget exhausted.
"""

from __future__ import annotations

import numpy as np

_MEDIAN_EPS = 1e-12

_SCORE_CUSTOM = -1
_SCORE_BISQUARE = 2


def median_rows(W, v, order):
    """Per row, the smallest value of v whose cumulative weight reaches 1/2.

    ``order`` sorts v ascending.
    """
    cum = np.cumsum(W[:, order], axis=1)
    k = np.argmax(cum >= 0.5 - _MEDIAN_EPS, axis=1)
    return v[order][k]


def mad_rows(W, v, med, mad_const):
    """Per row, mad_const times the weighted median of |v - med|."""
    dev = np.abs(v[None, :] - med[:, None])
    dorder = np.argsort(dev, axis=1)
    dsort = np.take_along_axis(dev, dorder, axis=1)
    cum = np.cumsum(np.take_along_axis(W, dorder, axis=1), axis=1)
    k = np.argmax(cum >= 0.5 - _MEDIAN_EPS, axis=1)
    return mad_const * dsort[np.arange(W.shape[0]), k]


def bisect_rows(W, v, scale, psi, tol, maxiter):
    """Bisection on sum_i W_i psi((v_i - m) / scale) = 0, bracketed by the
    row's support [min v, max v].  Returns (estimates, converged)."""
    sup = W > 0.0
    lo = np.where(sup, v[None, :], np.inf).min(axis=1)
    hi = np.where(sup, v[None, :], -np.inf).max(axis=1)
    single = hi <= lo
    done = single.copy()
    for _ in range(maxiter):
        mid = 0.5 * (lo + hi)
        u = (v[None, :] - mid[:, None]) / scale[:, None]
        g = np.einsum("ij,ij->i", W, psi(u))
        pos = g > 0.0
        lo = np.where(done, lo, np.where(pos, mid, lo))
        hi = np.where(done, hi, np.where(pos, hi, mid))
        done |= (hi - lo) < tol
        if np.all(done):
            break
    return np.where(single, lo, 0.5 * (lo + hi)), done


def reweight_rows(W, v, start, scale, weight, tol, maxiter):
    """Fixed point m = sum w_i(m) v_i / sum w_i(m) with w_i = W_i weight(u_i),
    u_i = (v_i - m) / scale, iterated from ``start``.  A row whose weights
    all vanish stops where it is.  Returns (estimates, converged)."""
    m = start.copy()
    settled = np.zeros(m.size, dtype=bool)
    stuck = np.zeros(m.size, dtype=bool)
    for _ in range(maxiter):
        u = (v[None, :] - m[:, None]) / scale[:, None]
        tw = W * weight(u)
        den = tw.sum(axis=1)
        ok = den > 0.0
        stuck |= ~ok & ~settled
        m_new = np.where(ok, (tw @ v) / np.where(ok, den, 1.0), m)
        step = np.abs(m_new - m)
        live = ~settled & ~stuck
        m = np.where(live, m_new, m)
        settled |= live & (step <= tol)
        if np.all(settled | stuck):
            break
    return m, settled


def _bisquare_weight(c):
    def weight(u):
        z = u / c
        t = 1.0 - z * z
        return np.where(np.abs(u) < c, t * t, 0.0)

    return weight


def _psi_ratio_weight(score):
    # psi(u) / u, continued by psi'(0) at u = 0
    at_zero = float(score.psi_prime(0.0))

    def weight(u):
        small = np.abs(u) <= 1e-10
        safe = np.where(small, 1.0, u)
        return np.where(small, at_zero, score.psi(safe) / safe)

    return weight


def solve_rows(W, v, start, scale, code, c, tol, maxiter, score=None):
    """Solve each row's score equation at a fixed per-row ``scale``.

    Monotone scores bisect; redescending ones reweight from ``start``.
    Returns (estimates, flags) with flag 2 on rows that ran out of
    iterations.
    """
    if code == _SCORE_CUSTOM and score.monotone:
        est, ok = bisect_rows(W, v, scale, score.psi, tol, maxiter)
    elif code == _SCORE_CUSTOM:
        est, ok = reweight_rows(W, v, start, scale, _psi_ratio_weight(score), tol, maxiter)
    elif code == _SCORE_BISQUARE:
        est, ok = reweight_rows(W, v, start, scale, _bisquare_weight(c), tol, maxiter)
    else:
        est, ok = bisect_rows(W, v, scale, lambda u: np.clip(u, -c, c), tol, maxiter)
    return est, np.where(ok, 0, 2).astype(np.int8)


def local_m_rows(W, v, order, code, c, mad_const, tol, maxiter, score=None):
    """Batched local M solve with the weighted MAD as scale: (estimates, flags)
    per row.  ``order`` sorts v ascending; ``score`` is needed for code -1."""
    W = np.asarray(W, dtype=float)
    v = np.asarray(v, dtype=float)
    Wn = W / W.sum(axis=1, keepdims=True)
    med = median_rows(Wn, v, order)
    mad = mad_rows(Wn, v, med, mad_const)

    est = med.copy()
    flags = np.zeros(W.shape[0], dtype=np.int8)
    flags[mad <= 0.0] = 1
    active = np.flatnonzero(mad > 0.0)
    if active.size:
        est[active], flags[active] = solve_rows(
            Wn[active], v, med[active], mad[active], code, c, tol, maxiter, score)
    return est, flags
