"""The local M-step, batched over rows: the one implementation in the package.

Given a raw kernel-weight matrix W (one row per query point, columns indexed
like the shared value vector v; ``smoother.smooth_columns`` passes one row
block of the weights at a time), each row is normalized and solved for the
local M-estimate: weighted median, weighted MAD, then either Illinois regula
falsi on the monotone score equation or a reweighting fixed point for a
redescending score.  Each row is solved for its offset from the weighted
median (`solve_rows`).  Both solves stop on ``LOCAL_TOL`` widened by four
float spacings of the iterate (`_close`); the Illinois solve also stops once
the score sum is zero to rounding.

The kernel has compact support, so most of each row of W is zero.
`window_rows` therefore gathers each row's positive weights, with their
values in ascending order, into a (rows, width) window; every later step
works on that window only.  The cost is rows x window width x iterations,
where width is the largest window of the block, not the n columns of W.

The pieces (`window_rows`, `median_rows`, `mad_rows`, `illinois_rows`,
`reweight_rows`) work on weights as given, with per-row values V that
broadcast against W; `local_m_rows` normalizes and composes them, and the
scalar functions in `smoother` are one-row calls into the same pieces.

Score codes: 1 huber (Illinois on `huber_psi`), 2 bisquare (reweighting by
`bisquare_weight`), each with its constant c; the solvers call the formulas
themselves.  The identity score is the kernel-weighted mean, which callers
compute directly.  `huber_psi` and `bisquare_weight` are the package's only
copies of those formulas; ``smoother.ScoreFunction`` calls them on a copy of
its input.

Flag conventions (per query row): 0 solved, 1 degenerate local MAD (estimate
falls back to the weighted median), 2 iteration budget exhausted.
"""

from __future__ import annotations

import numpy as np

MAD_CONSISTENCY = 1.4826
# The local solve's stopping width (`_close`) and iteration bound.
LOCAL_TOL = 1e-10
LOCAL_MAX_ITERATIONS = 200

_MEDIAN_EPS = 1e-12
_EPS = np.finfo(float).eps

_SCORE_BISQUARE = 2


def window_rows(W, v, order):
    """Each row's positive weights and their values, ascending by value.

    ``order`` sorts v ascending.  Returns (Ww, Vw), both (rows, width) with
    width the largest count of positive weights in a row.  Entries are
    left-aligned; a shorter row is padded with weight 0 and the row's largest
    value, so every row of Vw stays sorted.  Every row needs a positive
    weight.
    """
    Ws = np.take(W, order, axis=1)
    vs = v[order]
    n = Ws.shape[1]
    cells = np.flatnonzero(Ws > 0.0)  # row-major: ascending value within a row
    rows = cells // n
    cols = cells - rows * n
    counts = np.bincount(rows, minlength=W.shape[0])
    ends = np.cumsum(counts)
    width = counts.max()
    slots = rows * width + np.arange(cells.size) - (ends - counts)[rows]
    Ww = np.zeros((W.shape[0], width))
    Ww.ravel()[slots] = Ws.ravel()[cells]
    Vw = np.repeat(vs[cols[ends - 1]], width).reshape(W.shape[0], width)
    Vw.ravel()[slots] = vs[cols]
    return Ww, Vw


def median_rows(W, V):
    """Per row, the smallest value of V whose cumulative weight reaches 1/2.

    Each row of V must be sorted ascending.
    """
    V = np.broadcast_to(V, W.shape)
    cum = np.cumsum(W, axis=1)
    k = np.argmax(cum >= 0.5 - _MEDIAN_EPS, axis=1)
    return V[np.arange(W.shape[0]), k]


def mad_rows(W, V, med):
    """Per row, ``MAD_CONSISTENCY`` times the weighted median of |V - med|."""
    dev = np.abs(np.broadcast_to(V, W.shape) - med[:, None])
    dorder = np.argsort(dev, axis=1)
    dsort = np.take_along_axis(dev, dorder, axis=1)
    cum = np.cumsum(np.take_along_axis(W, dorder, axis=1), axis=1)
    k = np.argmax(cum >= 0.5 - _MEDIAN_EPS, axis=1)
    return MAD_CONSISTENCY * dsort[np.arange(W.shape[0]), k]


def _close(a, b):
    """|a - b| <= LOCAL_TOL, widened by four float spacings of the larger of
    |a|, |b| so that a tolerance below the spacing near a large |a| can still
    be met."""
    return np.abs(a - b) <= LOCAL_TOL + 4.0 * _EPS * np.maximum(np.abs(a), np.abs(b))


def illinois_rows(W, V, scale, c):
    """Illinois regula falsi on g(m) = sum_i W_i psi((V_i - m) / scale) = 0 with
    the Huber psi of constant c, bracketed by the row's support [min V, max V],
    where g is nonincreasing.

    Each step takes the secant point of the bracket and keeps the end whose
    g has the other sign; when the same end is kept twice running, the g
    stored there is halved (Dowell and Jarratt 1971).  A row stops when its
    bracket has closed (`_close`), or when |g| at the new point is at most
    width * eps * (g(lo0) - g(hi0)): for the monotone Huber psi that bounds
    the rounding error of g anywhere in the bracket, so g is zero to rounding.
    Returns the bracket end with the smaller true |g|, and whether the row
    stopped within ``LOCAL_MAX_ITERATIONS`` steps.
    """
    V = np.broadcast_to(V, W.shape)
    sup = W > 0.0
    lo = np.where(sup, V, np.inf).min(axis=1)
    hi = np.where(sup, V, -np.inf).max(axis=1)
    u = np.empty(W.shape)

    def score(m):
        np.subtract(V, m[:, None], out=u)
        np.divide(u, scale[:, None], out=u)
        return np.einsum("ij,ij->i", W, huber_psi(u, c))

    g_lo, g_hi = score(lo), score(hi)
    floor = W.shape[1] * _EPS * (g_lo - g_hi)
    f_lo, f_hi = g_lo.copy(), g_hi.copy()  # the secant's values, halved by Illinois
    moved = np.zeros(lo.size, dtype=np.int8)  # end moved last step: +1 lo, -1 hi
    done = _close(lo, hi) | (np.abs(g_lo) <= floor) | (np.abs(g_hi) <= floor)
    for _ in range(LOCAL_MAX_ITERATIONS):
        if np.all(done):
            break
        # not done: g(lo) > floor >= 0 > -floor > g(hi), so the step is in [lo, hi]
        live = ~done
        x = np.clip(lo + (hi - lo) * (f_lo / np.where(live, f_lo - f_hi, 1.0)), lo, hi)
        g = score(x)
        up = live & (g > 0.0)
        down = live & ~up
        f_hi[up & (moved == 1)] *= 0.5  # hi kept twice running
        f_lo[down & (moved == -1)] *= 0.5
        lo[up], g_lo[up], f_lo[up] = x[up], g[up], g[up]
        hi[down], g_hi[down], f_hi[down] = x[down], g[down], g[down]
        moved[up], moved[down] = 1, -1
        done |= live & (_close(lo, hi) | (np.abs(g) <= floor))
    return np.where(np.abs(g_lo) <= np.abs(g_hi), lo, hi), done


def reweight_rows(W, V, start, scale, c):
    """Fixed point m = sum w_i(m) V_i / sum w_i(m) with w_i = W_i
    bisquare_weight(u_i, c), u_i = (V_i - m) / scale, iterated from ``start``
    for at most ``LOCAL_MAX_ITERATIONS`` steps.  A row whose weights all
    vanish stops where it is.  Returns (estimates, converged)."""
    V = np.broadcast_to(V, W.shape)
    m = start.copy()
    settled = np.zeros(m.size, dtype=bool)
    stuck = np.zeros(m.size, dtype=bool)
    u = np.empty(W.shape)
    for _ in range(LOCAL_MAX_ITERATIONS):
        np.subtract(V, m[:, None], out=u)
        u /= scale[:, None]
        tw = bisquare_weight(u, c)
        tw *= W
        den = tw.sum(axis=1)
        ok = den > 0.0
        stuck |= ~ok & ~settled
        m_new = np.where(ok, np.einsum("ij,ij->i", tw, V) / np.where(ok, den, 1.0), m)
        live = ~settled & ~stuck
        settled |= live & _close(m_new, m)
        m = np.where(live, m_new, m)
        if np.all(settled | stuck):
            break
    return m, settled


def huber_psi(u, c):
    """Huber psi, clip(u, -c, c), computed in place."""
    return np.clip(u, -c, c, out=u)


def bisquare_weight(u, c):
    """Bisquare weight psi(u) / u = (1 - (u/c)^2)^2 inside |u| < c and 0
    outside, computed in place."""
    outside = np.abs(u) >= c
    u /= c
    np.square(u, out=u)
    np.subtract(1.0, u, out=u)
    np.square(u, out=u)
    u[outside] = 0.0
    return u


def solve_rows(W, V, start, scale, code, c):
    """Solve each row's score equation at a fixed per-row ``scale``.

    Each row is solved for its offset from ``start`` (the weighted median):
    start is subtracted from V in place (V is overwritten) and added back
    once, so the iterates stay near zero and a large common offset costs one
    rounding, not one per step.  Huber (code 1, monotone) takes Illinois
    steps; bisquare (code 2, redescending) reweights from offset 0.  Returns
    (estimates, flags) with flag 2 on rows that ran out of iterations.
    """
    V -= start[:, None]
    if code == _SCORE_BISQUARE:
        est, ok = reweight_rows(W, V, np.zeros_like(start), scale, c)
    else:
        est, ok = illinois_rows(W, V, scale, c)
    return est + start, np.where(ok, 0, 2).astype(np.int8)


def local_m_rows(W, v, order, code, c):
    """Batched local M solve with the weighted MAD as scale: (estimates, flags)
    per row.  ``order`` sorts v ascending; ``code`` is 1 (huber) or 2
    (bisquare) with constant ``c``."""
    W = np.asarray(W, dtype=float)
    v = np.asarray(v, dtype=float)
    Ww, Vw = window_rows(W, v, order)
    Ww /= W.sum(axis=1, keepdims=True)
    med = median_rows(Ww, Vw)
    mad = mad_rows(Ww, Vw, med)

    est = med.copy()
    flags = np.zeros(W.shape[0], dtype=np.int8)
    flags[mad <= 0.0] = 1
    active = np.flatnonzero(mad > 0.0)
    if active.size:
        est[active], flags[active] = solve_rows(
            Ww[active], Vw[active], med[active], mad[active], code, c)
    return est, flags
