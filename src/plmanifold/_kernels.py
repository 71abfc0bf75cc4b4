"""The local M-step, batched over rows: the one implementation in the package.

Given a raw kernel-weight matrix W (one row per query point, columns indexed
like the shared value vector v; ``smoother.smooth_columns`` passes one row
block of the weights at a time), each row is normalized and solved for the
local M-estimate: weighted median, weighted MAD, then either bracketed
Newton steps on the monotone score equation or, for a redescending score,
a Newton step whenever the row's slope sum is positive and a reweighting
step otherwise.  Each row is solved for its offset from the weighted
median (`solve_rows`).  Every stop is free of the data's scale: the
monotone solve stops when a step leaves the active set unchanged, when the
score sum is zero, or when its bracket is ``LOCAL_TOL`` times the row's MAD
wide; the redescending solve stops on a step of at most that width.

The kernel has compact support, so most of each row of W is zero.
`window_rows` therefore gathers each row's positive weights, with their
values in ascending order, into a (rows, width) window; every later step
works on that window only.  The cost is rows x window width x iterations,
where width is the largest window of the block, not the n columns of W.

`window_rows` sorts v itself (stably); the later pieces (`median_rows`,
`mad_rows`, `newton_rows`, `reweight_rows`) take weights as given and
values V ascending per row, as in a window; `local_m_rows` normalizes and
composes them, and `smoother`'s scalar functions are one-row calls into them.
Each block's arrays are freed with the block, so the pieces make as few
block-sized temporaries as they can: `window_rows` places a row's entries
by boolean masks and `mad_rows` gathers with one flat index array, with no
other index array as large as the block.

`quantile` is the package's one unweighted order statistic: np.median's
and np.quantile's bits from one ``np.partition``, without the ``numpy.ma``
import that their NaN check costs; `lerp` is numpy's interpolation
between two order statistics.

Score codes: 1 huber (Newton steps on `huber_psi`), 2 bisquare (reweighting
and Newton steps on `bisquare_q` and `bisquare_slope`), each with its
constant c; the solvers call the formulas themselves.  The identity score is
the kernel-weighted mean, which callers compute directly.  `huber_psi`,
`bisquare_q`, `bisquare_weight` and `bisquare_slope` are the package's only
copies of those formulas; ``smoother.ScoreFunction`` calls them on a copy of
its input.

Flag conventions (per query row): 0 solved, 1 degenerate local MAD (estimate
falls back to the weighted median), 2 iteration budget exhausted.
"""

from __future__ import annotations

import numpy as np

MAD_CONSISTENCY = 1.4826
# The local solve's stopping width, in units of the row's MAD, and its
# iteration bound.
LOCAL_TOL = 1e-10
LOCAL_MAX_ITERATIONS = 200

_MEDIAN_EPS = 1e-12

_SCORE_BISQUARE = 2


def window_rows(W, v):
    """Each row's positive weights and their values, in a stable sort of v.

    Returns (Ww, Vw), both (rows, width) with width the largest count of
    positive weights in a row.  Entries are left-aligned; a shorter row is
    padded with weight 0 and the row's largest value, so every row of Vw
    stays sorted.  Every row needs a positive weight.  Boolean masks place
    the entries (row-major: ascending value within a row), so no index
    array as large as the block is made.
    """
    order = np.argsort(v, kind="stable")
    Ws = np.take(W, order, axis=1)
    positive = Ws > 0.0
    counts = np.count_nonzero(positive, axis=1)
    filled = np.arange(counts.max()) < counts[:, None]
    Ww = np.zeros(filled.shape)
    Ww[filled] = np.extract(positive, Ws)  # extract: a 2-D mask index is slower
    Vw = np.empty(filled.shape)
    Vw[filled] = np.extract(positive, np.broadcast_to(v[order], Ws.shape))
    top = Vw[np.arange(Vw.shape[0]), counts - 1]
    np.copyto(Vw, top[:, None], where=~filled)
    return Ww, Vw


def _half_rank(W):
    """Per row, the first position whose cumulative weight reaches 1/2."""
    return np.argmax(np.cumsum(W, axis=1) >= 0.5 - _MEDIAN_EPS, axis=1)


def median_rows(W, V):
    """Per row, the smallest value of V whose cumulative weight reaches 1/2.

    Each row of V must be sorted ascending.
    """
    return np.broadcast_to(V, W.shape)[np.arange(W.shape[0]), _half_rank(W)]


def mad_rows(W, V, med):
    """Per row, ``MAD_CONSISTENCY`` times the weighted median of |V - med|.

    One stable argsort of the deviations, turned into flat indices in place,
    orders the weights with one ``take``; the deviation is read at each row's
    median position only."""
    dev = np.subtract(np.broadcast_to(V, W.shape), med[:, None])
    np.abs(dev, out=dev)
    rows, width = W.shape
    flat = np.argsort(dev, axis=1, kind="stable")
    flat += np.arange(0, rows * width, width)[:, None]
    at = flat[np.arange(rows), _half_rank(np.take(W, flat))]
    return MAD_CONSISTENCY * dev.ravel()[at]


def quantile(values, q=None, axis=None):
    """np.median(values, axis) when q is None, else np.quantile(values, q,
    axis) (linear method, a scalar q in [0, 1]), bit for bit, from one
    ``np.partition`` at numpy's own ranks.  The median of an even count is
    the mean of the two middle values, as in np.median, so it may differ
    from q = 0.5 in the last bit.  The values must be finite: numpy's NaN
    check is left out (it imports ``numpy.ma``, 10-17 ms)."""
    a = np.asarray(values, dtype=float)
    if axis is None:
        a, axis = a.ravel(), 0
    n = a.shape[axis]
    if q is None:
        middle = [n // 2 - 1, n // 2] if n % 2 == 0 else [n // 2]
        mid = np.take(np.partition(a, [*middle, -1], axis=axis), middle, axis=axis)
        return mid.sum(axis=axis) / len(middle)  # np.mean's sum and division
    index = (n - 1) * q  # np.quantile's virtual index
    # its neighbouring ranks; at and above n - 1 both are the largest value
    lo, hi = (int(index), int(index) + 1) if index < n - 1 else (-1, -1)
    part = np.partition(a, sorted({0, -1, lo, hi}), axis=axis)  # np.unique imports numpy.ma
    return lerp(np.take(part, lo, axis=axis), np.take(part, hi, axis=axis), index - lo)


def lerp(a, b, t):
    """np.quantile's linear interpolation between order statistics a <= b
    at fraction t, in numpy's order of operations."""
    step = b - a
    return b - step * (1 - t) if t >= 0.5 else a + step * t


def newton_rows(W, V, scale, c):
    """Newton steps on g(m) = sum_i W_i psi((V_i - m) / scale) = 0 with the
    Huber psi of constant c, from m = 0: V is a `window_rows` window of
    offsets from each row's weighted median, each row ascending.

    g is nonincreasing and piecewise linear with slope -D / scale, where D is
    the weight of the active set {i : |u_i| < c}, u_i = (V_i - m) / scale.
    Its root lies in [-c scale, c scale] (at c scale the half of the weight at
    or below the median scores -c) and in [min V, max V]; each evaluation
    moves one end of that bracket to m.  A step m + scale g / D that leaves
    the bracket, or an empty active set, takes the bracket's midpoint.  A
    row stops when g is zero, when a Newton step left the active set
    unchanged (no point can enter and leave it within a bracket no wider
    than 2 c scale, so g was linear along the step and the step was exact),
    or when the bracket is at most ``LOCAL_TOL`` * scale wide.  Returns the
    estimates and whether each row stopped within ``LOCAL_MAX_ITERATIONS``
    evaluations.
    """
    lo = np.maximum(V[:, 0], -c * scale)
    hi = np.minimum(V[:, -1], c * scale)
    m = np.zeros(lo.size)
    done = np.zeros(lo.size, dtype=bool)
    newton = np.zeros(lo.size, dtype=bool)  # m was reached by a Newton step
    was_active = np.zeros(W.shape, dtype=bool)
    u = np.empty(W.shape)
    for _ in range(LOCAL_MAX_ITERATIONS):
        np.subtract(V, m[:, None], out=u)
        with np.errstate(over="ignore"):  # a tiny MAD: u = +-inf, which psi clips to +-c
            np.divide(u, scale[:, None], out=u)
        active = np.abs(u) < c
        g = np.einsum("ij,ij->i", W, huber_psi(u, c))
        lo = np.where(g > 0.0, m, lo)
        hi = np.where(g < 0.0, m, hi)
        done |= ((g == 0.0) | (newton & (active == was_active).all(axis=1))
                 | (hi - lo <= LOCAL_TOL * scale))
        if np.all(done):
            break
        D = np.einsum("ij,ij->i", W, active)
        step = m + scale * g / np.where(D > 0.0, D, 1.0)
        newton = (D > 0.0) & (lo < step) & (step < hi)
        m = np.where(done, m, np.where(newton, step, 0.5 * (lo + hi)))
        was_active = active
    return m, done


def reweight_rows(W, V, scale, c):
    """Solve g(m) = sum_i W_i psi(u_i) = 0, u_i = (V_i - m) / scale, for the
    bisquare psi of constant c, from m = 0: V holds offsets from each row's
    weighted median.

    With q_i = `bisquare_q` (1 - (u_i / c)^2 on the active set {|u_i| < c}, 0
    off it), psi(u) = q^2 u, so both kinds of step share the numerator
    scale sum W_i q_i^2 u_i.  A reweighting step divides it by sum W_i q_i^2:
    it moves m to the mean of V under the weights W_i q_i^2.  A Newton step
    divides it by the slope sum W_i psi'(u_i), which `bisquare_slope` forms
    from the sums of W_i q_i^2 and W_i q_i.  A row takes the Newton step
    whenever its slope sum is positive, from the first iterate on, and the
    reweighting step otherwise.  A Newton step that lands where every
    weight vanishes is replaced by the reweighting step from where it
    started.  A row stops on a step of at most ``LOCAL_TOL`` * scale, within
    ``LOCAL_MAX_ITERATIONS`` evaluations; a row whose weights vanish after a
    reweighting step stops where it is, unconverged.  Returns (estimates,
    converged)."""
    V = np.broadcast_to(V, W.shape)
    m = np.zeros(W.shape[0])
    settled = np.zeros(m.size, dtype=bool)
    stuck = np.zeros(m.size, dtype=bool)
    newton = np.zeros(m.size, dtype=bool)  # m was reached by a Newton step
    fallback = m  # the reweighting step from the previous iterate
    u = np.empty(W.shape)
    q = np.empty(W.shape)
    for _ in range(LOCAL_MAX_ITERATIONS):
        np.subtract(V, m[:, None], out=u)
        try:
            with np.errstate(over="raise"):
                u /= scale[:, None]
        except FloatingPointError:  # a tiny MAD: u = +-inf, and q u = 0 inf; clipped
            np.clip(u, -c, c, out=u)  # to +-c, u keeps every q and q u, finite
        bisquare_q(u, c, out=q)
        wq = np.einsum("ij,ij->i", W, q)
        q *= q
        q *= W
        den = q.sum(axis=1)
        num = scale * np.einsum("ij,ij->i", q, u)
        ok = den > 0.0
        back = ~ok & newton & ~settled
        stuck |= ~ok & ~back & ~settled
        slope = bisquare_slope(den, wq)
        newton = ok & (slope > 0.0)
        reweight = num / np.where(ok, den, 1.0)
        step = np.where(newton, num / np.where(newton, slope, 1.0), reweight)
        live = ok & ~settled
        settled |= live & (np.abs(step) <= LOCAL_TOL * scale)
        m, fallback = np.where(live, m + step, np.where(back, fallback, m)), m + reweight
        if np.all(settled | stuck):
            break
    return m, settled


def huber_psi(u, c):
    """Huber psi, clip(u, -c, c), computed in place."""
    return np.clip(u, -c, c, out=u)


def bisquare_q(u, c, out):
    """q = 1 - (u/c)^2 inside |u| < c and 0 outside, written to ``out``
    (which may be u).  The bisquare weight psi(u) / u is q^2."""
    np.divide(u, c, out=out)
    np.square(out, out=out)
    np.subtract(1.0, out, out=out)
    return np.maximum(out, 0.0, out=out)


def bisquare_weight(u, c):
    """Bisquare weight psi(u) / u = (1 - (u/c)^2)^2 inside |u| < c and 0
    outside, computed in place."""
    return np.square(bisquare_q(u, c, out=u), out=u)


def bisquare_slope(q2, q):
    """Bisquare psi'(u) = 5 q^2 - 4 q from q^2 and q (`bisquare_q`).  It is
    linear in the pair, so the sums of W q^2 and W q give sum W psi'."""
    return 5.0 * q2 - 4.0 * q


def solve_rows(W, V, start, scale, code, c):
    """Solve each row's score equation at a fixed per-row ``scale``.

    Each row is solved for its offset from ``start`` (the weighted median):
    start is subtracted from V in place (V is overwritten) and added back
    once, so the iterates stay near zero and a large common offset costs one
    rounding, not one per step.  Huber (code 1, monotone) takes bracketed
    Newton steps (`newton_rows`) and bisquare (code 2, redescending) Newton
    or reweighting steps by the sign of the slope sum (`reweight_rows`).
    Returns (estimates, flags) with flag 2 on rows that ran out of iterations.
    """
    V -= start[:, None]
    if code == _SCORE_BISQUARE:
        est, ok = reweight_rows(W, V, scale, c)
    else:
        est, ok = newton_rows(W, V, scale, c)
    return est + start, np.where(ok, 0, 2).astype(np.int8)


def local_m_rows(W, v, code, c, totals):
    """Batched local M solve with the weighted MAD as scale: (estimates, flags)
    per row.  ``code`` is 1 (huber) or 2 (bisquare) with constant ``c``;
    ``totals`` are W's row sums, which normalize the windows."""
    Ww, Vw = window_rows(W, v)
    Ww /= totals[:, None]
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
