"""Kernel-weighted local statistics and robust local M-smoothers.

The local fit at a query point composes three pieces: normalized quartic
kernel weights built from squared geodesic distances (the kernel depends on
d through d^2 only) and the volume density, one block of query rows at a
time (`_block_plan`, so no n x n array is made), a weighted median /
weighted MAD pair giving the robust local scale, and a score equation
solved by bracketed Newton steps (Huber) or by Newton steps whenever the
slope sum is positive and reweighting steps otherwise (bisquare), all in
the batched engine of ``_kernels``.  With the identity
score and no scale step the smoother reduces to the classical kernel-weighted
mean.  The kernel and the three scores are the whole estimator family.

Each block's squared distances, weights and engine windows are block-sized
arrays that live for one block.  On glibc, importing this module raises
malloc's mmap and trim thresholds (`_keep_freed_memory`), so those arrays
come from the heap and the pages the blocks free stay in the process for
the next block instead of being returned and faulted back in.

One `smooth_columns` call smooths a whole CV grid, and its block plan
(`_block_plan`) alone decides what the bandwidths share: the charts of the
queries and the sample (`manifold.chart`, one ``arctan2`` per point per
call), and either the one block's squared distances or the key order of
the pruned blocks.  A call of more than one block runs on every usable CPU
(the process's affinity, the one control): the caller and the pool helpers
it submits up front take whole blocks in one loop and write their own rows:
the serial result bit for bit, and a block working set of memory per thread.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
import os
import threading
from concurrent import futures
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConvergenceError, EmptyWindowError
from .manifold import (
    BLOCK_CELLS,
    Manifold,
    chart,
    coordinate_key,
    injectivity_radius,
    squared_distances,
    volume_density_from_distance,
)

HUBER_DEFAULT_C = 1.345
BISQUARE_DEFAULT_C = 4.685

# glibc serves a request of M_MMAP_THRESHOLD bytes or more by a mmap of its
# own, which free unmaps, and returns the free top of its heap to the kernel
# once that exceeds M_TRIM_THRESHOLD (by default both start at 128 KiB and
# rise with the largest chunk freed); either way the next row block faults
# the same pages back in, about 10,000 minor faults in a robust fit at
# n = 2000.  A block's arrays hold at most BLOCK_CELLS float64 cells (512 KiB)
# each, so a mmap threshold of 32 blocks keeps every one of them on the heap,
# and a trim threshold of 128 blocks lies above one smoothing call's working
# set: the process keeps up to 64 MiB of freed heap top for the next block.
_MMAP_THRESHOLD = 32 * 8 * BLOCK_CELLS  # 16 MiB
_TRIM_THRESHOLD = 128 * 8 * BLOCK_CELLS  # 64 MiB
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, <malloc.h>


def _keep_freed_memory() -> bool:
    """Set glibc's mmap and trim thresholds for the process; True if set.
    Anywhere else (no glibc, no ``mallopt``) it does nothing."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
                & mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))


_keep_freed_memory()


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # macOS


@functools.cache  # two first calls at once may make two pools; the unkept one is freed
def _helper_pool() -> futures.ThreadPoolExecutor:
    """The process's one pool of smoothing helpers, usable CPUs - 1 threads."""
    return futures.ThreadPoolExecutor(_usable_cpus() - 1, thread_name_prefix="plmanifold")


if hasattr(os, "register_at_fork"):  # a pool inherited over fork has no threads
    os.register_at_fork(after_in_child=_helper_pool.cache_clear)


def _quartic_of_square(t):
    """The smoothing kernel K(u) = 0.9375 (1 - u^2)^2 on |u| < 1, 0 elsewhere,
    from the array t = u^2, in a new array; t is overwritten: block-sized
    temporaries cost page faults, not just arithmetic."""
    np.subtract(1.0, t, out=t)
    np.maximum(t, 0.0, out=t)
    k = 0.9375 * t
    k *= t
    return k


_SCORE_NAMES = ("identity", "huber", "bisquare")


@dataclass(frozen=True)
class ScoreFunction:
    """The score psi of the local and regression M-equations: identity
    (code 0), Huber with constant c (code 1, monotone, solved by Newton
    steps) or bisquare with constant c (code 2, redescending, solved by
    Newton steps where the slope sum is positive, else reweighting).
    ``code`` is the dispatch of the batched engine.
    Derivatives at the kinks |u| = c take the outer-branch value 0.
    """

    code: int
    c: float | None

    def __post_init__(self):
        if not (isinstance(self.code, numbers.Integral) and 0 <= self.code <= 2):
            raise ValueError(f"score code must be 0, 1 or 2, got {self.code!r}")
        if self.code and not (isinstance(self.c, numbers.Real) and math.isfinite(self.c)
                              and self.c > 0):
            raise ValueError(f"{_SCORE_NAMES[self.code]} constant must be finite "
                             f"and > 0, got {self.c!r}")

    @classmethod
    def identity(cls) -> "ScoreFunction":
        return cls(0, None)

    @classmethod
    def huber(cls, c: float = HUBER_DEFAULT_C) -> "ScoreFunction":
        return cls(1, float(c))

    @classmethod
    def bisquare(cls, c: float = BISQUARE_DEFAULT_C) -> "ScoreFunction":
        return cls(2, float(c))

    def psi(self, u):
        u = np.array(u, dtype=float)  # a copy: the engine's forms work in place
        if self.code == 1:
            return _kernels.huber_psi(u, self.c)
        if self.code == 2:
            return u * _kernels.bisquare_weight(u.copy(), self.c)
        return u

    def psi_prime(self, u):
        u = np.asarray(u, dtype=float)
        if self.code == 1:
            return (np.abs(u) < self.c).astype(float)
        if self.code == 2:
            q = _kernels.bisquare_q(u, self.c, out=np.empty_like(u))
            return _kernels.bisquare_slope(q * q, q)
        return np.ones_like(u)

    def weight(self, u):
        """Reweighting weight psi(u) / u in closed form, continued by
        psi'(0) = 1 at |u| <= 1e-10."""
        u = np.array(u, dtype=float)
        a = np.abs(u)
        small = a <= 1e-10
        if self.code == 1:
            w = np.minimum(1.0, np.divide(self.c, a, out=np.ones_like(a), where=~small))
        elif self.code == 2:
            w = _kernels.bisquare_weight(u, self.c)
        else:
            w = np.ones_like(u)
        return np.where(small, 1.0, w)


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
    for name, a in (("weight", w), ("value", v)):
        bad = np.flatnonzero(~np.isfinite(a))
        if bad.size:
            raise ValueError(f"{name} {bad[0]} is not finite: {a[bad[0]]}")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-8:
        raise ValueError("weights must sum to 1")
    return w, v


def _squared_bandwidth(h: float) -> float:
    """The least double t whose rounded square root reaches h, h * h or a step
    below: a pair's d^2 lies below t exactly when its distance, ``np.sqrt``
    of d^2 (as `manifold.pair_distance_blocks` takes it), lies below h."""
    t = h * h
    while math.sqrt(t) < h:  # only if h * h underflows
        t = math.nextafter(t, math.inf)
    while math.sqrt(below := math.nextafter(t, 0.0)) >= h:
        t = below
    return t


def raw_weight_matrix(manifold: Manifold, h: float, squared: np.ndarray,
                      overwrite: bool = False) -> np.ndarray:
    """Unnormalized kernel weights K(d/h) / volume density, elementwise, in a
    new array, from the squared distances d^2 (`squared_distances`):
    0.9375 (1 - d^2/h^2)^2 with no square root, h^2 taken as
    `_squared_bandwidth`, so a pair weighs exactly 0 at and beyond d = h.
    ``overwrite`` lets the kernel reuse the cells of ``squared`` (for a
    caller that drops them), except on the sphere, whose density reads
    them."""
    sphere = manifold.kind == "sphere"
    t = np.divide(squared, _squared_bandwidth(h),
                  out=None if sphere or not overwrite else squared)
    k = _quartic_of_square(t)
    if sphere:  # extract and place: a 2-D mask index is slower
        pos = k > 0
        theta = volume_density_from_distance(manifold, np.sqrt(np.extract(pos, squared)))
        np.place(k, pos, np.extract(pos, k) / theta)
    return k


def _key_blocks(manifold: Manifold, hs, qc: np.ndarray, sc: np.ndarray):
    """(i, rows, cols, own) per block of queries in ``coordinate_key`` order,
    bandwidth after bandwidth, from one key sort of the charts qc and sc
    (the same array when the queries are the sample): hs[i], the block's
    query indices, the sample indices whose key lies within hs[i] (and a
    rounding margin) of the block's keys, one run of the key-sorted sample,
    wrapped on a periodic key, and each row's own position in cols when the
    queries are the sample.  Each block takes as many rows as fit with their
    candidates in ``BLOCK_CELLS`` cells (at least one)."""
    ks, period = coordinate_key(manifold, sc)
    kq = ks if qc is sc else coordinate_key(manifold, qc)[0]
    so = np.argsort(ks)
    qo = so if qc is sc else np.argsort(kq)
    n, ks, kq = so.size, ks[so], kq[qo]
    if period:  # three laps, so a band across the seam is one run
        ks = np.concatenate([ks - period, ks, ks + period])
    for i, h in enumerate(hs):
        reach = h + 1e-9 * (1.0 + h + np.abs(ks).max())
        lo = np.searchsorted(ks, kq - reach)
        hi = np.searchsorted(ks, kq + reach, side="right")
        a = 0
        while a < qo.size:
            first = max(1, min(n, hi[a] - lo[a]))  # no more rows than this bound fit
            span = np.minimum(hi[a:a + 1 + BLOCK_CELLS // first] - lo[a], n)
            b = a + max(1, int(np.count_nonzero(np.arange(1, span.size + 1) * span
                                                 <= BLOCK_CELLS)))
            yield (i, qo[a:b], so[(lo[a] + np.arange(span[b - a - 1])) % n],
                   (np.arange(a, b) - lo[a]) % n)
            a = b


def _block_plan(manifold, hs, queries, sample, leave_one_out):
    """(blocks, share) of a call at the bandwidths ``hs``.  blocks yields
    (i, rows, cols, own) per block of hs[i]: query indices, the sample
    indices weighed (zero weight off them) and each row's own position in
    cols; the one block, every query against every sample point as slices,
    when queries x sample <= ``BLOCK_CELLS`` (none without a query), else
    `_key_blocks`.  share is (qc, sc, squared): the queries' and the
    sample's `chart`, once per call (one array when the queries are the
    sample), and the one block's squared distances, which every bandwidth
    weighs, or None.  ``leave_one_out`` needs ``queries is sample``."""
    if leave_one_out and queries is not sample:
        raise ValueError("leave_one_out needs the sample itself as the queries")
    qc = chart(manifold, queries)
    sc = qc if queries is sample else chart(manifold, sample)
    nq, n = queries.shape[0], sample.shape[0]
    if nq * n > BLOCK_CELLS:
        return _key_blocks(manifold, hs, qc, sc), (qc, sc, None)
    whole = [(i, slice(None), slice(None), np.arange(nq)) for i in range(len(hs) if nq else 0)]
    return iter(whole), (qc, sc, squared_distances(manifold, qc, sc))


def _block_weights(manifold, hs, queries, sample, leave_one_out, share, block):
    """One block of `_block_plan`: (W, totals, hollow, nearest), hollow the
    block's query indices whose window is empty and nearest the largest
    distance from one of them to the whole sample (0.0 if none)."""
    i, rows, cols, own = block
    qc, sc, squared = share
    if squared is None:  # fresh squared distances, dropped here: the kernel reuses them
        W = raw_weight_matrix(manifold, hs[i], squared_distances(manifold, qc[:, rows],
                                                                 sc[:, cols]), overwrite=True)
    else:  # the one block's, which the last bandwidth drops
        W = raw_weight_matrix(manifold, hs[i], squared, overwrite=i == len(hs) - 1)
    if leave_one_out:
        W[np.arange(W.shape[0]), own] = 0.0
    totals = W.sum(axis=1)
    hollow, nearest = np.flatnonzero(totals <= 0.0), 0.0
    if hollow.size:  # the nearest point may lie outside cols
        hollow = np.arange(queries.shape[0])[rows][hollow]
        chunk = max(1, BLOCK_CELLS // sample.shape[0])
        for a in range(0, hollow.size, chunk):
            part = hollow[a:a + chunk]
            near = squared_distances(manifold, qc[:, part], sc)
            if leave_one_out:
                near[np.arange(part.size), part] = np.inf
            # the square root of the least d^2 is the distance the kernel compares with h
            nearest = max(nearest, math.sqrt(near.min(axis=1).max()))
    return W, totals, hollow, nearest


def _empty_window_error(empty):
    """The error for the (hollow, nearest) of each block with an empty window."""
    indices = sorted(i for hollow, _ in empty for i in hollow.tolist())
    nearest = max(near for _, near in empty)
    listed = ", ".join(map(str, indices[:10])) + (", ..." if len(indices) > 10 else "")
    return EmptyWindowError(f"empty kernel window at {len(indices)} query indices [{listed}]; "
                            f"the bandwidth must exceed {nearest:.6g}",
                            nearest_distance=nearest, indices=indices)


def weighted_median(weights, values) -> float:
    """Smallest value whose cumulative weight reaches 1/2."""
    w, v = _check_weight_pair(weights, values)
    W, V = _kernels.window_rows(w[None], v)
    return float(_kernels.median_rows(W, V)[0])


def local_mad(weights, values) -> float:
    """Weighted median absolute deviation from the weighted median, times
    ``_kernels.MAD_CONSISTENCY``.

    Returns 0.0 when the window is locally degenerate; callers decide how to
    react (the smoother falls back to the weighted median and flags the
    query point).
    """
    w, v = _check_weight_pair(weights, values)
    W, V = _kernels.window_rows(w[None], v)
    return float(_kernels.mad_rows(W, V, _kernels.median_rows(W, V))[0])


def local_m_estimate(weights, values, score: ScoreFunction, scale: float) -> float:
    """Solve sum_i w_i psi((v_i - m) / scale) = 0 for the local location m.

    The identity score short-circuits to the weighted mean.  Huber takes
    Newton steps from the weighted median, bracketed by both
    [median - c scale, median + c scale] and [min v, max v], and stops when a
    step leaves the set {|u| < c} unchanged (the step was exact), when the
    score sum is zero, or when the bracket is ``_kernels.LOCAL_TOL`` * scale
    wide.  Bisquare starts at the weighted median, takes a Newton step
    whenever the slope sum w_i psi'(u_i) is positive and a reweighting step
    otherwise, and stops on a step of at most ``_kernels.LOCAL_TOL`` *
    scale.  Raises ConvergenceError, carrying the
    last iterate, after ``_kernels.LOCAL_MAX_ITERATIONS``.  Zero weights drop
    out, as in the engine.
    """
    w, v = _check_weight_pair(weights, values)
    if score.code == 0:
        return float(w @ v)
    if not scale > 0:
        raise ValueError("scale must be positive")
    W, V = _kernels.window_rows(w[None], v)
    est, flags = _kernels.solve_rows(W, V, _kernels.median_rows(W, V),
                                     np.array([float(scale)]), score.code, score.c)
    if flags[0] == 2:
        raise ConvergenceError("local M-estimation did not converge in "
                               f"{_kernels.LOCAL_MAX_ITERATIONS} iterations",
                               last_iterate=float(est[0]))
    return float(est[0])


def smooth_columns(manifold: Manifold, bandwidths, sample: np.ndarray,
                   columns: np.ndarray, score: ScoreFunction,
                   queries: np.ndarray | None = None,
                   leave_one_out: bool = False) -> list:
    """Smooth several value columns at each of the ``bandwidths`` (a CV
    sweep's grid, or one h), one row block of kernel weights (`_block_plan`)
    at a time.  A call whose cells fit in one block weighs that block's
    squared distances, built once, at every bandwidth, in the calling
    thread; a larger call chains each bandwidth's key-sorted blocks, spread
    over the calling thread and the helper pool (module docstring).

    ``sample`` are validated training coordinates, ``columns`` an (n, k)
    value matrix with one row per sample point (else ValueError), ``score``
    the local score (identity: the kernel-weighted mean), ``queries``
    validated query coordinates (defaults to the sample itself).
    ``leave_one_out`` zeroes the diagonal weight, which requires the default
    queries.  Returns one entry per bandwidth: (estimates, flags), both of
    shape (n_queries, k), flag 1 marking a degenerate local MAD
    (weighted-median fallback), or, unraised (`only_entry` raises it), the
    EmptyWindowError listing every query index whose window is empty,
    ascending, with the smallest bandwidth that would cover them all,
    measured against the whole sample, as ``nearest_distance``, else the
    ConvergenceError listing every query index where a local solve ran out
    of iterations.
    """
    hs = [check_bandwidth(manifold, h) for h in bandwidths]
    columns = np.asarray(columns, dtype=float)
    if columns.ndim == 1:
        columns = columns[:, None]
    if columns.shape[0] != sample.shape[0]:
        raise ValueError(f"length mismatch: {sample.shape[0]} sample points vs "
                         f"{columns.shape[0]} values")
    if queries is None:
        queries = sample

    shape = (queries.shape[0], columns.shape[1])
    estimates = [np.empty(shape) for _ in hs]
    flags = [np.zeros(shape, dtype=np.int8) for _ in hs]
    empty = [[] for _ in hs]
    plan, share = _block_plan(manifold, hs, queries, sample, leave_one_out)
    lock = threading.Lock()

    def run():
        """Take blocks from the plan and solve them until it is empty."""
        nonlocal plan
        while True:
            with lock:
                block = next(plan, None)
            if block is None:
                return
            i, rows, cols, _ = block
            try:
                W, totals, hollow, nearest = _block_weights(manifold, hs, queries, sample,
                                                            leave_one_out, share, block)
                if hollow.size:
                    empty[i].append((hollow, nearest))
                elif empty[i]:
                    continue
                elif score.code == 0:
                    estimates[i][rows] = (W @ columns[cols]) / totals[:, None]
                else:
                    for j, v in enumerate(columns[cols].T):
                        estimates[i][rows, j], flags[i][rows, j] = _kernels.local_m_rows(
                            W, v, code=score.code, c=score.c, totals=totals)
            except BaseException:
                with lock:  # no thread takes another block
                    plan = iter(())
                raise

    # the one block's squared distances stay in the caller: the last bandwidth reuses them
    helpers = [_helper_pool().submit(run)
               for _ in range(_usable_cpus() - 1 if share[2] is None else 0)]
    try:
        run()
    finally:  # a helper that has not started never will; the others are waited for
        started = [helper for helper in helpers if not helper.cancel()]
        futures.wait(started)
    for helper in started:
        helper.result()  # raises the helper's error
    entries = []
    for est, flag, hollow in zip(estimates, flags, empty):
        stuck = np.flatnonzero((flag == 2).any(axis=1)).tolist()
        entries.append(_empty_window_error(hollow) if hollow
                       else ConvergenceError("local smoothing did not converge at query "
                                             f"indices {stuck}", indices=stuck) if stuck
                       else (est, flag))
    return entries


def only_entry(entries):
    """The entry of a one-bandwidth smoothing call, whose error is raised."""
    [entry] = entries
    if isinstance(entry, Exception):
        raise entry
    return entry
