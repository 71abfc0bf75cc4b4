import ctypes
import gc
import math
import multiprocessing
import os
import resource
import sys
import threading
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmanifold import _kernels, plm, simulation, smoother
from plmanifold._kernels import MAD_CONSISTENCY
from plmanifold.errors import ConvergenceError, EmptyWindowError
from plmanifold.manifold import (
    BLOCK_CELLS,
    Manifold,
    circle_coords,
    cross_distances,
    cylinder_coords,
    squared_distances,
    volume_density_from_distance,
)
from plmanifold.smoother import (
    ScoreFunction,
    check_bandwidth,
    local_m_estimate,
    local_mad,
    raw_weight_matrix,
    smooth_columns,
    weighted_median,
)
from conftest import random_points, random_weights, smooth_at, squared_cross

CIR = Manifold.circle()
CYL = Manifold.cylinder()


def quartic_oracle(u):
    # independent scalar oracle for the quartic kernel
    return 0.9375 * (1.0 - u * u) ** 2 if abs(u) < 1.0 else 0.0


def masked_quartic(u):
    """The quartic kernel of u by masked writes: 0.9375 (1 - u^2)^2 on
    |u| < 1, 0 elsewhere."""
    ref = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    t = 1.0 - u[inside] ** 2
    ref[inside] = 0.9375 * t * t
    return ref


def window_blocks(manifold, h, queries, sample, leave_one_out=False):
    """(rows, cols, W, totals) of every block of a one-bandwidth smoothing
    call, in plan order: the blocks of `_block_plan`, weighed by
    `_block_weights`.  Raises the call's EmptyWindowError after the last
    block if any window is empty."""
    plan, share = smoother._block_plan(manifold, [h], queries, sample, leave_one_out)
    blocks, empty = [], []
    for block in plan:
        W, totals, hollow, nearest = smoother._block_weights(
            manifold, [h], queries, sample, leave_one_out, share, block)
        if hollow.size:
            empty.append((hollow, nearest))
        blocks.append((block[1], block[2], W, totals))
    if empty:
        raise smoother._empty_window_error(empty)
    return blocks


# ------------------------------------------------------------------ kernel

def test_quadratic_kernel_values():
    u = np.array([0.0, 0.5, 1.0, 1.5])
    got = smoother._quartic_of_square(u * u)
    assert got[0] == pytest.approx(15.0 / 16.0, abs=1e-15)
    assert got[1] == pytest.approx(quartic_oracle(0.5), abs=1e-15)
    assert got[2] == 0.0 and got[3] == 0.0


def test_quadratic_kernel_equals_the_masked_formula_bit_for_bit():
    below_one = np.nextafter(1.0, 0.0)
    u = np.concatenate([np.linspace(-1.5, 1.5, 3001), [1.0, -1.0, below_one, -below_one,
                        np.nextafter(1.0, 2.0), 1.0 - 1e-9, 0.0, np.inf]])
    t = u * u
    got = smoother._quartic_of_square(t)
    assert got is not t
    assert np.array_equal(got, masked_quartic(u))
    assert not np.any(np.signbit(got))


# ---------------------------------------------- weights from squared distances

FLAT = [CIR, CYL, Manifold.euclidean(2)]
FLAT_IDS = ["circle", "cylinder", "plane"]
ULP = float(np.spacing(0.9375))


def _exact_kernel(squared, h):
    """0.9375 (1 - d^2/h^2)^2 on d^2 < h^2, in rational arithmetic, rounded once."""
    t = Fraction(squared) / Fraction(h) ** 2
    return float(Fraction(15, 16) * (1 - t) ** 2) if t < 1 else 0.0


@pytest.mark.parametrize("manifold", FLAT + [Manifold.sphere()], ids=FLAT_IDS + ["sphere"])
def test_a_pair_at_exactly_the_bandwidth_weighs_zero(manifold):
    """At h equal to a pair's distance, as cross_distances rounds it, the
    pair weighs exactly 0, and one step of h above it more than 0.  On the
    cylinder and in the plane h * h often exceeds the pair's own d^2 there,
    so d^2 divided by h * h (or times its reciprocal) would weigh the pair
    about 1e-32."""
    rng = np.random.default_rng(71)
    a, b = random_points(manifold, rng, 40), random_points(manifold, rng, 40)
    squared, d = squared_cross(manifold, a, b), cross_distances(manifold, a, b)
    above = 0
    for i, j in enumerate(rng.permutation(40)):
        h = float(d[i, j])
        above += h * h > squared[i, j]
        assert raw_weight_matrix(manifold, h, squared)[i, j] == 0.0
        assert raw_weight_matrix(manifold, math.nextafter(h, math.inf), squared)[i, j] > 0.0
    assert above > 0 or manifold.kind in ("circle", "sphere")


@pytest.mark.parametrize("manifold,n,h", [(CIR, 300, 0.3), (CYL, 200, 0.01), (CYL, 300, 0.01)],
                         ids=["circle-streamed", "cylinder-one-block", "cylinder-streamed"])
def test_the_reported_nearest_distance_opens_every_window(manifold, n, h):
    """Leave-one-out windows that are empty at h are all non-empty at
    EmptyWindowError.nearest_distance x (1 + 1e-12), in the one block and
    in key-sorted blocks: the bound is the distance the kernel compares."""
    rng = np.random.default_rng(73)
    if manifold.kind == "circle":  # a lonely point 2.0 from a cluster on [0, 1]
        sample = circle_coords(np.append(np.linspace(0.0, 1.0, n - 1), 3.0))
    else:
        sample = random_points(manifold, rng, n)
    with pytest.raises(EmptyWindowError) as err:
        window_blocks(manifold, h, sample, sample, leave_one_out=True)
    assert err.value.indices
    wide = err.value.nearest_distance * (1 + 1e-12)
    totals = np.concatenate([t for *_, t in window_blocks(manifold, wide, sample, sample,
                                                            leave_one_out=True)])
    assert totals.size == n and np.all(totals > 0)


@st.composite
def flat_cases(draw):
    """(manifold, queries, sample, h) on the circle, the cylinder or the
    plane: angles across the 0/2 pi seam, near the +-pi jump of arctan2 and
    anywhere; the sample is sometimes the queries (d = 0); h anywhere in
    (0, pi), within 1e-6 of pi, or one of the pairs' distances."""
    manifold = draw(st.sampled_from(FLAT))
    angle = st.one_of(st.floats(-0.5, 0.5), st.floats(np.pi - 0.5, np.pi + 0.5),
                      st.floats(0.0, 2 * np.pi))

    def points(n):
        if manifold.kind == "euclidean":
            return np.array(draw(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                                          min_size=n, max_size=n)))
        angles = draw(st.lists(angle, min_size=n, max_size=n))
        if manifold.kind == "circle":
            return circle_coords(angles)
        return cylinder_coords(angles, draw(st.lists(st.floats(0.0, 1.0), min_size=n,
                                                     max_size=n)))

    queries = points(draw(st.integers(1, 8)))
    sample = queries if draw(st.booleans()) else points(draw(st.integers(1, 8)))
    d = cross_distances(manifold, queries, sample).ravel()
    pair = float(d[draw(st.integers(0, d.size - 1))])
    h = draw(st.one_of(st.floats(1e-3, np.pi, exclude_max=True),
                       st.floats(np.pi - 1e-6, np.pi, exclude_max=True),
                       st.just(pair) if 1e-3 <= pair < np.pi else st.nothing()))
    return manifold, queries, sample, h


@settings(max_examples=300, deadline=None)
@given(flat_cases())
def test_weights_from_squared_distances_are_the_kernel_of_the_distance(case):
    """The weights from d^2 are 0 exactly where the distance reaches h and
    positive below it (the support of the kernel of d / h), exactly
    0.9375 at d = 0, within 3 units in the last place of 0.9375 of the exact
    kernel of their own d^2, and within 7 of the kernel of d / h, which
    rounds up to 4 units from the exact kernel through its square root,
    division and square."""
    manifold, queries, sample, h = case
    squared = squared_cross(manifold, queries, sample)
    d = cross_distances(manifold, queries, sample)
    W = raw_weight_matrix(manifold, h, squared)
    assert np.array_equal(W > 0, d < h) and not np.any(W[d >= h])
    assert np.all(W[d == 0] == 0.9375)
    exact = np.vectorize(_exact_kernel)(squared, h)
    assert np.max(np.abs(W - exact)) <= 3 * ULP
    assert np.max(np.abs(W - masked_quartic(d / h))) <= 7 * ULP


# ----------------------------------------------------------------- weights

def _weights(manifold, h, t, sample):
    """Normalized kernel weights of the sample relative to the one point t."""
    [(_, _, W, totals)] = window_blocks(manifold, h, t[None, :], sample)
    return W[0] / totals[0]


def test_single_point_window_gets_unit_weight():
    t = circle_coords([0.0])[0]
    w = _weights(CIR, 1.0, t, t[None, :])
    assert w.shape == (1,)
    assert w[0] == 1.0


def test_circle_example_weights_match_scalar_oracle():
    # sample at angles 0, pi/2, pi; query angle 0; h = 2
    sample = circle_coords([0.0, math.pi / 2, math.pi])
    t = circle_coords([0.0])[0]
    h = 2.0
    raw = np.array([quartic_oracle(0.0), quartic_oracle(math.pi / 4), quartic_oracle(math.pi / 2)])
    expected = raw / raw.sum()
    w = _weights(CIR, h, t, sample)
    assert w == pytest.approx(expected, abs=1e-12)
    assert w[2] == 0.0
    assert abs(w.sum() - 1.0) < 1e-12


def test_symmetric_pair_gets_equal_weights():
    sample = circle_coords([0.4, -0.4])
    t = circle_coords([0.0])[0]
    w = _weights(CIR, 1.0, t, sample)
    assert w[0] == pytest.approx(w[1], abs=1e-15)


def test_weights_zero_at_or_beyond_bandwidth():
    sample = circle_coords([0.0, 0.5, 1.0])
    t = circle_coords([0.0])[0]
    w = _weights(CIR, 0.5, t, sample)
    assert w[1] == 0.0 and w[2] == 0.0


def test_permutation_of_sample_permutes_weights():
    rng = np.random.default_rng(2)
    sample = circle_coords(rng.uniform(0, 2 * np.pi, 20))
    t = circle_coords([1.0])[0]
    w = _weights(CIR, 2.0, t, sample)
    perm = rng.permutation(20)
    wp = _weights(CIR, 2.0, t, sample[perm])
    assert wp == pytest.approx(w[perm], abs=1e-15)


def test_weights_normalized_on_random_queries(rng):
    sample = cylinder_coords(rng.uniform(0, 2 * np.pi, 60), rng.uniform(0, 1, 60))
    for _ in range(100):
        t = cylinder_coords([rng.uniform(0, 2 * np.pi)], [rng.uniform(0, 1)])[0]
        w = _weights(CYL, 1.0, t, sample)
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(w >= 0)


def test_empty_window_error_carries_nearest_distance():
    sample = circle_coords([2.0, 2.5])
    t = circle_coords([0.0])[0]
    with pytest.raises(EmptyWindowError) as err:
        _weights(CIR, 0.5, t, sample)
    assert err.value.nearest_distance == pytest.approx(2.0, abs=1e-12)
    assert err.value.indices == [0]


def test_window_weights_leave_one_out_leaves_the_distances_alone():
    """Leave-one-out zeroes each query's own weight and nothing else: off the
    diagonal its weights are those of the call without it."""
    rng = np.random.default_rng(12)
    sample = cylinder_coords(rng.uniform(0, 2 * np.pi, 15), rng.uniform(0, 1, 15))
    [(rows, cols, W, totals)] = window_blocks(CYL, 1.5, sample, sample, leave_one_out=True)
    assert (rows, cols) == (slice(None), slice(None))
    assert np.all(np.diag(W) == 0.0)
    assert np.array_equal(totals, W.sum(axis=1))
    [(_, _, W_all, _)] = window_blocks(CYL, 1.5, sample, sample)
    assert np.all(np.diag(W_all) == 0.9375)
    off = ~np.eye(15, dtype=bool)
    assert np.array_equal(W[off], W_all[off])
    # the diagonal is a sample point's own weight only when the queries are the sample
    foreign = cylinder_coords(rng.uniform(0, 2 * np.pi, 10), rng.uniform(0, 1, 10))
    with pytest.raises(ValueError, match="leave_one_out"):
        window_blocks(CYL, 1.5, foreign, sample, leave_one_out=True)
    with pytest.raises(ValueError, match="leave_one_out"):
        window_blocks(CYL, 1.5, sample.copy(), sample, leave_one_out=True)


MANIFOLD_BANDWIDTHS = [(CYL, 0.8), (Manifold.sphere(), 0.8), (CIR, 0.3),
                       (Manifold.euclidean(3), 2.0)]
MANIFOLD_IDS = ["cylinder", "sphere", "circle", "euclidean"]


def _block_cases(manifold, rng):
    """(sample, cases) for one sample of more than three row blocks: the
    sample against itself, leave-one-out, and foreign queries, each with its
    full squared distance matrix."""
    n = math.isqrt(6 * BLOCK_CELLS) + 5
    nq = 3 * BLOCK_CELLS // n + 7
    assert nq * n > 3 * BLOCK_CELLS
    sample = random_points(manifold, rng, n)
    queries = random_points(manifold, rng, nq)
    d_self = squared_cross(manifold, sample, sample)
    d_cross = squared_cross(manifold, queries, sample)
    return sample, [(sample, False, d_self), (sample, True, d_self),
                    (queries, False, d_cross)]


def _dense_kernel(manifold, h, squared, loo):
    W = raw_weight_matrix(manifold, h, squared)
    if loo:
        np.fill_diagonal(W, 0.0)
    return W


def _indices(index, size):
    # a block's rows or cols as an index array; a slice in the one block
    return np.arange(size)[index]


def _check_blocks(manifold, h, q, sample, loo, dense, atol=0.0):
    """Every block of the call's plan is the dense kernel on its rows x cols
    (to ``atol``), the dense kernel is exactly zero off its cols, each block
    holds at most BLOCK_CELLS cells (or one row), and the blocks cover every
    query once.  Returns the blocks' (rows, cols) as index arrays."""
    n, seen = sample.shape[0], []
    for rows, cols, W, totals in window_blocks(manifold, h, q, sample, leave_one_out=loo):
        r, c = _indices(rows, q.shape[0]), _indices(cols, n)
        assert W.shape == (r.size, c.size)
        assert W.size <= smoother.BLOCK_CELLS or r.size == 1
        assert np.unique(c).size == c.size
        assert np.max(np.abs(W - dense[np.ix_(r, c)]), initial=0.0) <= atol
        off = np.ones(n, dtype=bool)
        off[c] = False
        assert not np.any(dense[np.ix_(r, off)])
        assert np.array_equal(totals, W.sum(axis=1))
        seen.append((r, c))
    assert np.array_equal(np.sort(np.concatenate([r for r, _ in seen])), np.arange(q.shape[0]))
    return seen


@pytest.mark.parametrize("manifold,h", MANIFOLD_BANDWIDTHS, ids=MANIFOLD_IDS)
def test_blocked_window_weights_equal_the_dense_kernel(manifold, h, monkeypatch):
    """Every block built from the coordinates (queries apart from the sample
    or the sample itself, leave-one-out) is its rows of the kernel of the
    full distance matrix on its columns, zero elsewhere, and the blocks
    cover the query rows once, each at most BLOCK_CELLS cells.  When one
    block holds every cell, it is every query against every column, as
    slices, the dense kernel bit for bit."""
    sample, cases = _block_cases(manifold, np.random.default_rng(31))
    n = sample.shape[0]
    dense = [_dense_kernel(manifold, h, d, loo) for _, loo, d in cases]
    for (q, loo, _), W in zip(cases, dense):
        built = _check_blocks(manifold, h, q, sample, loo, W, atol=1e-15)
        assert len(built) > 1
    monkeypatch.setattr(smoother, "BLOCK_CELLS", n * n)
    for (q, loo, _), W in zip(cases, dense):
        [(rows, cols, W_one, totals)] = window_blocks(manifold, h, q, sample,
                                                      leave_one_out=loo)
        assert (rows, cols) == (slice(None), slice(None))
        assert np.array_equal(W_one, W) and np.array_equal(totals, W.sum(axis=1))


def _seam_angles(rng, n):
    # half the points within 0.5 of the 0/2 pi seam, on both sides
    return np.concatenate([rng.uniform(-0.5, 0.5, n // 2), rng.uniform(0, 2 * np.pi, n - n // 2)])


def _polar_points(rng, n):
    # half the points within 0.3 of a pole, and the antipode of every point
    polar = np.concatenate([rng.uniform(0, 0.3, n // 4), rng.uniform(np.pi - 0.3, np.pi, n // 4),
                            rng.uniform(0, np.pi, n // 2 - 2 * (n // 4))])
    azimuth = rng.uniform(0, 2 * np.pi, polar.size)
    half = np.column_stack([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth),
                            np.cos(polar)])
    return np.concatenate([half, -half])


SEAM_CASES = [
    (CIR, 0.3, lambda rng, n: circle_coords(_seam_angles(rng, n))),
    (CIR, 3.0, lambda rng, n: circle_coords(_seam_angles(rng, n))),
    (CYL, 0.8, lambda rng, n: cylinder_coords(_seam_angles(rng, n), rng.uniform(0, 1, n))),
    (Manifold.sphere(), 0.4, _polar_points),
    (Manifold.sphere(), 3.0, _polar_points),
    (Manifold.euclidean(2), 1.2, lambda rng, n: rng.normal(size=(n, 2))),
]


@pytest.mark.parametrize("manifold,h,points", SEAM_CASES,
                         ids=["circle", "circle-wide", "cylinder", "sphere", "sphere-wide",
                              "euclidean"])
def test_pruned_windows_are_the_dense_kernel_bit_for_bit(manifold, h, points):
    """Blocks across the circle's and cylinder's 0/2 pi seam, at both poles
    and at antipodes of the sphere, with bands that cover the whole period,
    and in the plane: each pruned W is the dense kernel on its columns bit
    for bit, leave-one-out too, and the dense kernel is exactly zero off
    them."""
    rng = np.random.default_rng(5)
    sample, queries = points(rng, 400), points(rng, 300)
    for q, loo in ((sample, False), (sample, True), (queries, False)):
        dense = _dense_kernel(manifold, h, squared_cross(manifold, q, sample), loo)
        blocks = _check_blocks(manifold, h, q, sample, loo, dense)
        if manifold.kind in ("circle", "cylinder") and h < 1.0:
            key = np.mod(np.arctan2(sample[:, 1], sample[:, 0]), 2 * np.pi)
            assert any(key[c].min() < 0.5 and key[c].max() > 2 * np.pi - 0.5
                       for _, c in blocks)


def test_a_row_with_more_candidates_than_a_block_holds_is_a_block_alone(monkeypatch):
    from plmanifold import smoother

    monkeypatch.setattr(smoother, "BLOCK_CELLS", 64)
    rng = np.random.default_rng(9)
    sample, queries = circle_coords(rng.uniform(0, 2 * np.pi, 100)), circle_coords([0.0, 3.0])
    dense = _dense_kernel(CIR, 3.0, squared_cross(CIR, queries, sample), False)
    blocks = _check_blocks(CIR, 3.0, queries, sample, False, dense)
    assert [r.size for r, _ in blocks] == [1, 1] and all(c.size > 64 for _, c in blocks)


def test_leave_one_out_across_the_seam_drops_only_the_own_point():
    """On the circle with every point within 0.3 of the seam, the blocks
    near it take candidates from both sides; the leave-one-out kernel mean
    equals the dense one, whose diagonal is zeroed."""
    rng = np.random.default_rng(8)
    sample = circle_coords(rng.uniform(-0.3, 0.3, 500))
    values = rng.normal(size=500)
    W = _dense_kernel(CIR, 0.2, squared_cross(CIR, sample, sample), True)
    est = smooth_at(CIR, 0.2, sample, values, ScoreFunction.identity(),
                         leave_one_out=True)[0][:, 0]
    assert np.max(np.abs(est - (W @ values) / W.sum(axis=1))) <= 1e-14


def test_empty_window_beyond_the_band_reports_the_nearest_point_of_the_sample():
    """A lonely point at angle 3.0, 2.0 from a cluster on [0, 1]: its band
    (within 0.3 of its angle) holds only itself, so the leave-one-out
    nearest point lies outside every candidate of its block; a foreign query
    at angle 4.0 has the lonely point, 1.0 away, outside its band."""
    sample = circle_coords(np.append(np.linspace(0.0, 1.0, 299), 3.0))
    with pytest.raises(EmptyWindowError) as err:
        window_blocks(CIR, 0.3, sample, sample, leave_one_out=True)
    assert err.value.indices == [299]
    assert err.value.nearest_distance == pytest.approx(2.0, abs=1e-12)
    queries = circle_coords(np.append(np.linspace(0.0, 1.0, 299), 4.0))
    with pytest.raises(EmptyWindowError) as err:
        window_blocks(CIR, 0.3, queries, sample)
    assert err.value.indices == [299]
    assert err.value.nearest_distance == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("manifold,h", MANIFOLD_BANDWIDTHS, ids=MANIFOLD_IDS)
def test_streamed_smoothing_equals_dense_kernel_smoothing(manifold, h, monkeypatch):
    """smooth_columns over more than three row blocks, and over one block
    where ``BLOCK_CELLS`` holds every cell, matches the same statistics of the
    full kernel matrix: the kernel-weighted mean to 1e-15, and the Huber and
    bisquare solves to their tolerance (each block pads its rows to its
    widest window, so the reductions change with the block)."""
    rng = np.random.default_rng(41)
    sample, cases = _block_cases(manifold, rng)
    columns = rng.normal(size=(sample.shape[0], 2))
    for score, atol in ((ScoreFunction.identity(), 1e-15), (ScoreFunction.huber(), 1e-10),
                        (ScoreFunction.bisquare(), 1e-10)):
        for q, loo, d in cases:
            W = _dense_kernel(manifold, h, d, loo)
            if score.code == 0:
                dense = (W @ columns) / W.sum(axis=1)[:, None]
            else:
                dense = np.column_stack([_kernels.local_m_rows(
                    W, v, score.code, score.c, W.sum(axis=1))[0] for v in columns.T])
            for one_block in (False, True):
                with monkeypatch.context() as m:
                    if one_block:
                        m.setattr(smoother, "BLOCK_CELLS", d.size)
                    est, _ = smooth_at(manifold, h, sample, columns, score,
                                       queries=None if q is sample else q, leave_one_out=loo)
                assert np.max(np.abs(est - dense)) <= atol


def test_tied_values_give_the_same_estimates_in_one_block_and_pruned(monkeypatch):
    """Values rounded to 0.1 tie heavily; each block sorts its own values
    (stably), so the pruned blocks and the one block order ties apart, and
    the Huber and bisquare estimates still agree to 1e-12."""
    rng = np.random.default_rng(43)
    sample = cylinder_coords(rng.uniform(0, 2 * np.pi, 600), rng.uniform(0, 1, 600))
    columns = np.round(rng.normal(size=(600, 2)), 1)
    assert np.unique(columns[:, 0]).size < 80
    for score in (ScoreFunction.huber(), ScoreFunction.bisquare()):
        for loo in (False, True):
            pruned = smooth_at(CYL, 0.8, sample, columns, score, leave_one_out=loo)[0]
            with monkeypatch.context() as m:
                m.setattr(smoother, "BLOCK_CELLS", 600 * 600)
                one = smooth_at(CYL, 0.8, sample, columns, score, leave_one_out=loo)[0]
            assert np.max(np.abs(pruned - one)) <= 1e-12


def test_leave_one_out_empty_window_reports_the_nearest_other_point():
    # points 0 and 1 are 0.5 apart and 2 is 1.2 from 0 and 1.7 from 1: at
    # h = 0.3 every leave-one-out window is empty, and 2 needs h > 1.2
    sample = circle_coords([0.0, 0.5, -1.2])
    with pytest.raises(EmptyWindowError) as err:
        window_blocks(CIR, 0.3, sample, sample, leave_one_out=True)
    assert err.value.indices == [0, 1, 2]
    assert err.value.nearest_distance == pytest.approx(1.2, abs=1e-12)


def test_empty_windows_in_two_blocks_raise_one_error(monkeypatch):
    """Point 5 (angle 5.0, 1.5 from the cluster on [3.0, 3.5]) and point 600
    (angle 1.0, 2.0 from it) lie in different key-sorted row blocks, point
    600's the first.  One error names both in input order, with the
    bandwidth that would cover them all, and on one CPU no block after the
    first empty window is solved.  The one block, where BLOCK_CELLS holds
    every cell, raises the same error and solves nothing."""
    angles = np.linspace(3.0, 3.5, 700)
    angles[5], angles[600] = 5.0, 1.0
    sample = circle_coords(angles)
    blocks, solved = [], []
    key_blocks, local_m_rows = smoother._key_blocks, _kernels.local_m_rows

    def recording(*args):
        for block in key_blocks(*args):
            blocks.append(block[1])
            yield block

    def solving(W, *args, **kwargs):
        solved.append(W.shape[0])
        return local_m_rows(W, *args, **kwargs)

    monkeypatch.setattr(smoother, "_key_blocks", recording)
    monkeypatch.setattr(_kernels, "local_m_rows", solving)
    monkeypatch.setattr(smoother, "_usable_cpus", lambda: 1)
    errors = []
    for one_block in (False, True):
        if one_block:
            monkeypatch.setattr(smoother, "BLOCK_CELLS", sample.shape[0] ** 2)
        with pytest.raises(EmptyWindowError) as err:
            smooth_at(CIR, 0.3, sample, angles, ScoreFunction.huber(), leave_one_out=True)
        errors.append(err.value)
    hit = [i for i, rows in enumerate(blocks) if np.isin([5, 600], rows).any()]
    assert len(hit) == 2 and hit[0] == 0
    for error in errors:
        assert error.indices == [5, 600]
        assert error.nearest_distance == pytest.approx(2.0, abs=1e-12)
        assert str(error) == str(errors[0])
    assert solved == []


def test_the_empty_window_diagnosis_measures_a_block_at_a_time(monkeypatch):
    """At h = 1e-5 every leave-one-out window of 2000 cylinder points is
    empty.  Each point's nearest other point is then sought in the whole
    sample, a block's worth of rows at a time: no distance call exceeds
    BLOCK_CELLS cells.  The error names every point, with the largest
    nearest-neighbour distance, here against a brute force over the
    angles and heights."""
    rng = np.random.default_rng(53)
    angles, heights = rng.uniform(0, 2 * np.pi, 2000), rng.uniform(0, 1, 2000)
    sample = cylinder_coords(angles, heights)
    cells = []

    def recording(manifold, a, b):  # charts: one column per point
        cells.append(a.shape[1] * b.shape[1])
        return squared_distances(manifold, a, b)

    monkeypatch.setattr(smoother, "squared_distances", recording)
    with pytest.raises(EmptyWindowError) as err:
        window_blocks(CYL, 1e-5, sample, sample, leave_one_out=True)
    assert max(cells) <= BLOCK_CELLS
    assert err.value.indices == list(range(2000))
    nearest = np.empty(2000)
    for i in range(2000):
        arc = np.abs(angles - angles[i])
        d = np.hypot(np.minimum(arc, 2 * np.pi - arc), heights - heights[i])
        d[i] = np.inf
        nearest[i] = d.min()
    assert err.value.nearest_distance == pytest.approx(nearest.max(), rel=1e-12)


def test_bandwidth_range_enforced():
    with pytest.raises(ValueError, match="bandwidth"):
        check_bandwidth(CIR, math.pi)
    with pytest.raises(ValueError, match="bandwidth"):
        check_bandwidth(CIR, 0.0)


# ---------------------------------------------------------- weighted median

def test_weighted_median_enumerated():
    assert weighted_median([0.2, 0.3, 0.5], [1.0, 2.0, 3.0]) == 2.0


def test_weighted_median_single_and_ties():
    assert weighted_median([1.0], [4.2]) == 4.2
    assert weighted_median([0.25] * 4, [3.0] * 4) == 3.0


def test_weighted_median_inf_convention():
    # cumulative weight reaches exactly 1/2 at the first value
    assert weighted_median([0.5, 0.5], [1.0, 2.0]) == 1.0


def test_weighted_median_is_ecdf_argmin(rng):
    for _ in range(50):
        n = rng.integers(1, 15)
        w = random_weights(rng, n)
        v = rng.normal(size=n)
        med = weighted_median(w, v)
        # the weighted ECDF, a right-continuous step function of sorted v
        order = np.argsort(v, kind="stable")
        support, cumulative = v[order], np.cumsum(w[order])

        def F(y):
            k = np.searchsorted(support, y, side="right")
            return cumulative[k - 1] if k else 0.0

        assert F(med) >= 0.5 - 1e-9
        below = v[v < med]
        if below.size:
            assert F(below.max()) < 0.5


# weighted_median and local_mad both read off the weighted ECDF of their
# (weights, values) pair and share its validation

def test_ecdf_length_mismatch():
    for stat in (weighted_median, local_mad):
        with pytest.raises(ValueError, match="length mismatch"):
            stat([0.5, 0.5], [1.0])


def test_ecdf_requires_normalized_weights():
    for stat in (weighted_median, local_mad):
        with pytest.raises(ValueError, match="sum to 1"):
            stat([0.5, 0.2], [1.0, 2.0])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call,message", [
    (lambda: weighted_median([NAN, 1.0], [1.0, 2.0]), "weight 0 is not finite"),
    (lambda: weighted_median([0.5, 0.5], [1.0, NAN]), "value 1 is not finite"),
    (lambda: local_mad([0.5, 0.5], [INF, 1.0]), "value 0 is not finite"),
    (lambda: local_m_estimate([0.5, 0.5], [1.0, NAN], ScoreFunction.huber(), 1.0),
     "value 1 is not finite"),
], ids=["median-weight", "median-value", "mad-value", "m-estimate-value"])
def test_one_row_statistics_reject_non_finite_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_ecdf_requires_nonnegative_weights():
    for stat in (weighted_median, local_mad):
        with pytest.raises(ValueError, match="nonnegative"):
            stat([1.5, -0.5], [1.0, 2.0])


# ----------------------------------------------------------------- local MAD

def test_local_mad_enumerated():
    # deviations (1, 0, 1) with masses (0.2, 0.3, 0.5) have median 1
    assert local_mad([0.2, 0.3, 0.5], [1.0, 2.0, 3.0]) == MAD_CONSISTENCY


def test_local_mad_degenerate_is_zero():
    assert local_mad([0.25] * 4, [2.0] * 4) == 0.0


def test_local_mad_normal_consistency():
    rng = np.random.default_rng(99)
    v = rng.normal(size=100_000)
    w = np.full(v.size, 1.0 / v.size)
    assert local_mad(w, v) == pytest.approx(1.0, abs=0.02)


# ------------------------------------------------------------ local M solve

def test_identity_score_gives_weighted_mean(rng):
    for _ in range(20):
        n = rng.integers(2, 12)
        w = random_weights(rng, n)
        v = rng.normal(size=n)
        est = local_m_estimate(w, v, ScoreFunction.identity(), scale=1.0)
        assert est == pytest.approx(float(w @ v), abs=1e-14)


def test_huber_closed_form_three_zeros_one_ten():
    w = np.full(4, 0.25)
    v = np.array([0.0, 0.0, 0.0, 10.0])
    est = local_m_estimate(w, v, ScoreFunction.huber(1.345), scale=1.0)
    assert est == pytest.approx(1.345 / 3.0, abs=1e-9)


def test_constant_values_returned_for_any_score():
    w = np.full(3, 1.0 / 3.0)
    v = np.array([4.0, 4.0, 4.0])
    for score in (ScoreFunction.huber(), ScoreFunction.bisquare(), ScoreFunction.identity()):
        assert local_m_estimate(w, v, score, scale=1.0) == 4.0


def test_monotone_solver_zeroes_the_score_equation(rng):
    score = ScoreFunction.huber(1.345)
    for _ in range(200):
        n = rng.integers(2, 30)
        w = random_weights(rng, n)
        v = rng.normal(0, rng.uniform(0.5, 3.0), n)
        scale = rng.uniform(0.5, 2.0)
        est = local_m_estimate(w, v, score, scale=scale)
        residual = float(w @ score.psi((v - est) / scale))
        assert abs(residual) < 1e-8
        assert v.min() <= est <= v.max()


def test_local_m_shift_and_scale_equivariance(rng):
    score = ScoreFunction.huber(1.345)
    for _ in range(30):
        n = rng.integers(3, 20)
        w = random_weights(rng, n)
        v = rng.normal(size=n)
        scale = rng.uniform(0.5, 2.0)
        base = local_m_estimate(w, v, score, scale=scale)
        shift = local_m_estimate(w, v + 3.7, score, scale=scale)
        assert shift == pytest.approx(base + 3.7, abs=1e-9)
        lam = rng.uniform(0.5, 4.0)
        scaled = local_m_estimate(w, lam * v, score, scale=lam * scale)
        assert scaled == pytest.approx(lam * base, abs=1e-9)


def test_local_m_converges_far_from_zero():
    # the float spacing near 1e6 (1.2e-10) exceeds the 1e-10 tolerance
    est = local_m_estimate(np.full(5, 0.2), 1e6 + np.arange(5.0), ScoreFunction.huber(),
                           scale=1.0)
    assert est == pytest.approx(1e6 + 2.0, abs=1e-9)


@pytest.mark.parametrize("c", [1.0, 1e-9, 1e-11, 1e6])
def test_huber_local_m_is_free_of_the_data_scale(c):
    """No stop of the solve is an absolute width, so a window scaled by c
    solves to the same multiple of c however small c is."""
    est = local_m_estimate(np.full(5, 0.2), c * np.array([0.0, 1.0, 2.0, 3.0, 10.0]),
                           ScoreFunction.huber(1.0), scale=c)
    assert est == 2.0 * c


def test_bisquare_agrees_with_huber_on_clean_symmetric_data(rng):
    w = np.full(9, 1.0 / 9.0)
    v = np.linspace(-1.0, 1.0, 9) + 5.0
    est = local_m_estimate(w, v, ScoreFunction.bisquare(4.685), scale=1.0)
    assert est == pytest.approx(5.0, abs=1e-8)


def test_scale_must_be_positive():
    with pytest.raises(ValueError, match="scale"):
        local_m_estimate([0.5, 0.5], [0.0, 1.0], ScoreFunction.huber(), scale=0.0)


# ------------------------------------------------------------------ scores

BUILTIN_SCORES = [ScoreFunction.identity(), ScoreFunction.huber(), ScoreFunction.bisquare()]
SCORE_IDS = ["identity", "huber", "bisquare"]


@pytest.mark.parametrize("score", BUILTIN_SCORES, ids=SCORE_IDS)
def test_builtin_score_properties(score):
    """psi is odd, the monotone scores are nondecreasing, Huber's psi is
    bounded by c, and psi' agrees with centred differences off the kinks."""
    ref = score.c or 2.0
    u = np.linspace(-50.0, 50.0, 2001)
    assert np.array_equal(score.psi(-u), -score.psi(u))
    if score.code != 2:
        assert np.all(np.diff(score.psi(u)) >= 0.0)
    if score.code == 1:
        assert np.max(np.abs(score.psi(u))) == score.c
    grid = np.linspace(-3.0 * ref, 3.0 * ref, 97)
    if score.c is not None:
        grid = grid[np.abs(np.abs(grid) - score.c) > 0.05]
    step = 1e-6
    fd = (score.psi(grid + step) - score.psi(grid - step)) / (2.0 * step)
    assert np.max(np.abs(fd - score.psi_prime(grid))) <= 1e-6


@pytest.mark.parametrize("make", [ScoreFunction.huber, ScoreFunction.bisquare],
                         ids=["huber", "bisquare"])
@pytest.mark.parametrize("c", [0.0, -2.0, np.inf, np.nan])
def test_score_constant_must_be_finite_and_positive(make, c):
    with pytest.raises(ValueError, match=f"{make.__name__} constant must be finite"):
        make(c)


@pytest.mark.parametrize("code,c,message", [
    (3, 1.0, "score code must be 0, 1 or 2, got 3"),
    (-1, 1.0, "score code must be 0, 1 or 2, got -1"),
    (1, None, "huber constant must be finite and > 0, got None"),
    (1, "2", "huber constant must be finite and > 0, got '2'"),
], ids=["code-3", "code-minus-1", "c-none", "c-string"])
def test_a_score_the_engine_cannot_run_is_refused_naming_the_field(code, c, message):
    with pytest.raises(ValueError) as err:
        ScoreFunction(code, c)
    assert str(err.value) == message


def test_huber_psi_prime_zero_at_kink():
    score = ScoreFunction.huber(1.345)
    assert score.psi_prime(1.345) == 0.0
    assert score.psi_prime(-1.345) == 0.0


# ---------------------------------------------------------------- smoother

def classical_nw_oracle(manifold, h, sample, values, queries):
    # direct independent computation of the kernel-weighted mean
    d = cross_distances(manifold, queries, sample)
    K = np.where(np.abs(d / h) < 1.0, 0.9375 * (1.0 - (d / h) ** 2) ** 2, 0.0)
    return (K @ values) / K.sum(axis=1)


def test_identity_smoother_equals_direct_kernel_mean():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = 30
        sample = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
        values = rng.normal(size=n)
        queries = cylinder_coords(rng.uniform(0, 2 * np.pi, 7), rng.uniform(0, 1, 7))
        score = ScoreFunction.identity()
        est = smooth_at(CYL, 1.5, sample, values, score, queries=queries)[0][:, 0]
        oracle = classical_nw_oracle(CYL, 1.5, sample, values, queries)
        assert est == pytest.approx(oracle, abs=1e-10)


def test_robust_smoother_with_identity_matches_classical_pointwise():
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = 25
        sample = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
        values = rng.normal(size=n)
        score = ScoreFunction.identity()
        est = smooth_at(CYL, 1.2, sample, values, score)[0][:, 0]
        oracle = classical_nw_oracle(CYL, 1.2, sample, values, sample)
        assert est == pytest.approx(oracle, abs=1e-10)


def test_smoother_shift_equivariance(rng):
    n = 40
    sample = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
    values = rng.normal(size=n)
    score = ScoreFunction.huber()
    base = smooth_at(CYL, 1.0, sample, values, score)[0][:, 0]
    shifted = smooth_at(CYL, 1.0, sample, values + 11.25, score)[0][:, 0]
    assert shifted == pytest.approx(base + 11.25, abs=1e-9)


def test_smoother_scale_equivariance(rng):
    n = 40
    sample = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
    values = rng.normal(size=n)
    score = ScoreFunction.huber()
    base = smooth_at(CYL, 1.0, sample, values, score)[0][:, 0]
    lam = 2.75
    scaled = smooth_at(CYL, 1.0, sample, lam * values, score)[0][:, 0]
    assert scaled == pytest.approx(lam * base, abs=1e-9)


def test_smoother_estimates_bounded_by_data(rng):
    n = 50
    sample = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
    values = rng.normal(size=n)
    score = ScoreFunction.huber()
    est = smooth_at(CYL, 0.8, sample, values, score)[0][:, 0]
    assert np.all(est >= values.min() - 1e-12)
    assert np.all(est <= values.max() + 1e-12)


def test_degenerate_window_falls_back_to_median_and_flags():
    # a far-away cluster of identical values forces a zero local MAD
    sample = cylinder_coords([0.0, 0.01, 3.1], [0.5, 0.5, 0.5])
    values = np.array([2.0, 2.0, 9.0])
    score = ScoreFunction.huber()
    est, flags = smooth_at(CYL, 0.5, sample, columns=values, score=score,
                                queries=sample[:1])
    assert est[0, 0] == 2.0
    assert flags[0, 0] == 1


def test_convergence_error_tagged_with_query_index(monkeypatch):
    monkeypatch.setattr(_kernels, "LOCAL_MAX_ITERATIONS", 1)
    rng = np.random.default_rng(8)
    n = 30
    sample = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
    values = rng.normal(size=n) + np.linspace(0, 5, n)
    score = ScoreFunction.bisquare()
    with pytest.raises(ConvergenceError) as err:
        smooth_at(CYL, 2.0, sample, values, score)
    assert err.value.indices
    with pytest.raises(ConvergenceError) as batched:
        smooth_at(CYL, 2.0, sample, np.column_stack([values, values]), score)
    assert batched.value.indices == err.value.indices


def test_smoother_length_mismatch():
    sample = cylinder_coords([0.0, 1.0], [0.2, 0.8])
    score = ScoreFunction.huber()
    with pytest.raises(ValueError, match="length mismatch"):
        smooth_at(CYL, 1.0, sample, np.array([1.0]), score)


def test_sphere_smoother_applies_volume_density_correction():
    sph = Manifold.sphere()
    rng = np.random.default_rng(23)
    sample = rng.normal(size=(40, 3))
    sample /= np.linalg.norm(sample, axis=1, keepdims=True)
    values = rng.normal(size=40)
    queries = sample[:5]
    h = 1.5
    score = ScoreFunction.identity()
    est = smooth_at(sph, h, sample, values, score, queries=queries)[0][:, 0]

    # direct oracle: K(d/h) divided by sin(r)/r, then normalized
    d = cross_distances(sph, queries, sample)
    K = np.where(np.abs(d / h) < 1.0, 0.9375 * (1.0 - (d / h) ** 2) ** 2, 0.0)
    theta = np.where(d > 0, np.sin(d) / np.where(d > 0, d, 1.0), 1.0)
    raw = np.where(K > 0, K / theta, 0.0)
    oracle = (raw @ values) / raw.sum(axis=1)
    assert est == pytest.approx(oracle, abs=1e-12)
    # the correction must actually matter at this bandwidth
    uncorrected = (K @ values) / K.sum(axis=1)
    assert np.max(np.abs(oracle - uncorrected)) > 1e-4
    # the weights gather and scatter the positive cells by np.extract and
    # np.place: the 2-D mask formulation's bits, on a block of a fit-large
    # size, and the sphere's squared distances are read, never overwritten
    d2 = squared_cross(sph, sample[:5], random_points(sph, rng, 2000))
    s = np.maximum(1.0 - d2 / smoother._squared_bandwidth(0.3), 0.0)
    k = 0.9375 * s * s
    pos = k > 0
    k[pos] = k[pos] / volume_density_from_distance(sph, np.sqrt(d2[pos]))
    before = d2.copy()
    for overwrite in (False, True):
        assert np.array_equal(raw_weight_matrix(sph, 0.3, d2, overwrite), k)
        assert np.array_equal(d2, before)


# ------------------------------------------------------- reweighting weight

def _closed_form_weight(score, u):
    if score.code == 1:
        return np.minimum(1.0, score.c / np.abs(u))
    if score.code == 2:
        return np.where(np.abs(u) < score.c, (1.0 - (u / score.c) ** 2) ** 2, 0.0)
    return np.ones_like(u)


@pytest.mark.parametrize("score", BUILTIN_SCORES, ids=SCORE_IDS)
def test_score_weight_is_psi_over_u_continued_by_the_slope_at_zero(score):
    """The weight is its closed form bit for bit; that is psi(u) / u to
    rounding (exactly for identity and Huber), and psi'(0) near zero."""
    u = np.array([-9.0, -4.685, -1.345, -0.2, 2e-10, 1e-3, 0.7, 1.345, 3.0, 20.0])
    weight = score.weight(u)
    assert np.array_equal(weight, _closed_form_weight(score, u))
    rtol = 4e-16 if score.code == 2 else 0.0
    np.testing.assert_allclose(weight, score.psi(u) / u, rtol=rtol, atol=0.0)
    at_zero = np.array([0.0, 1e-10, -1e-10, 3e-11])
    assert np.array_equal(score.weight(at_zero),
                          np.full(at_zero.size, float(score.psi_prime(0.0))))


# ------------------------------------------------------------ memory policy

def test_keeping_freed_memory_is_a_silent_no_op_without_glibc(monkeypatch):
    def no_confstr(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    def no_cdll(*args, **kwargs):
        raise AssertionError("the C library was opened without glibc")

    monkeypatch.setattr(os, "confstr", no_confstr)
    monkeypatch.setattr(ctypes, "CDLL", no_cdll)
    assert smoother._keep_freed_memory() is False

    class NoMallopt:  # a C library without mallopt
        pass

    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(ctypes, "CDLL", lambda name: NoMallopt())
    assert smoother._keep_freed_memory() is False


def test_a_repeated_large_fit_faults_no_block_back_in():
    """Each row block frees its block-sized arrays; with glibc's default
    thresholds the heap top went back to the kernel and a robust fit at
    n = 2000 took about 12,700 minor page faults, its classical fit 900-1,600."""
    if not smoother._keep_freed_memory():
        pytest.skip("mallopt thresholds are set on glibc only")
    ds = simulation.generate_sample(2000, "C1", simulation.replication_rng(10000, 0)).dataset
    for mode in ("robust", "classical"):
        plm.fit(ds, 0.8, mode=mode)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        plm.fit(ds, 0.8, mode=mode)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 500, f"{mode} fit took {faults} minor faults"


# ------------------------------------------------------- blocks on threads

@pytest.fixture
def helpers(monkeypatch):
    """Three usable CPUs and a fresh helper pool, so a streamed call runs its
    blocks on helper threads on any machine; the pool is shut down after."""
    monkeypatch.setattr(smoother, "_usable_cpus", lambda: 3)
    smoother._helper_pool.cache_clear()
    yield
    if smoother._helper_pool.cache_info().currsize:
        smoother._helper_pool().shutdown()
    smoother._helper_pool.cache_clear()


def _first_two_blocks_on_two_threads(monkeypatch):
    """Hold the thread that takes the first block of a call (the caller or a
    helper) until another thread has taken a block, so the first two blocks
    run on different threads.  Returns the log of (thread, block rows) per
    block, in the order the blocks start; clear it between calls."""
    weigh, started, log = smoother._block_weights, threading.Condition(), []

    def gated(*args):
        with started:
            log.append((threading.current_thread(), np.arange(args[2].shape[0])[args[-1][1]]))
            started.notify_all()
            if len(log) == 1:
                assert started.wait_for(lambda: len(log) > 1, 30), "no other thread took a block"
        return weigh(*args)

    monkeypatch.setattr(smoother, "_block_weights", gated)
    return log


def _serial_smooth(manifold, h, sample, columns, score, queries, loo):
    """smooth_columns composed from window_blocks and the engine, one block
    after another in this thread."""
    q = sample if queries is None else queries
    est = np.empty((q.shape[0], columns.shape[1]))
    flags = np.zeros(est.shape, dtype=np.int8)
    for rows, cols, W, totals in window_blocks(manifold, h, q, sample, leave_one_out=loo):
        if score.code == 0:
            est[rows] = (W @ columns[cols]) / totals[:, None]
            continue
        for j, v in enumerate(columns[cols].T):
            est[rows, j], flags[rows, j] = _kernels.local_m_rows(
                W, v, score.code, score.c, totals)
    return est, flags


@pytest.mark.parametrize("manifold,h,n", [(CYL, 0.8, 2000), (Manifold.sphere(), 0.3, 1500)],
                         ids=["cylinder", "sphere"])
@pytest.mark.parametrize("score", BUILTIN_SCORES, ids=SCORE_IDS)
def test_blocks_on_threads_equal_the_serial_blocks_bit_for_bit(manifold, h, n, score,
                                                               helpers, monkeypatch):
    """A streamed call whose blocks run on the calling thread and helpers
    returns the estimates and flags of the blocks run one after another in
    the test, bit for bit: the sample against itself, leave-one-out, and
    queries apart from the sample."""
    rng = np.random.default_rng(61)
    sample, queries = random_points(manifold, rng, n), random_points(manifold, rng, 700)
    columns = rng.normal(size=(n, 2))
    columns[:, 1] += 3.0 * sample[:, 0]
    log = _first_two_blocks_on_two_threads(monkeypatch)
    for q, loo in ((None, False), (None, True), (queries, False)):
        log.clear()
        est, flags = smooth_at(manifold, h, sample, columns, score, queries=q,
                                    leave_one_out=loo)
        assert len({thread for thread, _ in log}) > 1
        want_est, want_flags = _serial_smooth(manifold, h, sample, columns, score, q, loo)
        assert np.array_equal(est, want_est)
        assert np.array_equal(flags, want_flags)


def test_empty_windows_in_blocks_on_two_threads_raise_the_serial_error(helpers, monkeypatch):
    """Point 0 (angle 0.2, 0.8 from the nearest other) lies in the first
    key-sorted block and point 301 (angle 2.6, 0.6 from it) in the second,
    run by different threads.  The error names both, with the bandwidth
    that would cover them, and its message is the serial generator's."""
    angles = np.concatenate([[0.2], np.linspace(1.0, 2.0, 300), [2.6],
                             np.linspace(3.2, 4.2, 398)])
    sample = circle_coords(angles)
    with pytest.raises(EmptyWindowError) as serial:
        window_blocks(CIR, 0.3, sample, sample, leave_one_out=True)
    log = _first_two_blocks_on_two_threads(monkeypatch)
    with pytest.raises(EmptyWindowError) as threaded:
        smooth_at(CIR, 0.3, sample, angles, ScoreFunction.huber(), leave_one_out=True)
    first_thread, first = log[0]
    assert first[0] == 0 and 301 not in first
    assert all(thread is not first_thread for thread, rows in log if 301 in rows)
    assert threaded.value.indices == serial.value.indices == [0, 301]
    assert threaded.value.nearest_distance == serial.value.nearest_distance
    assert threaded.value.nearest_distance == pytest.approx(0.8, abs=1e-12)
    assert str(threaded.value) == str(serial.value)


def test_unconverged_rows_on_two_threads_raise_the_serial_error(helpers, monkeypatch):
    """With one iteration allowed, rows of the blocks run by the caller and
    by a helper run out: one ConvergenceError lists the rows the serial
    blocks flag, with the serial message."""
    monkeypatch.setattr(_kernels, "LOCAL_MAX_ITERATIONS", 1)
    rng = np.random.default_rng(62)
    sample = random_points(CYL, rng, 600)
    values = rng.normal(size=(600, 2)) + np.linspace(0, 5, 600)[:, None]
    _, flags = _serial_smooth(CYL, 0.8, sample, values, ScoreFunction.bisquare(), None, False)
    stuck = np.flatnonzero((flags == 2).any(axis=1)).tolist()
    log = _first_two_blocks_on_two_threads(monkeypatch)
    with pytest.raises(ConvergenceError) as err:
        smooth_at(CYL, 0.8, sample, values, ScoreFunction.bisquare())
    assert err.value.indices == stuck
    assert str(err.value) == f"local smoothing did not converge at query indices {stuck}"
    by_thread = {}
    for thread, rows in log:
        by_thread.setdefault(thread, []).extend(rows)
    assert len(by_thread) > 1
    assert all(np.isin(stuck, rows).any() for rows in by_thread.values())


@pytest.mark.parametrize("failing", ["helper", "caller"])
def test_an_engine_error_on_one_thread_reaches_the_caller_after_every_thread_stops(
        failing, helpers, monkeypatch):
    """A solve that raises on one block, in a helper or in the caller: the
    caller gets that error once no block is being solved on any thread, and
    the next call succeeds."""
    rng = np.random.default_rng(63)
    sample, values = random_points(CYL, rng, 1200), rng.normal(size=1200)
    solve, caller, lock, running = _kernels.local_m_rows, threading.current_thread(), \
        threading.Lock(), [0]

    def failing_once(*args, **kwargs):
        with lock:
            running[0] += 1
        try:
            if (threading.current_thread() is caller) == (failing == "caller") \
                    and not failed.is_set():
                failed.set()
                raise FloatingPointError("engine failed")
            return solve(*args, **kwargs)
        finally:
            with lock:
                running[0] -= 1

    failed = threading.Event()
    _first_two_blocks_on_two_threads(monkeypatch)
    monkeypatch.setattr(_kernels, "local_m_rows", failing_once)
    with pytest.raises(FloatingPointError, match="engine failed"):
        smooth_at(CYL, 0.8, sample, values, ScoreFunction.huber())
    assert failed.is_set() and running[0] == 0
    est, _ = smooth_at(CYL, 0.8, sample, values, ScoreFunction.huber())
    want, _ = _serial_smooth(CYL, 0.8, sample, values[:, None], ScoreFunction.huber(),
                             None, False)
    assert np.array_equal(est, want)


def test_callers_on_more_threads_than_cpus_share_the_helpers(helpers):
    """Six threads smooth at once through the shared pool with a shortened
    switch interval; a lost update to a call's plan would skip or repeat a
    block.  Every call returns the serial estimates, within a time bound."""
    rng = np.random.default_rng(65)
    sample, columns = random_points(CYL, rng, 1200), rng.normal(size=(1200, 2))
    want = [_serial_smooth(CYL, 0.8, sample, columns, score, None, False)[0]
            for score in BUILTIN_SCORES]
    got = [None] * 6

    def call(i):
        got[i] = smooth_at(CYL, 0.8, sample, columns, BUILTIN_SCORES[i % 3])[0]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(np.array_equal(got[i], want[i % 3]) for i in range(6))


def test_one_usable_cpu_starts_no_helper(monkeypatch):
    """Under an affinity of one CPU a streamed call runs in the caller
    alone: no pool is made and no thread starts.  Without an affinity call
    the CPU count is used."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    smoother._helper_pool.cache_clear()
    assert smoother._usable_cpus() == 1
    rng = np.random.default_rng(64)
    sample, values = random_points(CYL, rng, 1200), rng.normal(size=1200)
    threads = set(threading.enumerate())
    for score in (ScoreFunction.identity(), ScoreFunction.huber()):
        smooth_at(CYL, 0.8, sample, values, score)
    assert set(threading.enumerate()) <= threads
    assert smoother._helper_pool.cache_info().currsize == 0
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert smoother._usable_cpus() == 5


@pytest.mark.parametrize("score", [ScoreFunction.identity(), ScoreFunction.huber()],
                         ids=["identity", "huber"])
def test_a_smoothing_call_frees_its_arrays_without_the_gc(score, helpers):
    """With the gc off, a streamed call on the caller and two helpers keeps
    no reference to its value columns once it returns: nothing the call
    made refers to itself, so its arrays are freed by reference counting."""
    rng = np.random.default_rng(66)
    sample, columns = random_points(CYL, rng, 1200), rng.normal(size=(1200, 2))
    alive = weakref.ref(columns)
    enabled = gc.isenabled()
    gc.disable()
    try:
        smooth_columns(CYL, [0.8], sample, columns, score)
        del columns
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("n", [150, 700], ids=["one-block", "streamed"])
def test_each_bandwidth_of_one_call_gets_its_own_entry(n, helpers, monkeypatch):
    """One bisquare call at h = 0.5, 1.1 and 1.3 with 3 evaluations allowed:
    the query at angle 3.0, 1.0 from the sample on [0, 2], has an empty
    window at 0.5, and rows run out of iterations at 1.1 only.  Each error is
    its candidate's entry alone, with the type, text and indices of that
    candidate's one-bandwidth call, and the other entries are their
    one-bandwidth calls bit for bit.  At n = 150 the one block's distances
    serve every bandwidth in the calling thread; at n = 700 the bandwidths'
    key-sorted blocks run on the caller and a helper."""
    monkeypatch.setattr(_kernels, "LOCAL_MAX_ITERATIONS", 3)
    rng = np.random.default_rng(11)
    sample = circle_coords(rng.uniform(0, 2.0, n))
    values = rng.normal(size=(n, 2)) + np.linspace(0, 5, n)[:, None]
    queries = circle_coords(np.append(rng.uniform(0, 2.0, n - 1), 3.0))
    hs, score = [0.5, 1.1, 1.3], ScoreFunction.bisquare()
    alone = [smooth_columns(CIR, [h], sample, values, score, queries=queries)[0] for h in hs]
    assert [type(entry) for entry in alone] == [EmptyWindowError, ConvergenceError, tuple]
    if n == 700:
        log = _first_two_blocks_on_two_threads(monkeypatch)
    else:
        log, distances, block_weights = [], smoother.squared_distances, smoother._block_weights

        def recording(manifold, a, b):  # charts: one column per point
            log.append((threading.current_thread(), a.shape[1] * b.shape[1]))
            return distances(manifold, a, b)

        def weighing(*args):
            log.append((threading.current_thread(), "block"))
            return block_weights(*args)

        monkeypatch.setattr(smoother, "squared_distances", recording)
        monkeypatch.setattr(smoother, "_block_weights", weighing)
    entries = smooth_columns(CIR, hs, sample, values, score, queries=queries)
    if n == 700:
        assert len({thread for thread, _ in log}) > 1
    else:  # the one block's distances, each bandwidth's block (the first measures its
        # empty window's row against the sample), all in the calling thread
        caller = threading.current_thread()
        assert log == [(caller, n * n), (caller, "block"), (caller, n), (caller, "block"),
                       (caller, "block")]
    for entry, want in zip(entries[:2], alone):
        assert type(entry) is type(want) and str(entry) == str(want)
        assert entry.indices == want.indices
    assert entries[0].nearest_distance == alone[0].nearest_distance
    assert all(np.array_equal(got, expected) for got, expected in zip(entries[2], alone[2]))


def _fit_in_child(ds, out):
    out.put(plm.fit(ds, 0.8).beta.tolist())


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="fork after numpy and threads is supported on Linux only")
def test_a_forked_child_makes_its_own_helpers(helpers):
    """A child forked after the parent ran a streamed fit inherits a pool
    whose threads did not survive the fork; it makes its own and returns
    the parent's coefficients."""
    ds = simulation.generate_sample(600, "C1", simulation.replication_rng(7, 0)).dataset
    beta = plm.fit(ds, 0.8).beta.tolist()
    assert smoother._helper_pool.cache_info().currsize == 1
    fork = multiprocessing.get_context("fork")
    out = fork.Queue()
    child = fork.Process(target=_fit_in_child, args=(ds, out))
    child.start()
    try:
        got = out.get(timeout=60)
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert got == beta


def test_a_streamed_campaign_on_two_workers_equals_one_worker(helpers):
    """At n = 300 every smoothing call streams its blocks; two replication
    threads share the one helper pool and reproduce one worker's
    coefficients, bandwidths and errors bit for bit."""
    runs = [simulation.run_campaign(simulation.SimulationConfig(
        n=300, replications=4, contamination="C1", bandwidth=0.8, master_seed=5,
        workers=workers)) for workers in (1, 2)]
    for mode in runs[0].config.modes:
        for attr in ("beta", "mse_g", "bandwidth"):
            assert np.array_equal(getattr(runs[0].results[mode], attr),
                                  getattr(runs[1].results[mode], attr))
    assert runs[0].failures == runs[1].failures
