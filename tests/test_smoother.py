import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmanifold.errors import ConvergenceError, EmptyWindowError
from plmanifold.manifold import (
    BLOCK_CELLS,
    Manifold,
    circle_coords,
    cross_distances,
    cylinder_coords,
    pairwise_distances,
    row_blocks,
)
from plmanifold.smoother import (
    LocalFitConfig,
    ScoreFunction,
    conditional_ecdf,
    fit_smoother,
    local_m_estimate,
    local_mad,
    pelletier_weights,
    quartic_kernel,
    raw_weight_matrix,
    smooth_columns,
    weighted_median,
    window_weights,
)
from conftest import random_points, random_weights

CIR = Manifold.circle()
CYL = Manifold.cylinder((0.0, 1.0))


def quartic_oracle(u):
    # independent scalar oracle for the quartic kernel
    return 0.9375 * (1.0 - u * u) ** 2 if abs(u) < 1.0 else 0.0


# ------------------------------------------------------------------ kernel

def test_quadratic_kernel_values():
    assert quartic_kernel(0.0) == pytest.approx(15.0 / 16.0, abs=1e-15)
    assert quartic_kernel(0.5) == pytest.approx(quartic_oracle(0.5), abs=1e-15)
    assert quartic_kernel(1.0) == 0.0
    assert quartic_kernel(1.5) == 0.0


def test_quadratic_kernel_equals_the_masked_formula_bit_for_bit():
    below_one = np.nextafter(1.0, 0.0)
    u = np.concatenate([np.linspace(-1.5, 1.5, 3001), [1.0, -1.0, below_one, -below_one,
                        np.nextafter(1.0, 2.0), 1.0 - 1e-9, 0.0, np.inf]])
    ref = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    t = 1.0 - u[inside] ** 2
    ref[inside] = 0.9375 * t * t
    got = quartic_kernel(u)
    assert np.array_equal(got, ref)
    assert not np.any(np.signbit(got))


# ----------------------------------------------------------------- weights

def test_single_point_window_gets_unit_weight():
    t = circle_coords([0.0])[0]
    w = pelletier_weights(CIR, 1.0, t, t[None, :])
    assert w.shape == (1,)
    assert w[0] == 1.0


def test_circle_example_weights_match_scalar_oracle():
    # sample at angles 0, pi/2, pi; query angle 0; h = 2
    sample = circle_coords([0.0, math.pi / 2, math.pi])
    t = circle_coords([0.0])[0]
    h = 2.0
    raw = np.array([quartic_oracle(0.0), quartic_oracle(math.pi / 4), quartic_oracle(math.pi / 2)])
    expected = raw / raw.sum()
    w = pelletier_weights(CIR, h, t, sample)
    assert w == pytest.approx(expected, abs=1e-12)
    assert w[2] == 0.0
    assert abs(w.sum() - 1.0) < 1e-12


def test_symmetric_pair_gets_equal_weights():
    sample = circle_coords([0.4, -0.4])
    t = circle_coords([0.0])[0]
    w = pelletier_weights(CIR, 1.0, t, sample)
    assert w[0] == pytest.approx(w[1], abs=1e-15)


def test_weights_zero_at_or_beyond_bandwidth():
    sample = circle_coords([0.0, 0.5, 1.0])
    t = circle_coords([0.0])[0]
    w = pelletier_weights(CIR, 0.5, t, sample)
    assert w[1] == 0.0 and w[2] == 0.0


def test_permutation_of_sample_permutes_weights():
    rng = np.random.default_rng(2)
    sample = circle_coords(rng.uniform(0, 2 * np.pi, 20))
    t = circle_coords([1.0])[0]
    w = pelletier_weights(CIR, 2.0, t, sample)
    perm = rng.permutation(20)
    wp = pelletier_weights(CIR, 2.0, t, sample[perm])
    assert wp == pytest.approx(w[perm], abs=1e-15)


def test_weights_normalized_on_random_queries(rng):
    sample = cylinder_coords(rng.uniform(0, 2 * np.pi, 60), rng.uniform(0, 1, 60))
    for _ in range(100):
        t = cylinder_coords([rng.uniform(0, 2 * np.pi)], [rng.uniform(0, 1)])[0]
        w = pelletier_weights(CYL, 1.0, t, sample)
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(w >= 0)


def test_empty_window_error_carries_nearest_distance():
    sample = circle_coords([2.0, 2.5])
    t = circle_coords([0.0])[0]
    with pytest.raises(EmptyWindowError) as err:
        pelletier_weights(CIR, 0.5, t, sample)
    assert err.value.nearest_distance == pytest.approx(2.0, abs=1e-12)
    assert err.value.indices == [0]


def test_window_weights_leave_one_out_leaves_the_distances_alone():
    rng = np.random.default_rng(12)
    sample = cylinder_coords(rng.uniform(0, 2 * np.pi, 15), rng.uniform(0, 1, 15))
    d = pairwise_distances(CYL, sample)
    before = d.copy()
    W, totals = window_weights(CYL, 1.5, sample, sample, leave_one_out=True,
                               distances=d)
    assert np.all(np.diag(W) == 0.0)
    assert np.array_equal(totals, W.sum(axis=1))
    assert np.array_equal(d, before)
    W_all, _ = window_weights(CYL, 1.5, sample, sample, distances=d)
    assert np.all(np.diag(W_all) == 0.9375)
    # the diagonal is a sample point's own weight only when the queries are the sample
    foreign = cylinder_coords(rng.uniform(0, 2 * np.pi, 10), rng.uniform(0, 1, 10))
    with pytest.raises(ValueError, match="leave_one_out"):
        window_weights(CYL, 1.5, foreign, sample, leave_one_out=True)
    with pytest.raises(ValueError, match="leave_one_out"):
        window_weights(CYL, 1.5, sample.copy(), sample, leave_one_out=True,
                       distances=d)


@pytest.mark.parametrize("manifold,h", [(CYL, 0.8), (Manifold.sphere(), 0.8), (CIR, 0.3),
                                        (Manifold.euclidean(3), 2.0)],
                         ids=["cylinder", "sphere", "circle", "euclidean"])
def test_blocked_window_weights_equal_the_dense_kernel(manifold, h):
    """Every path through the row blocks (one block or more than three, the
    mirrored upper triangle, queries apart from the sample, leave-one-out,
    distances given or built from the coordinates) gives the kernel of the
    full distance matrix."""
    rng = np.random.default_rng(31)
    big = math.isqrt(6 * BLOCK_CELLS) + 5
    for n, nq in ((60, 25), (big, 3 * BLOCK_CELLS // big + 7)):
        sample = random_points(manifold, rng, n)
        queries = random_points(manifold, rng, nq)
        if n == big:
            assert len(list(row_blocks(n, n, upper=True))) > 3
            assert len(list(row_blocks(nq, n))) > 3
        d_self = cross_distances(manifold, sample, sample)
        d_cross = cross_distances(manifold, queries, sample)
        dense_self = raw_weight_matrix(manifold, h, d_self)
        dense_loo = dense_self.copy()
        np.fill_diagonal(dense_loo, 0.0)
        dense_cross = raw_weight_matrix(manifold, h, d_cross)
        cases = [(sample, False, dense_self), (sample, True, dense_loo),
                 (queries, False, dense_cross)]
        for q, loo, dense in cases:
            d = d_cross if q is queries else d_self
            for given in (None, d):
                W, totals = window_weights(manifold, h, q, sample,
                                           leave_one_out=loo, distances=given)
                assert np.max(np.abs(W - dense)) <= 1e-15
                assert np.array_equal(totals, W.sum(axis=1))


@pytest.mark.parametrize("given", [False, True], ids=["coords", "distances"])
def test_leave_one_out_empty_window_reports_the_nearest_other_point(given):
    # points 0 and 1 are 0.5 apart and 2 is 1.2 from 0 and 1.7 from 1: at
    # h = 0.3 every leave-one-out window is empty, and 2 needs h > 1.2
    sample = circle_coords([0.0, 0.5, -1.2])
    d = pairwise_distances(CIR, sample)
    before = d.copy()
    with pytest.raises(EmptyWindowError) as err:
        window_weights(CIR, 0.3, sample, sample, leave_one_out=True,
                       distances=d if given else None)
    assert err.value.indices == [0, 1, 2]
    assert err.value.nearest_distance == pytest.approx(1.2, abs=1e-12)
    assert np.array_equal(d, before)


def test_bandwidth_range_enforced():
    t = circle_coords([0.0])[0]
    with pytest.raises(ValueError, match="bandwidth"):
        pelletier_weights(CIR, math.pi, t, t[None, :])
    with pytest.raises(ValueError, match="bandwidth"):
        pelletier_weights(CIR, 0.0, t, t[None, :])


# -------------------------------------------------------------------- ecdf

def test_ecdf_enumerated_steps():
    F = conditional_ecdf([0.2, 0.3, 0.5], [1.0, 2.0, 3.0])
    assert F(0.9) == 0.0
    assert F(1.0) == pytest.approx(0.2)
    assert F(1.5) == pytest.approx(0.2)
    assert F(2.0) == pytest.approx(0.5)
    assert F(3.0) == pytest.approx(1.0)
    assert F(10.0) == pytest.approx(1.0)


def test_ecdf_single_point():
    F = conditional_ecdf([1.0], [5.0])
    assert F(4.999999) == 0.0
    assert F(5.0) == 1.0


def test_ecdf_all_values_equal():
    F = conditional_ecdf([0.25] * 4, [7.0] * 4)
    assert F(6.999) == 0.0
    assert F(7.0) == pytest.approx(1.0)


def test_ecdf_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        conditional_ecdf([0.5, 0.5], [1.0])


def test_ecdf_requires_normalized_weights():
    with pytest.raises(ValueError, match="sum to 1"):
        conditional_ecdf([0.5, 0.2], [1.0, 2.0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=20))
def test_ecdf_monotone_from_zero_to_one(values):
    n = len(values)
    w = np.full(n, 1.0 / n)
    F = conditional_ecdf(w, values)
    grid = np.linspace(min(values) - 1, max(values) + 1, 50)
    out = F(grid)
    assert np.all(np.diff(out) >= 0)
    assert out[0] == 0.0
    assert out[-1] == pytest.approx(1.0)


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
        F = conditional_ecdf(w, v)
        assert F(med) >= 0.5 - 1e-9
        below = v[v < med]
        if below.size:
            assert F(below.max()) < 0.5


# ----------------------------------------------------------------- local MAD

def test_local_mad_enumerated():
    # deviations (1, 0, 1) with masses (0.2, 0.3, 0.5) have median 1
    assert local_mad([0.2, 0.3, 0.5], [1.0, 2.0, 3.0], 1.0) == 1.0


def test_local_mad_degenerate_is_zero():
    assert local_mad([0.25] * 4, [2.0] * 4) == 0.0


def test_local_mad_normal_consistency():
    rng = np.random.default_rng(99)
    v = rng.normal(size=100_000)
    w = np.full(v.size, 1.0 / v.size)
    assert local_mad(w, v, 1.4826) == pytest.approx(1.0, abs=0.02)


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
        cfg = LocalFitConfig(score=ScoreFunction.identity())
        est = fit_smoother(CYL, 1.5, sample, values, queries, cfg)
        oracle = classical_nw_oracle(CYL, 1.5, sample, values, queries)
        assert est == pytest.approx(oracle, abs=1e-10)


def test_robust_smoother_with_identity_matches_classical_pointwise():
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = 25
        sample = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
        values = rng.normal(size=n)
        cfg = LocalFitConfig(score=ScoreFunction.identity())
        est = fit_smoother(CYL, 1.2, sample, values, sample, cfg)
        oracle = classical_nw_oracle(CYL, 1.2, sample, values, sample)
        assert est == pytest.approx(oracle, abs=1e-10)


def test_smoother_shift_equivariance(rng):
    n = 40
    sample = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
    values = rng.normal(size=n)
    cfg = LocalFitConfig()
    base = fit_smoother(CYL, 1.0, sample, values, sample, cfg)
    shifted = fit_smoother(CYL, 1.0, sample, values + 11.25, sample, cfg)
    assert shifted == pytest.approx(base + 11.25, abs=1e-9)


def test_smoother_scale_equivariance(rng):
    n = 40
    sample = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
    values = rng.normal(size=n)
    cfg = LocalFitConfig()
    base = fit_smoother(CYL, 1.0, sample, values, sample, cfg)
    lam = 2.75
    scaled = fit_smoother(CYL, 1.0, sample, lam * values, sample, cfg)
    assert scaled == pytest.approx(lam * base, abs=1e-9)


def test_smoother_estimates_bounded_by_data(rng):
    n = 50
    sample = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
    values = rng.normal(size=n)
    cfg = LocalFitConfig()
    est = fit_smoother(CYL, 0.8, sample, values, sample, cfg)
    assert np.all(est >= values.min() - 1e-12)
    assert np.all(est <= values.max() + 1e-12)


def test_degenerate_window_falls_back_to_median_and_flags():
    # a far-away cluster of identical values forces a zero local MAD
    sample = cylinder_coords([0.0, 0.01, 3.1], [0.5, 0.5, 0.5])
    values = np.array([2.0, 2.0, 9.0])
    cfg = LocalFitConfig()
    est, flags = fit_smoother(CYL, 0.5, sample, values,
                              sample[:1], cfg, return_flags=True)
    assert est[0] == 2.0
    assert flags[0] == 1


def test_convergence_error_tagged_with_query_index():
    rng = np.random.default_rng(8)
    n = 30
    sample = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
    values = rng.normal(size=n) + np.linspace(0, 5, n)
    cfg = LocalFitConfig(score=ScoreFunction.bisquare(), max_iterations=1)
    with pytest.raises(ConvergenceError) as err:
        fit_smoother(CYL, 2.0, sample, values, sample, cfg)
    assert err.value.indices
    with pytest.raises(ConvergenceError) as batched:
        smooth_columns(CYL, 2.0, sample, np.column_stack([values, values]), cfg)
    assert batched.value.indices == err.value.indices


def test_smoother_length_mismatch():
    sample = cylinder_coords([0.0, 1.0], [0.2, 0.8])
    cfg = LocalFitConfig()
    with pytest.raises(ValueError, match="length mismatch"):
        fit_smoother(CYL, 1.0, sample, np.array([1.0]), sample, cfg)


def test_sphere_smoother_applies_volume_density_correction():
    sph = Manifold.sphere()
    rng = np.random.default_rng(23)
    sample = rng.normal(size=(40, 3))
    sample /= np.linalg.norm(sample, axis=1, keepdims=True)
    values = rng.normal(size=40)
    queries = sample[:5]
    h = 1.5
    cfg = LocalFitConfig(score=ScoreFunction.identity())
    est = fit_smoother(sph, h, sample, values, queries, cfg)

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
