import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from plmanifold import _kernels
from plmanifold.manifold import Manifold, cylinder_coords
from plmanifold.smoother import (
    KernelSpec,
    LocalFitConfig,
    ScoreFunction,
    local_m_estimate,
    local_mad,
    smooth_columns,
    weighted_median,
)

HUBER_C = 1.345
MAD_C = 1.4826


def random_problem(rng, nq=25, n=40):
    W = rng.uniform(0.0, 1.0, (nq, n))
    W[rng.random((nq, n)) < 0.4] = 0.0
    W[:, 0] = np.maximum(W[:, 0], 0.05)  # keep every row nonempty
    v = rng.normal(0.0, 2.0, n)
    order = np.argsort(v)
    return W, v, order


def test_numpy_backend_solves_the_score_equation(rng):
    for _ in range(30):
        W, v, order = random_problem(rng)
        est, flags = _kernels.local_m_rows(W, v, order, 1, HUBER_C, MAD_C, 1e-10, 200)
        Wn = W / W.sum(axis=1, keepdims=True)
        for q in range(W.shape[0]):
            if flags[q] != 0:
                continue
            u = (v - est[q]) / _row_mad(Wn[q], v)
            g = float(Wn[q] @ np.clip(u, -HUBER_C, HUBER_C))
            assert abs(g) < 1e-7


def _row_mad(w, v):
    order = np.argsort(v, kind="stable")
    cum = np.cumsum(w[order])
    med = v[order][np.searchsorted(cum, 0.5 - 1e-12)]
    dev = np.abs(v - med)
    order2 = np.argsort(dev, kind="stable")
    cum2 = np.cumsum(w[order2])
    return 1.4826 * dev[order2][np.searchsorted(cum2, 0.5 - 1e-12)]


# --------------------------------------------------- custom scores, same engine

def _custom_copy(score):
    return ScoreFunction.custom(f"custom-{score.name}", score.psi_fn,
                                score.psi_prime_fn, monotone=score.monotone)


@pytest.mark.parametrize("builtin,tol", [(ScoreFunction.huber(), 1e-12),
                                         (ScoreFunction.bisquare(), 1e-10)],
                         ids=["huber", "bisquare"])
def test_custom_copy_of_builtin_score_matches_through_smooth_columns(builtin, tol):
    rng = np.random.default_rng(31)
    n = 80
    cyl = Manifold.cylinder((0.0, 1.0))
    t = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
    columns = np.column_stack([rng.standard_t(2, n), rng.normal(size=n),
                               np.round(rng.normal(size=n))])  # ties in column 2
    runs = []
    for score in (builtin, _custom_copy(builtin)):
        cfg = LocalFitConfig(bandwidth=0.7, score=score)
        runs.append(smooth_columns(cyl, KernelSpec.quadratic(), cfg, t, columns))
    (est, flags), (est_custom, flags_custom) = runs
    assert np.array_equal(flags, flags_custom)
    assert np.max(np.abs(est - est_custom)) <= tol


# ------------------------------------------------ slow, sort-based oracle

def oracle_median(w, v):
    order = np.argsort(v, kind="stable")
    cum = np.cumsum(w[order]) / w.sum()
    return v[order][min(np.searchsorted(cum, 0.5 - 1e-12), v.size - 1)]


def oracle_mad(w, v):
    return MAD_C * oracle_median(w, np.abs(v - oracle_median(w, v)))


def oracle_huber(w, v, scale):
    """Root of the Huber score equation by brentq on the support bracket."""
    sup = v[w > 0]
    lo, hi = sup.min(), sup.max()
    if hi <= lo:
        return lo

    def score(m):
        return float(w @ np.clip((v - m) / scale, -HUBER_C, HUBER_C))

    return brentq(score, lo, hi, xtol=1e-13, rtol=1e-15)


def _huber_root_interval(w, v, scale, m, width=1e-8):
    # the score is nonincreasing in m: a root lies within width of m when the
    # score changes sign (or vanishes) across [m - width, m + width]
    def score(x):
        return float(w @ np.clip((v - x) / scale, -HUBER_C, HUBER_C))

    return score(m - width) >= -1e-12 and score(m + width) <= 1e-12


# Windows with ties (values on a coarse grid), duplicate points (repeated
# columns), zero-MAD rows (a dominant tied block) and single-point rows.
@st.composite
def windows(draw):
    n = draw(st.integers(1, 12))
    nq = draw(st.integers(1, 6))
    coarse = draw(st.booleans())
    vals = st.integers(-3, 3).map(float) if coarse else st.floats(
        -50, 50, allow_nan=False, allow_subnormal=False)
    v = np.array(draw(st.lists(vals, min_size=n, max_size=n)))
    dup = draw(st.integers(0, n - 1))
    v = np.concatenate([v, v[:dup]])
    W = np.array(draw(st.lists(
        st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]), min_size=v.size,
                 max_size=v.size), min_size=nq, max_size=nq)))
    W[:, 0] = np.maximum(W[:, 0], 0.5)  # every row has support
    if draw(st.booleans()):
        single = np.zeros(v.size)
        single[draw(st.integers(0, v.size - 1))] = 2.0
        W[0] = single
    return W, v


@settings(max_examples=150, deadline=None)
@given(windows())
def test_engine_matches_sort_based_oracle(problem):
    W, v = problem
    est, flags = _kernels.local_m_rows(W, v, np.argsort(v), 1, HUBER_C, MAD_C,
                                       1e-10, 200)
    Wn = W / W.sum(axis=1, keepdims=True)
    med = _kernels.median_rows(Wn, v, np.argsort(v))
    mad = _kernels.mad_rows(Wn, v, med, MAD_C)
    for q in range(W.shape[0]):
        assert med[q] == oracle_median(W[q], v)
        assert mad[q] == pytest.approx(oracle_mad(W[q], v), rel=1e-12, abs=0.0)
        assert weighted_median(Wn[q], v) == med[q]
        assert local_mad(Wn[q], v, MAD_C) == mad[q]
        if mad[q] <= 0.0:
            assert flags[q] == 1 and est[q] == med[q]
            continue
        assert flags[q] == 0
        ref = oracle_huber(Wn[q], v, mad[q])
        tol = 1e-8 * max(1.0, abs(ref))
        assert abs(est[q] - ref) <= tol or _huber_root_interval(Wn[q], v, mad[q], est[q])
        scalar = local_m_estimate(Wn[q], v, ScoreFunction.huber(HUBER_C), scale=mad[q])
        assert abs(scalar - ref) <= tol or _huber_root_interval(Wn[q], v, mad[q], scalar)


def test_single_point_and_zero_mad_rows():
    v = np.array([3.0, 3.0, 3.0, 8.0, -1.0])
    W = np.array([[0.0, 0.0, 0.0, 1.0, 0.0],    # one point in the window
                  [1.0, 1.0, 1.0, 0.5, 0.5],    # tied block holds the MAD at 0
                  [1.0, 0.0, 0.0, 1.0, 1.0]])
    est, flags = _kernels.local_m_rows(W, v, np.argsort(v), 1, HUBER_C, MAD_C,
                                       1e-10, 200)
    assert flags[0] == 1 and est[0] == 8.0
    assert flags[1] == 1 and est[1] == 3.0
    assert flags[2] == 0
    mad = oracle_mad(W[2], v)
    assert est[2] == pytest.approx(oracle_huber(W[2] / 3.0, v, mad), abs=1e-9)
