import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from plmanifold import _kernels, bandwidth, plm, simulation
from plmanifold.errors import ConvergenceError
from plmanifold.manifold import Manifold, circle_coords, cylinder_coords
from plmanifold.smoother import (
    ScoreFunction,
    local_m_estimate,
    local_mad,
    only_entry,
    raw_weight_matrix,
    smooth_columns,
    weighted_median,
)
from conftest import smooth_at, squared_cross

HUBER_C = 1.345
MAD_C = 1.4826


def random_problem(rng, nq=25, n=40):
    W = rng.uniform(0.0, 1.0, (nq, n))
    W[rng.random((nq, n)) < 0.4] = 0.0
    W[:, 0] = np.maximum(W[:, 0], 0.05)  # keep every row nonempty
    v = rng.normal(0.0, 2.0, n)
    return W, v


def test_numpy_backend_solves_the_score_equation(rng):
    for _ in range(30):
        W, v = random_problem(rng)
        est, flags = _kernels.local_m_rows(W, v, 1, HUBER_C, W.sum(axis=1))
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


# ------------------------------------------------ slow, sort-based oracle

def oracle_median(w, v):
    order = np.argsort(v, kind="stable")
    cum = np.cumsum(w[order]) / w.sum()
    return v[order][min(np.searchsorted(cum, 0.5 - 1e-12), v.size - 1)]


def oracle_mad(w, v):
    return MAD_C * oracle_median(w, np.abs(v - oracle_median(w, v)))


def oracle_huber(w, v, scale):
    """Root of the Huber score equation by brentq on the support bracket;
    psi(u) = clip(v - m, -c scale, c scale) / scale, which does not overflow
    at a tiny scale."""
    sup = v[w > 0]
    lo, hi = sup.min(), sup.max()
    if hi <= lo:
        return lo

    def score(m):
        return float(w @ (np.clip(v - m, -HUBER_C * scale, HUBER_C * scale) / scale))

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


# A Huber score that is zero to rounding (g ~ -6e-17) on a whole interval near
# the root: a solve stopped only on g == 0 stalls here.
FLAT_ZERO_ROW = (np.array([[1.0, 0.25, 0.25, 0.25, 1.0, 0.25]]),
                 np.array([-4.0, -5.0, 0.0, 0.0, 0.0, -4.0]))
# A local MAD of 6.4e-281 among values of order 1: the support bracket [-1, 1]
# is 3e280 scales wide, so a bracketing solve that starts from it and stops
# relative to the scale needs hundreds of steps.
TINY_MAD_ROW = (np.array([[0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.25, 1.0]]),
                np.array([-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 4.3e-281]))
# A local MAD of 3.3e-308, the smallest normal float times 1.48: the value 6
# lies 1.8e308 scales out, and its u = 6 / MAD overflows to inf.
OVERFLOW_ROW = (np.array([[0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0]]),
                np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 6.0, 2.2250738585072014e-308]))


@settings(max_examples=150, deadline=None)
@given(windows())
@example(FLAT_ZERO_ROW)
@example(TINY_MAD_ROW)
@example(OVERFLOW_ROW)
def test_engine_matches_sort_based_oracle(problem):
    W, v = problem
    est, flags = _kernels.local_m_rows(W, v, 1, HUBER_C, W.sum(axis=1))
    Wn = W / W.sum(axis=1, keepdims=True)
    med = _kernels.median_rows(*_kernels.window_rows(Wn, v))
    mad = _kernels.mad_rows(Wn, v, med)
    for q in range(W.shape[0]):
        assert med[q] == oracle_median(W[q], v)
        assert mad[q] == pytest.approx(oracle_mad(W[q], v), rel=1e-12, abs=0.0)
        assert weighted_median(Wn[q], v) == med[q]
        assert local_mad(Wn[q], v) == mad[q]
        if mad[q] <= 0.0:
            assert flags[q] == 1 and est[q] == med[q]
            continue
        assert flags[q] == 0
        ref = oracle_huber(Wn[q], v, mad[q])
        tol = 1e-8 * max(1.0, abs(ref))
        assert abs(est[q] - ref) <= tol or _huber_root_interval(Wn[q], v, mad[q], est[q])
        scalar = local_m_estimate(Wn[q], v, ScoreFunction.huber(HUBER_C), scale=mad[q])
        assert abs(scalar - ref) <= tol or _huber_root_interval(Wn[q], v, mad[q], scalar)


@pytest.mark.parametrize("code,c", [(1, HUBER_C), (2, 4.685)], ids=["huber", "bisquare"])
def test_a_value_whose_u_overflows_weighs_what_any_value_beyond_c_weighs(code, c):
    """In OVERFLOW_ROW the value 6 has u = inf at every iterate, where the
    bisquare's q u would be 0 inf = nan; moved to 1e-300 (u about 3e7, still
    beyond c, finite) it changes neither the median nor the MAD, and the
    solve returns the same bits, flag 0, with no floating-point warning."""
    W, v = OVERFLOW_ROW
    finite = v.copy()
    finite[6] = 1e-300
    est, flags = _kernels.local_m_rows(W, v, code, c, W.sum(axis=1))
    want, want_flags = _kernels.local_m_rows(W, finite, code, c, W.sum(axis=1))
    assert flags[0] == want_flags[0] == 0
    assert est.tobytes() == want.tobytes()
    assert 0.0 <= est[0] <= 1e-307


def test_a_one_row_call_is_an_engine_row():
    """`local_m_estimate` at the `local_mad` scale is the engine's row, bit
    for bit: both drop zero weights and solve the same window.  Dyadic
    weights summing exactly to 1 make the engine's normalization exact, and
    values on a 0.1 grid tie."""
    rng = np.random.default_rng(23)
    solved = 0
    for _ in range(500):
        n = int(rng.integers(1, 40))
        w = rng.multinomial(64, rng.dirichlet(np.ones(n))) / 64.0
        v = np.round(rng.normal(0.0, 2.0, n), 1)
        for score in (ScoreFunction.huber(HUBER_C), ScoreFunction.bisquare()):
            est, flags = _kernels.local_m_rows(w[None], v, score.code, score.c,
                                               np.array([w.sum()]))
            if flags[0] != 0:
                continue
            assert local_m_estimate(w, v, score, local_mad(w, v)) == est[0]
            solved += 1
    assert solved > 500


def test_single_point_and_zero_mad_rows():
    v = np.array([3.0, 3.0, 3.0, 8.0, -1.0])
    W = np.array([[0.0, 0.0, 0.0, 1.0, 0.0],    # one point in the window
                  [1.0, 1.0, 1.0, 0.5, 0.5],    # tied block holds the MAD at 0
                  [1.0, 0.0, 0.0, 1.0, 1.0]])
    est, flags = _kernels.local_m_rows(W, v, 1, HUBER_C, W.sum(axis=1))
    assert flags[0] == 1 and est[0] == 8.0
    assert flags[1] == 1 and est[1] == 3.0
    assert flags[2] == 0
    mad = oracle_mad(W[2], v)
    assert est[2] == pytest.approx(oracle_huber(W[2] / 3.0, v, mad), abs=1e-9)


def test_huber_columns_converge_in_6_iterations_on_a_large_sample(monkeypatch):
    """Newton steps stop within 4 score evaluations per row here (3 steps and
    the one that finds the active set unchanged); Illinois regula falsi needed
    8-10 and bisection to 1e-10 over the data range 36-39."""
    monkeypatch.setattr(_kernels, "LOCAL_MAX_ITERATIONS", 6)
    sample = simulation.generate_sample(2000, "C1", simulation.replication_rng(1, 0))
    ds = sample.dataset
    est, flags = smooth_at(ds.manifold, 0.8, ds.t,
                                np.column_stack([ds.y, ds.x]), ScoreFunction.huber(HUBER_C))
    assert not np.any(flags == 2)
    assert np.all(np.isfinite(est))


def test_monotone_rows_that_run_out_of_iterations_raise(monkeypatch):
    monkeypatch.setattr(_kernels, "LOCAL_MAX_ITERATIONS", 1)
    rng = np.random.default_rng(8)
    n = 30
    cyl = Manifold.cylinder()
    t = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
    v = rng.normal(size=n) + np.linspace(0, 5, n)
    W = raw_weight_matrix(cyl, 2.0, squared_cross(cyl, t, t))
    _, flags = _kernels.local_m_rows(W, v, 1, HUBER_C, W.sum(axis=1))
    stuck = np.flatnonzero(flags == 2).tolist()
    assert stuck
    with pytest.raises(ConvergenceError) as err:
        smooth_at(cyl, 2.0, t, v, ScoreFunction.huber(HUBER_C))
    assert err.value.indices == stuck

    w = W[stuck[0]] / W[stuck[0]].sum()
    with pytest.raises(ConvergenceError) as one:
        local_m_estimate(w, v, ScoreFunction.huber(HUBER_C), scale=local_mad(w, v))
    assert v[w > 0].min() <= one.value.last_iterate <= v[w > 0].max()


# ------------------------------------------------------ per-row value windows

def _window_by_index_arithmetic(W, v, order):
    """`window_rows` as flat cell indices: each positive cell's row and
    column, its slot in the window from the row's running count, and the
    pads from each row's last positive column."""
    Ws = np.take(W, order, axis=1)
    vs = v[order]
    n = Ws.shape[1]
    cells = np.flatnonzero(Ws > 0.0)
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


_V8 = np.array([0.5, -2.0, 3.0, 1.0, -0.0, 7.0, 0.0, 2.5])
# a row with one positive weight; zero cells interleaved with positive ones;
# the widest row first, then last
ONE_POSITIVE = (np.array([[0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0],
                          [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]]), _V8)
INTERLEAVED_ZEROS = (np.array([[1.0, 0.0, 0.25, 0.0, 3.0, 0.0, 1.0, 0.0],
                               [0.0, 3.0, 0.0, 0.25, 0.0, 1.0, 0.0, 1.0]]), _V8)
WIDEST_FIRST = (np.array([[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0],
                          [0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0],
                          [0.0, 0.0, 3.0, 0.0, 0.0, 1.0, 1.0, 0.0]]), _V8)
WIDEST_LAST = (WIDEST_FIRST[0][::-1].copy(), _V8)


@settings(max_examples=150, deadline=None)
@given(windows())
@example(ONE_POSITIVE)
@example(INTERLEAVED_ZEROS)
@example(WIDEST_FIRST)
@example(WIDEST_LAST)
def test_window_rows_gathers_each_rows_support_in_value_order(problem):
    W, v = problem
    order = np.argsort(v, kind="stable")
    Ww, Vw = _kernels.window_rows(W, v)
    Ww0, Vw0 = _window_by_index_arithmetic(W, v, order)
    assert Ww.tobytes() == Ww0.tobytes() and Vw.tobytes() == Vw0.tobytes()
    assert Ww.shape == Ww0.shape and Vw.shape == Vw0.shape
    counts = np.count_nonzero(W > 0.0, axis=1)
    assert Ww.shape == Vw.shape == (W.shape[0], counts.max())
    assert np.all(np.diff(Vw, axis=1) >= 0.0)  # every row sorted, pads included
    for q, cnt in enumerate(counts):
        keep = W[q, order] > 0.0
        assert np.array_equal(Ww[q, :cnt], W[q, order][keep])
        assert np.array_equal(Vw[q, :cnt], v[order][keep])
        assert np.all(Ww[q, cnt:] == 0.0)
        assert np.all(Vw[q, cnt:] == v[W[q] > 0.0].max())


@settings(max_examples=150, deadline=None)
@given(windows())
def test_median_and_mad_never_land_on_a_pad(problem):
    W, v = problem
    Ww, Vw = _kernels.window_rows(W / W.sum(axis=1, keepdims=True), v)
    med = _kernels.median_rows(Ww, Vw)
    mad = _kernels.mad_rows(Ww, Vw, med)
    # a pad moved far above the row leaves both statistics where they were
    far = np.where(Ww > 0.0, Vw, 1e300)
    assert np.array_equal(_kernels.median_rows(Ww, far), med)
    assert np.array_equal(_kernels.mad_rows(Ww, far, med), mad)
    for q in range(W.shape[0]):
        assert med[q] == oracle_median(W[q], v)
        assert mad[q] == pytest.approx(oracle_mad(W[q], v), rel=1e-12, abs=0.0)


def test_window_rows_ties_at_the_maximum_and_single_points():
    v = np.array([5.0, 1.0, 5.0, 2.0, 5.0, 1.0])  # duplicate points at 1 and 5
    W = np.array([[0.0, 1.0, 2.0, 0.0, 3.0, 1.0],   # tied maximum, duplicate minimum
                  [0.0, 0.0, 0.0, 4.0, 0.0, 0.0],   # a single point
                  [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]])  # the whole sample
    Ww, Vw = _kernels.window_rows(W, v)
    assert Vw.tolist() == [[1.0, 1.0, 5.0, 5.0, 5.0, 5.0],
                           [2.0, 2.0, 2.0, 2.0, 2.0, 2.0],
                           [1.0, 1.0, 2.0, 5.0, 5.0, 5.0]]
    assert Ww.tolist() == [[1.0, 1.0, 2.0, 3.0, 0.0, 0.0],
                           [4.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                           [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]]
    est, flags = _kernels.local_m_rows(W, v, 1, HUBER_C, W.sum(axis=1))
    assert flags[1] == 1 and est[1] == 2.0


def _order_statistic_samples():
    rng = np.random.default_rng(24)
    samples = {"n=1": np.array([-0.0]), "n=2": np.array([3.0, -1.5])}
    for n in (7, 10, 101, 200):
        samples[f"n={n}"] = rng.normal(size=n)
        samples[f"n={n}, ties"] = rng.integers(-2, 3, size=n).astype(float)
    samples["signed zeros"] = np.array([0.0, -0.0, -0.0, 0.0, -0.0, 1.0])
    return samples


ORDER_STATISTIC_SAMPLES = _order_statistic_samples()


@pytest.mark.parametrize("name", list(ORDER_STATISTIC_SAMPLES))
def test_quantile_is_numpys_median_and_quantile_bit_for_bit(name):
    x = ORDER_STATISTIC_SAMPLES[name]
    assert _kernels.quantile(x).tobytes() == np.median(x).tobytes()
    assert _kernels.quantile(x, 0.95).tobytes() == np.quantile(x, 0.95).tobytes()
    columns = np.column_stack([x, -x, np.repeat(x[:1], x.size)])
    assert (_kernels.quantile(columns, axis=0).tobytes()
            == np.median(columns, axis=0).tobytes())
    assert (_kernels.quantile(columns, 0.95, axis=0).tobytes()
            == np.quantile(columns, 0.95, axis=0).tobytes())


# ----------------------------------- the oracle on windows from every manifold

def _manifold_samples():
    rng = np.random.default_rng(44)
    n = 60
    sphere = rng.normal(size=(n, 3))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    return [
        ("euclidean", Manifold.euclidean(2), rng.uniform(0.0, 1.0, (n, 2)), 0.35),
        ("circle", Manifold.circle(), circle_coords(rng.uniform(0.0, 2 * np.pi, n)), 0.6),
        ("sphere", Manifold.sphere(), sphere, 0.9),
        ("cylinder", Manifold.cylinder(),
         cylinder_coords(rng.uniform(0.0, 2 * np.pi, n), rng.uniform(0.0, 1.0, n)), 0.7),
    ]


MANIFOLD_SAMPLES = _manifold_samples()


def _columns(n):
    rng = np.random.default_rng(45)
    return np.column_stack([rng.standard_t(2, n),
                            np.round(rng.normal(size=n)),  # ties, some zero-MAD rows
                            np.where(rng.random(n) < 0.2, 8.0, rng.normal(size=n))])


def _oracle_weights(manifold, t, h, leave_one_out):
    W = raw_weight_matrix(manifold, h, squared_cross(manifold, t, t))
    if leave_one_out:
        np.fill_diagonal(W, 0.0)
    return W


@pytest.mark.parametrize("leave_one_out", [False, True], ids=["all", "loo"])
@pytest.mark.parametrize("name,manifold,t,h", MANIFOLD_SAMPLES,
                         ids=[case[0] for case in MANIFOLD_SAMPLES])
def test_huber_smoothing_matches_oracle_on_every_manifold(name, manifold, t, h,
                                                          leave_one_out):
    columns = _columns(t.shape[0])
    est, flags = smooth_at(manifold, h, t, columns, ScoreFunction.huber(HUBER_C),
                                leave_one_out=leave_one_out)
    W = _oracle_weights(manifold, t, h, leave_one_out)
    for j in range(columns.shape[1]):
        v = columns[:, j]
        for q in range(W.shape[0]):
            med, mad = oracle_median(W[q], v), oracle_mad(W[q], v)
            if mad <= 0.0:
                assert flags[q, j] == 1 and est[q, j] == med
                continue
            assert flags[q, j] == 0
            wn = W[q] / W[q].sum()
            ref = oracle_huber(wn, v, mad)
            assert (abs(est[q, j] - ref) <= 1e-8 * max(1.0, abs(ref))
                    or _huber_root_interval(wn, v, mad, est[q, j]))


@pytest.mark.parametrize("leave_one_out", [False, True], ids=["all", "loo"])
@pytest.mark.parametrize("name,manifold,t,h", MANIFOLD_SAMPLES,
                         ids=[case[0] for case in MANIFOLD_SAMPLES])
def test_bisquare_rows_solve_their_score_equation(name, manifold, t, h, leave_one_out):
    columns = _columns(t.shape[0])
    score = ScoreFunction.bisquare()
    est, flags = smooth_at(manifold, h, t, columns, score, leave_one_out=leave_one_out)
    W = _oracle_weights(manifold, t, h, leave_one_out)
    solved = 0
    for j in range(columns.shape[1]):
        v = columns[:, j]
        for q in range(W.shape[0]):
            mad = oracle_mad(W[q], v)
            if mad <= 0.0:
                assert flags[q, j] == 1 and est[q, j] == oracle_median(W[q], v)
                continue
            assert flags[q, j] == 0
            wn = W[q] / W[q].sum()
            assert abs(float(wn @ score.psi((v - est[q, j]) / mad))) <= 1e-8
            solved += 1
    assert solved > columns.size // 2


# --------------------------------------- the bisquare root, among several

BISQUARE_C = 4.685


def _bisquare_score(w, v, scale, m):
    # sum_i w_i psi((v_i - m) / scale) at each m of an array
    u = (v[None, :] - np.asarray(m, dtype=float).reshape(-1, 1)) / scale
    return (u * np.maximum(1.0 - (u / BISQUARE_C) ** 2, 0.0) ** 2) @ w


def _bisquare_roots(w, v, scale, points=8001):
    """Every sign change of the score on a grid of ``points`` over the
    window, refined by brentq."""
    grid = np.linspace(v.min(), v.max(), points)
    # 500 grid points at a time keep the temporaries in cache
    g = np.concatenate([_bisquare_score(w, v, scale, part)
                        for part in np.array_split(grid, -(-points // 500))])
    return np.array([brentq(lambda m: _bisquare_score(w, v, scale, m)[0], grid[i], grid[i + 1],
                            xtol=1e-14 * scale)
                     for i in np.flatnonzero(g[:-1] * g[1:] < 0.0)])


def _plain_reweighting(windows):
    """Per window (w, v), w summing to 1: m <- sum w_i q_i^2 v_i / sum w_i q_i^2,
    q_i = 1 - ((v_i - m) / (c scale))^2 inside the window, with the weighted
    MAD as scale, from the weighted median, until a step is 1e-12 scales.
    The windows iterate together, padded with zero weights, and a window
    leaves the batch when it stops."""
    W = np.zeros((len(windows), max(v.size for _, v in windows)))
    V = np.zeros_like(W)
    for q, (w, v) in enumerate(windows):
        W[q, :w.size], V[q, :v.size] = w, v
    m = np.array([oracle_median(w, v) for w, v in windows])
    scale = np.array([oracle_mad(w, v) for w, v in windows])
    live = np.arange(len(windows))
    for _ in range(100_000):
        u = (V[live] - m[live, None]) / (BISQUARE_C * scale[live, None])
        tw = W[live] * np.maximum(1.0 - u ** 2, 0.0) ** 2
        step = (tw * V[live]).sum(axis=1) / tw.sum(axis=1) - m[live]
        m[live] += step
        live = live[np.abs(step) > 1e-12 * scale[live]]
        if not live.size:
            return m
    raise AssertionError("the plain reweighting did not converge")


def _cluster_window(rng):
    """Two clusters, sometimes with a third cluster beside them or points
    spread across the gap, plus up to 7 far outliers."""
    gap = rng.uniform(2.0, 14.0)
    parts = [rng.normal(0.0, rng.uniform(0.1, 1.5), rng.integers(3, 40)),
             rng.normal(gap, rng.uniform(0.1, 1.5), rng.integers(3, 40))]
    kind = rng.integers(3)
    if kind == 1:
        parts.append(rng.normal(-rng.uniform(2.0, 10.0), rng.uniform(0.1, 1.0),
                                rng.integers(2, 20)))
    elif kind == 2:
        parts.append(rng.uniform(0.0, gap, rng.integers(2, 30)))
    far = rng.integers(0, 8)
    parts.append(rng.choice([-1.0, 1.0], far) * rng.uniform(20.0, 60.0, far))
    v = np.concatenate(parts)
    return rng.uniform(0.05, 1.0, v.size) ** rng.uniform(0.5, 3.0), v


def _slope_at_median(w, v):
    # sum_i w_i psi'(u_i) at the weighted median, u in MADs from it
    x = np.minimum(((v - oracle_median(w, v)) / (BISQUARE_C * oracle_mad(w, v))) ** 2, 1.0)
    return float(w @ ((1.0 - x) * (1.0 - 5.0 * x)))


def _two_cluster_window(rng):
    """A cluster holding just over half the weight, whose top is the
    weighted median and whose width sets the MAD, and a second cluster 3.9
    to 4.3 MADs away, where psi' < 0, mirrored at random.  Kept only when
    the slope sum at the median is in (0, 0.2): a Newton step from the
    median divides by it, so it may be long."""
    while True:
        k = rng.integers(3, 30, 2)
        a = rng.normal(0.0, 1.0, k[0])
        wa = rng.uniform(0.2, 1.0, k[0]) ** rng.uniform(0.0, 2.0)
        wb = rng.uniform(0.2, 1.0, k[1]) ** rng.uniform(0.0, 2.0)
        share = rng.uniform(0.5, 0.56)
        wa *= share / wa.sum()
        wb *= (1.0 - share) / wb.sum()
        # the second cluster lies beyond every deviation of the first, so
        # the median and the MAD are those with it far away
        far = np.append(wa, 1.0 - share), np.append(a, 1e6)
        med, mad = oracle_median(*far), oracle_mad(*far)
        b = med + mad * (rng.uniform(3.9, 4.3) + rng.normal(0.0, rng.uniform(0.02, 0.3), k[1]))
        w, v = np.append(wa, wb), rng.choice([-1.0, 1.0]) * np.append(a, b)
        if 0.0 < _slope_at_median(w, v) < 0.2:
            return w, v


def test_bisquare_reaches_the_plain_reweighting_root_on_multi_root_windows():
    """Newton steps must not leave the basin that reweighting from the
    weighted median stays in: on windows whose score equation has several
    roots, the engine returns the root the plain reweighting reaches.  The
    windows are the rows of one engine call, each on its own columns: 150
    of clusters and outliers, and 200 of two clusters where the slope sum
    at the median is small and positive, so that the engine's first step,
    a Newton step, may be long enough to reach another basin (a coarser
    grid finds their roots: they span about 5 MADs)."""
    rng = np.random.default_rng(71)
    windows = [_cluster_window(rng) for _ in range(150)]
    windows = [(w / w.sum(), v) for w, v in windows]
    windows += [_two_cluster_window(rng) for _ in range(200)]
    sizes = [v.size for _, v in windows]
    v = np.concatenate([v for _, v in windows])
    W = np.zeros((len(windows), v.size))
    for q, ((w, _), a) in enumerate(zip(windows, np.cumsum([0] + sizes[:-1]))):
        W[q, a:a + w.size] = w
    est, flags = _kernels.local_m_rows(W, v, 2, BISQUARE_C, W.sum(axis=1))
    plain = _plain_reweighting(windows)
    several, rival = np.zeros(2, dtype=int), np.zeros(2, dtype=int)
    for q, ((w, vq), ref) in enumerate(zip(windows, plain)):
        kind = int(q >= 150)
        scale = oracle_mad(w, vq)
        roots = _bisquare_roots(w, vq, scale, (8001, 801)[kind])
        root = roots[np.argmin(np.abs(roots - ref))]
        assert abs(root - ref) <= 1e-6 * scale
        assert flags[q] == 0
        assert abs(est[q] - root) <= 1e-9 * scale
        several[kind] += roots.size >= 2
        # another root within c scales of the start: the basins compete
        med = oracle_median(w, vq)
        rival[kind] += np.any((roots != root) & (np.abs(roots - med) < BISQUARE_C * scale))
    assert several[0] > 100 and rival[0] > 10 and rival[1] > 100


def test_a_bisquare_newton_step_that_empties_the_weights_falls_back(monkeypatch):
    """Here a Newton step lands farther than c scales from every value: the
    row takes the reweighting step from where the Newton step started and
    still stops at the plain reweighting's root."""
    w = np.array([0.178, 0.286, 0.004, 0.113])
    v = np.array([1.406, -2.071, -1.42, 1.999])
    evaluated = []
    original = _kernels.bisquare_q

    def recording(u, c, out):
        evaluated.append(u.copy())
        return original(u, c, out)

    monkeypatch.setattr(_kernels, "bisquare_q", recording)
    est, flags = _kernels.local_m_rows(w[None], v, 2, BISQUARE_C, np.array([w.sum()]))
    assert any(np.all(np.abs(u[0]) >= BISQUARE_C) for u in evaluated)
    w = w / w.sum()
    scale = oracle_mad(w, v)
    assert flags[0] == 0
    assert abs(est[0] - _plain_reweighting([(w, v)])[0]) <= 1e-9 * scale


def test_bisquare_columns_converge_in_6_iterations_on_cli_fits_samples(monkeypatch):
    """A Newton step whenever the slope sum is positive: every window of
    cli-fit's robust sweep (n = 600, C2, the bisquare, y and x at each
    candidate bandwidth, with and without leave-one-out) on its four samples
    stops within 6 evaluations; each block needs at most 5.  Waiting for a
    row's active set to repeat before the first Newton step took up to 7,
    and reweighting alone up to 63."""
    monkeypatch.setattr(_kernels, "LOCAL_MAX_ITERATIONS", 6)
    for seed in range(30_000, 30_004):
        ds = simulation.generate_sample(600, "C2", simulation.replication_rng(seed, 0)).dataset
        for h in (0.4, 0.6, 0.8, 1.2, 1.8):
            for loo in (True, False):
                est, _, flags = only_entry(plm.smooth_dataset(
                    ds, [h], ScoreFunction.bisquare(), leave_one_out=loo))
                assert not np.any(flags == 2)
                assert np.all(np.isfinite(est))


# ------------------------------------------- the call shape the tracer reads

def test_local_m_rows_call_shape_is_pinned_for_the_benchmark_tracer(monkeypatch):
    """perfbench/spans.py wraps `_kernels.local_m_rows`: it reads W at
    position 0, the score code as the keyword ``code`` before position 3
    (where ``c`` stands) and the flags at result[1], so `smooth_columns`
    passes ``code`` by keyword.  It reads `smooth_columns`' value columns as
    the keyword ``columns`` (position 4 otherwise), so the package passes
    them by keyword.  A change to either call shape must update
    perfbench/spans.py and this test together."""
    params = list(inspect.signature(_kernels.local_m_rows).parameters)
    assert params == ["W", "v", "code", "c", "totals"]
    W, v = random_problem(np.random.default_rng(5))
    result = _kernels.local_m_rows(W, v, 1, HUBER_C, W.sum(axis=1))
    assert isinstance(result, tuple) and len(result) == 2
    est, flags = result
    assert est.shape == flags.shape == (W.shape[0],)
    assert flags.dtype == np.int8

    calls, engine_calls, engine = [], [], _kernels.local_m_rows

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return smooth_columns(*args, **kwargs)

    def recording_engine(*args, **kwargs):
        engine_calls.append((args, kwargs))
        return engine(*args, **kwargs)

    monkeypatch.setattr(plm, "smooth_columns", recording)
    monkeypatch.setattr(_kernels, "local_m_rows", recording_engine)
    ds = simulation.generate_sample(40, "C0", simulation.replication_rng(3, 0)).dataset
    fitted = plm.fit(ds, 1.2)
    plm.predict_g(fitted, ds.t[:3])
    bandwidth.rcv_score(ds, 1.2)
    assert len(calls) == 3
    assert all("columns" in kwargs for kwargs in calls)
    assert engine_calls
    for args, kwargs in engine_calls:
        assert isinstance(args[0], np.ndarray) and args[0].ndim == 2
        assert kwargs["code"] == 1 and len(args) < 4
