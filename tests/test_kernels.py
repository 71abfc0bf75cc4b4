import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from plmanifold import _kernels, bandwidth, plm, simulation
from plmanifold.errors import ConvergenceError
from plmanifold.manifold import Manifold, circle_coords, cylinder_coords, pairwise_distances
from plmanifold.smoother import (
    LocalFitConfig,
    ScoreFunction,
    local_m_estimate,
    local_mad,
    raw_weight_matrix,
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


# ------------------------------------------ any score, through the engine pieces

def test_engine_pieces_solve_scores_outside_the_builtin_family(rng):
    """`illinois_rows` solves any monotone psi and `reweight_rows` iterates any
    weight; here tanh against brentq and the Cauchy weight 1 / (1 + u^2) to
    its fixed point."""
    W, v, _ = random_problem(rng)
    W = W / W.sum(axis=1, keepdims=True)
    scale = np.full(W.shape[0], 1.5)
    est, done = _kernels.illinois_rows(W, v, scale, lambda u: np.tanh(u, out=u),
                                       1e-12, 200)
    assert np.all(done)
    for q in range(W.shape[0]):
        sup = v[W[q] > 0]
        ref = brentq(lambda m: float(W[q] @ np.tanh((v - m) / 1.5)), sup.min(),
                     sup.max(), xtol=1e-14)
        assert est[q] == pytest.approx(ref, abs=1e-10)

    def cauchy(u):
        np.square(u, out=u)
        u += 1.0
        return np.reciprocal(u, out=u)

    start = _kernels.median_rows(*_kernels.window_rows(W, v, np.argsort(v)))
    est, settled = _kernels.reweight_rows(W, v, start, scale, cauchy, 1e-12, 500)
    assert np.all(settled)
    w = W / (1.0 + ((v - est[:, None]) / 1.5) ** 2)
    assert np.max(np.abs(est - (w @ v) / w.sum(axis=1))) <= 1e-10


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


# A Huber score that is zero to rounding (g ~ -6e-17) on a whole interval near
# the root: a regula falsi stopped only by the bracket width stalls here.
FLAT_ZERO_ROW = (np.array([[1.0, 0.25, 0.25, 0.25, 1.0, 0.25]]),
                 np.array([-4.0, -5.0, 0.0, 0.0, 0.0, -4.0]))


@settings(max_examples=150, deadline=None)
@given(windows())
@example(FLAT_ZERO_ROW)
def test_engine_matches_sort_based_oracle(problem):
    W, v = problem
    est, flags = _kernels.local_m_rows(W, v, np.argsort(v), 1, HUBER_C, MAD_C,
                                       1e-10, 200)
    Wn = W / W.sum(axis=1, keepdims=True)
    med = _kernels.median_rows(*_kernels.window_rows(Wn, v, np.argsort(v)))
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


def test_huber_columns_converge_in_25_iterations_on_a_large_sample():
    """Illinois steps need 6-12 iterations per row here; bisection to 1e-10
    over the data range needs 36-39."""
    sample = simulation.generate_sample(2000, "C1", simulation.replication_rng(1, 0))
    ds = sample.dataset
    cfg = LocalFitConfig(score=ScoreFunction.huber(HUBER_C), max_iterations=25)
    est, flags = smooth_columns(ds.manifold, 0.8, ds.t,
                                np.column_stack([ds.y, ds.x]), cfg)
    assert not np.any(flags == 2)
    assert np.all(np.isfinite(est))


def test_monotone_rows_that_run_out_of_iterations_raise():
    rng = np.random.default_rng(8)
    n = 30
    cyl = Manifold.cylinder((0.0, 1.0))
    t = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
    v = rng.normal(size=n) + np.linspace(0, 5, n)
    cfg = LocalFitConfig(score=ScoreFunction.huber(HUBER_C), max_iterations=1)
    W = raw_weight_matrix(cyl, 2.0, pairwise_distances(cyl, t))
    _, flags = _kernels.local_m_rows(W, v, np.argsort(v), 1, HUBER_C, MAD_C, 1e-10, 1)
    stuck = np.flatnonzero(flags == 2).tolist()
    assert stuck
    with pytest.raises(ConvergenceError) as err:
        smooth_columns(cyl, 2.0, t, v, cfg)
    assert err.value.indices == stuck

    w = W[stuck[0]] / W[stuck[0]].sum()
    with pytest.raises(ConvergenceError) as one:
        local_m_estimate(w, v, ScoreFunction.huber(HUBER_C), scale=local_mad(w, v, MAD_C),
                         max_iterations=1)
    assert v[w > 0].min() <= one.value.last_iterate <= v[w > 0].max()


# ------------------------------------------------------ per-row value windows

@settings(max_examples=150, deadline=None)
@given(windows())
def test_window_rows_gathers_each_rows_support_in_value_order(problem):
    W, v = problem
    order = np.argsort(v)
    Ww, Vw = _kernels.window_rows(W, v, order)
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
    Ww, Vw = _kernels.window_rows(W / W.sum(axis=1, keepdims=True), v, np.argsort(v))
    med = _kernels.median_rows(Ww, Vw)
    mad = _kernels.mad_rows(Ww, Vw, med, MAD_C)
    # a pad moved far above the row leaves both statistics where they were
    far = np.where(Ww > 0.0, Vw, 1e300)
    assert np.array_equal(_kernels.median_rows(Ww, far), med)
    assert np.array_equal(_kernels.mad_rows(Ww, far, med, MAD_C), mad)
    for q in range(W.shape[0]):
        assert med[q] == oracle_median(W[q], v)
        assert mad[q] == pytest.approx(oracle_mad(W[q], v), rel=1e-12, abs=0.0)


def test_window_rows_ties_at_the_maximum_and_single_points():
    v = np.array([5.0, 1.0, 5.0, 2.0, 5.0, 1.0])  # duplicate points at 1 and 5
    W = np.array([[0.0, 1.0, 2.0, 0.0, 3.0, 1.0],   # tied maximum, duplicate minimum
                  [0.0, 0.0, 0.0, 4.0, 0.0, 0.0],   # a single point
                  [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]])  # the whole sample
    Ww, Vw = _kernels.window_rows(W, v, np.argsort(v, kind="stable"))
    assert Vw.tolist() == [[1.0, 1.0, 5.0, 5.0, 5.0, 5.0],
                           [2.0, 2.0, 2.0, 2.0, 2.0, 2.0],
                           [1.0, 1.0, 2.0, 5.0, 5.0, 5.0]]
    assert Ww.tolist() == [[1.0, 1.0, 2.0, 3.0, 0.0, 0.0],
                           [4.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                           [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]]
    est, flags = _kernels.local_m_rows(W, v, np.argsort(v), 1, HUBER_C, MAD_C,
                                       1e-10, 200)
    assert flags[1] == 1 and est[1] == 2.0


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
        ("cylinder", Manifold.cylinder((0.0, 1.0)),
         cylinder_coords(rng.uniform(0.0, 2 * np.pi, n), rng.uniform(0.0, 1.0, n)), 0.7),
    ]


MANIFOLD_SAMPLES = _manifold_samples()


def _columns(n):
    rng = np.random.default_rng(45)
    return np.column_stack([rng.standard_t(2, n),
                            np.round(rng.normal(size=n)),  # ties, some zero-MAD rows
                            np.where(rng.random(n) < 0.2, 8.0, rng.normal(size=n))])


def _oracle_weights(manifold, t, h, leave_one_out):
    W = raw_weight_matrix(manifold, h, pairwise_distances(manifold, t))
    if leave_one_out:
        np.fill_diagonal(W, 0.0)
    return W


@pytest.mark.parametrize("leave_one_out", [False, True], ids=["all", "loo"])
@pytest.mark.parametrize("name,manifold,t,h", MANIFOLD_SAMPLES,
                         ids=[case[0] for case in MANIFOLD_SAMPLES])
def test_huber_smoothing_matches_oracle_on_every_manifold(name, manifold, t, h,
                                                          leave_one_out):
    columns = _columns(t.shape[0])
    cfg = LocalFitConfig(score=ScoreFunction.huber(HUBER_C))
    est, flags = smooth_columns(manifold, h, t, columns, cfg, leave_one_out=leave_one_out)
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
    cfg = LocalFitConfig(score=score)
    est, flags = smooth_columns(manifold, h, t, columns, cfg, leave_one_out=leave_one_out)
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


# ------------------------------------------- the call shape the tracer reads

def test_local_m_rows_call_shape_is_pinned_for_the_benchmark_tracer(monkeypatch):
    """perfbench/spans.py wraps `_kernels.local_m_rows` by position: it reads
    W at position 0, the score code at position 3 and the flags at result[1].
    It reads `smooth_columns`' value columns as the keyword ``columns``
    (position 4 otherwise), so the package passes them by keyword.  A change
    to either call shape must update perfbench/spans.py and this test
    together."""
    params = list(inspect.signature(_kernels.local_m_rows).parameters)
    assert params[:4] == ["W", "v", "order", "code"]
    W, v, order = random_problem(np.random.default_rng(5))
    result = _kernels.local_m_rows(W, v, order, 1, HUBER_C, MAD_C, 1e-10, 200)
    assert isinstance(result, tuple) and len(result) == 2
    est, flags = result
    assert est.shape == flags.shape == (W.shape[0],)
    assert flags.dtype == np.int8

    calls = []

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return smooth_columns(*args, **kwargs)

    monkeypatch.setattr(plm, "smooth_columns", recording)
    ds = simulation.generate_sample(40, "C0", simulation.replication_rng(3, 0)).dataset
    fitted = plm.fit(ds, 1.2)
    fitted.predict_g(ds.t[:3])
    bandwidth.rcv_score(ds, 1.2)
    assert len(calls) == 3
    assert all("columns" in kwargs for kwargs in calls)
