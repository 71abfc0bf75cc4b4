import numpy as np
import pytest

from plmanifold.bandwidth import (
    CV_SCORE,
    check_grid,
    default_grid,
    rcv_score,
    select_bandwidth,
)
from plmanifold.errors import InfeasibleGridError
from plmanifold.manifold import Manifold, cross_distances, cylinder_coords
from plmanifold.plm import PLMDataset
from plmanifold.simulation import generate_sample, replication_rng
from plmanifold.smoother import ScoreFunction
from conftest import random_cylinder_dataset, random_points

CYL = Manifold.cylinder()


def classical_loo_cv_oracle(ds, h):
    """Independent leave-one-out CV sum of squared prediction errors."""
    d = cross_distances(ds.manifold, ds.t, ds.t)
    K = np.where(np.abs(d / h) < 1.0, 0.9375 * (1.0 - (d / h) ** 2) ** 2, 0.0)
    np.fill_diagonal(K, 0.0)
    W = K / K.sum(axis=1, keepdims=True)
    phi0 = W @ ds.y
    phi = W @ ds.x
    r = ds.y - phi0
    eta = ds.x - phi
    beta = np.linalg.solve(eta.T @ eta, eta.T @ r)
    return float(np.sum((r - eta @ beta) ** 2))


def test_constant_response_gives_zero_rcv_and_smallest_h():
    rng = np.random.default_rng(0)
    n = 25
    t = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
    ds = PLMDataset(np.full(n, 3.0), np.zeros((n, 0)), t, CYL)
    grid = [1.0, 1.5, 2.0]
    for h in grid:
        assert rcv_score(ds, h) == 0.0
    h_star, diags = select_bandwidth(ds, grid, mode="robust")
    assert h_star == 1.0
    assert all(d.score == 0.0 for d in diags)


def test_identity_configuration_reduces_to_classical_cv():
    for seed in (0, 1, 2):
        ds, _ = random_cylinder_dataset(seed, n=35, p=2)
        for h in (1.0, 1.5):
            got = rcv_score(ds, h, mode="classical")
            assert got == pytest.approx(classical_loo_cv_oracle(ds, h), rel=1e-8)


def test_classical_mode_selection_matches_oracle_argmin():
    ds, _ = random_cylinder_dataset(5, n=35, p=1)
    grid = [0.8, 1.1, 1.5, 2.0]
    h_star, diags = select_bandwidth(ds, grid, mode="classical")
    oracle_scores = [classical_loo_cv_oracle(ds, h) for h in grid]
    assert h_star == grid[int(np.argmin(oracle_scores))]
    for d, ref in zip(diags, oracle_scores):
        assert d.score == pytest.approx(ref, rel=1e-8)


def test_single_element_grid():
    ds, _ = random_cylinder_dataset(3, n=30, p=1)
    h_star, diags = select_bandwidth(ds, [1.3], mode="robust")
    assert h_star == 1.3
    assert len(diags) == 1


def _record_distances(monkeypatch):
    """The (rows, columns) of every distance block, in call order: the
    squared_distances calls of the default grid's pair blocks and of the
    smoother (on charts, one column per point)."""
    from plmanifold import manifold, smoother

    shapes, squared = [], manifold.squared_distances

    def recording(m, a, b):
        shapes.append((a.shape[1], b.shape[1]))
        return squared(m, a, b)

    monkeypatch.setattr(manifold, "squared_distances", recording)
    monkeypatch.setattr(smoother, "squared_distances", recording)
    return shapes


@pytest.mark.parametrize("mode", ["robust", "classical"])
def test_a_one_candidate_grid_builds_no_distance_matrix(mode, monkeypatch):
    """At n = 600, more than one block, a grid of one bandwidth streams its
    kernel blocks from the coordinates and scores what the one block of
    every point against every point gives, to 1e-12 relative (the pruned
    blocks sum their windows in another order)."""
    from plmanifold import smoother
    from plmanifold.manifold import BLOCK_CELLS

    ds, _ = random_cylinder_dataset(4, n=600, p=2)
    with monkeypatch.context() as m:  # the one block
        m.setattr(smoother, "BLOCK_CELLS", ds.n ** 2)
        one_block = select_bandwidth(ds, [0.8, 1.8], mode=mode)[1][0].score
    shapes = _record_distances(monkeypatch)
    assert rcv_score(ds, 0.8, mode=mode) == pytest.approx(one_block, rel=1e-12)
    assert shapes and max(r * c for r, c in shapes) <= BLOCK_CELLS
    assert select_bandwidth(ds, [0.8], mode=mode)[1][0].score == rcv_score(ds, 0.8, mode=mode)


@pytest.mark.parametrize("mode", ["robust", "classical"])
def test_a_sweep_larger_than_one_block_builds_no_n_by_n_array(mode, monkeypatch):
    """At n = 600 a sweep computes only block-sized distances, over an
    explicit grid and over the default grid, whose 10th percentile streams
    the pair distances as well; no distance matrix is built."""
    from plmanifold.manifold import BLOCK_CELLS

    shapes = _record_distances(monkeypatch)
    ds, _ = random_cylinder_dataset(5, n=600, p=1)
    for grid in ([0.4, 0.8, 1.8], None):
        shapes.clear()
        h, diagnostics = select_bandwidth(ds, grid, mode=mode)
        assert all(d.feasible for d in diagnostics)
        assert shapes and max(r * c for r, c in shapes) <= BLOCK_CELLS < ds.n ** 2


def test_the_default_grid_charts_the_sample_once_per_pass(monkeypatch):
    """Each of the default grid's two passes over the pair distances takes
    one chart of the whole sample, not one per block of its more than three."""
    from plmanifold import manifold

    charts, chart = [], manifold.chart
    shapes = _record_distances(monkeypatch)

    def charting(m, points):
        charts.append(points.shape[0])
        return chart(m, points)

    monkeypatch.setattr(manifold, "chart", charting)
    ds, _ = random_cylinder_dataset(7, n=700, p=1)
    default_grid(ds)
    assert charts == [700, 700] and len(shapes) > 2 * 3


@pytest.mark.parametrize("mode", ["robust", "classical"])
def test_a_streamed_sweep_charts_the_sample_once(mode, monkeypatch):
    """A five-candidate sweep at n = 600, more than one block per candidate,
    takes the sample's chart (one arctan2 per point) and its key order once
    for the whole call, not once per block or candidate."""
    from plmanifold import smoother

    calls, blocks = [], []
    chart, key, weigh = smoother.chart, smoother.coordinate_key, smoother._block_weights

    def charting(m, points):
        calls.append(("chart", points.shape[0]))
        return chart(m, points)

    def keying(m, coords):
        calls.append(("key", coords.shape[1]))
        return key(m, coords)

    def weighing(*args):
        blocks.append(args[-1][0])
        return weigh(*args)

    monkeypatch.setattr(smoother, "chart", charting)
    monkeypatch.setattr(smoother, "coordinate_key", keying)
    monkeypatch.setattr(smoother, "_block_weights", weighing)
    ds, _ = random_cylinder_dataset(6, n=600, p=1)
    select_bandwidth(ds, [0.4, 0.6, 0.8, 1.2, 1.8], mode=mode)
    assert calls == [("chart", 600), ("key", 600)]
    assert sorted(set(blocks)) == list(range(5)) and len(blocks) > 10


@pytest.mark.parametrize("mode", ["robust", "classical"])
def test_one_block_sample_shares_its_matrix_with_a_one_candidate_grid(mode, monkeypatch):
    """At n <= 256 a sweep is one block: its one smoothing call builds one
    distance matrix for every candidate, so a one-candidate grid scores
    what a longer grid gives, bit for bit."""
    shapes = _record_distances(monkeypatch)
    for n in (40, 256):
        ds, _ = random_cylinder_dataset(4, n=n, p=2)
        shared = select_bandwidth(ds, [1.2, 1.8], mode=mode)[1][0].score
        assert rcv_score(ds, 1.2, mode=mode) == shared
        assert select_bandwidth(ds, [1.2], mode=mode)[1][0].score == shared
        assert shapes == [(n, n)] * 3
        shapes.clear()


def test_selected_h_is_argmin_of_diagnostics():
    s = generate_sample(60, "C0", replication_rng(77, 0))
    grid = [0.5, 0.8, 1.3, 2.0]
    h_star, diags = select_bandwidth(s.dataset, grid, mode="robust")
    feasible = [d for d in diags if d.feasible]
    assert h_star == min(feasible, key=lambda d: d.score).h
    # re-check tie-break direction: first minimal in ascending order
    best = min(d.score for d in feasible)
    assert h_star == next(d.h for d in diags if d.feasible and d.score == best)


def test_seeded_selection_is_reproducible():
    s = generate_sample(80, "C0", replication_rng(2024, 0))
    grid = [0.4, 0.8, 1.6, 3.0]
    h1, d1 = select_bandwidth(s.dataset, grid, mode="robust")
    h2, d2 = select_bandwidth(s.dataset, grid, mode="robust")
    assert h1 == h2
    assert [d.score for d in d1] == [d.score for d in d2]
    assert all(d.feasible for d in d1)
    # frozen regression constant from the first verified run
    assert h1 == 0.8
    assert d1[1].score == pytest.approx(44.5224969339913, rel=1e-9)


def test_infeasible_bandwidths_marked_not_raised():
    rng = np.random.default_rng(4)
    n = 20
    t = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
    ds = PLMDataset(rng.normal(size=n), rng.normal(size=(n, 1)), t, CYL)
    assert rcv_score(ds, 0.01) == np.inf  # every leave-one-out window empty


def test_all_infeasible_grid_raises_with_reasons():
    rng = np.random.default_rng(5)
    n = 20
    t = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
    ds = PLMDataset(rng.normal(size=n), rng.normal(size=(n, 1)), t, CYL)
    with pytest.raises(InfeasibleGridError) as err:
        select_bandwidth(ds, [0.005, 0.01], mode="robust")
    assert set(err.value.reasons) == {0.005, 0.01}
    assert all("EmptyWindowError" in reason for reason in err.value.reasons.values())
    assert str(err.value).endswith(err.value.reasons[0.01])


def test_grid_validation():
    ds, _ = random_cylinder_dataset(6, n=30, p=1)
    with pytest.raises(ValueError, match="nonempty"):
        check_grid(CYL, [])
    with pytest.raises(ValueError, match=r"bandwidth -0.5 must lie in \(0, "):
        check_grid(CYL, [-0.5, 1.0])
    with pytest.raises(ValueError, match=r"bandwidth inf must lie in \(0, inf\)"):
        check_grid(Manifold.euclidean(2), [1.0, np.inf])
    with pytest.raises(ValueError, match=r"bandwidth 3.5 must lie in \(0, "):
        select_bandwidth(ds, [1.0, 3.5], mode="robust")
    with pytest.raises(ValueError, match=r"bandwidth 3.5 must lie in \(0, "):
        rcv_score(ds, 3.5)
    grid = check_grid(CYL, (2.0, 0.5, 1))
    assert grid.dtype == float and grid.tolist() == [0.5, 1.0, 2.0]


def test_default_grid_spans_distances_to_injectivity():
    s = generate_sample(100, "C0", replication_rng(11, 0))
    grid = default_grid(s.dataset)
    assert isinstance(grid, np.ndarray) and grid.size == 8
    assert np.all(np.diff(grid) > 0)
    assert grid[-1] == pytest.approx(0.9 * np.pi)
    assert 0 < grid[0] < 1.0


def test_default_grid_on_coincident_points_raises():
    rng = np.random.default_rng(12)
    for manifold, t in ((CYL, cylinder_coords(np.full(10, 1.0), np.full(10, 0.5))),
                        (Manifold.euclidean(2), np.full((10, 2), 3.0))):
        ds = PLMDataset(rng.normal(size=10), rng.normal(size=(10, 1)), t, manifold)
        with pytest.raises(ValueError, match="all manifold covariates coincide"):
            default_grid(ds)


def _reference_grid(ds):
    """The default grid from the full distance matrix and np.quantile."""
    d = cross_distances(ds.manifold, ds.t, ds.t)
    off = d[np.triu_indices(ds.n, k=1)]
    off = off[off > 0]
    lo = np.quantile(off, 0.10)
    hi = 0.9 * (off.max() if ds.manifold.kind == "euclidean" else np.pi)
    return np.geomspace(lo if lo < hi else hi / 4.0, hi, 8)


def _grid_case(manifold, n, seed, ties=False, scale=1.0):
    rng = np.random.default_rng(seed)
    t = random_points(manifold, rng, n) * scale
    if ties:  # a third of the points on one point
        t[rng.choice(n, n // 3, replace=False)] = t[0]
    return PLMDataset(rng.normal(size=n), np.zeros((n, 0)), t, manifold)


_KINDS = [CYL, Manifold.sphere(), Manifold.circle(), Manifold.euclidean(3)]
_KIND_IDS = ["cylinder", "sphere", "circle", "euclidean"]


@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
@pytest.mark.parametrize("n", [2, 3, 4, 257, 600])  # 2: one pair; 4: an interpolation at 0.5
@pytest.mark.parametrize("manifold", _KINDS, ids=_KIND_IDS)
def test_streamed_default_grid_equals_the_full_quantile_bit_for_bit(manifold, n, ties):
    ds = _grid_case(manifold, n, 31 + n, ties)
    assert np.array_equal(default_grid(ds), _reference_grid(ds))


@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
@pytest.mark.parametrize("n", [2, 3, 4, 200, 256])
@pytest.mark.parametrize("manifold", _KINDS, ids=_KIND_IDS)
def test_one_block_sweep_scores_the_default_grid_bit_for_bit(manifold, n, ties):
    """With no grid, a one-block sample scores default_grid's candidates,
    bit for bit."""
    ds = _grid_case(manifold, n, 31 + n, ties)
    try:
        scored = [d.h for d in select_bandwidth(ds, mode="classical")[1]]
    except InfeasibleGridError as err:
        scored = list(err.reasons)
    assert np.array_equal(scored, default_grid(ds))


def test_a_one_block_sweep_computes_the_pair_distances_once(monkeypatch):
    """Every candidate of an explicit grid reads the one block's squared
    distances: one squared_distances call for the whole sweep."""
    ds = generate_sample(200, "C1", replication_rng(6, 0)).dataset
    grid = default_grid(ds)
    shapes = _record_distances(monkeypatch)
    select_bandwidth(ds, grid)
    assert shapes == [(200, 200)]


@pytest.mark.parametrize("manifold, n, scale", [(CYL, 2000, 1.0), (_KINDS[3], 600, 1e-6),
                                                (_KINDS[3], 600, 1e6)],
                         ids=["cylinder-2000", "euclidean-1e-6", "euclidean-1e6"])
def test_streamed_default_grid_is_exact_at_any_size_and_scale(manifold, n, scale):
    ds = _grid_case(manifold, n, 7, scale=scale)
    assert np.array_equal(default_grid(ds), _reference_grid(ds))


def test_robust_cv_bounded_under_outlier_classical_diverges():
    s = generate_sample(60, "C0", replication_rng(303, 0))
    ds = s.dataset
    y_bad = ds.y.copy()
    y_bad[0] += 1e6
    ds_bad = PLMDataset(y_bad, ds.x, ds.t, ds.manifold)
    assert CV_SCORE == ScoreFunction.huber(1.345)
    bound = ds.n * CV_SCORE.c ** 2
    for h in (0.8, 1.3, 2.0):
        clean = rcv_score(ds, h)
        dirty = rcv_score(ds_bad, h)
        assert abs(dirty - clean) <= bound
        clean_cl = rcv_score(ds, h, mode="classical")
        dirty_cl = rcv_score(ds_bad, h, mode="classical")
        assert dirty_cl - clean_cl > 1e6


@pytest.mark.parametrize("mode", ["robust", "classical"])
def test_selector_without_a_grid_uses_the_default_grid(mode):
    ds = generate_sample(80, "C1", replication_rng(5, 0)).dataset
    h, diagnostics = select_bandwidth(ds, mode=mode)
    h_ref, reference = select_bandwidth(ds, default_grid(ds), mode=mode)
    assert h == h_ref
    assert diagnostics == reference
