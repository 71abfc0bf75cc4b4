import numpy as np
import pytest

from plmanifold.errors import (
    EmptyWindowError,
    InsufficientDataError,
    InvalidPointError,
    SingularDesignError,
)
from plmanifold.manifold import Manifold, cylinder_coords
from plmanifold.plm import CLASSICAL_GM, PLMDataset, fit, mode_configs, predict_g
from plmanifold.robust_linear import GMConfig, WeightFunction
from plmanifold.smoother import ScoreFunction
from conftest import random_cylinder_dataset

CYL = Manifold.cylinder()


# ----------------------------------------------------------------- dataset

def test_dataset_validates_alignment():
    t = cylinder_coords([0.0, 1.0, 2.0], [0.1, 0.5, 0.9])
    with pytest.raises(ValueError, match="misaligned"):
        PLMDataset(np.arange(4.0), np.ones((3, 1)), t, CYL)


def test_dataset_rejects_nan_response_naming_the_row():
    t = cylinder_coords([0.0, 1.0, 2.0, 3.0], [0.1, 0.5, 0.9, 0.3])
    y = np.array([1.0, 2.0, np.nan, 4.0])
    with pytest.raises(ValueError, match=r"non-finite value in y at row 2"):
        PLMDataset(y, np.ones((4, 1)), t, CYL)


def test_dataset_rejects_inf_covariate_naming_row_and_column():
    t = cylinder_coords([0.0, 1.0, 2.0, 3.0, 4.0], [0.1, 0.5, 0.9, 0.3, 0.7])
    x = np.ones((5, 2))
    x[3, 1] = np.inf
    with pytest.raises(ValueError, match=r"non-finite value in x column 1 at row 3"):
        PLMDataset(np.arange(5.0), x, t, CYL)


def test_dataset_requires_enough_rows():
    t = cylinder_coords([0.0, 1.0], [0.1, 0.5])
    with pytest.raises(InsufficientDataError):
        PLMDataset(np.arange(2.0), np.ones((2, 1)), t, CYL)


def test_dataset_validates_manifold_points():
    t = np.array([[2.0, 0.0, 0.5]] * 5)
    with pytest.raises(InvalidPointError):
        PLMDataset(np.arange(5.0), np.ones((5, 1)), t, CYL)


def test_a_dataset_names_the_first_row_of_t_that_is_not_finite():
    t = cylinder_coords(np.linspace(0, 5, 10), np.linspace(0.1, 0.9, 10))
    t[7, 0], t[9, 2] = np.nan, np.inf
    with pytest.raises(InvalidPointError, match="^t 7: coordinates must be finite$"):
        PLMDataset(np.arange(10.0), np.ones((10, 1)), t, CYL)


def test_dataset_reshapes_single_covariate():
    t = cylinder_coords(np.linspace(0, 5, 6), np.linspace(0.1, 0.9, 6))
    ds = PLMDataset(np.arange(6.0), np.arange(6.0), t, CYL)
    assert ds.x.shape == (6, 1)
    assert ds.p == 1


# --------------------------------------------------------------------- fit

def test_noiseless_linear_data_recovers_beta_exactly():
    rng = np.random.default_rng(0)
    n = 30
    t = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
    x = rng.normal(size=(n, 1))
    y = 3.0 * x[:, 0]
    ds = PLMDataset(y, x, t, CYL)
    for mode in ("robust", "classical"):
        f = fit(ds, 1.5, mode=mode)
        assert f.beta[0] == pytest.approx(3.0, abs=1e-8)
        assert np.max(np.abs(f.regression.residuals)) < 1e-8


def test_robust_identity_matches_classical_pipeline():
    for seed in range(5):
        ds, _ = random_cylinder_dataset(seed, n=40, p=2)
        identity = ScoreFunction.identity()
        gm = GMConfig(score=identity, w1=WeightFunction.one())
        f_r = fit(ds, 1.2, mode="robust", local_score=identity, gm=gm)
        f_c = fit(ds, 1.2, mode="classical")
        assert f_r.beta == pytest.approx(f_c.beta, abs=1e-8)
        assert f_r.g_hat == pytest.approx(f_c.g_hat, abs=1e-8)


@pytest.mark.parametrize("mode", ["robust", "classical"])
def test_location_equivariance(mode):
    ds, _ = random_cylinder_dataset(7, n=40, p=2)
    f0 = fit(ds, 1.2, mode=mode)
    shifted = PLMDataset(ds.y + 13.5, ds.x, ds.t, ds.manifold)
    f1 = fit(shifted, 1.2, mode=mode)
    assert f1.beta == pytest.approx(f0.beta, abs=1e-8)
    assert f1.g_hat == pytest.approx(f0.g_hat + 13.5, abs=1e-8)


@pytest.mark.parametrize("score", [ScoreFunction.huber(), ScoreFunction.bisquare()],
                         ids=["huber", "bisquare"])
def test_location_equivariance_at_large_offsets(score):
    """Shifting y (or x) by c moves g_hat by c (or by -c * sum(beta)) and leaves
    beta alone, down to the float spacing near c: ulp(1e6) = 1.2e-10, so no
    absolute stopping tolerance of 1e-10 can be met there."""
    ds, _ = random_cylinder_dataset(7, n=40, p=2)
    f0 = fit(ds, 1.2, local_score=score)
    eps = np.finfo(float).eps
    for c in (1e6, 1e7, 1e8):
        bound = 1e-9 + 16 * eps * c
        f1 = fit(PLMDataset(ds.y + c, ds.x, ds.t, ds.manifold), 1.2, local_score=score)
        assert np.max(np.abs(f1.beta - f0.beta) / np.abs(f0.beta)) <= 1e-8
        assert np.max(np.abs(f1.g_hat - c - f0.g_hat)) <= bound
        f2 = fit(PLMDataset(ds.y, ds.x + c, ds.t, ds.manifold), 1.2, local_score=score)
        assert np.max(np.abs(f2.beta - f0.beta) / np.abs(f0.beta)) <= 1e-8
        assert np.max(np.abs(f2.phi_hat - c - f0.phi_hat)) <= bound
        # g_hat carries c * beta, so compare it with the shifted fit's own beta
        assert np.max(np.abs(f2.g_hat + c * f2.beta.sum() - f0.g_hat)) <= bound


@pytest.mark.parametrize("score", [ScoreFunction.huber(), ScoreFunction.bisquare()],
                         ids=["huber", "bisquare"])
def test_covariate_offset_of_1e8_and_back_gives_the_same_beta(score):
    """x + 1e8 and (x + 1e8) - 1e8 differ by exactly 1e8, so beta must agree:
    columns are smoothed as offsets from their medians and each local solve
    as offsets from its window's median, so the 1e8 never meets a rounding."""
    ds, _ = random_cylinder_dataset(7, n=40, p=2)
    far = ds.x + 1e8
    f_far = fit(PLMDataset(ds.y, far, ds.t, ds.manifold), 1.2, local_score=score)
    f_back = fit(PLMDataset(ds.y, far - 1e8, ds.t, ds.manifold), 1.2, local_score=score)
    assert np.max(np.abs(f_far.beta - f_back.beta) / np.abs(f_back.beta)) <= 1e-9


@pytest.mark.parametrize("mode", ["robust", "classical"])
def test_fit_and_predict_never_build_an_n_by_n_distance_matrix(monkeypatch, mode):
    """Squared distances and kernel weights come from the coordinates' charts
    one row block at a time."""
    import plmanifold
    from plmanifold import manifold, smoother
    from plmanifold.manifold import BLOCK_CELLS

    def refuse(*args, **kwargs):
        raise AssertionError("pairwise_distances called")

    for module in (plmanifold, manifold):
        monkeypatch.setattr(module, "pairwise_distances", refuse)
    shapes = []

    def recording(m, a, b):  # charts: one column per point
        shapes.append((a.shape[1], b.shape[1]))
        return manifold.squared_distances(m, a, b)

    monkeypatch.setattr(smoother, "squared_distances", recording)
    weight_shapes = []
    raw_weight_matrix = smoother.raw_weight_matrix

    def recording_weights(m, h, d, **kwargs):
        weight_shapes.append(d.shape)
        return raw_weight_matrix(m, h, d, **kwargs)

    monkeypatch.setattr(smoother, "raw_weight_matrix", recording_weights)
    ds, _ = random_cylinder_dataset(3, n=400, p=1)
    f = fit(ds, 0.8, mode=mode)
    g = predict_g(f, ds.t[:300])
    assert np.all(np.isfinite(f.beta)) and np.all(np.isfinite(g))
    assert shapes and max(r * c for r, c in shapes) <= BLOCK_CELLS < ds.n ** 2
    # no weight array beyond one block either: W is never whole
    assert sum(r for r, _ in weight_shapes) == ds.n + 300
    assert max(r * c for r, c in weight_shapes) <= BLOCK_CELLS


@pytest.mark.parametrize("mode", ["robust", "classical"])
def test_fit_on_the_cylinder_computes_only_the_pruned_distances(monkeypatch, mode):
    """At n = 2000 and h = 0.8 about 70% of the pairs lie beyond the
    angular band of every row block, and no distance is computed for them."""
    from plmanifold import manifold, smoother
    from plmanifold.simulation import generate_sample, replication_rng

    pairs = []

    def recording(m, a, b):  # charts: one column per point
        pairs.append(a.shape[1] * b.shape[1])
        return manifold.squared_distances(m, a, b)

    monkeypatch.setattr(smoother, "squared_distances", recording)
    ds = generate_sample(2000, "C1", replication_rng(10_000, 0)).dataset
    f = fit(ds, 0.8, mode=mode)
    assert np.all(np.isfinite(f.beta))
    assert 0 < sum(pairs) < 0.4 * ds.n ** 2


@pytest.mark.parametrize("mode", ["robust", "classical"])
def test_predict_g_over_many_blocks_equals_the_given_matrix_path(mode, monkeypatch):
    """predict_g at 1500 queries (many key-sorted row blocks) returns ghat
    in the queries' input order: the same values as the one block of every
    query against every sample point (in input order), taken by raising
    ``BLOCK_CELLS`` alone to the whole matrix."""
    from plmanifold import smoother
    from plmanifold.manifold import BLOCK_CELLS

    ds, _ = random_cylinder_dataset(11, n=400, p=2)
    f = fit(ds, 0.8, mode=mode)
    rng = np.random.default_rng(12)
    queries = cylinder_coords(rng.uniform(0, 2 * np.pi, 1500), rng.uniform(0, 1, 1500))
    assert 1500 * ds.n > 4 * BLOCK_CELLS
    g = predict_g(f, queries)
    blocks, block_weights = [], smoother._block_weights

    def recording(*args):
        blocks.append(args[-1])
        return block_weights(*args)

    monkeypatch.setattr(smoother, "_block_weights", recording)
    monkeypatch.setattr(smoother, "BLOCK_CELLS", 1500 * ds.n)
    expected = predict_g(f, queries)
    assert len(blocks) == 1 and blocks[0][1] == slice(None)
    assert np.max(np.abs(g - expected)) <= 1e-10


@pytest.mark.parametrize("mode", ["robust", "classical"])
def test_predict_g_on_an_empty_batch_is_empty(mode):
    # no query, no block: the robust engine never sees a zero-row window
    ds, _ = random_cylinder_dataset(11, n=60, p=1)
    f = fit(ds, 1.2, mode=mode)
    g = predict_g(f, np.zeros((0, 3)))
    assert g.shape == (0,)


def test_classical_regression_coefficient_equivariance():
    ds, _ = random_cylinder_dataset(8, n=40, p=2)
    b = np.array([2.0, -3.0])
    f0 = fit(ds, 1.2, mode="classical")
    shifted = PLMDataset(ds.y + ds.x @ b, ds.x, ds.t, ds.manifold)
    f1 = fit(shifted, 1.2, mode="classical")
    assert f1.beta == pytest.approx(f0.beta + b, abs=1e-8)


@pytest.mark.parametrize("mode,score", [("classical", None),
                                        ("robust", ScoreFunction.huber()),
                                        ("robust", ScoreFunction.bisquare())],
                         ids=["classical", "huber", "bisquare"])
def test_fit_is_scale_equivariant(mode, score):
    """Scaling y and x by c leaves beta alone and scales g_hat by c, far below
    and above unit scale: every stop of the local and regression solves is
    relative to a scale that moves with the data."""
    ds, _ = random_cylinder_dataset(7, n=40, p=2)
    gm = None if score is None else GMConfig(score=score)
    f0 = fit(ds, 1.2, mode=mode, local_score=score, gm=gm)
    for c in (1e-12, 1e-9, 1e-6, 1e-3, 1e3, 1e6):
        f1 = fit(PLMDataset(c * ds.y, c * ds.x, ds.t, ds.manifold), 1.2, mode=mode,
                 local_score=score, gm=gm)
        assert np.max(np.abs(f1.beta - f0.beta)) <= 1e-12
        assert np.max(np.abs(f1.g_hat / c - f0.g_hat)) <= 1e-12


@pytest.mark.parametrize("mode", ["robust", "classical"])
def test_covariate_offset_of_1e10_keeps_its_column(mode):
    """x + 1e10 loses ulp(1e10) = 1.9e-6 per entry but keeps its spread, so the
    smoothed residual column is alive and beta moves by rounding only."""
    ds, _ = random_cylinder_dataset(7, n=40, p=2)
    f0 = fit(ds, 1.2, mode=mode)
    f1 = fit(PLMDataset(ds.y, ds.x + 1e10, ds.t, ds.manifold), 1.2, mode=mode)
    assert np.max(np.abs(f1.beta - f0.beta)) <= 1e-5


@pytest.mark.parametrize("mode", ["robust", "classical"])
@pytest.mark.parametrize("value", [0.0, 5.0, 1e6 + 0.1])
def test_constant_covariate_column_raises_singular(mode, value):
    ds, _ = random_cylinder_dataset(7, n=40, p=2)
    x = ds.x.copy()
    x[:, 1] = value
    with pytest.raises(SingularDesignError, match=r"column\(s\) \[1\]"):
        fit(PLMDataset(ds.y, x, ds.t, ds.manifold), 1.2, mode=mode)


@pytest.mark.parametrize("mode", ["robust", "classical"])
def test_row_permutation_invariance(mode):
    ds, _ = random_cylinder_dataset(9, n=35, p=1)
    f0 = fit(ds, 1.2, mode=mode)
    rng = np.random.default_rng(1)
    perm = rng.permutation(ds.n)
    permuted = PLMDataset(ds.y[perm], ds.x[perm], ds.t[perm], ds.manifold)
    f1 = fit(permuted, 1.2, mode=mode)
    assert f1.beta == pytest.approx(f0.beta, abs=1e-10)
    assert f1.g_hat == pytest.approx(f0.g_hat[perm], abs=1e-10)


def test_fit_state_is_recomputable():
    ds, _ = random_cylinder_dataset(10, n=40, p=2)
    f = fit(ds, 1.2, mode="robust")
    assert f.g_hat == pytest.approx(f.phi0_hat - f.phi_hat @ f.beta, abs=1e-12)
    assert f.regression.residuals == pytest.approx(ds.y - ds.x @ f.beta - f.g_hat, abs=1e-12)


def test_invalid_mode_and_bandwidth():
    ds, _ = random_cylinder_dataset(11, n=30, p=1)
    with pytest.raises(ValueError, match="mode"):
        fit(ds, 1.0, mode="fast")
    with pytest.raises(ValueError, match="bandwidth"):
        fit(ds, 4.0)
    with pytest.raises(ValueError, match="bandwidth"):
        fit(ds, -1.0)


def test_zero_column_design_raises_singular():
    rng = np.random.default_rng(12)
    n = 25
    t = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
    ds = PLMDataset(rng.normal(size=n), np.zeros((n, 1)), t, CYL)
    with pytest.raises(SingularDesignError):
        fit(ds, 1.2, mode="classical")


def test_pure_nonparametric_fit_with_no_linear_part():
    rng = np.random.default_rng(13)
    n = 25
    t = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
    ds = PLMDataset(np.full(n, 4.25), np.zeros((n, 0)), t, CYL)
    f = fit(ds, 1.5, mode="robust")
    assert f.beta.size == 0
    assert f.g_hat == pytest.approx(np.full(n, 4.25), abs=1e-10)
    probe = cylinder_coords([0.3], [0.4])[0]
    assert predict_g(f, probe) == pytest.approx(4.25, abs=1e-10)


# ----------------------------------------------------------------- predict

def test_predict_g_at_training_point_matches_stored_values():
    ds, _ = random_cylinder_dataset(14, n=30, p=1)
    f = fit(ds, 1.2, mode="robust")
    for i in (0, 7, 29):
        assert predict_g(f, ds.t[i]) == pytest.approx(f.g_hat[i], abs=1e-12)


def test_fit_keeps_the_given_smoother_config_and_predicts_at_its_own_bandwidth():
    """h is an argument, not a config field: a fit stores the caller's
    local score as given, and its predictions smooth at the fit's bandwidth."""
    ds, _ = random_cylinder_dataset(16, n=40, p=1)
    score = ScoreFunction.huber(1.0)
    probe = ds.t[:5].copy()
    for h in (0.9, 1.6):
        f = fit(ds, h, local_score=score)
        assert f.local_score is score and f.bandwidth == h
        assert predict_g(f, probe) == pytest.approx(f.g_hat[:5], abs=1e-12)


def test_predict_y_exact_on_noiseless_linear_data():
    rng = np.random.default_rng(16)
    n = 25
    t = cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
    x = rng.normal(size=(n, 1))
    y = -2.0 * x[:, 0]
    ds = PLMDataset(y, x, t, CYL)
    f = fit(ds, 1.5, mode="robust")
    preds = x @ f.beta + predict_g(f, ds.t)
    assert preds == pytest.approx(y, abs=1e-8)


def test_predict_g_empty_window_reports_nearest_distance():
    rng = np.random.default_rng(17)
    n = 20
    t = cylinder_coords(rng.uniform(0, 0.3, n), rng.uniform(0.4, 0.6, n))
    ds = PLMDataset(rng.normal(size=n), rng.normal(size=(n, 1)), t, CYL)
    f = fit(ds, 0.5, mode="classical")
    far = cylinder_coords([np.pi], [0.5])[0]
    with pytest.raises(EmptyWindowError) as err:
        predict_g(f, far)
    assert err.value.nearest_distance is not None
    assert err.value.nearest_distance > 0.5


def test_fit_on_circle_and_sphere_manifolds():
    rng = np.random.default_rng(24)
    n = 40
    # circle
    angles = rng.uniform(0, 2 * np.pi, n)
    t = np.column_stack([np.cos(angles), np.sin(angles)])
    x = rng.normal(size=(n, 1))
    y = 1.5 * x[:, 0] + np.sin(angles) + 0.2 * rng.normal(size=n)
    ds = PLMDataset(y, x, t, Manifold.circle())
    f = fit(ds, 1.2, mode="robust")
    assert f.beta[0] == pytest.approx(1.5, abs=0.2)
    # sphere
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    y2 = -0.5 * x[:, 0] + pts[:, 2] + 0.2 * rng.normal(size=n)
    ds2 = PLMDataset(y2, x, pts, Manifold.sphere())
    f2 = fit(ds2, 1.5, mode="robust")
    assert f2.beta[0] == pytest.approx(-0.5, abs=0.2)


def test_fit_flags_degenerate_windows():
    # isolated point whose window holds only itself: local MAD degenerates
    angles = np.concatenate([[0.0], np.linspace(2.5, 3.5, 10)])
    heights = np.full(11, 0.5)
    t = cylinder_coords(angles, heights)
    rng = np.random.default_rng(19)
    ds = PLMDataset(rng.normal(size=11), rng.normal(size=(11, 1)), t, CYL)
    f = fit(ds, 0.8, mode="robust")
    assert 0 in f.degenerate_windows


def test_classical_mode_is_the_identity_case_of_the_given_configs():
    local = ScoreFunction.bisquare()
    robust_gm = GMConfig(w1=WeightFunction.huber())
    score, gm = mode_configs("classical", local, robust_gm)
    assert score == ScoreFunction.identity()
    assert gm is CLASSICAL_GM
    assert mode_configs("robust", local, robust_gm) == (local, robust_gm)
    with pytest.raises(ValueError, match="mode"):
        mode_configs("ls")
    ds, _ = random_cylinder_dataset(9, n=50, p=1)
    assert fit(ds, 1.2, mode="classical").gm_config is CLASSICAL_GM
    assert fit(ds, 1.2, mode="robust", gm=robust_gm).gm_config is robust_gm
