import numpy as np
import pytest

from plmanifold.manifold import Manifold, chart, circle_coords, cylinder_coords, squared_distances
from plmanifold.plm import PLMDataset
from plmanifold.smoother import only_entry, smooth_columns


def random_cylinder_dataset(seed, n=40, p=2, noise=0.3, beta=None):
    """Smooth synthetic dataset on the unit cylinder for equivariance tests."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    heights = rng.uniform(0.0, 1.0, n)
    t = cylinder_coords(angles, heights)
    x = rng.normal(0.0, 1.0, (n, p))
    if beta is None:
        beta = rng.normal(0.0, 1.0, p)
    g = np.cos(angles) + heights ** 2
    y = x @ beta + g + noise * rng.normal(0.0, 1.0, n)
    return PLMDataset(y, x, t, Manifold.cylinder()), np.asarray(beta)


def random_points(manifold, rng, n):
    """n random points of the manifold in ambient coordinates."""
    if manifold.kind == "cylinder":
        return cylinder_coords(rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 1, n))
    if manifold.kind == "circle":
        return circle_coords(rng.uniform(0, 2 * np.pi, n))
    if manifold.kind == "sphere":
        v = rng.normal(size=(n, 3))
        return v / np.linalg.norm(v, axis=1, keepdims=True)
    return rng.normal(size=(n, manifold.ambient_dim))


def squared_cross(manifold, a, b):
    """The squared geodesic distances of two coordinate batches, as the
    kernel reads them: `squared_distances` of their charts."""
    return squared_distances(manifold, chart(manifold, a), chart(manifold, b))


def random_weights(rng, n):
    w = rng.uniform(0.1, 1.0, n)
    return w / w.sum()


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def smooth_at(manifold, h, sample, columns, score, **kwargs):
    """`smooth_columns` at the one bandwidth h: its (estimates, flags), or
    its error raised."""
    return only_entry(smooth_columns(manifold, [h], sample, columns, score, **kwargs))
