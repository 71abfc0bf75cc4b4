"""Geometry for the supported smoothing domains.

Points are stored in ambient coordinates: circle points as (cos a, sin a),
sphere points as unit vectors in R^3, cylinder points as (cos a, sin a, s)
with s the height coordinate.  Coordinates are validated, never silently
projected; projection of raw data happens only in the CLI ingestion layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPointError

ON_MANIFOLD_TOL = 1e-9
BLOCK_CELLS = 1 << 16  # matrix cells per block of a smoothing call

EUCLIDEAN = "euclidean"
CIRCLE = "circle"
SPHERE = "sphere"
CYLINDER = "cylinder"

CYLINDER_HEIGHTS = (0.0, 1.0)  # the cylinder's height interval

# the coordinate length each kind fixes; None: any n >= 1 (Euclidean space)
_AMBIENT_DIMS = {EUCLIDEAN: None, CIRCLE: 2, SPHERE: 3, CYLINDER: 3}


@dataclass(frozen=True)
class Manifold:
    """One of the supported smoothing domains.

    ``ambient_dim`` is the length of the coordinate vectors, which the kind
    fixes: 2 for the circle, 3 for the sphere and the cylinder, any n >= 1
    for Euclidean space.  The cylinder has unit radius and the height
    interval ``CYLINDER_HEIGHTS``; the sphere is the unit 2-sphere.
    """

    kind: str
    ambient_dim: int

    def __post_init__(self):
        if self.kind not in _AMBIENT_DIMS:
            raise ValueError(f"unknown manifold kind {self.kind!r}")
        want = _AMBIENT_DIMS[self.kind]
        if (self.ambient_dim < 1) if want is None else (self.ambient_dim != want):
            raise ValueError(f"a {self.kind} needs {want or 'n >= 1'} ambient "
                             f"coordinates, got {self.ambient_dim!r}")

    @classmethod
    def euclidean(cls, dim: int) -> "Manifold":
        return cls(EUCLIDEAN, dim)

    @classmethod
    def circle(cls) -> "Manifold":
        return cls(CIRCLE, 2)

    @classmethod
    def sphere(cls) -> "Manifold":
        return cls(SPHERE, 3)

    @classmethod
    def cylinder(cls) -> "Manifold":
        return cls(CYLINDER, 3)


def injectivity_radius(manifold: Manifold) -> float:
    """Largest radius with unique minimizing geodesics; caps the bandwidth."""
    if manifold.kind == EUCLIDEAN:
        return math.inf
    return math.pi


def validate_coords(manifold: Manifold, points, name: str = "point") -> np.ndarray:
    """Check point invariants and return a float array of shape (n, ambient_dim).

    Accepts a single coordinate vector or a batch.  Raises InvalidPointError
    naming the violated constraint.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != manifold.ambient_dim:
        raise InvalidPointError(
            f"{name}: expected {manifold.ambient_dim} ambient coordinates, "
            f"got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidPointError(f"{name}: coordinates must be finite")

    if manifold.kind != EUCLIDEAN:
        # the whole point on the circle and sphere, (c1, c2) on the cylinder
        angular = arr[:, :2] if manifold.kind == CYLINDER else arr
        norms = np.linalg.norm(angular, axis=1)
        bad = np.abs(norms - 1.0) > ON_MANIFOLD_TOL
        if np.any(bad):
            i = int(np.argmax(bad))
            raise InvalidPointError(
                f"{name} {i}: {manifold.kind} points need angular coordinates of "
                f"unit norm; |‖angular‖-1| = {abs(norms[i] - 1.0):.3e} exceeds "
                f"{ON_MANIFOLD_TOL}"
            )
    if manifold.kind == CYLINDER:
        lo, hi = CYLINDER_HEIGHTS
        h = arr[:, 2]
        bad = (h < lo - ON_MANIFOLD_TOL) | (h > hi + ON_MANIFOLD_TOL)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise InvalidPointError(
                f"{name} {i}: height coordinate {float(h[i])} outside the cylinder "
                f"height interval ({lo}, {hi})"
            )
    return arr


def _circle_arc(a, b):
    # a, b: (na, 2), (nb, 2) unit vectors; (na, nb) arc lengths in [0, pi] from
    # one angle per point, exactly symmetric in a and b; in place, since every
    # block-sized temporary costs page faults
    d = np.arctan2(a[:, 1], a[:, 0])[:, None] - np.arctan2(b[:, 1], b[:, 0])
    np.abs(d, out=d)
    return np.minimum(d, 2.0 * np.pi - d, out=d)


def cross_distances(manifold: Manifold, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geodesic distance matrix between two validated coordinate batches.

    Shapes (na, ambient) x (nb, ambient) -> (na, nb).  Assumes coordinates
    were already validated.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if manifold.kind == EUCLIDEAN:
        return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
    if manifold.kind == CIRCLE:
        return _circle_arc(a, b)
    if manifold.kind == SPHERE:
        # elementwise, not BLAS: a block's bits must not depend on its shape
        dot = (a[:, None, 0] * b[None, :, 0] + a[:, None, 1] * b[None, :, 1]
               + a[:, None, 2] * b[None, :, 2])
        cx = a[:, None, 1] * b[None, :, 2] - a[:, None, 2] * b[None, :, 1]
        cy = a[:, None, 2] * b[None, :, 0] - a[:, None, 0] * b[None, :, 2]
        cz = a[:, None, 0] * b[None, :, 1] - a[:, None, 1] * b[None, :, 0]
        cross = np.sqrt(cx * cx + cy * cy + cz * cz)
        return np.arctan2(cross, dot)
    # sqrt(arc^2 + dh^2) in place: np.hypot costs more than the rest together
    d = _circle_arc(a, b)
    d *= d
    dh = a[:, None, 2] - b[None, :, 2]
    dh *= dh
    d += dh
    return np.sqrt(d, out=d)


def coordinate_key(manifold: Manifold, points: np.ndarray):
    """(key, period) of validated points: one coordinate whose difference
    bounds the geodesic distance from below, and its period or None.  The
    angle in [0, 2 pi], period 2 pi, on the circle and the cylinder; the
    polar angle (the distance to the north pole, so the triangle inequality
    bounds d) on the sphere; the first coordinate in Euclidean space."""
    if manifold.kind == EUCLIDEAN:
        return points[:, 0], None
    if manifold.kind == SPHERE:
        return np.arctan2(np.hypot(points[:, 0], points[:, 1]), points[:, 2]), None
    return np.mod(np.arctan2(points[:, 1], points[:, 0]), 2.0 * np.pi), 2.0 * np.pi


def pairwise_distances(manifold: Manifold, points: np.ndarray) -> np.ndarray:
    """Symmetric n x n geodesic distance matrix of one validated coordinate
    batch (``pair_distance_blocks`` streams its pairs).  Every
    ``cross_distances`` form is exactly symmetric, so the matrix is too."""
    return cross_distances(manifold, points, points)


def pair_distance_blocks(manifold: Manifold, points: np.ndarray):
    """The positive geodesic distances of the pairs i < j of validated points,
    per block of whole rows: ``cross_distances`` of rows s:s+step against the
    points from s on, at most ``BLOCK_CELLS`` cells (or one row), bit for bit."""
    n = points.shape[0]
    step = max(1, BLOCK_CELLS // max(n, 1))
    for s in range(0, n, step):
        d = cross_distances(manifold, points[s:s + step], points[s:])
        yield d[(np.arange(n - s) > np.arange(d.shape[0])[:, None]) & (d > 0)]


def volume_density_from_distance(manifold: Manifold, r):
    """Volume density as a function of geodesic separation.

    Identically 1 on the flat kinds; sin(r)/r on the sphere (1 at r = 0 by
    continuity).  Vectorized; meaningful only for r inside the injectivity
    radius.
    """
    r = np.asarray(r, dtype=float)
    if manifold.kind != SPHERE:
        return np.ones_like(r)
    out = np.ones_like(r)
    pos = r > 0
    out[pos] = np.sin(r[pos]) / r[pos]
    return out


def circle_coords(angles) -> np.ndarray:
    """Embed angles (radians) on the unit circle as (cos, sin) rows."""
    angles = np.asarray(angles, dtype=float)
    return np.column_stack([np.cos(angles), np.sin(angles)])


def cylinder_coords(angles, heights) -> np.ndarray:
    """Embed (angle, height) pairs as (cos, sin, height) rows."""
    angles = np.asarray(angles, dtype=float)
    heights = np.asarray(heights, dtype=float)
    return np.column_stack([np.cos(angles), np.sin(angles), heights])
