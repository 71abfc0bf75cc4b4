"""Geometry for the supported smoothing domains.

Points are stored in ambient coordinates: circle points as (cos a, sin a),
sphere points as unit vectors in R^3, cylinder points as (cos a, sin a, s)
with s the height coordinate.  Coordinates are validated, never silently
projected; projection of raw data happens only in the CLI ingestion layer.
Distances are computed from a `chart` of each batch (the angle, the height
or the ambient coordinates, one contiguous row each), as squared geodesic
distances (`squared_distances`, which the kernel reads) or, for the default
grid's pairs (`pair_distance_blocks`), their square roots.
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
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise InvalidPointError(f"{name} {int(np.argmin(finite))}: coordinates must be finite")

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


def chart(manifold: Manifold, points: np.ndarray) -> np.ndarray:
    """(m, n) coordinates of validated points that distances are computed
    from, one contiguous row each: the angle in [-pi, pi] on the circle, the
    angle and the height on the cylinder, the ambient coordinates elsewhere."""
    if manifold.kind in (CIRCLE, CYLINDER):
        angle = np.arctan2(points[:, 1], points[:, 0])
        return angle[None] if manifold.kind == CIRCLE else np.stack([angle, points[:, 2]])
    return np.ascontiguousarray(points.T, dtype=float)


def _differences(a, b):
    # (na, nb) a_i - b_j as the matrix product [a, -1] [1, b]^T: both terms are
    # exact and their one sum is rounded once, so any BLAS gives the
    # subtraction's bits, several times faster than a broadcast subtraction
    left, right = np.full((a.size, 2), -1.0), np.ones((2, b.size))
    left[:, 0], right[1] = a, b
    return left @ right


def squared_distances(manifold: Manifold, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared geodesic distances between two `chart` batches, (m, na) x (m, nb)
    -> (na, nb), in a new array: the sum of squared coordinate differences,
    an angle's difference taken as the arc min(|da|, 2 pi - |da|), with no
    square root; on the sphere the square of the ``arctan2(cross, dot)``
    arc.  Each cell comes from its own pair alone, so a block's bits are the
    full matrix's; in place, since block-sized temporaries cost page faults."""
    if manifold.kind == SPHERE:  # elementwise: BLAS sums of inexact products vary by shape
        dot = a[0][:, None] * b[0] + a[1][:, None] * b[1] + a[2][:, None] * b[2]
        cx = a[1][:, None] * b[2] - a[2][:, None] * b[1]
        cy = a[2][:, None] * b[0] - a[0][:, None] * b[2]
        cz = a[0][:, None] * b[1] - a[1][:, None] * b[0]
        d = np.arctan2(np.sqrt(cx * cx + cy * cy + cz * cz), dot)
        return np.multiply(d, d, out=d)
    d = _differences(a[0], b[0])
    # an angle difference within pi (a key-pruned block off the seam) is its own arc
    if manifold.kind != EUCLIDEAN and d.size and max(a[0].max() - b[0].min(),
                                                     b[0].max() - a[0].min()) > np.pi:
        np.abs(d, out=d)
        np.minimum(d, 2.0 * np.pi - d, out=d)
    d *= d
    for ak, bk in zip(a[1:], b[1:]):
        dk = _differences(ak, bk)
        dk *= dk
        d += dk
    return d


def cross_distances(manifold: Manifold, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geodesic distance matrix between two validated coordinate batches.

    Shapes (na, ambient) x (nb, ambient) -> (na, nb): the square root of
    `squared_distances`, so on the circle and the sphere the arc's own bits
    (in binary floating point sqrt(x * x) is x unless x * x underflows, below
    1.5e-154).  Assumes coordinates were already validated.
    """
    d = squared_distances(manifold, chart(manifold, np.asarray(a, dtype=float)),
                          chart(manifold, np.asarray(b, dtype=float)))
    return np.sqrt(d, out=d)


def coordinate_key(manifold: Manifold, coords: np.ndarray):
    """(key, period) of a `chart` batch: one coordinate whose difference
    bounds the geodesic distance from below, and its period or None.  The
    angle in [0, 2 pi], period 2 pi, on the circle and the cylinder; the
    polar angle (the distance to the north pole, so the triangle inequality
    bounds d) on the sphere; the first coordinate in Euclidean space."""
    if manifold.kind == EUCLIDEAN:
        return coords[0], None
    if manifold.kind == SPHERE:
        return np.arctan2(np.hypot(coords[0], coords[1]), coords[2]), None
    return np.mod(coords[0], 2.0 * np.pi), 2.0 * np.pi


def pairwise_distances(manifold: Manifold, points: np.ndarray) -> np.ndarray:
    """Symmetric n x n geodesic distance matrix of one validated coordinate
    batch (``pair_distance_blocks`` streams its pairs).  Every
    ``cross_distances`` form is exactly symmetric, so the matrix is too."""
    return cross_distances(manifold, points, points)


def pair_distance_blocks(manifold: Manifold, points: np.ndarray):
    """The positive geodesic distances of the pairs i < j of validated points,
    per block of whole rows, from one `chart`: the square roots of the
    `squared_distances` of rows s:s+step against the points from s on, at
    most ``BLOCK_CELLS`` cells (or one row), ``cross_distances``' bits."""
    n, c = points.shape[0], chart(manifold, points)
    step = max(1, BLOCK_CELLS // max(n, 1))
    for s in range(0, n, step):
        d = np.sqrt(squared_distances(manifold, c[:, s:s + step], c[:, s:]))
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
