import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmanifold.errors import InvalidPointError
from plmanifold.manifold import (
    BLOCK_CELLS,
    CYLINDER_HEIGHTS,
    Manifold,
    chart,
    circle_coords,
    coordinate_key,
    cross_distances,
    cylinder_coords,
    injectivity_radius,
    pair_distance_blocks,
    pairwise_distances,
    squared_distances,
    validate_coords,
    volume_density_from_distance,
)
from conftest import random_points, squared_cross

CYL = Manifold.cylinder()
SPH = Manifold.sphere()
CIR = Manifold.circle()
EUC3 = Manifold.euclidean(3)


def _distance(manifold, p, q):
    """The geodesic distance between two points."""
    return float(cross_distances(manifold, np.array([p], dtype=float),
                                 np.array([q], dtype=float))[0, 0])


def _density(manifold, p, q):
    """The volume density at q relative to p."""
    return float(volume_density_from_distance(manifold, _distance(manifold, p, q)))


# ---------------------------------------------------------------- distances

def test_cylinder_identity_distance_is_zero():
    p = (1.0, 0.0, 0.5)
    assert _distance(CYL, p, p) == 0.0


def test_cylinder_antipodal_same_height():
    d = _distance(CYL, (1.0, 0.0, 0.2), (-1.0, 0.0, 0.2))
    assert d == pytest.approx(math.pi, abs=1e-12)


def test_cylinder_pythagorean_combination():
    # arc 0.8 and height gap 0.6 give distance 1 on the flat product metric
    p = cylinder_coords([0.3], [0.1])[0]
    q = cylinder_coords([1.1], [0.7])[0]
    assert _distance(CYL, p, q) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("manifold", [CYL, SPH, CIR, EUC3],
                         ids=["cylinder", "sphere", "circle", "euclidean"])
def test_distance_axioms_on_random_pairs(manifold):
    rng = np.random.default_rng(7)
    a = random_points(manifold, rng, 1000)
    b = random_points(manifold, rng, 1000)
    dab = cross_distances(manifold, a, b).diagonal()
    dba = cross_distances(manifold, b, a).diagonal()
    assert np.all(np.abs(dab - dba) < 1e-12)
    assert np.all(dab >= 0)
    # the diameter: pi on the circle and sphere, hypot(pi, height) on the cylinder
    if manifold.kind != "euclidean":
        lo, hi = CYLINDER_HEIGHTS if manifold.kind == "cylinder" else (0.0, 0.0)
        assert np.all(dab <= math.hypot(math.pi, hi - lo) + 1e-12)
    c = random_points(manifold, rng, 1000)
    dac = cross_distances(manifold, a, c).diagonal()
    dcb = cross_distances(manifold, c, b).diagonal()
    assert np.all(dab <= dac + dcb + 1e-10)


@pytest.mark.parametrize("manifold", [CYL, SPH, CIR, EUC3],
                         ids=["cylinder", "sphere", "circle", "euclidean"])
def test_blocked_pairwise_distances_equal_the_full_matrix(manifold, monkeypatch):
    # one chart of the points, then more than three blocks of whole rows, in
    # order, each the squared distances of at most BLOCK_CELLS cells of its
    # rows of the chart against its columns from the block's first row on;
    # together they yield every positive pair i < j once, the strict upper
    # triangle of the square root of the full squared matrix, bit for bit;
    # pairwise_distances is that matrix and exactly symmetric
    from plmanifold import manifold as module

    n = math.isqrt(6 * BLOCK_CELLS) + 3
    pts = random_points(manifold, np.random.default_rng(13), n)
    pts[5] = pts[2]  # a zero distance, which no block yields
    charts, calls = [], []

    def charting(m, points):
        charts.append(points)
        return chart(m, points)

    def recording(m, a, b):
        calls.append((a, b))
        return squared_distances(m, a, b)

    monkeypatch.setattr(module, "chart", charting)
    monkeypatch.setattr(module, "squared_distances", recording)
    blocks = list(pair_distance_blocks(manifold, pts))
    monkeypatch.undo()
    c = chart(manifold, pts)
    assert len(charts) == 1 and charts[0] is pts
    assert len(calls) == len(blocks) > 3
    assert all(a.shape[1] * b.shape[1] <= BLOCK_CELLS for a, b in calls)
    assert np.array_equal(np.concatenate([a for a, _ in calls], axis=1), c)
    starts = np.cumsum([0] + [a.shape[1] for a, _ in calls[:-1]])
    assert all(np.array_equal(b, c[:, s:]) for s, (_, b) in zip(starts, calls))
    D = np.sqrt(squared_cross(manifold, pts, pts))
    upper = D[np.triu_indices(n, k=1)]
    assert np.array_equal(np.concatenate(blocks), upper[upper > 0]) and D[2, 5] == 0.0
    P = pairwise_distances(manifold, pts)
    assert np.array_equal(P, D) and np.array_equal(P, P.T)


@pytest.mark.parametrize("manifold", [CIR, CYL], ids=["circle", "cylinder"])
def test_arcs_stay_accurate_at_the_seam_and_at_1e_9(manifold):
    """The per-point-angle arc min(|a - b|, 2 pi - |a - b|) is exact to a few
    float spacings of pi across the +-pi seam and on arcs of 1e-9, where the
    expected arc is the float difference of the two angles."""
    tiny = 1e-9
    lo = np.array([np.pi - 1e-3, -np.pi + 1e-3, np.pi - 5e-10, 0.0, 1.0, -2.0, 3.0])
    hi = np.array([-np.pi + 1e-3, np.pi - 1e-3, np.pi + 5e-10, tiny, 1.0 + tiny,
                   -2.0 + tiny, 3.0 + tiny])
    wrapped = np.abs(lo - hi)
    expected = np.minimum(wrapped, 2 * np.pi - wrapped)
    if manifold.kind == "circle":
        a, b = circle_coords(lo), circle_coords(hi)
    else:
        s = np.full(lo.size, 0.5)
        a, b = cylinder_coords(lo, s), cylinder_coords(hi, s)
    d = cross_distances(manifold, a, b)
    assert np.max(np.abs(d.diagonal() - expected)) <= 8 * np.finfo(float).eps
    assert np.array_equal(d, cross_distances(manifold, b, a).T)
    assert d.diagonal()[:2] == pytest.approx([2e-3, 2e-3], abs=1e-15)


def _broadcast_squared(manifold, a, b):
    """Squared geodesic distances by plain broadcasting over the charts."""
    if manifold.kind == "sphere":
        cross = np.linalg.norm(np.cross(a[:, None], b[None]), axis=-1)
        return np.arctan2(cross, (a[:, None] * b[None]).sum(axis=-1)) ** 2
    ca, cb = chart(manifold, a), chart(manifold, b)
    diff = ca[:, :, None] - cb[:, None, :]
    if manifold.kind != "euclidean":
        arc = np.abs(diff[0])
        diff[0] = np.minimum(arc, 2 * np.pi - arc)
    out = diff[0] ** 2
    for k in range(1, diff.shape[0]):
        out += diff[k] ** 2
    return out


@pytest.mark.parametrize("manifold", [CYL, SPH, CIR, EUC3],
                         ids=["cylinder", "sphere", "circle", "euclidean"])
def test_squared_distances_are_the_broadcast_formula_bit_for_bit(manifold):
    """Each block of squared distances is the plain broadcast formula's, bit
    for bit: on blocks whose angles lie within pi of each other (a
    key-pruned block off the seam), on blocks across the +-pi seam and on
    the whole sample.  cross_distances is its square root."""
    rng = np.random.default_rng(17)
    pts = random_points(manifold, rng, 400)
    c = chart(manifold, pts)
    key = coordinate_key(manifold, c)[0]
    near = [np.flatnonzero(np.abs(key - k) < 0.6) for k in (1.0, np.pi, 5.5)]
    for rows, cols in [(near[0][:30], near[0]), (near[1][:30], near[1]), (near[2][:9], near[2]),
                       (np.arange(50), np.arange(400))]:
        got = squared_distances(manifold, c[:, rows], c[:, cols])
        assert np.array_equal(got, _broadcast_squared(manifold, pts[rows], pts[cols]))
    d = cross_distances(manifold, pts, pts)
    squared = squared_distances(manifold, c, c)
    assert np.array_equal(d, np.sqrt(squared))


def test_cylinder_distance_matches_arc_height_formula():
    rng = np.random.default_rng(11)
    th1, th2 = rng.uniform(0, 2 * np.pi, (2, 1000))
    s1, s2 = rng.uniform(0, 1, (2, 1000))
    a = cylinder_coords(th1, s1)
    b = cylinder_coords(th2, s2)
    d = cross_distances(CYL, a, b).diagonal()
    delta = np.abs(th1 - th2)
    arc = np.minimum(delta, 2 * np.pi - delta)
    expected = np.hypot(arc, s1 - s2)
    assert np.all(np.abs(d - expected) < 1e-10)


def test_distance_zero_only_for_identical_points():
    rng = np.random.default_rng(3)
    pts = random_points(CYL, rng, 200)
    d = pairwise_distances(CYL, pts)
    off = d[np.triu_indices(200, k=1)]
    assert np.all(off > 0)
    assert np.all(np.diag(d) == 0.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
def test_circle_distance_bounded_and_symmetric(a, b):
    p = circle_coords([a])[0]
    q = circle_coords([b])[0]
    d = _distance(CIR, p, q)
    assert 0.0 <= d <= math.pi + 1e-12
    assert d == _distance(CIR, q, p)


# ----------------------------------------------------------- volume density

def test_flat_manifolds_have_unit_density():
    rng = np.random.default_rng(5)
    for manifold in (CYL, CIR, Manifold.euclidean(2)):
        a = random_points(manifold, rng, 50)
        b = random_points(manifold, rng, 50)
        for i in range(50):
            d = _distance(manifold, a[i], b[i])
            if d < injectivity_radius(manifold):
                assert _density(manifold, a[i], b[i]) == 1.0


def test_sphere_density_quarter_circle():
    p = np.array([0.0, 0.0, 1.0])
    q = np.array([1.0, 0.0, 0.0])  # r = pi/2
    assert _density(SPH, p, q) == pytest.approx(2.0 / math.pi, rel=1e-12)


def test_density_is_one_at_zero_separation():
    p = np.array([0.0, 0.0, 1.0])
    assert _density(SPH, p, p) == 1.0


def sphere_exponential_map_jacobian(r, step=1e-5):
    """Volume element of exp at the north pole via central finite differences."""
    pole = np.array([0.0, 0.0, 1.0])
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])

    def expmap(u):
        norm = np.linalg.norm(u)
        if norm == 0.0:
            return pole
        direction = (u[0] * e1 + u[1] * e2) / norm
        return math.cos(norm) * pole + math.sin(norm) * direction

    u0 = np.array([r, 0.0])
    cols = []
    for j in range(2):
        du = np.zeros(2)
        du[j] = step
        cols.append((expmap(u0 + du) - expmap(u0 - du)) / (2 * step))
    J = np.column_stack(cols)
    return math.sqrt(np.linalg.det(J.T @ J))


def test_sphere_density_matches_exponential_map_jacobian():
    radii = np.linspace(0.05, 2.95, 50)
    for r in radii:
        fd = sphere_exponential_map_jacobian(r)
        assert volume_density_from_distance(SPH, np.asarray(r)) == pytest.approx(fd, abs=1e-4)


def test_sphere_density_symmetric_in_arguments():
    rng = np.random.default_rng(13)
    a = random_points(SPH, rng, 1000)
    b = random_points(SPH, rng, 1000)
    d = cross_distances(SPH, a, b).diagonal()
    keep = d < math.pi - 1e-6
    for i in np.flatnonzero(keep)[:1000]:
        assert _density(SPH, a[i], b[i]) == pytest.approx(
            _density(SPH, b[i], a[i]), abs=1e-15)


# ------------------------------------------------------- injectivity radius

def test_injectivity_radii():
    assert injectivity_radius(CIR) == math.pi
    assert injectivity_radius(SPH) == math.pi
    assert injectivity_radius(CYL) == math.pi
    assert injectivity_radius(EUC3) == math.inf


# -------------------------------------------------------------- validation

@pytest.mark.parametrize("kind,ambient_dim", [
    ("circle", 3), ("sphere", 2), ("cylinder", 2), ("euclidean", 0)])
def test_the_kind_fixes_the_ambient_dimension(kind, ambient_dim):
    with pytest.raises(ValueError, match="ambient coordinates"):
        Manifold(kind, ambient_dim)


def test_constructors_give_each_kind_its_ambient_dimension():
    assert [m.ambient_dim for m in (CIR, SPH, CYL, EUC3)] == [2, 3, 3, 3]
    assert Manifold.euclidean(1).ambient_dim == 1
    with pytest.raises(ValueError, match="ambient coordinates"):
        Manifold.euclidean(0)


def test_off_circle_point_rejected():
    with pytest.raises(InvalidPointError, match="unit norm"):
        validate_coords(CIR, np.array([1.1, 0.0]))


def test_cylinder_height_out_of_interval_rejected():
    with pytest.raises(InvalidPointError, match="height"):
        validate_coords(CYL, np.array([1.0, 0.0, 1.5]))


def test_cylinder_height_error_prints_a_plain_float():
    with pytest.raises(InvalidPointError, match=r"height coordinate 1\.5 outside"):
        validate_coords(CYL, np.array([1.0, 0.0, 1.5]))


def test_cylinder_angular_part_checked():
    with pytest.raises(InvalidPointError, match="angular"):
        validate_coords(CYL, np.array([0.9, 0.0, 0.5]))


def test_wrong_arity_rejected():
    with pytest.raises(InvalidPointError, match="ambient"):
        validate_coords(CYL, np.array([1.0, 0.0]))


def test_nonfinite_rejected():
    with pytest.raises(InvalidPointError, match="finite"):
        validate_coords(EUC3, np.array([1.0, np.nan, 0.0]))


def test_tolerance_boundary():
    validate_coords(CIR, np.array([1.0 + 0.5e-9, 0.0]))
    with pytest.raises(InvalidPointError):
        validate_coords(CIR, np.array([1.0 + 5e-9, 0.0]))
