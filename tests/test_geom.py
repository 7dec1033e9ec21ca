import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minisphere import geom
from minisphere.errors import (
    DegenerateCollinear,
    DegenerateCoplanar,
    EmptyInputError,
    InvalidGeometryError,
)
from minisphere.geom import (
    Sphere,
    Tolerance,
    as_cloud,
    contains,
    sphere_from_four,
    sphere_from_three,
    sphere_from_two,
    tolerance_for,
)

from conftest import rel_err


def test_sphere_from_two_midpoint():
    s = sphere_from_two((0.0, 0.0, 0.0), (2.0, 0.0, 0.0))
    assert np.array_equal(s.center, [1.0, 0.0, 0.0])
    assert s.radius == 1.0


def test_sphere_from_two_coincident_points():
    s = sphere_from_two((3.0, -1.0, 2.0), (3.0, -1.0, 2.0))
    assert s.radius == 0.0
    assert np.array_equal(s.center, [3.0, -1.0, 2.0])


def test_sphere_from_three_right_triangle():
    # circumcenter of a right triangle sits at the hypotenuse midpoint
    s = sphere_from_three((0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0.0, 2.0, 0.0))
    assert np.allclose(s.center, [1.0, 1.0, 0.0], atol=1e-15)
    assert rel_err(s.radius, math.sqrt(2.0)) < 1e-15


def test_sphere_from_three_equilateral():
    h = math.sqrt(3.0) / 2.0
    s = sphere_from_three((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, h, 0.0))
    assert np.allclose(s.center, [0.5, math.sqrt(3.0) / 6.0, 0.0], atol=1e-15)
    assert rel_err(s.radius, 1.0 / math.sqrt(3.0)) < 1e-14


def test_sphere_from_three_off_plane():
    """A tilted triangle: the circumcenter stays in the triangle's plane."""
    a, b, c = np.array([1.0, 2.0, 3.0]), np.array([4.0, 6.0, 3.0]), np.array([1.0, 6.0, 7.0])
    s = sphere_from_three(a, b, c)
    for p in (a, b, c):
        assert rel_err(np.linalg.norm(p - s.center), s.radius) < 1e-12
    n = np.cross(b - a, c - a)
    assert abs(np.dot(s.center - a, n)) / np.linalg.norm(n) < 1e-12


def test_sphere_from_three_collinear_raises():
    with pytest.raises(DegenerateCollinear):
        sphere_from_three((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 2.0, 2.0))


def test_sphere_from_four_cube_alternate_corners():
    # a regular tetrahedron inscribed in the unit cube
    s = sphere_from_four((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1))
    assert np.allclose(s.center, [0.5, 0.5, 0.5], atol=1e-15)
    assert rel_err(s.radius, math.sqrt(3.0) / 2.0) < 1e-15


def test_sphere_from_four_coplanar_raises():
    with pytest.raises(DegenerateCoplanar):
        sphere_from_four((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))


def test_sphere_from_four_nearly_coplanar_scaled_tolerance():
    """The flatness cut follows the supplied tolerance scale."""
    pts = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 1e-7)]
    s = sphere_from_four(*pts)  # default tolerance: well above the cut
    assert s.radius > 0
    with pytest.raises(DegenerateCoplanar):
        sphere_from_four(*pts, tol=Tolerance(1e-3, 1.0))


def test_non_finite_point_rejected():
    with pytest.raises(InvalidGeometryError):
        sphere_from_two((0.0, 0.0, float("nan")), (1.0, 0.0, 0.0))
    with pytest.raises(InvalidGeometryError):
        sphere_from_three((0, 0, 0), (1, 0, 0), (0, float("inf"), 0))


def test_contains_tolerance_band():
    s = Sphere(np.zeros(3), 1.0)
    tol = Tolerance(1e-9, 1.0)
    assert contains(s, (1.0, 0.0, 0.0), tol)
    assert contains(s, (1.0 + 5e-10, 0.0, 0.0), tol)
    assert not contains(s, (1.0 + 1e-6, 0.0, 0.0), tol)


def test_as_cloud_accepts_lists_and_rejects_bad_shapes():
    P = as_cloud([[0, 0, 0], [1, 2, 3]])
    assert P.dtype == np.float64 and P.shape == (2, 3) and P.flags.c_contiguous
    with pytest.raises(InvalidGeometryError):
        as_cloud(np.zeros((4, 2)))
    with pytest.raises(EmptyInputError):
        as_cloud(np.zeros((0, 3)))
    with pytest.raises(EmptyInputError):
        as_cloud([])
    with pytest.raises(InvalidGeometryError):
        as_cloud([[0, 0, np.nan]])


@pytest.mark.parametrize("bad", [[[1, 2, 3], [4, 5]], [["a", "b", "c"]], [[1j, 0, 0]], np.array([[1j, 0, 0]])],
                         ids=["ragged", "strings", "complex-list", "complex-array"])
def test_malformed_array_likes_raise_invalid_geometry(bad):
    """Input NumPy cannot read as real (N, 3) coordinates raises
    InvalidGeometryError, not NumPy's own error, in every entry point;
    a complex array is not cast with its imaginary part dropped."""
    from minisphere.projection import reduce, solve
    from minisphere.welzl import welzl_solve

    for call in (as_cloud, lambda P: reduce(P, 1), welzl_solve, solve):
        with pytest.raises(InvalidGeometryError):
            call(bad)


CHUNK = geom._CHECK_ROWS


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("n, row", [(CHUNK, CHUNK - 1), (2 * CHUNK + 5, CHUNK - 1),
                                    (2 * CHUNK + 5, CHUNK), (2 * CHUNK + 5, 2 * CHUNK + 4)],
                         ids=["last-of-one-chunk", "before-boundary", "after-boundary", "last-of-partial-chunk"])
def test_as_cloud_rejects_non_finite_in_every_chunk(bad, n, row):
    """The chunked finiteness check sees the last row and both sides of a chunk boundary."""
    P = np.zeros((n, 3))
    assert as_cloud(P) is P
    for col in range(3):
        Q = P.copy()
        Q[row, col] = bad
        with pytest.raises(InvalidGeometryError):
            as_cloud(Q)
        with pytest.raises(InvalidGeometryError):
            as_cloud(np.asfortranarray(Q))


@pytest.mark.parametrize("row", [0, CHUNK, 2 * CHUNK + 4])
def test_as_cloud_bounds_coordinates_at_1e150(row):
    """±1e150 passes; the next double beyond it, in any column and chunk, fails."""
    P = np.zeros((2 * CHUNK + 5, 3))
    P[row] = (1e150, -1e150, 1e150)
    assert as_cloud(P) is P
    for col in range(3):
        Q = P.copy()
        Q[row, col] = np.nextafter(Q[row, col], 2.0 * Q[row, col])
        with pytest.raises(InvalidGeometryError):
            as_cloud(Q)


def test_tolerance_for_unit_cube_diagonal():
    from conftest import cube_corners

    tol = tolerance_for(cube_corners())
    assert rel_err(tol.scale, math.sqrt(3.0)) < 1e-15
    assert tol.abs_eps == 1e-9 * max(tol.scale, 1.0)


def test_tolerance_for_scale_is_the_axis0_box_diagonal():
    """The column-by-column box gives the axis-0 formula's scale bit for bit."""
    from minisphere.datagen import generate, kinds

    for i, kind in enumerate(kinds()):
        for P in (generate(kind, 5000, seed=i), generate(kind, 5000, seed=i) * 1e-7 + 1e6):
            span = P.max(axis=0) - P.min(axis=0)
            want = float(math.sqrt(float(span[0]) ** 2 + float(span[1]) ** 2 + float(span[2]) ** 2))
            assert tolerance_for(P).scale == want, kind


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("col", [0, 1, 2])
def test_tolerance_for_rejects_non_finite_coordinates(bad, col):
    """``as_cloud`` rejects a non-finite coordinate in every column."""
    P = np.zeros((10, 3))
    P[:, 1] = 1.0
    P[7, col] = bad
    with pytest.raises(InvalidGeometryError):
        tolerance_for(P)
    with pytest.raises(InvalidGeometryError):
        tolerance_for(P[::-1])


coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
point = st.tuples(coord, coord, coord)


@given(point, point)
@settings(deadline=None, max_examples=60)
def test_two_point_sphere_encloses_both(a, b):
    s = sphere_from_two(a, b)
    for p in (a, b):
        assert np.linalg.norm(np.asarray(p) - s.center) <= s.radius * (1 + 1e-12) + 1e-9


def _spread2(*pts):
    A = np.asarray(pts, dtype=np.float64)
    d = A[:, None, :] - A[None, :, :]
    return float((d * d).sum(axis=2).max())


@given(point, point, point)
@settings(deadline=None, max_examples=60)
def test_three_point_sphere_is_equidistant(a, b, c):
    # keep the draw well conditioned so roundoff amplification stays bounded
    l2 = _spread2(a, b, c)
    nn = float(np.dot(*2 * (np.cross(np.subtract(b, a), np.subtract(c, a)),)))
    assume(nn > (1e-5 * l2) ** 2)
    s = sphere_from_three(a, b, c)
    d = [float(np.linalg.norm(np.asarray(p) - s.center)) for p in (a, b, c)]
    assert max(d) - min(d) <= 1e-7 * max(s.radius, 1.0)


@given(point, point, point, point)
@settings(deadline=None, max_examples=60)
def test_four_point_sphere_is_equidistant(a, b, c, d):
    l2 = _spread2(a, b, c, d)
    A = np.asarray((b, c, d), dtype=np.float64) - np.asarray(a, dtype=np.float64)[None, :]
    assume(abs(float(np.linalg.det(A))) > 1e-5 * l2 ** 1.5)
    s = sphere_from_four(a, b, c, d)
    dist = [float(np.linalg.norm(np.asarray(p) - s.center)) for p in (a, b, c, d)]
    assert max(dist) - min(dist) <= 1e-6 * max(s.radius, 1.0)
