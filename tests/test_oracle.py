"""Checks for the slow reference implementations.

These run before anything else trusts them: every solver test that compares
against ``brute_force_ses`` leans on the hand-computed cases here.
"""

import math
import tracemalloc

import numpy as np
import pytest

from minisphere.errors import EmptyInputError, InvalidGeometryError, TooLargeError
from minisphere.oracle import brute_force_ses, enclosing_circle_2d, is_hull_vertex

from conftest import cube_corners, max_violation, rel_err


def test_single_point():
    s = brute_force_ses(np.array([[2.0, -1.0, 5.0]]))
    assert s.radius == 0.0
    assert np.array_equal(s.center, [2.0, -1.0, 5.0])


def test_two_points_diameter():
    s = brute_force_ses(np.array([[0.0, 0.0, 0.0], [0.0, 6.0, 8.0]]))
    assert rel_err(s.radius, 5.0) < 1e-15
    assert np.allclose(s.center, [0.0, 3.0, 4.0], atol=1e-15)


def test_obtuse_triangle_two_point_ball():
    # for an obtuse triangle the minimal ball rests on the long edge only
    P = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [2.0, 0.1, 0.0]])
    s = brute_force_ses(P)
    assert rel_err(s.radius, 2.0) < 1e-12
    assert np.allclose(s.center, [2.0, 0.0, 0.0], atol=1e-12)


def test_equilateral_triangle_circumcircle():
    h = math.sqrt(3.0) / 2.0
    P = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, h, 0.0]])
    s = brute_force_ses(P)
    assert rel_err(s.radius, 1.0 / math.sqrt(3.0)) < 1e-13
    assert np.allclose(s.center, [0.5, math.sqrt(3.0) / 6.0, 0.0], atol=1e-13)


def test_cube_corners_circumsphere():
    s = brute_force_ses(cube_corners())
    assert rel_err(s.radius, math.sqrt(3.0) / 2.0) < 1e-13
    assert np.allclose(s.center, [0.5, 0.5, 0.5], atol=1e-13)


def test_interior_points_do_not_change_ball():
    rng = np.random.default_rng(7)
    P = np.vstack([cube_corners(), rng.uniform(0.2, 0.8, (40, 3))])
    s = brute_force_ses(P)
    assert rel_err(s.radius, math.sqrt(3.0) / 2.0) < 1e-12
    assert max_violation(P, s.center, s.radius) <= 1e-12


def test_enclosure_on_random_clouds():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        P = rng.normal(size=(30, 3)) * (1.0 + seed)
        s = brute_force_ses(P)
        assert max_violation(P, s.center, s.radius) <= 1e-9 * max(1.0, s.radius)
        # minimality spot check: shrinking by a hair must expose a point
        assert max_violation(P, s.center, s.radius * (1 - 1e-6)) > 0


def test_size_cap():
    with pytest.raises(TooLargeError):
        brute_force_ses(np.zeros((81, 3)))


def test_translation_equivariance():
    rng = np.random.default_rng(11)
    P = rng.normal(size=(25, 3))
    t = np.array([10.0, -4.0, 3.0])
    a = brute_force_ses(P)
    b = brute_force_ses(P + t)
    assert np.allclose(b.center - t, a.center, atol=1e-9)
    assert rel_err(b.radius, a.radius) < 1e-12


class TestHullVertex:
    def test_cube_corners_are_vertices(self):
        P = np.vstack([cube_corners(), [[0.5, 0.5, 0.5]]])
        for i in range(8):
            assert is_hull_vertex(i, P)

    def test_center_is_interior(self):
        P = np.vstack([cube_corners(), [[0.5, 0.5, 0.5]]])
        assert not is_hull_vertex(8, P)

    def test_face_point_is_not_a_vertex(self):
        P = np.vstack([cube_corners(), [[0.5, 0.5, 0.0]]])
        assert not is_hull_vertex(8, P)

    def test_random_convex_combination_is_interior(self):
        rng = np.random.default_rng(3)
        V = rng.normal(size=(12, 3))
        w = rng.uniform(0.05, 1.0, 12)
        w /= w.sum()
        P = np.vstack([V, (w @ V)[None, :]])
        assert not is_hull_vertex(12, P)

    def test_sphere_points_all_vertices(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=(20, 3))
        P = v / np.linalg.norm(v, axis=1)[:, None]
        for i in range(20):
            assert is_hull_vertex(i, P)

    def test_size_cap(self):
        with pytest.raises(TooLargeError):
            is_hull_vertex(0, np.zeros((61, 3)))

    def test_index_must_be_an_integer(self):
        with pytest.raises(TypeError):
            is_hull_vertex(1.7, cube_corners())  # not row 1
        assert is_hull_vertex(np.int64(1), cube_corners())


class TestEnclosingCircle2D:
    def test_square(self):
        Q = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        c, r = enclosing_circle_2d(Q)
        assert np.allclose(c, [0.5, 0.5], atol=1e-13)
        assert rel_err(r, math.sqrt(0.5)) < 1e-13

    def test_collinear(self):
        Q = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [2.0, 2.0]])
        c, r = enclosing_circle_2d(Q)
        assert np.allclose(c, [1.5, 1.5], atol=1e-12)
        assert rel_err(r, 1.5 * math.sqrt(2.0)) < 1e-12

    def test_random_enclosure_and_minimality(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            Q = rng.normal(size=(60, 2))
            c, r = enclosing_circle_2d(Q)
            d = np.linalg.norm(Q - c[None, :], axis=1)
            assert d.max() <= r * (1 + 1e-12) + 1e-12
            # at least two points must sit on the boundary of a minimal circle
            assert (d >= r - 1e-9).sum() >= 2

    @pytest.mark.parametrize("bad", [np.zeros((4, 3)), np.zeros(4), np.zeros((2, 2, 2))])
    def test_rejects_arrays_not_shaped_n_by_2(self, bad):
        with pytest.raises(InvalidGeometryError):
            enclosing_circle_2d(bad)

    @pytest.mark.parametrize("bad", [[[0, "x"]], [[0.0, 1.0], [2.0]], np.array([[0, 1 + 2j], [1, 0]])],
                             ids=["string", "ragged", "complex"])
    def test_rejects_what_is_not_real_numbers(self, bad):
        with pytest.raises(InvalidGeometryError):
            enclosing_circle_2d(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coordinates(self, bad):
        Q = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, bad]])
        with pytest.raises(InvalidGeometryError):
            enclosing_circle_2d(Q)

    def test_empty_input(self):
        for empty in ([], np.zeros((0, 2)), np.zeros((0, 3))):
            with pytest.raises(EmptyInputError):
                enclosing_circle_2d(empty)

    # 4 collinear points run with warnings as errors: no divide-by-zero on
    # their degenerate triples. 500 collinear points or copies of one point
    # have a hull of at most 2 vertices, whatever Qhull makes of them.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("Q, center, radius", [
        (np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [2.0, 2.0]]), [1.5, 1.5], 1.5 * math.sqrt(2.0)),
        (np.array([1.0, 2.0]) + np.random.default_rng(0).permutation(500)[:, None] * np.array([3.0, -4.0]),
         [1.0 + 249.5 * 3.0, 2.0 - 249.5 * 4.0], 1247.5),
        (np.tile([3.0, -7.0], (500, 1)), [3.0, -7.0], 0.0),
    ], ids=["4-collinear", "500-collinear", "500-coincident"])
    def test_flat_input(self, Q, center, radius):
        c, r = enclosing_circle_2d(Q)
        assert np.allclose(c, center, rtol=1e-14, atol=0.0)
        assert abs(r - radius) <= 1e-12 * radius

    def test_agrees_with_the_sphere_oracle_in_the_plane(self):
        """Both oracles run one enumeration: a 2D set and the same set lifted
        to z = 0 give the same radius."""
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 81))
            Q = rng.normal(size=(n, 2)) if seed % 2 else rng.integers(-4, 5, (n, 2)).astype(float)
            _, r = enclosing_circle_2d(Q)
            s = brute_force_ses(np.column_stack((Q, np.zeros(n))))
            assert abs(r - s.radius) <= 1e-12 * s.radius

    def test_peak_memory_on_100_hull_vertices(self):
        t = 2.0 * math.pi * np.arange(100) / 100
        ring = np.column_stack((np.cos(t), np.sin(t)))
        Q = np.vstack([ring, np.random.default_rng(1).uniform(-0.5, 0.5, (1000, 2))])
        tracemalloc.start()
        try:
            enclosing_circle_2d(Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150e6, f"peak {peak / 1e6:.0f} MB"
