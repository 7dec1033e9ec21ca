"""Checks for the slow reference implementations.

These run before anything else trusts them: every solver test that compares
against ``brute_force_ses`` leans on the hand-computed cases here.
"""

import math

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coordinates(self, bad):
        Q = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, bad]])
        with pytest.raises(InvalidGeometryError):
            enclosing_circle_2d(Q)

    def test_empty_input(self):
        for empty in ([], np.zeros((0, 2)), np.zeros((0, 3))):
            with pytest.raises(EmptyInputError):
                enclosing_circle_2d(empty)
