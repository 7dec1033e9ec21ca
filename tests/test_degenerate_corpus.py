"""The paper's claim on degenerate input: exactly co-spherical clouds, with
repeated points and with interior points, solved exactly at any offset,
and near-collinear triples.

The integer points of x² + y² + z² = n² all lie on the sphere of radius n
about the origin, so the answer is known exactly: centre (t, t, t) and
radius n for a cloud moved by t. n = 325, 1105 and 5525 have many such
points (1,950, 6,630 and 33,150), so every support set is chosen among
thousands of co-spherical rows; 33,150 rows are enough for the automatic
k to solve a strided sample first.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest

from minisphere import projection
from minisphere.projection import solve
from minisphere.welzl import welzl_solve

_SPHERES = {325: 1950, 1105: 6630, 5525: 33150}
_OFFSETS = {"0": 0.0, "1e6": 1e6, "2^30": 2.0 ** 30}


@functools.cache
def integer_sphere(n: int) -> np.ndarray:
    """Every integer point (x, y, z) with x² + y² + z² = n², sorted."""
    y = np.arange(-n, n + 1)
    blocks = []
    for x in range(-n, n + 1):
        z2 = n * n - x * x - y * y
        z = np.rint(np.sqrt(np.maximum(z2, 0))).astype(np.int64)  # exact: z2 < 2**53
        on = z * z == z2
        blocks.append(np.column_stack((np.full(on.sum(), x), y[on], z[on])))
    P = np.vstack(blocks)
    P = np.unique(np.vstack([P, P * (1, 1, -1)]), axis=0).astype(np.float64)
    P.flags.writeable = False
    return P


def corpus_cloud(n: int, variant: str, offset: float, seed: int) -> np.ndarray:
    """The integer sphere of radius n, plain, repeated four times, or with
    20,000 integer points of [-n/2, n/2)³ inside; shuffled, then moved by offset."""
    rng = np.random.default_rng(seed)
    P = integer_sphere(n)
    if variant == "repeated":
        P = np.repeat(P, 4, axis=0)
    elif variant == "interior":
        P = np.vstack([P, rng.integers(-(n // 2), n // 2 + 1, size=(20_000, 3)).astype(np.float64)])
    return rng.permutation(P) + offset


def test_integer_sphere_sizes():
    for n, size in _SPHERES.items():
        P = integer_sphere(n)
        assert len(P) == size
        assert np.array_equal((P * P).sum(axis=1), np.full(size, float(n * n)))


@pytest.mark.parametrize("offset", _OFFSETS, ids=list(_OFFSETS))
@pytest.mark.parametrize("variant", ["plain", "repeated", "interior"])
@pytest.mark.parametrize("n", _SPHERES)
def test_integer_sphere_solved_exactly(n, variant, offset):
    """Centre and radius within 1e-12·n of the exact ones at the automatic
    k, k = 6 and k = 24, with no exact pivot; ``welzl_solve``'s radius too."""
    t = _OFFSETS[offset]
    P = corpus_cloud(n, variant, t, seed=n)
    bound = 1e-12 * n
    for sel in (None, 6, 24):
        rep = solve(P, sel=sel)
        assert np.abs(rep.sphere.center - t).max() <= bound, (sel, rep.sphere.center)
        assert abs(rep.sphere.radius - n) <= bound, (sel, rep.sphere.radius)
        assert rep.exact_pivots == 0, sel
    sphere, _ = welzl_solve(P)
    assert abs(sphere.radius - n) <= bound, sphere.radius


def test_sampled_path_on_the_largest_sphere():
    """33,150 co-spherical rows take the automatic k's sampled path."""
    assert projection._stride(len(integer_sphere(5525))) == 32


def near_collinear_triple(rng):
    """a, b and a point of the segment ab moved 2^-29·|b - a| off its line."""
    a, b = rng.uniform(-1.0, 1.0, (2, 3))
    d = b - a
    u = np.cross(d, rng.normal(size=3))
    u /= np.linalg.norm(u)
    return a, b, a + rng.uniform(0.1, 0.9) * d + 2.0 ** -29 * np.linalg.norm(d) * u


def test_near_collinear_triples():
    """300 triples in all six row orders: the min ball is the diametral ball
    of the far pair, to 1e-12 of its radius, and its support is that pair."""
    rng = np.random.default_rng(29)
    for _ in range(300):
        a, b, c = near_collinear_triple(rng)
        r, m = 0.5 * np.linalg.norm(b - a), 0.5 * (a + b)
        for order in itertools.permutations(range(3)):
            P = np.array([(a, b, c)[j] for j in order])
            pair = {order.index(0), order.index(1)}
            rep = solve(P)
            sphere, support = welzl_solve(P)
            for got, rows in ((rep.sphere, rep.support_indices), (sphere, support.indices)):
                assert abs(got.radius - r) <= 1e-12 * r, (order, got.radius, r)
                assert np.abs(got.center - m).max() <= 1e-12 * r, (order, got.center, m)
                assert set(rows) == pair, (order, rows)
