import math

import numpy as np
import pytest

from minisphere import projection, welzl
from minisphere.datagen import generate, kinds
from minisphere.errors import InvalidGeometryError
from minisphere.geom import Tolerance, tolerance_for
from minisphere.oracle import brute_force_ses
from minisphere.welzl import min_sphere_with_boundary, welzl_solve

from conftest import cube_corners, max_violation, rel_err


def test_matches_oracle_across_kinds_and_seeds():
    """Radius agrees with exhaustive search on every generator family."""
    for kind in kinds():
        for seed in (0, 1, 2):
            P = generate(kind, 60, seed=seed)
            want = brute_force_ses(P)
            got, support = welzl_solve(P, seed=seed)
            assert rel_err(got.radius, want.radius) < 1e-9, (kind, seed)
            assert np.allclose(got.center, want.center, atol=1e-7 * max(1.0, want.radius)), (kind, seed)


def test_small_inputs_exact():
    one, s1 = welzl_solve([[1.0, 2.0, 3.0]])
    assert one.radius == 0.0 and np.array_equal(one.center, [1.0, 2.0, 3.0])

    two, _ = welzl_solve([[0.0, 0.0, 0.0], [0.0, 6.0, 8.0]])
    assert rel_err(two.radius, 5.0) < 1e-15

    tetra, _ = welzl_solve([[0, 0, 0], [1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert rel_err(tetra.radius, math.sqrt(3.0) / 2.0) < 1e-13


def test_support_points_lie_on_boundary():
    for seed in range(5):
        P = generate("uniform-ball", 50, seed=seed)
        sphere, support = welzl_solve(P, seed=seed)
        assert 1 <= len(support.indices) <= 4
        for idx, row in zip(support.indices, support.points):
            assert np.array_equal(P[idx], row)
            assert abs(np.linalg.norm(row - sphere.center) - sphere.radius) < 1e-9


def test_encloses_everything():
    for kind in kinds():
        P = generate(kind, 70, seed=4)
        sphere, _ = welzl_solve(P)
        tol = tolerance_for(P)
        assert max_violation(P, sphere.center, sphere.radius) <= 10 * tol.abs_eps, kind


def test_deterministic_per_seed():
    P = generate("uniform-ball", 64, seed=9)
    a = welzl_solve(P, seed=5)
    b = welzl_solve(P, seed=5)
    assert np.array_equal(a[0].center, b[0].center)
    assert a[0].radius == b[0].radius
    assert a[1].indices == b[1].indices


def test_seed_changes_order_not_answer():
    P = generate("co-spherical", 60, seed=2)
    radii = {round(welzl_solve(P, seed=s)[0].radius, 12) for s in range(8)}
    assert len(radii) == 1


def test_duplicates_and_identical_points():
    P = np.tile([[2.0, 2.0, 2.0]], (10, 1))
    sphere, support = welzl_solve(P)
    assert sphere.radius == 0.0

    Q = np.repeat(generate("uniform-ball", 10, seed=1), 5, axis=0)
    want = brute_force_ses(Q[::5])
    got, _ = welzl_solve(Q)
    assert rel_err(got.radius, want.radius) < 1e-9


def test_tiny_perturbation_stability():
    """A 1e-8 jiggle of a degenerate cloud moves the radius by about as much."""
    rng = np.random.default_rng(12)
    base = generate("coplanar-disk", 60, seed=12)
    jig = base + rng.normal(0.0, 1e-8, base.shape)
    r0, _ = welzl_solve(base)
    r1, _ = welzl_solve(jig)
    assert abs(r0.radius - r1.radius) < 1e-6


def test_collinear_is_segment_ball():
    P = generate("collinear", 40, seed=6)
    sphere, support = welzl_solve(P)
    span = np.linalg.norm(P.max(axis=0) - P.min(axis=0))
    assert rel_err(sphere.radius, span / 2.0) < 1e-12
    assert len(support.indices) == 2


def test_boundary_constraint_zero_free_points():
    pts = np.empty((0, 3))
    b = cube_corners()[[0, 7]]  # main diagonal
    sphere = min_sphere_with_boundary(pts, b)
    assert rel_err(sphere.radius, math.sqrt(3.0) / 2.0) < 1e-13
    assert np.allclose(sphere.center, [0.5, 0.5, 0.5], atol=1e-13)


def test_boundary_constraint_mixed():
    # free interior point plus two fixed boundary points: boundary still binds
    free = np.array([[0.5, 0.5, 0.5]])
    b = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    sphere = min_sphere_with_boundary(free, b)
    for p in b:
        assert abs(np.linalg.norm(p - sphere.center) - sphere.radius) < 1e-9
    assert np.linalg.norm(free[0] - sphere.center) <= sphere.radius + 1e-9


def test_boundary_of_four_is_direct():
    b = np.array([[0, 0, 0], [1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=float)
    sphere = min_sphere_with_boundary(np.empty((0, 3)), b)
    assert rel_err(sphere.radius, math.sqrt(3.0) / 2.0) < 1e-13


def test_boundary_too_large_rejected():
    with pytest.raises(InvalidGeometryError):
        min_sphere_with_boundary(np.empty((0, 3)), np.zeros((5, 3)))


def test_large_path_matches_small_path():
    """The chunked scan used above the list-mode cutoff agrees with the small path."""
    P = generate("uniform-ball", 5000, seed=3)
    big, _ = welzl_solve(P, seed=0)
    # same cloud, same seed, forced through the other scan by slicing order
    sub = brute_force_ses(P[np.argsort(np.linalg.norm(P, axis=1))[-60:]])
    assert big.radius <= sub.radius * (1 + 1e-9) + 1e-12
    assert max_violation(P, big.center, big.radius) <= 1e-8


def test_scale_invariance():
    P = generate("uniform-ball", 50, seed=8)
    a, _ = welzl_solve(P)
    b, _ = welzl_solve(P * 1e6)
    c, _ = welzl_solve(P * 1e-6)
    assert rel_err(b.radius, a.radius * 1e6) < 1e-9
    assert rel_err(c.radius, a.radius * 1e-6) < 1e-9


# radius of each input below as the plain restart-from-0 scan (before
# pivoting and move-to-front) returned it, seed 3
_OLD_RADII = {
    ("co-spherical", 60): 0.9999999999999998,
    ("coplanar-disk", 60): 0.9732444367086378,
    ("collinear", 60): 0.48598500613639223,
    ("duplicates", 60): 0.9230054334138992,
    ("co-spherical", 5000): 1.0,
    ("coplanar-disk", 5000): 0.9997577465782809,
    ("collinear", 5000): 0.4998983668730538,
    ("duplicates", 5000): 0.99914221676049,
}


def _family(kind, n):
    if kind == "duplicates":
        return np.repeat(generate("uniform-ball", n // 4, seed=3), 4, axis=0)
    return generate(kind, n, seed=3)


def _move_to_front(P, seed):
    """Move-to-front Welzl on a shuffled copy of P, and the context it reordered."""
    ctx = welzl._Ctx.of(P, np.random.default_rng(seed).permutation(len(P)), tolerance_for(P))
    return welzl._min_ball(ctx, len(P), ()), ctx


@pytest.mark.parametrize("n", [60, 5000])  # list storage, then array storage
@pytest.mark.parametrize("kind", ["co-spherical", "coplanar-disk", "collinear", "duplicates"])
def test_pivoting_and_move_to_front_agree(kind, n):
    P = _family(kind, n)
    got, support = welzl_solve(P, seed=3)
    ball, ctx = _move_to_front(P, 3)
    assert ctx.small == (n <= welzl._SMALL)
    assert rel_err(got.radius, _OLD_RADII[kind, n]) < 1e-12
    assert rel_err(math.sqrt(ball.r2), got.radius) < 1e-12
    assert max_violation(P, got.center, got.radius) <= 1e-12
    if n <= 80:
        assert rel_err(got.radius, brute_force_ses(P).radius) < 1e-9
    # the in-place reordering moved rows and kept each with its coordinates
    ids = np.asarray(ctx.ids)
    assert sorted(ids.tolist()) == list(range(n))
    assert not np.array_equal(ids, np.random.default_rng(3).permutation(n))
    assert np.array_equal(np.column_stack([ctx.xs, ctx.ys, ctx.zs]), P[ids])


@pytest.mark.parametrize("lists", [True, False])
def test_flat4_fallback_in_move_to_front(monkeypatch, lists):
    """Three pinned corners of a right triangle and a free point in their
    plane, outside their circle: no sphere passes through all four, so
    _ball4 falls back to _flat4, whose smallest enclosing candidate is the
    ball on the segment from the origin to the free point. Both storages."""
    calls = []
    real = welzl._flat4
    monkeypatch.setattr(welzl, "_flat4", lambda *a: calls.append(1) or real(*a))
    cols, ids = ([0.2, 3.0], [0.2, 3.0], [0.0, 0.0]), [0, 1]
    if not lists:
        cols, ids = tuple(np.array(c) for c in cols), np.array(ids)
    ctx = welzl._Ctx(*cols, ids, Tolerance(1e-9, 5.0))
    boundary = tuple(((x, y, 0.0), -1 - i) for i, (x, y) in enumerate([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]))
    ball = welzl._min_ball(ctx, 2, boundary)
    assert calls
    assert ctx.small == lists
    assert rel_err(math.sqrt(ball.r2), 1.5 * math.sqrt(2.0)) < 1e-15
    assert np.allclose(ball.c, (1.5, 1.5, 0.0), rtol=0, atol=1e-15)
    assert np.asarray(ctx.ids).tolist() == [1, 0]  # the free point moved to the front


def test_noisy_shell_repaired_subset(monkeypatch):
    """The subset a noisy shell's repair round hands the small solver."""
    rng = np.random.default_rng(11)
    d = rng.normal(size=(20_000, 3))
    P = d / np.linalg.norm(d, axis=1)[:, None] * (1.0 + 1e-7 * rng.normal(size=(20_000, 1)))
    subsets = []
    real = projection.welzl_solve
    monkeypatch.setattr(projection, "welzl_solve", lambda Q, **kw: subsets.append(Q) or real(Q, **kw))
    rep = projection.solve(P, sel=6, seed=0)
    Q = subsets[-1]
    assert rep.repair_rounds >= 1 and len(Q) > welzl._SMALL
    got, _ = welzl_solve(Q, seed=0)
    ball, _ = _move_to_front(Q, 0)
    full, _ = welzl_solve(P, seed=0)
    assert rel_err(math.sqrt(ball.r2), got.radius) < 1e-12
    assert rel_err(got.radius, full.radius) < 1e-12
    assert rel_err(rep.sphere.radius, full.radius) < 1e-12
