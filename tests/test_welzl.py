import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from minisphere import projection, welzl
from minisphere.datagen import generate, kinds
from minisphere.errors import DegenerateCollinear
from minisphere.geom import sphere_from_three
from minisphere.geom import tolerance_for
from minisphere.oracle import brute_force_ses
from minisphere.welzl import welzl_solve

from conftest import max_violation, noisy_shell, rel_err


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


def test_pivoting_ball_bounded_by_outermost_points():
    """Pivoting on 5000 points encloses the cloud, and its ball is no larger
    than the min ball of the 60 points farthest from the origin."""
    P = generate("uniform-ball", 5000, seed=3)
    big, _ = welzl_solve(P, seed=0)
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


@pytest.mark.parametrize("n", [60, 5000])
@pytest.mark.parametrize("kind", ["co-spherical", "coplanar-disk", "collinear", "duplicates"])
def test_pivoting_and_move_to_front_agree(kind, n):
    """Pivoting returns the radii recorded from the restart-from-0 scan,
    which move-to-front Welzl also returned while the package had it."""
    P = _family(kind, n)
    got, support = welzl_solve(P, seed=3)
    assert rel_err(got.radius, _OLD_RADII[kind, n]) < 1e-12
    assert max_violation(P, got.center, got.radius) <= 1e-12
    if n <= 80:
        assert rel_err(got.radius, brute_force_ses(P).radius) < 1e-9


def test_coplanar_pinned_four_take_the_exact_ball(monkeypatch):
    """Three pinned corners of a right triangle and a free point in their
    plane, outside their circle: no sphere passes through all four, so
    _boundary_ball takes the exact min ball of the four, the ball on the
    segment from the origin to the free point."""
    calls = []
    real = welzl._exact_ball
    monkeypatch.setattr(welzl, "_exact_ball", lambda *a: calls.append(1) or real(*a))
    boundary = tuple(((x, y, 0.0), -1 - i) for i, (x, y) in enumerate([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]))
    ball = welzl._pinned_ball((((3.0, 3.0, 0.0), 1),), boundary)
    assert calls
    assert rel_err(math.sqrt(ball.r2), 1.5 * math.sqrt(2.0)) < 1e-15
    assert np.allclose(ball.c, (1.5, 1.5, 0.0), rtol=0, atol=1e-15)
    assert sorted(i for _, i in ball.support) == [-1, 1]


@pytest.mark.parametrize("x, h", [(0.5, 0.0), (0.5, 2.0 ** -40), (0.5, 2.0 ** -32), (0.4, 0.0)],
                         ids=["exact", "2^-40", "2^-32", "exact-0.4"])
def test_collinear_pinned_three_take_the_exact_ball(x, h, monkeypatch):
    """Three pinned points inside the collinear cut, the middle one at x
    and h off the line through the others: no circle is built, and
    _boundary_ball takes the exact min ball of the three, the ball on the
    segment between the extreme pair, in every order. The middle point
    0.4 is not dyadic, so its offsets round differently in each order."""
    calls = []
    real = welzl._exact_ball
    monkeypatch.setattr(welzl, "_exact_ball", lambda *a: calls.append(1) or real(*a))
    pts = [(-1.0, 2.0, 0.5), (x, 2.0 + h, 0.5), (3.0, 2.0, 0.5)]
    want = brute_force_ses(np.array(pts))
    for order in itertools.permutations(range(3)):
        with pytest.raises(DegenerateCollinear):
            sphere_from_three(*(pts[i] for i in order))
        calls.clear()
        ball = welzl._boundary_ball(tuple((pts[i], i) for i in order))
        assert calls, order
        assert sorted(i for _, i in ball.support) == [0, 2], order
        assert ball.c == (1.0, 2.0, 0.5) and ball.r2 == 4.0, order
        assert rel_err(math.sqrt(ball.r2), want.radius) < 1e-12, order
        assert np.allclose(ball.c, want.center, rtol=0, atol=1e-12), order


def test_noisy_shell_repaired_subset(monkeypatch):
    """A noisy shell's small solve sees only the reduced set; the repair
    pivots over the full cloud from its support and reaches the full ball.
    The cloud fits in one scan chunk, and its repair still goes in rounds
    that rescan only the rows the centre's shift may have pushed outside:
    all rows lie near the sphere, and one pivot per scan read 5 N rows."""
    P = noisy_shell(20_000)
    assert len(P) <= welzl._SCAN_CHUNK
    subsets = []
    real = projection.welzl_solve
    monkeypatch.setattr(projection, "welzl_solve", lambda Q, **kw: subsets.append(Q) or real(Q, **kw))
    rep = projection.solve(P, sel=6, seed=0)
    assert len(subsets) == 1
    assert np.array_equal(subsets[0], P[projection.reduce(P, 6).indices])
    assert rep.repair_rounds >= 2 and rep.exact_pivots == 0
    assert len(P) <= rep.scanned_rows < 2 * len(P), rep.scanned_rows
    full, _ = welzl_solve(P, seed=0)
    assert rel_err(rep.sphere.radius, full.radius) < 1e-12


def test_start_ball_is_exact_in_every_order():
    """The start ball is the min ball of all its start rows, whatever their
    order: pinning only the running support left one of these four rows
    outside in 12 of the 24 orders, at the cost of a full-cloud pivot."""
    Q = generate("uniform-ball", 30, seed=1)[[11, 8, 13, 17]]
    want = brute_force_ses(Q).radius
    for order in itertools.permutations(range(4)):
        ball, pivots, exact, _ = welzl._pivot_ball(Q[list(order)], range(4))
        assert pivots == exact == 0, order
        assert rel_err(math.sqrt(ball.r2), want) < 1e-12, order


def test_solve_falls_back_when_pivoting_stalls(monkeypatch):
    """If rounding keeps a full-cloud pivot's float ball from growing,
    that pivot and every later one are exact, and they finish the solve.

    The stall is forced: the first full-cloud pivot's ``_pinned_ball``
    returns the current ball, the reduced set's ball. Later pivots do not
    call ``_pinned_ball``."""
    P = generate("uniform-ball", 5000, seed=2)
    ref, _ = welzl_solve(P, seed=0)
    real_pinned, real_solve = welzl._pinned_ball, projection._pivot_solve
    starts = []

    def pivot_solve(Q, start, *check):
        starts.append(start)
        return real_solve(Q, start, *check)

    def stall_on_full_cloud(entries, boundary):
        return starts[-1] if starts and len(boundary) == 1 else real_pinned(entries, boundary)

    monkeypatch.setattr(projection, "_pivot_solve", pivot_solve)
    monkeypatch.setattr(welzl, "_pinned_ball", stall_on_full_cloud)
    rep = projection.solve(P, sel=1, seed=0)
    assert rep.exact_pivots == rep.repair_rounds >= 1
    assert rel_err(rep.sphere.radius, ref.radius) < 1e-12
    assert max_violation(P, rep.sphere.center, rep.sphere.radius) <= 1e-12
    for i in rep.support_indices:
        assert abs(np.linalg.norm(P[i] - rep.sphere.center) - rep.sphere.radius) < 1e-12


def test_solve_falls_back_on_a_stalling_cloud():
    """A real input stalls the full-cloud pivots at the default bands: a
    co-spherical shell of 3e4 points moved to 1e6, from the k = 24 reduced
    set's ball. Exact pivots finish the solve within about one ulp.

    The ``exact_pivots`` assertion records today's rounding stall so that
    the exact path is covered on a real input; a change that stops the
    pivots stalling here should pick another stalling cloud for this test."""
    P = generate("co-spherical", 30_000, seed=2) + 1e6
    rep = projection.solve(P, sel=24, seed=0)
    ref, _ = welzl_solve(P, seed=0)
    r = rep.sphere.radius
    assert rep.exact_pivots >= 1
    assert max_violation(P, rep.sphere.center, r) <= 1e-9 * r
    assert rel_err(r, ref.radius) < 1e-9


def _det(M):
    """Determinant by cofactor expansion along the first row."""
    if not M:
        return Fraction(1)
    return sum((-1) ** j * M[0][j] * _det([row[:j] + row[j + 1:] for row in M[1:]]) for j in range(len(M)))


def _exact_reference_r2(pts):
    """Least squared radius of a ``Fraction`` sphere through an affinely
    independent subset of ``pts`` that holds every point, by Cramer's rule
    on each subset's Gram system."""
    best = None
    for m in range(1, min(len(pts), 4) + 1):
        for sub in itertools.combinations(pts, m):
            vs = [[a - b for a, b in zip(p, sub[0])] for p in sub[1:]]
            G = [[sum(a * b for a, b in zip(u, v)) for v in vs] for u in vs]
            det = _det(G)
            if not det:
                continue  # affinely dependent
            rhs = [sum(a * a for a in u) / 2 for u in vs]
            w = [_det([row[:i] + [h] + row[i + 1:] for row, h in zip(G, rhs)]) / det for i in range(len(vs))]
            c = [q + sum(wi * v[t] for wi, v in zip(w, vs)) for t, q in enumerate(sub[0])]
            r2 = sum((a - b) ** 2 for a, b in zip(sub[0], c))
            if all(sum((a - b) ** 2 for a, b in zip(p, c)) <= r2 for p in pts) and (best is None or r2 < best):
                best = r2
    return best


def _small_integer_sets(rng):
    """Sets of 2 to 5 integer points: generic, coplanar, concyclic,
    collinear, with duplicates and co-spherical, each moved by an integer offset."""
    sphere9 = [p for p in itertools.product(range(-3, 4), repeat=3) if sum(x * x for x in p) == 9]
    circle25 = [(x, y, 0) for x, y in itertools.product(range(-5, 6), repeat=2) if x * x + y * y == 25]
    for _ in range(60):
        n = int(rng.integers(2, 6))
        u, w = rng.integers(-3, 4, size=(2, 3))
        ij = rng.integers(-4, 5, size=(n, 2))
        yield {
            "generic": rng.integers(-9, 10, size=(n, 3)),
            "coplanar": ij[:, :1] * u + ij[:, 1:] * w,
            "concyclic": np.array(circle25)[rng.choice(len(circle25), n, replace=False)],
            "collinear": ij[:, :1] * u,
            "duplicates": rng.integers(-2, 3, size=(3, 3))[rng.integers(0, 3, size=n)],
            "co-spherical": np.array(sphere9)[rng.choice(len(sphere9), n, replace=False)],
        }.items(), rng.integers(-10**6, 10**6, size=3)


def test_exact_ball_matches_exhaustive_exact_search():
    """``_exact_ball`` on at most five integer points returns the rounded
    squared radius of the least exact sphere through an affinely independent
    subset that holds every point, on generic and degenerate sets near the
    origin and at an offset of about 1e6. Its support has that same least
    sphere: the ball is the exact min ball of its support."""
    rng = np.random.default_rng(5)
    for sets, offset in _small_integer_sets(rng):
        for kind, Q in sets:
            for shift in (np.zeros(3, dtype=np.int64), offset):
                pts = [tuple(map(Fraction, map(int, p))) for p in Q + shift]
                entries = tuple((tuple(map(float, p)), i) for i, p in enumerate(pts))
                ball = welzl._exact_ball(entries)
                want = float(_exact_reference_r2(pts))
                assert ball.r2 == want, (kind, Q.tolist(), shift.tolist())
                support = [pts[i] for _, i in ball.support]
                assert len(support) <= 4 and float(_exact_reference_r2(support)) == want, (kind, Q.tolist())


def _farthest_reference(P, ball):
    """Plain full-array argmax in the scan's arithmetic order, against ``_limit``."""
    cx, cy, cz = ball.c
    d2 = (P[:, 0] - cx) ** 2 + (P[:, 1] - cy) ** 2 + (P[:, 2] - cz) ** 2
    j = int(d2.argmax())
    return j if d2[j] > welzl._limit(ball) else -1


@pytest.mark.parametrize("n", [1, 1000, welzl._SCAN_CHUNK, welzl._SCAN_CHUNK + 1, 2 * welzl._SCAN_CHUNK + 777])
@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_farthest_outside_matches_full_argmax(n, offset):
    """The chunked scan picks the row a full-array argmax picks, for clouds
    below, at and above one chunk, and moved far from the origin."""
    P = generate("uniform-ball", n, seed=n % 97) + offset
    for c, r2 in (((0.0, 0.0, 0.0), 0.25), ((0.1, -0.2, 0.05), 0.5), ((0.0, 0.0, 0.0), 4.0)):
        ball = welzl._Ball(tuple(x + offset for x in c), r2, ())
        assert welzl._farthest_outside(P, ball) == _farthest_reference(P, ball), (n, c, r2)


def test_farthest_outside_tie_across_chunks_takes_first_row():
    """Two equally far rows on either side of a chunk boundary: the first wins,
    as in a full-array argmax."""
    c = welzl._SCAN_CHUNK
    P = generate("uniform-ball", 2 * c + 5, seed=4) * 0.5
    P[c - 1] = (3.0, 0.0, 0.0)
    P[c] = (0.0, -3.0, 0.0)
    P[c + 2] = (0.0, 0.0, 3.0)
    ball = welzl._Ball((0.0, 0.0, 0.0), 1.0, ())
    assert welzl._farthest_outside(P, ball) == c - 1 == _farthest_reference(P, ball)
    P[c - 1] = (2.0, 0.0, 0.0)
    assert welzl._farthest_outside(P, ball) == c == _farthest_reference(P, ball)


def _outside_rows_reference(P, ball, per=welzl._BLOCK):
    """Every block's farthest row beyond ``_limit``, by a full-array argmax
    per block of ``per`` rows: with ``per=1``, every row beyond it."""
    d2 = _sq_dist_reference(P, ball.c)
    far = welzl._limit(ball)
    rows = [lo + int(d2[lo:lo + per].argmax()) for lo in range(0, len(P), per)]
    return [i for i in rows if d2[i] > far]


@pytest.mark.parametrize("n", [1, 1000, welzl._SCAN_CHUNK, welzl._SCAN_CHUNK + 1, 2 * welzl._SCAN_CHUNK + 777])
@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_outside_rows_match_block_argmax(n, offset):
    """The candidate scan returns, in row order, every block's farthest row
    beyond the limit for clouds above one chunk, and every row beyond it
    for clouds of at most one chunk, also moved far from the origin; the
    global farthest row is among them. A full scan computes every row's
    distance and bounds every block by its rows', or keeps each row's own
    distance as its bound."""
    P = generate("uniform-ball", n, seed=n % 97) + offset
    bound, bufs = welzl._workspace(n)
    per = 1 if n <= welzl._SCAN_CHUNK else welzl._BLOCK
    assert len(bound) == -(-n // per)
    for c, r2 in (((0.0, 0.0, 0.0), 0.25), ((0.1, -0.2, 0.05), 0.5), ((0.0, 0.0, 0.0), 4.0)):
        ball = welzl._Ball(tuple(x + offset for x in c), r2, ())
        rows, scanned = welzl._outside_rows(P, ball, bound, bufs)
        assert rows.tolist() == _outside_rows_reference(P, ball, per), (n, c, r2)
        assert scanned == n, (n, c, r2)
        j = _farthest_reference(P, ball)
        assert (j < 0) == (len(rows) == 0) and (j < 0 or j in rows.tolist()), (n, c, r2)
        d2 = _sq_dist_reference(P, ball.c)
        if per == 1:
            assert np.array_equal(bound, d2), (n, c, r2)
            some = np.arange(0, n, 3)
            bound[some] = np.nan
            again, scanned = welzl._outside_rows(P, ball, bound, bufs, some)
            assert again.tolist() == [i for i in rows.tolist() if i % 3 == 0], (n, c, r2)
            assert scanned == len(some) and np.array_equal(bound, d2), (n, c, r2)
        for b in range(0, len(bound), 7):
            assert d2[b * per:(b + 1) * per].max() <= bound[b], (n, c, r2, b)


def test_outside_rows_tie_in_block_takes_first_row():
    """Equally far rows inside one block: the first is the candidate; in two
    blocks, both are, and the pivot over them picks the first, as a full
    scan does; a rescan of those blocks alone returns the same rows."""
    c, b = welzl._SCAN_CHUNK, welzl._BLOCK
    P = generate("uniform-ball", 2 * c + 5, seed=4) * 0.5
    ws = welzl._workspace(len(P))
    ball = welzl._Ball((0.0, 0.0, 0.0), 1.0, ())
    P[c + 3] = (3.0, 0.0, 0.0)
    P[c + 7] = (0.0, 3.0, 0.0)
    assert welzl._outside_rows(P, ball, *ws)[0].tolist() == [c + 3]
    P[c + b + 1] = (0.0, 0.0, -3.0)
    rows = welzl._outside_rows(P, ball, *ws)[0]
    assert rows.tolist() == [c + 3, c + b + 1]
    assert rows[welzl._farthest_outside(P[rows], ball)] == c + 3 == _farthest_reference(P, ball)
    some = np.array([0, c // b, c // b + 1, len(P) // b])
    again, scanned = welzl._outside_rows(P, ball, *ws, some)
    assert again.tolist() == rows.tolist() and scanned == 3 * b + len(P) % b


def _sq_dist_reference(P, c):
    cx, cy, cz = c
    return (P[:, 0] - cx) ** 2 + (P[:, 1] - cy) ** 2 + (P[:, 2] - cz) ** 2


@pytest.mark.parametrize("n", [3 * welzl._SCAN_CHUNK + 100, 100_000 - 17])
@pytest.mark.parametrize("offset", [0.0, 1e6])
@pytest.mark.parametrize("scale", [2.0 ** -400, 1.0, 2.0 ** 400])
def test_bounded_rescan_returns_the_full_scans_rows(n, offset, scale):
    """After each random shift of the centre, the blocks ``_grown`` lists
    return exactly the rows a full scan returns, round after round, at any
    offset and scale. The radius is set so that a few hundred rows lie
    outside, some of them within a few ulps of the limit; most blocks are
    not rescanned."""
    rng = np.random.default_rng(n)
    P = (generate("uniform-ball", n, seed=3) + offset) * scale
    bound, bufs = welzl._workspace(n)
    c = (offset * scale,) * 3
    far = np.sort(_sq_dist_reference(P, c))[-300]
    ball = welzl._Ball(c, far, ())
    welzl._outside_rows(P, ball, bound, bufs)
    rescanned = 0
    for step in range(8):
        shift = rng.normal(size=3) * scale * 10.0 ** rng.uniform(-7, -3)
        c = tuple((np.array(ball.c) + shift).tolist())
        d2 = np.sort(_sq_dist_reference(P, c))
        # a limit right at a row's computed distance: ties decide
        near = d2[-rng.integers(1, 400)]
        r2 = near / welzl._REL_BAND * (1.0 + rng.integers(-3, 4) * 2.0 ** -52)
        new = welzl._Ball(c, r2, ())
        blocks = welzl._grown(bound, ball.c, new, int(len(bound) * welzl._GATHER_BLOCKS))
        got, scanned = welzl._outside_rows(P, new, bound, bufs, blocks)
        want = _outside_rows_reference(P, new)
        assert got.tolist() == want, (step, n, offset, scale)
        rescanned += scanned
        ball = new
    assert rescanned < 2 * n, rescanned


@pytest.mark.parametrize("offset", [0.0, 1e6])
@pytest.mark.parametrize("scale", [2.0 ** -400, 1.0, 2.0 ** 400])
def test_row_bounds_list_every_row_outside(offset, scale):
    """With one bound per row (clouds of one scan chunk), the rows
    ``_grown`` lists after each random shift of the centre include every
    row whose computed distance lies beyond the new limit, and few others;
    the listed rows get their exact distances, as a rescan gives them."""
    rng = np.random.default_rng(5)
    n = 20_000
    P = (generate("uniform-ball", n, seed=4) + offset) * scale
    c = (offset * scale,) * 3
    bound = _sq_dist_reference(P, c)
    listed = 0
    for step in range(8):
        shift = rng.normal(size=3) * scale * 10.0 ** rng.uniform(-7, -3)
        new_c = tuple((np.array(c) + shift).tolist())
        d2 = _sq_dist_reference(P, new_c)
        near = np.sort(d2)[-rng.integers(1, 400)]
        r2 = near / welzl._REL_BAND * (1.0 + rng.integers(-3, 4) * 2.0 ** -52)
        new = welzl._Ball(new_c, r2, ())
        rows = welzl._grown(bound, c, new, n)
        outside = np.flatnonzero(d2 > welzl._limit(new))
        assert set(outside.tolist()) <= set(rows.tolist()), (step, offset, scale)
        bound[rows] = d2[rows]
        listed += len(rows)
        c = new_c
    assert listed < n // 2, listed


def test_grown_asks_for_a_full_scan_when_the_centre_moves_beyond_the_radius():
    """A shift longer than the new radius bounds nothing: ``_grown``
    returns None, for a full scan, and leaves the bounds as they were."""
    bound = np.array([0.5, 1.0, 2.0, 4.0])
    before = bound.copy()
    new = welzl._Ball((3.0, 0.0, 0.0), 4.0, ())
    assert welzl._grown(bound, (0.0, 0.0, 0.0), new, len(bound)) is None
    assert np.array_equal(bound, before)
    # a shift within the radius lists entries and grows every bound
    assert welzl._grown(bound, (2.5, 0.0, 0.0), new, len(bound)) is not None
    assert (bound > before).all()


# scans of the full cloud (calls of ``welzl._outside_rows`` on all its rows)
# by ``solve`` per kind, seed 7, as measured at the automatic k, and a bound
# on all the rows its scans read, in units of the cloud's size. At 2e5
# points (stride 6) the repair starts from the sample's reduced set (from
# the whole cloud's reduce they were 4, 2, 1, 4, 1, 3 and 4; one full scan
# per pivot took 10, 4, 1, 5, 1, 3 and 5); that start ball of the clustered
# cloud is poor, so its second scan is full. At 3e5 (stride 9) it starts
# from the solved sample's min ball, whose own rounds (on ``len(Q) <
# len(P)``) add about one sample to the rows; from the sample's reduced set
# the full-cloud scans read 1.93, 1.22, 1.00, 1.11, 1.00, 3.44 and 1.11 N.
_SCANS = {"uniform-ball": ((4, 2), (3, 1.6)), "uniform-cube": ((2, 2), (2, 1.4)),
          "collinear": ((2, 2), (2, 1.2)), "coplanar-disk": ((2, 2), (2, 1.2)),
          "co-spherical": ((1, 2), (1, 1.2)), "clustered": ((3, 3), (3, 1.5)),
          "near-degenerate": ((2, 2), (2, 1.2))}


@pytest.mark.parametrize("kind", sorted(_SCANS))
def test_solve_scans_the_full_cloud_few_times(kind, monkeypatch):
    """``solve``'s repair scans a 2e5- or 3e5-point cloud in a few batched
    rounds, the last of which finds no row outside; after the first, a scan
    mostly visits only the blocks its bound does not certify. ``welzl_solve``
    keeps pivoting on one full scan per pivot and gathers no candidates."""
    real = welzl._outside_rows
    ends = []

    def outside_rows(Q, ball, *ws):
        r = real(Q, ball, *ws)
        if len(Q) == len(P):
            ends.append(len(r[0]))
        return r

    monkeypatch.setattr(welzl, "_outside_rows", outside_rows)
    for n, (scans, rows) in zip((200_000, 300_000), _SCANS[kind]):
        P = generate(kind, n, seed=7)
        ends.clear()
        rep = projection.solve(P, seed=7)
        assert 1 <= len(ends) <= scans, (kind, n, ends)
        assert ends[-1] == 0 and all(ends[:-1]), (kind, n, ends)
        assert len(P) <= rep.scanned_rows < rows * len(P), (kind, n, rep.scanned_rows)
        assert rep.scanned_rows < len(ends) * len(P) or len(ends) == 1, (kind, n, rep.scanned_rows)
        ends.clear()
        ref, _ = welzl_solve(P, seed=7)
        assert ends == [], (kind, n)
        assert rel_err(rep.sphere.radius, ref.radius) < 1e-12, (kind, n)
        assert max_violation(P, rep.sphere.center, rep.sphere.radius) <= 1e-12 * rep.sphere.radius, (kind, n)


@pytest.mark.parametrize("n", [20_000, 200_000, 300_000])
@pytest.mark.parametrize("every", ["full", "gathered"])
def test_unbounded_rescans_change_no_answer(every, n, monkeypatch):
    """With every bound forced to +inf, so that every scan is full, or with
    every entry listed for a gathered rescan, ``solve`` gives the same
    sphere, support, pivots and exact pivots bit for bit as with the
    bounds, on every kind, with block bounds (2e5 points), with row
    bounds (2e4, one scan chunk) and on a solved sample (3e5): the bounds
    only skip work."""
    real = welzl._grown

    def unbounded(bound, c, ball, most):
        bound[:] = np.inf
        listed = real(bound, c, ball, most)
        return listed if every == "full" else np.arange(len(bound))

    for kind in kinds():
        P = generate(kind, n, seed=7)
        want = projection.solve(P, seed=7)
        with monkeypatch.context() as m:
            m.setattr(welzl, "_grown", unbounded)
            got = projection.solve(P, seed=7)
        assert np.array_equal(got.sphere.center, want.sphere.center), kind
        assert got.sphere.radius == want.sphere.radius, kind
        assert got.support_indices == want.support_indices, kind
        assert (got.repair_rounds, got.exact_pivots) == (want.repair_rounds, want.exact_pivots), kind
        assert got.scanned_rows >= want.scanned_rows, kind


def test_swapped_ball_is_the_plain_welzl_ball(monkeypatch):
    """A pivot against four support points: the sphere ``_swapped_ball``
    keeps is the min ball plain Welzl builds, with the same support, on
    random tetrahedra around the centre and points just outside their
    sphere; a third of these random steps keep it (real pivots, which take
    the farthest point, keep it more often)."""
    rng = np.random.default_rng(11)
    cases = []
    while len(cases) < 300:
        u = rng.normal(size=(4, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        entries = tuple((tuple(p.tolist()), i) for i, p in enumerate(u))
        start = welzl._pinned_ball(entries[:3], (entries[3],))
        if len(start.support) < 4:
            continue  # the centre is outside the tetrahedron: not a four-point support
        q = rng.normal(size=3)
        q *= rng.uniform(1.0001, 1.5) / np.linalg.norm(q)
        cases.append((start.support, ((tuple(q.tolist()), 4),)))
    fast = [welzl._pinned_ball(support, e) for support, e in cases]
    kept = sum(welzl._swapped_ball(support, e[0]) is not None for support, e in cases)
    monkeypatch.setattr(welzl, "_swapped_ball", lambda *a: None)
    for (support, e), ball in zip(cases, fast):
        plain = welzl._pinned_ball(support, e)
        assert sorted(i for _, i in ball.support) == sorted(i for _, i in plain.support)
        assert rel_err(ball.r2, plain.r2) < 1e-13
    assert kept >= len(cases) // 4, kept
