import itertools
import math

import numpy as np
import pytest

from minisphere import projection, welzl
from minisphere.datagen import generate, kinds
from minisphere.errors import InvalidGeometryError, InvalidKError, InvalidParamsError
from minisphere.geom import as_cloud
from minisphere.oracle import is_hull_vertex
from minisphere.projection import KSelection, reduce, solve
from minisphere.welzl import welzl_solve

from conftest import cube_corners, max_violation, noisy_shell, random_rotation, rel_err


class TestOrientations:
    def test_spiral_spread_frozen(self):
        # derived once from the construction and pinned: the closest pair of
        # the 100-point spherical Fibonacci set (k = 25)
        N = projection._fibonacci_directions(100)
        dots = N @ N.T
        np.fill_diagonal(dots, -1.0)
        assert dots.max() == pytest.approx(0.9522479509819215, abs=1e-12)
        assert np.abs(np.linalg.norm(N, axis=1) - 1.0).max() < 5e-16

    def test_bad_k_rejected(self):
        P = cube_corners()
        for bad in (0, -3, 2.5, "six", "auto"):
            with pytest.raises(InvalidKError):
                reduce(P, bad)
            with pytest.raises(InvalidKError):
                solve(P, sel=bad)

    def test_k1_usable(self):
        red = reduce(cube_corners(), 1)
        assert len(red.picks) == 4


def test_reduce_cube_plus_center_frozen():
    """Pinned k = 6 selection on the axis-aligned cube plus its centre.

    Traced by hand from the 24 spherical Fibonacci directions. Direction 0
    is (sin t, 0, cos t) with cos t = 23/24, so corners 5 = (1, 0, 1) and
    7 = (1, 1, 1) tie along it; both have x = 1, and the larger y gives
    corner 7. Every other direction has three non-zero components, so its
    maximum is the one corner on the sign side of each, 4*[x > 0] +
    2*[y > 0] + [z > 0]: direction 1 = (-0.36, -0.33, 0.88) gives corner 1,
    direction 2 = (0.05, 0.61, 0.79) corner 7, and so on. The directions
    reach all eight octants, so all eight corners appear; the centre never
    does.
    """
    P = np.vstack([cube_corners(), [[0.5, 0.5, 0.5]]])
    red = reduce(P, KSelection("general", 6))
    assert red.indices.tolist() == [7, 1, 5, 3, 2, 6, 0, 4]
    assert red.picks.tolist() == [
        7, 1, 7, 5, 3, 7, 1, 3, 5, 1, 7, 5,
        2, 6, 0, 2, 4, 0, 6, 0, 2, 4, 0, 6,
    ]
    assert 8 not in red.indices  # the interior point


def test_reduce_exact_ties_pick_hull_vertices():
    """Fibonacci direction 0 has y = 0 exactly, so on an axis-aligned cube
    it is maximised by a whole edge. The lexicographic tie rule must still
    pick a corner. Edge midpoints and face centres come first, so a bare
    lowest-index rule would pick a midpoint."""
    corners = cube_corners()
    mids = [(a + b) / 2.0 for a, b in itertools.combinations(corners, 2) if np.abs(a - b).sum() == 1.0]
    faces = [np.where(np.arange(3) == ax, side, 0.5) for ax in range(3) for side in (0.0, 1.0)]
    P = np.vstack([mids, faces, corners])
    assert len(P) == 26
    for k in (1, 2, 6, 13, 24):
        red = reduce(P, KSelection("general", k))
        bad = [i for i in red.indices.tolist() if not is_hull_vertex(i, P)]
        assert bad == [], (k, bad)


def _reference_directions(k):
    """The 4k-point spherical Fibonacci set rebuilt from its definition
    (Keinert et al. 2015)."""
    m = 4 * k
    i = np.arange(m)
    z = 1.0 - (2.0 * i + 1.0) / m
    phi = 2.0 * np.pi * np.mod(i / ((1.0 + math.sqrt(5.0)) / 2.0), 1.0)
    rho = np.sqrt(1.0 - z * z)
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


def _reference_picks(P, k):
    """Brute force: a full-column argmax per direction, then the
    lexicographic rule along x, y and z, then the lowest index."""
    picks = []
    for d in _reference_directions(k):
        ties = np.arange(len(P))
        for e in (d, *np.eye(3)):
            s = P[ties] @ e
            ties = ties[s == s.max()]
        picks.append(int(ties[0]))
    return picks


def _fused_picks(P, k):
    return reduce(P, KSelection("general", k)).picks.tolist()


def _chunk(k):
    return projection._BLOCK_ELEMS // (4 * k)


@pytest.mark.parametrize("k", [1, 6, 24, 64])
def test_fused_reduce_matches_brute_force_on_random_clouds(k):
    rng = np.random.default_rng(k)
    c = _chunk(k)
    # below one chunk, exactly one chunk, and a ragged last chunk
    for n in (7, c, 2 * c + 37):
        P = rng.normal(size=(n, 3))
        assert _fused_picks(P, k) == _reference_picks(P, k), (k, n)


@pytest.mark.parametrize("k", [1, 6, 24, 64])
def test_fused_reduce_matches_brute_force_on_exact_ties(k):
    """A small integer grid ties along many directions, inside chunks and
    from chunk to chunk. Then clouds with no other ties get a pair of rows
    tied alone along direction 0 (the Fibonacci direction whose y component
    is 0), once inside chunk 0 and once across the boundary between chunks
    0 and 1; the lexicographic rule picks the later row of the pair."""
    rng = np.random.default_rng(100 + k)
    c = _chunk(k)
    grid = rng.integers(0, 4, size=(2 * c + 11, 3)).astype(np.float64)
    assert _fused_picks(grid, k) == _reference_picks(grid, k)
    for a, b in ((3, 5), (c - 1, c)):
        P = rng.normal(size=(2 * c + 11, 3))
        P[a] = (9.0, 0.0, 9.0)
        P[b] = (9.0, 1.0, 9.0)
        picks = _fused_picks(P, k)
        assert picks == _reference_picks(P, k), (a, b)
        assert picks[0] == b, (a, b)


def test_reduce_indices_unique_and_budgeted():
    for k in (1, 2, 6, 17):
        for seed in (0, 1):
            P = generate("uniform-ball", 200, seed=seed)
            red = reduce(P, KSelection("general", k))
            idx = red.indices
            assert len(set(idx.tolist())) == len(idx)
            assert len(idx) <= 4 * k
            assert len(red.picks) == 4 * k


def test_reduce_keeps_extremes_of_rotated_cloud():
    R = random_rotation(3)
    P = cube_corners() @ R.T
    red = reduce(P, KSelection("general", 48))
    sub, _ = welzl_solve(P[red.indices])
    full, _ = welzl_solve(P)
    assert rel_err(sub.radius, full.radius) < 1e-9


class TestSolve:
    def test_cube_plus_center(self):
        P = np.vstack([cube_corners(), [[0.5, 0.5, 0.5]]])
        rep = solve(P, sel=6, seed=0)  # 24 directions pick all 8 corners
        assert rel_err(rep.sphere.radius, math.sqrt(3.0) / 2.0) < 1e-12
        assert np.allclose(rep.sphere.center, [0.5, 0.5, 0.5], atol=1e-12)
        assert rep.strategy == "projection"
        assert rep.input_count == 9
        assert rep.reduced_size == 8
        assert 8 not in rep.support_indices

    def test_report_shape(self):
        P = generate("uniform-ball", 500, seed=1)
        rep = solve(P, seed=1)
        d = rep.to_dict()
        assert set(d) == {
            "sphere", "support_indices", "strategy", "k", "reduced_size",
            "repair_rounds", "timings", "input_count", "seed", "exact_pivots", "scanned_rows",
        }
        assert set(d["timings"]) == {"ingest_ms", "reduce_ms", "solve_ms", "verify_ms"}
        assert set(d["sphere"]) == {"center", "radius"}
        assert d["strategy"] == "projection"
        assert d["k"] == 1  # sel=None
        assert all(t >= 0.0 for t in d["timings"].values())
        assert sorted(rep.support_indices) == list(rep.support_indices)

    def test_welzl_strategy_is_welzl_solve(self):
        """strategy="welzl" reports welzl_solve's own sphere and support, bit
        for bit, whatever ``sel`` says, and the counters of its pivoting
        over the validated cloud, all timed as ``verify_ms``."""
        for kind in ("uniform-ball", "co-spherical", "coplanar-disk", "collinear"):
            P = generate(kind, 2000, seed=5)
            rep = solve(P, sel=3, seed=5, strategy="welzl")
            ref, sup = welzl_solve(P, seed=5)
            assert np.array_equal(rep.sphere.center, ref.center), kind
            assert rep.sphere.radius == ref.radius, kind
            assert rep.support_indices == sup.indices, kind
            assert (rep.strategy, rep.k, rep.reduced_size) == ("welzl", None, None)
            pivots, exact, scanned = welzl._pivot_solve(as_cloud(P))[2:]
            assert (rep.repair_rounds, rep.exact_pivots, rep.scanned_rows) == (pivots, exact, scanned), kind
            assert scanned == len(P) * (pivots + 1), kind
            assert rep.timings["reduce_ms"] == rep.timings["solve_ms"] == 0.0
            assert rep.timings["verify_ms"] > 0.0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(InvalidParamsError):
            solve(cube_corners(), strategy="bogo")

    def test_matches_full_welzl(self):
        for kind in ("uniform-ball", "co-spherical", "clustered", "near-degenerate"):
            P = generate(kind, 2000, seed=3)
            rep = solve(P, seed=3)
            ref, _ = welzl_solve(P, seed=3)
            assert rel_err(rep.sphere.radius, ref.radius) < 1e-9, kind
            assert max_violation(P, rep.sphere.center, rep.sphere.radius) < 1e-9

    def test_support_indices_are_input_rows(self):
        P = generate("uniform-ball", 300, seed=5)
        rep = solve(P, seed=5)
        assert 1 <= len(rep.support_indices) <= 4
        r = rep.sphere.radius
        for i in rep.support_indices:
            assert 0 <= i < 300
            assert abs(np.linalg.norm(P[i] - rep.sphere.center) - r) < 1e-9 * max(r, 1.0)

    def test_deterministic(self):
        P = generate("clustered", 4000, seed=7)
        a = solve(P, sel=KSelection("general", 13), seed=11)
        b = solve(P, sel=KSelection("general", 13), seed=11)
        assert np.array_equal(a.sphere.center, b.sphere.center)
        assert a.sphere.radius == b.sphere.radius
        assert a.support_indices == b.support_indices
        assert a.repair_rounds == b.repair_rounds
        assert a.reduced_size == b.reduced_size

    def test_repair_loop_reaches_the_true_ball(self):
        """Force a tiny plane budget so repairs have to kick in somewhere."""
        hit = 0
        for seed in range(12):
            P = generate("uniform-ball", 30, seed=seed)
            rep = solve(P, sel=KSelection("general", 1), seed=seed)
            ref, _ = welzl_solve(P, seed=seed)
            assert rel_err(rep.sphere.radius, ref.radius) < 1e-9
            hit += rep.repair_rounds > 0
        assert hit > 0  # k=1 cannot cover every hull vertex of these clouds

    def test_interior_point_never_selected(self):
        for seed in range(10):
            P = generate("co-spherical", 40, seed=seed)
            P = np.vstack([P, P.mean(axis=0)[None, :]])  # strictly interior
            red = reduce(P, KSelection("general", 24))
            assert 40 not in red.indices


def test_noisy_shell_repair_is_bounded(monkeypatch):
    """Worst case for repair: a 2e5-point shell with 1e-7 radial noise, on
    which nearly every point is a hull vertex. The small solve sees only the
    reduced set (at most 4k rows), and the repair takes 6 pivots at k = 1
    and at 6, over two full scans: one gathers 3125 candidates, the other
    finds no point outside. From the automatic k's solved sample it takes 9,
    over the sample and the cloud."""
    P = noisy_shell(200_000)
    full, _ = welzl_solve(P, seed=0)
    sizes = []
    real = projection.welzl_solve
    monkeypatch.setattr(projection, "welzl_solve", lambda Q, **kw: sizes.append(len(Q)) or real(Q, **kw))
    for sel in (1, 6, None):
        sizes.clear()
        rep = solve(P, sel=sel, seed=0)
        assert sizes and max(sizes) <= 4 * rep.k, sel
        assert rep.exact_pivots == 0, sel
        assert rep.repair_rounds <= 16, sel
        assert rel_err(rep.sphere.radius, full.radius) < 1e-12, sel


_STEP_2E5 = projection._stride(200_000)  # the automatic k's sample stride at 2e5 points


def _reduced_rows(monkeypatch, P, sel):
    """``solve(P, sel)``, the row count of each cloud its ``reduce`` saw and
    the points of its small solve."""
    seen, small = [], []
    real, real_small = projection.reduce, projection.welzl_solve
    monkeypatch.setattr(projection, "reduce", lambda Q, k: seen.append(len(Q)) or real(Q, k))
    monkeypatch.setattr(projection, "welzl_solve", lambda Q, **kw: small.append(Q) or real_small(Q, **kw))
    return solve(P, sel=sel), seen, small


@pytest.mark.parametrize("kind", kinds())
def test_sampled_start_is_exact(kind, monkeypatch):
    """At the automatic k a 2e5-point cloud is reduced through a strided
    sample of about 4√N rows, which is then solved outright; the repair
    from the sample's min ball ends on welzl_solve's ball and encloses
    every point."""
    P = generate(kind, 200_000, seed=3)
    rep, seen, small = _reduced_rows(monkeypatch, P, None)
    S = P[::_STEP_2E5]
    assert seen == [len(S)] and 4 * math.isqrt(len(P)) <= len(S) <= 8 * math.isqrt(len(P)), kind
    assert np.array_equal(small[0], S[reduce(S, rep.k).indices]), kind
    assert rep.reduced_size == len(small[0]), kind
    ref, _ = welzl_solve(P)
    r = rep.sphere.radius
    assert rel_err(r, ref.radius) < 1e-12, kind
    assert max_violation(P, rep.sphere.center, r) <= 1e-12 * r, kind
    on = np.linalg.norm(P[list(rep.support_indices)] - rep.sphere.center, axis=1)
    assert np.abs(on - r).max() <= 1e-12 * r, kind  # support indices are rows of P


def test_sampled_start_finds_a_support_off_the_stride(monkeypatch):
    """A regular tetrahedron on the unit sphere, planted on rows the sample
    skips (row % stride != 0) of a 2e5-point ball of radius 0.9: the
    sample's ball misses all four, and the full-cloud repair still ends on
    them."""
    P = generate("uniform-ball", 200_000, seed=4)
    P *= 0.9 / np.linalg.norm(P, axis=1).max()
    rows = [1, 7 * _STEP_2E5 + 5, 100_003, 199_999]
    assert all(i % _STEP_2E5 for i in rows)
    P[rows] = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3.0)
    rep, seen, _ = _reduced_rows(monkeypatch, P, None)
    assert seen == [len(P[::_STEP_2E5])]
    assert rep.support_indices == tuple(rows)
    assert rep.repair_rounds > 0
    ref, _ = welzl_solve(P)
    r = rep.sphere.radius
    assert rel_err(r, ref.radius) < 1e-12 and rel_err(r, 1.0) < 1e-12
    assert max_violation(P, rep.sphere.center, r) <= 1e-12 * r


def test_sampled_start_reads_the_clustered_cloud_once():
    """The sample's own min ball starts the repair: on this clustered cloud
    the ball from the sample's reduced set alone took four full scans
    (4.00 N rows); from the sample's min ball the rows are read about once."""
    P = generate("clustered", 1_000_000, seed=21)
    rep = solve(P, seed=21)
    ref, _ = welzl_solve(P)
    assert rep.scanned_rows < 1.5 * len(P), rep.scanned_rows
    r = rep.sphere.radius
    assert rel_err(r, ref.radius) < 1e-12
    on = np.linalg.norm(P[list(rep.support_indices)] - rep.sphere.center, axis=1)
    assert np.abs(on - r).max() <= 1e-12 * r  # support indices are rows of P


@pytest.mark.parametrize("chunks", [3, 8])
def test_invalid_rows_off_the_stride_are_rejected(chunks):
    """Of a sampled cloud only the sample is validated and solved before
    the repair, whose first full scan validates each chunk it reads. A bad
    coordinate on a row the sample skips, in the first chunk, on either
    side of a chunk boundary or in the short last block, raises as it does
    anywhere else."""
    c = welzl._SCAN_CHUNK
    P = generate("uniform-ball", chunks * c + 5, seed=6)
    step = projection._stride(len(P))
    rows = [i for i in (1, c - 1, c, c + 1, len(P) - 1) if i % step]
    assert step > 1 and {1, c - 1, c + 1, len(P) - 1} <= set(rows)  # all off the stride
    assert len(P) - 1 >= len(P) // welzl._BLOCK * welzl._BLOCK  # in the short last block
    for bad in (np.nan, np.inf, -np.inf, np.nextafter(1e150, np.inf)):
        for i in rows:
            for col in range(3):
                Q = P.copy()
                Q[i, col] = bad
                with pytest.raises(InvalidGeometryError):
                    solve(Q)


@pytest.mark.parametrize("s", [-600, -450])
def test_power_of_two_scaling_is_exact_on_a_sampled_cloud(s):
    """As ``test_power_of_two_scaling_is_exact``, on 3e5 points, whose
    sample is solved: the scaled sample is below 2**-400, so the whole
    cloud is validated and solved scaled to unit size, and the unit cloud,
    validated by the repair's first scan, gives the same answer times
    2**s."""
    f = 2.0 ** s
    for kind in kinds():
        P = generate(kind, 300_000, seed=0)
        unit, scaled = solve(P), solve(P * f)
        assert np.array_equal(scaled.sphere.center, unit.sphere.center * f), kind
        assert scaled.sphere.radius == unit.sphere.radius * f, kind
        assert scaled.support_indices == unit.support_indices, kind
        assert scaled.repair_rounds == unit.repair_rounds, kind


def test_tiny_sample_with_a_large_row_off_the_stride():
    """Every sampled row is below 2**-400 but a skipped row is 1.0: the
    sample cannot tell the cloud's scale, so the whole cloud is validated
    first, and the sphere is ``welzl_solve``'s and encloses every row."""
    P = generate("uniform-ball", 300_000, seed=8) * 2.0 ** -450
    step = projection._stride(len(P))
    P[step + 1] = (1.0, 0.0, 0.0)
    assert step > 1 and (step + 1) % step  # off the stride
    assert np.abs(P[::step]).max() < 2.0 ** -400
    rep = solve(P)
    ref, _ = welzl_solve(P)
    r = rep.sphere.radius
    assert rel_err(r, ref.radius) < 1e-12
    assert np.abs(rep.sphere.center - ref.center).max() <= 1e-12 * r
    assert max_violation(P, rep.sphere.center, r) <= 1e-12 * r


@pytest.mark.parametrize("kind", kinds())
def test_no_sample_below_sample_from(kind, monkeypatch):
    """Below ``_SAMPLE_FROM`` rows the stride is 1: the automatic k solves
    bit for bit as a named k = 1, on the whole cloud. One row more is
    sampled, one row in 32."""
    n = projection._SAMPLE_FROM - 1
    assert projection._stride(n) == 1 and projection._stride(n + 1) == 32
    P = generate(kind, n, seed=2)
    auto, seen, _ = _reduced_rows(monkeypatch, P, None)
    named = solve(P, sel=1)
    assert seen == [len(P)] * 2, kind
    assert np.array_equal(auto.sphere.center, named.sphere.center), kind
    assert auto.sphere.radius == named.sphere.radius, kind
    assert auto.support_indices == named.support_indices, kind
    assert (auto.reduced_size, auto.repair_rounds, auto.exact_pivots, auto.scanned_rows) == \
        (named.reduced_size, named.repair_rounds, named.exact_pivots, named.scanned_rows), kind


def test_sample_size_is_clarkson_sized():
    """The automatic k's sample, ``range(0, n, _stride(n))``, is the whole
    cloud below ``_SAMPLE_FROM`` rows and from there has between 1024 and
    2·max(1024, 4√n) rows, for n from 1 to 1e8: every n up to 1e5, then a
    geometric grid and the squares next to it."""
    grid = np.unique(np.geomspace(1e5, 1e8, 3000).astype(int)).tolist()
    ns = itertools.chain(range(1, 100_001), (m + d for m in grid for d in (-1, 0, 1)),
                         (math.isqrt(m) ** 2 + d for m in grid for d in (-1, 0, 1)))
    for n in ns:
        size = len(range(0, n, projection._stride(n)))
        if n < projection._SAMPLE_FROM:
            assert size == n, n
        else:
            assert 1024 <= size <= 2 * max(1024, 4 * math.sqrt(n)), n


@pytest.mark.parametrize("sel", [1, 6, KSelection("general", 24)])
def test_named_k_reduces_the_whole_cloud(sel, monkeypatch):
    """A named k reduces all rows, at any size: the reduced set is
    ``reduce``'s on the full cloud."""
    P = generate("uniform-ball", 200_000, seed=5)
    rep, seen, small = _reduced_rows(monkeypatch, P, sel)
    want = reduce(P, sel).indices
    assert seen == [len(P)]
    assert rep.reduced_size == len(want)
    assert np.array_equal(small[0], P[want])


@pytest.mark.parametrize("scale", [10.0 ** e for e in range(-12, 13)] + ["offset"],
                         ids=[f"1e{e}" for e in range(-12, 13)] + ["offset-1e6"])
def test_solve_is_scale_invariant(scale):
    """Every band is relative to what it tests, so every decade from 1e-12
    to 1e12, and a unit cloud moved by 1e6, solves like the unit cloud."""
    for i, kind in enumerate(kinds()):
        P = generate(kind, 1000, seed=i)
        P = P + 1e6 if scale == "offset" else P * scale
        rep = solve(P, seed=i)
        ref, _ = welzl_solve(P, seed=i)
        r = rep.sphere.radius
        assert rel_err(r, ref.radius) <= 1e-9, kind
        assert max_violation(P, rep.sphere.center, r) <= 1e-9 * r, kind


@pytest.mark.parametrize("s", [-900, -600, -450, -200, -140, 140, 200, 450])
def test_power_of_two_scaling_is_exact(s):
    """Scaling a cloud by 2**s scales both solvers' results exactly, far
    beyond where the cube of a squared extent leaves the double range: the
    circumsphere cores scale their offsets to unit size first once the
    squared extent leaves [2**-300, 2**300], and +-140 stays just inside.
    A cloud whose largest |coordinate| is below 2**-400 is solved scaled to
    unit size, so at -600 and -900 no squared distance underflows (both
    solvers returned radius 0.0 at -600 without that)."""
    f = 2.0 ** s
    for kind in kinds():
        P = generate(kind, 1000, seed=0)
        unit, scaled = solve(P), solve(P * f)
        assert np.array_equal(scaled.sphere.center, unit.sphere.center * f), kind
        assert scaled.sphere.radius == unit.sphere.radius * f, kind
        assert scaled.support_indices == unit.support_indices, kind
        assert scaled.repair_rounds == unit.repair_rounds, kind
        (w, wsup), (wf, wfsup) = welzl_solve(P), welzl_solve(P * f)
        assert np.array_equal(wf.center, w.center * f) and wf.radius == w.radius * f, kind
        assert wfsup.indices == wsup.indices, kind
        assert np.array_equal(wfsup.points, P[list(wsup.indices)] * f), kind


def test_clouds_beyond_1e150_are_rejected_not_solved_wrong():
    """Up to 1e150 the squared distances stay finite and the sphere encloses
    the cloud; beyond it both solvers raise instead of returning a sphere
    with radius inf (x1e160) or 0.0 (x1e200)."""
    P = generate("uniform-ball", 1000, seed=0)
    Q = P * (1e150 / np.abs(P).max())
    sphere = solve(Q).sphere
    r = sphere.radius
    assert math.isfinite(r) and max_violation(Q, sphere.center, r) <= 1e-9 * r
    for f in (1e160, 1e200):
        with pytest.raises(InvalidGeometryError):
            solve(P * f)
        with pytest.raises(InvalidGeometryError):
            welzl_solve(P * f)


def test_offset_cloud_pivots_like_the_unit_cloud():
    """A cloud moved 1e6 from the origin takes the same full-cloud pivots
    to the same support as at the origin, and never stalls: the outside
    test allows for the rounding of a centre stored near 1e6."""
    for i, kind in enumerate(kinds()):
        P = generate(kind, 10_000, seed=i)
        unit = solve(P, seed=i)
        moved = solve(P + 1e6, seed=i)
        assert moved.exact_pivots == 0, kind
        assert moved.repair_rounds == unit.repair_rounds, kind
        assert moved.support_indices == unit.support_indices, kind
        assert rel_err(moved.sphere.radius, unit.sphere.radius) < 1e-9, kind

