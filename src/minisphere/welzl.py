"""Exact smallest-enclosing-sphere solver.

Gaertner's pivoting ("Fast and Robust Smallest Enclosing Balls", 1999) on
Welzl's recursion (1991): the point farthest outside the current ball is
found with one vectorized scan, and the ball of the current support plus
that point, with the point pinned, replaces it. Pinned sets hold at most
four points, so no recursion is open-ended. Against a support of four,
the new point most often replaces one of them, so that sphere is tried
and checked before the recursion runs. ``projection.solve``'s repair
is this loop run over the full cloud from the reduced set's ball. That
ball is close to the answer, so the repair goes in batched rounds
(Badoiu and Clarkson, "Smaller core-sets for balls", 2003): each scan
keeps candidate rows outside the ball, and the pivots run over them in
memory before the next scan. Only the first scan is full: an upper bound
on the distance from the centre, grown by the centre's shift after each
round (Elkan's triangle-inequality bounds, "Using the triangle inequality
to accelerate k-means", 2003), certifies the rows a later scan skips. On
a cloud of at most one scan chunk each row keeps its own bound and every
row outside is a candidate; on a larger one each 64-row block keeps a
bound and its farthest row outside is the candidate. ``welzl_solve``
starts from four arbitrary rows, far from the answer, where rounds do
not pay on some kinds, so it finds each pivot with a full scan. Every
loop ends only on a scan that finds no point outside, every row it skips
certified by its bound.
Near-co-spherical inputs drive the ball constructors hard, so all
candidate-sphere math runs on bare floats, with two exceptions that use
exact rational arithmetic on at most five points (``_exact_ball``): a
degenerate pinned set, three collinear points or four coplanar ones,
for which ``geom``'s circumsphere cores return None (their one cut,
``geom._EPS``), and every pivot from the first one whose float ball did
not grow on. An exact ball is the exact min ball of its support, so from
then on each pivot grows the exact radius and the loop ends.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .geom import Sphere, _circum3, _circum4, _unit_cloud

_SCAN_CHUNK = 32768  # rows per farthest-point scan chunk: two 256 kB buffers
_SMALL_SCAN = 2048  # rows up to which a scan takes one (N, 3) temporary instead of the chunk buffers
_BLOCK = 64  # rows per candidate block of a batched scan; divides _SCAN_CHUNK; 128 and 256 took 5 scans where 64 took 2
# relative slack on r^2 in outside tests: ~1800 ulps, room for a constructed ball's rounding
_REL_BAND = 1.0 + 4e-13
_ULP = 2.0 ** -52  # one unit in the last place, relative to a coordinate's magnitude
_SLACK = 1.0 + 2.0 ** -40  # relative slack of a distance bound: a few dozen ulps
_TINY_D2 = 2.0 ** -1000  # absolute slack of a bound: the rounding of squares that underflow
# share of the bounds above which a rescan reads every row in place: where a
# gathered rescan of random entries took as long as a full scan (1e6 and 2e4)
_GATHER_BLOCKS = 2 / 3
_GATHER_ROWS = 1 / 8


class SupportSet(NamedTuple):
    """Points certifying the sphere: all lie on its boundary."""

    indices: tuple
    points: np.ndarray


class _Ball(NamedTuple):
    c: tuple  # (x, y, z)
    r2: float
    support: tuple  # entries are ((x, y, z), id)


def welzl_solve(points, seed: int = 0) -> tuple[Sphere, SupportSet]:
    """Smallest enclosing sphere of a 3D point cloud.

    Parameters
    ----------
    points : (N, 3) array-like, N >= 1.
    seed : int, accepted for callers that pass one; the solve is
        deterministic and does not read it.

    Returns
    -------
    (Sphere, SupportSet) where the support holds 1 to 4 input indices
    (sorted, deduplicated) of points on the sphere boundary.

    Every band is relative to what it tests, so there is nothing to tune:
    4e-13 of the squared radius, 1e-9 of a triple's or quadruple's extent.

    The pivoting starts from the exact min ball of the first (up to four)
    rows, so a caller that knows the final support can warm-start the
    solve by passing those rows first: then no pivot is needed. A cloud
    whose largest |coordinate| is below 2**-400 is solved scaled to unit
    size by a power of two, and its sphere scaled back (``geom._unit_cloud``).
    """
    P, e = _unit_cloud(points)
    sphere, support = _pivot_solve(P)[:2]
    if e:
        sphere, support = _scaled(sphere, e), SupportSet(support.indices, np.ldexp(support.points, e))
    return sphere, support


def _pivot_solve(P: np.ndarray, start=None) -> tuple[Sphere, SupportSet, int, int, int]:
    """Min ball of the rows of P, pivoting from ``start`` (see ``_pivot_ball``),
    by default from the first (up to) four rows: ``welzl_solve`` on a
    validated cloud.

    Returns the sphere, its support, the number of pivots taken, how many
    of them were exact and how many rows of P had their distance computed.
    """
    ball, pivots, exact, scanned = _pivot_ball(P, range(min(len(P), 4)) if start is None else start)
    rows = sorted({i for (_, i) in ball.support})
    support = SupportSet(tuple(rows), P[rows].copy())
    sphere = Sphere(np.array(ball.c, dtype=np.float64), math.sqrt(max(ball.r2, 0.0)))
    return sphere, support, pivots, exact, scanned


def _scaled(sphere: Sphere, e: int) -> Sphere:
    """``sphere`` scaled by 2**e."""
    return Sphere(np.ldexp(sphere.center, e), math.ldexp(sphere.radius, e))


def _solved_ball(P: np.ndarray, sphere: Sphere, rows) -> _Ball:
    """``sphere``, the min ball of some rows of P, with its support ``rows`` of P."""
    return _Ball(tuple(sphere.center.tolist()), sphere.radius * sphere.radius, tuple(_row(P, i) for i in rows))


def _pivot_ball(P: np.ndarray, start) -> tuple[_Ball, int, int, int]:
    """Min ball of the rows of P by Gaertner's pivoting, its pivot count,
    how many of those pivots were exact and how many rows of P had their
    distance from a centre computed.

    ``start`` is either one to four rows of P, whose exact min ball (plain
    Welzl) starts the pivoting, or a ``_Ball`` that already is the min ball
    of a subset of P (``_solved_ball``). Each pivot is the row farthest
    outside the ball; the min ball of the current support plus the pivot,
    with the pivot pinned, replaces the ball, so the radius grows every
    pivot and the loop ends. The first time rounding keeps that float ball
    from growing, the pivot is redone by ``_exact_ball`` on the support
    and the pivot, and so is every later pivot: the exact radius then
    grows strictly, as ``_limit`` covers the rounding of the stored ball.

    From rows, each pivot is found by a full scan. A solved subset's ball
    is close to the answer, so from it the pivots go in rounds (Badoiu and
    Clarkson's core-set rounds): a scan keeps candidate rows outside the
    ball (``_outside_rows``), every such row on a cloud of at most one
    scan chunk and the farthest of each block of ``_BLOCK`` rows on a
    larger one, and the pivots run over a copy of those candidates until
    none of them is outside. The first pivot of a round is the row a plain
    scan picks. The first scan of the cloud is full; later ones rescan
    only the rows or blocks whose distance bound the centre's shift may
    have pushed beyond the limit (``_grown``), and return the rows a full
    scan would. Either way the loop ends only on a scan that finds no row
    outside, with every other row certified by its bound.
    """
    if isinstance(start, _Ball):
        ball, ws = start, _workspace(len(P))
        most = int(len(ws[0]) * (_GATHER_ROWS if len(ws[0]) == len(P) else _GATHER_BLOCKS))
    else:
        first = tuple(_row(P, i) for i in start)
        ball, ws = _boundary_ball(first[:1]), None
        for k in range(1, len(first)):
            if _outside(ball, first[k]):
                ball = _pinned_ball(first[:k], (first[k],))
    pivots = exact = scanned = 0
    blocks = None  # every block: the first scan is full
    while True:
        if ws is None:
            rows = None
        else:
            rows, n = _outside_rows(P, ball, *ws, blocks)
            scanned += n
            if not len(rows):
                return ball, pivots, exact, scanned
        Q = P if rows is None else P[rows]
        c = ball.c
        while (j := _farthest_outside(Q, ball)) >= 0:
            ball, exact = _step(ball, (tuple(Q[j].tolist()), j if rows is None else int(rows[j])), exact)
            pivots += 1
        if rows is None:
            return ball, pivots, exact, len(P) * (pivots + 1)
        blocks = _grown(ws[0], c, ball, most)


def _step(ball: _Ball, e, exact: int) -> tuple[_Ball, int]:
    """The ball after pivot ``e``, and the count of exact pivots so far:
    the float ball of the support and ``e``, or ``_exact_ball`` from the
    first pivot that rounding kept from growing on."""
    grown = None if exact else _pinned_ball(ball.support, (e,))
    if grown is None or not grown.r2 > ball.r2:
        return _exact_ball(ball.support + (e,)), exact + 1
    return grown, exact


def _pinned_ball(entries: tuple, boundary: tuple) -> _Ball:
    """Min ball of at most four ``entries`` with ``boundary`` pinned.

    Plain Welzl: at this size the move-to-front bookkeeping costs more
    than the rescans it saves. A pivot against four support entries first
    tries ``_swapped_ball``.
    """
    if len(entries) == 4 and len(boundary) == 1:
        ball = _swapped_ball(entries, boundary[0])
        if ball is not None:
            return ball
    ball = _boundary_ball(boundary)
    far = None  # the ball's _limit, computed once it tests a point
    for k, e in enumerate(entries):
        if far is None:
            far = _limit(ball)
        if _outside(ball, e, far):
            pinned = boundary + (e,)
            ball = _pinned_ball(entries[:k], pinned) if k and len(pinned) < 4 else _boundary_ball(pinned)
            far = None
    return ball


def _swapped_ball(entries: tuple, e) -> _Ball | None:
    """Min ball of four support ``entries`` and an entry ``e`` outside
    their ball, if ``e`` replaces one of them; else None.

    The sphere through ``e`` and three of the entries is their min ball when
    its centre lies inside their tetrahedron, and then the min ball of all
    five when it holds the fourth entry too. The entry dropped is most
    often the one nearest to ``e``, so the two nearest are tried.
    """
    (px, py, pz), _ = e
    d2 = [(x - px) * (x - px) + (y - py) * (y - py) + (z - pz) * (z - pz) for (x, y, z), _ in entries]
    for i in sorted(range(4), key=d2.__getitem__)[:2]:
        rest = entries[:i] + entries[i + 1:]
        t = _circum4(e[0], rest[0][0], rest[1][0], rest[2][0])
        if t is None:
            continue
        ball = _Ball(t[:3], t[3], (e,) + rest)
        if t[4] > 0.0 and not _outside(ball, entries[i]):
            return ball
    return None


def _sq_dist(Q: np.ndarray, c, d: np.ndarray, s: np.ndarray) -> None:
    """Squared distances of the rows of Q from ``c`` into ``d``; ``s`` is scratch."""
    cx, cy, cz = c
    np.square(np.subtract(Q[:, 0], cx, out=d), out=d)
    d += np.square(np.subtract(Q[:, 1], cy, out=s), out=s)
    d += np.square(np.subtract(Q[:, 2], cz, out=s), out=s)


def _sq_offsets(Q: np.ndarray, c, out: np.ndarray | None = None) -> np.ndarray:
    """``_sq_dist``'s sums, in its order, through one (N, 3) temporary:
    fewer NumPy calls, for few rows."""
    T = np.subtract(Q, c)
    np.square(T, out=T)
    d = np.add(T[:, 0], T[:, 1], out=out)
    d += T[:, 2]
    return d


def _farthest_outside(P: np.ndarray, ball: _Ball) -> int:
    """Row of P farthest from the ball's centre if it lies outside, else -1.

    The first of equally far rows wins. Strided columns are scanned into
    two reused chunk buffers: no transposed copy of P, and a temporary
    only for a P of at most ``_SMALL_SCAN`` rows, where it saves calls.
    """
    far = _limit(ball)
    if len(P) <= _SMALL_SCAN:
        d = _sq_offsets(P, ball.c)
        i = int(d.argmax())
        return i if d[i] > far else -1
    j = -1
    d2, t = np.empty((2, min(len(P), _SCAN_CHUNK)))
    for lo in range(0, len(P), _SCAN_CHUNK):
        Q = P[lo:lo + _SCAN_CHUNK]
        d = d2[:len(Q)]
        _sq_dist(Q, ball.c, d, t[:len(Q)])
        i = int(d.argmax())
        if d[i] > far:
            far, j = float(d[i]), lo + i
    return j


def _workspace(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The batched scans' memory for n rows, one array: a squared-distance
    bound per row on a cloud of at most one scan chunk (at most
    ``_SCAN_CHUNK`` doubles), else one per block of ``_BLOCK`` rows (see
    ``_outside_rows``), and two chunk buffers."""
    blocks = -(-n // _BLOCK)
    m = n if n <= _SCAN_CHUNK else blocks
    size = min(blocks * _BLOCK, _SCAN_CHUNK)
    ws = np.empty(m + 2 * size)
    return ws[:m], ws[m:].reshape(2, size)


def _outside_rows(P: np.ndarray, ball: _Ball, bound: np.ndarray, bufs: np.ndarray,
                  blocks=None) -> tuple[np.ndarray, int]:
    """Rows of P to pivot over, in row order, and the count of rows whose
    distance was computed: with a bound per row (``bound, bufs =
    _workspace(len(P))``), every row beyond the ball's ``_limit``; with a
    bound per block, of each block of ``_BLOCK`` consecutive rows the
    farthest from the ball's centre if it lies outside.

    Only the ``blocks`` listed (ascending entries of ``bound``) are
    scanned, every entry if None, and each gets a new ``bound`` on the
    squared distance of its rows from the centre: a row's own distance,
    through ``_sq_offsets`` for listed rows. The first of equally far rows
    of a block wins, so either way the farthest of these rows, first of
    equals, is the row ``_farthest_outside`` picks. Listed blocks are
    gathered a chunk's worth at a time; distances land in the chunk
    buffers, padded with -inf to whole blocks. Only a chunk with a row
    outside pays for its block maxima; the blocks of any other chunk take
    the chunk's maximum as their bound.
    """
    far = _limit(ball)
    n = len(P)
    if len(bound) == n:
        if blocks is None:
            _sq_dist(P, ball.c, bound, bufs[0][:n])
            return np.flatnonzero(bound > far), n
        d = bound[blocks] = _sq_offsets(P[blocks], ball.c, bufs[0][:len(blocks)])
        return blocks[d > far], len(blocks)
    full = n // _BLOCK
    d2, t = bufs
    per = len(d2) // _BLOCK
    heads = np.arange(0, len(d2), _BLOCK)
    found = []
    scanned = 0
    for g in range(0, len(bound) if blocks is None else len(blocks), per):
        if blocks is None:
            b = slice(g, g + per)
            Q, base = P[g * _BLOCK:(g + per) * _BLOCK], g * _BLOCK
        else:
            b = blocks[g:g + per]
            short = int(b[-1]) == full  # the short last block, not in the block view
            Q = P[:full * _BLOCK].reshape(full, 3 * _BLOCK)[b[:len(b) - short]].reshape(-1, 3)
            if short:
                Q = np.concatenate((Q, P[full * _BLOCK:]))
            base = b * _BLOCK - heads[:len(b)]
        k = len(Q)
        d = d2[:-(-k // _BLOCK) * _BLOCK]
        _sq_dist(Q, ball.c, d[:k], t[:k])
        d[k:] = -np.inf
        top = d[d.argmax()]
        if top > far:
            i = d.reshape(-1, _BLOCK).argmax(axis=1)
            i += heads[:len(i)]
            top = d[i]
            found.append((i + base)[top > far])
        bound[b] = top
        scanned += k
    return (np.concatenate(found) if found else np.empty(0, dtype=np.intp)), scanned


def _grown(bound: np.ndarray, c, ball: _Ball, most: int) -> np.ndarray | None:
    """Entries of ``bound`` to rescan after a round moved the centre from
    ``c`` to the ball's, ascending; None for a full scan, which renews
    every bound: when the shift exceeds the new radius or more than
    ``most`` entries would be listed.

    Each bound covers the exact squared distances of its rows (a block's,
    or one row's) from the centre. It grows by the shift s: with R the
    square root of the new ``_limit``, (a + s)^2 <= a^2 (1 + s/R) +
    s (s + R) for every a, since 2aR <= a^2 + R^2, so no entry needs a
    root. The list is taken before the growth, against the cut the grown
    bound must pass, and only a list that is returned grows the bounds.
    Why an entry left out holds no row a full scan would flag: each
    subtraction, square and sum of ``_sq_dist`` is correctly rounded, so a
    computed squared distance is within a factor (1 +- 2**-53)^5 of the
    exact one, give or take 2**-1000 where squares underflow. ``_SLACK``
    and ``_TINY_D2`` cover that for a bound taken from computed distances,
    for the rounding of these updates, of the shift and of the cut, and,
    cut from the limit, for the distances a full scan would compute.
    """
    far = _limit(ball)
    r = math.sqrt(far)
    s = math.dist(c, ball.c) * _SLACK
    if not s <= r:
        return None
    grow = (1.0 + s / r) * _SLACK
    add = (s * (s + r) + _TINY_D2 * (1.0 + s / r)) * _SLACK
    cut = ((far - _TINY_D2) / (_SLACK * _SLACK) - add) / grow / _SLACK
    listed = np.flatnonzero(bound > cut)
    if len(listed) > most:
        return None
    bound *= grow
    bound += add
    return listed


def _outside(ball: _Ball, e, far: float | None = None) -> bool:
    """Whether entry ``e`` lies beyond the ball's ``_limit``, ``far`` if given."""
    (x, y, z), _ = e
    cx, cy, cz = ball.c
    dx, dy, dz = x - cx, y - cy, z - cz
    return dx * dx + dy * dy + dz * dz > (_limit(ball) if far is None else far)


def _limit(ball: _Ball) -> float:
    """Squared distance from the centre beyond which a point is outside.

    The radius is widened by the rounding of a stored centre, so that
    clouds far from the origin do not stall the pivoting.
    """
    cx, cy, cz = ball.c
    r = math.sqrt(ball.r2) + _ULP * max(abs(cx), abs(cy), abs(cz))
    return r * r * _REL_BAND


def _row(P: np.ndarray, i: int):
    return (tuple(P[i].tolist()), i)


def _exact_ball(entries: tuple) -> _Ball:
    """Min ball of at most five ``entries`` in exact arithmetic, rounded.

    Plain Welzl on ``Fraction`` coordinates. The sphere through a pinned
    set has its centre in their affine hull: the offset from the first
    pinned point is a combination of the offsets v_i of the others, whose
    weights solve the Gram system (v_i . v_j) w = |v_i|^2 / 2 by
    Gauss-Jordan. A pinned point in the affine hull of the others gets
    weight 0. The support is the pinned set of the exact ball, whose min
    ball it is; only the centre and the squared radius are rounded.
    """
    from fractions import Fraction  # imported here: loading it costs every import of the package ~2 ms

    pts = [tuple(map(Fraction, p)) for p, _ in entries]

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    def through(pinned):
        q = pts[pinned[0]]
        vs = [[a - b for a, b in zip(pts[i], q)] for i in pinned[1:]]
        m = len(vs)
        rows = [[dot(u, v) for v in vs] + [dot(u, u) / 2] for u in vs]
        for k in range(m):
            if not rows[k][k]:  # v_k is in the span of the earlier v; the Gram matrix is PSD, so its row is 0
                rows[k] = [0] * (m + 1)
                continue
            rows[k] = [x / rows[k][k] for x in rows[k]]
            for i in range(m):
                if i != k and rows[i][k]:
                    f = rows[i][k]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
        off = [sum(row[m] * v[t] for row, v in zip(rows, vs)) for t in range(3)]
        return [a + b for a, b in zip(q, off)], dot(off, off), pinned

    def welzl(n, pinned):  # min ball of pts[:n] with ``pinned`` on its boundary
        ball = through(pinned) if pinned else None
        for i in range(n):
            if ball is None or dot(d := [a - b for a, b in zip(pts[i], ball[0])], d) > ball[1]:
                ball = welzl(i, pinned + (i,)) if len(pinned) < 3 else through(pinned + (i,))
        return ball

    c, r2, pinned = welzl(len(pts), ())
    return _Ball(tuple(float(x) for x in c), float(r2), tuple(entries[i] for i in pinned))


def _boundary_ball(boundary: tuple) -> _Ball:
    """Smallest ball with one to four entries on its boundary: the point,
    the diametral ball of two, the circumsphere of three or four, or
    ``_exact_ball`` when those are collinear or coplanar (``geom._EPS``)."""
    n = len(boundary)
    if n == 1:
        return _Ball(boundary[0][0], 0.0, boundary)
    if n == 2:
        (ax, ay, az), (bx, by, bz) = boundary[0][0], boundary[1][0]
        dx, dy, dz = ax - bx, ay - by, az - bz
        c = (0.5 * (ax + bx), 0.5 * (ay + by), 0.5 * (az + bz))
        return _Ball(c, 0.25 * (dx * dx + dy * dy + dz * dz), boundary)
    if n == 3:
        t = _circum3(boundary[0][0], boundary[1][0], boundary[2][0])
    else:
        t = _circum4(boundary[0][0], boundary[1][0], boundary[2][0], boundary[3][0])
    return _exact_ball(boundary) if t is None else _Ball(t[:3], t[3], boundary)
