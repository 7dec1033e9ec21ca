"""Exact smallest-enclosing-sphere solver.

Gaertner's pivoting ("Fast and Robust Smallest Enclosing Balls", 1999) on
Welzl's recursion (1991): the point farthest outside the current ball is
found with one vectorized scan, and the ball of the current support plus
that point, with the point pinned, replaces it. Pinned sets hold at most
four points, so no recursion is open-ended. Against a support of four,
the new point most often replaces one of them, so that sphere is tried
and checked before the recursion runs. ``projection.solve``'s repair
is this loop run over the full cloud from the reduced set's ball. That
ball is close to the answer, so on a cloud larger than one scan chunk
the repair goes in batched rounds (Badoiu and Clarkson, "Smaller
core-sets for balls", 2003): each full scan also keeps the farthest row
of every 64-row block that lies outside, and the pivots run over those
candidates in memory before the next full scan. ``welzl_solve`` starts
from four arbitrary rows, far from the answer, where such rounds cost
more than the scans they save on some kinds, so it finds each pivot with
a full scan. Either loop ends only on a full scan that finds no point
outside. Near-co-spherical inputs drive the ball constructors hard, so
all candidate-sphere math runs on bare floats, with two exceptions that
use exact rational arithmetic on at most five points (``_exact_ball``):
four pinned points that are coplanar, and every pivot from the first
one whose float ball did not grow on. An exact ball is the exact min ball
of its support, so from then on each pivot grows the exact radius and
the loop ends.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateCollinear, DegenerateCoplanar
from .geom import _DEFAULT_TOL, Sphere, _circum3, _circum4, as_cloud

_SCAN_CHUNK = 32768  # rows per farthest-point scan chunk: two 256 kB buffers
_BLOCK = 64  # rows per candidate block of a batched scan; divides _SCAN_CHUNK; 128 and 256 took 5 scans where 64 took 2
# relative slack on r^2 in outside tests: ~1800 ulps, room for a constructed ball's rounding
_REL_BAND = 1.0 + 4e-13
_EPS = _DEFAULT_TOL.eps_rel  # degeneracy cut, relative to the extent of the points tested
_ULP = 2.0 ** -52  # one unit in the last place, relative to a coordinate's magnitude


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
    solve by passing those rows first: then no pivot is needed.
    """
    P = as_cloud(points)
    return _pivot_solve(P, range(min(len(P), 4)))[:2]


def _pivot_solve(P: np.ndarray, start) -> tuple[Sphere, SupportSet, int, int]:
    """Min ball of the rows of P, pivoting from ``start`` (see ``_pivot_ball``).

    Returns the sphere, its support, the number of pivots taken and how
    many of them were exact.
    """
    ball, pivots, exact = _pivot_ball(P, start)
    rows = sorted({i for (_, i) in ball.support})
    support = SupportSet(tuple(rows), P[rows].copy())
    sphere = Sphere(np.array(ball.c, dtype=np.float64), math.sqrt(max(ball.r2, 0.0)))
    return sphere, support, pivots, exact


def _solved_ball(P: np.ndarray, sphere: Sphere, rows) -> _Ball:
    """``sphere``, the min ball of some rows of P, with its support ``rows`` of P."""
    return _Ball(tuple(sphere.center.tolist()), sphere.radius * sphere.radius, tuple(_row(P, i) for i in rows))


def _pivot_ball(P: np.ndarray, start) -> tuple[_Ball, int, int]:
    """Min ball of the rows of P by Gaertner's pivoting, its pivot count
    and how many of those pivots were exact.

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
    is close to the answer, and a cloud larger than one scan chunk then
    goes in rounds (Badoiu and Clarkson's core-set rounds): one full scan
    keeps the farthest row of each block of ``_BLOCK`` rows that lies
    outside (``_outside_rows``), and the pivots run over a copy of those
    candidates until none of them is outside. The first pivot of a round
    is the row a plain scan picks. Either way the loop ends only on a full
    scan that finds no row outside.
    """
    if isinstance(start, _Ball):
        ball, batched = start, len(P) > _SCAN_CHUNK
    else:
        first = tuple(_row(P, i) for i in start)
        ball, batched = _ball1(first[0]), False
        for k in range(1, len(first)):
            if _outside(ball, first[k]):
                ball = _pinned_ball(first[:k], (first[k],))
    pivots = exact = 0
    while True:
        rows = _outside_rows(P, ball) if batched else None
        Q = P if rows is None else P[rows]
        while (j := _farthest_outside(Q, ball)) >= 0:
            e = (tuple(Q[j].tolist()), j if rows is None else int(rows[j]))
            grown = None if exact else _pinned_ball(ball.support, (e,))
            if grown is None or not grown.r2 > ball.r2:
                grown = _exact_ball(ball.support + (e,))
                exact += 1
            ball = grown
            pivots += 1
        if rows is None or not len(rows):
            return ball, pivots, exact


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
        try:
            ox, oy, oz, r2, w = _circum4(e[0], rest[0][0], rest[1][0], rest[2][0], _EPS)
        except DegenerateCoplanar:
            continue
        ball = _Ball((ox, oy, oz), r2, (e,) + rest)
        if w > 0.0 and not _outside(ball, entries[i]):
            return ball
    return None


def _sq_dist(Q: np.ndarray, c, d: np.ndarray, s: np.ndarray) -> None:
    """Squared distances of the rows of Q from ``c`` into ``d``; ``s`` is scratch."""
    cx, cy, cz = c
    np.square(np.subtract(Q[:, 0], cx, out=d), out=d)
    d += np.square(np.subtract(Q[:, 1], cy, out=s), out=s)
    d += np.square(np.subtract(Q[:, 2], cz, out=s), out=s)


def _farthest_outside(P: np.ndarray, ball: _Ball) -> int:
    """Row of P farthest from the ball's centre if it lies outside, else -1.

    The first of equally far rows wins. Strided columns are scanned into
    two reused chunk buffers: no temporaries, no transposed copy of P.
    """
    far = _limit(ball)
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


def _outside_rows(P: np.ndarray, ball: _Ball) -> np.ndarray:
    """Rows of P to pivot over: of each block of ``_BLOCK`` consecutive
    rows, the farthest from the ball's centre if it lies outside; in row order.

    The first of equally far rows of a block wins, so the farthest of these
    rows, first of equals, is the row ``_farthest_outside`` picks. Only a
    chunk with a row outside pays for its block maxima. The chunk buffers
    are those of ``_farthest_outside``, padded with -inf to whole blocks.
    """
    far = _limit(ball)
    found = []
    heads = np.arange(0, _SCAN_CHUNK, _BLOCK)
    d2, t = np.empty((2, min(-(-len(P) // _BLOCK) * _BLOCK, _SCAN_CHUNK)))
    for lo in range(0, len(P), _SCAN_CHUNK):
        Q = P[lo:lo + _SCAN_CHUNK]
        _sq_dist(Q, ball.c, d2[:len(Q)], t[:len(Q)])
        d2[len(Q):] = -np.inf
        if d2[d2.argmax()] > far:
            i = d2.reshape(-1, _BLOCK).argmax(axis=1)
            i += heads[:len(i)]
            found.append(i[d2[i] > far] + lo)
    return np.concatenate(found) if found else np.empty(0, dtype=np.intp)


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


def _ball1(e) -> _Ball:
    return _Ball(e[0], 0.0, (e,))


def _ball2(e1, e2) -> _Ball:
    (ax, ay, az), (bx, by, bz) = e1[0], e2[0]
    c = (0.5 * (ax + bx), 0.5 * (ay + by), 0.5 * (az + bz))
    dx, dy, dz = ax - bx, ay - by, az - bz
    return _Ball(c, 0.25 * (dx * dx + dy * dy + dz * dz), (e1, e2))


def _ball3(e1, e2, e3) -> _Ball:
    try:
        ox, oy, oz, r2 = _circum3(e1[0], e2[0], e3[0], _EPS)
    except DegenerateCollinear:
        # collinear: the extreme pair's ball covers the middle point
        balls = (_ball2(e1, e2), _ball2(e1, e3), _ball2(e2, e3))
        return max(balls, key=lambda b: b.r2)
    return _Ball((ox, oy, oz), r2, (e1, e2, e3))


def _ball4(entries: tuple) -> _Ball:
    try:
        ox, oy, oz, r2, _ = _circum4(entries[0][0], entries[1][0], entries[2][0], entries[3][0], _EPS)
    except DegenerateCoplanar:
        return _exact_ball(entries)
    return _Ball((ox, oy, oz), r2, entries)


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
    n = len(boundary)
    if n == 1:
        return _ball1(boundary[0])
    if n == 2:
        return _ball2(boundary[0], boundary[1])
    if n == 3:
        return _ball3(boundary[0], boundary[1], boundary[2])
    if n == 4:
        return _ball4(boundary)
    raise AssertionError("boundary size out of range")
