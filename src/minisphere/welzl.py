"""Exact smallest-enclosing-sphere solver.

Gaertner's pivoting ("Fast and Robust Smallest Enclosing Balls", 1999) on
Welzl's recursion (1991): the point farthest outside the current ball is
found with one vectorized scan, and the ball of the current support plus
that point, with the point pinned, replaces it. Pinned sets hold at most
four points, so no recursion is open-ended. ``projection.solve``'s repair
is this loop run over the full cloud from the reduced set's support. If
rounding stalls the pivoting, a move-to-front Welzl scan over a shuffled
copy finishes the solve. It keeps one array per coordinate, reordered in
place, and looks for the first point outside with a chunked vectorized
scan.
Near-co-spherical inputs drive the ball constructors hard, so all
candidate-sphere math runs on bare floats.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import DegenerateCollinear, DegenerateCoplanar, EmptyInputError
from .geom import _DEFAULT_TOL, Sphere, _circum3, _circum4, as_cloud

_CHUNK = 8192
_SCAN_CHUNK = 32768  # rows per farthest-point scan chunk: two 256 kB buffers
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


class _Ctx:
    """Coordinates in solve order and their input rows.

    One contiguous array per coordinate and one of input rows, which the
    move-to-front rule reorders in place.
    """

    __slots__ = ("xs", "ys", "zs", "ids")

    def __init__(self, xs, ys, zs, ids):
        self.xs, self.ys, self.zs, self.ids = xs, ys, zs, ids

    @classmethod
    def of(cls, P: np.ndarray, order: np.ndarray) -> "_Ctx":
        """Rows ``order`` of P; ``order`` becomes the ids array."""
        return cls(P[order, 0], P[order, 1], P[order, 2], order)

    def entry(self, row: int):
        return ((float(self.xs[row]), float(self.ys[row]), float(self.zs[row])), int(self.ids[row]))

    def to_front(self, row: int) -> None:
        """Move position ``row`` to position 0, shifting [0, row) up by one."""
        if row == 0:
            return
        for seq in (self.xs, self.ys, self.zs, self.ids):
            head = seq[row]
            seq[1:row + 1] = seq[:row]
            seq[0] = head


def welzl_solve(points, seed: int = 0) -> tuple[Sphere, SupportSet]:
    """Smallest enclosing sphere of a 3D point cloud.

    Parameters
    ----------
    points : (N, 3) array-like, N >= 1.
    seed : int, seeds the shuffle of the move-to-front fallback, which
        runs only if rounding stalls the pivoting.

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
    return _pivot_solve(P, range(min(len(P), 4)), seed)[:2]


def _pivot_solve(P: np.ndarray, start, seed: int) -> tuple[Sphere, SupportSet, int, bool]:
    """Min ball of the rows of P, pivoting from the exact ball of rows ``start``.

    Returns the sphere, its support, the number of pivots taken and
    whether rounding stalled them, in which case a move-to-front Welzl
    over a ``seed``-shuffled copy of P finished the solve.
    """
    ball, pivots = _pivot_ball(P, start)
    stalled = ball is None
    if stalled:
        order = np.random.default_rng(seed).permutation(len(P))
        ball = _min_ball(_Ctx.of(P, order), len(P), ())
    rows = sorted({i for (_, i) in ball.support})
    support = SupportSet(tuple(rows), P[rows].copy())
    sphere = Sphere(np.array(ball.c, dtype=np.float64), math.sqrt(max(ball.r2, 0.0)))
    return sphere, support, pivots, stalled


def _pivot_ball(P: np.ndarray, start) -> tuple[_Ball | None, int]:
    """Min ball of the rows of P by Gaertner's pivoting, and its pivot count.

    The start ball is the exact min ball of the (one to four) rows
    ``start``, by plain Welzl. Each pivot is then the row farthest outside
    the ball; the min ball of the current support plus the pivot, with the
    pivot pinned, replaces the ball, so the radius grows every round and
    the loop ends. The ball is None if rounding stalls the growth.
    """
    first = tuple(_row(P, i) for i in start)
    ball = _ball1(first[0])
    for k in range(1, len(first)):
        if _outside(ball, first[k]):
            ball = _pinned_ball(first[:k], (first[k],))
    pivots = 0
    while True:
        j = _farthest_outside(P, ball)
        if j < 0:
            return ball, pivots
        grown = _pinned_ball(ball.support, (_row(P, j),))
        pivots += 1
        if not grown.r2 > ball.r2:
            return None, pivots
        ball = grown


def _pinned_ball(entries: tuple, boundary: tuple) -> _Ball:
    """Min ball of at most four ``entries`` with ``boundary`` pinned.

    Plain Welzl: at this size the move-to-front bookkeeping costs more
    than the rescans it saves.
    """
    ball = _boundary_ball(boundary)
    for k, e in enumerate(entries):
        if _outside(ball, e):
            pinned = boundary + (e,)
            ball = _ball4(pinned) if len(pinned) == 4 else _pinned_ball(entries[:k], pinned)
    return ball


def _min_ball(ctx: _Ctx, m: int, boundary: tuple) -> _Ball:
    """Min ball of positions [0, m) with ``boundary`` pinned on the sphere.

    Move-to-front (Gaertner 1999): a point found outside is solved against
    the prefix before it, then moved to the front, where later rescans of
    the prefix meet it first. The scan continues after its old position.
    """
    if boundary:
        ball = _boundary_ball(boundary)
        start = 0
    else:
        if m == 0:
            raise EmptyInputError("no points")
        ball = _ball1(ctx.entry(0))
        start = 1
    while True:
        j = _first_outside(ctx, ball, start, m)
        if j < 0:
            return ball
        e = ctx.entry(j)
        if len(boundary) == 3:
            # four pinned points determine the sphere outright
            ball = _ball4(boundary + (e,))
        else:
            ball = _min_ball(ctx, j, boundary + (e,))
        ctx.to_front(j)
        start = j + 1


def _first_outside(ctx: _Ctx, ball: _Ball, start: int, stop: int) -> int:
    if start >= stop:
        return -1
    cx, cy, cz = ball.c
    thr = _limit(ball)
    xs, ys, zs = ctx.xs, ctx.ys, ctx.zs
    for lo in range(start, stop, _CHUNK):
        hi = min(lo + _CHUNK, stop)
        d2 = np.square(xs[lo:hi] - cx)
        d2 += np.square(ys[lo:hi] - cy)
        d2 += np.square(zs[lo:hi] - cz)
        bad = d2 > thr
        if bad.any():
            return lo + int(bad.argmax())
    return -1


def _farthest_outside(P: np.ndarray, ball: _Ball) -> int:
    """Row of P farthest from the ball's centre if it lies outside, else -1.

    The first of equally far rows wins. Strided columns are scanned into
    two reused chunk buffers: no temporaries, no transposed copy of P.
    """
    cx, cy, cz = ball.c
    far = _limit(ball)
    j = -1
    d2, t = np.empty((2, min(len(P), _SCAN_CHUNK)))
    for lo in range(0, len(P), _SCAN_CHUNK):
        Q = P[lo:lo + _SCAN_CHUNK]
        d, s = d2[:len(Q)], t[:len(Q)]
        np.square(np.subtract(Q[:, 0], cx, out=d), out=d)
        d += np.square(np.subtract(Q[:, 1], cy, out=s), out=s)
        d += np.square(np.subtract(Q[:, 2], cz, out=s), out=s)
        i = int(d.argmax())
        if d[i] > far:
            far, j = float(d[i]), lo + i
    return j


def _outside(ball: _Ball, e) -> bool:
    (x, y, z), _ = e
    cx, cy, cz = ball.c
    dx, dy, dz = x - cx, y - cy, z - cz
    return dx * dx + dy * dy + dz * dz > _limit(ball)


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
        ox, oy, oz, r2 = _circum4(entries[0][0], entries[1][0], entries[2][0], entries[3][0], _EPS)
    except DegenerateCoplanar:
        return _flat4(entries)
    return _Ball((ox, oy, oz), r2, entries)


def _flat4(entries: tuple) -> _Ball:
    """Min enclosing ball of four coplanar points: pair and triple candidates."""
    pts = [e[0] for e in entries]
    l2 = 0.0
    for (ax, ay, az), (bx, by, bz) in combinations(pts, 2):
        dx, dy, dz = ax - bx, ay - by, az - bz
        l2 = max(l2, dx * dx + dy * dy + dz * dz)
    lam = _EPS * math.sqrt(l2)

    cands = []
    for i, j in combinations(range(4), 2):
        cands.append(_ball2(entries[i], entries[j]))
    for i, j, k in combinations(range(4), 3):
        try:
            ox, oy, oz, r2 = _circum3(entries[i][0], entries[j][0], entries[k][0], _EPS)
        except DegenerateCollinear:
            continue  # its extreme pair is already a candidate
        cands.append(_Ball((ox, oy, oz), r2, (entries[i], entries[j], entries[k])))

    best = None
    least_bad = None
    for ball in cands:
        cx, cy, cz = ball.c
        d2 = 0.0
        for px, py, pz in pts:
            dx, dy, dz = px - cx, py - cy, pz - cz
            d2 = max(d2, dx * dx + dy * dy + dz * dz)
        lim = math.sqrt(ball.r2) + lam
        if d2 <= lim * lim:
            if best is None or ball.r2 < best.r2:
                best = ball
        gap = d2 - ball.r2
        if least_bad is None or gap < least_bad[0]:
            least_bad = (gap, ball)
    if best is not None:
        return best
    return least_bad[1]  # nothing enclosed within band; least-violating candidate


def _boundary_ball(boundary: tuple) -> _Ball:
    n = len(boundary)
    if n == 1:
        return _ball1(boundary[0])
    if n == 2:
        return _ball2(boundary[0], boundary[1])
    if n == 3:
        return _ball3(boundary[0], boundary[1], boundary[2])
    raise AssertionError("boundary size out of range")
