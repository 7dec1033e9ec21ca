"""Exact smallest-enclosing-sphere solver.

Gaertner's pivoting ("Fast and Robust Smallest Enclosing Balls", 1999) on
Welzl's recursion (1991): the point farthest outside the current ball is
found with one vectorized scan, and the ball of the current support plus
that point, with the point pinned, replaces it. Pinned sets hold at most
four points, so no recursion is open-ended. If rounding stalls the
pivoting, a move-to-front Welzl scan over a shuffled copy finishes the
solve; it also serves ``min_sphere_with_boundary``. Near-co-spherical
inputs drive the ball constructors hard, so all candidate-sphere math runs
on bare floats.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import DegenerateCollinear, DegenerateCoplanar, EmptyInputError, InvalidGeometryError
from .geom import Sphere, Tolerance, _circum3, _circum4, as_cloud, tolerance_for

_CHUNK = 8192
# below this the pure-scalar scan beats vectorized-call overhead
_SMALL = 3072
# relative slack on r^2 in violation tests; well below any user tolerance
_REL_BAND = 1.0 + 4e-13


class SupportSet(NamedTuple):
    """Points certifying the sphere: all lie on its boundary."""

    indices: tuple
    points: np.ndarray


class _Ball(NamedTuple):
    c: tuple  # (x, y, z)
    r2: float
    support: tuple  # entries are ((x, y, z), id)


class _Ctx:
    """Coordinates in solve order, their input rows and tolerance bands.

    The move-to-front rule reorders this storage in place: flat lists up
    to _SMALL points, one contiguous array per coordinate above that.
    """

    __slots__ = ("xs", "ys", "zs", "ids", "small", "n", "eps", "abs2")

    def __init__(self, xs, ys, zs, ids, tol: Tolerance):
        self.xs, self.ys, self.zs, self.ids = xs, ys, zs, ids
        self.small = isinstance(ids, list)
        self.n = len(ids)
        self.eps = tol.eps_rel
        self.abs2 = (1e-14 * tol.scale) ** 2

    @classmethod
    def of(cls, P: np.ndarray, order: np.ndarray, tol: Tolerance) -> "_Ctx":
        """Rows ``order`` of P, as lists up to _SMALL points and arrays above."""
        cols = (P[order, 0], P[order, 1], P[order, 2])
        if len(order) <= _SMALL:
            return cls(*(c.tolist() for c in cols), order.tolist(), tol)
        return cls(*cols, order, tol)

    def entry(self, row: int):
        if self.small:
            return ((self.xs[row], self.ys[row], self.zs[row]), self.ids[row])
        return ((float(self.xs[row]), float(self.ys[row]), float(self.zs[row])), int(self.ids[row]))

    def to_front(self, row: int) -> None:
        """Move position ``row`` to position 0, shifting [0, row) up by one."""
        if row == 0:
            return
        seqs = (self.xs, self.ys, self.zs, self.ids)
        if self.small:
            for seq in seqs:
                seq.insert(0, seq.pop(row))
            return
        for seq in seqs:
            head = seq[row]
            seq[1:row + 1] = seq[:row]
            seq[0] = head


def welzl_solve(points, seed: int = 0, tol: Tolerance | None = None) -> tuple[Sphere, SupportSet]:
    """Smallest enclosing sphere of a 3D point cloud.

    Parameters
    ----------
    points : (N, 3) array-like, N >= 1.
    seed : int, seeds the shuffle of the move-to-front fallback, which
        runs only if rounding stalls the pivoting.
    tol : optional Tolerance; defaults to one scaled to the cloud.

    Returns
    -------
    (Sphere, SupportSet) where the support holds 1 to 4 input indices
    (sorted, deduplicated) of points on the sphere boundary.

    The pivoting starts from the min ball of the first (up to four) rows,
    so a caller that knows a near-final support can warm-start the solve
    by passing those rows first.
    """
    P = as_cloud(points)
    if tol is None:
        tol = tolerance_for(P)
    ball = _pivot_ball(P, tol)
    if ball is None:
        order = np.random.default_rng(seed).permutation(len(P))
        ball = _min_ball(_Ctx.of(P, order, tol), len(P), ())
    rows = sorted({i for (_, i) in ball.support})
    support = SupportSet(tuple(rows), P[rows].copy())
    sphere = Sphere(np.array(ball.c, dtype=np.float64), math.sqrt(max(ball.r2, 0.0)))
    return sphere, support


def min_sphere_with_boundary(points, boundary, tol: Tolerance | None = None) -> Sphere:
    """Smallest sphere enclosing ``points`` with every ``boundary`` point on it.

    ``boundary`` holds 0 to 4 points; with 4 the sphere is fully determined
    and ``points`` is ignored. ``points`` may be empty when the boundary is
    not. No shuffle is applied: callers pass pre-screened small inputs.
    """
    B = as_cloud(boundary, allow_empty=True)
    if len(B) > 4:
        raise InvalidGeometryError(f"a sphere boundary takes at most 4 points, got {len(B)}")
    P = as_cloud(points, allow_empty=True)
    if len(P) == 0 and len(B) == 0:
        raise EmptyInputError("no points and no boundary")
    if tol is None:
        tol = tolerance_for(np.concatenate([P, B], axis=0))
    ext = tuple(((float(p[0]), float(p[1]), float(p[2])), -1 - i) for i, p in enumerate(B))
    if len(ext) == 4:
        ball = _ball4(ext, tol.eps_rel)
    elif len(P) == 0:
        ball = _boundary_ball(ext, tol.eps_rel)
    else:
        ball = _min_ball(_Ctx.of(P, np.arange(len(P)), tol), len(P), ext)
    return Sphere(np.array(ball.c, dtype=np.float64), math.sqrt(max(ball.r2, 0.0)))


def _pivot_ball(P: np.ndarray, tol: Tolerance) -> _Ball | None:
    """Min ball of the rows of P by Gaertner's pivoting.

    Each pivot lies outside the current ball: first rows 1 to 3 in turn,
    then always the row farthest outside. The min ball of the current
    support plus the pivot, with the pivot pinned, replaces the ball, so
    the radius grows every round and the loop ends. Returns None if
    rounding stalls the growth.
    """
    eps, abs2 = tol.eps_rel, (1e-14 * tol.scale) ** 2
    ball = _ball1(_row(P, 0))
    for i in range(1, min(len(P), 4)):
        e = _row(P, i)
        if _outside(ball, e, abs2):
            ball = _pinned_ball(ball.support, (e,), eps, abs2)
    while True:
        j = _farthest_outside(P, ball, abs2)
        if j < 0:
            return ball
        grown = _pinned_ball(ball.support, (_row(P, j),), eps, abs2)
        if not grown.r2 > ball.r2:
            return None
        ball = grown


def _pinned_ball(entries: tuple, boundary: tuple, eps: float, abs2: float) -> _Ball:
    """Min ball of at most four ``entries`` with ``boundary`` pinned.

    Plain Welzl: at this size the move-to-front bookkeeping costs more
    than the rescans it saves.
    """
    ball = _boundary_ball(boundary, eps)
    for k, e in enumerate(entries):
        if _outside(ball, e, abs2):
            pinned = boundary + (e,)
            ball = _ball4(pinned, eps) if len(pinned) == 4 else _pinned_ball(entries[:k], pinned, eps, abs2)
    return ball


def _min_ball(ctx: _Ctx, m: int, boundary: tuple) -> _Ball:
    """Min ball of positions [0, m) with ``boundary`` pinned on the sphere.

    Move-to-front (Gaertner 1999): a point found outside is solved against
    the prefix before it, then moved to the front, where later rescans of
    the prefix meet it first. The scan continues after its old position.
    """
    if boundary:
        ball = _boundary_ball(boundary, ctx.eps)
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
            ball = _ball4(boundary + (e,), ctx.eps)
        else:
            ball = _min_ball(ctx, j, boundary + (e,))
        ctx.to_front(j)
        start = j + 1


def _first_outside(ctx: _Ctx, ball: _Ball, start: int, stop: int) -> int:
    if start >= stop:
        return -1
    cx, cy, cz = ball.c
    thr = ball.r2 * _REL_BAND + ctx.abs2
    xs, ys, zs = ctx.xs, ctx.ys, ctx.zs
    if ctx.small:
        for i in range(start, stop):
            dx = xs[i] - cx
            dy = ys[i] - cy
            dz = zs[i] - cz
            if dx * dx + dy * dy + dz * dz > thr:
                return i
        return -1
    for lo in range(start, stop, _CHUNK):
        hi = min(lo + _CHUNK, stop)
        d2 = np.square(xs[lo:hi] - cx)
        d2 += np.square(ys[lo:hi] - cy)
        d2 += np.square(zs[lo:hi] - cz)
        bad = d2 > thr
        if bad.any():
            return lo + int(bad.argmax())
    return -1


def _farthest_outside(P: np.ndarray, ball: _Ball, abs2: float) -> int:
    """Row of P farthest from the ball's centre if it lies outside, else -1."""
    c = np.array(ball.c)
    far = ball.r2 * _REL_BAND + abs2
    j = -1
    for lo in range(0, len(P), _CHUNK):
        d = P[lo:lo + _CHUNK] - c
        d2 = np.einsum("ij,ij->i", d, d)
        i = int(d2.argmax())
        if d2[i] > far:
            far, j = float(d2[i]), lo + i
    return j


def _outside(ball: _Ball, e, abs2: float) -> bool:
    (x, y, z), _ = e
    cx, cy, cz = ball.c
    dx, dy, dz = x - cx, y - cy, z - cz
    return dx * dx + dy * dy + dz * dz > ball.r2 * _REL_BAND + abs2


def _row(P: np.ndarray, i: int):
    return (tuple(P[i].tolist()), i)


def _ball1(e) -> _Ball:
    return _Ball(e[0], 0.0, (e,))


def _ball2(e1, e2) -> _Ball:
    (ax, ay, az), (bx, by, bz) = e1[0], e2[0]
    c = (0.5 * (ax + bx), 0.5 * (ay + by), 0.5 * (az + bz))
    dx, dy, dz = ax - bx, ay - by, az - bz
    return _Ball(c, 0.25 * (dx * dx + dy * dy + dz * dz), (e1, e2))


def _ball3(e1, e2, e3, eps: float) -> _Ball:
    try:
        ox, oy, oz, r2 = _circum3(e1[0], e2[0], e3[0], eps)
    except DegenerateCollinear:
        # collinear: the extreme pair's ball covers the middle point
        balls = (_ball2(e1, e2), _ball2(e1, e3), _ball2(e2, e3))
        return max(balls, key=lambda b: b.r2)
    return _Ball((ox, oy, oz), r2, (e1, e2, e3))


def _ball4(entries: tuple, eps: float) -> _Ball:
    try:
        ox, oy, oz, r2 = _circum4(entries[0][0], entries[1][0], entries[2][0], entries[3][0], eps)
    except DegenerateCoplanar:
        return _flat4(entries, eps)
    return _Ball((ox, oy, oz), r2, entries)


def _flat4(entries: tuple, eps: float) -> _Ball:
    """Min enclosing ball of four coplanar points: pair and triple candidates."""
    pts = [e[0] for e in entries]
    l2 = 0.0
    for (ax, ay, az), (bx, by, bz) in combinations(pts, 2):
        dx, dy, dz = ax - bx, ay - by, az - bz
        l2 = max(l2, dx * dx + dy * dy + dz * dz)
    lam = eps * math.sqrt(l2)

    cands = []
    for i, j in combinations(range(4), 2):
        cands.append(_ball2(entries[i], entries[j]))
    for i, j, k in combinations(range(4), 3):
        try:
            ox, oy, oz, r2 = _circum3(entries[i][0], entries[j][0], entries[k][0], eps)
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


def _boundary_ball(boundary: tuple, eps: float) -> _Ball:
    n = len(boundary)
    if n == 1:
        return _ball1(boundary[0])
    if n == 2:
        return _ball2(boundary[0], boundary[1])
    if n == 3:
        return _ball3(boundary[0], boundary[1], boundary[2], eps)
    raise AssertionError("boundary size out of range")
