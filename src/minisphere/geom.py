"""Primitive sphere constructions and tolerance-aware predicates in 3D.

Points are plain sequences or numpy arrays of three floats; point clouds
are (N, 3) float64 arrays. All comparisons against a radius happen on
squared distances. Degeneracy thresholds are relative to the local extent
of the points involved, and containment bands are relative to the sphere
or to a given ``Tolerance``, so scaling a cloud scales every band with it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateCollinear,
    DegenerateCoplanar,
    EmptyInputError,
    InvalidGeometryError,
)


class Sphere(NamedTuple):
    """Center point (ndarray of shape (3,)) and non-negative radius."""

    center: np.ndarray
    radius: float


class Tolerance(NamedTuple):
    """Relative epsilon plus the length scale it applies to.

    ``scale`` is normally a cloud's bounding-box diagonal (``tolerance_for``)
    or a sphere's diameter (``contains``). The absolute tolerance used in
    containment checks is ``eps_rel * scale``.
    """

    eps_rel: float = 1e-9
    scale: float = 0.0

    @property
    def abs_eps(self) -> float:
        return self.eps_rel * self.scale


_DEFAULT_TOL = Tolerance()
_CHECK_ROWS = 32768  # rows per range-check chunk: 768 kB, so max() rereads min()'s rows from cache
_MAX_COORD = 1e150  # beyond it, squared distances leave the double range
# squared extents at which the circumsphere cores need no scaling: their
# cubes and every product they form stay far from over- and underflow
_FAIR_L2 = (2.0 ** -300, 2.0 ** 300)


def as_cloud(points) -> np.ndarray:
    """Validate and normalize a point cloud to a C-contiguous (N, 3) float64 array.

    An empty cloud raises EmptyInputError; a coordinate that is not finite
    or lies beyond ±1e150, where squared distances overflow, raises
    InvalidGeometryError. Chunked min and max: no (N, 3) temporary.
    """
    P = np.asarray(points, dtype=np.float64)
    if P.ndim == 1 and P.size == 0:
        P = P.reshape(0, 3)
    if P.ndim != 2 or P.shape[1] != 3:
        raise InvalidGeometryError(f"expected an (N, 3) point array, got shape {P.shape}")
    if P.shape[0] == 0:
        raise EmptyInputError("point cloud is empty")
    for lo in range(0, len(P), _CHECK_ROWS):
        Q = P[lo:lo + _CHECK_ROWS]
        if not -_MAX_COORD <= float(Q.min()) <= float(Q.max()) <= _MAX_COORD:  # NaN fails too
            raise InvalidGeometryError(f"coordinates must be finite and within ±{_MAX_COORD:g}")
    return np.ascontiguousarray(P)


def tolerance_for(points) -> Tolerance:
    """Tolerance whose scale is the bounding-box diagonal of ``points``.

    The relative epsilon is ``Tolerance``'s default; the oracles and the
    tests size their bands with it. The box is taken column by column,
    ~10x faster than axis-0 max/min on a row-major (N, 3) array.
    """
    P = as_cloud(points)
    hi = [float(P[:, i].max()) for i in range(3)]
    lo = [float(P[:, i].min()) for i in range(3)]
    return Tolerance(scale=math.sqrt(sum((h - l) ** 2 for h, l in zip(hi, lo))))


def _p3(p) -> tuple[float, float, float]:
    t = (float(p[0]), float(p[1]), float(p[2]))
    if not (math.isfinite(t[0]) and math.isfinite(t[1]) and math.isfinite(t[2])):
        raise InvalidGeometryError("point has non-finite coordinates")
    return t


def sphere_from_two(a, b) -> Sphere:
    """Smallest sphere through two points: midpoint center, half-distance radius."""
    ax, ay, az = _p3(a)
    bx, by, bz = _p3(b)
    cx = 0.5 * (ax + bx)
    cy = 0.5 * (ay + by)
    cz = 0.5 * (az + bz)
    dx, dy, dz = bx - ax, by - ay, bz - az
    r = 0.5 * math.sqrt(dx * dx + dy * dy + dz * dz)
    return Sphere(np.array((cx, cy, cz)), r)


def _circum3(pa, pb, pc, eps: float):
    """Circumcircle core on bare float triples: (ox, oy, oz, r2).

    No input validation, no square root; the hot path of the incremental
    solver runs through here. Collinearity test in squared form:
    ``|cross(b - a, c - a)|^2 <= (eps * L^2)^2`` with L^2 the largest
    squared pairwise distance of the triple. If L^2 lies outside
    ``_FAIR_L2``, the offsets are first scaled to unit size by an exact
    power of two, so that no product over- or underflows; inside it the
    scaling would change no bit of the result.
    """
    ax, ay, az = pa
    bx, by, bz = pb
    cx, cy, cz = pc
    bax, bay, baz = bx - ax, by - ay, bz - az
    cax, cay, caz = cx - ax, cy - ay, cz - az
    ux, uy, uz, vx, vy, vz = bax, bay, baz, cax, cay, caz
    wx, wy, wz = cx - bx, cy - by, cz - bz
    e = 0
    for scaled in (False, True):
        d11 = ux * ux + uy * uy + uz * uz
        d22 = vx * vx + vy * vy + vz * vz
        l2 = max(d11, d22, wx * wx + wy * wy + wz * wz)
        if scaled or _FAIR_L2[0] < l2 < _FAIR_L2[1]:
            break
        e, (ux, uy, uz, vx, vy, vz, wx, wy, wz) = _unit_scaled(ux, uy, uz, vx, vy, vz, wx, wy, wz)
    d12 = ux * vx + uy * vy + uz * vz
    det = d11 * d22 - d12 * d12  # == |cross(b-a, c-a)|**2
    if det <= (eps * l2) ** 2:
        raise DegenerateCollinear("three points are collinear within tolerance")
    alpha = d22 * (d11 - d12) / (2.0 * det)
    beta = d11 * (d22 - d12) / (2.0 * det)
    return (
        ax + alpha * bax + beta * cax,
        ay + alpha * bay + beta * cay,
        az + alpha * baz + beta * caz,
        math.ldexp(alpha * alpha * d11 + 2.0 * alpha * beta * d12 + beta * beta * d22, 2 * e),
    )


def _circum4(pa, pb, pc, pd, eps: float):
    """Circumsphere core on bare float triples: (ox, oy, oz, r2, w).

    ``w`` is the least barycentric weight of the centre: positive when the
    centre lies inside the tetrahedron, so that the sphere is the min ball
    of the four points. With b, c, d taken relative to a, the centre offset is
    ``(|b|^2 (c x d) + |c|^2 (d x b) + |d|^2 (b x c)) / (2 det)`` where
    ``det = b . (c x d)``. Coplanarity test kept in squared form to avoid
    square roots: ``det^2 <= (eps * L^3)^2`` with L the largest pairwise
    distance of the quadruple; offsets are scaled as in ``_circum3``.
    """
    ax, ay, az = pa
    bx, by, bz = pb[0] - ax, pb[1] - ay, pb[2] - az
    cx, cy, cz = pc[0] - ax, pc[1] - ay, pc[2] - az
    dx, dy, dz = pd[0] - ax, pd[1] - ay, pd[2] - az
    e = 0
    for scaled in (False, True):
        b2 = bx * bx + by * by + bz * bz
        c2 = cx * cx + cy * cy + cz * cz
        d2 = dx * dx + dy * dy + dz * dz
        ex, ey, ez = cx - bx, cy - by, cz - bz
        fx, fy, fz = dx - bx, dy - by, dz - bz
        gx, gy, gz = dx - cx, dy - cy, dz - cz
        l2 = max(b2, c2, d2, ex * ex + ey * ey + ez * ez, fx * fx + fy * fy + fz * fz,
                 gx * gx + gy * gy + gz * gz)
        if scaled or _FAIR_L2[0] < l2 < _FAIR_L2[1]:
            break
        e, (bx, by, bz, cx, cy, cz, dx, dy, dz) = _unit_scaled(bx, by, bz, cx, cy, cz, dx, dy, dz)
    cdx, cdy, cdz = cy * dz - cz * dy, cz * dx - cx * dz, cx * dy - cy * dx
    dbx, dby, dbz = dy * bz - dz * by, dz * bx - dx * bz, dx * by - dy * bx
    bcx, bcy, bcz = by * cz - bz * cy, bz * cx - bx * cz, bx * cy - by * cx
    det = bx * cdx + by * cdy + bz * cdz
    if det * det <= (eps * eps) * l2 ** 3:
        raise DegenerateCoplanar("four points are coplanar within tolerance")
    f = 0.5 / det
    x = (b2 * cdx + c2 * dbx + d2 * bcx) * f
    y = (b2 * cdy + c2 * dby + d2 * bcy) * f
    z = (b2 * cdz + c2 * dbz + d2 * bcz) * f
    wb = 2.0 * f * (x * cdx + y * cdy + z * cdz)  # barycentric weights of the centre
    wc = 2.0 * f * (x * dbx + y * dby + z * dbz)
    wd = 2.0 * f * (x * bcx + y * bcy + z * bcz)
    return (ax + math.ldexp(x, e), ay + math.ldexp(y, e), az + math.ldexp(z, e),
            math.ldexp(x * x + y * y + z * z, 2 * e), min(1.0 - wb - wc - wd, wb, wc, wd))


def _unit_scaled(*offsets):
    """(e, offsets * 2**-e) with the largest offset scaled into [0.5, 1): exact."""
    e = math.frexp(max(abs(t) for t in offsets))[1]
    return e, [math.ldexp(t, -e) for t in offsets]


def sphere_from_three(a, b, c, tol: Tolerance | None = None) -> Sphere:
    """Smallest sphere through three points (the circumcircle in their plane).

    Raises DegenerateCollinear when the triangle is flat within tolerance:
    ``|cross(b - a, c - a)| <= eps_rel * L**2`` with L the largest pairwise
    distance of the triple.
    """
    eps = (_DEFAULT_TOL if tol is None else tol).eps_rel
    ox, oy, oz, r2 = _circum3(_p3(a), _p3(b), _p3(c), eps)
    return Sphere(np.array((ox, oy, oz)), math.sqrt(r2))


def sphere_from_four(a, b, c, d, tol: Tolerance | None = None) -> Sphere:
    """Unique sphere through four points (circumsphere).

    Raises DegenerateCoplanar when the tetrahedron is flat within
    tolerance: ``|det| <= eps_rel * L**3`` with L the largest pairwise
    distance of the quadruple.
    """
    eps = (_DEFAULT_TOL if tol is None else tol).eps_rel
    ox, oy, oz, r2, _ = _circum4(_p3(a), _p3(b), _p3(c), _p3(d), eps)
    return Sphere(np.array((ox, oy, oz)), math.sqrt(r2))


def contains(sphere: Sphere, p, tol: Tolerance | None = None) -> bool:
    """True iff ``|p - center| <= radius + effective tolerance``.

    The comparison runs on squared distances to avoid a square root.
    Without ``tol`` the band is 1e-9 of the sphere's diameter.
    """
    t = Tolerance(scale=2.0 * float(sphere.radius)) if tol is None else tol
    px, py, pz = _p3(p)
    cx, cy, cz = float(sphere.center[0]), float(sphere.center[1]), float(sphere.center[2])
    dx, dy, dz = px - cx, py - cy, pz - cz
    lim = sphere.radius + t.abs_eps
    return dx * dx + dy * dy + dz * dz <= lim * lim
