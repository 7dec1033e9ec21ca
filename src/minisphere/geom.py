"""Primitive sphere constructions and tolerance-aware predicates in 3D.

Points are plain sequences or numpy arrays of three floats; point clouds
are (N, 3) float64 arrays. All comparisons against a radius happen on
squared distances. The one degeneracy cut, ``_EPS``, is relative to the
extent of the points tested, and the containment band to the sphere, so
scaling a cloud scales every band with it.
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


_EPS = 1e-9  # the degeneracy cut, relative to the extent of the points tested


class Tolerance(NamedTuple):
    """What ``tolerance_for`` returns: a cloud's bounding-box diagonal,
    whose product with ``_EPS``, ``abs_eps``, sizes the oracles' and the
    tests' enclosure bands."""

    scale: float

    @property
    def abs_eps(self) -> float:
        return _EPS * self.scale


_CHECK_ROWS = 32768  # rows per range-check chunk: 768 kB, so max() rereads min()'s rows from cache
_MAX_COORD = 1e150  # beyond it, squared distances leave the double range
_TINY_COORD = 2.0 ** -400  # below it, a cloud is solved scaled to unit size (``_unit_cloud``)
# squared extents at which the circumsphere cores need no scaling: their
# cubes and every product they form stay far from over- and underflow
_FAIR_L2 = (2.0 ** -300, 2.0 ** 300)


def as_cloud(points) -> np.ndarray:
    """Validate and normalize a point cloud to a C-contiguous (N, 3) float64 array.

    An empty cloud raises EmptyInputError; input that is not an (N, 3)
    array of real numbers, or a coordinate that is not finite or lies
    beyond ±1e150, where squared distances overflow, raises
    InvalidGeometryError. Chunked min and max: no (N, 3) temporary.
    """
    return _checked(points)[0]


def _unit_cloud(points) -> tuple[np.ndarray, int]:
    """``as_cloud(points)`` times 2**-e, and e: what the solvers solve.

    e is 0 unless the largest |coordinate| is below ``_TINY_COORD``, where
    differences of coordinates, multiples of their ulp, can square to
    below the normal range. Then the largest |coordinate| goes to [0.5, 1),
    and the caller scales its sphere back by 2**e. Both scalings are exact
    for normal doubles; subnormal input (below 2**-1022) gets its centre
    and radius rounded on the way back. The magnitude comes from
    validation's own min and max, so no pass is added. On a sampled cloud
    ``projection.solve`` calls it only if the sample's magnitude is below
    ``_TINY_COORD``: else e is 0, and its repair validates the cloud.
    """
    P, m = _checked(points)
    e = math.frexp(m)[1] if 0.0 < m < _TINY_COORD else 0
    return (np.ldexp(P, -e) if e else P), e


def _checked(points) -> tuple[np.ndarray, float]:
    """``as_cloud``'s array and the largest |coordinate| of the cloud,
    from ``_magnitude`` on each chunk of ``_CHECK_ROWS`` rows."""
    P = _as_array(points)
    return P, max(_magnitude(P[lo:lo + _CHECK_ROWS]) for lo in range(0, len(P), _CHECK_ROWS))


def _real_array(points) -> np.ndarray:
    """``points`` as a float64 array of any shape; InvalidGeometryError
    unless it holds only real numbers in rows of one length."""
    try:
        if getattr(getattr(points, "dtype", None), "kind", "") == "c":
            raise TypeError("complex coordinates")  # asarray would drop the imaginary part
        return np.asarray(points, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # ragged rows, strings, complex numbers
        raise InvalidGeometryError(f"expected an array of real numbers: {exc}") from None


def _as_array(points) -> np.ndarray:
    """``points`` as a C-contiguous (N, 3) float64 array with N >= 1, its
    coordinates not yet range-checked (``_magnitude`` does that)."""
    P = _real_array(points)
    if P.ndim == 1 and P.size == 0:
        P = P.reshape(0, 3)
    if P.ndim != 2 or P.shape[1] != 3:
        raise InvalidGeometryError(f"expected an (N, 3) point array, got shape {P.shape}")
    if P.shape[0] == 0:
        raise EmptyInputError("point cloud is empty")
    return np.ascontiguousarray(P)


def _magnitude(Q: np.ndarray) -> float:
    """Largest |coordinate| of the rows Q, from their min and max; raises
    InvalidGeometryError if a coordinate is not finite or lies beyond
    ±1e150."""
    a, b = float(Q.min()), float(Q.max())
    if not -_MAX_COORD <= a <= b <= _MAX_COORD:  # NaN fails too
        raise InvalidGeometryError(f"coordinates must be finite and within ±{_MAX_COORD:g}")
    return max(-a, b)


def tolerance_for(points) -> Tolerance:
    """Tolerance whose scale is the bounding-box diagonal of ``points``.

    The oracles and the tests size their bands with its ``abs_eps``. The
    box is taken column by column, ~10x faster than axis-0 max/min on a
    row-major (N, 3) array.
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


def _circum3(pa, pb, pc):
    """Circumcircle core on bare float triples: (ox, oy, oz, r2), or None
    when the triple is collinear within ``_EPS``.

    No input validation, no square root; the hot path of the incremental
    solver runs through here. With u = b - a and v = c - a, the cut, the
    centre and r2 share ``det = |u x v|^2``: the triple is collinear when
    ``det <= (_EPS * L^2)^2``, L^2 the largest squared pairwise distance.
    det computed from the cross product is off by about 2^-52 / sin(u, v)
    of itself, where ``|u|^2 |v|^2 - (u . v)^2`` is off by 2^-52 / sin^2,
    more than det itself near the cut; so only a triple within ~1e-7 of
    the cut may be cut in one order of its points and not in another.
    r2 is ``|u|^2 |v|^2 |c - b|^2 / (4 det)``, free of the cancellation
    that the quadratic form in the centre's weights suffers on the huge
    circle of a near-collinear triple. If L^2 lies outside ``_FAIR_L2``,
    the offsets are first scaled to unit size by an exact power of two,
    so that no product over- or underflows; inside it the scaling would
    change no bit of the result.
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
        d33 = wx * wx + wy * wy + wz * wz
        l2 = max(d11, d22, d33)
        if scaled or _FAIR_L2[0] < l2 < _FAIR_L2[1]:
            break
        e, (ux, uy, uz, vx, vy, vz, wx, wy, wz) = _unit_scaled(ux, uy, uz, vx, vy, vz, wx, wy, wz)
    nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    det = nx * nx + ny * ny + nz * nz
    if det <= (_EPS * l2) ** 2:
        return None
    d12 = ux * vx + uy * vy + uz * vz
    alpha = d22 * (d11 - d12) / (2.0 * det)
    beta = d11 * (d22 - d12) / (2.0 * det)
    return (
        ax + alpha * bax + beta * cax,
        ay + alpha * bay + beta * cay,
        az + alpha * baz + beta * caz,
        math.ldexp(d11 * d22 * d33 / (4.0 * det), 2 * e),
    )


def _circum4(pa, pb, pc, pd):
    """Circumsphere core on bare float triples: (ox, oy, oz, r2, w), or
    None when the quadruple is coplanar within ``_EPS``.

    ``w`` is the least barycentric weight of the centre: positive when the
    centre lies inside the tetrahedron, so that the sphere is the min ball
    of the four points. With b, c, d taken relative to a, the centre offset is
    ``(|b|^2 (c x d) + |c|^2 (d x b) + |d|^2 (b x c)) / (2 det)`` where
    ``det = b . (c x d)``. Coplanarity test kept in squared form to avoid
    square roots: ``det^2 <= (_EPS * L^3)^2`` with L the largest pairwise
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
    if det * det <= (_EPS * _EPS) * l2 ** 3:
        return None
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


def sphere_from_three(a, b, c) -> Sphere:
    """Smallest sphere through three points (the circumcircle in their plane).

    Raises DegenerateCollinear when the triangle is flat within ``_EPS``,
    in every order of the points: ``|cross(b - a, c - a)| <= 1e-9 * L**2``
    with L the largest pairwise distance of the triple.
    """
    t = _circum3(_p3(a), _p3(b), _p3(c))
    if t is None:
        raise DegenerateCollinear("three points are collinear within tolerance")
    return Sphere(np.array(t[:3]), math.sqrt(t[3]))


def sphere_from_four(a, b, c, d) -> Sphere:
    """Unique sphere through four points (circumsphere).

    Raises DegenerateCoplanar when the tetrahedron is flat within
    ``_EPS``: ``|det| <= 1e-9 * L**3`` with L the largest pairwise
    distance of the quadruple.
    """
    t = _circum4(_p3(a), _p3(b), _p3(c), _p3(d))
    if t is None:
        raise DegenerateCoplanar("four points are coplanar within tolerance")
    return Sphere(np.array(t[:3]), math.sqrt(t[3]))


def contains(sphere: Sphere, p) -> bool:
    """True iff ``|p - center| <= radius`` within a band of ``_EPS`` times
    the sphere's diameter.

    The comparison runs on squared distances to avoid a square root.
    """
    px, py, pz = _p3(p)
    cx, cy, cz = float(sphere.center[0]), float(sphere.center[1]), float(sphere.center[2])
    dx, dy, dz = px - cx, py - cy, pz - cz
    lim = sphere.radius + _EPS * (2.0 * float(sphere.radius))
    return dx * dx + dy * dy + dz * dz <= lim * lim
