"""Seeded point-cloud generators for tests and benchmarks.

Every generator is deterministic for a fixed (kind, n, seed) triple and
returns an (n, 3) float64 array at unit size: the unit ball or sphere, the
unit cube, a unit disk (with 1e-8 of normal jitter when near-degenerate),
a unit segment, or five clusters of spread 0.05. Degenerate kinds satisfy
their defining constraint exactly in double precision: collinear and
coplanar clouds are built on a dyadic coordinate grid with small integer
frame vectors, so every product and sum in ``base + s * direction`` is
exact and cross products of point differences cancel to literal 0.0.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParamsError, UnknownKindError

# Snap grids. Direction vectors use 2**-20 so that (2**-26 parameter) *
# (2**-20 coordinate) products stay inside the 53-bit mantissa.
_PARAM_SNAP = 2.0 ** 26
_DIR_SNAP = 2.0 ** 20


def _snap(x, grid):
    return np.round(np.asarray(x, dtype=np.float64) * grid) / grid


def _unit_rows(rng, n):
    v = rng.normal(size=(n, 3))
    norm = np.linalg.norm(v, axis=1)
    norm = np.maximum(norm, 1e-300)
    return v / norm[:, None]


def _uniform_ball(rng, n):
    dirs = _unit_rows(rng, n)
    radii = rng.uniform(0.0, 1.0, n) ** (1.0 / 3.0)
    return dirs * radii[:, None]


def _uniform_cube(rng, n):
    return rng.uniform(0.0, 1.0, (n, 3))


def _distinct_snapped(rng, n, low, high, grid):
    """n distinct snapped uniform draws, kept in draw order."""
    seen: dict[float, None] = {}
    while len(seen) < n:
        batch = _snap(rng.uniform(low, high, max(n - len(seen), 64)), grid)
        for v in batch.tolist():
            if v not in seen:
                seen[v] = None
            if len(seen) == n:
                break
    return np.fromiter(seen.keys(), dtype=np.float64, count=n)


def _collinear(rng, n):
    if n > 2 ** 25:
        raise InvalidParamsError("collinear supports at most 2**25 points (exact parameter grid)")
    base = _snap(rng.uniform(-1.0, 1.0, 3), _PARAM_SNAP)
    d = rng.normal(size=3)
    d = _snap(d / np.linalg.norm(d), _DIR_SNAP)
    t = _distinct_snapped(rng, n, 0.0, 1.0, _PARAM_SNAP)
    # every term lands on a dyadic grid, so the sums below are exact
    return base[None, :] + t[:, None] * d[None, :]


def _integer_plane_frame(rng):
    """Small integer normal plus two exactly orthogonal integer axes."""
    while True:
        nvec = rng.integers(-8, 9, 3)
        if nvec[0] or nvec[1] or nvec[2]:
            break
    if nvec[0] == 0 and nvec[1] == 0:
        u = np.array([1, 0, 0], dtype=np.int64)
    else:
        u = np.array([nvec[1], -nvec[0], 0], dtype=np.int64)
    v = np.cross(nvec, u)
    return nvec.astype(np.int64), u, v


def _coplanar_disk(rng, n):
    nvec, u, v = _integer_plane_frame(rng)
    base = _snap(rng.uniform(-1.0, 1.0, 3), _PARAM_SNAP)
    r = np.sqrt(rng.uniform(0.0, 1.0, n))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    alpha = _snap(r * np.cos(theta) / np.linalg.norm(u), _PARAM_SNAP)
    beta = _snap(r * np.sin(theta) / np.linalg.norm(v), _PARAM_SNAP)
    U = u.astype(np.float64)
    V = v.astype(np.float64)
    return base[None, :] + alpha[:, None] * U[None, :] + beta[:, None] * V[None, :]


def _clustered(rng, n):
    centers = rng.uniform(-0.7, 0.7, (5, 3))
    assign = rng.integers(0, 5, n)
    return centers[assign] + rng.normal(0.0, 0.05, (n, 3))


def _near_degenerate(rng, n):
    return _coplanar_disk(rng, n) + rng.normal(0.0, 1e-8, (n, 3))


_KINDS = {
    "uniform-ball": _uniform_ball,
    "uniform-cube": _uniform_cube,
    "collinear": _collinear,
    "coplanar-disk": _coplanar_disk,
    "co-spherical": _unit_rows,
    "clustered": _clustered,
    "near-degenerate": _near_degenerate,
}


def kinds() -> tuple[str, ...]:
    """Names of the available generators."""
    return tuple(_KINDS)


def generate(kind: str, n: int, seed: int = 0) -> np.ndarray:
    """Generate ``n`` points of the given kind.

    Parameters
    ----------
    kind : one of ``kinds()``.
    n : number of points, >= 1.
    seed : any non-negative integer; same arguments give bit-identical output.
    """
    try:
        fn = _KINDS[kind]
    except KeyError:
        raise UnknownKindError(f"unknown generator kind {kind!r}; expected one of {', '.join(_KINDS)}") from None
    n = int(n)
    if n < 1:
        raise InvalidParamsError("n must be >= 1")
    if int(seed) < 0:
        raise InvalidParamsError("seed must be non-negative")
    return fn(np.random.default_rng(int(seed)), n)
