"""Seeded inputs, reference spheres and the correctness check.

The generators follow the recipes of ``minisphere.datagen`` but live here,
so a later change to ``datagen`` cannot change what the benchmark measures.
Every input is a pure function of (seed, tag, index).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

KINDS = (
    "uniform-ball",
    "uniform-cube",
    "collinear",
    "coplanar-disk",
    "co-spherical",
    "clustered",
    "near-degenerate",
)

# Unit-sized clouds are moved into the ranges users bring files in.
TRANSFORMS = ("unit", "scale-1e-10", "scale-1e10", "offset-1e6")

# Enclosure band of the check, relative to the bbox diagonal; relative to
# the diagonal rather than the radius so a 1e6 offset stays inside it.
CHECK_BAND = 1e-9
# Radius agreement with the reference, relative.
CHECK_RADIUS = 1e-9
# Band the reference itself is certified to, relative to the bbox diagonal.
_REF_BAND = 1e-11
_REF_CANDIDATES = 128
_REF_ROUNDS = 16

# dyadic snap grids, as in datagen: products of a 2**-26 parameter and a
# 2**-20 direction stay exact, so collinear/coplanar clouds are exactly flat
_PARAM_SNAP = 2.0 ** 26
_DIR_SNAP = 2.0 ** 20


def rng_for(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(tag), int(index)])


def _snap(x, grid):
    return np.round(np.asarray(x, dtype=np.float64) * grid) / grid


def _unit_rows(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.maximum(np.linalg.norm(v, axis=1), 1e-300)[:, None]


def _plane_frame(rng):
    """Small integer normal with two exactly orthogonal integer axes."""
    while True:
        nvec = rng.integers(-8, 9, 3)
        if nvec.any():
            break
    if nvec[0] == 0 and nvec[1] == 0:
        u = np.array([1, 0, 0])
    else:
        u = np.array([nvec[1], -nvec[0], 0])
    return u.astype(np.float64), np.cross(nvec, u).astype(np.float64)


def _coplanar_disk(rng, n):
    u, v = _plane_frame(rng)
    base = _snap(rng.uniform(-1.0, 1.0, 3), _PARAM_SNAP)
    r = np.sqrt(rng.uniform(0.0, 1.0, n))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    a = _snap(r * np.cos(theta) / np.linalg.norm(u), _PARAM_SNAP)
    b = _snap(r * np.sin(theta) / np.linalg.norm(v), _PARAM_SNAP)
    return base + a[:, None] * u + b[:, None] * v


def make_cloud(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, 3) float64 cloud of one kind, roughly unit-sized."""
    if kind == "uniform-ball":
        return _unit_rows(rng, n) * (rng.uniform(0.0, 1.0, n) ** (1.0 / 3.0))[:, None]
    if kind == "uniform-cube":
        return rng.uniform(0.0, 1.0, (n, 3))
    if kind == "collinear":
        base = _snap(rng.uniform(-1.0, 1.0, 3), _PARAM_SNAP)
        d = rng.normal(size=3)
        d = _snap(d / np.linalg.norm(d), _DIR_SNAP)
        t = rng.choice(int(_PARAM_SNAP), size=n, replace=False) / _PARAM_SNAP
        return base + t[:, None] * d
    if kind == "coplanar-disk":
        return _coplanar_disk(rng, n)
    if kind == "co-spherical":
        return _unit_rows(rng, n)
    if kind == "clustered":
        centers = rng.uniform(-0.7, 0.7, (5, 3))
        return centers[rng.integers(0, 5, n)] + rng.normal(0.0, 0.05, (n, 3))
    if kind == "near-degenerate":
        return _coplanar_disk(rng, n) + rng.normal(0.0, 1e-8, (n, 3))
    raise ValueError(f"unknown kind {kind!r}")


def make_shell(n: int, rng: np.random.Generator, noise: float = 1e-7) -> np.ndarray:
    """Unit sphere sample with multiplicative radial noise 1 + noise*N(0, 1)."""
    return _unit_rows(rng, n) * (1.0 + noise * rng.normal(size=n))[:, None]


def transform(P: np.ndarray, name: str) -> np.ndarray:
    if name == "unit":
        return P
    if name == "scale-1e-10":
        return P * 1e-10
    if name == "scale-1e10":
        return P * 1e10
    if name == "offset-1e6":
        return P + 1e6
    raise ValueError(f"unknown transform {name!r}")


def sha256(P: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(P, dtype=np.float64).tobytes()).hexdigest()


def bbox(P: np.ndarray) -> tuple[np.ndarray, float]:
    """Centre and diagonal length of the axis-aligned bounding box."""
    # column by column: an axis-0 reduction over (N, 3) is several times slower
    lo = np.array([P[:, j].min() for j in range(3)])
    hi = np.array([P[:, j].max() for j in range(3)])
    return 0.5 * (lo + hi), float(np.linalg.norm(hi - lo))


def _dist(P: np.ndarray, center) -> np.ndarray:
    Q = P - np.asarray(center, dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->i", Q, Q))


def _farthest(d: np.ndarray, m: int) -> np.ndarray:
    return np.argpartition(d, len(d) - m)[len(d) - m:] if m < len(d) else np.arange(len(d))


def reference(P: np.ndarray, welzl_solve, center, D: float) -> tuple[float, bool]:
    """Radius of ``welzl_solve``'s sphere for the full cloud, via a certified subset.

    ``center`` is a guess at the sphere's centre, such as the bbox centre.
    The cloud is first moved so that the guess sits at the origin. Near an
    offset of 1e6 that subtraction is exact, and it spares ``welzl_solve``
    the ~1e-9 relative radius error it makes on offset coordinates.
    ``welzl_solve`` runs on the points farthest from the guess. The points
    farthest outside its sphere, beyond 1e-11*D, join the subset and the
    solve repeats. The minimal sphere of a subset that encloses the whole
    cloud is the cloud's minimal sphere, so the radius is within 1e-11*D of
    the full-cloud answer. If the rounds run out, the full cloud is solved
    directly. Returns the radius and whether it is certified: no point lies
    outside by more than 1e-11*D.
    """
    Q = P - np.asarray(center, dtype=np.float64)
    band = _REF_BAND * D
    idx = _farthest(_dist(Q, 0.0), _REF_CANDIDATES)
    for _ in range(_REF_ROUNDS):
        sphere, _support = welzl_solve(Q[idx], seed=0)
        excess = _dist(Q, sphere.center) - (sphere.radius + band)
        excess[idx] = 0.0
        out = np.flatnonzero(excess > 0.0)
        if out.size == 0:
            return float(sphere.radius), True
        if out.size > _REF_CANDIDATES:
            out = out[_farthest(excess[out], _REF_CANDIDATES)]
        idx = np.concatenate([idx, out])
    sphere, _support = welzl_solve(Q, seed=0)
    return float(sphere.radius), bool(_dist(Q, sphere.center).max() <= sphere.radius + band)


def check(P: np.ndarray, center, radius: float, ref_radius: float, D: float) -> str | None:
    """None when the sphere encloses P and matches the reference, else why not."""
    if not (math.isfinite(radius) and np.all(np.isfinite(center))):
        return "non-finite sphere"
    excess = float(_dist(P, center).max()) - radius
    if excess > CHECK_BAND * D:
        return f"point outside by {excess:.3e} (band {CHECK_BAND * D:.3e})"
    if abs(radius - ref_radius) > CHECK_RADIUS * ref_radius:
        return f"radius {radius!r} differs from reference {ref_radius!r}"
    return None
