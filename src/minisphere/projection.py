"""Projection-based point reduction and the combined solve pipeline.

A budget of K planes buys 4K extreme directions, and the point extreme
along each direction is kept. For K = 6 the directions are the +-u and +-v
in-plane axes of the six canonical frames; for any other K they are the
4K-point spherical Fibonacci set (Keinert et al., "Spherical Fibonacci
Mapping", 2015), which is dense on the whole sphere as the epsilon-kernel
covering argument asks (Agarwal, Har-Peled & Varadarajan, 2004). Extremes
of a linear functional are convex-hull vertices, so the union of the picks
is a small certificate set. Its enclosing sphere is then verified against
the full cloud and repaired with any escapees until enclosure holds.

All 4K extremes come from one fused kernel: the (4K, 3) direction matrix
times a column chunk of the cloud, into one reused buffer of about 1 MB,
then ``argmax`` along each row. Exact ties, rare outside lattice-like
input, go to one lexicographic rule for every direction, so every pick is
a hull vertex.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidGeometryError, InvalidKError, InvalidParamsError, ZeroNormalError
from .geom import Sphere, Tolerance, as_cloud, tolerance_for
from .welzl import welzl_solve

_GOLDEN = math.pi * (3.0 - math.sqrt(5.0))
_PHI = (1.0 + math.sqrt(5.0)) / 2.0
_SQ2 = 1.0 / math.sqrt(2.0)
_CANONICAL6 = np.array(
    [
        (0.0, 0.0, 1.0),
        (0.0, 1.0, 0.0),
        (1.0, 0.0, 0.0),
        (_SQ2, _SQ2, 0.0),
        (0.0, _SQ2, _SQ2),
        (_SQ2, 0.0, _SQ2),
    ]
)
_BLOCK_ELEMS = 2 ** 17  # doubles per reduce block: ~1 MB, which keeps BLAS threading cheap
_MAX_REPAIR = 16
_VERIFY_CHUNK = 262144


class ProjectionFrame(NamedTuple):
    """Right-handed orthonormal basis attached to a projection plane."""

    normal: np.ndarray
    u: np.ndarray
    v: np.ndarray


class KSelection(NamedTuple):
    """Plane-count choice. ``symmetric-6`` pins the canonical six planes."""

    mode: str
    k: int
    c1: float = 2.0
    c2: float = 1.0


class ReducedSet(NamedTuple):
    """Indices forming P_s plus the per-plane picks that produced them.

    ``indices`` keeps first-seen order (direction-major). ``per_plane[i]``
    is the 4-tuple picked along directions 4i..4i+3: for k = 6 the +u, -u,
    +v, -v axes of canonical frame i, for any other k the spherical
    Fibonacci directions 4i..4i+3.
    """

    indices: np.ndarray
    per_plane: list


@dataclass
class SolveReport:
    sphere: Sphere
    support_indices: tuple
    strategy: str
    k: int | None
    reduced_size: int | None
    repair_rounds: int
    timings: dict
    input_count: int
    seed: int
    fallback_full_solve: bool = False

    def to_dict(self) -> dict:
        return {
            "sphere": {
                "center": [float(c) for c in self.sphere.center],
                "radius": float(self.sphere.radius),
            },
            "support_indices": [int(i) for i in self.support_indices],
            "strategy": self.strategy,
            "k": self.k,
            "reduced_size": self.reduced_size,
            "repair_rounds": self.repair_rounds,
            "timings": {key: float(val) for key, val in self.timings.items()},
            "input_count": self.input_count,
            "seed": self.seed,
            "fallback_full_solve": self.fallback_full_solve,
        }


def _radical_inverse(i: int) -> float:
    # bit-reversed binary fraction; injective, so spiral z values never collide
    f = 0.0
    w = 0.5
    while i:
        if i & 1:
            f += w
        w *= 0.5
        i >>= 1
    return f


def _spiral_direction(i: int) -> np.ndarray:
    z = 1.0 - _radical_inverse(i)
    rho = math.sqrt(max(0.0, 1.0 - z * z))
    phi = i * _GOLDEN
    return np.array([rho * math.cos(phi), rho * math.sin(phi), z])


def make_frame(n) -> ProjectionFrame:
    """Deterministic right-handed frame for a plane with normal ``n``.

    The in-plane axis u is the canonical axis of smallest |component| in n
    (first such axis on ties), made orthogonal to n and normalized; v
    completes the right-handed triple. Raises ZeroNormalError when |n| is
    at or below 1e-12.
    """
    arr = np.asarray(n, dtype=np.float64).reshape(3)
    if not np.isfinite(arr).all():
        raise InvalidGeometryError("plane normal must be finite")
    norm = float(np.linalg.norm(arr))
    if norm <= 1e-12:
        raise ZeroNormalError(f"normal too small to orient a plane (|n| = {norm:g})")
    normal = arr / norm
    e = np.zeros(3)
    e[int(np.argmin(np.abs(normal)))] = 1.0
    u = e - float(e @ normal) * normal
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    return ProjectionFrame(normal, u, v)


def _check_k(k) -> int:
    try:
        k = operator.index(k)
    except TypeError:
        raise InvalidKError(f"plane count must be an integer, got {k!r}") from None
    if k < 1:
        raise InvalidKError(f"need at least one projection plane, got k = {k}")
    return k


def generate_orientations(k) -> list[ProjectionFrame]:
    """K deterministic projection frames.

    k = 6 yields the canonical set: the three principal-plane normals and
    the three diagonal normals. Any other k walks a Fibonacci spiral on the
    unit upper hemisphere (antipodal normals would duplicate projections);
    the sequence is prefix-nested, so frame i is the same for every k > i.

    ``reduce`` uses these frames only for k = 6. For any other k it takes
    4k spherical Fibonacci directions instead: every in-plane axis of a
    spiral frame lies near a coordinate axis or on a coordinate great
    circle, so no frame looks along the body diagonals.
    """
    k = _check_k(k)
    if k == 6:
        normals = _CANONICAL6
    else:
        normals = [_spiral_direction(i) for i in range(k)]
    return [make_frame(n) for n in normals]


def project(p, frame: ProjectionFrame) -> tuple[float, float]:
    """In-plane coordinates (p·u, p·v) of the projection of p."""
    q = np.asarray(p, dtype=np.float64).reshape(3)
    if not np.isfinite(q).all():
        raise InvalidGeometryError("point must be finite")
    return float(q @ frame.u), float(q @ frame.v)


def _pick(primary: np.ndarray, secondary: np.ndarray, minimize: bool) -> int:
    """Arg-extreme with the documented tie rule.

    Exact ties on the primary coordinate go to the larger secondary
    coordinate (biases toward corners of a tied hull edge); remaining ties
    go to the lowest index.
    """
    n = len(primary)
    if minimize:
        first = int(np.argmin(primary))
        last = n - 1 - int(np.argmin(primary[::-1]))
    else:
        first = int(np.argmax(primary))
        last = n - 1 - int(np.argmax(primary[::-1]))
    if first == last:
        return first
    ties = np.flatnonzero(primary == primary[first])
    return int(ties[np.argmax(secondary[ties])])


def extreme4(points, frame: ProjectionFrame) -> tuple[int, int, int, int]:
    """Indices extreme along (+u, -u, +v, -v) in one O(N) pass per axis.

    Ties follow ``_pick``; ``reduce`` breaks them lexicographically instead.
    """
    P = as_cloud(points)
    a = P @ frame.u
    b = P @ frame.v
    return (_pick(a, b, False), _pick(a, b, True), _pick(b, a, False), _pick(b, a, True))


def _fibonacci_directions(m: int) -> np.ndarray:
    """The m-point spherical Fibonacci set as an (m, 3) array of unit rows.

    z_i = 1 - (2i + 1)/m and phi_i = 2*pi*frac(i/Phi) with Phi the golden
    ratio, as published by Keinert et al. (2015).
    """
    i = np.arange(m, dtype=np.float64)
    z = 1.0 - (2.0 * i + 1.0) / m
    phi = 2.0 * np.pi * np.mod(i / _PHI, 1.0)
    rho = np.sqrt(1.0 - z * z)
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


def _directions(k: int) -> np.ndarray:
    """The 4k reduce directions as a (4k, 3) array of unit rows."""
    if k == 6:
        return np.array([a for f in generate_orientations(6) for a in (f.u, -f.u, f.v, -f.v)])
    return _fibonacci_directions(4 * k)


def _lex_max(P: np.ndarray, d: np.ndarray) -> int:
    """Row of P that is the lexicographic maximum along the orthonormal
    triple (d, e1, e2) of ``make_frame(d)``; then the lowest index."""
    frame = make_frame(d)
    s = P @ d
    ties = np.flatnonzero(s == s.max())
    for e in (frame.u, frame.v):
        if len(ties) == 1:
            break
        s = P[ties] @ e
        ties = ties[s == s.max()]
    return int(ties[0])


def _extremes(P: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Row of P extreme along each row of D.

    One pass over P in column chunks: ``D @ chunk.T`` lands in a reused
    (m, c) buffer of about 1 MB and ``argmax`` runs along its rows. Only a
    strictly larger value replaces a direction's running best, and an equal
    value in a later chunk flags the direction as tied. A tie inside the
    chunk that holds a direction's best is looked for once, at the end: that
    chunk's row is recomputed into the same buffer, its maximum knocked out,
    and the row's new maximum compared with the old. Only flagged directions
    take the lexicographic slow path (``_lex_max``).
    """
    n, m = len(P), len(D)
    c = min(n, max(1, _BLOCK_ELEMS // m))
    buf = np.empty(m * c)  # reused: a fresh block per matmul costs page faults
    rows = np.arange(m)
    best = np.full(m, -np.inf)
    out = np.zeros(m, dtype=np.intp)
    win = np.zeros(m, dtype=np.intp)  # start of the chunk holding each best
    tied = np.zeros(m, dtype=bool)
    for lo in range(0, n, c):
        Q = P[lo:lo + c]
        S = np.matmul(D, Q.T, out=buf[:m * len(Q)].reshape(m, len(Q)))
        j = S.argmax(axis=1)
        v = S[rows, j]
        tied |= v == best
        up = np.flatnonzero(v > best)
        if up.size:
            best[up] = v[up]
            out[up] = j[up] + lo
            win[up] = lo
            tied[up] = False
    for lo in np.unique(win):
        rs = np.flatnonzero((win == lo) & ~tied)
        if rs.size:
            Q = P[lo:lo + c]
            S = np.matmul(D[rs], Q.T, out=buf[:rs.size * len(Q)].reshape(rs.size, len(Q)))
            i = np.arange(rs.size)
            j = S.argmax(axis=1)
            top = S[i, j]
            S[i, j] = -np.inf
            tied[rs] = S.max(axis=1) == top
    for r in np.flatnonzero(tied):
        out[r] = _lex_max(P, D[r])
    return out


def _plane_count(sel) -> int:
    if isinstance(sel, KSelection):
        if sel.mode == "symmetric-6" and sel.k != 6:
            raise InvalidKError(f"symmetric-6 selection requires k = 6, got {sel.k}")
        return _check_k(sel.k)
    return _check_k(sel)


def reduce(points, sel) -> ReducedSet:
    """Union of the extremes along 4k directions: the reduced set P_s.

    ``sel`` is a KSelection or a bare plane count. k = 6 takes the +-u and
    +-v axes of the canonical frames; any other k takes the 4k-point
    spherical Fibonacci set. An exact tie along direction d goes to the
    lexicographic maximum along the orthonormal triple (d, e1, e2) of
    ``make_frame(d)``, then to the lowest index, which only identical points
    can reach, so every pick is a convex-hull vertex.
    Output order is stable (first-seen) so downstream solves are
    deterministic. |indices| is at most min(N, 4k).
    """
    P = as_cloud(points)
    k = _plane_count(sel)
    picks = _extremes(P, _directions(k)).tolist()
    per_plane = [tuple(picks[i:i + 4]) for i in range(0, len(picks), 4)]
    indices = np.fromiter(dict.fromkeys(picks), dtype=np.intp)
    return ReducedSet(indices, per_plane)


def select_k(n, mode: str = "general", c1: float = 2.0, c2: float = 1.0) -> KSelection:
    """Plane-count heuristic.

    symmetric-6 mode always answers 6. General mode takes ceil(c1 * n^(1/4))
    clamped below by 6 and above by ceil(c2 * sqrt(n)); the upper clamp is
    waived when it would sit under the floor of 6.
    """
    n = operator.index(n)
    if n < 1:
        raise InvalidParamsError(f"point count must be at least 1, got {n}")
    if mode == "symmetric-6":
        return KSelection("symmetric-6", 6, c1, c2)
    if mode != "general":
        raise InvalidParamsError(f"unknown selection mode {mode!r}")
    k = max(math.ceil(c1 * n ** 0.25), 6)
    hi = math.ceil(c2 * math.sqrt(n))
    if hi >= 6:
        k = min(k, hi)
    return KSelection("general", k, c1, c2)


def _violators(P: np.ndarray, sphere: Sphere, band: float, mask: np.ndarray) -> np.ndarray:
    lim = sphere.radius + band
    lim2 = lim * lim
    cx, cy, cz = sphere.center
    found = []
    for lo in range(0, len(P), _VERIFY_CHUNK):
        Q = P[lo:lo + _VERIFY_CHUNK]
        d2 = np.square(Q[:, 0] - cx)
        d2 += np.square(Q[:, 1] - cy)
        d2 += np.square(Q[:, 2] - cz)
        bad = d2 > lim2
        if bad.any():
            rows = np.flatnonzero(bad) + lo
            rows = rows[~mask[rows]]
            if rows.size:
                found.append(rows)
    if not found:
        return np.empty(0, dtype=np.intp)
    return np.concatenate(found)


def solve(points, sel=None, seed: int = 0, tol: Tolerance | None = None) -> SolveReport:
    """Reduce, solve the reduced set, verify against the full cloud, repair.

    Parameters
    ----------
    points : (N, 3) array-like, N >= 1.
    sel : KSelection, bare plane count, "auto", or None (auto). Auto picks
        select_k(N) in general mode.
    seed : handed to ``welzl_solve``, whose fallback shuffle it seeds.
    tol : optional Tolerance for degeneracy predicates.

    Returns
    -------
    SolveReport. Points outside the candidate sphere (beyond a verification
    band far tighter than user tolerance) are appended to the reduced set
    and the solve repeats; after 16 repair rounds the solver falls back to
    the full cloud and says so in ``fallback_full_solve``.
    """
    t0 = time.perf_counter()
    P = as_cloud(points)
    n = len(P)
    if tol is None:
        tol = tolerance_for(P)
    if sel is None or (isinstance(sel, str) and sel == "auto"):
        ksel = select_k(n)
    elif isinstance(sel, KSelection):
        ksel = sel
    else:
        ksel = KSelection("general", operator.index(sel))

    rset = reduce(P, ksel)
    reduce_s = time.perf_counter() - t0  # ingestion counts toward the reduce stage

    band = 1e-12 * tol.scale
    mask = np.zeros(n, dtype=bool)
    mask[rset.indices] = True
    subset = rset.indices.copy()
    solve_s = 0.0
    verify_s = 0.0
    repair_rounds = 0
    fallback = False
    while True:
        t1 = time.perf_counter()
        sphere, sup = welzl_solve(P[subset], seed=seed, tol=tol)
        solve_s += time.perf_counter() - t1
        t2 = time.perf_counter()
        viol = _violators(P, sphere, band, mask)
        if viol.size == 0:
            verify_s += time.perf_counter() - t2
            support = tuple(sorted(int(subset[i]) for i in sup.indices))
            break
        if repair_rounds >= _MAX_REPAIR:
            verify_s += time.perf_counter() - t2
            t1 = time.perf_counter()
            sphere, sup = welzl_solve(P, seed=seed, tol=tol)
            solve_s += time.perf_counter() - t1
            support = tuple(sorted(int(i) for i in sup.indices))
            fallback = True
            break
        repair_rounds += 1
        mask[viol] = True
        # the last support leads, so the next small solve starts from the last sphere
        lead = list(sup.indices)
        subset = np.concatenate([subset[lead], viol, np.delete(subset, lead)])
        verify_s += time.perf_counter() - t2

    return SolveReport(
        sphere=sphere,
        support_indices=support,
        strategy="projection",
        k=ksel.k,
        reduced_size=int(len(rset.indices)),
        repair_rounds=repair_rounds,
        timings={
            "reduce_ms": reduce_s * 1000.0,
            "solve_ms": solve_s * 1000.0,
            "verify_ms": verify_s * 1000.0,
        },
        input_count=n,
        seed=int(seed),
        fallback_full_solve=fallback,
    )
