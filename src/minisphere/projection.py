"""Projection-based point reduction and the combined solve pipeline.

A budget of K planes buys 4K extreme directions: the 4K-point spherical
Fibonacci set (Keinert et al., "Spherical Fibonacci Mapping", 2015), which
is dense on the whole sphere as the epsilon-kernel covering argument asks
(Agarwal, Har-Peled & Varadarajan, 2004). The point extreme along each
direction is kept. Extremes of a linear functional are convex-hull
vertices, so the union of the picks is a small certificate set. Its
enclosing sphere is then verified against the full cloud and repaired with
any escapees until enclosure holds.

All 4K extremes come from one fused kernel: the (4K, 3) direction matrix
times a column chunk of the cloud, into one reused buffer of about 1 MB,
then ``argmax`` along each row. Exact ties, rare outside lattice-like
input, go to the lexicographic maximum along the direction and then x, y
and z, so every pick is a hull vertex.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidKError, InvalidParamsError
from .geom import Sphere, Tolerance, as_cloud, tolerance_for
from .welzl import welzl_solve

_PHI = (1.0 + math.sqrt(5.0)) / 2.0
_BLOCK_ELEMS = 2 ** 17  # doubles per reduce block: ~1 MB, which keeps BLAS threading cheap
_MAX_REPAIR = 16
_VERIFY_CHUNK = 262144


class KSelection(NamedTuple):
    """A plane count ``k``, which buys 4k reduce directions.

    ``mode`` says how k was chosen; "general" (``select_k`` or a fixed
    count) is the only mode.
    """

    mode: str
    k: int


class ReducedSet(NamedTuple):
    """Indices forming P_s plus the picks that produced them.

    ``indices`` keeps first-seen order (direction-major). ``picks[i]`` is
    the row extreme along direction i of the 4k-point spherical Fibonacci
    set.
    """

    indices: np.ndarray
    picks: np.ndarray


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


def _lex_max(P: np.ndarray, d: np.ndarray) -> int:
    """Row of P that is the lexicographic maximum along d, then x, y and z;
    then the lowest index."""
    s = P @ d
    ties = np.flatnonzero(s == s.max())
    for axis in range(3):
        if len(ties) == 1:
            break
        s = P[ties, axis]
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
    """The plane count of a KSelection or a bare count: a positive integer."""
    k = sel.k if isinstance(sel, KSelection) else sel
    try:
        k = operator.index(k)
    except TypeError:
        raise InvalidKError(f"plane count must be an integer, got {k!r}") from None
    if k < 1:
        raise InvalidKError(f"need at least one projection plane, got k = {k}")
    return k


def reduce(points, sel) -> ReducedSet:
    """Union of the extremes along 4k directions: the reduced set P_s.

    ``sel`` is a KSelection or a bare plane count k. The directions are the
    4k-point spherical Fibonacci set. An exact tie along direction d goes to
    the lexicographic maximum along d, then x, then y, then z, and then to
    the lowest index, which only identical points can reach. A
    lexicographic maximum over a basis is a vertex of the tied face, so
    every pick is a convex-hull vertex.
    Output order is stable (first-seen) so downstream solves are
    deterministic. |indices| is at most min(N, 4k).
    """
    P = as_cloud(points)
    picks = _extremes(P, _fibonacci_directions(4 * _plane_count(sel)))
    indices = np.fromiter(dict.fromkeys(picks.tolist()), dtype=np.intp)
    return ReducedSet(indices, picks)


def select_k(n) -> KSelection:
    """Plane-count heuristic: k = max(6, ceil(2 * n^(1/4))).

    For n > 25, k is at most ceil(sqrt(n)), so the reduced set of at most
    4k points stays below 4 * ceil(sqrt(n)).
    """
    n = operator.index(n)
    if n < 1:
        raise InvalidParamsError(f"point count must be at least 1, got {n}")
    return KSelection("general", max(math.ceil(2.0 * n ** 0.25), 6))


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
        select_k(N). Any other value must be a positive integer count, or
        InvalidKError is raised, as in ``reduce``.
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
        sel = select_k(n)
    k = _plane_count(sel)

    rset = reduce(P, k)
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
        k=k,
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
