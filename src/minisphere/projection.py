"""Projection-based point reduction and the combined solve pipeline.

A budget of K planes buys 4K extreme directions: the 4K-point spherical
Fibonacci set (Keinert et al., "Spherical Fibonacci Mapping", 2015), which
is dense on the whole sphere as the epsilon-kernel covering argument asks
(Agarwal, Har-Peled & Varadarajan, 2004). The point extreme along each
direction is kept. Extremes of a linear functional are convex-hull
vertices, so the union of the picks is a small certificate set. Its
enclosing sphere is then verified against the full cloud and repaired by
pivoting (Gaertner 1999): the point farthest outside joins the support,
until no point is outside. That is ``welzl_solve``'s own loop, run over
the full cloud from the small set's ball in batched rounds, where a scan
after the first reads only what the centre's shift may have pushed
outside (see ``welzl``): the rows, on a cloud of at most one scan chunk,
or else the 64-row blocks, whose distance bound may exceed the limit.
Since that loop ends only on a scan that finds no point outside, any
start ball gives the exact answer. So at the automatic k, ``solve``
validates, reduces and solves outright only a strided sample of
max(1024, 4√N) to twice as many rows (Clarkson's sampling for LP-type
problems, 1995), and the sample's min ball starts the repair, whose first
full scan validates the rows the sample skipped as it reads them. Below
32,768 rows the sample's own rounds cost more than they save: the whole
cloud is validated, reduced and repaired as one, as it is at a named k.
``solve`` is the one entry point for the library, the CLI and the bench;
``strategy="welzl"`` skips the reduced set and pivots over the full cloud
from its first four rows, which is ``welzl_solve``.

All 4K extremes come from one fused kernel: the (4K, 3) direction matrix
times a column chunk of the cloud, into one reused buffer of about 1 MB,
then ``argmax`` along each row. Exact ties, rare outside lattice-like
input, go to the lexicographic maximum along the direction and then x, y
and z, so every pick is a hull vertex.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from typing import NamedTuple

import numpy as np

from .errors import InvalidKError, InvalidParamsError
from .geom import _TINY_COORD, Sphere, _as_array, _checked, _unit_cloud, as_cloud, tolerance_for  # noqa: F401  tolerance_for: unused, but perfbench/spans.py hooks it
from .welzl import _pivot_ball, _pivot_solve, _scaled, _solved_ball, welzl_solve

_PHI = (1.0 + math.sqrt(5.0)) / 2.0
_BLOCK_ELEMS = 2 ** 17  # doubles per reduce block: ~1 MB, which keeps BLAS threading cheap
# auto-k sample: from _SAMPLE_FROM rows, at least _SAMPLE_FLOOR rows. Summed medians of 21 solves (7 kinds x
# seeds 1, 3, 21, alternated, 2-CPU host), whole cloud / sample, ms: 4e3 5.3 / 6.4, 1e4 6.3 / 6.9, 2.4e4 9.0 /
# 9.2, 3e4 10.7 / 10.1, 4e4 16.8 / 12.6, 5e4 18.9 / 13.8. Floor 8192 at 3e4 / 1e5: 14.1 / 28.1, 1024 11.5 / 26.0
_SAMPLE_FROM = 2 ** 15
_SAMPLE_FLOOR = 1024


class ReducedSet(NamedTuple):
    """Indices forming P_s plus the picks that produced them.

    ``indices`` keeps first-seen order (direction-major). ``picks[i]`` is
    the row extreme along direction i of the 4k-point spherical Fibonacci
    set.
    """

    indices: np.ndarray
    picks: np.ndarray


class SolveReport(NamedTuple):
    """What ``solve`` found and where its time went.

    ``reduced_size`` counts the reduced set: at the automatic k, the
    picks of ``solve``'s strided sample, on clouds of 32,768 rows or more.
    ``repair_rounds`` counts the pivots after the reduced set's solve,
    whether a full scan or a batched round's candidates supplied them,
    those over a strided sample included; ``exact_pivots`` counts those
    taken in exact arithmetic: the first pivot of a loop whose float ball
    rounding kept from growing, and every later one. ``scanned_rows``
    counts the rows whose distance the scans of the sample and of the
    cloud computed: all of them per full scan, and for a later scan each
    row it read on at most one scan chunk, or else 64 per block.
    ``timings``: ``ingest_ms`` (validation: of the sample alone where the
    repair's first scan validates the cloud), ``reduce_ms``, ``solve_ms``
    (the reduced set's solve), ``verify_ms`` (the sample's and the full
    cloud's scans and all pivots). ``strategy == "welzl"`` has no reduced
    set: ``k`` and ``reduced_size`` are None, ``reduce_ms`` and
    ``solve_ms`` are 0, and the counters count its pivots from the first
    four rows.
    """

    sphere: Sphere
    support_indices: tuple
    strategy: str
    k: int | None
    reduced_size: int | None
    repair_rounds: int
    timings: dict
    input_count: int
    seed: int
    exact_pivots: int = 0
    scanned_rows: int = 0

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
            "exact_pivots": self.exact_pivots,
            "scanned_rows": self.scanned_rows,
        }


@functools.lru_cache(maxsize=8)
def _fibonacci_directions(m: int) -> np.ndarray:
    """The m-point spherical Fibonacci set as an (m, 3) array of unit rows.

    z_i = 1 - (2i + 1)/m and phi_i = 2*pi*frac(i/Phi) with Phi the golden
    ratio, as published by Keinert et al. (2015). Cached, so read-only.
    """
    i = np.arange(m, dtype=np.float64)
    z = 1.0 - (2.0 * i + 1.0) / m
    phi = 2.0 * np.pi * np.mod(i / _PHI, 1.0)
    rho = np.sqrt(1.0 - z * z)
    D = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    D.flags.writeable = False
    return D


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
    (m, c) buffer of ``_BLOCK_ELEMS`` doubles and ``argmax`` runs along its
    rows. Only a strictly larger value replaces a direction's running best,
    and an equal value in a later chunk flags the direction as tied. Where
    a chunk sets a new best, its maximum is knocked out of the buffer and
    the row's new maximum compared with it, which flags a tie inside the
    chunk. Only flagged directions take the lexicographic slow path
    (``_lex_max``).
    """
    n, m = len(P), len(D)
    c = min(n, max(1, _BLOCK_ELEMS // m))
    buf = np.empty(max(m, _BLOCK_ELEMS))  # reused by every chunk; one size for every call
    rows = np.arange(m)
    best = np.full(m, -np.inf)
    out = np.zeros(m, dtype=np.intp)
    tied = np.zeros(m, dtype=bool)
    for lo in range(0, n, c):
        Q = P[lo:lo + c]
        S = np.matmul(D, Q.T, out=buf[:m * len(Q)].reshape(m, len(Q)))
        j = S.argmax(axis=1)
        v = S[rows, j]
        tied |= v == best
        up = np.flatnonzero(v > best)
        if up.size:
            vu, ju = v[up], j[up]
            best[up] = vu
            out[up] = ju + lo
            S[up, ju] = -np.inf
            tied[up] = (S if up.size == m else S[up]).max(axis=1) == vu
    for r in np.flatnonzero(tied):
        out[r] = _lex_max(P, D[r])
    return out


def _plane_count(k) -> int:
    """The plane count k, which buys 4k reduce directions: a positive integer."""
    try:
        k = operator.index(k)
    except TypeError:
        raise InvalidKError(f"plane count must be an integer, got {k!r}") from None
    if k < 1:
        raise InvalidKError(f"need at least one projection plane, got k = {k}")
    return k


def reduce(points, k) -> ReducedSet:
    """Union of the extremes along 4k directions: the reduced set P_s.

    ``k`` is the plane count, a positive integer. The directions are the
    4k-point spherical Fibonacci set. An exact tie along direction d goes to
    the lexicographic maximum along d, then x, then y, then z, and then to
    the lowest index, which only identical points can reach. A
    lexicographic maximum over a basis is a vertex of the tied face, so
    every pick is a convex-hull vertex.
    Output order is stable (first-seen) so downstream solves are
    deterministic. |indices| is at most min(N, 4k).
    """
    P = as_cloud(points)
    picks = _extremes(P, _fibonacci_directions(4 * _plane_count(k)))
    indices = np.fromiter(dict.fromkeys(picks.tolist()), dtype=np.intp)
    return ReducedSet(indices, picks)


def _stride(n: int) -> int:
    """The automatic k's sample stride on n rows: 1, or a sample of max(_SAMPLE_FLOOR, 4√n) to 2x as many rows."""
    return n // max(_SAMPLE_FLOOR, 4 * math.isqrt(n)) if n >= _SAMPLE_FROM else 1


def solve(points, sel=None, seed: int = 0, strategy: str = "projection") -> SolveReport:
    """Smallest enclosing sphere of a cloud, by reduction or by the full solve.

    Parameters
    ----------
    points : (N, 3) array-like, N >= 1.
    sel : a plane count, or None. A count must be a positive integer, or
        InvalidKError is raised, as in ``reduce``. Only the projection
        strategy reads it. A named count reduces the whole cloud. None
        means k = 1, four directions: over k in {1, 2, 3, 4, 6, 12}, every
        ``datagen`` kind and N in {1e4, 1e5, 1e6}, it had the least total
        solve time. From 32,768 rows it solves a strided sample
        (``_stride``) outright first; below, the whole cloud, bit for bit
        as ``sel=1``.
    seed : recorded in the report; the solve is deterministic and does
        not read it.
    strategy : "projection" (reduce, solve, verify and repair) or "welzl"
        (no reduced set); anything else raises InvalidParamsError.

    Returns
    -------
    SolveReport. With "projection", the reduced set's ball is the start of
    a pivoting over the whole cloud, or over a solved sample, whose min
    ball then starts the pivoting over the whole cloud: while a point lies
    outside (beyond a band of rounding size), the farthest one joins the
    support and the ball is rebuilt.
    Each scan gathers candidates outside the ball, every such row on a
    cloud of at most one scan chunk and the farthest of every 64-row
    block on a larger one, and the pivots run over those in memory before
    the next scan. Only the first scan is full: later ones read just the
    rows or blocks whose distance bound, grown by the centre's shift, may
    exceed the new limit, and find the rows a full scan would. The loop
    ends on a scan that finds no point outside. With "welzl", the
    pivoting starts from the first four rows instead, one full scan per
    pivot, and gives ``welzl_solve``'s sphere and support. Each pivot is
    a repair round. If rounding stalls a pivot, that pivot and all later
    ones are taken in exact arithmetic and ``exact_pivots`` counts them.
    ``scanned_rows`` counts the rows the scans read. Of a sampled cloud
    only the sample is validated up front, and the rest by the first full
    scan, so a bad row raises InvalidGeometryError wherever it sits.

    There is no tolerance argument and no cloud scale: every band is
    relative to the ball or the points it tests, so scaling a cloud by a
    power of two scales the result exactly while its coordinates stay
    normal doubles within ±1e150. A cloud whose largest |coordinate| is
    below 2**-400 is solved scaled to unit size by a power of two, so that
    no squared distance underflows, and its sphere is scaled back; below
    2**-1022 (subnormal input) the way back rounds. So a sample below
    2**-400 makes ``solve`` validate the whole cloud first.
    """
    if strategy not in ("projection", "welzl"):
        raise InvalidParamsError(f"unknown strategy {strategy!r}")
    t0 = time.perf_counter()
    P, e = _as_array(points), 0
    step = _stride(len(P)) if sel is None and strategy == "projection" else 1
    S, m = _checked(P[::step]) if step > 1 else (P, 0.0)  # the sample, copied: a strided view scans slowly
    if m < _TINY_COORD:  # e may be nonzero: validate and scale the whole cloud first
        P, e = _unit_cloud(P)
        S = np.ascontiguousarray(P[::step])
    t_in = t1 = t2 = time.perf_counter()
    k = reduced_size = start = None
    sampled = (0, 0, 0)
    if strategy == "projection":
        k = 1 if sel is None else _plane_count(sel)
        rows = reduce(S, k).indices
        reduced_size = int(len(rows))
        t1 = time.perf_counter()
        small, sup = welzl_solve(S[rows], seed=seed)
        t2 = time.perf_counter()
        start = _solved_ball(S, small, rows[list(sup.indices)].tolist())
        if step > 1:  # the sample's own min ball
            start, *sampled = _pivot_ball(S, start)
        start = start._replace(support=tuple((p, i * step) for p, i in start.support))  # rows of P
    sphere, support, *counts = _pivot_solve(P, start, m >= _TINY_COORD)  # validate unless _unit_cloud did
    pivots, exact, scanned = (a + b for a, b in zip(sampled, counts))
    t3 = time.perf_counter()

    return SolveReport(
        sphere=_scaled(sphere, e) if e else sphere,
        support_indices=support.indices,
        strategy=strategy,
        k=k,
        reduced_size=reduced_size,
        repair_rounds=pivots,
        timings={
            "ingest_ms": (t_in - t0) * 1000.0,
            "reduce_ms": (t1 - t_in) * 1000.0,
            "solve_ms": (t2 - t1) * 1000.0,
            "verify_ms": (t3 - t2) * 1000.0,
        },
        input_count=len(P),
        seed=int(seed),
        exact_pivots=exact,
        scanned_rows=scanned,
    )
