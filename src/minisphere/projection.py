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
the full cloud from the small set's ball, where a scan after the first
reads only what the centre's shift may have pushed outside (see
``welzl``): the rows whose own distance bound may exceed the limit, on a
cloud of at most one scan chunk, and otherwise, in batched rounds, the
64-row blocks whose bound may. ``solve`` is the one entry
point for the library, the CLI and the bench; ``strategy="welzl"`` makes
it run ``welzl_solve`` on the full cloud and report that the same way.

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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidKError, InvalidParamsError
from .geom import Sphere, _unit_cloud, as_cloud, tolerance_for  # noqa: F401  tolerance_for: unused, but perfbench/spans.py hooks it
from .welzl import _pivot_solve, _scaled, _solved_ball, welzl_solve

_PHI = (1.0 + math.sqrt(5.0)) / 2.0
_BLOCK_ELEMS = 2 ** 17  # doubles per reduce block: ~1 MB, which keeps BLAS threading cheap


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
    """What ``solve`` found and where its time went.

    ``repair_rounds`` counts the pivots after the reduced set's solve,
    whether a full scan or a batched round's candidates supplied them;
    ``exact_pivots`` counts those taken in exact arithmetic: the first
    pivot whose float ball rounding kept from growing, and every later
    one. ``scanned_rows`` counts the rows whose distance the repair's
    scans computed: N per full scan, and for a later scan 64 per block it
    read, or on a cloud of at most one scan chunk each row it read.
    ``timings``: ``ingest_ms`` (validation), ``reduce_ms``,
    ``solve_ms`` (the reduced set's solve), ``verify_ms`` (the full-cloud
    scans and all pivots). For ``strategy == "welzl"``, ``k`` and
    ``reduced_size`` are None, ``repair_rounds``, ``exact_pivots``,
    ``scanned_rows``, ``reduce_ms`` and ``verify_ms`` are 0, and
    ``solve_ms`` is ``welzl_solve`` on the full cloud.
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
    """The automatic plane count: k = 1 (four directions) at every n >= 1.

    A measured constant: over k in {1, 2, 3, 4, 6, 12}, every ``datagen``
    kind and n in {1e4, 1e5, 1e6}, k = 1 had the least total solve time.
    """
    n = operator.index(n)
    if n < 1:
        raise InvalidParamsError(f"point count must be at least 1, got {n}")
    return KSelection("general", 1)


def solve(points, sel=None, seed: int = 0, strategy: str = "projection") -> SolveReport:
    """Smallest enclosing sphere of a cloud, by reduction or by the full solve.

    Parameters
    ----------
    points : (N, 3) array-like, N >= 1.
    sel : KSelection, bare plane count, or None (auto: select_k(N)). Any
        other value must be a positive integer count, or InvalidKError is
        raised, as in ``reduce``. Only the projection strategy reads it.
    seed : recorded in the report; the solve is deterministic and does
        not read it.
    strategy : "projection" (reduce, solve, verify and repair) or "welzl"
        (``welzl_solve`` on the full cloud); anything else raises
        InvalidParamsError.

    Returns
    -------
    SolveReport. With "projection", the reduced set's ball is the start
    of a pivoting over the full cloud: while a point lies outside (beyond
    a band of rounding size), the farthest one joins the support and the
    ball is rebuilt. On a cloud larger than one scan chunk each scan also
    gathers the farthest outside row of every 64-row block, and the pivots
    run over those in memory before the next scan. Only the first scan is
    full: later ones read just the blocks whose distance bound, grown by
    the centre's shift, may exceed the new limit, and find the rows a full
    scan would. A smaller cloud keeps one bound per row and one pivot per
    scan, so its pivots are the ones full scans take. The loop ends on a scan that finds no point outside. Each
    pivot is a repair round. If rounding stalls a pivot, that pivot and
    all later ones are taken in exact arithmetic and ``exact_pivots``
    counts them. ``scanned_rows`` counts the rows the scans read. With
    "welzl", ``k`` and ``reduced_size`` are None, ``repair_rounds`` and
    ``scanned_rows`` are 0, and everything after ingest is timed as
    ``solve_ms``.

    There is no tolerance argument and no cloud scale: every band is
    relative to the ball or the points it tests, so scaling a cloud by a
    power of two scales the result exactly while its coordinates stay
    normal doubles within ±1e150. A cloud whose largest |coordinate| is
    below 2**-400 is solved scaled to unit size by a power of two, so that
    no squared distance underflows, and its sphere is scaled back; below
    2**-1022 (subnormal input) the way back rounds.
    """
    if strategy not in ("projection", "welzl"):
        raise InvalidParamsError(f"unknown strategy {strategy!r}")
    t0 = time.perf_counter()
    P, e = _unit_cloud(points)
    if strategy == "welzl":
        k = reduced_size = None
        t_in = t1 = time.perf_counter()  # no reduce stage
        sphere, support = _pivot_solve(P)[:2]  # welzl_solve on the cloud validated above
        t2 = t3 = time.perf_counter()
        pivots = exact = scanned = 0
    else:
        t_in = time.perf_counter()
        k = _plane_count(select_k(len(P)) if sel is None else sel)
        rset = reduce(P, k)
        reduced_size = int(len(rset.indices))
        t1 = time.perf_counter()
        small, sup = welzl_solve(P[rset.indices], seed=seed)
        t2 = time.perf_counter()
        start = _solved_ball(P, small, rset.indices[list(sup.indices)].tolist())
        sphere, support, pivots, exact, scanned = _pivot_solve(P, start)
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
