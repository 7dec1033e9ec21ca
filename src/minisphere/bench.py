"""Empirical checks of the complexity and convergence behavior.

``run_scaling`` fits a log-log slope to median solve times across sizes;
``run_convergence`` tracks how much of the hull-vertex set the reduction
captures (and how many repairs the solver needs) as the plane count grows.
Reports are plain dicts, deterministic for fixed seeds except wall-clock
fields, and share the CLI report schema (``report_version: 1``).
"""

from __future__ import annotations

import time

import numpy as np

from . import datagen, oracle
from .errors import InsufficientSamplesError, InvalidParamsError, TooLargeError
from .projection import reduce as reduce_points
from .projection import solve

_COVERAGE_N = 40  # hull-vertex oracle budget for coverage measurement
_CONVERGENCE_N = 400


def _as_int_list(values, what: str) -> list:
    out = [datagen._integer(v, what) for v in values]
    if not out:
        raise InsufficientSamplesError(f"need at least one {what}")
    return out


def run_scaling(sizes, strategy: str = "projection", seeds=(0, 1, 2), k_mode=24,
                kind: str = "uniform-ball") -> dict:
    """Median wall time per size and the log-log slope across sizes.

    Parameters
    ----------
    sizes : strictly ascending counts, each >= 1000, at least two of them.
    strategy : ``solve``'s strategy, "projection" (reduce + repair) or
        "welzl" (full cloud); ``solve`` rejects any other.
    seeds : at least 3 seeds; the per-size time is the median over seeds.
    k_mode : ``solve``'s ``sel``: a fixed plane count, or None for its
        automatic k. ``solve`` rejects any other value.
    kind : generator for the test clouds.

    A warm-up solve per size is discarded before timing.
    """
    sizes = _as_int_list(sizes, "size")
    seeds = _as_int_list(seeds, "seed")
    if len(sizes) < 2:
        raise InsufficientSamplesError("scaling fit needs at least 2 sizes")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InsufficientSamplesError("sizes must be strictly ascending")
    if min(sizes) < 1000:
        raise InsufficientSamplesError("sizes below 1000 are dominated by constant overhead")
    if len(seeds) < 3:
        raise InsufficientSamplesError("need at least 3 seeds for a stable median")

    per_size = []
    for n in sizes:
        clouds = {s: datagen.generate(kind, n, seed=s) for s in seeds}
        solve(clouds[seeds[0]], sel=k_mode, seed=seeds[0], strategy=strategy)  # warm-up, discarded
        times = []
        stage_rows = []
        for s in seeds:
            t0 = time.perf_counter()
            report = solve(clouds[s], sel=k_mode, seed=s, strategy=strategy)
            times.append((time.perf_counter() - t0) * 1000.0)
            stage_rows.append(report.timings)
        med = float(np.median(times))
        per_size.append(
            {
                "n": n,
                "k": report.k,
                "median_ms": med,
                "times_ms": times,
                "stage_ms": {
                    key: float(np.median([row[key] for row in stage_rows]))
                    for key in ("ingest_ms", "reduce_ms", "solve_ms", "verify_ms")
                },
            }
        )

    logs_n = np.log([row["n"] for row in per_size])
    logs_t = np.log([max(row["median_ms"], 1e-9) for row in per_size])
    slope, intercept = np.polyfit(logs_n, logs_t, 1)
    return {
        "report_version": 1,
        "benchmark": "scaling",
        "kind": kind,
        "strategy": strategy,
        "k_mode": k_mode,
        "sizes": sizes,
        "seeds": seeds,
        "per_size": per_size,
        "slope": float(slope),
        "intercept": float(intercept),
    }


def run_convergence(n: int, ks, seeds, kind: str = "uniform-ball") -> dict:
    """Coverage and repair-count trends as the plane count grows.

    For n <= 40 the hull-vertex oracle measures, per instance, the fraction
    of hull vertices the reduction captured; above that the repair count of
    the full solve stands in as a proxy. Means and standard deviations are
    reported per k.
    """
    n = datagen._integer(n, "point count")
    if n < 1:
        raise InvalidParamsError(f"point count must be at least 1, got {n}")
    if n > _CONVERGENCE_N:
        raise TooLargeError(f"convergence study supports n <= {_CONVERGENCE_N}, got {n}")
    ks = _as_int_list(ks, "plane count")
    seeds = _as_int_list(seeds, "seed")

    measure_coverage = n <= _COVERAGE_N
    clouds = {s: datagen.generate(kind, n, seed=s) for s in seeds}
    hulls = {}
    if measure_coverage:
        for s, P in clouds.items():
            hulls[s] = frozenset(
                i for i in range(len(P)) if oracle.is_hull_vertex(i, P)
            )

    per_k = []
    for k in ks:
        coverages = []
        repairs = []
        for s in seeds:
            P = clouds[s]
            if measure_coverage:
                picked = set(int(i) for i in reduce_points(P, k).indices)
                hull = hulls[s]
                coverages.append(len(picked & hull) / len(hull) if hull else 1.0)
            repairs.append(solve(P, sel=k, seed=s).repair_rounds)
        row = {
            "k": k,
            "repair_mean": float(np.mean(repairs)),
            "repair_std": float(np.std(repairs)),
        }
        if measure_coverage:
            row["coverage_mean"] = float(np.mean(coverages))
            row["coverage_std"] = float(np.std(coverages))
        else:
            row["coverage_mean"] = None
            row["coverage_std"] = None
        per_k.append(row)

    return {
        "report_version": 1,
        "benchmark": "convergence",
        "kind": kind,
        "n": n,
        "ks": ks,
        "seeds": seeds,
        "per_k": per_k,
    }
