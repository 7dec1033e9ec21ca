"""Acceptance gate.

One test per shipping criterion, in order. Each prints a single
``criterion N: PASS/FAIL (...)`` line with the measured numbers (visible
with ``pytest -s`` or on failure) and then asserts, so the ``-v`` listing
reads as one verdict per criterion.

These are deliberately end-to-end: they regenerate their inputs, run the
public API or the real CLI, and compare against the independent oracles.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

import numpy as np

from minisphere.bench import run_convergence, run_scaling
from minisphere.datagen import generate
from minisphere.geom import tolerance_for
from minisphere.oracle import brute_force_ses, enclosing_circle_2d, is_hull_vertex
from minisphere.projection import reduce, solve
from minisphere.welzl import welzl_solve

from conftest import cube_corners, max_violation, random_rotation, rel_err

KINDS = (
    "uniform-ball",
    "uniform-cube",
    "collinear",
    "coplanar-disk",
    "co-spherical",
    "clustered",
    "near-degenerate",
)


def _verdict(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def test_criterion_1_oracle_equivalence():
    """500 seeded instances, N in [4, 60], all kinds: welzl_solve and solve
    match the brute-force radius within 1e-9 relative and enclose the cloud."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260816)
    sizes = rng.integers(4, 61, 500)
    worst = 0.0
    for i in range(500):
        kind = KINDS[i % len(KINDS)]
        P = generate(kind, int(sizes[i]), seed=i)
        tol = tolerance_for(P)
        want = brute_force_ses(P)
        for got in (welzl_solve(P, seed=i)[0], solve(P, seed=i).sphere):
            if want.radius > 0:
                worst = max(worst, rel_err(got.radius, want.radius))
            else:
                worst = max(worst, got.radius)
            assert max_violation(P, got.center, got.radius) <= tol.abs_eps
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 120.0
    line = _verdict(1, ok, f"500 instances, worst rel err {worst:.3e}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_2_reduced_set_is_hull_vertices():
    """200 seeded instances, N <= 40: every index reduce() picks must be a
    convex hull vertex of its cloud. Zero violations allowed."""
    rng = np.random.default_rng(77)
    k_cycle = (1, 2, 6, 13, 24)
    violations = 0
    checked = 0
    for i in range(200):
        kind = KINDS[i % len(KINDS)]
        n = int(rng.integers(4, 41))
        P = generate(kind, n, seed=1000 + i)
        red = reduce(P, k_cycle[i % len(k_cycle)])
        for idx in red.indices.tolist():
            checked += 1
            if not is_hull_vertex(idx, P):
                violations += 1
    ok = violations == 0
    line = _verdict(2, ok, f"{checked} picked indices checked, {violations} violations")
    assert ok, line


def test_criterion_3_interior_points_never_selected():
    """Known-interior constructions stay out of the reduced set for
    k in {1, 6, 24}, 50 seeds each."""
    bad = 0
    trials = 0
    for seed in range(50):
        R = random_rotation(seed)
        shift = np.array([seed * 0.13, -seed * 0.07, seed * 0.011])
        cube = np.vstack([cube_corners(), [[0.5, 0.5, 0.5]]]) @ R.T + shift
        shell = generate("co-spherical", 40, seed=seed)
        ball = np.vstack([shell, shell.mean(axis=0)[None, :]])
        assert not is_hull_vertex(40, ball)  # interior by construction
        for k in (1, 6, 24):
            for P, interior in ((cube, 8), (ball, 40)):
                trials += 1
                if interior in reduce(P, k).indices:
                    bad += 1
                if interior in solve(P, sel=k, seed=seed).support_indices:
                    bad += 1
    ok = bad == 0
    line = _verdict(3, ok, f"{trials} construction/k/seed trials, {bad} interior picks")
    assert ok, line


def test_criterion_4_degenerate_families_at_scale():
    """Collinear, coplanar and co-spherical clouds solve without error up to
    N = 1e5, each against its own analytic or 2D reference, 1e-9 relative."""
    worst = 0.0
    for n in (1000, 10_000, 100_000):
        for seed in (0, 1):
            P = generate("collinear", n, seed=seed)
            r = solve(P, seed=seed).sphere.radius
            half = 0.5 * float(np.linalg.norm(P.max(axis=0) - P.min(axis=0)))
            worst = max(worst, rel_err(r, half))

            P = generate("coplanar-disk", n, seed=seed)
            rep = solve(P, seed=seed)
            c = P.mean(axis=0)
            _, _, vt = np.linalg.svd(P - c, full_matrices=False)
            flat = (P - c) @ vt[:2].T
            _, r2d = enclosing_circle_2d(flat)
            worst = max(worst, rel_err(rep.sphere.radius, r2d))

            P = generate("co-spherical", n, seed=seed)
            worst = max(worst, rel_err(solve(P, seed=seed).sphere.radius, 1.0))
    ok = worst <= 1e-9
    line = _verdict(4, ok, f"three families to N=1e5, worst rel err {worst:.3e}")
    assert ok, line


def test_criterion_5_equivalence_with_full_welzl_at_scale():
    """solve (projection + repair) equals welzl_solve on the full cloud within
    1e-9 relative radius: every kind, N in {1e3, 1e4, 1e5}, 5 seeds."""
    worst = 0.0
    for kind in KINDS:
        for n in (1000, 10_000, 100_000):
            for seed in range(5):
                P = generate(kind, n, seed=seed)
                a = solve(P, seed=seed).sphere.radius
                b = welzl_solve(P, seed=seed)[0].radius
                worst = max(worst, rel_err(a, b) if b > 0 else a)
    ok = worst <= 1e-9
    line = _verdict(5, ok, f"{len(KINDS)}x3x5 instances, worst rel err {worst:.3e}")
    assert ok, line


def test_criterion_6_near_linear_scaling():
    """Log-log slope of median solve time across 1e4..1e6 at k = 24 sits in
    [0.85, 1.15]; whole benchmark under 10 minutes."""
    t0 = time.perf_counter()
    rep = run_scaling([10_000, 30_000, 100_000, 300_000, 1_000_000], seeds=(0, 1, 2), k_mode=24)
    wall = time.perf_counter() - t0
    slope = rep["slope"]
    ok = 0.85 <= slope <= 1.15 and wall < 600.0
    meds = ", ".join(f"{row['median_ms']:.1f}" for row in rep["per_size"])
    line = _verdict(6, ok, f"slope {slope:.4f}, medians [{meds}] ms, wall {wall:.1f}s")
    assert ok, line


def test_criterion_7_coverage_convergence():
    """Mean hull-vertex coverage (20 seeds, N = 30, uniform-ball) must be
    non-decreasing over k in {6, 12, 24, 48} and at least 0.95 by k = 96,
    with mean repair rounds non-increasing in k."""
    ks = (6, 12, 24, 48, 96)
    rep = run_convergence(30, ks=ks, seeds=range(20))
    cov = [row["coverage_mean"] for row in rep["per_k"]]
    repairs = [row["repair_mean"] for row in rep["per_k"]]
    monotone_cov = all(b >= a - 1e-12 for a, b in zip(cov[:4], cov[1:4]))
    cov_at_96 = cov[-1]
    monotone_rep = all(b <= a + 1e-12 for a, b in zip(repairs, repairs[1:]))
    ok = monotone_cov and cov_at_96 >= 0.95 and monotone_rep
    detail = (
        f"coverage {['%.4f' % c for c in cov]} over k={list(ks)}, "
        f"repairs {['%.2f' % r for r in repairs]}; "
        f"monotone coverage: {monotone_cov}, coverage@96 >= 0.95: {cov_at_96 >= 0.95}, "
        f"monotone repairs: {monotone_rep}"
    )
    line = _verdict(7, ok, detail)
    assert ok, line


def test_criterion_8_reduction_budget():
    """|P_s| <= 4K before any repair, on every instance tried."""
    worst = 0.0
    count = 0
    for kind in KINDS:
        for n in (50, 3000):
            for k in (1, 6, 24):
                for seed in (0, 1):
                    P = generate(kind, n, seed=seed)
                    red = reduce(P, k)
                    assert len(red.indices) <= 4 * k
                    rep = solve(P, sel=k, seed=seed)
                    assert rep.reduced_size <= 4 * k
                    worst = max(worst, rep.reduced_size / (4 * k))
                    count += 1
    ok = True  # the asserts above are the gate; reaching here means zero breaches
    line = _verdict(8, ok, f"{count} instances, max |P_s|/(4K) = {worst:.3f}")
    assert ok, line


def _strip_timing_fields(doc):
    if isinstance(doc, dict):
        return {
            k: _strip_timing_fields(v)
            for k, v in doc.items()
            if not (k.endswith("_ms") or k in ("slope", "intercept"))
        }
    if isinstance(doc, list):
        return [_strip_timing_fields(v) for v in doc]
    return doc


def test_criterion_9_cli_determinism(tmp_path):
    """Identical CLI invocations with one seed give byte-identical reports
    once timing-derived fields are dropped."""
    cloud = tmp_path / "cloud.csv"
    from minisphere.cloudio import save_points

    save_points(cloud, generate("clustered", 2000, seed=6), fmt="csv")
    invocations = [
        ["solve", str(cloud), "--seed", "5", "--k", "7"],
        ["solve", str(cloud), "--seed", "5", "--strategy", "welzl"],
        ["bench", "convergence", "--n", "25", "--ks", "6,12", "--seeds", "0..3"],
        ["bench", "scaling", "--sizes", "1000,2000", "--seeds", "0,1,2", "--k", "8"],
    ]
    identical = 0
    for argv in invocations:
        cmd = [sys.executable, "-m", "minisphere"] + argv
        a = subprocess.run(cmd, capture_output=True, text=True)
        b = subprocess.run(cmd, capture_output=True, text=True)
        assert a.returncode == 0 and b.returncode == 0, argv
        da = json.dumps(_strip_timing_fields(json.loads(a.stdout)), sort_keys=True)
        db = json.dumps(_strip_timing_fields(json.loads(b.stdout)), sort_keys=True)
        identical += da.encode() == db.encode()
    ok = identical == len(invocations)
    line = _verdict(9, ok, f"{identical}/{len(invocations)} invocation pairs byte-identical")
    assert ok, line
